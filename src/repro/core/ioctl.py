"""ioctl command surface of the packet-filter device (section 3.3).

"The user can control the packet filter's action in a variety of ways,
by specifying: the filter to be associated with a packet filter port;
the timeout duration for blocking reads (or optionally, immediate return
or indefinite blocking); the signal, if any, to be delivered upon packet
reception; and the maximum length of the per-port input queue."

And the information the filter provides back: "the type of the
underlying data-link layer; the lengths of a data-link layer address and
of a data-link layer header; the maximum packet size for the data-link;
the data-link address for incoming packets; and the address used for
data-link layer broadcasts".

The numeric command values are arbitrary but stable; they exist so the
simulated ``ioctl`` syscall has a realistic shape (fd, command, argument)
rather than a Python-method shape.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["PFIoctl", "DataLinkInfo", "PortStatus"]


class PFIoctl(enum.IntEnum):
    """Command codes accepted by the packet-filter device's ioctl."""

    SETFILTER = 1     #: arg: FilterProgram — bind/replace the predicate
    SETTIMEOUT = 2    #: arg: ReadTimeoutPolicy
    SETSIGNAL = 3     #: arg: int signal number, or None to clear
    SETQUEUELEN = 4   #: arg: int maximum queued packets
    SETTIMESTAMP = 5  #: arg: bool — mark packets with receive time
    SETCOPYALL = 6    #: arg: bool — let accepted packets continue onward
    SETBATCH = 7      #: arg: bool — return all queued packets per read
    FLUSH = 8         #: arg: None — discard queued packets
    GETINFO = 9       #: returns DataLinkInfo
    GETSTATS = 10     #: returns PortStatus
    SETWRITEBATCH = 11  #: arg: bool — section 7 write-batching extension


@dataclass(frozen=True)
class DataLinkInfo:
    """GETINFO result: properties of the underlying data link."""

    datalink_type: str        #: e.g. "ethernet-10mb", "ethernet-3mb"
    address_length: int       #: bytes in a data-link address
    header_length: int        #: bytes of data-link header on each packet
    max_packet_bytes: int     #: data-link MTU including header
    local_address: bytes      #: this interface's address
    broadcast_address: bytes | None  #: None if the link has no broadcast


@dataclass(frozen=True)
class PortStatus:
    """GETSTATS result: the per-port counters of section 3.3."""

    queued: int
    accepted: int
    delivered: int
    dropped_queue_overflow: int
    dropped_ring: int         #: losses to the interface's full input ring
    dropped_resize: int       #: discards from shrinking the queue limit
    dropped_nobuf: int        #: refusals by the shared kernel buffer pool
