"""The integrated network monitor of section 5.4.

"One of us has been using the packet filter, on a MicroVAX-II
workstation, as the basis for a variety of experimental network
monitoring tools. ...  Since one can easily write arbitrarily elaborate
programs to analyze the trace data, and even to do substantial analysis
in real time, an integrated network monitor appears to be far more
useful than a dedicated one."

The monitor is an ordinary user process: a promiscuous NIC, a
packet-filter port with an accept-everything filter bound in *copy-all*
mode ("useful in implementing monitoring facilities without disturbing
the processes being monitored"), timestamping on, batching on.  It
decodes whatever it recognizes (IP/UDP/TCP, Pup/BSP, VMTP, RARP) and
accumulates a live traffic summary — the "substantial analysis in real
time".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.ioctl import PFIoctl
from ..core.port import ReadTimeoutPolicy
from ..net.ethernet import LinkSpec
from ..protocols import ethertypes
from ..protocols.ip import IPError, IPHeader, PROTO_TCP, PROTO_UDP, format_ip
from ..protocols.pup import PupError, PupHeader
from ..protocols.vmtp import VMTPError, VMTPPacket
from ..baselines.user_demux import catch_all_filter
from ..sim.errors import SimTimeout
from ..sim.process import Ioctl, Open, Read

__all__ = ["TraceRecord", "TrafficSummary", "NetworkMonitor", "decode_frame"]


@dataclass(frozen=True)
class TraceRecord:
    """One captured packet, decoded as far as we know how."""

    timestamp: float | None
    length: int
    source: str
    destination: str
    protocol: str
    info: str
    drops_before: int


@dataclass
class TrafficSummary:
    """Live counters, per protocol and per talker."""

    packets: int = 0
    bytes: int = 0
    by_protocol: dict = field(default_factory=dict)
    by_source: dict = field(default_factory=dict)

    def account(self, record: TraceRecord) -> None:
        self.packets += 1
        self.bytes += record.length
        self.by_protocol[record.protocol] = (
            self.by_protocol.get(record.protocol, 0) + 1
        )
        self.by_source[record.source] = self.by_source.get(record.source, 0) + 1

    def top_talkers(self, n: int = 5) -> list[tuple[str, int]]:
        return sorted(self.by_source.items(), key=lambda kv: -kv[1])[:n]


def decode_frame(link: LinkSpec, frame: bytes) -> tuple[str, str]:
    """Best-effort decode; returns (protocol, info)."""
    ethertype = link.ethertype_of(frame)
    payload = link.payload_of(frame)

    if ethertype == ethertypes.ETHERTYPE_IP:
        try:
            header, body = IPHeader.decode(payload)
        except IPError:
            return "ip?", "bad IP header"
        inner = {PROTO_TCP: "tcp", PROTO_UDP: "udp"}.get(header.protocol)
        info = f"{format_ip(header.src)} > {format_ip(header.dst)}"
        return (inner or f"ip-proto-{header.protocol}", info)

    if ethertype in (
        ethertypes.ETHERTYPE_PUP_3MB,
        ethertypes.ETHERTYPE_PUP_10MB,
    ):
        try:
            header, _ = PupHeader.decode(payload)
        except PupError:
            return "pup?", "bad Pup header"
        return (
            "pup",
            f"type {header.pup_type} "
            f"{header.src.net}#{header.src.host}#{header.src.socket:x} > "
            f"{header.dst.net}#{header.dst.host}#{header.dst.socket:x}",
        )

    if ethertype == ethertypes.ETHERTYPE_VMTP:
        try:
            packet = VMTPPacket.decode(payload)
        except VMTPError:
            return "vmtp?", "bad VMTP header"
        return (
            "vmtp",
            f"{packet.kind.name.lower()} client {packet.client} "
            f"server {packet.server} txn {packet.transaction} "
            f"seg {packet.seg_index + 1}/{packet.seg_count}",
        )

    if ethertype == ethertypes.ETHERTYPE_RARP:
        return "rarp", f"op {payload[7] if len(payload) > 7 else '?'}"

    return f"type-{ethertype:#06x}", f"{len(payload)} bytes"


class NetworkMonitor:
    """The monitoring process.  Spawn its :meth:`run` on a promiscuous
    host whose kernel has ``pf_sees_all`` enabled (so the monitor sees
    traffic claimed by kernel protocols too)."""

    def __init__(
        self,
        host,
        *,
        idle_timeout: float = 0.5,
    ) -> None:
        self.host = host
        self.idle_timeout = idle_timeout
        self.trace: list[TraceRecord] = []
        self.summary = TrafficSummary()

    def run(self):
        """Capture until the wire goes idle for ``idle_timeout``;
        returns the trace."""
        fd = yield Open("pf")
        yield Ioctl(fd, PFIoctl.SETFILTER, catch_all_filter(priority=255))
        yield Ioctl(fd, PFIoctl.SETCOPYALL, True)
        yield Ioctl(fd, PFIoctl.SETTIMESTAMP, True)
        yield Ioctl(fd, PFIoctl.SETBATCH, True)
        yield Ioctl(fd, PFIoctl.SETQUEUELEN, 128)
        yield Ioctl(
            fd, PFIoctl.SETTIMEOUT, ReadTimeoutPolicy.after(self.idle_timeout)
        )
        link = self.host.link
        while True:
            try:
                batch = yield Read(fd)
            except SimTimeout:
                return self.trace
            for delivered in batch:
                protocol, info = decode_frame(link, delivered.data)
                record = TraceRecord(
                    timestamp=delivered.timestamp,
                    length=len(delivered.data),
                    source=link.source_of(delivered.data).hex(),
                    destination=link.destination_of(delivered.data).hex(),
                    protocol=protocol,
                    info=info,
                    drops_before=delivered.drops_before,
                )
                self.trace.append(record)
                self.summary.account(record)

    def format_trace(self) -> str:
        """tcpdump-style rendering of the first 20 records."""
        lines = []
        for record in self.trace[:20]:
            stamp = (
                f"{record.timestamp:.6f}" if record.timestamp is not None
                else "-"
            )
            lines.append(
                f"{stamp}  {record.source} > {record.destination} "
                f"{record.protocol:>6} {record.length:4}B  {record.info}"
            )
        return "\n".join(lines)

    def format_costs(self) -> str:
        """What the kernel spent while we watched — the "substantial
        analysis in real time" extended to the kernel's own time, read
        from the world's charge ledger.  Needs a ledger-enabled world
        (``World(ledger=True)``); says so when there isn't one."""
        ledger = self.host.kernel.ledger
        if ledger is None:
            return "(charge ledger not enabled on this world)"
        rows = ledger.breakdown(self.host.name)
        total = sum(row["cost"] for row in rows.values())
        lines = [
            f"kernel cost on {self.host.name}: {total * 1000.0:.3f} ms"
        ]
        for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["cost"]):
            lines.append(
                f"  {name:<20}{row['events']:>7} events"
                f"{row['cost'] * 1000.0:>10.3f} ms"
            )
        drops = ledger.drop_summary(self.host.name)
        if drops:
            lines.append("drops:")
            for reason, count in sorted(drops.items(), key=lambda kv: -kv[1]):
                lines.append(f"  {reason:<20}{count:>7}")
        return "\n".join(lines)
