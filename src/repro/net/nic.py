"""Network interfaces: address filtering, input queueing, drop counting.

The NIC is where the section 3.3 "count of the number of packets lost
due to queue overflows in the network interface" comes from: received
frames wait in a bounded input queue for the kernel's receive interrupt,
and a full queue drops (and counts).

A NIC in promiscuous mode accepts every frame on the segment regardless
of destination — what the section 5.4 network monitor runs on.
"""

from __future__ import annotations

from collections import deque

from ..sim.ledger import (
    Primitive,
    STAGE_WIRE_ARRIVAL,
)
from ..sim.overload import POLL_ENTER, POLL_PERIOD, POLL_QUOTA
from .ethernet import LinkSpec

__all__ = ["NIC", "DEFAULT_INPUT_QUEUE"]

DEFAULT_INPUT_QUEUE = 16
"""Frames the interface can hold before the kernel services them."""


class NIC:
    """One station's interface to an :class:`EthernetSegment`."""

    def __init__(
        self,
        address: bytes,
        link: LinkSpec,
        *,
        input_queue_limit: int = DEFAULT_INPUT_QUEUE,
        promiscuous: bool = False,
    ) -> None:
        if len(address) != link.address_length:
            raise ValueError(
                f"address {address!r} wrong length for {link.name}"
            )
        self.address = address
        self.link = link
        self.promiscuous = promiscuous
        self.input_queue_limit = input_queue_limit
        self._service_event = None
        self.segment = None   # set by EthernetSegment.attach
        self.kernel = None    # set by SimKernel.attach_nic
        self._input_queue: deque[bytes] = deque()
        self._input_ids: deque[int | None] = deque()  # ledger span ids
        self._service_scheduled = False
        self.frames_received = 0
        self.frames_dropped = 0    #: input-queue overflow losses
        self.frames_ignored = 0    #: address-filtered out
        self.frames_sent = 0
        self.polling = False
        """In budgeted-polling mode: an ``RxPolicy`` watermark was
        crossed and the poll loop, not per-frame interrupts, drains the
        ring (receive-livelock avoidance)."""
        self.polls = 0              #: poll quanta executed
        self.frames_polled = 0      #: frames drained by the poll loop
        self.poll_mode_entries = 0  #: interrupt -> polling transitions
        self.frames_shed = 0        #: admission drops: policy early shed
        self.frames_nobuf = 0       #: admission drops: buffer pool refusal

    def telemetry_gauges(self) -> dict:
        """Gauge callables for the telemetry sampler — ring occupancy,
        poll-mode state, and the admission-drop counters.  The kernel
        publishes these at :meth:`SimKernel.attach_nic` time; the
        sampler never imports this module."""
        return {
            "ring_depth": lambda: len(self._input_queue),
            "polling": lambda: 1.0 if self.polling else 0.0,
            "polls": lambda: self.polls,
            "poll_mode_entries": lambda: self.poll_mode_entries,
            "frames_received": lambda: self.frames_received,
            "frames_dropped": lambda: self.frames_dropped,
            "frames_shed": lambda: self.frames_shed,
            "frames_nobuf": lambda: self.frames_nobuf,
        }

    # -- transmit ---------------------------------------------------------

    def transmit(self, frame: bytes) -> None:
        if self.segment is None:
            raise RuntimeError("NIC is not attached to a segment")
        self.frames_sent += 1
        self.segment.transmit(self, frame)

    # -- receive ------------------------------------------------------------

    def wants(self, frame: bytes) -> bool:
        if self.promiscuous:
            return True
        dst = self.link.destination_of(frame)
        return dst == self.address or dst == self.link.broadcast

    def receive(self, frame: bytes) -> None:
        """Frame arrives off the wire (called by the segment)."""
        if not self.wants(frame):
            self.frames_ignored += 1
            return
        kernel = self.kernel
        ledger = kernel.ledger
        packet_id = None
        if ledger is not None:
            packet_id = ledger.begin_packet(
                kernel.name,
                at=kernel.scheduler.now,
                flow=self.link.ethertype_of(frame),
                stage=STAGE_WIRE_ARRIVAL,
            )
        policy = kernel.rx_policy
        depth = len(self._input_queue)
        if depth >= self.input_queue_limit:
            cause = Primitive.DROP_RING
        elif policy is not None or kernel.buffer_pool is not None:
            cause = kernel.admit_frame(self, frame, depth)
        else:
            cause = None
        if cause is not None:
            self._drop_at_admission(cause, packet_id)
            return
        self.frames_received += 1
        self._input_queue.append(frame)
        self._input_ids.append(packet_id)
        if self.polling:
            return  # the poll loop owns draining; arrivals just queue
        if policy is not None and len(self._input_queue) >= POLL_ENTER:
            self._enter_polling()
        else:
            self._schedule_service()

    def _drop_at_admission(self, cause, packet_id: int | None) -> None:
        """Refused at ring enqueue: count it and close its fate in the
        ledger, so the drop census accounts for every wire arrival —
        the charge goes through ``kernel.account`` like any other event."""
        if cause is Primitive.DROP_SHED:
            self.frames_shed += 1
        elif cause is Primitive.DROP_NOBUF:
            self.frames_nobuf += 1
        else:
            self.frames_dropped += 1
        self.kernel.account(cause, component="nic", packet_id=packet_id)
        ledger = self.kernel.ledger
        if ledger is not None:
            # Each admission cause's value is its span outcome.
            ledger.close_packet(packet_id, cause.value, self.kernel.scheduler.now)

    def _schedule_service(self) -> None:
        """Arrange for the kernel's receive interrupt to drain the queue:
        one interrupt per frame, so interrupt costs serialize on the
        host CPU the way per-frame interrupts did."""
        if self._service_scheduled:
            return
        self._service_scheduled = True
        kernel = self.kernel
        scheduler = kernel.scheduler
        if kernel.rx_policy is not None:
            # CPU-gated: with an overload policy the receive interrupt
            # runs when the CPU cursor frees, not instantaneously, so
            # the ring holds real backlog and can genuinely fill — the
            # precondition for watermarks, shedding and polling.
            self._service_event = scheduler.schedule_at(
                kernel.cpu_available_at, self._service
            )
            return
        segment = self.segment
        if segment is not None and segment._handoffs is not None:
            # Inside the segment's arrival event, with no live event due
            # at or before now: this service would fire next after the
            # ones handed over before it, so the segment runs it once
            # every station has seen the frame.
            head = scheduler.next_time()
            if head is None or head > scheduler.now:
                segment._handoffs.append(self)
                return
        self._service_event = scheduler.schedule(0.0, self._service)

    def _service(self) -> None:
        self._service_scheduled = False
        if not self._input_queue or self.polling:
            return
        kernel = self.kernel
        frame = self._input_queue.popleft()
        packet_id = self._input_ids.popleft()
        if kernel.buffer_pool is not None:
            # The ring slot frees as the frame is handed up; a port
            # that keeps it takes its own reservation at enqueue.
            kernel.buffer_pool.release(("ring", kernel.name))
        kernel.network_input(self, frame, packet_id)
        if self._input_queue:
            self._schedule_service()

    # -- budgeted polling (receive-livelock avoidance) ---------------------

    def _enter_polling(self) -> None:
        """Abandon per-frame interrupts for budgeted polling: the ring
        crossed the :data:`~repro.sim.overload.POLL_ENTER` watermark."""
        self.polling = True
        self.poll_mode_entries += 1
        if self._service_scheduled and self._service_event is not None:
            self._service_event.cancel()
            self._service_scheduled = False
        self.kernel.scheduler.schedule_at(
            self.kernel.cpu_available_at, self._poll
        )

    def _poll(self) -> None:
        """One poll quantum: drain up to ``POLL_QUOTA`` frames under a
        single interrupt-service charge, then leave the CPU alone long
        enough that user processes keep their guaranteed share.
        """
        kernel = self.kernel
        policy = kernel.rx_policy
        if policy is None or not self._input_queue:
            # Load has passed (or the policy was removed mid-flight):
            # back to interrupt-per-frame service.
            self.polling = False
            if self._input_queue:
                self._schedule_service()
            return
        start = kernel.cpu_available_at
        frames: list[bytes] = []
        packet_ids: list[int | None] = []
        while self._input_queue and len(frames) < POLL_QUOTA:
            frames.append(self._input_queue.popleft())
            packet_ids.append(self._input_ids.popleft())
        if kernel.buffer_pool is not None:
            kernel.buffer_pool.release(("ring", kernel.name), len(frames))
        self.polls += 1
        self.frames_polled += len(frames)
        kernel.network_input_batch(self, frames, packet_ids=packet_ids)
        if not self._input_queue:
            self.polling = False
            return
        # The user-share reservation: this quantum consumed
        # ``end - start`` of CPU, so the next one waits out a
        # proportional gap — receive processing can never exceed
        # ``1 - USER_SHARE`` of the timeline no matter the offered load.
        end = kernel.cpu_available_at
        next_at = max(
            end + policy.user_gap(end - start),
            kernel.scheduler.now + POLL_PERIOD,
        )
        kernel.scheduler.schedule_at(next_at, self._poll)
