"""The shared broadcast medium: one Ethernet segment.

Models the two properties the evaluation depends on: frames serialize
onto a shared cable at the link bandwidth (so bulk transfers can become
network-limited, as the paper observes for BSP file transfer), and every
station sees every frame (so address filtering happens in the NIC and a
promiscuous monitor sees it all — section 5.4).

Deterministic fault injection lives here too.  The section 3 protocols
are built on "write; read with timeout; retry if necessary", and one
fault model drives that paradigm: a :class:`ChaosConfig`, attachable
per sender direction via :meth:`EthernetSegment.set_chaos` — uniform
or burst loss (a two-state Gilbert–Elliott channel), bounded reordering
jitter, bit-flip corruption and delayed duplication, all drawn from
per-direction seeded generators so runs replay exactly.  Beside it,
the ``drop_filter`` test hook loses exactly the frames a predicate
names ("the third data packet").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .ethernet import LinkSpec

__all__ = ["ChaosConfig", "EgressFrame", "EthernetSegment"]


# Defined before the ``..sim`` imports below: importing ``repro.sim``
# initializes that whole package, whose topology module imports this
# class back — it must already exist on the partially-built module.
@dataclass(frozen=True, slots=True)
class EgressFrame:
    """One frame leaving its segment for another — the *only* kind of
    cross-shard event in a partitioned simulation.

    Records are plain picklable data: a bridge endpoint captures the
    frame locally, stamps the time its far side should begin
    retransmitting (capture time + store-and-forward delay — always at
    least the topology's lookahead in the future), and the shard
    runtime ships the record over a pipe to whichever process owns the
    destination segment.  ``(deliver_at, src_segment, link_id, seq)``
    is a total order, so injection order — and therefore scheduler
    tie-breaking — is identical no matter how segments are partitioned
    into processes.
    """

    deliver_at: float    #: when the far side starts transmitting
    dst_segment: str     #: segment the frame is injected into
    src_segment: str     #: segment it was captured on
    link_id: str         #: which bridge carried it
    seq: int             #: per-endpoint monotone capture counter
    frame: bytes

    @property
    def sort_key(self) -> tuple:
        return (self.deliver_at, self.src_segment, self.link_id, self.seq)


from ..sim.clock import EventScheduler  # noqa: E402  (see EgressFrame note)
from ..sim.ledger import Primitive  # noqa: E402


def _check_rate(name: str, value: float, *, closed: bool = True) -> None:
    top_ok = value <= 1.0 if closed else value < 1.0
    if not (0.0 <= value and top_ok):
        bound = "[0, 1]" if closed else "[0, 1)"
        raise ValueError(f"{name} must be in {bound}, got {value!r}")


@dataclass(frozen=True)
class ChaosConfig:
    """One direction's fault-injection profile.

    All probabilities are per frame.  Burst loss follows a two-state
    Gilbert–Elliott channel: a GOOD state losing ``loss_rate`` of
    frames, a BAD state losing ``burst_loss_rate``, with per-frame
    transition probabilities ``burst_enter_rate`` (GOOD→BAD) and
    ``burst_exit_rate`` (BAD→GOOD).  Leaving ``burst_enter_rate`` at 0
    degenerates to uniform loss.

    Reordering holds a selected frame back by a uniform draw from
    (0, ``reorder_jitter``] seconds of extra delivery delay, so it can
    land behind frames transmitted after it.  Corruption flips one
    random bit per selected frame, in the data-link *payload*, so damage
    reaches the protocols (whose checksums must catch it) rather than
    being absorbed by address filtering.
    Duplicates are delivered as distinct, later events (at least one
    frame serialization time after the original).
    """

    loss_rate: float = 0.0          #: uniform (GOOD-state) loss probability
    burst_enter_rate: float = 0.0   #: P(GOOD -> BAD) per frame
    burst_exit_rate: float = 0.3    #: P(BAD -> GOOD) per frame
    burst_loss_rate: float = 0.9    #: loss probability while BAD
    duplicate_rate: float = 0.0     #: P(frame is delivered twice)
    reorder_rate: float = 0.0       #: P(frame is held back)
    reorder_jitter: float = 2e-3    #: max extra delay for held frames (s)
    corrupt_rate: float = 0.0       #: P(frame is bit-flipped)

    def __post_init__(self) -> None:
        _check_rate("loss_rate", self.loss_rate, closed=False)
        _check_rate("burst_enter_rate", self.burst_enter_rate)
        _check_rate("burst_exit_rate", self.burst_exit_rate)
        _check_rate("burst_loss_rate", self.burst_loss_rate, closed=False)
        _check_rate("duplicate_rate", self.duplicate_rate)
        _check_rate("reorder_rate", self.reorder_rate)
        _check_rate("corrupt_rate", self.corrupt_rate)
        if self.reorder_jitter < 0.0:
            raise ValueError("reorder_jitter must be non-negative")

    def expected_loss_rate(self) -> float:
        """Long-run frame loss probability of the Gilbert–Elliott chain.

        The stationary BAD-state occupancy is
        ``enter / (enter + exit)``; the overall rate blends the two
        states' loss probabilities.  Handy for sizing soak workloads.
        """
        if self.burst_enter_rate == 0.0:
            return self.loss_rate
        denominator = self.burst_enter_rate + self.burst_exit_rate
        if denominator == 0.0:
            # Absorbing states: whichever state we start in persists;
            # chains start GOOD.
            return self.loss_rate
        bad = self.burst_enter_rate / denominator
        return (1.0 - bad) * self.loss_rate + bad * self.burst_loss_rate


class _ChaosState:
    """Per-direction chaos: one RNG, one Gilbert–Elliott state."""

    def __init__(self, config: ChaosConfig, seed_material: bytes) -> None:
        self.config = config
        # bytes seeds go through CPython's deterministic SHA-512 path,
        # so the stream is stable across processes (unlike hash()-based
        # seeding of tuples).
        self.random = random.Random(seed_material)
        self.bad = False

    def advance_channel(self) -> None:
        """One Gilbert–Elliott transition (consumed once per frame)."""
        config = self.config
        if config.burst_enter_rate == 0.0:
            return
        if self.bad:
            if self.random.random() < config.burst_exit_rate:
                self.bad = False
        elif self.random.random() < config.burst_enter_rate:
            self.bad = True

    def sample_loss(self) -> bool:
        config = self.config
        rate = config.burst_loss_rate if self.bad else config.loss_rate
        return bool(rate) and self.random.random() < rate

    def sample_corrupt(self) -> bool:
        config = self.config
        return bool(config.corrupt_rate) and (
            self.random.random() < config.corrupt_rate
        )

    def sample_reorder(self) -> float:
        """Extra delivery delay (0.0 when the frame goes out in order)."""
        config = self.config
        if config.reorder_rate and self.random.random() < config.reorder_rate:
            return self.random.random() * config.reorder_jitter
        return 0.0

    def sample_duplicate(self) -> bool:
        config = self.config
        return bool(config.duplicate_rate) and (
            self.random.random() < config.duplicate_rate
        )

    def corrupt(self, frame: bytes, header_bytes: int) -> bytes:
        """Flip one random bit past the link header (anywhere in a
        frame too short to have a payload)."""
        start = header_bytes if header_bytes < len(frame) else 0
        data = bytearray(frame)
        position = self.random.randrange(start, len(data))
        data[position] ^= 1 << self.random.randrange(8)
        return bytes(data)


PROPAGATION_DELAY = 5e-6
"""Seconds from the end of a transmission to its arrival at every NIC."""


class EthernetSegment:
    """One cable, many NICs."""

    def __init__(
        self,
        scheduler: EventScheduler,
        link: LinkSpec,
        *,
        seed: int = 0,
    ) -> None:
        self.scheduler = scheduler
        self.link = link
        #: what every direction's chaos stream is seeded from.
        self.seed = seed
        #: attached stations, in attach order.  A tuple, rebuilt on
        #: :meth:`attach`: each arrival event holds the one current when
        #: its frame was sent, so a late attacher never sees that frame.
        self._nics: tuple = ()
        self._busy_until = 0.0
        self.frames_carried = 0
        self.frames_lost = 0
        self.frames_duplicated = 0
        self.frames_reordered = 0
        self.frames_corrupted = 0
        self.bytes_carried = 0
        #: Optional predicate; returning True drops the frame (tests use
        #: this for deterministic "lose exactly the third data packet").
        self.drop_filter: Callable[[bytes, int], bool] | None = None
        self._chaos_default: ChaosConfig | None = None
        self._chaos_overrides: dict[bytes, ChaosConfig | None] = {}
        self._chaos_states: dict[bytes, _ChaosState] = {}
        #: optional :class:`repro.sim.ledger.Ledger`; wire-level fates
        #: (loss, corruption, reordering, duplication) are recorded on
        #: it under host :attr:`wire_label` when attached.
        self.ledger = None
        #: Ledger host name for wire-level events.  A lone segment keeps
        #: the historic "wire"; a topology names each cable
        #: ``wire:<segment>`` so per-segment ledgers stay host-disjoint
        #: and therefore mergeable.
        self.wire_label = "wire"
        #: Frames captured by bridge endpoints, bound for other
        #: segments.  Drained by the shard runtime at synchronization
        #: barriers; plain picklable records.
        self._egress: list[EgressFrame] = []
        #: NICs whose receive interrupt runs inside the arrival event
        #: being fired (see :meth:`NIC._schedule_service`); None outside
        #: one.
        self._handoffs: list | None = None

    def _note(self, primitive: Primitive) -> None:
        if self.ledger is not None:
            self.ledger.record(
                primitive,
                host=self.wire_label,
                at=self.scheduler.now,
                component="segment",
            )

    def note_wire_fate(self, primitive: Primitive) -> None:
        """Record a cost-free wire-level fate under this segment's
        ledger label.  Bridge endpoints use it for link-down drops —
        the frame died on this cable's uplink, so it is accounted here,
        keeping per-segment ledgers host-disjoint and mergeable."""
        self._note(primitive)

    # -- inter-segment egress -----------------------------------------------

    def push_egress(self, record: EgressFrame) -> None:
        """Queue a frame bound for another segment (bridge endpoints
        call this; the shard runtime routes it at the next barrier)."""
        self._egress.append(record)

    def drain_egress(self) -> list[EgressFrame]:
        """Take (and clear) the queued inter-segment frames."""
        drained = self._egress
        self._egress = []
        return drained

    def attach(self, nic) -> None:
        nic.segment = self
        self._nics = self._nics + (nic,)

    # -- chaos configuration ------------------------------------------------

    def set_chaos(
        self, config: ChaosConfig | None, *, sender: bytes | None = None
    ) -> None:
        """Attach (or clear, with None) a chaos profile.

        Without ``sender`` the profile applies to every transmitting
        station; with a station address it overrides the default for
        that direction only — asymmetric links (a clean request path
        over a lossy response path, or vice versa) are one override
        each.  Each direction draws from its own generator, seeded from
        the segment seed and the sender address, so one direction's
        traffic volume never perturbs another's fault pattern.
        """
        if sender is None:
            self._chaos_default = config
            # Default changed: rebuild any state lazily created from it.
            for address in list(self._chaos_states):
                if address not in self._chaos_overrides:
                    del self._chaos_states[address]
        else:
            sender = bytes(sender)
            self._chaos_overrides[sender] = config
            self._chaos_states.pop(sender, None)

    def _chaos_for(self, sender_address: bytes) -> _ChaosState | None:
        state = self._chaos_states.get(sender_address)
        if state is not None:
            return state
        if sender_address in self._chaos_overrides:
            config = self._chaos_overrides[sender_address]
        else:
            config = self._chaos_default
        if config is None:
            return None
        # The low 64 bits, two's complement: a segment seed derived by
        # :func:`repro.sim.seeds.derive_seed` is unsigned 64-bit, a
        # hand-picked one may be negative; both must fit.
        material = (
            b"chaos:"
            + (self.seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")
            + bytes(sender_address)
        )
        state = _ChaosState(config, material)
        self._chaos_states[sender_address] = state
        return state

    # -- transmission -------------------------------------------------------

    def transmit(self, sender, frame: bytes) -> None:
        """Serialize ``frame`` onto the cable and schedule its arrival.

        The cable is half-duplex: a transmission begins when the cable
        falls idle (an idealized CSMA — no collisions are modelled, as
        none of the paper's numbers depend on them).
        """
        now = self.scheduler.now
        start = max(now, self._busy_until)
        wire_time = self.link.transmission_time(len(frame))
        end = start + wire_time
        self._busy_until = end
        self.frames_carried += 1
        self.bytes_carried += len(frame)

        chaos = self._chaos_for(sender.address)
        if chaos is not None:
            chaos.advance_channel()

        if (
            self.drop_filter is not None
            and self.drop_filter(frame, self.frames_carried)
        ) or (chaos is not None and chaos.sample_loss()):
            self.frames_lost += 1
            self._note(Primitive.WIRE_LOSS)
            return

        delivered = frame
        if chaos is not None and chaos.sample_corrupt():
            delivered = chaos.corrupt(frame, self.link.header_length)
            self.frames_corrupted += 1
            self._note(Primitive.WIRE_CORRUPT)

        deliver_at = end + PROPAGATION_DELAY
        if chaos is not None:
            jitter = chaos.sample_reorder()
            if jitter > 0.0:
                deliver_at += jitter
                self.frames_reordered += 1
                self._note(Primitive.WIRE_REORDER)

        self._deliver(sender, delivered, deliver_at)
        if chaos is not None and chaos.sample_duplicate():
            # The copy is a distinct, later arrival: real duplicates
            # (bridge echoes, retransmitting repeaters) trail the
            # original by at least its own wire time, so a duplicate
            # can land *behind* frames transmitted after it.
            lag = wire_time * (1.0 + chaos.random.random())
            self._deliver(sender, delivered, deliver_at + lag)
            self.frames_duplicated += 1
            self._note(Primitive.WIRE_DUPLICATE)

    def _deliver(self, sender, frame: bytes, deliver_at: float) -> None:
        # One event per frame per arrival time, not one per station: the
        # per-station events would have had consecutive sequence numbers
        # at one instant, so nothing could fire between them, and
        # whatever their receives schedule fires after all of them
        # either way.
        self.scheduler.schedule_at(
            deliver_at, self._arrive, self._nics, sender, frame
        )

    def _arrive(self, nics: tuple, sender, frame: bytes) -> None:
        """Every station attached at transmit time but the sender sees
        ``frame``, in attach order; then the receive interrupts the NICs
        handed over run, in the same order.  Each was handed over only
        while no live event was due at or before now, so its service
        event would have been the next to fire after theirs."""
        self._handoffs = handoffs = []
        for nic in nics:
            if nic is not sender:
                nic.receive(frame)
        self._handoffs = None
        for nic in handoffs:
            nic._service()
