"""Declarative link-fault schedules for bridged topologies.

PR 2's :class:`~repro.net.medium.ChaosConfig` injects faults *inside* a
segment — burst loss, reordering, corruption on the shared cable.  This
module extends the chaos machinery to the links *between* segments: a
:class:`LinkFault` declares an interval during which a bridge link is
down (optionally in one direction only), and the bridge endpoints drop
any frame whose capture **or** delivery instant falls inside an outage,
recording it under the cost-free ledger primitive
``dropped_link_down``.

Schedules are plain frozen data on the :class:`~repro.sim.topology.
TopologySpec` (``faults=...``), so they pickle into shard subprocesses
and every partitioning of the topology sees the identical outages —
link chaos is covered by the bitwise partition-independence oracle.

Randomized schedules (:func:`flap_schedule`) draw **only** from
:func:`repro.sim.seeds.derive_seed` under the ``("chaos", link_id, ...)``
namespace, so they are independent of ``PYTHONHASHSEED``, of
partitioning, and of every other consumer of the root seed —
:func:`schedule_fingerprint` renders a schedule canonically so the
determinism suite can assert that in subprocesses.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .seeds import derive_rng

__all__ = [
    "LinkFault",
    "DIRECTION_BOTH",
    "DIRECTION_A_TO_B",
    "DIRECTION_B_TO_A",
    "link_partition",
    "flap_schedule",
    "intervals_for",
    "interval_covers",
    "parse_fault_spec",
    "schedule_fingerprint",
]

DIRECTION_BOTH = "both"
DIRECTION_A_TO_B = "a->b"
DIRECTION_B_TO_A = "b->a"

_DIRECTIONS = (DIRECTION_BOTH, DIRECTION_A_TO_B, DIRECTION_B_TO_A)

#: CLI spellings (colon-separated specs can't contain ``->``).
_DIRECTION_ALIASES = {
    "both": DIRECTION_BOTH,
    "a2b": DIRECTION_A_TO_B,
    "b2a": DIRECTION_B_TO_A,
    DIRECTION_A_TO_B: DIRECTION_A_TO_B,
    DIRECTION_B_TO_A: DIRECTION_B_TO_A,
}


@dataclass(frozen=True, slots=True)
class LinkFault:
    """One outage: ``link_id`` is down during ``[start, end)``.

    ``direction`` scopes the outage: :data:`DIRECTION_BOTH` downs the
    whole link; :data:`DIRECTION_A_TO_B` only the ``a``→``b`` crossing
    (an asymmetric partition — requests pass, replies vanish, the
    classic half-open failure).  Directions are named relative to the
    :class:`~repro.sim.topology.BridgeSpec`'s ``a``/``b`` ends.
    """

    link_id: str
    start: float
    end: float
    direction: str = DIRECTION_BOTH

    def __post_init__(self) -> None:
        if not self.link_id:
            raise ValueError("fault needs a link id")
        _check_finite(start=self.start, end=self.end)
        if not 0.0 <= self.start < self.end:
            raise ValueError(
                f"fault interval must satisfy 0 <= start < end, "
                f"got [{self.start}, {self.end})"
            )
        if self.direction not in _DIRECTIONS:
            raise ValueError(
                f"direction must be one of {_DIRECTIONS}, got {self.direction!r}"
            )


def link_partition(
    link_id: str,
    at: float,
    heal_at: float,
    *,
    direction: str = DIRECTION_BOTH,
) -> tuple:
    """A partition-then-heal schedule: one outage ``[at, heal_at)``."""
    return (LinkFault(link_id, at, heal_at, direction),)


def flap_schedule(
    seed: int,
    link_id: str,
    *,
    start: float,
    until: float,
    mean_down: float,
    mean_up: float,
    direction: str = DIRECTION_BOTH,
) -> tuple:
    """A down/up flapping schedule with exponential dwell times.

    The link alternates up (mean ``mean_up``) and down (mean
    ``mean_down``) between ``start`` and ``until``, beginning with an up
    period.  All randomness comes from
    ``derive_seed(seed, "chaos", link_id, "flap")`` — the schedule is a
    pure function of ``(seed, link_id)`` and the shape parameters.
    """
    _check_finite(
        start=start, until=until, mean_down=mean_down, mean_up=mean_up
    )
    if mean_down <= 0.0 or mean_up <= 0.0:
        raise ValueError("mean dwell times must be positive")
    if not 0.0 <= start < until:
        raise ValueError("need 0 <= start < until")
    rng = derive_rng(seed, "chaos", link_id, "flap")
    faults = []
    t = start + rng.expovariate(1.0 / mean_up)
    while t < until:
        down_end = min(t + rng.expovariate(1.0 / mean_down), until)
        faults.append(LinkFault(link_id, t, down_end, direction))
        t = down_end + rng.expovariate(1.0 / mean_up)
    return tuple(faults)


def _check_finite(**times: float) -> None:
    """Refuse a fault time or dwell that is not a finite number: an
    infinite ``until`` never ends a flap schedule, an infinite dwell
    divides by zero in ``expovariate``, and an infinite ``end`` is not
    valid JSON in the run summary."""
    for name, value in times.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be a finite time, not {value!r}")


def intervals_for(faults, link_id: str, direction: str) -> tuple:
    """The sorted ``(start, end)`` outages affecting one directed
    crossing of ``link_id`` (``direction`` is the endpoint's own
    crossing token, :data:`DIRECTION_A_TO_B` or :data:`DIRECTION_B_TO_A`).
    """
    if direction not in (DIRECTION_A_TO_B, DIRECTION_B_TO_A):
        raise ValueError(f"endpoint direction must be directed, got {direction!r}")
    return tuple(
        sorted(
            (fault.start, fault.end)
            for fault in faults
            if fault.link_id == link_id
            and fault.direction in (DIRECTION_BOTH, direction)
        )
    )


def interval_covers(intervals, t: float) -> bool:
    """True when ``t`` falls inside any of the sorted ``(start, end)``
    half-open intervals — i.e. the link is down at ``t``."""
    index = bisect.bisect_right(intervals, (t, float("inf"))) - 1
    if index < 0:
        return False
    start, end = intervals[index]
    return start <= t < end


def parse_fault_spec(text: str, *, seed: int = 0) -> tuple:
    """Fault schedules from the CLI's ``--faults`` string.

    Comma-separated clauses::

        down:LINK:START:END[:DIR]
        flap:LINK:START:END:MEAN_DOWN:MEAN_UP[:DIR]

    ``DIR`` is ``both`` (default), ``a2b`` or ``b2a``.  ``flap`` draws
    its dwell times from the ``derive_seed(seed, "chaos", LINK, "flap")``
    namespace, so the same CLI invocation replays the same outages.
    """
    faults: list[LinkFault] = []
    for clause in filter(None, (part.strip() for part in text.split(","))):
        fields = clause.split(":")
        kind = fields[0]
        try:
            if kind == "down" and 4 <= len(fields) <= 5:
                direction = _parse_direction(fields[4] if len(fields) == 5 else "both")
                faults.append(
                    LinkFault(
                        fields[1], float(fields[2]), float(fields[3]), direction
                    )
                )
            elif kind == "flap" and 6 <= len(fields) <= 7:
                direction = _parse_direction(fields[6] if len(fields) == 7 else "both")
                faults.extend(
                    flap_schedule(
                        seed,
                        fields[1],
                        start=float(fields[2]),
                        until=float(fields[3]),
                        mean_down=float(fields[4]),
                        mean_up=float(fields[5]),
                        direction=direction,
                    )
                )
            else:
                raise ValueError("unrecognized clause shape")
        except (ValueError, IndexError) as err:
            raise ValueError(
                f"bad fault clause {clause!r}: {err} "
                "(want down:LINK:START:END[:DIR] or "
                "flap:LINK:START:END:MEAN_DOWN:MEAN_UP[:DIR])"
            ) from err
    if not faults:
        raise ValueError(
            "empty fault spec (want comma-separated down:/flap: clauses)"
        )
    return tuple(faults)


def _parse_direction(token: str) -> str:
    try:
        return _DIRECTION_ALIASES[token]
    except KeyError:
        raise ValueError(
            f"unknown direction {token!r} (want both, a2b or b2a)"
        ) from None


def schedule_fingerprint(faults) -> str:
    """Canonical text for a schedule — ``repr`` floats, declaration
    order — so determinism tests can compare schedules bitwise across
    processes and ``PYTHONHASHSEED`` values."""
    return ";".join(
        f"{fault.link_id}[{fault.start!r},{fault.end!r}){fault.direction}"
        for fault in faults
    )
