"""Adversarial stream builders for the differential matrix.

Each builder returns a flat event stream (see
:mod:`repro.difftest.harness`) engineered to stress one divergence
surface:

* :func:`churn_stream` — mid-stream SETFILTER attach/detach toggles and
  copy-all flips, so every derived artifact (IR set, flow cache, rank
  assignment) is repeatedly torn down and rebuilt while packets are in
  flight;
* :func:`collision_flood` — packets reordered so consecutive distinct
  flows index the *same* direct-mapped flow-cache slot, maximizing
  evictions;
* :func:`truncation_stream` — frames cut at every interesting boundary
  (inside the flow-cache key, at ``min_packet_bytes`` ± 1, odd lengths
  that exercise the zero-padded tail word), where the checked
  interpreter's bounds handling and the prevalidated/compiled/IR
  engines' hoisted pre-checks must still agree packet for packet;
* :func:`with_drains` — periodic full queue drains so overflow
  outcomes keep toggling instead of saturating.

Everything is seeded through ``random.Random`` (Mersenne Twister —
independent of ``PYTHONHASHSEED``), so the same seed yields the same
stream in every process.
"""

from __future__ import annotations

from random import Random
from typing import Iterable, Sequence
from zlib import crc32

from ..core.program import FilterProgram

__all__ = [
    "cache_key_bytes",
    "churn_stream",
    "collision_flood",
    "packets_only",
    "truncation_stream",
    "with_drains",
]


def packets_only(packets: Iterable[bytes]) -> list[tuple]:
    """The trivial stream: every packet, no mutations."""
    return [("packet", bytes(p)) for p in packets]


def with_drains(stream: Sequence[tuple], every: int = 32) -> list[tuple]:
    """Insert a full queue drain after every ``every`` packet events."""
    if every < 1:
        raise ValueError("every must be >= 1")
    out: list[tuple] = []
    count = 0
    for event in stream:
        out.append(event)
        if event[0] == "packet":
            count += 1
            if count % every == 0:
                out.append(("drain",))
    return out


def churn_stream(
    packets: Sequence[bytes],
    n_ports: int,
    *,
    seed: int = 0,
    churn_every: int = 16,
    copyall_every: int | None = None,
    drain_every: int | None = None,
) -> list[tuple]:
    """Interleave packets with deterministic attach/detach churn.

    Every ``churn_every`` packets one pseudo-randomly chosen port is
    toggled: detached if attached, re-attached (with a fresh bind
    sequence, i.e. demoted within its priority class) if not.  With
    ``copyall_every`` set, copy-all flags flip on the same cadence.
    All detached ports are re-attached at the end so every
    configuration finishes over the same filter set.
    """
    if n_ports < 1:
        return packets_only(packets)
    rng = Random(seed)
    detached: set[int] = set()
    out: list[tuple] = []
    for i, packet in enumerate(packets):
        if i and churn_every and i % churn_every == 0:
            target = rng.randrange(n_ports)
            if target in detached:
                detached.discard(target)
                out.append(("attach", target))
            else:
                detached.add(target)
                out.append(("detach", target))
        if copyall_every and i and i % copyall_every == 0:
            out.append(("copyall", rng.randrange(n_ports), rng.random() < 0.5))
        if drain_every and i and i % drain_every == 0:
            out.append(("drain",))
        out.append(("packet", bytes(packet)))
    for target in sorted(detached):
        out.append(("attach", target))
    return out


def cache_key_bytes(programs: Iterable[FilterProgram]) -> int | None:
    """The flow-cache key width the demultiplexer would compute for
    this filter set (mirrors its rekey logic), or None when any filter
    uses indirect loads and the cache would disable itself."""
    max_index = -1
    for program in programs:
        for ins in program.instructions:
            if ins.is_indirect:
                return None
            if ins.is_pushword:
                index = ins.push_index
                if index > max_index:
                    max_index = index
    return 2 * (max_index + 1)


def collision_flood(
    packets: Sequence[bytes],
    key_bytes: int,
    cache_slots: int,
    *,
    min_group: int = 2,
) -> list[bytes]:
    """Reorder ``packets`` into a worst case for a direct-mapped cache
    of ``cache_slots`` slots.

    Packets are bucketed by the slot their key prefix indexes
    (``crc32(key) & (slots - 1)`` — the cache's own, seed-independent
    placement).  Buckets holding at least ``min_group`` *distinct* keys
    are emitted first, alternating between their keys so every store
    evicts the previous occupant and the next lookup of the evicted key
    misses again; remaining packets follow unchanged.  Same-prefix
    packets (identical key, different payload) stay adjacent, so hits
    still occur — the stream exercises hit, miss and evict transitions
    rather than only thrashing.
    """
    if cache_slots & (cache_slots - 1):
        raise ValueError("cache_slots must be a power of two")
    buckets: dict[int, dict[bytes, list[bytes]]] = {}
    for packet in packets:
        packet = bytes(packet)
        key = packet[:key_bytes]
        slot = crc32(key) & (cache_slots - 1)
        buckets.setdefault(slot, {}).setdefault(key, []).append(packet)

    flood: list[bytes] = []
    rest: list[bytes] = []
    for slot in sorted(buckets):
        by_key = buckets[slot]
        if len(by_key) >= min_group:
            lanes = [list(group) for group in by_key.values()]
            while any(lanes):
                for lane in lanes:
                    if lane:
                        flood.append(lane.pop(0))
        else:
            for group in by_key.values():
                rest.extend(group)
    return flood + rest


def truncation_stream(
    packets: Sequence[bytes],
    key_bytes: int,
    *,
    min_packet_bytes: int = 0,
    seed: int = 0,
) -> list[bytes]:
    """Each packet followed by truncated copies cut at every boundary
    that matters: the empty frame, single-byte, just inside and at the
    flow-cache key width, around the filter set's ``min_packet_bytes``
    pre-check, odd lengths (the zero-padded tail-word case), and one
    pseudo-random cut.  Engines disagree about truncated frames only if
    a hoisted bounds check is unsound — exactly what this stream hunts.
    """
    rng = Random(seed)
    out: list[bytes] = []
    for packet in packets:
        packet = bytes(packet)
        out.append(packet)
        cuts = {
            0,
            1,
            2,
            3,
            key_bytes - 1,
            key_bytes,
            key_bytes + 1,
            min_packet_bytes - 1,
            min_packet_bytes,
            min_packet_bytes + 1,
            len(packet) - 1,
        }
        if len(packet) > 1:
            cuts.add(rng.randrange(1, len(packet)))
        for cut in sorted(c for c in cuts if 0 <= c < len(packet)):
            out.append(packet[:cut])
    return out
