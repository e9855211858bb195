"""Flow-cache determinism and scalar/batch counter parity.

Two properties pinned here:

* slot indexing must be seed-independent (``zlib.crc32``, not the
  salted ``hash()``) — otherwise collision and eviction patterns, and
  with them the hit/miss counters every cost model reads, differ
  between identically-seeded runs under different ``PYTHONHASHSEED``;
* lookups and stores interleave packet by packet, in a burst as in a
  loop: a pre-cached entry evicted by an earlier colliding store is a
  miss when its flow comes back (a batch path that did all lookups
  before any store once counted it a hit);
* the key width the demultiplexer derives from its bind-time reports
  equals the instruction-walking mirror the stream builders use.
"""

from __future__ import annotations

from zlib import crc32

import pytest

from repro.core.compiler import compile_expr, word
from repro.core.demux import Engine, PacketFilterDemux
from repro.core.flowcache import FlowCache
from repro.core.interpreter import LanguageLevel
from repro.core.port import Port
from repro.core.program import FilterProgram, asm
from repro.core.words import pack_words
from repro.difftest import cache_key_bytes
from ruleset_gen import (
    generate_adversarial_ruleset,
    generate_prefix_ruleset,
    generate_ruleset,
)


def _colliding_word_values(slots: int, count: int) -> list[int]:
    """Distinct word-0 values whose 2-byte cache keys share one slot of
    a ``slots``-entry direct-mapped cache (crc32 placement)."""
    groups: dict[int, list[int]] = {}
    for value in range(1 << 16):
        key = pack_words([value])
        slot = crc32(key) & (slots - 1)
        bucket = groups.setdefault(slot, [])
        bucket.append(value)
        if len(bucket) >= count:
            return bucket[:count]
    raise AssertionError("no colliding bucket found")


def _demux_with_rules(values, *, flow_cache: int) -> PacketFilterDemux:
    demux = PacketFilterDemux(
        engine=Engine.IR,
        flow_cache=flow_cache,
        reorder_same_priority=False,
    )
    for index, value in enumerate(values):
        port = Port(index, queue_limit=64)
        port.bind_filter(compile_expr(word(0) == value, priority=10))
        demux.attach(port)
    return demux


def test_slot_indexing_is_crc32():
    """Keys whose crc32 agree in the low six bits share a slot of a
    64-slot cache: storing one evicts the other, and a key in another
    slot survives both."""
    cache = FlowCache(64)
    keys = [b"", b"\x00\x01", b"collide", bytes(range(14))]
    keys += [bytes([n]) for n in range(256)]
    first = keys[0]
    same = next(k for k in keys[1:] if crc32(k) & 63 == crc32(first) & 63)
    other = next(k for k in keys[1:] if crc32(k) & 63 != crc32(first) & 63)
    cache.store(first, (1,))
    cache.store(other, (2,))
    cache.store(same, (3,))
    assert cache.lookup(first) is None
    assert cache.lookup(other) == (2,)
    assert cache.lookup(same) == (3,)


def test_batch_matches_scalar_on_colliding_evict():
    """Pre-cache key B, then [A, B] where A's store evicts B: B's
    second delivery is a miss, in a loop and in a burst."""
    a, b = _colliding_word_values(4, 2)
    values = [a, b]
    pkt_a = pack_words([a, 0x1111])
    pkt_b = pack_words([b, 0x2222])

    def run(batched: bool):
        demux = _demux_with_rules(values, flow_cache=4)
        reports = [demux.deliver(pkt_b)]  # pre-cache B's slot
        if batched:
            reports += demux.deliver_batch([pkt_a, pkt_b])
        else:
            reports += [demux.deliver(pkt_a), demux.deliver(pkt_b)]
        cache = demux.flow_cache
        return (
            [(r.accepted_by, r.dropped_by, r.nobuf_by) for r in reports],
            (cache.hits, cache.misses),
            [k for k in cache._keys if k is not None],
        )

    scalar = run(batched=False)
    batch = run(batched=True)
    assert batch == scalar
    # and the collision really happened: B was evicted, so its second
    # delivery missed — no hits anywhere in this sequence
    assert scalar[1] == (0, 3)


def test_batch_matches_scalar_over_colliding_stream():
    """Longer mixed stream over three same-slot flows: hit/miss/store
    schedules must agree between one deliver() loop and deliver_batch
    bursts of every size."""
    values = _colliding_word_values(8, 3)
    # runs of one flow (in-run hits) punctuated by switches to a
    # colliding flow (evict + miss), run lengths coprime with the
    # batch sizes below so bursts straddle every transition
    packets = [
        pack_words([values[(i // 5) % 3], i]) for i in range(60)
    ]

    def run(batch: int):
        demux = _demux_with_rules(values, flow_cache=8)
        reports = []
        if batch:
            for off in range(0, len(packets), batch):
                reports += demux.deliver_batch(packets[off : off + batch])
        else:
            reports += [demux.deliver(p) for p in packets]
        cache = demux.flow_cache
        return (
            [r.accepted_by for r in reports],
            (cache.hits, cache.misses, cache.invalidations),
            [k for k in cache._keys if k is not None],
        )

    scalar = run(0)
    for batch in (1, 2, 3, 7, 16, 60):
        assert run(batch) == scalar, f"batch size {batch} diverged"
    hits, misses, _ = scalar[1]
    assert hits and misses  # the stream exercised both transitions


def test_flowcache_stats_identical_across_hashseeds(hashseed_outputs):
    """Same FlowCache workload, two processes, two PYTHONHASHSEED
    values: identical hit/miss/invalidation counters and identical
    final cache contents.  Fails if slot placement ever goes back to
    the salted ``hash()``."""
    script = """
from repro.core.flowcache import FlowCache

cache = FlowCache(16)
keys = [bytes([i % 23, (i * 13) % 251]) for i in range(400)]
for i, key in enumerate(keys):
    if cache.lookup(key) is None:
        cache.store(key, (i % 5,))
cache.invalidate()
for key in keys[:100]:
    cache.lookup(key)
print(cache.hits, cache.misses, cache.invalidations)
print(sorted(k.hex() for k in cache._keys if k is not None))
"""
    first, second = hashseed_outputs(script)
    assert first == second


def test_demux_cache_counters_identical_across_hashseeds(hashseed_outputs):
    """End-to-end flavor of the same guarantee: a cached IR run over a
    generated ACL produces identical RunResult digests (outcomes,
    lifetime counters, cache stats) in two differently-salted
    interpreters."""
    script = """
from ruleset_gen import generate_ruleset, traffic_for
from repro.difftest import MatrixConfig, packets_only, run_config
from repro.core.demux import Engine

programs, tuples = generate_ruleset(30, seed=7)
packets = traffic_for(tuples, count=120, seed=8)
for config in (
    MatrixConfig(engine=Engine.IR, flow_cache=16),
    MatrixConfig(engine=Engine.CHECKED, flow_cache=16),
):
    result = run_config(programs, packets_only(packets), config)
    print(config.label, result.digest(), result.cache_stats)
"""
    first, second = hashseed_outputs(script)
    assert first == second


INDIRECT = FilterProgram(asm("PUSHONE", "PUSHIND", ("PUSHLIT", "EQ", 0x0304)))


@pytest.mark.parametrize(
    "programs",
    [
        generate_ruleset(100)[0],
        generate_prefix_ruleset(100)[0],
        generate_adversarial_ruleset(100)[0],
        generate_ruleset(4)[0] + [INDIRECT],
        [FilterProgram(asm("PUSHONE"))],
    ],
    ids=["structured", "prefix", "adversarial", "indirect", "no-loads"],
)
def test_key_width_from_reports_equals_the_mirror(programs):
    demux = PacketFilterDemux(flow_cache=True, level=LanguageLevel.EXTENDED)
    for index, program in enumerate(programs):
        port = Port(index)
        port.bind_filter(program)
        demux.attach(port)
    demux.cached_targets(b"")  # builds what the attaches tore down
    expected = cache_key_bytes(programs)
    if expected is None:
        assert not demux._cache_usable
    else:
        assert demux._cache_usable
        assert demux._cache_key_bytes == expected
