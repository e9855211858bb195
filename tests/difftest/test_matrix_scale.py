"""The firewall-scale differential sweep (``pytest -m difftest``).

Every test replays one generated workload through the full engine ×
flow-cache matrix (eight configurations) and asserts zero divergences:
identical per-packet accept/drop/nobuf outcomes, reconciled lifetime
counters, and identical flow-cache statistics across engines.  The
seed-0 legs at 100 and 1000 rules (structured and churn) carry no
marker and ride in tier-1.

Coverage axes:

* three seeds at 100 / 1000 / 10000 structured ACL rules (packet
  budgets shrink as rule count grows — at 10k the linear engines pay
  ~5k filter evaluations per packet, and the point is divergence
  hunting, not throughput);
* mutation drivers at 100/1000 rules: attach/detach/reorder churn,
  copy-all flips, queue drains, buffer-pool exhaustion;
* engineered flow-cache collision floods against a deliberately tiny
  cache;
* truncated/short frames at the 1000-rule scale;
* the adversarial and prefix-structured rule-set families.

The whole module is budgeted to stay under a few minutes on CI
hardware; the dominant cost is the one-time whole-set compile per
(rule set, engine), which the compile memo shares across the
configurations of each engine.
"""

from __future__ import annotations

import pytest

from repro.core.opt import necessary_equalities
from repro.core.validator import validate
from repro.difftest import (
    cache_key_bytes,
    churn_stream,
    collision_flood,
    full_matrix,
    packets_only,
    run_matrix,
    truncation_stream,
    with_drains,
)
from ruleset_gen import (
    generate_adversarial_ruleset,
    generate_prefix_ruleset,
    generate_ruleset,
    traffic_for,
)

difftest = pytest.mark.difftest

SEEDS = (0, 1, 2)

#: (rules, packets): the packet budget shrinks with scale — the linear
#: engines pay O(rules) per packet, and compile time is already paid.
SCALE = ((100, 256), (1000, 128), (10_000, 48))


@pytest.mark.parametrize(
    "size,count,seed",
    [
        pytest.param(
            size,
            count,
            seed,
            id=f"{size}rules-{seed}",
            marks=() if seed == 0 and size <= 1000 else difftest,
        )
        for size, count in SCALE
        for seed in SEEDS
    ],
)
def test_structured_scale(size, count, seed):
    programs, tuples = generate_ruleset(size, seed=seed)
    packets = traffic_for(tuples, count=count, seed=seed + 100, spread=True)
    report = run_matrix(
        programs,
        packets_only(packets),
        full_matrix(),
        # the naive oracle re-sorts and re-evaluates per packet: fine
        # at 100 rules, pointless thrash beyond (the checked engine is
        # the in-matrix reference)
        oracle=size <= 100,
    )
    assert report.ok, report.summary()
    assert len(report.results) == 8


@pytest.mark.parametrize(
    "seed", [0] + [pytest.param(seed, marks=difftest) for seed in SEEDS[1:]]
)
def test_churn_matrix(seed):
    """Mid-stream SETFILTER churn, copy-all flips and drains at 100
    rules: every mutation tears down the IR set, the rank assignment
    and the flow cache — all eight configurations must rebuild into
    agreement."""
    programs, tuples = generate_ruleset(100, seed=seed)
    packets = traffic_for(tuples, count=192, seed=seed + 200)
    stream = churn_stream(
        packets,
        100,
        seed=seed,
        churn_every=17,
        copyall_every=29,
        drain_every=41,
    )
    report = run_matrix(programs, stream, full_matrix())
    assert report.ok, report.summary()


def test_churn_matrix_at_1000():
    """One churn leg at 1000 rules — each toggle forces a whole-set
    recompile for the IR configurations, so the cadence is kept low
    to bound compile time."""
    programs, tuples = generate_ruleset(1000, seed=0)
    packets = traffic_for(tuples, count=96, seed=300, spread=True)
    stream = churn_stream(
        packets, 1000, seed=3, churn_every=48, drain_every=37
    )
    report = run_matrix(programs, stream, full_matrix(), oracle=False)
    assert report.ok, report.summary()


@difftest
@pytest.mark.parametrize("seed", SEEDS)
def test_collision_flood_matrix(seed):
    """Same-slot flood against a 16-slot cache: consecutive distinct
    flows evict each other every packet, the worst case for any
    lookup/store scheduling bug."""
    programs, tuples = generate_ruleset(100, seed=seed)
    packets = traffic_for(tuples, count=256, seed=seed + 400)
    key_bytes = cache_key_bytes(programs)
    flood = collision_flood(packets, key_bytes, 16)
    report = run_matrix(
        programs,
        with_drains(packets_only(flood), 32),
        full_matrix(cache_sizes=(0, 16)),
    )
    assert report.ok, report.summary()
    cached = next(r for r in report.results if r.cache_stats)
    hits, misses, _ = cached.cache_stats
    assert misses > hits  # the flood really thrashed the cache


@difftest
@pytest.mark.parametrize("seed", SEEDS)
def test_adversarial_matrix(seed):
    """1000 rules sharing one equality discriminant: the dispatch tree
    collapses to a single linear bucket, so the whole-set engine takes
    its fallback path — which must still agree with everything else."""
    programs, tuples = generate_adversarial_ruleset(1000, seed=seed)
    assert len({necessary_equalities(p, validate(p)) for p in programs}) == 1
    packets = traffic_for(tuples, count=64, seed=seed + 500, spread=True)
    report = run_matrix(
        programs, packets_only(packets), full_matrix(), oracle=False
    )
    assert report.ok, report.summary()


@difftest
def test_prefix_matrix():
    """CIDR-block-structured rules: maximal cross-filter sharing for
    the CSE pass and long shared key prefixes for the flow cache."""
    programs, tuples = generate_prefix_ruleset(1000, seed=0, block=64)
    packets = traffic_for(tuples, count=128, seed=600, spread=True)
    report = run_matrix(
        programs, packets_only(packets), full_matrix(), oracle=False
    )
    assert report.ok, report.summary()


@difftest
def test_truncation_matrix_at_1000():
    programs, tuples = generate_ruleset(1000, seed=0)
    base = traffic_for(tuples, count=24, seed=700, spread=True)
    stream = truncation_stream(
        base, cache_key_bytes(programs), min_packet_bytes=13, seed=8
    )
    report = run_matrix(
        programs, packets_only(stream), full_matrix(), oracle=False
    )
    assert report.ok, report.summary()


@difftest
def test_pool_exhaustion_matrix():
    """Buffer-pool nobuf outcomes under drain cycling at 100 rules."""
    programs, tuples = generate_ruleset(100, seed=1)
    packets = traffic_for(tuples, count=300, seed=800)
    report = run_matrix(
        programs,
        with_drains(packets_only(packets), 64),
        full_matrix(),
        queue_limit=8,
        pool_capacity=32,
        port_share=2,
    )
    assert report.ok, report.summary()
    assert any(o.nobuf_by for o in report.results[0].outcomes)


@difftest
def test_reorder_matrix():
    """Live same-priority reordering at 100 rules: reorder ticks, the
    cache invalidations they trigger, and the resulting rank shuffles
    must match across the matrix."""
    programs, tuples = generate_ruleset(100, seed=2)
    packets = traffic_for(tuples, count=192, seed=900)
    report = run_matrix(
        programs,
        packets_only(packets),
        full_matrix(),
        reorder=True,
        reorder_interval=16,
    )
    assert report.ok, report.summary()
