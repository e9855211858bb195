"""Tier-1 smoke coverage of the differential matrix.

Small enough to ride in every test run, but it exercises every axis the
firewall-scale ``-m difftest`` sweep does: all eight configurations,
live attach/detach churn, copy-all flips, queue drains, buffer-pool
exhaustion, same-priority reordering, and the adversarial rule-set
family the dispatch tree cannot split.
"""

from __future__ import annotations

import pytest

from repro.core.demux import Engine, PacketFilterDemux
from repro.core.opt import necessary_equalities
from repro.core.port import Port
from repro.core.validator import validate
from repro.difftest import (
    full_matrix,
    packets_only,
    run_matrix,
    churn_stream,
    with_drains,
)
from ruleset_gen import (
    generate_adversarial_ruleset,
    generate_prefix_ruleset,
    generate_ruleset,
    traffic_for,
)


def test_full_matrix_smoke_with_churn():
    programs, tuples = generate_ruleset(12, seed=0)
    packets = traffic_for(tuples, count=72, seed=1)
    stream = churn_stream(
        packets, 12, seed=2, churn_every=9, copyall_every=13, drain_every=25
    )
    report = run_matrix(programs, stream, full_matrix())
    assert report.ok, report.summary()
    assert len(report.results) == len(full_matrix()) == 8
    cached = [r.cache_stats for r in report.results if r.cache_stats]
    assert cached and all(stats == cached[0] for stats in cached)
    # churn really invalidated the cache mid-stream
    assert cached[0][2] > 1


def test_matrix_smoke_nobuf_pool():
    """A tiny shared buffer pool forces the nobuf outcome; every
    configuration must attribute it to the same packets."""
    programs, tuples = generate_ruleset(6, seed=1)
    packets = traffic_for(tuples, count=60, seed=2)
    report = run_matrix(
        programs,
        with_drains(packets_only(packets), 30),
        full_matrix(),
        queue_limit=16,
        pool_capacity=8,
        port_share=4,
    )
    assert report.ok, report.summary()
    outcomes = report.results[0].outcomes
    assert any(o.nobuf_by for o in outcomes)
    assert any(o.accepted_by for o in outcomes)


def test_matrix_smoke_reorder():
    """Same-priority reordering enabled: every configuration must still
    agree — including the cache invalidations the reorders trigger."""
    programs, tuples = generate_ruleset(10, seed=4)
    packets = traffic_for(tuples, count=80, seed=5)
    report = run_matrix(
        programs,
        packets_only(packets),
        full_matrix(),
        reorder=True,
        reorder_interval=8,
    )
    assert report.ok, report.summary()


def test_matrix_smoke_adversarial_and_prefix():
    adv_programs, adv_tuples = generate_adversarial_ruleset(24, seed=1)
    # the whole point of the family: one shared equality discriminant,
    # so the dispatch tree sees a single bucket
    assert len(
        {necessary_equalities(p, validate(p)) for p in adv_programs}
    ) == 1
    packets = traffic_for(adv_tuples, count=72, seed=2)
    report = run_matrix(adv_programs, packets_only(packets), full_matrix())
    assert report.ok, report.summary()

    pre_programs, pre_tuples = generate_prefix_ruleset(32, seed=3, block=8)
    packets = traffic_for(pre_tuples, count=64, seed=4)
    report = run_matrix(pre_programs, packets_only(packets), full_matrix())
    assert report.ok, report.summary()


@pytest.mark.parametrize(
    "generate, shape, predicates",
    [
        (generate_ruleset, (1, 101, 0, 2100, 1210), 256),
        (generate_prefix_ruleset, (1, 101, 0, 2100, 425), 256),
        (generate_adversarial_ruleset, (1, 2, 1, 900, 405), 11696),
    ],
    ids=["structured", "prefix", "adversarial"],
)
def test_compiled_shape_at_100_rules(generate, shape, predicates):
    """The tree and chains ``Engine.IR`` builds for each family, as
    recorded at the commit before the analysis moved onto the IR: an
    edit to the necessary-equality fold that changes a tree says so."""
    programs, tuples = generate(100)
    demux = PacketFilterDemux(engine=Engine.IR, reorder_same_priority=False)
    for index, program in enumerate(programs):
        port = Port(index)
        port.bind_filter(program)
        demux.attach(port)
    for packet in traffic_for(tuples, count=256, spread=True):
        demux.deliver(packet)
    stats = demux.ir_stats
    assert (
        stats.dispatch_depth, stats.chains, stats.hoisted,
        stats.nodes_before_cse, stats.nodes_after_cse,
    ) == shape
    assert demux.total_predicates_tested == predicates
