"""Whole-set compilation (``compile_ir_set``) and the flow cache.

Structure tests pin what the set compiler is supposed to *generate*
(field dispatch, inlined bodies, constant predicate counts); the
demux-level tests pin the invalidation discipline — every mutation of
the bound set flows through one hook, so the compiled set and the flow
cache can never disagree.

The file and class names predate the removal of the second whole-set
engine (the "fused" one); every case now runs on ``Engine.IR`` under
its original test id.
"""

import pytest

from repro.core.compiler import compile_expr, word
from repro.core.demux import Engine, PacketFilterDemux
from repro.core.flowcache import FlowCache
from repro.core.interpreter import ShortCircuitMode
from repro.core.irgen import SetEntry, compile_ir_set
from repro.core.ioctl import PFIoctl
from repro.core.port import Port
from repro.core.validator import validate
from repro.core.words import pack_words


def entry(rank, expr, *, copy_all=False, priority=0):
    program = compile_expr(expr, priority=priority)
    return SetEntry(
        rank=rank,
        program=program,
        report=validate(program),
        copy_all=copy_all,
    )


class TestFuseFilterSet:
    def test_empty_set(self):
        compiled = compile_ir_set([])
        assert compiled.classify(pack_words([1, 2, 3])) == ((), 0)

    def test_dispatches_on_shared_field(self):
        compiled = compile_ir_set([
            entry(0, word(6) == 0x0900),
            entry(1, word(6) == 0x0901),
            entry(2, word(6) == 0x0902),
        ])
        assert compiled.discriminant == (6, 0xFFFF)
        packet = pack_words([0, 0, 0, 0, 0, 0, 0x0901, 0])
        ranks, predicates = compiled.classify(packet)
        assert tuple(ranks) == (1,)
        # Dispatch went straight to filter 1's bucket: one body entered.
        assert predicates == 1

    def test_miss_value_reaches_no_filter(self):
        compiled = compile_ir_set([
            entry(0, word(6) == 0x0900),
            entry(1, word(6) == 0x0901),
        ])
        packet = pack_words([0, 0, 0, 0, 0, 0, 0x7777, 0])
        ranks, predicates = compiled.classify(packet)
        assert tuple(ranks) == ()
        assert predicates == 0  # no chain for that value at all

    def test_unbucketed_filters_merge_in_rank_order(self):
        compiled = compile_ir_set([
            entry(0, word(6) == 0x0900),
            entry(1, word(0) < 5),        # inequality: no necessary value
        ])
        packet = pack_words([1, 0, 0, 0, 0, 0, 0x0900, 0])
        ranks, _ = compiled.classify(packet)
        assert tuple(ranks) == (0,)       # rank 0 wins, first-match
        other = pack_words([1, 0, 0, 0, 0, 0, 0x0500, 0])
        ranks, _ = compiled.classify(other)
        assert tuple(ranks) == (1,)       # fallback chain catches it

    def test_copy_all_continues_past_accept(self):
        compiled = compile_ir_set([
            entry(0, word(6) == 0x0900, copy_all=True),
            entry(1, word(6) == 0x0900),
            entry(2, word(6) == 0x0900),
        ])
        packet = pack_words([0, 0, 0, 0, 0, 0, 0x0900, 0])
        ranks, predicates = compiled.classify(packet)
        assert tuple(ranks) == (0, 1)     # copy-all then first non-copy-all
        assert predicates == 2

    def test_short_packet_takes_fallback_path(self):
        compiled = compile_ir_set([
            entry(0, word(6) == 0x0900),
            entry(1, word(6) == 0x0901),
        ])
        assert compiled.discriminant is not None
        # Word 6 is entirely beyond a 4-byte packet: both filters would
        # fault their necessary PUSHWORD, so nothing matches.
        ranks, predicates = compiled.classify(b"\x01\x02\x03\x04")
        assert tuple(ranks) == ()

    def test_odd_tail_byte_is_zero_padded(self):
        compiled = compile_ir_set([
            entry(0, word(6) == 0x0900),
            entry(1, word(6) == 0x0A00),
        ])
        packet = pack_words([0, 0, 0, 0, 0, 0])[:12] + b"\x0a"  # 13 bytes
        ranks, _ = compiled.classify(packet)
        assert tuple(ranks) == (1,)       # word 6 reads as 0x0A00

    def test_no_push_mode_dispatches(self):
        compiled = compile_ir_set(
            [entry(0, word(6) == 0x0900), entry(1, word(6) == 0x0901)],
            mode=ShortCircuitMode.NO_PUSH,
        )
        assert compiled.discriminant == (6, 0xFFFF)
        packet = pack_words([0, 0, 0, 0, 0, 0, 0x0901, 0])
        assert tuple(compiled.classify(packet)[0]) == (1,)

    def test_single_shared_value_still_dispatches(self):
        # Both filters need word 6 == 0x0900: the dict has one chain,
        # but every other ethertype resolves with zero bodies entered.
        compiled = compile_ir_set([
            entry(0, word(6) == 0x0900),
            entry(1, word(6) == 0x0900),
        ])
        assert compiled.discriminant == (6, 0xFFFF)
        miss = pack_words([0, 0, 0, 0, 0, 0, 0x0800, 0])
        assert compiled.classify(miss) == ((), 0)

    def test_source_is_kept_for_inspection(self):
        compiled = compile_ir_set([
            entry(0, word(6) == 0x0900),
            entry(1, word(6) == 0x0901),
        ])
        assert "def _dsp(packet, _n):" in compiled.source
        assert "def _chain(packet, _n):" in compiled.source


class TestFlowCache:
    def test_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            FlowCache(100)
        FlowCache(1)
        FlowCache(64)

    def test_miss_store_hit(self):
        cache = FlowCache(16)
        assert cache.lookup(b"ab") is None
        cache.store(b"ab", (3,))
        assert cache.lookup(b"ab") == (3,)
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_invalidate_clears_and_counts(self):
        cache = FlowCache(16)
        cache.store(b"ab", (3,))
        cache.invalidate()
        assert cache.lookup(b"ab") is None
        assert cache.invalidations == 1


class TestDemuxInvalidation:
    """Every order mutation flushes the cache and recompiles."""

    def _port(self, port_id, expr, *, priority=0):
        port = Port(port_id, queue_limit=100)
        port.bind_filter(compile_expr(expr, priority=priority))
        return port

    def test_attach_and_detach_invalidate(self):
        demux = PacketFilterDemux(engine=Engine.IR, flow_cache=True)
        a = self._port(0, word(6) == 0x0900)
        demux.attach(a)
        packet = pack_words([0, 0, 0, 0, 0, 0, 0x0900, 0])
        demux.deliver(packet)
        demux.deliver(packet)
        assert demux.flow_cache.hits == 1

        # A higher-priority filter for the same traffic must win
        # immediately — a stale cache entry would keep routing to a.
        b = self._port(1, word(6) == 0x0900, priority=7)
        demux.attach(b)
        report = demux.deliver(packet)
        assert report.accepted_by == (1,)

        demux.detach(b)
        report = demux.deliver(packet)
        assert report.accepted_by == (0,)

    def test_reorder_invalidates(self):
        demux = PacketFilterDemux(engine=Engine.IR, flow_cache=True)
        quiet = self._port(0, word(6) == 0x0900)
        busy = self._port(1, word(6) == 0x0901)
        demux.attach(quiet)
        demux.attach(busy)
        busy_packet = pack_words([0, 0, 0, 0, 0, 0, 0x0901, 0])
        for _ in range(demux.REORDER_INTERVAL):
            demux.deliver(busy_packet)
        # busy now leads the same-priority class; the rank assignments
        # changed, so cached rank tuples were flushed with them.
        assert demux.attached_ports()[0] is busy
        assert demux.flow_cache.invalidations >= 1
        report = demux.deliver(busy_packet)
        assert report.accepted_by == (1,)

    def test_indirect_filters_disable_the_cache(self):
        from repro.core.instructions import (
            BinaryOp, Instruction, StackAction,
        )
        from repro.core.program import FilterProgram

        indirect = FilterProgram(instructions=(
            Instruction(action_code=StackAction.PUSHONE),
            Instruction(action_code=StackAction.PUSHIND),
            Instruction(
                action_code=StackAction.PUSHLIT,
                operator=BinaryOp.EQ,
                literal=0x0304,
            ),
        ))
        from repro.core.interpreter import LanguageLevel

        demux = PacketFilterDemux(
            flow_cache=True, level=LanguageLevel.EXTENDED
        )
        port = Port(0, queue_limit=100)
        port.bind_filter(indirect)
        demux.attach(port)
        packet = pack_words([1, 0x0304, 0, 0])
        demux.deliver(packet)
        demux.deliver(packet)
        assert demux.flow_cache.hits == 0
        assert demux.flow_cache.misses == 0

    def test_copy_all_flip_via_ioctl_invalidates(self):
        """SETCOPYALL on an attached port flushes the compiled set and
        cache — the copy-all continuation is baked into both."""
        from repro.sim.process import Ioctl, Open
        from repro.sim.world import World

        world = World()
        host = world.host("monitor")
        device = host.install_packet_filter(
            engine=Engine.IR, flow_cache=True
        )
        packet = pack_words([0, 0, 0, 0, 0, 0, 0x0900, 0])
        seen = {}

        def proc():
            fd1 = yield Open("pf")
            yield Ioctl(
                fd1,
                PFIoctl.SETFILTER,
                compile_expr(word(6) == 0x0900, priority=5),
            )
            fd2 = yield Open("pf")
            yield Ioctl(fd2, PFIoctl.SETFILTER, compile_expr(word(6) == 0x0900))
            # Prime the flow cache with the pre-flip classification.
            device.demux.deliver(packet)
            seen["before"] = device.demux.deliver(packet).accepted_by
            yield Ioctl(fd1, PFIoctl.SETCOPYALL, True)
            seen["after"] = device.demux.deliver(packet).accepted_by

        world.run_until_done(host.spawn("setup", proc()))
        assert seen["before"] == (0,)
        assert seen["after"] == (0, 1)

    def test_setcopyall_refuses_stale_fused_program(self):
        """Flipping copy-all on a live port recompiles: a second filter
        behind a copy-all filter starts receiving copies immediately."""
        demux = PacketFilterDemux(engine=Engine.IR, flow_cache=True)
        first = self._port(0, word(6) == 0x0900, priority=5)
        second = self._port(1, word(6) == 0x0900)
        demux.attach(first)
        demux.attach(second)
        packet = pack_words([0, 0, 0, 0, 0, 0, 0x0900, 0])
        assert demux.deliver(packet).accepted_by == (0,)

        first.copy_all = True
        demux.invalidate()     # what the SETCOPYALL ioctl now does
        assert demux.deliver(packet).accepted_by == (0, 1)


class TestFusedEngineEndToEnd:
    def test_predicate_accounting_feeds_mean(self):
        demux = PacketFilterDemux(engine=Engine.IR)
        for index, value in enumerate((0x0900, 0x0901, 0x0902)):
            port = Port(index, queue_limit=100)
            port.bind_filter(compile_expr(word(6) == value))
            demux.attach(port)
        packet = pack_words([0, 0, 0, 0, 0, 0, 0x0902, 0])
        report = demux.deliver(packet)
        assert report.predicates_tested == 1   # dispatch skipped the rest
        assert demux.mean_predicates_tested == 1.0

    def test_cache_hit_reports_zero_work(self):
        demux = PacketFilterDemux(engine=Engine.CHECKED, flow_cache=True)
        port = Port(0, queue_limit=100)
        port.bind_filter(compile_expr(word(6) == 0x0900))
        demux.attach(port)
        packet = pack_words([0, 0, 0, 0, 0, 0, 0x0900, 0])
        cold = demux.deliver(packet)
        hot = demux.deliver(packet)
        assert cold.predicates_tested == 1
        assert hot.predicates_tested == 0
        assert hot.instructions_executed == 0
        assert hot.accepted_by == (0,)

    def test_deliver_batch_matches_loop(self):
        """``deliver_batch(ps)`` is ``[deliver(p) for p in ps]`` on every
        engine: reports, counters and flow-cache statistics, with and
        without live same-priority reordering."""
        specs = [(0x0900, False), (0x0901, True), (0x0901, False)]
        packets = [
            pack_words([0, 0, 0, 0, 0, 0, value, n % 3])
            for n, value in enumerate((0x0900, 0x0901, 0x7777, 0x0901) * 6)
        ]

        def fresh(engine, reorder):
            demux = PacketFilterDemux(
                engine=engine, flow_cache=4, reorder_same_priority=reorder
            )
            demux.REORDER_INTERVAL = 5
            for index, (value, copy_all) in enumerate(specs):
                port = Port(index, queue_limit=4)
                port.copy_all = copy_all
                port.bind_filter(compile_expr(word(6) == value))
                demux.attach(port)
            return demux

        def observed(demux, reports):
            cache = demux.flow_cache
            return (
                reports,
                demux.packets_seen,
                demux.packets_unclaimed,
                demux.total_predicates_tested,
                (cache.hits, cache.misses, cache.invalidations),
                [port.port_id for port in demux.attached_ports()],
            )

        for engine in Engine:
            for reorder in (False, True):
                batched = fresh(engine, reorder)
                burst_reports = []
                for offset in range(0, len(packets), 7):
                    burst_reports += batched.deliver_batch(
                        packets[offset : offset + 7]
                    )
                looped = fresh(engine, reorder)
                loop_reports = [looped.deliver(p) for p in packets]
                assert observed(batched, burst_reports) == observed(
                    looped, loop_reports
                ), (engine, reorder)
                # the reordering leg really reordered mid-burst
                assert (
                    looped.attached_ports()[0].port_id != 0
                ) is reorder
