"""The filter compiler middle-end: IR construction and every pass.

The hypothesis engine-equivalence suite (test_demux_properties) pins
whole-pipeline semantics; these tests pin each pass's *mechanism* —
what CSE merges, what the dispatch tree may and may not reorder, what
DCE must never delete — so a pass regression fails here by name
instead of as a distant counterexample.
"""

import re
import sys
import weakref
from collections.abc import Mapping, Set

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import demux as demux_module, irgen, opt
from repro.core.compiler import compile_expr, word
from repro.core.demux import Engine, PacketFilterDemux
from repro.core.interpreter import LanguageLevel, ShortCircuitMode, evaluate
from repro.core.jit import compile_filter
from repro.core.ir import (
    LOAD,
    Anchor,
    Bound,
    ExitIf,
    ValueGraph,
    lower_program,
)
from repro.core.instructions import BinaryOp, Instruction, StackAction, pushword
from repro.core.irgen import SetEntry, compile_ir_set
from repro.core.opt import (
    NecessaryTest,
    build_dispatch_tree,
    cse_filter_set,
    live_nodes,
    specialize_filter,
    transfer_filter,
)
from repro.core.port import Port
from repro.core.program import FilterProgram, asm
from repro.core.validator import validate
from repro.core.words import pack_words
from repro.difftest import (
    boundary_packets,
    full_matrix,
    packets_only,
    run_matrix,
    with_drains,
)

from .reference_dispatch import depth, lookup, matches


def lower(program, mode=ShortCircuitMode.PUSH_RESULT):
    return lower_program(program, validate(program, mode=mode), mode)


def entry(rank, program):
    return SetEntry(
        key=rank,
        program=program,
        report=validate(program),
        copy_all=False,
    )


# ---------------------------------------------------------------------------
# The value graph: hash-consing, folding, identities
# ---------------------------------------------------------------------------


class TestValueGraph:
    def test_hash_consing_dedupes(self):
        g = ValueGraph()
        assert g.load(6) == g.load(6)
        assert g.const(7) == g.const(7)
        a = g.binop("eq", g.load(6), g.const(7))
        b = g.binop("eq", g.load(6), g.const(7))
        assert a == b

    def test_commutative_canonicalization(self):
        g = ValueGraph()
        x, y = g.load(3), g.load(9)
        assert g.binop("add", x, y) == g.binop("add", y, x)
        assert g.binop("eq", x, y) == g.binop("eq", y, x)
        # Non-commutative kinds keep operand order distinct.
        assert g.binop("sub", x, y) != g.binop("sub", y, x)

    def test_constant_folding(self):
        g = ValueGraph()
        nid = g.binop("add", g.const(0xFFFF), g.const(2))
        assert g.const_value(nid) == 1  # 16-bit wrap

    def test_div_by_const_zero_never_folds(self):
        g = ValueGraph()
        nid = g.binop("div", g.const(4), g.const(0))
        # Must stay a (faultable) div node: the fault rejects the packet.
        assert g.node(nid).kind == "div"
        assert g.faultable(nid)

    def test_identities(self):
        g = ValueGraph()
        x = g.load(5)
        assert g.binop("and", x, g.const(0xFFFF)) == x
        assert g.binop("or", x, g.const(0)) == x
        assert g.binop("xor", x, g.const(0)) == x
        assert g.binop("mul", x, g.const(1)) == x
        assert g.const_value(g.binop("eq", x, x)) == 1
        assert g.const_value(g.binop("lt", x, x)) == 0

    def test_faultable_compare_with_self_not_folded(self):
        g = ValueGraph()
        ind = g.indirect("indw", g.load(2))
        nid = g.binop("eq", ind, ind)
        assert g.const_value(nid) is None


# ---------------------------------------------------------------------------
# Lowering: bounds, anchors, side exits
# ---------------------------------------------------------------------------


class TestLowering:
    def test_bound_matches_deepest_word(self):
        fir = lower(compile_expr(word(6) == 0x0900))
        bounds = [s for s in fir.steps if isinstance(s, Bound)]
        assert bounds and max(b.min_bytes for b in bounds) == 13

    def test_constant_exit_truncates_lowering(self):
        # PUSHONE PUSHONE COR: 1 == 1 is a compile-time fact, so the
        # short-circuit accept is unconditional and the deep word-9
        # access behind it is dead — no bound for it may survive.
        program = FilterProgram(
            asm("PUSHONE", ("PUSHONE", "COR"),
                ("PUSHWORD", 9), ("PUSHZERO", "EQ"))
        )
        fir = lower(program)
        assert fir.graph.const_value(fir.result) == 1
        assert not any(
            isinstance(s, Bound) and s.min_bytes > 1 for s in fir.steps
        )

    def test_anchor_pins_division(self):
        program = FilterProgram(
            asm(("PUSHWORD", 0), ("PUSHWORD", 1, "DIV"),
                ("PUSHZERO", "GT"))
        )
        fir = lower_program(
            program, validate(program, level=LanguageLevel.EXTENDED)
        )
        anchors = [s for s in fir.steps if isinstance(s, Anchor)]
        assert len(anchors) == 1
        assert fir.graph.node(anchors[0].node).kind == "div"

    def test_short_circuit_becomes_exit(self):
        fir = lower(compile_expr((word(0) == 1) & (word(1) == 2)))
        exits = [s for s in fir.steps if isinstance(s, ExitIf)]
        assert exits, "CAND must lower to a side exit"


# ---------------------------------------------------------------------------
# Transfer passes: DCE, folding, CSE, specialization
# ---------------------------------------------------------------------------


class TestPasses:
    def test_cse_merges_loads_across_filters(self):
        firs = [
            lower(compile_expr((word(6) == 0x0900) & (word(7) == i)))
            for i in range(8)
        ]
        merged, stats = cse_filter_set(firs)
        assert stats.nodes_after < stats.nodes_before
        # Every merged filter shares the single word-6 load node.
        shared = merged[0].graph
        load6 = shared.load(6)
        for fir in merged:
            assert fir.graph is shared
            assert load6 in live_nodes(fir)

    def test_dce_drops_unused_nodes(self):
        program = compile_expr(word(2) == 5)
        fir = lower(program)
        g = fir.graph
        g.binop("mul", g.load(11), g.load(12))  # dead: never referenced
        out = transfer_filter(fir, ValueGraph())
        kinds = {out.graph.node(n).kind for n in live_nodes(out)}
        assert "mul" not in kinds
        assert len(out.graph) <= len(live_nodes(fir))

    def test_dce_never_removes_side_exit_predicates(self):
        program = compile_expr((word(0) == 1) & (word(1) == 2))
        fir = transfer_filter(lower(program), ValueGraph())
        exits = [s for s in fir.steps if isinstance(s, ExitIf)]
        assert exits, "folding must keep the live side exit"
        for step in exits:
            assert step.cond in live_nodes(fir)

    def test_transfer_keeps_bounds_and_anchors(self):
        program = FilterProgram(
            asm(("PUSHWORD", 3), ("PUSHWORD", 1, "DIV"),
                ("PUSHZERO", "GE"))
        )
        fir = lower_program(
            program, validate(program, level=LanguageLevel.EXTENDED)
        )
        out = transfer_filter(fir, ValueGraph())
        assert any(isinstance(s, Bound) for s in out.steps)
        assert any(isinstance(s, Anchor) for s in out.steps)

    def test_specialize_rewrites_known_word(self):
        fir = lower(compile_expr((word(6) == 0x0900) & (word(7) == 3)))
        g = ValueGraph()
        out = specialize_filter(fir, g, {(6, 0xFFFF): 0x0900})
        kinds = {
            (g.node(n).kind, g.node(n).arg0) for n in live_nodes(out)
        }
        assert (LOAD, 6) not in kinds
        assert (LOAD, 7) in kinds

    def test_specialize_ignores_masked_facts(self):
        fir = lower(compile_expr(word(6) == 0x0900))
        g = ValueGraph()
        out = specialize_filter(fir, g, {(6, 0xFF00): 0x0900})
        kinds = {(g.node(n).kind, g.node(n).arg0) for n in live_nodes(out)}
        assert (LOAD, 6) in kinds

    def test_exit_resolution_truncates_on_always_taken(self):
        # compile_expr emits the word-7 test as the CAND side exit (the
        # word-6 test is the result node), so a bucket where word 7 is
        # provably wrong fires that exit unconditionally: the filter
        # truncates to a constant reject with no residual exit.
        fir = lower(compile_expr((word(6) == 0x0900) & (word(7) == 3)))
        g = ValueGraph()
        out = specialize_filter(fir, g, {(7, 0xFFFF): 9})
        assert g.const_value(out.result) == 0
        assert not any(isinstance(s, ExitIf) for s in out.steps)

    def test_exit_resolution_drops_never_taken(self):
        fir = lower(compile_expr((word(6) == 0x0900) & (word(7) == 3)))
        g = ValueGraph()
        out = specialize_filter(fir, g, {(7, 0xFFFF): 3})
        assert not any(isinstance(s, ExitIf) for s in out.steps)
        assert g.const_value(out.result) is None  # the word-6 test remains


# ---------------------------------------------------------------------------
# The dispatch tree: reordering predicates, never priorities
# ---------------------------------------------------------------------------


def table_entries(programs):
    return [entry(i, p) for i, p in enumerate(programs)]


class TestDispatchTree:
    def test_buckets_on_best_discriminant(self):
        entries = table_entries(
            [
                compile_expr((word(6) == 0x0900) & (word(7) == i))
                for i in range(6)
            ]
        )
        tree = build_dispatch_tree(entries, ShortCircuitMode.PUSH_RESULT)
        assert tree.discriminant is not None
        word_index, mask = tree.discriminant
        assert word_index == 7 and mask == 0xFFFF
        assert len(tree.buckets) == 6

    def test_leaf_chains_preserve_priority_order(self):
        # Two filters in the same bucket must stay in rank order even
        # though the tree is free to reorder *predicates*.
        entries = table_entries(
            [
                compile_expr((word(7) == 1) & (word(3) == 9)),
                compile_expr(word(7) == 1),
                compile_expr(word(7) == 2),
            ]
        )
        tree = build_dispatch_tree(entries, ShortCircuitMode.PUSH_RESULT)
        bucket = tree.buckets[1]
        ranks = [e.key for e in bucket.entries]
        assert ranks == sorted(ranks)

    def test_leftovers_reach_every_bucket_and_fallback(self):
        wildcard = compile_expr(word(0) >= 0)  # bucketable nowhere
        entries = table_entries(
            [
                compile_expr(word(7) == 1),
                compile_expr(word(7) == 2),
                wildcard,
            ]
        )
        tree = build_dispatch_tree(entries, ShortCircuitMode.PUSH_RESULT)
        wild = [e for e in entries if e.program is wildcard][0]
        for bucket in tree.buckets.values():
            assert wild in bucket.entries
        assert tree.fallback is not None
        assert wild in tree.fallback.entries

    def test_four_discriminating_words_make_one_probe(self):
        """Four words each split the set in two, but the tree probes one
        (the lowest, on a tie) and every bucket is a chain in
        application order: the section 7 table is one probe.  For every
        packet, ``lookup`` is exactly the linear scan's candidates, the
        filters whose test of the probed word the packet passes."""
        entries = table_entries(
            [
                compile_expr(
                    (word(6) == i) & (word(7) == j) & (word(8) == k)
                    & (word(9) == m)
                )
                for i in range(2)
                for j in range(2)
                for k in range(2)
                for m in range(2)
            ]
        )
        tree = build_dispatch_tree(entries, ShortCircuitMode.PUSH_RESULT)
        assert depth(tree) == 1
        assert tree.discriminant == (6, 0xFFFF)
        for value, bucket in tree.buckets.items():
            assert bucket.discriminant is None and not bucket.buckets
            assert bucket.entries == tuple(
                e for e in entries if e.necessary[(6, 0xFFFF)] == value
            )
        assert tree.fallback.discriminant is None
        assert tree.fallback.entries == ()
        for words in [
            [0] * 6 + [i, j, k, m] for i in range(3) for j in range(2)
            for k in range(2) for m in range(2)
        ] + [[0] * 6, [0] * 7]:
            packet = pack_words(words)
            scan = tuple(
                e for e in entries
                if matches(
                    NecessaryTest(6, 0xFFFF, e.necessary[(6, 0xFFFF)]), packet
                )
            )
            assert lookup(tree, packet) == scan


# ---------------------------------------------------------------------------
# The compiled set: statistics, agreement with the interpreter
# ---------------------------------------------------------------------------


def build_set(count=8):
    entries = [
        entry(i, compile_expr((word(6) == 0x0900) & (word(7) == i)))
        for i in range(count)
    ]
    return compile_ir_set(entries)


PACKETS = [
    pack_words([0, 0, 0, 0, 0, 0, 0x0900, n % 11]) for n in range(64)
] + [b"", b"\x01", pack_words([0, 0, 0, 0, 0, 0, 0x0800, 1])]


class TestCompiledIRSet:
    def test_stats_report_cse_win(self):
        compiled = build_set()
        stats = compiled.stats
        assert stats.filters == 8
        assert stats.nodes_after_cse < stats.nodes_before_cse
        assert stats.dispatch_depth >= 1

    def test_classification_agrees_with_interpreter(self):
        programs = [
            compile_expr((word(6) == 0x0900) & (word(7) == i))
            for i in range(8)
        ]
        compiled = compile_ir_set(
            [entry(i, p) for i, p in enumerate(programs)]
        )
        for packet in PACKETS:
            ranks, _ = compiled.classify(packet)
            expected = tuple(
                i
                for i, p in enumerate(programs)
                if evaluate(p, packet, checked=True)
            )
            assert ranks == expected


# ---------------------------------------------------------------------------
# Emission: a run of word equalities is one byte-slice compare
# ---------------------------------------------------------------------------


def five_tuple(dport, sport=4000):
    return compile_expr(
        (word(6) == dport) & (word(4) == 6) & (word(5) == sport)
        & (word(0) == 0x0A00) & (word(1) == 0x0001)
        & (word(2) == 0x0A00) & (word(3) == 0x0002),
        priority=10,
    )


def chain_blocks(compiled):
    """The source of every chain in a compiled set that has entries."""
    return [
        block for block in compiled.source.split("\n# node ")
        if ": chain, _factory((" in block
    ]


def slices(source):
    """``(start, stop)`` of every byte-slice compare in ``source``."""
    return [
        (int(start), int(stop))
        for start, stop in re.findall(r"packet\[(\d+):(\d+)\]", source)
    ]


def sliced(source, index):
    """Whether word ``index`` is tested inside a byte-slice compare."""
    return any(start <= 2 * index < stop for start, stop in slices(source))


def assert_engines_agree(programs):
    """IR and COMPILED, cached or not, agree with CHECKED (and the
    oracle) on every program's boundary packets."""
    packets = [p for program in programs for p in boundary_packets(program)]
    report = run_matrix(
        programs, with_drains(packets_only(packets), 6), full_matrix()
    )
    assert report.ok, report.summary()


def adjacent_tests(*tests):
    """A stack program of ``(word, value, operator)`` tests in order,
    the last one's operator ``EQ`` (the verdict)."""
    code = []
    for index, value, operator in tests:
        code += [("PUSHWORD", index), ("PUSHLIT", operator, value)]
    return FilterProgram(asm(*code), priority=10)


class TestWordRunCoalescing:
    def test_five_tuple_chain_is_one_slice_compare(self):
        programs = [five_tuple(1024 + i) for i in range(8)]
        compiled = compile_ir_set(
            [entry(i, p) for i, p in enumerate(programs)]
        )
        assert compiled.discriminant == (6, 0xFFFF)
        chains = chain_blocks(compiled)
        assert len(chains) == 8
        for chain in chains:
            # Word 6 went to the probe; words 0-5 are one 12-byte run.
            assert slices(chain) == [(0, 12)]
            assert "<< 8" not in chain
            assert "_ONE" not in chain and "_a0" not in chain
        # The single-filter JIT merges the same run; word 6 is the
        # 13-byte guard's zero-padded tail, so it keeps its own test.
        source = compile_filter(programs[0]).source
        assert slices(source) == [(0, 12)]
        assert source.count("<< 8") == 1
        assert_engines_agree(programs)

    def test_masked_test_is_left_unmerged(self):
        program = compile_expr(
            (word(1) == 0x0800) & (word(2).masked(0xFF00) == 0x4500)
            & (word(3) == 7) & (word(4) == 9) & (word(0) == 1),
            priority=10,
        )
        for source in (
            compile_filter(program).source,
            compile_ir_set([entry(0, program)]).source,
        ):
            assert slices(source) and not sliced(source, 2)
        assert_engines_agree([program])

    def test_odd_tail_word_is_left_unmerged(self):
        program = five_tuple(1024)
        for source in (
            compile_filter(program).source,
            compile_ir_set([entry(0, program)]).source,
        ):
            assert slices(source) == [(0, 12)]
            assert "packet[13] if" in source
        assert_engines_agree([program])

    def test_repeated_word_is_left_unmerged(self):
        # Word 2 must equal 5 and 6 at once: nothing accepts, and a
        # merge keeping either literal would accept one of them.  Words
        # 3 and 4 still merge; word 5, tested first, is the guard's
        # odd tail.
        program = adjacent_tests(
            (5, 1, "CAND"), (2, 5, "CAND"), (3, 7, "CAND"), (2, 6, "CAND"),
            (4, 9, "EQ"),
        )
        for source in (
            compile_filter(program).source,
            compile_ir_set([entry(0, program)]).source,
        ):
            assert slices(source) == [(6, 10)]
        assert_engines_agree([program])

    def test_early_accept_exit_is_left_unmerged(self):
        # Word 1 accepts early when it is *not* 2: an exit with the
        # shape of a reject test but the opposite verdict.
        program = adjacent_tests(
            (3, 4, "CAND"), (1, 2, "CNAND"), (2, 3, "CAND"), (0, 5, "EQ")
        )
        exits = [s for s in lower(program).steps if isinstance(s, ExitIf)]
        assert [s.returns for s in exits] == [False, True, False]
        for source in (
            compile_filter(program).source,
            compile_ir_set([entry(0, program)]).source,
        ):
            assert not sliced(source, 1) and not sliced(source, 3)
            assert sliced(source, 0) and sliced(source, 2)
        assert_engines_agree([program])

    def test_inequality_verdict_is_left_unmerged(self):
        program = adjacent_tests(
            (3, 7, "CAND"), (1, 2, "CAND"), (2, 5, "NEQ")
        )
        for source in (
            compile_filter(program).source,
            compile_ir_set([entry(0, program)]).source,
        ):
            assert slices(source) == []
        assert_engines_agree([program])

    def test_hoisted_shared_compare_is_left_unmerged(self):
        # Two rules in one chain (no probe above it) share the protocol
        # test: the chain hoists it, and neither body re-tests its word.
        programs = [
            adjacent_tests(
                (6, dport, "CAND"), (4, 6, "CAND"), (0, host, "CAND"),
                (1, host + 1, "EQ"),
            )
            for dport, host in ((1024, 1), (1025, 3))
        ]
        entries = [entry(i, p) for i, p in enumerate(programs)]
        for each in entries:
            opt.lower_entry(each, ShortCircuitMode.PUSH_RESULT)
        source, constants, _, _ = irgen._emit_chain(entries, {})
        assert re.search(r"if _h\d+ == 0: break", source)
        assert slices(source) == [(0, 4), (0, 4)]
        chain = irgen._load_factory(source)(
            *irgen._result_constants(entries), *constants
        )
        for packet in (
            p for program in programs for p in boundary_packets(program)
        ):
            want = next(
                (
                    ((i,), i + 1)
                    for i, program in enumerate(programs)
                    if evaluate(program, packet, checked=True).accepted
                ),
                ((), 2),
            )
            assert chain(packet, len(packet)) == want, packet.hex()
        assert_engines_agree(programs)


# ---------------------------------------------------------------------------
# Leaf chains: ranks follow the binding, stats stay exact
# ---------------------------------------------------------------------------


@st.composite
def stack_programs(draw):
    """A valid EXTENDED-level program over a tiny vocabulary, so that
    separate filters share subexpressions, swap commutative operands,
    and use indirect loads and DIV."""
    pushes = [
        Instruction(pushword(0)), Instruction(pushword(1)),
        Instruction(int(StackAction.PUSHONE)),
        Instruction(int(StackAction.PUSHLIT), literal=2),
    ]
    operators = [
        BinaryOp.EQ, BinaryOp.AND, BinaryOp.OR, BinaryOp.ADD, BinaryOp.SUB,
        BinaryOp.DIV, BinaryOp.LT, BinaryOp.CAND, BinaryOp.COR,
    ]
    body, depth = [], 0
    for _ in range(draw(st.integers(1, 10))):
        choice = draw(st.integers(0, 2))
        if choice == 0 or depth < 1:
            body.append(draw(st.sampled_from(pushes)))
            depth += 1
        elif choice == 1 and depth >= 2:
            body.append(Instruction(
                int(StackAction.NOPUSH), draw(st.sampled_from(operators))
            ))
            depth -= 1
        else:
            body.append(Instruction(int(draw(st.sampled_from(
                [StackAction.PUSHIND, StackAction.PUSHBYTEIND]
            )))))
    return FilterProgram(body)


class TestChainCache:
    """Leaf chains: result keys are arguments, not chain text, and the
    set's stats are summed from facts kept with its chains."""

    def test_ranks_follow_a_reattached_binding(self):
        programs = [compile_expr(word(6) == 0x0900 + i) for i in range(3)]
        packets = [
            pack_words([0, 0, 0, 0, 0, 0, 0x0900 + i]) for i in range(3)
        ]
        first = compile_ir_set([entry(i, p) for i, p in enumerate(programs)])
        assert first.classify(packets[1]) == ((1,), 1)
        # Detach and re-attach filter 0: it moves behind its priority
        # class and every later rank shifts down by one.
        reordered = [programs[1], programs[2], programs[0]]
        second = compile_ir_set([entry(i, p) for i, p in enumerate(reordered)])
        assert second.classify(packets[1]) == ((0,), 1)
        assert second.classify(packets[0]) == ((2,), 1)
        assert first.classify(packets[0]) == ((0,), 1)  # old set untouched

    @given(st.lists(stack_programs(), min_size=1, max_size=6))
    # ``x / 1`` folds to a dead load: nothing to anchor, nothing live.
    @example([FilterProgram(
        asm(("PUSHWORD", 0), ("PUSHONE", "DIV"), ("PUSHWORD", 1))
    )])
    # The same sum with its operands swapped is one value, not two.
    @example([
        FilterProgram(asm(("PUSHWORD", 0), ("PUSHWORD", 1), "ADD")),
        FilterProgram(asm(("PUSHWORD", 1), ("PUSHWORD", 0), "ADD")),
    ])
    @settings(max_examples=100, deadline=None)
    def test_stats_equal_whole_set_cse(self, programs):
        level = LanguageLevel.EXTENDED
        reports = [validate(program, level=level) for program in programs]
        compiled = compile_ir_set([
            SetEntry(rank, program, report, False)
            for rank, (program, report) in enumerate(zip(programs, reports))
        ])
        _, reference = cse_filter_set([
            lower_program(program, report, ShortCircuitMode.PUSH_RESULT)
            for program, report in zip(programs, reports)
        ])
        assert compiled.stats.nodes_before_cse == reference.nodes_before
        assert compiled.stats.nodes_after_cse == reference.nodes_after


def module_tables():
    """Length of every module-level mapping, set and list in
    :mod:`repro.core` (weak ones such as ``WeakValueDictionary`` and
    ``WeakSet`` included), and the size of every ``lru_cache`` there."""
    sizes = {}
    for name, module in list(sys.modules.items()):
        if name != "repro.core" and not name.startswith("repro.core."):
            continue
        for attr, value in vars(module).items():
            if isinstance(value, (Mapping, Set, list)):
                sizes[name, attr] = len(value)
            elif hasattr(value, "cache_info"):
                sizes[name, attr] = value.cache_info().currsize
    return sizes


def extra_word_rule(dport, extra):
    """A rule on ``dport`` that also tests word ``7 + extra // 2``,
    masked when ``extra`` is odd: a chain shape no other ``extra`` has."""
    tested = word(7 + extra // 2)
    if extra % 2:
        tested = tested.masked(0xFF00)
    return compile_expr(
        (word(6) == dport) & (word(4) == 6) & (tested == extra << 8),
        priority=10,
    )


def live_factories(compiled):
    """The factories every linked leaf chain of ``compiled`` was made
    by."""
    root = compiled._root
    if root.discriminant is None:
        return {id(root.chain.factory)}
    leaves = [*root.buckets.values(), root.fallback]
    return {id(leaf.chain.factory) for leaf in leaves}


def keyed_templates(compiled):
    """The templates named anywhere in the keys of ``compiled``'s chain
    table."""
    named = set()
    parts = list(compiled._chains.keys())
    while parts:
        part = parts.pop()
        if isinstance(part, tuple):
            parts.extend(part)
        elif isinstance(part, opt.Template):
            named.add(id(part))
    return named


class TestRebindMemory:
    def make(self):
        demux = PacketFilterDemux(
            engine=Engine.IR, reorder_same_priority=False
        )
        ports = []
        for i in range(16):
            port = Port(i, queue_limit=64)
            port.bind_filter(five_tuple(0x7100 + i, sport=0x7100))
            demux.attach(port)
            ports.append(port)
        demux.ir_stats  # compile
        return demux, ports

    def test_a_rebind_frees_the_replaced_set_and_program(self):
        """One SETFILTER of a never-seen rule keeps nothing of what it
        replaced: the replaced compiled set and the replaced program are
        freed, and no module-level table in :mod:`repro.core` grows —
        bind-time work lives on the binding and dies with it.  The last
        re-bind is to a never-seen shape, which a process-wide table of
        shapes would keep."""
        demux, ports = self.make()
        for serial in range(4):
            before = module_tables()
            port = ports[5 * serial]
            replaced_set = weakref.ref(demux._ir)
            replaced_program = weakref.ref(port.program)
            demux.detach(port)
            if serial == 3:
                port.bind_filter(extra_word_rule(0x7100 + 5 * serial, 40))
            else:
                port.bind_filter(
                    five_tuple(0x7100 + 5 * serial, 0x7200 + serial)
                )
            demux.attach(port)
            demux.ir_stats  # compile against the replaced set
            assert replaced_set() is None, "the replaced set is still referenced"
            assert replaced_program() is None, (
                "the replaced program is still referenced"
            )
            after = module_tables()
            grown = {
                table: (before.get(table, 0), size)
                for table, size in after.items()
                if size > before.get(table, 0)
            }
            assert not grown, grown

    def test_shape_table_holds_only_live_shapes(self):
        """Re-binding one port through 50 distinct shapes leaves the
        set's shape table holding exactly the factories its linked leaf
        chains were made by: a shape leaves with its last chain, and the
        probe, a constant, is never in it."""
        demux, ports = self.make()
        port = ports[3]
        for extra in range(50):
            demux.detach(port)
            port.bind_filter(extra_word_rule(0x7103, extra))
            demux.attach(port)
            demux.ir_stats  # compile against the replaced set
            compiled = demux._ir
            table = {id(factory) for factory in compiled._shapes.values()}
            assert table == live_factories(compiled), extra
        # The five-tuple chains, the re-bound rule's and the empty
        # fallback.
        assert len(compiled._shapes) == 3

    def test_template_table_holds_only_linked_templates(self):
        """Re-binding one port through 50 skeletons leaves the set's
        template table holding exactly the templates its entries read
        from, and its chain table no others: a replaced rule's template
        dies with its last entry, and no module-level table grows."""
        demux, ports = self.make()
        port = ports[3]
        tables = module_tables()
        replaced = None
        for extra in range(50):
            demux.detach(port)
            port.bind_filter(extra_word_rule(0x7103, extra))
            demux.attach(port)
            demux.ir_stats  # compile against the replaced set
            compiled = demux._ir
            assert isinstance(compiled._templates, weakref.WeakValueDictionary)
            held = {id(template) for template in compiled._templates.values()}
            linked = {id(entry.template) for entry in compiled._root.entries}
            assert held == linked, extra
            assert isinstance(compiled._chains, weakref.WeakValueDictionary)
            assert keyed_templates(compiled) <= linked, extra
            if replaced is not None:
                assert replaced() is None, f"template of extra {extra - 1} kept"
            replaced = weakref.ref(next(
                entry.template for entry in compiled._root.entries
                if entry.key == 3
            ))
        # The five-tuple's two skeletons (port 0x7100 equals the source
        # port) and the re-bound rule's.
        assert len(compiled._templates) == 3
        grown = {
            table: (tables.get(table, 0), size)
            for table, size in module_tables().items()
            if size > tables.get(table, 0)
        }
        assert not grown, grown

    def test_own_templates_die_with_their_bindings(self):
        """Re-binding one port through 30 rules of one skeleton whose
        lowerings fold two literals gives each rule a template of its
        own: the set's template table never holds it, its chain table
        keys only templates of linked entries, and each replaced rule's
        template is freed with its binding, and its chain record with
        the leaf that held it last."""
        demux, ports = self.make()
        port = ports[3]
        replaced = record = None
        for serial in range(30):
            demux.detach(port)
            port.bind_filter(FilterProgram(asm(
                ("PUSHWORD", 6), ("PUSHLIT", "CAND", 0x7103),
                ("PUSHWORD", 7), ("PUSHLIT", 0x1000 + serial),
                ("PUSHLIT", "XOR", 0x0F0F), "EQ",
            ), priority=10))
            demux.attach(port)
            demux.ir_stats  # compile against the replaced set
            compiled = demux._ir
            entries = compiled._root.entries
            own = next(entry.template for entry in entries if entry.key == 3)
            held = {id(template) for template in compiled._templates.values()}
            linked = {id(entry.template) for entry in entries}
            assert id(own) not in held, serial
            assert held <= linked, serial
            keyed = keyed_templates(compiled)
            assert id(own) in keyed, serial
            assert keyed <= linked, serial
            if replaced is not None:
                assert replaced() is None, f"serial {serial - 1}'s kept"
                assert record() is None, f"serial {serial - 1}'s record kept"
            replaced = weakref.ref(own)
            record = weakref.ref(compiled._root.buckets[0x7103].chain)
            packet = pack_words([0, 0, 0, 0, 0, 0, 0x7103, 0x1F0F ^ serial])
            assert demux.deliver(packet).accepted_by == (3,)
            port.read_packets()


# ---------------------------------------------------------------------------
# Engine.IR under binding churn
# ---------------------------------------------------------------------------


class TestEngineChurn:
    def make(self, **kw):
        demux = PacketFilterDemux(engine=Engine.IR, **kw)
        ports = []
        for i in range(6):
            port = Port(i, queue_limit=64)
            port.bind_filter(
                compile_expr((word(6) == 0x0900) & (word(7) == i))
            )
            demux.attach(port)
            ports.append(port)
        return demux, ports

    def test_attach_detach_recompiles(self):
        demux, ports = self.make()
        packet = pack_words([0, 0, 0, 0, 0, 0, 0x0900, 2])
        assert demux.deliver(packet).accepted_by == (2,)
        demux.detach(ports[2])
        assert demux.deliver(packet).accepted_by == ()
        demux.attach(ports[2])
        assert demux.deliver(packet).accepted_by == (ports[2].port_id,)

    def test_copy_all_invalidation(self):
        # Two ports match the same traffic; first-match delivery stops
        # at the winner until it opts into copy-all, and the flip must
        # recompile the baked-in dispatch function.
        demux = PacketFilterDemux(engine=Engine.IR)
        ports = []
        for i in range(2):
            port = Port(i, queue_limit=64)
            port.bind_filter(compile_expr(word(6) == 0x0900))
            demux.attach(port)
            ports.append(port)
        packet = pack_words([0, 0, 0, 0, 0, 0, 0x0900, 1])
        assert demux.deliver(packet).accepted_by == (0,)
        ports[0].copy_all = True
        demux.invalidate()
        assert set(demux.deliver(packet).accepted_by) == {0, 1}

    def test_flow_cache_batch_hits(self):
        demux, _ = self.make(flow_cache=True)
        packets = [
            pack_words([0, 0, 0, 0, 0, 0, 0x0900, n % 6]) for n in range(32)
        ]
        reports = demux.deliver_batch(packets)
        assert [r.accepted_by for r in reports] == [
            (n % 6,) for n in range(32)
        ]
        # A second identical burst is all hits.
        before = demux.flow_cache.hits
        demux.deliver_batch(packets)
        assert demux.flow_cache.hits >= before + len(packets)

    def test_a_never_seen_filter_is_lowered_once(self, monkeypatch):
        # A filter is lowered once, for the dispatch tree's necessary
        # tests, and its chain is built from the template that lowering
        # makes; a filter whose skeleton the set knows is read off its
        # template instead.
        lowered = []

        def counting(program, *args, **kwargs):
            lowered.append(program)
            return lower_program(program, *args, **kwargs)

        monkeypatch.setattr(opt, "lower_program", counting)
        demux, ports = self.make()
        demux.deliver(b"")
        # Word 7 is tested against 0, 1 and four other values: three
        # skeletons, each lowered by the first filter that has it.
        assert len(lowered) == len(set(lowered)) == 3
        original = ports[2].program
        for program, calls in [
            (compile_expr((word(6) == 0x0900) & (word(7) == 77)), 0),
            (
                compile_expr(
                    (word(6) == 0x0900) & (word(7) == 78) & (word(8) == 9)
                ),
                1,
            ),
            # Seen before: its tests and chain went with its old binding,
            # but ports 3-5 keep its skeleton's template in the set.
            (original, 0),
        ]:
            del lowered[:]
            demux.detach(ports[2])
            ports[2].bind_filter(program)
            demux.attach(ports[2])
            demux.deliver(b"")
            assert len(lowered) == calls

    def test_bindings_compare_by_identity(self):
        # A port is bound at most once, so detach's list removal and the
        # reorder's before/after check need no field-by-field compare.
        assert demux_module._Binding.__eq__ is object.__eq__

    def test_ir_stats_exposed(self):
        demux, _ = self.make()
        stats = demux.ir_stats
        assert stats is not None and stats.filters == 6
        scan = PacketFilterDemux(engine=Engine.COMPILED)
        assert scan.ir_stats is None


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
