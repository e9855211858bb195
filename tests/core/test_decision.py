"""Tests for necessary-equality analysis and the decision table (the
dispatch tree, read through :meth:`DispatchTree.lookup`)."""


from repro.core.compiler import compile_expr, word
from repro.core.interpreter import ShortCircuitMode, evaluate
from repro.core.opt import (
    NecessaryTest,
    SetEntry,
    build_dispatch_tree,
    necessary_equalities,
)
from repro.core.paper_filters import (
    figure_3_8_pup_type_range,
    figure_3_9_pup_socket_35,
)
from repro.core.program import FilterProgram, asm
from repro.core.validator import validate
from repro.core.words import pack_words


def necessary(program):
    return necessary_equalities(program, validate(program))


class TestNecessaryEqualities:
    def test_figure_3_9_full_extraction(self):
        tests = necessary(figure_3_9_pup_socket_35())
        assert NecessaryTest(8, 0xFFFF, 35) in tests
        assert NecessaryTest(7, 0xFFFF, 0) in tests
        assert NecessaryTest(1, 0xFFFF, 2) in tests

    def test_figure_3_8_extracts_type_test(self):
        tests = necessary(figure_3_8_pup_type_range())
        assert NecessaryTest(1, 0xFFFF, 2) in tests

    def test_masked_equality(self):
        program = compile_expr(word(3).low_byte() == 7)
        tests = necessary(program)
        assert NecessaryTest(3, 0x00FF, 7) in tests

    def test_disjunction_yields_intersection(self):
        program = compile_expr(
            ((word(0) == 1) & (word(5) == 9)) | ((word(0) == 2) & (word(5) == 9))
        )
        tests = necessary(program)
        # word 5 == 9 is necessary on both branches.
        assert NecessaryTest(5, 0xFFFF, 9) in tests
        # word 0 differs per branch: not necessary.
        assert not any(t.index == 0 for t in tests)

    def test_early_true_operators_disable_analysis(self):
        program = FilterProgram(
            asm(
                ("PUSHWORD", 0), ("PUSHLIT", "COR", 1),
                ("PUSHWORD", 1), ("PUSHLIT", "EQ", 2),
            )
        )
        assert necessary(program) == frozenset()

    def test_soundness_on_paper_filters(self):
        """If a necessary test fails, the program must reject."""
        for program in (figure_3_8_pup_type_range(), figure_3_9_pup_socket_35()):
            tests = necessary(program)
            accept = pack_words([0x0102, 2, 30, 0x0132, 0, 0, 0x0101, 0, 35])
            assert evaluate(program, accept).accepted
            for test in tests:
                words = [0x0102, 2, 30, 0x0132, 0, 0, 0x0101, 0, 35]
                words[test.index] = (test.value + 1) & 0xFFFF
                assert not evaluate(program, pack_words(words)).accepted

    def test_always_true_program(self):
        assert necessary(FilterProgram(asm("PUSHONE"))) == frozenset()


class TestNecessaryTestMatching:
    def test_matches(self):
        test = NecessaryTest(1, 0xFFFF, 2)
        assert test.matches(pack_words([0, 2]))
        assert not test.matches(pack_words([0, 3]))

    def test_short_packet_never_matches(self):
        assert not NecessaryTest(5, 0xFFFF, 0).matches(b"\x00\x00")


def build_table(programs):
    return build_dispatch_tree(
        [
            SetEntry(rank, program, validate(program), copy_all=False)
            for rank, program in enumerate(programs)
        ],
        ShortCircuitMode.PUSH_RESULT,
    )


def candidates(table, packet):
    return [entry.rank for entry in table.lookup(packet)]


class TestDecisionTable:
    def test_buckets_by_shared_field(self):
        programs = [
            compile_expr((word(6) == t) & (word(7) == p))
            for t in (1, 2, 3) for p in (10, 20)
        ]
        table = build_table(programs)
        assert table.depth >= 1

    def test_candidates_subset_and_order(self):
        programs = [
            compile_expr((word(6) == t) & (word(7) == p))
            for t in (1, 2) for p in (10, 20)
        ]
        table = build_table(programs)
        packet = pack_words([0, 0, 0, 0, 0, 0, 1, 10])
        offered = candidates(table, packet)
        assert offered == sorted(offered)
        # Only filters requiring word6==1 (plus any fallback) may appear.
        for index in offered:
            assert index in (0, 1)

    def test_exactness_against_linear_scan(self):
        """First accepted filter must match the naive loop, always."""
        programs = [
            compile_expr((word(6) == t) & (word(7) == p))
            for t in (1, 2, 3) for p in (10, 20)
        ] + [FilterProgram(asm("PUSHONE"))]  # unanalyzable catch-all
        table = build_table(programs)
        test_packets = [
            pack_words([0, 0, 0, 0, 0, 0, t, p])
            for t in (0, 1, 2, 3, 4) for p in (10, 20, 30)
        ] + [b"", b"\x00"]
        for packet in test_packets:
            naive = next(
                (
                    i for i, prog in enumerate(programs)
                    if evaluate(prog, packet).accepted
                ),
                None,
            )
            via_table = next(
                (
                    i for i in candidates(table, packet)
                    if evaluate(programs[i], packet).accepted
                ),
                None,
            )
            assert naive == via_table, packet.hex()

    def test_short_packet_falls_back(self):
        programs = [
            compile_expr((word(6) == 1) & (word(7) == 10)),
            compile_expr((word(6) == 2) & (word(7) == 10)),
            FilterProgram(asm("PUSHONE")),
        ]
        table = build_table(programs)
        # Too short for word 6: bucketed filters would fault anyway, so
        # only the unanalyzable catch-all is offered.
        assert candidates(table, b"") == [2]

    def test_empty_table(self):
        table = build_table([])
        assert candidates(table, b"\x00\x00") == []

    def test_single_filter_no_split(self):
        table = build_table([compile_expr(word(0) == 1)])
        assert table.depth == 0
