"""Property-based tests over the filter machinery (hypothesis).

The invariants DESIGN.md §5 promises:

* instruction and program encodings round-trip;
* the JIT agrees with the interpreter on arbitrary valid programs and
  arbitrary packets, in both short-circuit modes;
* validator soundness: validated programs never fault at runtime on
  long-enough packets (classic level);
* the decision table yields exactly the linear scan's outcome, in both
  short-circuit modes, from an analysis that only ever reports tests an
  accepted packet really passes;
* the compiler's output accepts exactly the packets its expression
  describes (checked against a python-level oracle).
"""

from hypothesis import given, settings, strategies as st

from repro.core.compiler import compile_expr, word
from repro.core.demux import Engine, PacketFilterDemux
from repro.core.instructions import (
    BinaryOp,
    CLASSIC_OPERATORS,
    Instruction,
    StackAction,
    decode_instruction_word,
    encode_instruction_word,
    pushword,
)
from repro.core.interpreter import (
    FaultCode,
    ShortCircuitMode,
    evaluate,
)
from repro.core.jit import compile_filter
from repro.core.opt import SetEntry, build_dispatch_tree, necessary_equalities
from repro.core.port import Port
from repro.core.program import FilterProgram
from repro.core.validator import ValidationError, validate
from repro.core.words import get_word, pack_words, word_count

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

u16 = st.integers(min_value=0, max_value=0xFFFF)

packets = st.binary(min_size=0, max_size=64)

plain_actions = st.sampled_from(
    [
        StackAction.PUSHLIT,
        StackAction.PUSHZERO,
        StackAction.PUSHONE,
        StackAction.PUSHFFFF,
        StackAction.PUSHFF00,
        StackAction.PUSH00FF,
    ]
)

classic_operators = st.sampled_from(sorted(CLASSIC_OPERATORS, key=int))


@st.composite
def instructions(draw):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        action = int(draw(plain_actions))
    elif kind == 1:
        action = pushword(draw(st.integers(0, 20)))
    else:
        action = int(StackAction.NOPUSH)
    operator = draw(classic_operators)
    literal = draw(u16) if action == StackAction.PUSHLIT else None
    return Instruction(action, operator, literal)


@st.composite
def valid_programs(draw):
    """Generate programs that pass validation (retry-filter approach:
    build a random instruction list, then repair it by construction)."""
    length = draw(st.integers(1, 12))
    body = []
    depth = 0
    for _ in range(length):
        ins = draw(instructions())
        # Repair: ensure the operator never underflows.
        pushes = 1 if ins.pushes else 0
        if ins.operator != BinaryOp.NOP and depth + pushes < 2:
            ins = Instruction(ins.action_code, BinaryOp.NOP, ins.literal)
        depth += 1 if ins.pushes else 0
        if ins.operator != BinaryOp.NOP:
            depth -= 1  # PUSH_RESULT mode: every operator nets -1
        body.append(ins)
    if depth < 1:
        body.append(Instruction(StackAction.PUSHONE))
    program = FilterProgram(body, priority=draw(st.integers(0, 255)))
    validate(program)  # must hold by construction
    return program


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


class TestEncodingProperties:
    @given(instructions())
    def test_instruction_roundtrip(self, ins):
        assert decode_instruction_word(
            encode_instruction_word(ins), ins.literal
        ) == ins

    @given(valid_programs())
    def test_program_roundtrip(self, program):
        assert FilterProgram.decode(program.encode()) == program

    @given(valid_programs())
    def test_encoded_length_matches_wire_words(self, program):
        assert len(program.encode()) == 2 + program.encoded_length


# ---------------------------------------------------------------------------
# interpreter / JIT agreement & validator soundness
# ---------------------------------------------------------------------------


class TestEvaluationProperties:
    @given(valid_programs(), packets)
    @settings(max_examples=200)
    def test_jit_matches_interpreter(self, program, packet):
        compiled = compile_filter(program)
        expected = evaluate(program, packet).accepted
        assert compiled.accepts(packet) is expected

    @given(valid_programs(), packets)
    def test_fast_path_matches_checked(self, program, packet):
        report = validate(program)
        if len(packet) < report.min_packet_bytes:
            return  # the demux would not run the fast path at all
        checked = evaluate(program, packet, checked=True)
        fast = evaluate(program, packet, checked=False)
        assert checked.accepted == fast.accepted

    @given(valid_programs(), packets)
    def test_validated_programs_never_fault_on_long_packets(
        self, program, packet
    ):
        report = validate(program)
        if len(packet) < report.max_packet_bytes_touched:
            return
        result = evaluate(program, packet)
        assert result.fault == FaultCode.NONE

    @given(valid_programs(), packets)
    def test_min_packet_bytes_precheck_is_sound(self, program, packet):
        """Packets shorter than min_packet_bytes are always rejected —
        the invariant the PREVALIDATED demux engine's skip relies on."""
        report = validate(program)
        if len(packet) >= report.min_packet_bytes:
            return
        assert not evaluate(program, packet).accepted

    @given(valid_programs(), packets)
    def test_no_push_jit_matches_no_push_interpreter(self, program, packet):
        try:
            validate(program, mode=ShortCircuitMode.NO_PUSH)
        except ValidationError:
            return  # only meaningful for programs valid in that mode
        compiled = compile_filter(program, mode=ShortCircuitMode.NO_PUSH)
        expected = evaluate(
            program, packet, mode=ShortCircuitMode.NO_PUSH
        ).accepted
        assert compiled.accepts(packet) is expected

    @given(valid_programs(), packets)
    def test_evaluation_is_deterministic(self, program, packet):
        assert evaluate(program, packet) == evaluate(program, packet)


# ---------------------------------------------------------------------------
# compiler against a Python oracle
# ---------------------------------------------------------------------------

field_tests = st.builds(
    lambda index, mask, op, value: (index, mask, op, value),
    st.integers(0, 10),
    st.sampled_from([0xFFFF, 0x00FF, 0xFF00, 0x0F0F]),
    st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
    u16,
)

_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def oracle_test(packet, spec):
    index, mask, op, value = spec
    try:
        field_value = get_word(packet, index) & mask
    except IndexError:
        return False
    return _OPS[op](field_value, value)


def build_expr(spec):
    index, mask, op, value = spec
    field = word(index).masked(mask)
    return field._test(op, value)


class TestCompilerProperties:
    @given(st.lists(field_tests, min_size=1, max_size=4), packets)
    @settings(max_examples=200)
    def test_conjunction_matches_oracle(self, specs, packet):
        expr = build_expr(specs[0])
        for spec in specs[1:]:
            expr = expr & build_expr(spec)
        program = compile_expr(expr)
        expected = all(oracle_test(packet, spec) for spec in specs)
        result = evaluate(program, packet)
        if any(
            spec[0] >= word_count(packet) for spec in specs
        ):
            # Some field is off the end: the filter faults and rejects,
            # matching the oracle's False.
            assert not result.accepted
            assert expected is False
        else:
            assert result.accepted is expected

    @given(st.lists(field_tests, min_size=1, max_size=4), packets)
    @settings(max_examples=200)
    def test_disjunction_matches_oracle(self, specs, packet):
        if any(spec[0] >= word_count(packet) for spec in specs):
            return  # bounds faulting inside OR legs diverges from oracle
        expr = build_expr(specs[0])
        for spec in specs[1:]:
            expr = expr | build_expr(spec)
        program = compile_expr(expr)
        expected = any(oracle_test(packet, spec) for spec in specs)
        assert evaluate(program, packet).accepted is expected


# ---------------------------------------------------------------------------
# decision table exactness
# ---------------------------------------------------------------------------

eq_conjunctions = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 3)), min_size=1, max_size=3
)


def conjunctions(filter_specs):
    programs = []
    for spec in filter_specs:
        expr = None
        for index, value in spec:
            test = word(index) == value
            expr = test if expr is None else expr & test
        programs.append(compile_expr(expr))
    return programs


class TestDecisionTableProperties:
    @given(
        st.lists(eq_conjunctions, min_size=1, max_size=8),
        st.lists(st.integers(0, 4), min_size=7, max_size=7),
    )
    @settings(max_examples=150)
    def test_table_equals_linear_scan(self, filter_specs, packet_words):
        programs = conjunctions(filter_specs)
        table = build_dispatch_tree(
            [
                SetEntry(i, program, validate(program), copy_all=False)
                for i, program in enumerate(programs)
            ],
            ShortCircuitMode.PUSH_RESULT,
        )
        packet = pack_words(packet_words)

        naive = [
            i for i, program in enumerate(programs)
            if evaluate(program, packet).accepted
        ]
        offered = [entry.key for entry in table.lookup(packet)]
        via_table = [
            i for i in offered if evaluate(programs[i], packet).accepted
        ]
        assert naive == via_table
        assert offered == sorted(offered)

    @given(valid_programs(), packets, st.sampled_from(ShortCircuitMode))
    @settings(max_examples=300)
    def test_necessary_equalities_are_necessary(self, program, packet, mode):
        """Whatever the analysis reports, an accepted packet passes."""
        try:
            report = validate(program, mode=mode)
        except ValidationError:
            return  # only meaningful for programs valid in that mode
        if evaluate(program, packet, mode=mode).accepted:
            for test in necessary_equalities(program, report, mode):
                assert test.matches(packet), test

    @given(
        st.lists(eq_conjunctions, min_size=1, max_size=8),
        st.lists(
            st.lists(st.integers(0, 4), min_size=7, max_size=7),
            min_size=1, max_size=6,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_no_push_sets_dispatch_and_agree(self, filter_specs, word_lists):
        """The lowering knows the mode, so a ``NO_PUSH`` set gets the
        same decision table a ``PUSH_RESULT`` one does."""
        demuxes = {}
        for engine in (Engine.CHECKED, Engine.IR):
            demux = demuxes[engine] = PacketFilterDemux(
                engine=engine, mode=ShortCircuitMode.NO_PUSH
            )
            for index, program in enumerate(conjunctions(filter_specs)):
                port = Port(index, queue_limit=64)
                port.bind_filter(program)
                demux.attach(port)
        for words in word_lists:
            packet = pack_words(words)
            assert (
                demuxes[Engine.IR].deliver(packet).accepted_by
                == demuxes[Engine.CHECKED].deliver(packet).accepted_by
            )
        tested = [index for spec in filter_specs for index in {i for i, _ in spec}]
        if len(tested) > len(set(tested)):  # two filters test one word
            assert demuxes[Engine.IR].ir_stats.dispatch_depth >= 1
