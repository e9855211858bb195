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
  describes (checked against a python-level oracle);
* untrusted filter words either fail ``decode``/``validate`` with a
  typed error or bind a program every engine, cached or not, runs
  exactly as the checked interpreter does, on empty, odd and short
  packets alike.
"""

import ast
import re

from hypothesis import given, settings, strategies as st

from repro.core.compiler import compile_expr, word
from repro.core.demux import Engine, PacketFilterDemux
from repro.core.instructions import (
    ACTION_FIELD_BITS,
    BinaryOp,
    CLASSIC_OPERATORS,
    EncodingError,
    Instruction,
    StackAction,
    decode_instruction_word,
    encode_instruction_word,
    pushword,
)
from repro.core.irgen import compile_ir_set
from repro.core.interpreter import (
    FaultCode,
    LanguageLevel,
    ShortCircuitMode,
    evaluate,
)
from repro.core.jit import compile_filter
from repro.core.opt import SetEntry, build_dispatch_tree, necessary_equalities
from repro.core.port import Port
from repro.core.program import FilterProgram
from repro.core.validator import ValidationError, validate
from repro.core.words import get_word, pack_words

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


@st.composite
def untrusted_filter_words(draw):
    """A filter as a user hands it to ``SETFILTER``: raw 16-bit words.

    The body is either a run of words or a valid program's encoding with
    one or two words replaced.  Most words are drawn field by field, so
    that many lists get past ``decode``: a defined action or any 6-bit
    one (reserved codes included), under a defined operator or any code
    up to 31 (holes included).  The rest are arbitrary words, and the
    length and priority fields are sometimes out of bounds.
    """
    def rarely(common, rare):
        return st.integers(0, 15).flatmap(lambda n: rare if n == 0 else common)

    action = rarely(
        st.sampled_from([*StackAction, *(pushword(n) for n in range(12))]),
        st.integers(0, (1 << ACTION_FIELD_BITS) - 1),
    )
    operator = rarely(st.sampled_from(BinaryOp), st.integers(0, 31))
    field_word = st.builds(
        lambda a, o: (int(o) << ACTION_FIELD_BITS) | int(a), action, operator
    )
    if draw(st.booleans()):
        body = draw(st.lists(rarely(field_word, u16), max_size=8))
    else:  # a valid program's encoding with a word or two replaced
        body = list(draw(valid_programs()).encode())[2:]
        for _ in range(draw(st.integers(1, 2))):
            body[draw(st.integers(0, len(body) - 1))] = draw(
                rarely(field_word, u16)
            )
    length = draw(rarely(st.just(len(body)), u16))
    priority = draw(rarely(st.integers(0, 255), u16))
    return [priority, length, *body]


# Empty, one odd byte, odd and even short packets, one past figure 3-9's
# reach: what the boundary must survive on every engine.
edge_packets = st.lists(
    st.one_of(st.binary(max_size=19), st.sampled_from([b"", b"\x01"])),
    min_size=1,
    max_size=4,
)

INDIRECT = (StackAction.PUSHIND, StackAction.PUSHBYTEIND)


@st.composite
def extended_programs(draw, max_length=8, indirect=False):
    """Stack-safe ``EXTENDED`` programs: every operator, the arithmetic
    ones (``DIV`` included) among them, and indirect pushes whose index
    is whatever the stack holds — a packet word, a literal, or
    arithmetic over them.  ``indirect`` also splices in, anywhere, a
    packet word used as an indirect index and folded into the value
    below it."""
    body, depths, depth = [], [], 0
    for _ in range(draw(st.integers(1, max_length))):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            action = int(draw(plain_actions))
        elif kind == 1:
            action = pushword(draw(st.integers(0, 12)))
        elif kind == 2 and depth >= 1:
            action = int(draw(st.sampled_from(INDIRECT)))
        else:
            action = int(StackAction.NOPUSH)
        literal = draw(u16) if action == StackAction.PUSHLIT else None
        ins = Instruction(action, draw(st.sampled_from(BinaryOp)), literal)
        if ins.pops and depth + ins.pushes < 2:
            ins = Instruction(action, BinaryOp.NOP, literal)
        depths.append(depth)
        depth += ins.pushes - ins.pops
        body.append(ins)
    depths.append(depth)
    if indirect:
        at = draw(st.integers(0, len(body)))
        fold = draw(st.sampled_from(BinaryOp)) if depths[at] else BinaryOp.NOP
        body[at:at] = [
            Instruction(pushword(draw(st.integers(0, 12)))),
            Instruction(draw(st.sampled_from(INDIRECT)), fold),
        ]
        depth += 0 if depths[at] else 1
    if depth < 1:
        body.append(Instruction(StackAction.PUSHONE))
    return FilterProgram(body, priority=draw(st.integers(0, 255)))


@st.composite
def past_the_end_packets(draw):
    """Packets whose words, read as an indirect index (of a word or of a
    byte), land on the last field, just past the end, or far beyond."""
    packets = []
    for size in draw(st.lists(st.integers(0, 24), min_size=1, max_size=3)):
        near = [0, 1, size // 2 - 1, size // 2, size // 2 + 1, size - 1,
                size, size + 1, 0xFFFF]
        values = st.sampled_from([value & 0xFFFF for value in near])
        words = draw(st.lists(values, min_size=(size + 1) // 2,
                              max_size=(size + 1) // 2))
        packets.append(pack_words(words)[:size])
    return packets


def engine_outcomes(program, level, mode, packets) -> dict:
    """What every engine, with and without the flow cache, accepts of
    ``packets`` — each delivered twice, so that a cached engine's second
    delivery is a flow-cache hit."""
    outcomes = {}
    for engine in Engine:
        for cache in (False, True):
            demux = PacketFilterDemux(
                engine=engine, mode=mode, level=level, flow_cache=cache
            )
            port = Port(0, queue_limit=64)
            port.bind_filter(program)
            demux.attach(port)
            outcomes[engine, cache] = [
                demux.deliver(packet).accepted_by
                for packet in packets
                for _ in range(2)
            ]
    return outcomes


def assert_engines_agree(program, level, mode, packets) -> None:
    outcomes = engine_outcomes(program, level, mode, packets)
    reference = outcomes[Engine.CHECKED, False]
    for key, accepted in outcomes.items():
        assert accepted == reference, key


#: Every name the COMPILED and IR code generators may emit.  The
#: numbered ones (``t3``, ``t0_2``, ``_a1``, ``_h7``, ``_r0``) count
#: filters in a set and values in a filter, so their numbers stay below
#: a bound set by the programs' lengths.
EMITTED_NAMES = frozenset({
    "packet", "len", "min", "get", "IndexError", "ZeroDivisionError",
    "_filter", "_get_byte", "_get_word", "_", "_ONE", "_factory",
    "_chain", "_n", "_dsp", "_map", "_fallback", "_w", "_c",
})
NUMBERED_NAME = re.compile(r"(?:t|_a|_h|_r)(\d+)(?:_(\d+))?")


def emitted_identifiers(source: str) -> set:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


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
            spec[0] >= (len(packet) + 1) // 2 for spec in specs
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
        if any(spec[0] >= (len(packet) + 1) // 2 for spec in specs):
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


class TestUntrustedWords:
    @given(
        untrusted_filter_words(),
        st.sampled_from(LanguageLevel),
        st.sampled_from(ShortCircuitMode),
        edge_packets,
    )
    @settings(max_examples=150, deadline=None)
    def test_typed_error_or_engines_agree(self, words, level, mode, packets):
        """The bind-time boundary: ``decode`` then ``validate`` refuse
        a word list with a typed error, or every engine with and without
        the flow cache accepts exactly what ``CHECKED`` accepts."""
        try:
            program = FilterProgram.decode(words)
            validate(program, level=level, mode=mode)
        except (EncodingError, ValidationError):
            return
        assert_engines_agree(program, level, mode, packets)

    @given(
        extended_programs(indirect=True),
        st.sampled_from(ShortCircuitMode),
        past_the_end_packets(),
    )
    @settings(max_examples=60, deadline=None)
    def test_indirect_loads_past_the_end(self, program, mode, packets):
        """An indirect push indexed off the end faults the packet out on
        every engine alike, wherever in the program it sits."""
        try:
            validate(program, level=LanguageLevel.EXTENDED, mode=mode)
        except ValidationError:
            return
        assert_engines_agree(program, LanguageLevel.EXTENDED, mode, packets)

    @given(
        extended_programs(max_length=5),
        st.sampled_from(ShortCircuitMode),
        edge_packets,
    )
    @settings(max_examples=25, deadline=None)
    def test_divide_by_zero_at_every_position(self, program, mode, packets):
        """A zero divisor inserted before each instruction in turn (and
        after the last): the fault rejects, or a short circuit ahead of
        it decides, identically on every engine — no engine evaluates a
        division early that ``CHECKED`` would not reach."""
        divide = Instruction(StackAction.PUSHZERO, BinaryOp.DIV)
        body = list(program.instructions)
        for at in range(len(body) + 1):
            faulty = FilterProgram(
                [*body[:at], divide, *body[at:]], priority=program.priority
            )
            try:
                validate(faulty, level=LanguageLevel.EXTENDED, mode=mode)
            except ValidationError:
                continue   # nothing on the stack to divide there
            assert_engines_agree(faulty, LanguageLevel.EXTENDED, mode, packets)

    @given(
        st.lists(st.one_of(valid_programs(), extended_programs()),
                 min_size=1, max_size=2),
        st.sampled_from(ShortCircuitMode),
    )
    @settings(max_examples=40, deadline=None)
    def test_emitted_identifiers_do_not_derive_from_content(
        self, programs, mode
    ):
        """The source ``COMPILED`` and ``IR`` generate names nothing
        after program content: every identifier is one of a fixed set,
        or a counter of filters and values below the programs' length —
        never a literal, an offset or a priority."""
        level = LanguageLevel.EXTENDED
        entries, sources = [], []
        for key, program in enumerate(programs):
            try:
                report = validate(program, level=level, mode=mode)
            except ValidationError:
                return
            entries.append(SetEntry(key, program, report, False))
            sources.append(compile_filter(program, mode=mode, level=level).source)
        sources.append(compile_ir_set(entries, mode=mode).source)
        bound = 4 * sum(len(program.instructions) for program in programs) + 4
        for source in sources:
            for name in emitted_identifiers(source) - EMITTED_NAMES:
                numbered = NUMBERED_NAME.fullmatch(name)
                assert numbered is not None, name
                counters = [int(n) for n in numbered.groups() if n is not None]
                assert max(counters) < bound, name
