"""The plan interpreter against its earlier two loops, word list by word list.

``repro.core.interpreter`` decodes each program once into a plan and
runs one loop over it; ``reference_interpreter`` keeps the two loops it
replaced.  Filters arrive as raw ``SETFILTER`` words, the way
``test_properties.TestUntrustedWords`` draws them, as runs of more
pushes than the stack holds, or as the encodings of valid classic and
extended programs; every program that decodes is run at
both language levels and in both short-circuit modes on empty, odd,
short and long packets.  The property:

* checked evaluation returns the model's ``(accepted, fault,
  instructions_executed, short_circuited)`` for every program;
* ``trace_evaluation`` records the model's stack before and after
  each step, and its verdict;
* unchecked evaluation matches the model's unchecked loop on each
  program ``validate`` clears, and raises ``ValidationError`` on the rest.

``tests/difftest/test_interpreter_oracle_sweep.py`` runs the same
property with ten times the examples under ``-m difftest``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.instructions import (
    ACTION_FIELD_BITS,
    BinaryOp,
    EncodingError,
    Instruction,
    StackAction,
    pushword,
)
from repro.core.interpreter import (
    DEFAULT_STACK_DEPTH,
    FaultCode,
    LanguageLevel,
    ShortCircuitMode,
    evaluate,
)
from repro.core.program import FilterProgram
from repro.core.trace import trace_evaluation
from repro.core.validator import ValidationError, validate

from . import reference_interpreter as model
from .test_properties import (
    extended_programs,
    untrusted_filter_words,
    valid_programs,
)

TIER1_EXAMPLES = 100


@st.composite
def overflowing_words(draw):
    """A run of pushes around :data:`DEFAULT_STACK_DEPTH` long, one of
    them perhaps carrying an operator, then a few arbitrary words."""
    push = st.sampled_from(
        [StackAction.PUSHONE, StackAction.PUSHFFFF, pushword(0), pushword(3)]
    )
    count = draw(st.integers(DEFAULT_STACK_DEPTH - 2, DEFAULT_STACK_DEPTH + 4))
    body = [int(draw(push)) for _ in range(count)]
    if draw(st.booleans()):
        body[draw(st.integers(0, count - 1))] |= (
            int(draw(st.sampled_from(BinaryOp))) << ACTION_FIELD_BITS
        )
    body += draw(st.lists(st.integers(0, 0xFFFF), max_size=3))
    return [0, len(body), *body]


def encoded(programs):
    return programs.map(lambda program: list(program.encode()))


filter_words = st.one_of(
    untrusted_filter_words(),
    overflowing_words(),
    encoded(valid_programs()),
    encoded(extended_programs(indirect=True)),
)

# Empty, one odd byte, short odd and even packets, and packets longer
# than any PUSHWORD reaches; all-zero words meet PUSHZERO, so they take
# short circuits and zero divisors too.
packets = st.lists(
    st.one_of(
        st.sampled_from([b"", b"\x01", bytes(2 * 48 + 1)]),
        st.binary(max_size=19),
        st.binary(min_size=2 * 48, max_size=2 * 48 + 9),
    ),
    min_size=1,
    max_size=3,
)


def agrees_with_model(words, packets) -> None:
    try:
        program = FilterProgram.decode(words)
    except EncodingError:
        return
    for level in LanguageLevel:
        for mode in ShortCircuitMode:
            try:
                validate(program, level=level, mode=mode)
                cleared = True
            except ValidationError:
                cleared = False
            for packet in packets:
                stacks = []
                expected = model._evaluate_checked(
                    program, packet, mode, level, DEFAULT_STACK_DEPTH, stacks
                )
                assert evaluate(program, packet, mode=mode, level=level) == expected

                trace = trace_evaluation(program, packet, mode=mode, level=level)
                live, *befores = stacks
                afters = [*befores[1:], tuple(live)]
                assert trace.result == expected
                assert [
                    (step.stack_before, step.stack_after) for step in trace.steps
                ] == list(zip(befores, afters))

                if cleared:
                    assert evaluate(
                        program, packet, mode=mode, level=level, checked=False
                    ) == model._evaluate_unchecked(program, packet, mode)
                else:
                    with pytest.raises(ValidationError):
                        evaluate(
                            program, packet, mode=mode, level=level, checked=False
                        )


@given(filter_words, packets)
@settings(max_examples=TIER1_EXAMPLES, deadline=None)
def test_plan_interpreter_matches_the_two_loops(words, packets):
    agrees_with_model(words, packets)


EDGE_WORDS = (0, 1, 2, 15, 16, 17, 0x00FF, 0x7FFF, 0x8000, 0xFFFF)


@pytest.mark.parametrize("mode", ShortCircuitMode)
@pytest.mark.parametrize("op", BinaryOp)
def test_every_operator_on_edge_operands(op, mode):
    """Shift counts past 15, a zero divisor, wrap-around and sign-bit
    words, checked and unchecked: what random programs seldom put side
    by side."""
    level = LanguageLevel.EXTENDED
    for t2 in EDGE_WORDS:
        for t1 in EDGE_WORDS:
            program = FilterProgram([
                Instruction(StackAction.PUSHLIT, literal=t2),
                Instruction(StackAction.PUSHLIT, op, t1),
            ])
            assert evaluate(program, b"", mode=mode, level=level) == (
                model._evaluate_checked(
                    program, b"", mode, level, DEFAULT_STACK_DEPTH
                )
            )
            try:
                validate(program, level=level, mode=mode)
            except ValidationError:
                continue  # a short circuit that leaves nothing (NO_PUSH)
            assert evaluate(
                program, b"", mode=mode, level=level, checked=False
            ) == model._evaluate_unchecked(program, b"", mode)


@pytest.mark.parametrize(
    "push", [StackAction.PUSHONE, pushword(0)], ids=["const", "word"]
)
def test_overflow_faults_at_the_push_past_the_last_slot(push):
    program = FilterProgram([Instruction(push)] * (DEFAULT_STACK_DEPTH + 1))
    result = evaluate(program, b"\x01\x02")
    assert (result.fault, result.instructions_executed) == (
        FaultCode.STACK_OVERFLOW, DEFAULT_STACK_DEPTH + 1,
    )
    assert result == model._evaluate_checked(
        program, b"\x01\x02", ShortCircuitMode.PUSH_RESULT,
        LanguageLevel.CLASSIC, DEFAULT_STACK_DEPTH,
    )
