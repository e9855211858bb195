"""The figure 3-6 interpreter as two instruction loops: a reference model.

This is the interpreter's earlier form, kept verbatim as a test-only
oracle: a checked loop that decodes each ``Instruction`` as it goes,
dispatching through enum-keyed tables, and an unchecked loop for
programs that ``validate`` clears.  ``repro.core.interpreter`` now runs
one decoded plan per program instead;
``tests/core/test_interpreter_oracle.py`` holds it to these loops'
``(accepted, fault, instructions_executed, short_circuited)`` and, through
``stacks``, to their stack before and after every step.
"""

from __future__ import annotations

from repro.core.instructions import (
    CLASSIC_OPERATORS,
    CONSTANT_ACTIONS,
    EXTENDED_ACTIONS,
    FALSE,
    PUSHWORD_BASE,
    TRUE,
    BinaryOp,
    StackAction,
)
from repro.core.interpreter import (
    FaultCode,
    FilterResult,
    LanguageLevel,
    ShortCircuitMode,
)
from repro.core.program import FilterProgram
from repro.core.words import get_byte, get_word

# The members both loops load per instruction, bound once: on Python
# 3.11 every ``Enum.X`` load runs the enum metaclass's ``__getattr__``
# hook, which costs more than the comparison it feeds.
_NOPUSH = StackAction.NOPUSH
_PUSHLIT = StackAction.PUSHLIT
_PUSHIND = StackAction.PUSHIND
_NOP = BinaryOp.NOP
_DIV = BinaryOp.DIV
_EXTENDED = LanguageLevel.EXTENDED
_PUSH_RESULT = ShortCircuitMode.PUSH_RESULT

# Short-circuit behaviour table: operator -> (terminate_when_R, value_returned).
_SHORT_CIRCUIT = {
    BinaryOp.COR: (True, True),
    BinaryOp.CAND: (False, False),
    BinaryOp.CNOR: (True, False),
    BinaryOp.CNAND: (False, True),
}

_COMPARISONS = {
    BinaryOp.EQ: lambda t2, t1: t2 == t1,
    BinaryOp.NEQ: lambda t2, t1: t2 != t1,
    BinaryOp.LT: lambda t2, t1: t2 < t1,
    BinaryOp.LE: lambda t2, t1: t2 <= t1,
    BinaryOp.GT: lambda t2, t1: t2 > t1,
    BinaryOp.GE: lambda t2, t1: t2 >= t1,
}

_BITWISE = {
    BinaryOp.AND: lambda t2, t1: t2 & t1,
    BinaryOp.OR: lambda t2, t1: t2 | t1,
    BinaryOp.XOR: lambda t2, t1: t2 ^ t1,
}

_ARITHMETIC = {
    BinaryOp.ADD: lambda t2, t1: (t2 + t1) & 0xFFFF,
    BinaryOp.SUB: lambda t2, t1: (t2 - t1) & 0xFFFF,
    BinaryOp.MUL: lambda t2, t1: (t2 * t1) & 0xFFFF,
    BinaryOp.LSH: lambda t2, t1: (t2 << min(t1, 16)) & 0xFFFF,
    BinaryOp.RSH: lambda t2, t1: t2 >> min(t1, 16),
}


def _evaluate_checked(
    program: FilterProgram,
    packet: bytes,
    mode: ShortCircuitMode,
    level: LanguageLevel,
    max_stack: int,
    stacks: list | None = None,
) -> FilterResult:
    """Figure 3-6 with every check.  ``stacks`` is the tracer's: when a
    list, it receives the live stack, then a snapshot of it before each
    instruction — so one run records every step."""
    stack: list[int] = []
    if stacks is not None:
        stacks.append(stack)
    executed = 0
    for ins in program.instructions:
        if stacks is not None:
            stacks.append(tuple(stack))
        executed += 1
        action = ins.action_code

        # --- stack action ---
        if action == _NOPUSH:
            pass
        elif action == _PUSHLIT:
            if len(stack) >= max_stack:
                return _fault(FaultCode.STACK_OVERFLOW, executed)
            stack.append(ins.literal)  # type: ignore[arg-type]
        elif action in CONSTANT_ACTIONS:
            if len(stack) >= max_stack:
                return _fault(FaultCode.STACK_OVERFLOW, executed)
            stack.append(CONSTANT_ACTIONS[action])
        elif action in EXTENDED_ACTIONS:
            if level is not _EXTENDED:
                return _fault(FaultCode.BAD_INSTRUCTION, executed)
            if not stack:
                return _fault(FaultCode.STACK_UNDERFLOW, executed)
            index = stack.pop()
            try:
                if action == _PUSHIND:
                    stack.append(get_word(packet, index))
                else:
                    stack.append(get_byte(packet, index))
            except IndexError:
                return _fault(FaultCode.PACKET_BOUNDS, executed)
        else:  # PUSHWORD+n
            if len(stack) >= max_stack:
                return _fault(FaultCode.STACK_OVERFLOW, executed)
            try:
                stack.append(get_word(packet, action - PUSHWORD_BASE))
            except IndexError:
                return _fault(FaultCode.PACKET_BOUNDS, executed)

        # --- binary operator ---
        op = ins.operator
        if op == _NOP:
            continue
        if level is not _EXTENDED and op not in CLASSIC_OPERATORS:
            return _fault(FaultCode.BAD_INSTRUCTION, executed)
        if len(stack) < 2:
            return _fault(FaultCode.STACK_UNDERFLOW, executed)
        t1 = stack.pop()
        t2 = stack.pop()

        if op in _SHORT_CIRCUIT:
            result = t1 == t2
            terminate_when, returns = _SHORT_CIRCUIT[op]
            if result == terminate_when:
                return FilterResult(
                    accepted=returns,
                    instructions_executed=executed,
                    short_circuited=True,
                )
            if mode is _PUSH_RESULT:
                stack.append(TRUE if result else FALSE)
        elif op in _COMPARISONS:
            stack.append(TRUE if _COMPARISONS[op](t2, t1) else FALSE)
        elif op in _BITWISE:
            stack.append(_BITWISE[op](t2, t1))
        elif op == _DIV:
            if t1 == 0:
                return _fault(FaultCode.DIVIDE_BY_ZERO, executed)
            stack.append(t2 // t1)
        else:  # remaining extension arithmetic
            stack.append(_ARITHMETIC[op](t2, t1))

    if not stack:
        return _fault(FaultCode.EMPTY_STACK, executed)
    return FilterResult(accepted=stack[-1] != 0, instructions_executed=executed)


def _evaluate_unchecked(
    program: FilterProgram,
    packet: bytes,
    mode: ShortCircuitMode,
) -> FilterResult:
    """Fast path: no stack/opcode checks (they were proven unnecessary
    at bind time); packet-bounds faults are still caught and reject."""
    stack: list[int] = []
    executed = 0
    push_on_continue = mode is _PUSH_RESULT
    try:
        for ins in program.instructions:
            executed += 1
            action = ins.action_code

            if action >= 16:  # PUSHWORD+n — the common case, tested first
                stack.append(get_word(packet, action - 16))
            elif action == _NOPUSH:
                pass
            elif action == _PUSHLIT:
                stack.append(ins.literal)  # type: ignore[arg-type]
            elif action in EXTENDED_ACTIONS:
                index = stack.pop()
                if action == _PUSHIND:
                    stack.append(get_word(packet, index))
                else:
                    stack.append(get_byte(packet, index))
            else:
                stack.append(CONSTANT_ACTIONS[action])

            op = ins.operator
            if op == _NOP:
                continue
            t1 = stack.pop()
            t2 = stack.pop()
            if op in _SHORT_CIRCUIT:
                result = t1 == t2
                terminate_when, returns = _SHORT_CIRCUIT[op]
                if result == terminate_when:
                    return FilterResult(
                        accepted=returns,
                        instructions_executed=executed,
                        short_circuited=True,
                    )
                if push_on_continue:
                    stack.append(TRUE if result else FALSE)
            elif op in _COMPARISONS:
                stack.append(TRUE if _COMPARISONS[op](t2, t1) else FALSE)
            elif op in _BITWISE:
                stack.append(_BITWISE[op](t2, t1))
            elif op == _DIV:
                if t1 == 0:
                    return _fault(FaultCode.DIVIDE_BY_ZERO, executed)
                stack.append(t2 // t1)
            else:
                stack.append(_ARITHMETIC[op](t2, t1))
    except IndexError:
        return _fault(FaultCode.PACKET_BOUNDS, executed)

    if not stack:
        return _fault(FaultCode.EMPTY_STACK, executed)
    return FilterResult(accepted=stack[-1] != 0, instructions_executed=executed)


def _fault(code: FaultCode, executed: int) -> FilterResult:
    return FilterResult(accepted=False, fault=code, instructions_executed=executed)
