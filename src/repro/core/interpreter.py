"""The filter interpreter — section 3.1 / figure 3-6, faithfully.

"The heart of the packet filter is an interpreter ... It simply iterates
through the 'instruction words' of a filter (there are no branch
instructions), evaluating the filter predicate using a small stack.  When
it reaches the end of the filter, or a short-circuit conditional is
satisfied, or an error is detected, it returns the predicate value."

Semantics implemented here:

* Each instruction runs its stack action first, then its binary operator.
* Comparisons compare ``T2 <op> T1`` (T1 = top of stack) and push 1 or 0.
* Logical AND/OR/XOR are bitwise; any nonzero word is "true", which is
  consistent with the acceptance rule below.
* The four short-circuit operators evaluate ``R := (T1 == T2)``, and:

  =======  ======================  =============
  op       returns immediately...  ...if R is
  =======  ======================  =============
  COR      TRUE                    TRUE
  CAND     FALSE                   FALSE
  CNOR     FALSE                   TRUE
  CNAND    TRUE                    FALSE
  =======  ======================  =============

  Otherwise the paper says they "push the result R on the stack" and the
  program continues (:data:`ShortCircuitMode.PUSH_RESULT`, the default).
  The historical BSD/CMU C code continued *without* pushing;
  :data:`ShortCircuitMode.NO_PUSH` reproduces that for comparison.

* At the end of the program the packet is accepted iff the word on top
  of the stack is nonzero; an empty stack rejects.
* Runtime faults — invalid instruction, stack overflow/underflow,
  out-of-packet reference, (extension) division by zero — reject the
  packet.  Section 7 notes all but the bounds checks on indirect pushes
  can be hoisted to bind time; :mod:`repro.core.validator` implements
  that, and ``checked=False`` here is the corresponding fast path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .instructions import (
    CLASSIC_OPERATORS,
    CONSTANT_ACTIONS,
    EXTENDED_ACTIONS,
    FALSE,
    PUSHWORD_BASE,
    TRUE,
    BinaryOp,
    StackAction,
)
from .program import FilterProgram
from .words import get_byte, get_word

__all__ = [
    "ShortCircuitMode",
    "LanguageLevel",
    "FaultCode",
    "FilterResult",
    "evaluate",
    "DEFAULT_STACK_DEPTH",
]

DEFAULT_STACK_DEPTH = 32
"""Evaluation stack slots; generous for real filters (fig 3-8 needs 3)."""


class ShortCircuitMode(enum.Enum):
    """What a non-terminating short-circuit operator leaves on the stack."""

    PUSH_RESULT = "push-result"  #: figure 3-6 as written: push R, continue
    NO_PUSH = "no-push"          #: historical BSD/CMU C code: continue bare


class LanguageLevel(enum.Enum):
    """Which instruction set is permitted."""

    CLASSIC = "classic"    #: exactly figure 3-6
    EXTENDED = "extended"  #: + section 7 indirect pushes and arithmetic


class FaultCode(enum.Enum):
    """Why evaluation rejected a packet abnormally (section 4 checks)."""

    NONE = "none"
    BAD_INSTRUCTION = "bad-instruction"    #: opcode outside the active level
    STACK_OVERFLOW = "stack-overflow"
    STACK_UNDERFLOW = "stack-underflow"
    PACKET_BOUNDS = "packet-bounds"        #: PUSHWORD/PUSHIND past the packet
    EMPTY_STACK = "empty-stack"            #: program ended with nothing on top
    DIVIDE_BY_ZERO = "divide-by-zero"      #: extension DIV with T1 == 0


@dataclass(slots=True)
class FilterResult:
    """Outcome of applying one filter to one packet.

    ``instructions_executed`` counts instruction words actually evaluated
    (literal words excluded) — the quantity the cost model charges for,
    and what table 6-10 and the figure 3-9 discussion are about.
    """

    accepted: bool
    fault: FaultCode = FaultCode.NONE
    instructions_executed: int = 0
    short_circuited: bool = False

    def __bool__(self) -> bool:
        return self.accepted


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


def evaluate(
    program: FilterProgram,
    packet: bytes,
    *,
    mode: ShortCircuitMode = ShortCircuitMode.PUSH_RESULT,
    level: LanguageLevel = LanguageLevel.CLASSIC,
    checked: bool = True,
) -> FilterResult:
    """Apply ``program`` to ``packet`` and decide acceptance.

    ``checked=True`` performs every per-instruction validity check the
    original interpreter performed (section 4).  ``checked=False`` is the
    section 7 fast path for programs already cleared by
    :func:`repro.core.validator.validate`: stack and opcode checks are
    skipped, and only the unavoidable packet-bounds checks remain.
    """
    if checked:
        return _evaluate_checked(program, packet, mode, level, DEFAULT_STACK_DEPTH)
    return _evaluate_unchecked(program, packet, mode)


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
