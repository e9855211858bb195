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

Each program is decoded once, on its first evaluation, into a *plan*
(:attr:`FilterProgram.plan <repro.core.program.FilterProgram.plan>`): one
``(kind, argument, operator, position)`` tuple of plain ints per
instruction, a ``PUSHWORD+n`` carrying its byte offset and a constant or
``PUSHLIT`` its value.  :func:`run_plan` is the one loop over it; the
checked and unchecked paths, the demultiplexer's linear engines and the
step tracer all run it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .instructions import (
    CLASSIC_OPERATORS,
    CONSTANT_ACTIONS,
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


# Plan step kinds: what an instruction's stack action does.
NOPUSH, CONST, WORD, IND, BYTEIND = range(5)

# Operator and fault codes as the loop reads them, bound once: on Python
# 3.11 every ``Enum.X`` load runs the enum metaclass's ``__getattr__``.
# The operators are unpacked in the order BinaryOp defines them; NOP is 0.
(_EQ, _NEQ, _LT, _LE, _GT, _GE, _AND, _OR, _XOR, _COR, _CAND, _CNOR, _CNAND,
 _ADD, _SUB, _MUL, _DIV, _LSH, _RSH) = map(int, list(BinaryOp)[1:])
_LAST_CLASSIC = max(CLASSIC_OPERATORS)
_NONE = FaultCode.NONE
_OVERFLOW = FaultCode.STACK_OVERFLOW
_UNDERFLOW = FaultCode.STACK_UNDERFLOW
_BAD = FaultCode.BAD_INSTRUCTION
_BOUNDS = FaultCode.PACKET_BOUNDS
_PUSH_RESULT = ShortCircuitMode.PUSH_RESULT
_EXTENDED = LanguageLevel.EXTENDED

# Short-circuit operator -> (terminate when R is, value returned).
_SHORT_CIRCUIT = {
    _COR: (True, True),
    _CAND: (False, False),
    _CNOR: (True, False),
    _CNAND: (False, True),
}


def decode_plan(program: FilterProgram) -> tuple:
    """The plan of ``program``: ``(kind, argument, operator, position)``
    per instruction, all plain ints.  ``argument`` is a ``WORD``'s byte
    offset or a ``CONST``'s value (0 for the other kinds), ``operator``
    the :class:`BinaryOp` code and ``position`` the instruction's
    1-based index, so the loop counts executed instructions for free."""
    plan = []
    for position, ins in enumerate(program.instructions, 1):
        action = ins.action_code
        if action >= PUSHWORD_BASE:
            kind, argument = WORD, 2 * (action - PUSHWORD_BASE)
        elif action == StackAction.PUSHLIT:
            kind, argument = CONST, ins.literal
        elif action in CONSTANT_ACTIONS:
            kind, argument = CONST, CONSTANT_ACTIONS[action]
        elif action == StackAction.PUSHIND:
            kind, argument = IND, 0
        elif action == StackAction.PUSHBYTEIND:
            kind, argument = BYTEIND, 0
        else:
            kind, argument = NOPUSH, 0
        plan.append((kind, argument, int(ins.operator), position))
    return tuple(plan)


def run_plan(
    plan: tuple,
    packet: bytes,
    push_result: bool,
    extended: bool,
    checked: bool,
    stacks: list | None = None,
) -> tuple:
    """Figure 3-6 over a decoded plan.  Returns ``(accepted, fault,
    executed, short_circuited)``.

    ``checked`` makes every structural check, in figure 3-6's order: an
    action's overflow past :data:`DEFAULT_STACK_DEPTH` (an indirect
    push's level, then its index), then its operator's level, then its
    two operands.  Unchecked, those are skipped: it is for programs
    :func:`~repro.core.validator.validate` cleared at this level and
    mode, which cannot fail them.  Packet bounds and division by zero
    are checked where they arise either way.

    ``t1`` holds the word an instruction's action pushes, and is pushed
    only when its operator does not consume it at once, so each
    instruction leaves the stack figure 3-6 leaves.  ``stacks`` is the
    tracer's: when a list, it receives the live stack, then a snapshot
    of it before each instruction — so one run records every step."""
    stack: list[int] = []
    if stacks is not None:
        stacks.append(stack)
    size = len(packet)
    executed = 0
    for kind, arg, op, executed in plan:
        if stacks is not None:
            stacks.append(tuple(stack))

        # --- stack action ---
        if kind == WORD:
            if checked and len(stack) >= DEFAULT_STACK_DEPTH:
                return False, _OVERFLOW, executed, False
            if arg + 1 < size:
                t1 = packet[arg] << 8 | packet[arg + 1]
            elif arg < size:  # an odd tail byte is a zero-padded word
                t1 = packet[arg] << 8
            else:
                return False, _BOUNDS, executed, False
        elif kind == CONST:
            if checked and len(stack) >= DEFAULT_STACK_DEPTH:
                return False, _OVERFLOW, executed, False
            t1 = arg
        elif kind == NOPUSH:
            if not op:
                continue
            if checked and not stack:
                return False, _operand_fault(op, extended), executed, False
            t1 = stack.pop()
        else:  # PUSHIND / PUSHBYTEIND: pop an index, push what it names
            if checked and not extended:
                return False, _BAD, executed, False
            if checked and not stack:
                return False, _UNDERFLOW, executed, False
            index = stack.pop()
            try:
                t1 = (get_word if kind == IND else get_byte)(packet, index)
            except IndexError:
                return False, _BOUNDS, executed, False

        # --- binary operator ---
        if not op:
            stack.append(t1)
            continue
        if checked and (not stack or op > _LAST_CLASSIC and not extended):
            stack.append(t1)
            return False, _operand_fault(op, extended), executed, False
        t2 = stack.pop()
        if op == _EQ:
            t1 = TRUE if t2 == t1 else FALSE
        elif _COR <= op <= _CNAND:
            terminate_when, returns = _SHORT_CIRCUIT[op]
            if (t1 == t2) is terminate_when:
                return returns, _NONE, executed, True
            if not push_result:
                continue
            t1 = FALSE if terminate_when else TRUE
        elif op == _AND:
            t1 = t2 & t1
        elif op == _OR:
            t1 = t2 | t1
        elif op == _XOR:
            t1 = t2 ^ t1
        elif op == _NEQ:
            t1 = TRUE if t2 != t1 else FALSE
        elif op == _LT:
            t1 = TRUE if t2 < t1 else FALSE
        elif op == _LE:
            t1 = TRUE if t2 <= t1 else FALSE
        elif op == _GT:
            t1 = TRUE if t2 > t1 else FALSE
        elif op == _GE:
            t1 = TRUE if t2 >= t1 else FALSE
        elif op == _DIV:
            if not t1:
                return False, FaultCode.DIVIDE_BY_ZERO, executed, False
            t1 = t2 // t1
        elif op == _ADD:
            t1 = (t2 + t1) & 0xFFFF
        elif op == _SUB:
            t1 = (t2 - t1) & 0xFFFF
        elif op == _MUL:
            t1 = (t2 * t1) & 0xFFFF
        elif op == _LSH:
            t1 = (t2 << min(t1, 16)) & 0xFFFF
        else:  # RSH
            t1 = t2 >> min(t1, 16)
        stack.append(t1)

    if not stack:
        return False, FaultCode.EMPTY_STACK, executed, False
    return stack[-1] != 0, _NONE, executed, False


def _operand_fault(op: int, extended: bool) -> FaultCode:
    """An operator that cannot run: outside the level, else short of
    operands — the level is checked first."""
    return _BAD if op > _LAST_CLASSIC and not extended else _UNDERFLOW


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
    section 7 fast path: it runs only a program
    :func:`repro.core.validator.validate` clears at ``level`` and
    ``mode`` (once per program and pair), and raises its
    :class:`~repro.core.validator.ValidationError` otherwise, so the
    only faults left are the packet-bounds and divide-by-zero ones.
    """
    push_result = mode is _PUSH_RESULT
    extended = level is _EXTENDED
    if not checked and (extended, push_result) not in program._cleared:
        # The validator imports this module's enums.
        from .validator import validate

        validate(program, level=level, mode=mode)
        program._cleared.add((extended, push_result))
    return FilterResult(
        *run_plan(program.plan, packet, push_result, extended, checked)
    )
