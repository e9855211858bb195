"""Necessary-equality analysis: the basis of decision-table dispatch.

The last section 7 improvement: "with a redesigned filter language it
might be possible to compile the set of active filters into a decision
table, which should provide the best possible performance."

The key observation is that most real filters are conjunctions that
include an equality test on a shared discriminating field (the Ethernet
type word, a Pup socket).  If a filter *necessarily* requires
``word[n] & mask == v`` to accept, then a packet whose field differs can
skip that filter entirely — so filters can be bucketed by field value
and found by one hash probe instead of one interpretation each.

Extraction of necessary equality conditions is done by a small symbolic
executor over the (branch-free) program.  The analysis is deliberately
*conservative*: it returns a subset of the true necessary conditions,
and any program it cannot see through simply lands in the always-checked
fallback list.  Programs containing ``COR``/``CNAND`` can return TRUE
early, which would invalidate "the rest of the program is necessary"
reasoning, so they are sent to the fallback list wholesale.

The table itself is :class:`repro.core.opt.DispatchTree`, built by
:func:`repro.core.opt.build_dispatch_tree` from the helpers here
(:func:`choose_discriminant`, :func:`required_value`).  The
demultiplexer walks it per packet under ``use_decision_table=True``;
the IR engine compiles it into nested hash probes.  Either way it is an
exact drop-in for the linear scan: for every packet it yields exactly
the candidate filters whose necessary conditions the packet satisfies,
in the same priority order the figure 4-1 loop would use (a
property-based test in ``tests/core/test_properties.py`` pins this
equivalence down).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .instructions import BinaryOp, StackAction
from .program import FilterProgram
from .words import get_word

__all__ = [
    "NecessaryTest",
    "necessary_equalities",
    "TableEntry",
    "choose_discriminant",
    "required_value",
]


@dataclass(frozen=True)
class NecessaryTest:
    """``packet.word[index] & mask == value`` must hold for acceptance."""

    index: int
    mask: int
    value: int

    @property
    def key(self) -> tuple[int, int]:
        return (self.index, self.mask)

    def matches(self, packet: bytes) -> bool:
        try:
            return (get_word(packet, self.index) & self.mask) == self.value
        except IndexError:
            return False


# --- symbolic domain -------------------------------------------------------


@dataclass(frozen=True)
class _Word:
    index: int
    mask: int = 0xFFFF


@dataclass(frozen=True)
class _Const:
    value: int


@dataclass(frozen=True)
class _Truthy:
    """A value known to be nonzero *only if* all ``tests`` hold.

    This is the abstraction that makes AND-folding sound and precise:
    a bitwise AND is nonzero only when both operands are, so the result
    carries the union of both operands' test sets; an OR is nonzero when
    either is, so it carries the intersection.  A comparison result with
    no recognizable field pattern is simply ``_Truthy(frozenset())``.
    """

    tests: frozenset[NecessaryTest]


class _Opaque:
    """A value the analysis gave up on."""


_OPAQUE = _Opaque()


def _tests_of(value: object) -> frozenset[NecessaryTest] | None:
    """Test set implied by nonzero-ness, or None when nothing is known."""
    if isinstance(value, _Truthy):
        return value.tests
    return None

_CONSTANT_ACTIONS = {
    StackAction.PUSHZERO: 0x0000,
    StackAction.PUSHONE: 0x0001,
    StackAction.PUSHFFFF: 0xFFFF,
    StackAction.PUSHFF00: 0xFF00,
    StackAction.PUSH00FF: 0x00FF,
}

#: Early-TRUE operators poison "everything later is necessary" reasoning.
_EARLY_TRUE_OPS = frozenset({BinaryOp.COR, BinaryOp.CNAND})


def _as_equality(t2: object, t1: object) -> NecessaryTest | None:
    """Recognize ``word&mask == const`` in either operand order."""
    for left, right in ((t2, t1), (t1, t2)):
        if isinstance(left, _Word) and isinstance(right, _Const):
            value = right.value
            if value & ~left.mask:
                # Value has bits outside the mask: can never be equal.
                # Treat as unanalyzable rather than proving emptiness.
                return None
            return NecessaryTest(index=left.index, mask=left.mask, value=value)
    return None


@lru_cache(maxsize=65536)
def necessary_equalities(program: FilterProgram) -> frozenset[NecessaryTest]:
    """Equality conditions provably necessary for ``program`` to accept.

    Sound but incomplete: the result is always a subset of the true
    necessary conditions, possibly empty.  Memoized: programs are
    immutable, and the demultiplexer re-analyzes its whole filter set
    on every bind and reorder.
    """
    if any(ins.operator in _EARLY_TRUE_OPS for ins in program.instructions):
        return frozenset()

    stack: list[object] = []
    necessary: set[NecessaryTest] = set()

    for ins in program.instructions:
        action = ins.action_code
        if action == StackAction.NOPUSH:
            pass
        elif action == StackAction.PUSHLIT:
            stack.append(_Const(ins.literal))  # type: ignore[arg-type]
        elif action in _CONSTANT_ACTIONS:
            stack.append(_Const(_CONSTANT_ACTIONS[StackAction(action)]))
        elif ins.is_pushword:
            stack.append(_Word(index=ins.push_index))  # type: ignore[arg-type]
        elif ins.is_indirect:
            if stack:
                stack.pop()
            stack.append(_OPAQUE)
        else:
            stack.append(_OPAQUE)

        op = ins.operator
        if op == BinaryOp.NOP:
            continue
        if len(stack) < 2:
            # Malformed program; the validator would have rejected it.
            return frozenset()
        t1 = stack.pop()
        t2 = stack.pop()

        if op in (BinaryOp.CAND, BinaryOp.CNOR):
            # Continuing past CAND requires equality; past CNOR requires
            # inequality (not expressible as a NecessaryTest; skipped).
            if op == BinaryOp.CAND:
                test = _as_equality(t2, t1)
                if test is not None:
                    necessary.add(test)
            # Both push a value on the continue path (figure 3-6); its
            # truth is known (CAND: true, CNOR: false).
            stack.append(
                _Truthy(frozenset()) if op == BinaryOp.CAND else _Const(0)
            )
        elif op == BinaryOp.EQ:
            test = _as_equality(t2, t1)
            stack.append(
                _Truthy(frozenset({test} if test else ()))
            )
        elif op == BinaryOp.AND:
            stack.append(_fold_and(t2, t1))
        elif op == BinaryOp.OR:
            left, right = _tests_of(t2), _tests_of(t1)
            if left is not None and right is not None:
                stack.append(_Truthy(left & right))
            else:
                stack.append(_OPAQUE)
        elif op in (BinaryOp.NEQ, BinaryOp.LT, BinaryOp.LE,
                    BinaryOp.GT, BinaryOp.GE):
            stack.append(_Truthy(frozenset()))
        else:
            stack.append(_OPAQUE)

    if not stack:
        return frozenset()
    top = stack[-1]
    if isinstance(top, _Truthy):
        necessary.update(top.tests)
    return frozenset(necessary)


def _fold_and(t2: object, t1: object) -> object:
    """AND over the symbolic domain.

    Recognizes ``word & mask-constant`` field extraction, and otherwise
    exploits that a bitwise AND is nonzero only when both operands are:
    the result's implied-test set is the union of the operands'.
    """
    masked = _as_masked(t2, t1)
    if masked is not None:
        return masked
    union: set[NecessaryTest] = set()
    for operand in (t2, t1):
        tests = _tests_of(operand)
        if tests is not None:
            union.update(tests)
    return _Truthy(frozenset(union))


def _as_masked(t2: object, t1: object) -> _Word | None:
    for left, right in ((t2, t1), (t1, t2)):
        if isinstance(left, _Word) and isinstance(right, _Const):
            return _Word(index=left.index, mask=left.mask & right.value)
    return None


# --- helpers shared by every table builder -----------------------------------


@dataclass(frozen=True)
class TableEntry:
    """One filter in the table, with its global application order.

    Public and stable: :func:`repro.core.opt.build_dispatch_tree`
    consumes these and :meth:`repro.core.opt.DispatchTree.lookup`
    yields them.  ``order`` sorts ascending in application order
    (priority descending, then bind sequence); ``handle`` is whatever
    opaque payload the builder supplied; ``program`` is the bound
    filter.
    """

    order: tuple
    handle: object
    program: FilterProgram


def choose_discriminant(
    entries: Sequence[TableEntry],
    used_keys: frozenset = frozenset(),
    *,
    min_split: int = 2,
) -> tuple[int, int] | None:
    """Pick the most discriminating (word, mask) over ``entries``: the
    one with the most distinct required values, coverage breaking ties.
    Keys in ``used_keys`` (already split on higher up a tree) are
    excluded — re-splitting on them can never separate anything
    further.  Returns None when no key covers at least ``min_split``
    entries."""
    values: dict[tuple[int, int], set[int]] = {}
    coverage: dict[tuple[int, int], int] = {}
    for entry in entries:
        for test in necessary_equalities(entry.program):
            if test.key in used_keys:
                continue
            values.setdefault(test.key, set()).add(test.value)
            coverage[test.key] = coverage.get(test.key, 0) + 1
    if not coverage:
        return None
    key = max(
        coverage,
        key=lambda k: (len(values[k]), coverage[k], -k[0]),
    )
    if coverage[key] < min_split:
        return None
    return key


def required_value(program: FilterProgram, key: tuple[int, int]) -> int | None:
    """The value ``program`` necessarily requires for ``key`` (a
    (word, mask) pair), or None when the analysis proves nothing."""
    for test in necessary_equalities(program):
        if test.key == key:
            return test.value
    return None
