"""A small SSA/DAG intermediate representation for filter programs.

The section 7 conjecture — "it might be possible to compile the set of
active filters into a decision table, which should provide the best
possible performance" — needs a real compiler middle-end to go past
concatenating per-filter bodies: something that can see
that thirty bound filters all load the same Ethernet-type word, fold
their shared subexpressions, and reorder their predicates.  Stack
programs are a poor substrate for that, so this module lifts validated
:class:`repro.core.program.FilterProgram` stack code into a
value-numbered DAG:

* **Nodes** (:class:`Node`) are pure 16-bit values: packet word loads,
  literal constants, the figure 3-6 ALU/compare operators, and the
  section 7 extension indirect loads.  The graph (:class:`ValueGraph`)
  hash-conses on construction, so two pushes of the same word — in one
  filter or across *different* filters sharing a graph — are one node.
  Constant folding and 16-bit algebraic identities happen in the
  constructors, so a folded program never materializes dead nodes.

* **Steps** are the residual control: branch-free stack programs have
  no joins, so control is exactly a linear sequence of side exits —
  short-circuit operators (:class:`ExitIf`), packet-length guards at
  the program points where a ``PUSHWORD`` would fault
  (:class:`Bound`), and ordering anchors for the two faultable value
  kinds, indirect loads and ``DIV`` (:class:`Anchor`), which must not
  drift across an exit.

* A :class:`FilterIR` is one lowered filter: its steps in program
  order plus the node whose nonzero-ness is the final verdict.

Node identity is the whole point: everything downstream — the
cross-filter CSE pass (:mod:`repro.core.opt`), the dispatch-tree
backend and the batch evaluator (:mod:`repro.core.irgen`), and the
single-filter JIT (:mod:`repro.core.jit`, re-based onto this lowering)
— works on node ids, and semantic equivalence with the section 4
interpreter is pinned by the hypothesis engine-equivalence suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .instructions import BinaryOp, StackAction
from .interpreter import ShortCircuitMode
from .program import FilterProgram
from .validator import ValidationReport

__all__ = [
    "Node",
    "ValueGraph",
    "Bound",
    "Anchor",
    "ExitIf",
    "Step",
    "FilterIR",
    "lower_program",
    "CONST",
    "LOAD",
    "INDW",
    "INDB",
    "COMPARE_KINDS",
    "COMMUTATIVE_KINDS",
]

# -- node kinds --------------------------------------------------------------

CONST = "const"  #: arg0 = the literal value (0..0xFFFF)
LOAD = "load"    #: arg0 = packet word index (big-endian 16-bit load)
INDW = "indw"    #: arg0 = node id of the word index (extension PUSHIND)
INDB = "indb"    #: arg0 = node id of the byte index (extension PUSHBYTEIND)

#: BinaryOp -> node kind for the value-producing operators.
_OP_KINDS = {
    BinaryOp.EQ: "eq",
    BinaryOp.NEQ: "ne",
    BinaryOp.LT: "lt",
    BinaryOp.LE: "le",
    BinaryOp.GT: "gt",
    BinaryOp.GE: "ge",
    BinaryOp.AND: "and",
    BinaryOp.OR: "or",
    BinaryOp.XOR: "xor",
    BinaryOp.ADD: "add",
    BinaryOp.SUB: "sub",
    BinaryOp.MUL: "mul",
    BinaryOp.DIV: "div",
    BinaryOp.LSH: "lsh",
    BinaryOp.RSH: "rsh",
}

COMPARE_KINDS = frozenset({"eq", "ne", "lt", "le", "gt", "ge"})
"""Kinds whose value is always 0 or 1."""

COMMUTATIVE_KINDS = frozenset({"eq", "ne", "and", "or", "xor", "add", "mul"})
"""Kinds where operand order is irrelevant — canonicalized for CSE."""

_FAULTABLE_KINDS = frozenset({INDW, INDB, "div"})
"""Kinds that can raise at run time (IndexError / ZeroDivisionError).

Their evaluation order relative to exits is observable (a fault rejects
the packet), so lowering pins them with :class:`Anchor` steps and no
pass may hoist them."""

#: Constant evaluation for each binary kind (operands already 16-bit).
_FOLD = {
    "eq": lambda a, b: 1 if a == b else 0,
    "ne": lambda a, b: 1 if a != b else 0,
    "lt": lambda a, b: 1 if a < b else 0,
    "le": lambda a, b: 1 if a <= b else 0,
    "gt": lambda a, b: 1 if a > b else 0,
    "ge": lambda a, b: 1 if a >= b else 0,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "add": lambda a, b: (a + b) & 0xFFFF,
    "sub": lambda a, b: (a - b) & 0xFFFF,
    "mul": lambda a, b: (a * b) & 0xFFFF,
    "lsh": lambda a, b: (a << min(b, 16)) & 0xFFFF,
    "rsh": lambda a, b: a >> min(b, 16),
    # "div" deliberately absent: a constant zero divisor is a runtime
    # fault (reject), not a value — folding it would change semantics.
}


@dataclass(frozen=True, slots=True)
class Node:
    """One value in the DAG.

    ``arg0``/``arg1`` are node ids for operator kinds, the literal for
    ``CONST``, the word index for ``LOAD``, and the index node id for
    the indirect kinds.  Frozen and hashable — the graph's hash-consing
    key is the node itself.
    """

    kind: str
    arg0: int
    arg1: int | None = None


class ValueGraph:
    """An append-only, hash-consed collection of :class:`Node`.

    Construction *is* local value numbering: asking for a node that
    already exists returns the existing id, so identical loads and
    repeated subexpressions collapse at build time.  When several
    filters are lowered into one shared graph, the same mechanism is
    cross-filter common-subexpression elimination (see
    :func:`repro.core.opt.cse_filter_set`).
    """

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self._ids: dict[Node, int] = {}
        self._faultable: list[bool] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, nid: int) -> Node:
        return self.nodes[nid]

    def _intern(self, node: Node) -> int:
        existing = self._ids.get(node)
        if existing is not None:
            return existing
        nid = len(self.nodes)
        self.nodes.append(node)
        self._ids[node] = nid
        faultable = node.kind in _FAULTABLE_KINDS
        if not faultable and node.kind not in (CONST, LOAD):
            faultable = self._faultable[node.arg0] or (
                node.arg1 is not None and self._faultable[node.arg1]
            )
        self._faultable.append(faultable)
        return nid

    def faultable(self, nid: int) -> bool:
        """True when evaluating ``nid`` (or any operand) can raise."""
        return self._faultable[nid]

    # -- constructors ----------------------------------------------------

    def const(self, value: int) -> int:
        return self._intern(Node(CONST, value & 0xFFFF))

    def load(self, index: int) -> int:
        return self._intern(Node(LOAD, index))

    def indirect(self, kind: str, index: int) -> int:
        if kind not in (INDW, INDB):
            raise ValueError(f"not an indirect kind: {kind!r}")
        return self._intern(Node(kind, index))

    def const_value(self, nid: int) -> int | None:
        node = self.nodes[nid]
        return node.arg0 if node.kind == CONST else None

    def binop(self, kind: str, a: int, b: int) -> int:
        """``a <kind> b`` (a = T2, b = T1), folded where sound.

        All values in the graph are provably 16-bit (loads, validated
        literals, and operators that mask), which is what licenses the
        ``x & 0xFFFF -> x`` family of identities.
        """
        va, vb = self.const_value(a), self.const_value(b)
        if va is not None and vb is not None and kind in _FOLD:
            return self.const(_FOLD[kind](va, vb))
        folded = self._identity(kind, a, b, va, vb)
        if folded is not None:
            return folded
        if kind in COMMUTATIVE_KINDS and a > b:
            a, b = b, a
        return self._intern(Node(kind, a, b))

    def _identity(
        self, kind: str, a: int, b: int, va: int | None, vb: int | None
    ) -> int | None:
        """16-bit algebraic identities; None when nothing applies."""
        if kind == "and":
            if va == 0 or vb == 0:
                return self.const(0)
            if va == 0xFFFF:
                return b
            if vb == 0xFFFF:
                return a
        elif kind == "or":
            if va == 0:
                return b
            if vb == 0:
                return a
            if va == 0xFFFF or vb == 0xFFFF:
                return self.const(0xFFFF)
        elif kind == "xor":
            if va == 0:
                return b
            if vb == 0:
                return a
        elif kind in ("add", "sub") and vb == 0:
            return a
        elif kind == "add" and va == 0:
            return b
        elif kind == "mul":
            if va == 0 or vb == 0:
                return self.const(0)
            if va == 1:
                return b
            if vb == 1:
                return a
        elif kind in ("lsh", "rsh") and vb == 0:
            return a
        elif kind == "div" and vb == 1:
            return a
        elif kind in COMPARE_KINDS and a == b and not self.faultable(a):
            # x <op> x is decided — but only when x cannot fault, since
            # folding would erase the fault (which rejects the packet).
            return self.const(
                1 if kind in ("eq", "le", "ge") else 0
            )
        return None


# -- steps -------------------------------------------------------------------


@dataclass(frozen=True)
class Bound:
    """``if len(packet) < min_bytes: reject`` at this program point.

    Emitted exactly where the stack program's ``PUSHWORD`` would fault,
    so a filter that can accept *before* touching a deep word is never
    pre-rejected on that word's account (the same discipline the
    single-filter :mod:`repro.core.jit` lowering always had)."""

    min_bytes: int


@dataclass(frozen=True)
class Anchor:
    """Evaluate ``node`` here — it can fault, so it must not move
    across an exit in either direction."""

    node: int


@dataclass(frozen=True)
class ExitIf:
    """Short-circuit side exit: when ``cond``'s truth equals ``when``,
    terminate the filter with verdict ``returns``."""

    cond: int
    when: bool
    returns: bool


Step = Union[Bound, Anchor, ExitIf]


@dataclass(frozen=True)
class FilterIR:
    """One filter, lowered: residual control steps plus the verdict node.

    ``result`` is the node whose nonzero-ness accepts the packet when
    no step exited first.  When lowering (or a later fold) proves an
    unconditional exit, ``steps`` is truncated there and ``result`` is
    the corresponding constant."""

    graph: ValueGraph
    steps: tuple[Step, ...]
    result: int


# -- lowering ----------------------------------------------------------------

#: operator -> (terminate when cond is, verdict on exit, continue constant)
_SC_LOWER = {
    BinaryOp.COR: (True, True, 0),
    BinaryOp.CAND: (False, False, 1),
    BinaryOp.CNOR: (True, False, 0),
    BinaryOp.CNAND: (False, True, 1),
}

_CONSTANT_ACTIONS = {
    StackAction.PUSHZERO: 0x0000,
    StackAction.PUSHONE: 0x0001,
    StackAction.PUSHFFFF: 0xFFFF,
    StackAction.PUSHFF00: 0xFF00,
    StackAction.PUSH00FF: 0x00FF,
}


def lower_program(
    program: FilterProgram,
    report: ValidationReport,
    mode: ShortCircuitMode = ShortCircuitMode.PUSH_RESULT,
) -> FilterIR:
    """Lower a *validated* stack program to :class:`FilterIR`, in a
    graph of its own.

    ``report`` must come from :func:`repro.core.validator.validate` on
    the same program and mode — lowering trusts its stack-shape
    guarantees and its ``min_packet_bytes`` pre-check exactly as the
    JIT does."""
    g = ValueGraph()
    steps: list[Step] = []
    guaranteed = report.min_packet_bytes
    if guaranteed:
        steps.append(Bound(guaranteed))

    stack: list[int] = []

    def close(result: int) -> FilterIR:
        return FilterIR(graph=g, steps=tuple(steps), result=result)

    for ins in program.instructions:
        action = ins.action_code

        if action == StackAction.NOPUSH:
            pass
        elif action == StackAction.PUSHLIT:
            stack.append(g.const(ins.literal))  # type: ignore[arg-type]
        elif action in _CONSTANT_ACTIONS:
            stack.append(g.const(_CONSTANT_ACTIONS[StackAction(action)]))
        elif action == StackAction.PUSHIND:
            nid = g.indirect(INDW, stack.pop())
            steps.append(Anchor(nid))
            stack.append(nid)
        elif action == StackAction.PUSHBYTEIND:
            nid = g.indirect(INDB, stack.pop())
            steps.append(Anchor(nid))
            stack.append(nid)
        else:  # PUSHWORD+n
            index = ins.push_index
            offset = 2 * index  # type: ignore[operator]
            if offset + 1 > guaranteed:
                steps.append(Bound(offset + 1))
                guaranteed = offset + 1
            stack.append(g.load(index))  # type: ignore[arg-type]

        op = ins.operator
        if op == BinaryOp.NOP:
            continue
        t1 = stack.pop()
        t2 = stack.pop()

        if op in _SC_LOWER:
            when, returns, continue_constant = _SC_LOWER[op]
            cond = g.binop("eq", t2, t1)
            value = g.const_value(cond)
            if value is not None:
                if bool(value) == when:
                    # Unconditional exit: the tail is dead code.
                    return close(g.const(1 if returns else 0))
                # Exit provably never taken: drop the step entirely.
            else:
                steps.append(ExitIf(cond=cond, when=when, returns=returns))
            if mode is ShortCircuitMode.PUSH_RESULT:
                stack.append(g.const(continue_constant))
        elif op == BinaryOp.DIV:
            nid = g.binop("div", t2, t1)
            if g.faultable(nid):  # not when ``x / 1`` folded to ``x``
                steps.append(Anchor(nid))
            stack.append(nid)
        else:
            stack.append(g.binop(_OP_KINDS[op], t2, t1))

    return close(stack[-1])
