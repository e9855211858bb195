"""Optimization passes over the filter IR.

Everything here is a *transfer*: a pass re-emits the live slice of a
:class:`repro.core.ir.FilterIR` through the :class:`~repro.core.ir.ValueGraph`
constructors, which hash-cons and constant-fold on the way in.  One
mechanism gives all four classic passes:

* **Dead-code elimination** — only nodes reachable from the steps and
  the result are re-emitted; everything else is simply never copied.
* **Constant folding** — the constructors fold, so any constants a
  rewrite exposes cascade for free (and a side exit whose condition
  folds to a constant is either deleted or turned into the filter's
  final verdict, exactly as at lowering time).
* **Cross-filter CSE** — transferring many filters into one *shared*
  graph value-numbers them against each other: thirty filters that all
  compare the Ethernet-type word own one load node and one comparison
  node between them (:func:`cse_filter_set`).
* **Dispatch specialization** — under a dispatch-tree bucket the
  discriminating field's value is known, so :func:`specialize_filter`
  rewrites the corresponding loads to constants and lets folding delete
  the now-redundant predicate the dispatch probe already paid for.

The dispatch tree itself (:func:`build_dispatch_tree`) is the section 7
decision table — "compile the set of active filters into a decision
table, which should provide the best possible performance".  It buckets
the set by the equality tests each filter provably needs
(:func:`necessary_equalities`, read off the same lowered IR), and the
backend (:mod:`repro.core.irgen`) compiles it into nested hash probes.
It is an exact drop-in for the linear scan: for every packet it yields
exactly the candidate filters whose necessary conditions the packet
satisfies (:meth:`DispatchTree.lookup` is the reference reading; a
property-based test in ``tests/core/test_properties.py`` pins the
equivalence down).  It reorders *predicates*, never priorities: every
leaf chain keeps the order the set was given in, so delivery order is
exactly the figure 4-1 loop's.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

from .interpreter import ShortCircuitMode
from .ir import (
    COMMUTATIVE_KINDS,
    CONST,
    INDB,
    INDW,
    LOAD,
    Anchor,
    Bound,
    ExitIf,
    FilterIR,
    ValueGraph,
    lower_program,
)
from .program import FilterProgram
from .validator import ValidationReport
from .words import get_word

__all__ = [
    "live_nodes",
    "transfer_filter",
    "cse_filter_set",
    "CSEStats",
    "value_numbers",
    "specialize_filter",
    "NecessaryTest",
    "necessary_tests",
    "necessary_equalities",
    "SetEntry",
    "lower_entry",
    "DispatchTree",
    "build_dispatch_tree",
]


def live_nodes(fir: FilterIR) -> set[int]:
    """Node ids reachable from ``fir``'s steps and result."""
    graph = fir.graph
    roots = [fir.result]
    for step in fir.steps:
        if isinstance(step, Anchor):
            roots.append(step.node)
        elif isinstance(step, ExitIf):
            roots.append(step.cond)
    seen: set[int] = set()
    while roots:
        nid = roots.pop()
        if nid in seen:
            continue
        seen.add(nid)
        node = graph.node(nid)
        if node.kind in (CONST, LOAD):
            continue
        roots.append(node.arg0)
        if node.arg1 is not None:
            roots.append(node.arg1)
    return seen


def transfer_filter(
    fir: FilterIR,
    graph: ValueGraph,
    *,
    loads: Mapping[int, int] | None = None,
) -> FilterIR:
    """Re-emit ``fir`` into ``graph`` through the folding constructors.

    ``loads`` optionally maps packet word indices to known constant
    values (the dispatch-specialization context); matching ``LOAD``
    nodes are rewritten to constants and the fold cascades from there.
    A side exit whose condition becomes constant is deleted (never
    taken) or, when it is provably always taken, truncates the filter
    with its verdict — mirroring the lowering-time treatment.
    """
    src = fir.graph
    memo: dict[int, int] = {}

    def tx(nid: int) -> int:
        out = memo.get(nid)
        if out is not None:
            return out
        node = src.node(nid)
        if node.kind == CONST:
            out = graph.const(node.arg0)
        elif node.kind == LOAD:
            if loads is not None and node.arg0 in loads:
                out = graph.const(loads[node.arg0])
            else:
                out = graph.load(node.arg0)
        elif node.kind in (INDW, INDB):
            out = graph.indirect(node.kind, tx(node.arg0))
        else:
            out = graph.binop(node.kind, tx(node.arg0), tx(node.arg1))
        memo[nid] = out
        return out

    steps: list = []
    for step in fir.steps:
        if isinstance(step, Bound):
            steps.append(step)
        elif isinstance(step, Anchor):
            nid = tx(step.node)
            if graph.faultable(nid):
                steps.append(Anchor(nid))
        else:
            cond = tx(step.cond)
            value = graph.const_value(cond)
            if value is None:
                steps.append(ExitIf(cond, step.when, step.returns))
            elif bool(value) == step.when:
                # Always taken: the exit verdict is the filter's result.
                return FilterIR(
                    graph=graph,
                    steps=tuple(steps),
                    result=graph.const(1 if step.returns else 0),
                )
            # else: provably never taken — drop the step.
    return FilterIR(graph=graph, steps=tuple(steps), result=tx(fir.result))


@dataclass(frozen=True)
class CSEStats:
    """Before/after accounting for the cross-filter CSE pass."""

    nodes_before: int  #: sum of per-filter live node counts
    nodes_after: int   #: live nodes in the shared graph


def cse_filter_set(
    firs: Sequence[FilterIR],
) -> tuple[list[FilterIR], CSEStats]:
    """Value-number ``firs`` against each other in one shared graph.

    Not on the compile path (each leaf chain transfers into its own
    graph): this is the reference that the per-filter accounting of
    :func:`value_numbers` is tested against.
    """
    before = sum(len(live_nodes(fir)) for fir in firs)
    shared = ValueGraph()
    merged = [transfer_filter(fir, shared) for fir in firs]
    after: set[int] = set()
    for fir in merged:
        after |= live_nodes(fir)
    return merged, CSEStats(nodes_before=before, nodes_after=len(after))


def value_numbers(fir: FilterIR, live: set[int]) -> frozenset:
    """Graph-independent value numbers of ``fir``'s ``live`` nodes.

    A node's number is its structure — kind plus operand numbers, with
    commutative operands in canonical order — so two filters lowered
    into *separate* graphs number a shared subexpression identically,
    and the size of the union over a filter set is the live node count
    :func:`cse_filter_set` would find in one shared graph.
    """
    graph = fir.graph
    numbers: dict[int, tuple] = {}
    for nid in sorted(live):  # operands precede their users
        node = graph.node(nid)
        if node.kind in (CONST, LOAD):
            numbers[nid] = (node.kind, node.arg0)
        elif node.arg1 is None:
            numbers[nid] = (node.kind, numbers[node.arg0])
        else:
            a, b = numbers[node.arg0], numbers[node.arg1]
            if node.kind in COMMUTATIVE_KINDS and b < a:
                a, b = b, a
            numbers[nid] = (node.kind, a, b)
    return frozenset(numbers.values())


def specialize_filter(
    fir: FilterIR,
    graph: ValueGraph,
    context: Mapping[tuple[int, int], int],
) -> FilterIR:
    """Specialize ``fir`` for a dispatch bucket.

    ``context`` maps (word index, mask) discriminants to the value the
    dispatch probe established.  Only full-word facts (mask 0xFFFF) can
    rewrite a load outright; masked facts are left to the probe (the
    load itself is not fully known).  Soundness note: a bucket is only
    entered when the packet is long enough for the probe's (possibly
    odd-tail-padded) load, which is exactly the lowering's ``Bound``
    precondition for the same word — so the rewritten constant equals
    what the body would have loaded at every reachable use.
    """
    loads = {
        index: value & 0xFFFF
        for (index, mask), value in context.items()
        if mask == 0xFFFF
    }
    return transfer_filter(fir, graph, loads=loads or None)


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


def necessary_equalities(
    program: FilterProgram,
    report: ValidationReport,
    mode: ShortCircuitMode = ShortCircuitMode.PUSH_RESULT,
) -> frozenset[NecessaryTest]:
    """Equality conditions provably necessary for ``program`` to accept:
    :func:`necessary_tests` of its lowering."""
    return necessary_tests(lower_program(program, report, mode))


def necessary_tests(fir: FilterIR) -> frozenset[NecessaryTest]:
    """Equality conditions provably necessary for ``fir`` to accept.

    Most real filters are conjunctions that include an equality test on
    a shared discriminating field (the Ethernet type word, a Pup
    socket); a packet whose field differs can skip such a filter
    entirely.  The conditions are read off the lowered IR: the program
    accepts only by falling through every reject exit and ending on a
    nonzero verdict, and a nonzero ``eq(field, const)`` is a test, a
    nonzero ``and`` needs both operands nonzero (union), a nonzero
    ``or`` either (intersection).  An exit that can return TRUE early
    voids "everything later is necessary", so such programs yield the
    empty set.  Sound but incomplete: always a subset of the true
    necessary conditions.
    """
    node, const_value = fir.graph.node, fir.graph.const_value

    def field(nid: int) -> tuple[int, int] | None:
        """(word, mask) when ``nid`` is a load under constant masks."""
        mask = 0xFFFF
        while (this := node(nid)).kind == "and":
            nid, other = this.arg0, this.arg1
            if const_value(nid) is not None:
                nid, other = other, nid
            if const_value(other) is None:
                return None
            mask &= const_value(other)
        return (this.arg0, mask) if this.kind == LOAD else None

    def implied(nid: int) -> frozenset[NecessaryTest]:
        """What ``nid`` being nonzero proves about the packet."""
        this = node(nid)
        a, b = this.arg0, this.arg1
        if this.kind == "and":
            return implied(a) | implied(b)
        if this.kind == "or":
            return implied(a) & implied(b)
        if this.kind == "eq":
            if const_value(a) is not None:
                a, b = b, a
            value, key = const_value(b), field(a)
            # A constant with bits outside the mask can never be equal;
            # treated as unanalyzable rather than proving emptiness.
            if value is not None and key is not None and not value & ~key[1]:
                return frozenset({NecessaryTest(*key, value)})
        return frozenset()

    necessary = implied(fir.result)
    for step in fir.steps:
        if isinstance(step, ExitIf):
            if step.returns:
                return frozenset()
            if not step.when:
                necessary |= implied(step.cond)
    return necessary


@dataclass(frozen=True, eq=False)
class SetEntry:
    """One bound filter as the set compiler sees it.

    ``key`` is what the compiled set reports when the filter accepts
    (the demultiplexer uses the port id): stable across re-binds, so a
    filter that merely moves in application order keeps its linked
    chain.  ``copy_all`` is baked in at compile time, so flipping it on
    a live port needs a new entry.  Entries compare by identity: a
    compile reuses the previous set's subtrees whose entries are the
    same objects in the same order.

    ``necessary`` is the filter's :func:`necessary_tests` as
    ``{(word, mask): value}``, recorded by :func:`lower_entry` the first
    time a compile sees the entry; an entry belongs to one short-circuit
    mode, that of the set it is bound into.
    """

    key: Hashable
    program: FilterProgram
    report: ValidationReport
    copy_all: bool
    necessary: Mapping[tuple[int, int], int] | None = field(
        default=None, repr=False
    )


NECESSARY_MAX = 65536
"""Most programs whose necessary tests the process remembers (LRU
beyond that), so a filter bound again — re-attached, or bound into a
second set — is not lowered again for them."""

#: (program, report, mode) -> {(word, mask): value}; dict order is LRU order
_NECESSARY: dict[tuple, Mapping[tuple[int, int], int]] = {}


def lower_entry(entry: SetEntry, mode: ShortCircuitMode) -> FilterIR | None:
    """Record ``entry``'s necessary tests on it.

    Returns the lowering when the program had to be lowered for them (it
    is not remembered), for the caller to emit the filter's first chain
    from; None when the tests were remembered.
    """
    key = (entry.program, entry.report, mode)
    tests = _NECESSARY.pop(key, None)
    fir = None
    if tests is None:
        fir = lower_program(entry.program, entry.report, mode)
        tests = {test.key: test.value for test in necessary_tests(fir)}
        if len(_NECESSARY) >= NECESSARY_MAX:
            _NECESSARY.pop(next(iter(_NECESSARY)))
    _NECESSARY[key] = tests  # (re-)insert: most recently used
    object.__setattr__(entry, "necessary", tests)
    return fir


@dataclass(frozen=True)
class DispatchTree:
    """A recursive dispatch plan over a filter set.

    Internal nodes carry a ``discriminant`` (word, mask), per-value
    ``buckets``, and a ``fallback`` subtree for packets matching no
    bucket (or too short for the field).  Every node carries the
    ``entries`` under it in application order; a leaf evaluates them.
    Entries the analysis could not bucket at a node are merged *into
    every bucket subtree* (and form the fallback), preserving total
    order.
    """

    discriminant: tuple[int, int] | None
    buckets: Mapping[int, "DispatchTree"]
    fallback: "DispatchTree | None"
    entries: tuple[SetEntry, ...]

    @property
    def depth(self) -> int:
        if self.discriminant is None:
            return 0
        deepest = max(tree.depth for tree in self.buckets.values())
        if self.fallback is not None:
            deepest = max(deepest, self.fallback.depth)
        return 1 + deepest

    def lookup(self, packet: bytes) -> tuple[SetEntry, ...]:
        """Entries worth evaluating on ``packet``, in application order:
        every filter the probes on the way down did not rule out.  The
        tree's reference reading — the backend compiles the same walk
        into nested hash probes."""
        node = self
        while node.discriminant is not None:
            index, mask = node.discriminant
            try:
                value = get_word(packet, index) & mask
            except IndexError:
                # Packet too short for the field: every bucketed
                # filter's necessary PUSHWORD would fault, so only
                # fallbacks apply.
                node = node.fallback
            else:
                node = node.buckets.get(value, node.fallback)
        return node.entries


MAX_DEPTH = 3
"""Levels of probes a dispatch tree stacks before it falls back to
chains."""


def build_dispatch_tree(
    entries: Sequence[SetEntry],
    mode: ShortCircuitMode,
    *,
    used_keys: frozenset = frozenset(),
    previous: DispatchTree | None = None,
) -> DispatchTree:
    """Bucket ``entries`` (in application order) by their necessary
    equalities, recursively.

    This is the predicate-reordering pass: instead of each filter
    re-testing the discriminating fields in chain order, the shared
    probe runs once up front.  Each node splits on the most
    discriminating (word, mask) not already split on above it — the one
    with the most distinct required values, coverage breaking ties —
    and stops where no key covers two entries; a straight chain is
    cheaper.  Priority order is *not* reordered — every node keeps its
    entries in the order they were given.

    ``previous`` is the tree this one replaces: any subtree whose
    entries are the same objects in the same order, at the same place,
    is that subtree, so a re-bind rebuilds only the nodes it changed.
    """
    ordered = tuple(entries)
    if previous is not None and previous.entries == ordered:
        return previous
    leaf = DispatchTree(None, {}, None, ordered)
    # Every level above added exactly one key, so ``used_keys`` is the depth.
    if len(used_keys) >= MAX_DEPTH or len(ordered) < 2:
        return leaf
    required = []
    for entry in ordered:
        if entry.necessary is None:
            lower_entry(entry, mode)
        tests = entry.necessary
        if used_keys:
            tests = {k: v for k, v in tests.items() if k not in used_keys}
        required.append(tests)
    values: defaultdict[tuple[int, int], list[int]] = defaultdict(list)
    for tests in required:  # one value per covered entry
        for key, value in tests.items():
            values[key].append(value)
    if not values:
        return leaf
    key = max(
        values, key=lambda k: (len(set(values[k])), len(values[k]), -k[0])
    )
    if len(values[key]) < 2:
        return leaf

    grouped: defaultdict[int, list[int]] = defaultdict(list)
    leftovers: list[int] = []  # positions in ``ordered``
    for position, tests in enumerate(required):
        if key in tests:
            grouped[tests[key]].append(position)
        else:
            leftovers.append(position)

    deeper = used_keys | {key}
    same = previous is not None and previous.discriminant == key
    pick = ordered.__getitem__

    def subtree(positions: list[int], before: DispatchTree | None):
        members = tuple(map(pick, positions))
        if before is not None and before.entries == members:
            return before
        return build_dispatch_tree(
            members, mode, used_keys=deeper, previous=before,
        )

    buckets = {
        value: subtree(
            sorted(group + leftovers) if leftovers else group,
            previous.buckets.get(value) if same else None,
        )
        for value, group in grouped.items()
    }
    fallback = subtree(leftovers, previous.fallback if same else None)
    return DispatchTree(key, buckets, fallback, ordered)
