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
* **Dispatch specialization** — under a dispatch bucket the
  discriminating field's value is known, so :func:`specialize_filter`
  rewrites the corresponding loads to constants and lets folding delete
  the now-redundant predicate the dispatch probe already paid for.

The dispatch tree itself (:func:`build_dispatch_tree`) is the section 7
decision table — "compile the set of active filters into a decision
table, which should provide the best possible performance".  It buckets
the set by the values of one header field that the filters provably
test for equality (:func:`necessary_equalities`, read off the same
lowered IR), and the backend (:mod:`repro.core.irgen`) compiles it into
one hash probe over leaf chains.  It is an exact drop-in for the linear
scan: for every packet it yields exactly the candidate filters whose
necessary conditions the packet satisfies (``lookup`` in
``tests/core/reference_dispatch.py`` is the reference reading; a
property-based test in ``tests/core/test_properties.py`` pins the
equivalence down).  It reorders *predicates*, never priorities: every
leaf chain keeps the order the set was given in, so delivery order is
exactly the figure 4-1 loop's.  A compiled set's root is grouped by
:func:`dispatch_root`, which keeps the root's tallies on the root
(:attr:`DispatchTree.tallies`) so that a re-bind patches the buckets it
changes instead of regrouping every filter, and a filter whose
:func:`skeleton` the set has lowered before is read off that lowering's
:class:`Template` instead of lowered (:func:`lower_entry`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import filterfalse
from operator import and_
from typing import Callable, Hashable, Iterable, Mapping, MutableMapping, Sequence

from .instructions import ACTION_FIELD_BITS
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
    "FIXED_CONSTANTS",
    "skeleton",
    "Template",
    "SetEntry",
    "lower_entry",
    "DispatchTree",
    "build_dispatch_tree",
    "dispatch_root",
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
    constants: Mapping[int, int] | None = None,
) -> FilterIR:
    """Re-emit ``fir`` into ``graph`` through the folding constructors.

    ``loads`` optionally maps packet word indices to known constant
    values (the dispatch-specialization context); matching ``LOAD``
    nodes are rewritten to constants and the fold cascades from there.
    ``constants`` optionally maps each constant of ``fir`` to the value
    it takes in ``graph``: a template's lowering re-emitted as another
    program of its skeleton (:meth:`Template.constants`).
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
            out = graph.const(
                node.arg0 if constants is None else constants[node.arg0]
            )
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


def value_numbers(
    fir: FilterIR,
    live: Iterable[int],
    constants: Mapping[int, int] | None = None,
) -> frozenset:
    """Graph-independent value numbers of ``fir``'s ``live`` nodes.

    A node's number is its structure — kind plus operand numbers, with
    commutative operands in canonical order — so two filters lowered
    into *separate* graphs number a shared subexpression identically,
    and the size of the union over a filter set is the live node count
    :func:`cse_filter_set` would find in one shared graph.
    ``constants`` maps each constant of ``fir`` to the value it is
    numbered as: a template's lowering numbered as another rule of its
    skeleton (:meth:`Template.facts`).
    """
    graph = fir.graph
    numbers: dict[int, tuple] = {}
    for nid in sorted(live):  # operands precede their users
        node = graph.node(nid)
        if node.kind == CONST and constants is not None:
            numbers[nid] = (CONST, constants[node.arg0])
        elif node.kind in (CONST, LOAD):
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
    constants: Mapping[int, int] | None = None,
) -> FilterIR:
    """Specialize ``fir`` (its constants mapped through ``constants``,
    as :func:`transfer_filter` does) for a dispatch bucket.

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
    return transfer_filter(
        fir, graph, loads=loads or None, constants=constants
    )


@dataclass(frozen=True)
class NecessaryTest:
    """``packet.word[index] & mask == value`` must hold for acceptance."""

    index: int
    mask: int
    value: int

    @property
    def key(self) -> tuple[int, int]:
        return (self.index, self.mask)


def necessary_equalities(
    program: FilterProgram,
    report: ValidationReport,
    mode: ShortCircuitMode = ShortCircuitMode.PUSH_RESULT,
) -> frozenset[NecessaryTest]:
    """Equality conditions provably necessary for ``program`` to accept:
    :func:`necessary_tests` of its lowering."""
    return necessary_tests(lower_program(program, report, mode))


def necessary_tests(
    fir: FilterIR, weighed: list | None = None
) -> frozenset[NecessaryTest]:
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
    necessary conditions.  ``weighed``, when given, receives ``(word,
    masks, value)`` for each equality of a masked word with a constant
    that the analysis met, kept or not: the constants the word was
    masked with and the one it was compared to.
    """
    node, const_value = fir.graph.node, fir.graph.const_value

    def field(nid: int) -> tuple[int, list[int]] | None:
        """(word, masks) when ``nid`` is a load under constant masks."""
        masks = []
        while (this := node(nid)).kind == "and":
            nid, other = this.arg0, this.arg1
            if const_value(nid) is not None:
                nid, other = other, nid
            if const_value(other) is None:
                return None
            masks.append(const_value(other))
        return (this.arg0, masks) if this.kind == LOAD else None

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
            value, masked = const_value(b), field(a)
            if value is not None and masked is not None:
                index, masks = masked
                if weighed is not None:
                    weighed.append((index, tuple(masks), value))
                mask = reduce(and_, masks, 0xFFFF)
                # A constant with bits outside the mask can never be
                # equal; treated as unanalyzable rather than proving
                # emptiness.
                if not value & ~mask:
                    return frozenset({NecessaryTest(index, mask, value)})
        return frozenset()

    necessary = implied(fir.result)
    for step in fir.steps:
        if isinstance(step, ExitIf):
            if step.returns:
                return frozenset()
            if not step.when:
                necessary |= implied(step.cond)
    return necessary


FIXED_CONSTANTS = (0x0000, 0x0001, 0x00FF, 0xFF00, 0xFFFF)
"""The constants a :class:`~repro.core.ir.ValueGraph` may hold whatever
a program's literals are: what the five constant pushes push and what
its identities and folded self-compares yield.  They are also the only
values its identities test for."""

_CLASS = {value: ~i for i, value in enumerate(FIXED_CONSTANTS)}


def skeleton(program: FilterProgram) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``program``'s skeleton and the values its slots hold, in one pass
    over its instructions.

    The skeleton is the instruction words with each ``PUSHLIT`` literal
    replaced by its class: ``~i`` when it equals ``FIXED_CONSTANTS[i]``,
    else the position of the first literal equal to it.  A graph interns
    and applies its identities alike for every program of one skeleton,
    so they lower to one graph up to their literals' values unless a
    fold reads those values (:attr:`~repro.core.ir.ValueGraph.folds`).
    The values are the literals in order, then :data:`FIXED_CONSTANTS`:
    a :class:`Template`'s slot indexes either.
    """
    words = []
    literals = []
    first: dict[int, int] = {}
    for ins in program.instructions:
        words.append(ins.operator << ACTION_FIELD_BITS | ins.action_code)
        literal = ins.literal
        if literal is not None:
            kind = _CLASS.get(literal)
            if kind is None:
                kind = first.setdefault(literal, len(literals))
            words.append(kind)
            literals.append(literal)
    return tuple(words), (*literals, *FIXED_CONSTANTS)


@dataclass(eq=False, slots=True, weakref_slot=True)
class Template:
    """What lowering a program derives, with each constant replaced by
    its slot in the program's values: every chain holding the program
    is built from it, and so is every program read off it.

    Made by :func:`lower_entry`.  A skeleton's template is the first
    lowering of it a compile meets that every program of the skeleton
    can share; it is kept in a table on the compiled set, handed from
    set to set and held weakly, so it lives while an entry reads from
    it.  Any other lowering is its program's own template, which only
    its entry holds.  ``fir`` is the lowering and ``values`` its
    program's :func:`skeleton` values, followed in a program's own
    template by each other constant of the lowering and its tests.
    ``live`` are its live nodes; ``slots`` maps each constant in ``fir``
    to its slot (read it through :meth:`constants`).  ``tests`` are the
    necessary tests as ``(word, mask slot, value slot)``; ``checks`` are
    the masked equalities whose value-outside-mask test reads a literal,
    as ``(mask slot, value slot, outcome in fir)``.
    """

    fir: FilterIR
    values: tuple[int, ...]
    live: tuple[int, ...]
    slots: dict[int, int]
    tests: tuple[tuple[int, int, int], ...]
    checks: tuple[tuple[int, int, bool], ...]

    def necessary(self, values: Sequence[int]) -> dict | None:
        """The necessary tests of the program with skeleton ``values``,
        as :attr:`SetEntry.necessary`; None when one of its checks comes
        out otherwise than in ``fir``."""
        for mask, value, held in self.checks:
            if (not values[value] & ~values[mask]) is not held:
                return None
        return {
            (word, values[mask]): values[value]
            for word, mask, value in self.tests
        }

    def constants(self, values: Sequence[int]) -> dict[int, int]:
        """Each constant in ``fir`` mapped to the same constant of the
        program with skeleton ``values``, whose lowering is ``fir`` with
        its constants so mapped."""
        return {value: values[slot] for value, slot in self.slots.items()}

    def facts(self, values: Sequence[int]) -> tuple[int, tuple]:
        """Live node count and value numbers of the program with
        skeleton ``values``, as :attr:`SetEntry.facts`."""
        numbers = value_numbers(self.fir, self.live, self.constants(values))
        return len(self.live), tuple(numbers)


def _template(
    fir: FilterIR, tests: frozenset, weighed: list, values: tuple
) -> tuple[Template, bool]:
    """``fir``'s :class:`Template`, and whether every program of its
    skeleton can share it: not when one could lower otherwise than by
    its values, because a fold read a constant, a mask combines a
    literal with another constant, or two necessary tests share a key
    (which one is kept depends on the values).  A template no other
    program can share gives each constant of ``fir`` and each test mask
    that is neither a literal nor fixed a slot after ``values``, and
    checks nothing."""
    count = len(values) - len(FIXED_CONSTANTS)
    slots = {value: count + i for i, value in enumerate(FIXED_CONSTANTS)}
    for slot in range(count):
        slots.setdefault(values[slot], slot)
    live = tuple(sorted(live_nodes(fir)))
    shared = not fir.graph.folds and len({t.key for t in tests}) == len(tests)
    checks = set()
    # Without folds every constant in ``fir`` is a literal or fixed, and
    # so is an AND of fixed masks: each has a slot.
    for _, masks, value in weighed if shared else ():
        if len(masks) > 1 and any(slots[mask] < count for mask in masks):
            shared = False
            break
        mask = slots[reduce(and_, masks, 0xFFFF)]
        value = slots[value]
        if mask < count or value < count:
            checks.add((mask, value, not values[value] & ~values[mask]))
    if not shared:
        node = fir.graph.node
        for constant in [
            *(node(nid).arg0 for nid in live if node(nid).kind == CONST),
            *(test.mask for test in tests),
        ]:
            if constant not in slots:
                slots[constant] = len(values)
                values += (constant,)
    keyed = tuple(
        (test.index, slots[test.mask], slots[test.value]) for test in tests
    )
    checks = tuple(checks) if shared else ()
    return Template(fir, values, live, slots, keyed, checks), shared


@dataclass(frozen=True, eq=False)
class SetEntry:
    """One bound filter as the set compiler sees it.

    ``key`` is what the compiled set reports when the filter accepts
    (the demultiplexer uses the port id): stable across re-binds, so a
    filter that merely moves in application order keeps its linked
    chain.  ``copy_all`` is baked in at compile time, so flipping it on
    a live port needs a new entry.  Entries compare by identity: a
    compile reuses the previous set's leaves whose entries are the
    same objects in the same order.

    The rest is recorded by :func:`lower_entry` the first time a compile
    sees the entry; an entry belongs to one short-circuit mode, that of
    the set it is bound into.  ``necessary`` is the filter's
    :func:`necessary_tests` as ``{(word, mask): value}``.  ``template``
    is the :class:`Template` it is read off, its skeleton's or its own,
    and ``values`` what fills that template's slots.  ``facts`` are its
    live node count and value numbers (its share of
    :class:`repro.core.irgen.IRStats`), made from its template when the
    stats are first read.
    """

    key: Hashable
    program: FilterProgram
    report: ValidationReport
    copy_all: bool
    necessary: Mapping[tuple[int, int], int] | None = field(
        default=None, repr=False
    )
    template: Template | None = field(default=None, repr=False)
    values: tuple[int, ...] = field(default=(), repr=False)
    facts: tuple | None = field(default=None, repr=False)


def lower_entry(
    entry: SetEntry,
    mode: ShortCircuitMode,
    templates: MutableMapping | None = None,
) -> None:
    """Record ``entry``'s necessary tests, template and values on the
    entry: the one place a rule is lowered.

    ``templates`` is a compiled set's table from ``(mode, skeleton)`` to
    :class:`Template`.  A program whose skeleton it holds is read off
    the template: its necessary tests are filled in from its literals
    and nothing is lowered.  Otherwise the program is lowered, and the
    lowering becomes the template of a skeleton the table lacks when
    every program of the skeleton can share it, or else the entry's own
    template.  Every chain holding the entry is built from its template
    (:func:`repro.core.irgen._emit_chain`).
    """
    shape, values = skeleton(entry.program)
    key = (mode, shape)
    template = known = None if templates is None else templates.get(key)
    necessary = None if known is None else known.necessary(values)
    if necessary is None:
        fir = lower_program(entry.program, entry.report, mode)
        weighed: list = []
        tests = necessary_tests(fir, weighed)
        template, shared = _template(fir, tests, weighed, values)
        if shared and known is None and templates is not None:
            templates[key] = template
        necessary = {test.key: test.value for test in tests}
        values = template.values
    object.__setattr__(entry, "necessary", necessary)
    object.__setattr__(entry, "template", template)
    object.__setattr__(entry, "values", values)


@dataclass(eq=False, slots=True)
class DispatchTree:
    """The section 7 decision table over a filter set: one probe.

    The root carries a ``discriminant`` (word, mask), per-value
    ``buckets`` and a ``fallback`` for packets matching no bucket (or
    too short for the field); each of those is a leaf, a tree whose
    ``discriminant`` is None and whose ``entries`` are the chain it
    evaluates.  Every tree carries the ``entries`` under it in
    application order.  Entries the analysis could not bucket are
    merged *into every bucket* (and form the fallback), preserving
    total order.  A set no key can split is one leaf.

    A compiled set's tree is also its linked code: the backend
    (:func:`repro.core.irgen.compile_ir_set`) sets each node's
    ``function(packet, _n)``, the ``chain`` record its factory comes
    from and the ``arguments`` the factory got, and the root's
    ``targets``, the probe's map from bucket value to leaf function,
    once per node.  A leaf :func:`_leaf` keeps from the tree being
    replaced is kept linked.

    The root :func:`dispatch_root` builds also carries ``tallies``, what
    it groups by: ``(members, counts, cover)``, the entries under it and
    :func:`_count`'s tallies over them, which is all the key choice
    reads.  The next compile from the root takes them over, updating
    them in place, and leaves None ("spent"); a leaf's are None.
    """

    discriminant: tuple[int, int] | None
    buckets: Mapping[int, "DispatchTree"]
    fallback: "DispatchTree | None"
    entries: tuple[SetEntry, ...]
    function: Callable | None = field(default=None, repr=False)
    chain: object = field(default=None, repr=False)
    arguments: tuple = field(default=(), repr=False)
    targets: Mapping[int, Callable] | None = field(default=None, repr=False)
    tallies: tuple | None = field(default=None, repr=False)


def _leaf(members: tuple, before: DispatchTree | None) -> DispatchTree:
    """The leaf chain over ``members``: ``before`` (the leaf at the same
    place in the tree being replaced) when it holds the same entry
    objects in the same order."""
    if before is not None and before.entries == members:
        return before
    return DispatchTree(None, {}, None, members)


def _count(counts: dict, cover: dict, tests: Mapping, step: int) -> None:
    """Add ``step`` (+1 or -1) entries requiring ``tests`` to the
    per-key tallies: ``counts[key][value]`` entries require ``value``
    of ``key``, ``cover[key]`` require any.  A tally that reaches zero
    is deleted, so ``len(counts[key])`` is the key's distinct values."""
    for key, value in tests.items():
        values = counts.setdefault(key, {})
        number = values.get(value, 0) + step
        if number:
            values[value] = number
        else:
            del values[value]
        number = cover[key] = cover.get(key, 0) + step
        if not number:
            del counts[key], cover[key]


def _split_key(counts: Mapping, cover: Mapping) -> tuple[int, int] | None:
    """The (word, mask) the root probes: the most distinct required
    values, then the most entries covered, then the lowest word, then
    the larger mask.  A total order, so the choice never depends on the
    order in which the keys were first seen; None when no key covers
    two entries (a straight chain is cheaper)."""
    key = max(
        counts,
        key=lambda k: (len(counts[k]), cover[k], -k[0], k[1]),
        default=None,
    )
    return key if key is not None and cover[key] >= 2 else None


def build_dispatch_tree(
    entries: Sequence[SetEntry], mode: ShortCircuitMode
) -> DispatchTree:
    """Bucket ``entries`` (in application order) by their necessary
    equalities.

    This is the predicate-reordering pass: instead of each filter
    re-testing the discriminating field in chain order, the shared
    probe runs once up front.  The root probes :func:`_split_key` of
    the tallies over every entry; no key covering two entries leaves
    one chain.  Priority order is *not* reordered — every leaf keeps
    its entries in the order they were given.

    The reference grouping: a compiled set's root is grouped by
    :func:`dispatch_root`, which keeps the tallies this function counts
    and yields the same tree.
    """
    ordered = tuple(entries)
    counts: dict = {}
    cover: dict = {}
    for entry in ordered:
        if entry.necessary is None:
            lower_entry(entry, mode)
        _count(counts, cover, entry.necessary, 1)
    key = _split_key(counts, cover)
    if key is None:
        return DispatchTree(None, {}, None, ordered)
    return _branch(ordered, key, None)


def _branch(
    ordered: tuple[SetEntry, ...],
    key: tuple[int, int],
    previous: DispatchTree | None,
) -> DispatchTree:
    """Split ``ordered`` on ``key``: one bucket per required value, and
    the entries that do not require one (the leftovers) merged into
    every bucket and forming the fallback.  A leaf of ``previous`` at
    the same place is kept when its entries did not change."""
    grouped: dict[int, list[int]] = {}
    leftovers: list[int] = []  # positions in ``ordered``
    for position, entry in enumerate(ordered):
        value = entry.necessary.get(key)
        if value is None:
            leftovers.append(position)
        else:
            grouped.setdefault(value, []).append(position)
    if previous is not None and previous.discriminant != key:
        previous = None
    pick = ordered.__getitem__
    buckets = {
        value: _leaf(
            tuple(map(pick, sorted(group + leftovers) if leftovers else group)),
            previous.buckets.get(value) if previous else None,
        )
        for value, group in grouped.items()
    }
    fallback = _leaf(
        tuple(map(pick, leftovers)), previous.fallback if previous else None
    )
    return DispatchTree(key, buckets, fallback, ordered)


def _without(entries: tuple, drop: frozenset) -> tuple:
    return tuple(filterfalse(drop.__contains__, entries)) if drop else entries


def dispatch_root(
    entries: Sequence[SetEntry],
    mode: ShortCircuitMode,
    previous: DispatchTree | None,
    templates: MutableMapping,
) -> tuple[DispatchTree, frozenset | None]:
    """The dispatch tree over ``entries`` (in application order), from
    ``previous``, the root of the set they replace.

    The delta is the entries detached (in the previous set, not in
    ``entries``) and attached; the tallies the previous root carries
    change by those alone and pass to the new root.  A previous root
    whose tallies a compile already took (None: spent) is counted from
    nothing, so a second compile from one set, or one after a compile
    that raised, regroups.  When the root keeps its key, every changed
    entry requires a value of it, and the entries both sets hold keep
    their relative order, only the buckets the changed entries leave or
    enter are rebuilt and the rest of the root is the previous tree's.
    Otherwise the root is regrouped on the key the tallies choose,
    reusing every leaf that did not change.  ``previous=None`` is the
    delta from an empty set, so a cold compile is this same function;
    the tree equals :func:`build_dispatch_tree`'s over ``entries``
    either way.

    An attached entry whose necessary tests are not known gets them
    from :func:`lower_entry`, in application order: read off its
    skeleton's template in ``templates``, or lowered.
    Returns ``(tree, touched)``: ``touched`` are the bucket values whose
    leaves may differ from the previous tree's, or None when the root
    was regrouped.
    """
    ordered = tuple(entries)
    tallies = None
    if previous is not None:
        if previous.entries == ordered:
            return previous, frozenset()
        tallies, previous.tallies = previous.tallies, None  # spent
    base = None if tallies is None else previous
    before, counts, cover = tallies or (frozenset(), {}, {})
    members = frozenset(ordered)
    if len(members) != len(ordered):
        raise ValueError("an entry appears twice in one set")
    gone = before - members
    attached = tuple(filterfalse(before.__contains__, ordered))
    for entry in attached:
        if entry.necessary is None:
            lower_entry(entry, mode, templates)
    for entry in gone:
        _count(counts, cover, entry.necessary, -1)
    for entry in attached:
        _count(counts, cover, entry.necessary, 1)
    key = _split_key(counts, cover)
    touched = None
    if key is None:
        root = DispatchTree(None, {}, None, ordered)
    elif (
        base is None
        or base.discriminant != key
        or not all(key in entry.necessary for entry in gone)
        or not all(key in entry.necessary for entry in attached)
        or _without(base.entries, gone) != _without(ordered, frozenset(attached))
    ):
        root = _branch(ordered, key, previous)
    else:
        root, touched = _patch(base, ordered, key, counts[key], gone, attached)
    root.tallies = (members, counts, cover)
    return root, touched


def _patch(
    base: DispatchTree,
    ordered: tuple[SetEntry, ...],
    key: tuple[int, int],
    values: Mapping[int, int],
    gone: frozenset,
    attached: tuple[SetEntry, ...],
) -> tuple[DispatchTree, frozenset]:
    """``base`` with only the buckets ``gone`` leave and ``attached``
    enter rebuilt.  Every changed entry requires a value of ``key``, so
    the fallback is ``base``'s; ``values`` are the values some entry
    now requires, one bucket each."""
    buckets = dict(base.buckets)
    touched = frozenset(
        entry.necessary[key] for group in (gone, attached) for entry in group
    )
    rank = None
    for value in touched:
        before = buckets.pop(value, None)
        if value not in values:
            continue  # the bucket emptied
        kept = _without(before.entries if before else base.fallback.entries, gone)
        joining = tuple(e for e in attached if e.necessary[key] == value)
        if kept and joining:
            if rank is None:
                rank = dict(zip(ordered, range(len(ordered))))
            joining = tuple(sorted(kept + joining, key=rank.__getitem__))
        buckets[value] = _leaf(joining or kept, before)
    return DispatchTree(key, buckets, base.fallback, ordered), touched
