"""IR-to-Python code generation: bodies, leaf chains and dispatch trees.

Three layers, bottom up:

* :func:`emit_ir_body` turns one optimized :class:`repro.core.ir.FilterIR`
  into straight-line Python statements — the registerized lowering that
  used to live as a stack-walk in :mod:`repro.core.jit` now runs off
  the DAG, so single-use values inline into their consumers, multi-use
  values get one temp, and values a surrounding chain pre-computed
  (hoisted) are referenced by name instead of recomputed.

* A *leaf chain* is the unit of compilation: the filters one dispatch
  leaf evaluates in order, lowered (:func:`repro.core.ir.lower_program`),
  *specialized* to the probe values above the leaf (a filter's own test
  of the dispatched field folds away; the probe already paid for it) and
  emitted as one function.  Values any two bodies in a chain share are
  hoisted into the chain preamble, loaded through a never-faulting
  padded form so the preamble cannot raise on behalf of a body whose own
  length guard would have exited first.  Compiled chains live in one
  bounded, value-keyed LRU (:data:`CHAIN_CACHE_MAX`,
  :func:`chain_cache_info`); ranks stay out of the cached code, which is
  a *factory* closed over per-entry result constants.

* :func:`compile_ir_set` compiles a whole bound filter set: build the
  dispatch tree (:func:`repro.core.opt.build_dispatch_tree`), ask the
  chain cache for every leaf, and link the instantiated chains under
  nested hash probes over the discriminating header words.  Re-binding
  one filter therefore recompiles one chain, not the set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Mapping, NamedTuple, Sequence

from .interpreter import ShortCircuitMode
from .ir import CONST, INDB, INDW, LOAD, Anchor, Bound, ExitIf, FilterIR, ValueGraph
from .ir import lower_program
from .opt import (
    DispatchTree,
    SetEntry,
    build_dispatch_tree,
    live_nodes,
    specialize_filter,
    value_numbers,
)
from .words import get_byte, get_word

__all__ = [
    "SetEntry",
    "IRStats",
    "CompiledIRSet",
    "compile_ir_set",
    "emit_ir_body",
    "CHAIN_CACHE_MAX",
    "chain_cache_info",
    "chain_cache_clear",
]

_CMP = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}
_CMP_NEG = {"eq": "!=", "ne": "==", "lt": ">=", "le": ">", "gt": "<=", "ge": "<"}
_BITS = {"and": "&", "or": "|", "xor": "^"}
_ARITH = {"add": "+", "sub": "-", "mul": "*"}


def _binop_src(kind: str, a: str, b: str) -> str:
    """Python expression for ``a <kind> b`` (operand strings ready)."""
    if kind in _CMP:
        return f"1 if {a} {_CMP[kind]} {b} else 0"
    if kind in _BITS:
        return f"{a} {_BITS[kind]} {b}"
    if kind in _ARITH:
        return f"({a} {_ARITH[kind]} {b}) & 0xFFFF"
    if kind == "div":
        return f"{a} // {b}"
    if kind == "rsh":
        return f"{a} >> min({b}, 16)"
    if kind == "lsh":
        return f"({a} << min({b}, 16)) & 0xFFFF"
    raise AssertionError(f"unknown binop kind {kind!r}")


def emit_ir_body(
    fir: FilterIR,
    emit: Callable[[str], None],
    indent: str,
    *,
    terminate: Callable[[str], str],
    length_expr: str = "len(packet)",
    name_prefix: str = "t",
    prebound: Mapping[int, str] | None = None,
    live: set[int] | None = None,
) -> None:
    """Emit one filter body from its IR.

    Same contract as the old stack-walking emitter: ``emit`` receives
    one statement at a time, ``terminate(expr)`` ends evaluation with
    the truth of ``expr`` (``'False'``/``'True'`` are the constant
    verdicts), ``length_expr`` names the packet length.  ``prebound``
    maps node ids to local names the caller already computed (chain
    hoisting); everything else materializes lazily — at its first use,
    which is always at or after its guarding ``Bound`` step.  ``live``
    is ``live_nodes(fir)`` when the caller already has it.
    """
    graph = fir.graph
    if live is None:
        live = live_nodes(fir)
    uses: dict[int, int] = {}

    def bump(nid: int) -> None:
        uses[nid] = uses.get(nid, 0) + 1

    for nid in live:
        node = graph.node(nid)
        if node.kind in (CONST, LOAD):
            continue
        bump(node.arg0)
        if node.arg1 is not None:
            bump(node.arg1)
    bump(fir.result)
    for step in fir.steps:
        if isinstance(step, ExitIf):
            bump(step.cond)
        elif isinstance(step, Anchor):
            bump(step.node)

    names: dict[int, str] = dict(prebound) if prebound else {}
    state = {"guaranteed": 0, "temp": 0}

    def load_expr(index: int) -> str:
        offset = 2 * index
        if offset + 2 <= state["guaranteed"]:
            return f"(packet[{offset}] << 8) | packet[{offset + 1}]"
        # The word may be the zero-padded odd tail byte.
        return (
            f"(packet[{offset}] << 8) | "
            f"(packet[{offset + 1}] if {length_expr} > {offset + 1} else 0)"
        )

    def raw_expr(nid: int) -> str:
        node = graph.node(nid)
        kind = node.kind
        if kind == CONST:
            return str(node.arg0)
        if kind == LOAD:
            return load_expr(node.arg0)
        if kind == INDW:
            return f"_get_word(packet, {subexpr(node.arg0)})"
        if kind == INDB:
            return f"_get_byte(packet, {subexpr(node.arg0)})"
        return _binop_src(kind, subexpr(node.arg0), subexpr(node.arg1))

    def subexpr(nid: int) -> str:
        """Operand-position expression: a name, a literal, or a
        parenthesized inline computation (single-use values only)."""
        name = names.get(nid)
        if name is not None:
            return name
        node = graph.node(nid)
        if node.kind == CONST:
            return str(node.arg0)
        if uses.get(nid, 0) > 1:
            return materialize(nid)
        return f"({raw_expr(nid)})"

    def materialize(nid: int) -> str:
        expression = raw_expr(nid)  # emits operand temps first
        state["temp"] += 1
        name = f"{name_prefix}{state['temp']}"
        emit(f"{indent}{name} = {expression}")
        names[nid] = name
        return name

    def bool_expr(nid: int, want_true: bool) -> str:
        node = graph.node(nid)
        if (
            nid not in names
            and node.kind in _CMP
            and uses.get(nid, 0) <= 1
        ):
            table = _CMP if want_true else _CMP_NEG
            return (
                f"{subexpr(node.arg0)} {table[node.kind]} "
                f"{subexpr(node.arg1)}"
            )
        expression = subexpr(nid)
        return f"{expression} != 0" if want_true else f"{expression} == 0"

    for step in fir.steps:
        if isinstance(step, Bound):
            if step.min_bytes > state["guaranteed"]:
                emit(
                    f"{indent}if {length_expr} < {step.min_bytes}: "
                    f"{terminate('False')}"
                )
                state["guaranteed"] = step.min_bytes
        elif isinstance(step, Anchor):
            if step.node not in names:
                materialize(step.node)
        else:
            verdict = "True" if step.returns else "False"
            emit(
                f"{indent}if {bool_expr(step.cond, step.when)}: "
                f"{terminate(verdict)}"
            )

    result = graph.node(fir.result)
    if result.kind == CONST:
        emit(f"{indent}{terminate('True' if result.arg0 else 'False')}")
    else:
        emit(f"{indent}{terminate(bool_expr(fir.result, True))}")


# -- leaf chains: the unit of compilation ------------------------------------


CHAIN_CACHE_MAX = 16384
"""Most leaf chains the process keeps compiled (LRU beyond that) — the
same order as :func:`repro.core.jit.compile_filter`'s memo.  The memory
a full cache holds is measured in docs/PERFORMANCE.md ("Incremental
re-bind")."""


class _Chain(NamedTuple):
    """One cached leaf chain."""

    factory: Callable  #: factory(*result constants) -> chain(packet, _n)
    hoisted: int       #: values the chain preamble computes once
    facts: tuple       #: per entry: (live nodes, value numbers) for IRStats


class ChainCacheInfo(NamedTuple):
    hits: int
    misses: int
    evictions: int
    maxsize: int
    currsize: int


_CHAINS: dict[tuple, _Chain] = {}  # dict order is LRU order
_chain_counts = {"hits": 0, "misses": 0, "evictions": 0}

#: Globals of every generated function.
_RUNTIME = {"_get_word": get_word, "_get_byte": get_byte, "_ONE": (0,)}


def chain_cache_info() -> ChainCacheInfo:
    """Hits, misses and evictions of the chain cache since the process
    started (or :func:`chain_cache_clear`).  Deliberately not an
    :class:`IRStats` field: it depends on process history, which must
    not reach telemetry digests."""
    return ChainCacheInfo(
        maxsize=CHAIN_CACHE_MAX, currsize=len(_CHAINS), **_chain_counts
    )


def chain_cache_clear() -> None:
    _CHAINS.clear()
    _chain_counts.update(hits=0, misses=0, evictions=0)


def _load_factory(source: str) -> Callable:
    scope: dict = {}
    exec(compile(source, "<ir>", "exec"), _RUNTIME, scope)
    return scope["_factory"]


def _result_constants(entries: Sequence[SetEntry]) -> list:
    """What a chain returns (or appends) when entry *i* accepts — the
    only rank-dependent part of a chain, so it is closed over instead of
    emitted: a re-bind that merely shifts ranks re-instantiates."""
    if any(entry.copy_all for entry in entries):
        return [entry.rank for entry in entries]
    return [
        ((entry.rank,), examined) for examined, entry in enumerate(entries, 1)
    ]


def _emit_chain(
    entries: Sequence[SetEntry],
    context: Mapping[tuple[int, int], int],
    mode: ShortCircuitMode,
) -> tuple[str, int, tuple]:
    """Factory source, hoist count and per-entry stats facts for one
    leaf chain.  Temporaries and accept flags are named by position in
    the chain and results come in as ``_r<position>`` parameters, so the
    text depends only on what :func:`_chain_for` keys on."""
    chain_graph = ValueGraph()
    bodies = []
    facts = []
    for entry in entries:
        fir = lower_program(entry.program, entry.report, mode)
        live = live_nodes(fir)
        # A tuple, not the set: once its atoms are seen the collector
        # untracks it, where a thousand cached sets are re-traversed by
        # every full collection for the life of the process.
        facts.append((len(live), tuple(value_numbers(fir, live))))
        bodies.append(specialize_filter(fir, chain_graph, context))
    params = ", ".join(f"_r{position}" for position in range(len(entries)))
    lines = [f"def _factory({params}):", "    def _chain(packet, _n):"]

    # Hoist values shared by two or more bodies.  Only non-faultable
    # nodes qualify, and loads use a never-raising padded form: a
    # body whose length guard would have rejected the packet never
    # reads the (then meaningless, but harmless) hoisted value.
    body_live = [live_nodes(fir) for fir in bodies]
    counts: dict[int, int] = {}
    for node_set in body_live:
        for nid in node_set:
            counts[nid] = counts.get(nid, 0) + 1
    hoisted: dict[int, str] = {}

    def hoist_operand(nid: int) -> str:
        if nid in hoisted:
            return hoisted[nid]
        node = chain_graph.node(nid)
        assert node.kind == CONST, "hoisted operands are hoisted or const"
        return str(node.arg0)

    for nid in sorted(n for n, c in counts.items() if c >= 2):
        node = chain_graph.node(nid)
        if node.kind == CONST or chain_graph.faultable(nid):
            continue
        hname = f"_h{nid}"
        if node.kind == LOAD:
            off = 2 * node.arg0
            expression = (
                f"((packet[{off}] << 8) | packet[{off + 1}]) "
                f"if _n > {off + 1} else "
                f"((packet[{off}] << 8) if _n > {off} else 0)"
            )
        else:
            expression = _binop_src(
                node.kind,
                hoist_operand(node.arg0),
                hoist_operand(node.arg1),
            )
        lines.append(f"        {hname} = {expression}")
        hoisted[nid] = hname

    has_copy_all = any(entry.copy_all for entry in entries)
    if has_copy_all:
        lines.append("        _res = []")
    for position, (entry, fir, live) in enumerate(
        zip(entries, bodies, body_live)
    ):
        accept = f"_a{position}"
        guarded = any(chain_graph.faultable(n) for n in live)
        lines.append(f"        {accept} = False")
        lines.append("        for _ in _ONE:")
        indent = "            "
        if guarded:
            lines.append(f"{indent}try:")
            indent += "    "

        def terminate(expr: str, _accept: str = accept) -> str:
            if expr == "False":
                return "break"
            return f"{_accept} = {expr}; break"

        emit_ir_body(
            fir, lines.append, indent,
            terminate=terminate,
            length_expr="_n",
            name_prefix=f"t{position}_",
            prebound=hoisted,
            live=live,
        )
        if guarded:
            lines.append("            except (IndexError, ZeroDivisionError):")
            lines.append("                break")
        lines.append(f"        if {accept}:")
        if has_copy_all:
            lines.append(f"            _res.append(_r{position})")
            if not entry.copy_all:
                lines.append(f"            return _res, {position + 1}")
        else:
            lines.append(f"            return _r{position}")
    empty = "_res" if has_copy_all else "()"
    lines.append(f"        return ({empty}, {len(entries)})")
    lines.append("    return _chain")
    return "\n".join(lines) + "\n", len(hoisted), tuple(facts)


def _chain_for(
    entries: Sequence[SetEntry],
    context: Mapping[tuple[int, int], int],
    mode: ShortCircuitMode,
) -> _Chain:
    """The compiled chain for ``entries`` under ``context``, from the
    cache when an equal chain was compiled before.

    The key is exactly what the generated body bakes in: each entry's
    program and copy-all flag in order, the full-word facts
    :func:`repro.core.opt.specialize_filter` folds away, and the mode.
    The validation report is a pure function of (program, mode), so it
    stays out; ranks stay out because the body does not contain them.
    """
    key = (
        mode,
        tuple(sorted(
            (index, value)
            for (index, mask), value in context.items()
            if mask == 0xFFFF
        )),
        *(part for e in entries for part in (e.program, e.copy_all)),
    )
    chain = _CHAINS.pop(key, None)
    if chain is not None:
        _CHAINS[key] = chain  # re-insert: most recently used
        _chain_counts["hits"] += 1
        return chain
    _chain_counts["misses"] += 1
    source, hoisted, facts = _emit_chain(entries, context, mode)
    chain = _Chain(_load_factory(source), hoisted, facts)
    if len(_CHAINS) >= CHAIN_CACHE_MAX:
        _CHAINS.pop(next(iter(_CHAINS)))
        _chain_counts["evictions"] += 1
    _CHAINS[key] = chain
    return chain


# -- dispatch nodes and whole-set linking ------------------------------------


def _dispatch_source(index: int, mask: int) -> str:
    offset = 2 * index
    return (
        "def _factory(_map, _fallback):\n"
        "    def _dsp(packet, _n):\n"
        f"        if _n > {offset + 1}:\n"
        f"            _w = ((packet[{offset}] << 8)"
        f" | packet[{offset + 1}]) & {mask:#x}\n"
        f"        elif _n > {offset}:\n"
        f"            _w = (packet[{offset}] << 8) & {mask:#x}\n"
        "        else:\n"
        # Field entirely outside the packet: every bucketed filter's
        # necessary PUSHWORD would fault, so only fallbacks apply.
        "            return _fallback(packet, _n)\n"
        "        _c = _map.get(_w)\n"
        "        if _c is None:\n"
        "            return _fallback(packet, _n)\n"
        "        return _c(packet, _n)\n"
        "    return _dsp\n"
    )


@lru_cache(maxsize=256)
def _dispatch_factory(index: int, mask: int) -> Callable:
    """``factory(map, fallback) -> probe(packet, _n)`` for one (word,
    mask) discriminant; the bucket map is a real dict of callables."""
    return _load_factory(_dispatch_source(index, mask))


def _fold_tree(node: DispatchTree, context: dict, leaf, branch):
    """Bottom-up fold over a dispatch tree: ``leaf(entries, context)``
    at every chain, ``branch(discriminant, targets, fallback)`` above,
    with ``context`` the probe values established on the way down."""
    if node.discriminant is None:
        return leaf(node.entries, context)
    targets = {
        value: _fold_tree(
            subtree, {**context, node.discriminant: value}, leaf, branch
        )
        for value, subtree in node.buckets.items()
    }
    fallback = _fold_tree(node.fallback, context, leaf, branch)
    return branch(node.discriminant, targets, fallback)


def _listing(tree: DispatchTree, mode: ShortCircuitMode) -> str:
    """Every chain and dispatch node of a compiled set as text.

    Emission is a pure function of what the chain cache keys on, so
    re-emitting on demand yields the source that was compiled."""
    blocks: list[str] = []

    def add(header: str, source: str) -> str:
        name = f"node {len(blocks)}"
        blocks.append(f"# {name}: {header}\n{source}")
        return name

    def leaf(entries, context):
        results = ", ".join(map(repr, _result_constants(entries)))
        source, _, _ = _emit_chain(entries, context, mode)
        return add(f"chain, _factory({results})", source)

    def branch(discriminant, targets, fallback):
        mapping = ", ".join(
            f"{value:#x}: {name}" for value, name in sorted(targets.items())
        )
        return add(
            f"dispatch, _factory({{{mapping}}}, {fallback})",
            _dispatch_source(*discriminant),
        )

    root = _fold_tree(tree, {}, leaf, branch)
    blocks.append(f"# classify(packet) = {root}(packet, len(packet))\n")
    return "\n".join(blocks)


@dataclass(frozen=True)
class IRStats:
    """Compiler accounting, published as gauges by the device layer."""

    filters: int
    nodes_before_cse: int
    nodes_after_cse: int
    dispatch_depth: int
    chains: int
    hoisted: int


@dataclass(frozen=True)
class CompiledIRSet:
    """A bound filter set compiled through the IR pipeline.

    ``classify(packet)`` returns ``(ranks, predicates)``: the ranks of
    the accepting filters in delivery order (first-match unless an
    accepting filter opted into copy-all), and how many filter bodies
    were entered before resolution — the figure-of-merit the cost model
    charges for.  ``source`` lists every generated chain and dispatch
    node for inspection and tests (built on first read); ``stats``
    carries the pass statistics.  The set holds its linked functions,
    so chain-cache eviction never affects a live set.
    """

    size: int
    discriminant: tuple[int, int] | None  #: root (word index, mask)
    stats: IRStats
    _function: object
    _tree: DispatchTree = field(repr=False)
    _mode: ShortCircuitMode = field(repr=False)

    def classify(self, packet: bytes) -> tuple[Sequence[int], int]:
        return self._function(packet)  # type: ignore[operator]

    @cached_property
    def source(self) -> str:
        return _listing(self._tree, self._mode)


def compile_ir_set(
    entries: Sequence[SetEntry],
    *,
    mode: ShortCircuitMode = ShortCircuitMode.PUSH_RESULT,
) -> CompiledIRSet:
    """Compile ``entries`` (already validated, in rank order): build the
    dispatch tree over the whole set, then lower → specialize → emit →
    ``compile()`` each leaf chain the process has not compiled before.

    Chains are memoized by value (:func:`_chain_for`), not whole sets:
    a SETFILTER on an N-rule set leaves N-1 chains byte-for-byte what
    they were except for their ranks, which the cached factories take
    as arguments — so a re-bind compiles one chain and re-links the
    rest, and several demultiplexers bound to overlapping ACLs share
    code.  Two cases cost a full compile, as they always did: a set the
    analysis cannot bucket is one chain, and re-binding an unbucketable
    filter (merged into every bucket) misses every chain.

    ``IRStats.nodes_before_cse``/``nodes_after_cse`` equal what
    :func:`repro.core.opt.cse_filter_set` reports for the set, assembled
    from per-filter facts cached with the chains instead of a whole-set
    transfer per compile.
    """
    tree = build_dispatch_tree(entries, mode)

    facts: dict[int, tuple] = {}  # rank -> (live nodes, value numbers)
    hoisted = []

    def leaf(bound, context):
        chain = _chain_for(bound, context, mode)
        hoisted.append(chain.hoisted)
        for entry, fact in zip(bound, chain.facts):
            facts[entry.rank] = fact
        return chain.factory(*_result_constants(bound))

    def branch(discriminant, targets, fallback):
        return _dispatch_factory(*discriminant)(targets, fallback)

    root = _fold_tree(tree, {}, leaf, branch)

    def _classify(packet):
        return root(packet, len(packet))

    stats = IRStats(
        filters=len(entries),
        nodes_before_cse=sum(before for before, _ in facts.values()),
        nodes_after_cse=len(
            set().union(*(numbers for _, numbers in facts.values()))
        ),
        dispatch_depth=tree.depth,
        chains=len(hoisted),
        hoisted=sum(hoisted),
    )
    return CompiledIRSet(
        size=len(entries),
        discriminant=tree.discriminant,
        stats=stats,
        _function=_classify,
        _tree=tree,
        _mode=mode,
    )
