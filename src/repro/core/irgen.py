"""IR-to-Python code generation: bodies, leaf chains and the dispatch probe.

Three layers, bottom up:

* :func:`emit_ir_body` turns one optimized :class:`repro.core.ir.FilterIR`
  into straight-line Python statements — the registerized lowering that
  used to live as a stack-walk in :mod:`repro.core.jit` now runs off
  the DAG, so single-use values inline into their consumers, multi-use
  values get one temp, and values a surrounding chain pre-computed
  (hoisted) are referenced by name instead of recomputed.  A run of
  reject exits that each compare a whole in-bounds word with a literal
  is tested as bytes: one ``packet[a:b] == b'…'`` per contiguous
  stretch of words.

* A *leaf chain* is the unit of compilation: the filters one dispatch
  leaf evaluates in order, each built from its template (below),
  *specialized* to the bucket's probe value (a filter's own test of the
  dispatched field folds away; the probe already paid for it) and
  emitted as one function.  Values any two bodies in a chain share are
  hoisted into the chain preamble, loaded through a never-faulting
  padded form so the preamble cannot raise on behalf of a body whose own
  length guard would have exited first.  Result keys and constants stay
  out of the emitted code, which is a *factory* closed over them.

* :func:`compile_ir_set` compiles a whole bound filter set: build the
  dispatch tree (:func:`repro.core.opt.dispatch_root`), which is also
  the linked set — each node carries its function, the record of the
  chain its factory comes from and the arguments the factory got — and
  link every leaf that has no function yet under one hash probe over
  the discriminating header word.  Given the set it replaces, it
  applies the entries detached and attached to the root's grouping and
  keeps every leaf whose entries did not change, linked as it is, so a
  re-bind links the bucket the filter left and the one it entered; the
  rest of the set costs nothing.  Rules are lowered only by
  :func:`repro.core.opt.lower_entry`, which gives every rule a
  :class:`repro.core.opt.Template`.  Rules of one *skeleton* (the same
  instruction words, their literals in the same classes:
  :func:`repro.core.opt.skeleton`) share one lowering when they can: the
  set keeps a table from skeleton to template, and a rule whose
  skeleton it holds is read off, not lowered — its necessary tests
  filled in from its literals.  A rule whose lowering no other rule can
  share (it folds a literal, say) has a template of its own.  Every
  leaf's chain is read off one table, keyed by what the chain's text
  depends on: the whole words the probe fixes, each entry's template
  and copy-all flag, and which of the chain's values (the probe's, then
  each entry's constants) are equal.  The first leaf of a key emits the
  chain, each rule built from its template's lowering with the
  template's constants mapped to the rule's
  (:meth:`repro.core.opt.Template.constants`), and the record keeps
  where each of the chain's constants first comes among those values;
  every later leaf of the key fills in its own.  Chains of one text
  share one loaded factory through a third table, from text to factory,
  so ``compile()`` runs once per shape.  The three tables are handed
  from set to set and hold their contents weakly: a chain record lives
  while a leaf holds it, a template while an entry reads from it, a
  shape while a record holds its factory.  Nothing of a program is kept
  process-wide; the dispatch probe, one text for every set, is one
  constant chain record loaded at import.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Sequence
from weakref import WeakValueDictionary

from .interpreter import ShortCircuitMode
from .ir import CONST, INDB, INDW, LOAD, Anchor, Bound, ExitIf, FilterIR, ValueGraph
from .opt import (
    DispatchTree,
    SetEntry,
    dispatch_root,
    live_nodes,
    specialize_filter,
)
from .words import get_byte, get_word

__all__ = [
    "SetEntry",
    "IRStats",
    "CompiledIRSet",
    "compile_ir_set",
    "emit_ir_body",
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


def _lift(constants: list, value: int | bytes) -> str:
    """Append ``value`` to ``constants`` and name the factory parameter
    that will hold it."""
    constants.append(value)
    return f"_k{len(constants) - 1}"


def emit_ir_body(
    fir: FilterIR,
    emit: Callable[[str], None],
    indent: str,
    *,
    terminate: Callable[[str], str],
    constants: list,
    length_expr: str = "len(packet)",
    name_prefix: str = "t",
    prebound: Mapping[int, str] | None = None,
    live: set[int] | None = None,
) -> None:
    """Emit one filter body from its IR.

    Same contract as the old stack-walking emitter: ``emit`` receives
    one statement at a time, ``terminate(expr)`` ends evaluation with
    the truth of ``expr`` (``'False'``/``'True'`` are the constant
    verdicts), ``length_expr`` names the packet length.  Each constant
    the body uses is appended to ``constants`` and read as the parameter
    ``_k<i>``, ``i`` its position there, which the caller's factory
    declares; offsets and lengths stay in the text.  ``prebound``
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
            return _lift(constants, node.arg0)
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
            return _lift(constants, node.arg0)
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

    def word_test(nid: int, kind: str) -> tuple[int, int] | None:
        """``(word index, constant)`` when ``nid`` is a ``kind`` compare
        of a whole word the length guard covers with a constant, inlined
        at its one use — a test a byte-slice compare can take over."""
        node = graph.node(nid)
        if node.kind != kind or nid in names or uses.get(nid, 0) > 1:
            return None
        load, const = graph.node(node.arg0), graph.node(node.arg1)
        if load.kind == CONST:
            load, const = const, load
        if (
            load.kind != LOAD
            or const.kind != CONST
            or 2 * load.arg0 + 2 > state["guaranteed"]  # odd-tail word
        ):
            return None
        return load.arg0, const.arg0

    def reject_test(step) -> tuple[int, int] | None:
        """A word test on a side exit that rejects unless it holds."""
        if not isinstance(step, ExitIf) or step.returns:
            return None
        return word_test(step.cond, "ne" if step.when else "eq")

    def emit_exit(step: ExitIf) -> None:
        emit(
            f"{indent}if {bool_expr(step.cond, step.when)}: "
            f"{terminate('True' if step.returns else 'False')}"
        )

    def emit_word_run(run: list[ExitIf], at_end: bool) -> bool:
        """Emit a run of reject exits that each test one word against a
        constant (``at_end``: nothing but the verdict follows).  Words
        tested once merge into byte-slice compares, one per contiguous
        stretch; the verdict joins them when it is the same kind of
        test.  True when the verdict was emitted too."""
        tests = [reject_test(step) for step in run]
        tested = [index for index, _ in tests]
        verdict = word_test(fir.result, "eq") if at_end else None
        if verdict is not None:
            tests.append(verdict)
            tested.append(verdict[0])
        merged = {i: value for i, value in tests if tested.count(i) == 1}
        if len(merged) < 2:
            for step in run:
                emit_exit(step)
            return False
        for step, (index, _) in zip(run, tests):
            if index not in merged:
                emit_exit(step)
        if verdict is not None and verdict[0] not in merged:
            verdict = None
        stretches: list[list[int]] = []
        for index in sorted(merged):
            if stretches and stretches[-1][-1] == index - 1:
                stretches[-1].append(index)
            else:
                stretches.append([index])
        compares = [
            (
                f"packet[{2 * s[0]}:{2 * s[-1] + 2}]",
                _lift(
                    constants,
                    b"".join(merged[i].to_bytes(2, "big") for i in s),
                ),
            )
            for s in stretches
        ]
        last = compares.pop() if verdict is not None else None
        for window, run_bytes in compares:
            emit(f"{indent}if {window} != {run_bytes}: {terminate('False')}")
        if last is None:
            return False
        emit(f"{indent}{terminate(f'{last[0]} == {last[1]}')}")
        return True

    steps = fir.steps
    position = 0
    while position < len(steps):
        step = steps[position]
        position += 1
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
        elif reject_test(step) is None:
            emit_exit(step)
        else:
            run = [step]
            while position < len(steps) and reject_test(steps[position]):
                run.append(steps[position])
                position += 1
            if emit_word_run(run, position == len(steps)):
                return

    result = graph.node(fir.result)
    if result.kind == CONST:
        emit(f"{indent}{terminate('True' if result.arg0 else 'False')}")
    else:
        emit(f"{indent}{terminate(bool_expr(fir.result, True))}")


# -- leaf chains: the unit of compilation ------------------------------------


#: Globals of every generated function.
_RUNTIME = {"_get_word": get_word, "_get_byte": get_byte, "_ONE": (0,)}


def _load_factory(source: str) -> Callable:
    scope: dict = {}
    exec(compile(source, "<ir>", "exec"), _RUNTIME, scope)
    return scope["_factory"]


def _result_constants(entries: Sequence[SetEntry]) -> list:
    """What a chain returns (or appends) when entry *i* accepts — the
    entries' result keys, closed over instead of emitted, so the chain
    text does not depend on them."""
    if any(entry.copy_all for entry in entries):
        return [entry.key for entry in entries]
    return [
        ((entry.key,), examined) for examined, entry in enumerate(entries, 1)
    ]


def _emit_chain(
    entries: Sequence[SetEntry], context: Mapping[tuple[int, int], int]
) -> tuple[str, list, int, int]:
    """Factory source, its constants, hoist count and fold count for
    the leaf chain over ``entries``, each built from its template's
    lowering with the template's constants mapped to the entry's
    (:meth:`repro.core.opt.Template.constants`).  See
    :func:`_emit_bodies`."""
    return _emit_bodies([
        (entry.template.fir, entry.template.constants(entry.values),
         entry.copy_all)
        for entry in entries
    ], context)


def _emit_bodies(
    lowerings: Sequence[tuple[FilterIR, Mapping | None, bool]],
    context: Mapping[tuple[int, int], int],
) -> tuple[str, list, int, int]:
    """Factory source, its constants, hoist count and fold count for
    one leaf chain over ``lowerings``, each a filter's lowering, the map
    from its constants to the filter's own (None: the same) and its
    copy-all flag.  Temporaries and accept flags are named by position in the
    chain, results come in as ``_r<position>`` parameters and the
    constants as ``_k<i>`` after them, so the text depends only on each
    body's shape and copy-all flag in order, the full-word facts
    :func:`repro.core.opt.specialize_filter` folds away, which values
    the chain shares, and the mode.  The factory is called as
    ``_factory(*results, *constants)``.  The fold count is the chain
    graph's :attr:`~repro.core.ir.ValueGraph.folds` after specializing
    every body to ``context``."""
    chain_graph = ValueGraph()
    flags = [copy_all for _, _, copy_all in lowerings]
    bodies = [
        specialize_filter(fir, chain_graph, context, own)
        for fir, own, _ in lowerings
    ]
    constants: list = []
    lines = ["", "    def _chain(packet, _n):"]  # the def line comes last

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
        return _lift(constants, node.arg0)

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

    has_copy_all = any(flags)
    if has_copy_all:
        lines.append("        _res = []")
    for position, (copy_all, fir, live) in enumerate(
        zip(flags, bodies, body_live)
    ):
        accept = f"_a{position}"
        guarded = any(chain_graph.faultable(n) for n in live)
        last = position == len(bodies) - 1 and not (has_copy_all or guarded)
        if last:
            # The last body needs no accept flag: each exit returns.
            indent = "        "

            def terminate(
                expr: str,
                _result: str = f"_r{position}",
                _miss: str = f"((), {len(bodies)})",
            ) -> str:
                if expr == "False":
                    return f"return {_miss}"
                if expr == "True":
                    return f"return {_result}"
                return f"return {_result} if {expr} else {_miss}"
        else:
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
            constants=constants,
            length_expr="_n",
            name_prefix=f"t{position}_",
            prebound=hoisted,
            live=live,
        )
        if last:
            break
        if guarded:
            lines.append("            except (IndexError, ZeroDivisionError):")
            lines.append("                break")
        lines.append(f"        if {accept}:")
        if has_copy_all:
            lines.append(f"            _res.append(_r{position})")
            if not copy_all:
                lines.append(f"            return _res, {position + 1}")
        else:
            lines.append(f"            return _r{position}")
    else:
        empty = "_res" if has_copy_all else "()"
        lines.append(f"        return ({empty}, {len(bodies)})")
    lines.append("    return _chain")
    params = [f"_r{position}" for position in range(len(bodies))]
    params += [f"_k{i}" for i in range(len(constants))]
    lines[0] = f"def _factory({', '.join(params)}):"
    source = "\n".join(lines) + "\n"
    return source, constants, len(hoisted), chain_graph.folds


# -- chains: one emission per key --------------------------------------------


@dataclass(eq=False, slots=True, weakref_slot=True)
class _Chain:
    """A linked chain's text and how its arguments are read off.

    ``factory`` was loaded from ``source`` and keeps its shape loaded;
    ``hoisted`` counts the values the chain's preamble computes (None:
    the dispatch probe).  ``slots`` give, for each constant the factory
    takes after the results, the first position of its value among the
    chain's values (see :func:`_read_off`), a byte run as a tuple of
    positions, one per word; None for the probe and for a record that
    serves its own node alone."""

    source: str
    factory: Callable
    hoisted: int | None
    slots: tuple | None


def _read_off(
    entries: Sequence[SetEntry],
    context: Mapping[tuple[int, int], int],
    shapes: WeakValueDictionary,
    chains: WeakValueDictionary,
) -> tuple[_Chain, tuple]:
    """The chain record of the leaf over ``entries`` under the probe
    ``context``, and the arguments its factory is called with.

    The chain's values are the value of the whole word the probe fixes
    (a masked probe fixes none), then each entry's template constants
    mapped to its own (:meth:`repro.core.opt.Template.constants`).  The
    text depends only on the key: the words fixed, each entry's template
    and copy-all flag, and which of the values are equal, each given as
    the first position of its value.  The record of a key is taken from
    ``chains``, the set's table from key to record; the first leaf of a
    key emits the chain (:func:`_emit_chain`) and records where each of
    its constants comes first, and every other fills in its own values.
    A chain whose emission folded a constant, so that another leaf of
    its key could emit other text, is kept out of the table.  An
    emitted chain's factory is taken from ``shapes``, the set's table
    from text to factory, and loaded only when the table lacks it."""
    fixed = [(index, value) for (index, mask), value in context.items()
             if mask == 0xFFFF]
    values = [value for _, value in fixed]
    for entry in entries:
        values += entry.template.constants(entry.values).values()
    first: dict[int, int] = {}
    key = (
        tuple([index for index, _ in fixed]),
        tuple([(entry.template, entry.copy_all) for entry in entries]),
        tuple([first.setdefault(v, i) for i, v in enumerate(values)]),
    )
    record = chains.get(key)
    if record is None:
        source, constants, hoisted, folds = _emit_chain(entries, context)
        factory = shapes.get(source)
        if factory is None:
            factory = shapes[source] = _load_factory(source)
        record = _Chain(source, factory, hoisted, None)
        if not folds:
            record.slots = tuple([
                tuple([
                    first[int.from_bytes(constant[i:i + 2], "big")]
                    for i in range(0, len(constant), 2)
                ]) if isinstance(constant, bytes) else first[constant]
                for constant in constants
            ])
            chains[key] = record
    else:
        constants = [
            b"".join([values[i].to_bytes(2, "big") for i in slot])
            if slot.__class__ is tuple else values[slot]
            for slot in record.slots
        ]
    return record, (*_result_constants(entries), *constants)


# -- the dispatch probe and whole-set linking --------------------------------


#: ``factory(map, fallback, offset, offset + 1, mask) -> probe(packet,
#: _n)``: the one dispatch probe text, for every (word, mask)
#: discriminant; the bucket map is a real dict of callables.
_DISPATCH_SOURCE = (
    "def _factory(_map, _fallback, _k0, _k1, _k2):\n"
    "    def _dsp(packet, _n):\n"
    "        if _n > _k1:\n"
    "            _w = ((packet[_k0] << 8) | packet[_k1]) & _k2\n"
    "        elif _n > _k0:\n"
    "            _w = (packet[_k0] << 8) & _k2\n"
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

#: The dispatch probe's chain record: one text, loaded once.
_PROBE = _Chain(_DISPATCH_SOURCE, _load_factory(_DISPATCH_SOURCE), None, None)


def _link(
    tree: DispatchTree,
    previous: DispatchTree | None,
    touched: frozenset | None,
    shapes: WeakValueDictionary,
    chains: WeakValueDictionary,
) -> None:
    """Link the set's ``tree`` in place: give every node that has no
    ``function`` yet its function, chain record (a root that probes gets
    :data:`_PROBE`) and arguments, and the root its probe's bucket map.
    A leaf the tree builder kept from ``previous``, the root of the set
    being replaced, arrives linked.
    ``touched`` (a patched tree) names the only bucket values whose
    leaves may differ from ``previous``'s, so the bucket map is a copy
    of the previous one with those values replaced.  Each leaf's chain
    is read off ``chains`` (:func:`_read_off`); ``shapes`` maps factory
    source to the factory loaded from it."""

    def link(node: DispatchTree, context: dict) -> None:
        node.chain, node.arguments = _read_off(
            node.entries, context, shapes, chains
        )
        node.function = node.chain.factory(*node.arguments)

    if tree.function is not None:  # the previous set's own root
        return
    discriminant = tree.discriminant
    if discriminant is None:
        link(tree, {})
        return
    if touched is None:
        values, targets = tree.buckets, {}
    else:
        values, targets = touched, dict(previous.targets)
    for value in values:
        leaf = tree.buckets.get(value)
        if leaf is None:  # the bucket emptied
            del targets[value]
            continue
        if leaf.function is None:
            link(leaf, {discriminant: value})
        targets[value] = leaf.function
    if tree.fallback.function is None:
        link(tree.fallback, {})
    index, mask = discriminant
    tree.targets = targets
    tree.chain = _PROBE
    tree.arguments = (2 * index, 2 * index + 1, mask)
    tree.function = _PROBE.factory(
        targets, tree.fallback.function, *tree.arguments
    )


def _listing(root: DispatchTree) -> str:
    """Every chain and the dispatch probe linked under ``root`` as
    text: the buckets' chains by value, the fallback's, then the probe,
    each the source of its chain record headed by the arguments its
    factory was called with."""
    blocks: list[str] = []

    def add(kind: str, node: DispatchTree, *nodes: str) -> str:
        name = f"node {len(blocks)}"
        arguments = ", ".join([*nodes, *map(repr, node.arguments)])
        blocks.append(
            f"# {name}: {kind}, _factory({arguments})\n{node.chain.source}"
        )
        return name

    if root.discriminant is None:  # a set of one chain
        name = add("chain", root)
    else:
        mapping = ", ".join(
            f"{value:#x}: {add('chain', leaf)}"
            for value, leaf in sorted(root.buckets.items())
        )
        name = add("dispatch", root, f"{{{mapping}}}", add("chain", root.fallback))
    blocks.append(f"# classify(packet) = {name}(packet, len(packet))\n")
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

    ``classify(packet)`` returns ``(keys, predicates)``: the result keys
    of the accepting filters in delivery order (first-match unless an
    accepting filter opted into copy-all), and how many filter bodies
    were entered before resolution — the figure-of-merit the cost model
    charges for.  ``source`` lists every generated chain and dispatch
    node for inspection and tests, and ``stats`` carries the pass
    statistics; both are built on first read.
    """

    size: int
    discriminant: tuple[int, int] | None  #: root (word index, mask)
    _root: DispatchTree = field(repr=False)  #: the tree, linked
    _mode: ShortCircuitMode = field(repr=False)
    _shapes: WeakValueDictionary = field(repr=False)  #: source -> factory
    _templates: WeakValueDictionary = field(repr=False)  #: skeleton -> Template
    _chains: WeakValueDictionary = field(repr=False)  #: key -> chain record

    def classify(self, packet: bytes) -> tuple[Sequence, int]:
        return self._root.function(packet, len(packet))

    @cached_property
    def source(self) -> str:
        return _listing(self._root)

    @cached_property
    def stats(self) -> IRStats:
        """Filters, whole-set CSE node counts, dispatch depth, chains
        and hoisted values.  The two node counts equal what
        :func:`repro.core.opt.cse_filter_set` reports for the set,
        assembled from per-filter facts instead of a whole-set
        transfer: each entry's, which an entry read off a template gets
        from it here, once."""
        root = self._root
        leaves = (
            [root] if root.discriminant is None
            else [*root.buckets.values(), root.fallback]
        )
        before = 0
        numbers: set = set()
        for entry in root.entries:
            if entry.facts is None:  # read off a template: expand once
                object.__setattr__(
                    entry, "facts", entry.template.facts(entry.values)
                )
            live, own = entry.facts
            before += live
            numbers.update(own)
        return IRStats(
            filters=self.size,
            nodes_before_cse=before,
            nodes_after_cse=len(numbers),
            dispatch_depth=0 if root.discriminant is None else 1,
            chains=len(leaves),
            hoisted=sum(leaf.chain.hoisted for leaf in leaves),
        )


def compile_ir_set(
    entries: Sequence[SetEntry],
    *,
    mode: ShortCircuitMode = ShortCircuitMode.PUSH_RESULT,
    previous: CompiledIRSet | None = None,
) -> CompiledIRSet:
    """Compile ``entries`` (already validated, in application order):
    group the dispatch tree's root (:func:`repro.core.opt.dispatch_root`),
    then read each new leaf's chain off the set's chain table (emitting
    it the first time its key is met), ``compile()`` each new chain
    shape, and link the leaves under the root's hash probe.

    ``previous`` is the set this one replaces.  The root applies the
    entries detached and attached since ``previous`` to the tallies on
    its root (:attr:`repro.core.opt.DispatchTree.tallies`), and every
    leaf whose entries are the same objects in the same order as at the
    same place in ``previous`` is reused, linked as it is.  A SETFILTER on an
    N-rule set therefore rebuilds the one bucket the filter lands in and
    the one it left, links their chains, and copies the root's bucket
    map with those two values replaced; the other entries are not
    regrouped.  The root is regrouped (still reusing every unchanged
    leaf) when the change moves its key, changes an unbucketable filter
    (merged into every bucket, so every bucket is rebuilt, each read off
    the one key the buckets share) or reorders the filters both sets
    hold.  A set the analysis cannot bucket is one chain.
    ``previous=None`` is the same compile from an empty set.

    A newly attached entry whose skeleton has a template in the set's
    template table is not lowered: its necessary tests (kept on the
    entry, for the tree to group by) are read off the template by its
    literals.  Otherwise it is lowered once
    (:func:`repro.core.opt.lower_entry`), and the lowering becomes its
    skeleton's template when every rule of the skeleton can share it, or
    else the entry's own.  Nothing here lowers: a chain is emitted from
    its entries' templates only when no linked leaf holds a chain of its
    key (:func:`_read_off`), and its factory is loaded only when no
    chain of its text is linked in ``previous`` or earlier in this
    compile.  The shape, template and chain tables are handed on as the
    root's tallies are, and hold their contents weakly.
    """
    shapes = previous._shapes if previous else WeakValueDictionary()
    templates = previous._templates if previous else WeakValueDictionary()
    chains = previous._chains if previous else WeakValueDictionary()
    if previous is not None and previous._mode is not mode:
        previous = None
    root = previous._root if previous else None
    tree, touched = dispatch_root(entries, mode, root, templates)
    _link(tree, root, touched, shapes, chains)
    return CompiledIRSet(
        size=len(tree.entries),
        discriminant=tree.discriminant,
        _root=tree,
        _mode=mode,
        _shapes=shapes,
        _templates=templates,
        _chains=chains,
    )
