"""Property tests for the demultiplexer against a reference oracle.

The figure 4-1 loop's contract — priority order, first-match,
copy-all continuation, every engine — is pinned against a 15-line
reference implementation over randomized filter sets and packets.
"""

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.core.compiler import compile_expr, word
from repro.core.demux import Engine, PacketFilterDemux
from repro.core import irgen, opt
from repro.core.interpreter import LanguageLevel, ShortCircuitMode, evaluate
from repro.core.ir import lower_program
from repro.core.irgen import SetEntry, compile_ir_set
from repro.core.opt import (
    FIXED_CONSTANTS,
    build_dispatch_tree,
    cse_filter_set,
    necessary_tests,
)
from repro.core.port import Port
from repro.core.program import FilterProgram, asm
from repro.core.validator import ValidationError, validate
from repro.core.words import pack_words

# --- strategies ---------------------------------------------------------

filter_specs = st.lists(
    st.tuples(
        st.integers(0, 3),     # discriminating word index
        st.integers(0, 3),     # required value
        st.integers(0, 5),     # priority
        st.booleans(),         # copy_all
    ),
    min_size=1,
    max_size=8,
)

packet_word_lists = st.lists(
    st.integers(0, 4), min_size=4, max_size=4
)


def build(demux, specs):
    ports = []
    for index, (field, value, priority, copy_all) in enumerate(specs):
        port = Port(index, queue_limit=10_000)
        port.copy_all = copy_all
        port.bind_filter(compile_expr(word(field) == value, priority=priority))
        demux.attach(port)
        ports.append(port)
    return ports


def reference_delivery(specs, packet):
    """The figure 4-1 loop, written as naively as possible."""
    programs = [
        (compile_expr(word(field) == value, priority=priority), index, copy_all)
        for index, (field, value, priority, copy_all) in enumerate(specs)
    ]
    # Decreasing priority; attach order breaks ties.
    programs.sort(key=lambda item: (-item[0].priority, item[1]))
    delivered = []
    for program, index, copy_all in programs:
        if evaluate(program, packet).accepted:
            delivered.append(index)
            if not copy_all:
                break
    return delivered


class TestDemuxAgainstOracle:
    @given(filter_specs, st.lists(packet_word_lists, min_size=1, max_size=12))
    @settings(max_examples=120)
    def test_every_engine_matches_reference(self, specs, packet_lists):
        packets = [pack_words(words) for words in packet_lists]
        expected = [reference_delivery(specs, packet) for packet in packets]

        for engine in Engine:
            demux = PacketFilterDemux(
                engine=engine, reorder_same_priority=False
            )
            build(demux, specs)
            for packet, expect in zip(packets, expected):
                report = demux.deliver(packet)
                assert list(report.accepted_by) == expect, (
                    engine, packet.hex()
                )

    @given(filter_specs, st.lists(packet_word_lists, min_size=1, max_size=12))
    @settings(max_examples=120)
    def test_flow_cache_matches_reference_hot_and_cold(
        self, specs, packet_lists
    ):
        """Every engine with the flow cache on delivers identically to
        the uncached CHECKED baseline — on the cold (miss, classify,
        store) pass and again on the hot (pure cache hit) pass."""
        packets = [pack_words(words) for words in packet_lists]
        expected = [reference_delivery(specs, packet) for packet in packets]

        for engine in Engine:
            demux = PacketFilterDemux(
                engine=engine,
                flow_cache=64,
                reorder_same_priority=False,
            )
            build(demux, specs)
            for passno in ("cold", "hot"):
                for packet, expect in zip(packets, expected):
                    report = demux.deliver(packet)
                    assert list(report.accepted_by) == expect, (
                        engine, passno, packet.hex()
                    )
                    assert report.dropped_by == ()
            # Back-to-back identical packets must hit (no intervening
            # store can evict the slot), and hit deliveries must still
            # agree with the oracle.
            before = demux.flow_cache.hits
            demux.deliver(packets[0])
            report = demux.deliver(packets[0])
            assert demux.flow_cache.hits > before
            assert list(report.accepted_by) == expected[0]

    @given(filter_specs, st.lists(packet_word_lists, min_size=4, max_size=24))
    @settings(max_examples=60)
    def test_reordering_preserves_delivery_sets(self, specs, packet_lists):
        """Reordering may change which same-priority filter wins (the
        paper leaves that unspecified) but must never change *whether*
        a packet is delivered, nor cross priority levels."""
        packets = [pack_words(words) for words in packet_lists]
        demux = PacketFilterDemux(reorder_same_priority=True)
        demux.REORDER_INTERVAL = 4
        ports = build(demux, specs)
        for packet in packets:
            report = demux.deliver(packet)
            expected = reference_delivery(specs, packet)
            assert bool(expected) == report.accepted
            if report.accepted_by:
                # The winner's priority equals the reference winner's.
                winner = next(
                    p for p in ports if p.port_id == report.accepted_by[0]
                )
                reference_winner = next(
                    p for p in ports if p.port_id == expected[0]
                )
                assert winner.program.priority == reference_winner.program.priority

    @given(filter_specs, packet_word_lists)
    @settings(max_examples=120)
    def test_conservation(self, specs, words):
        """Every delivered packet is accounted: accepted+dropped+unclaimed."""
        packet = pack_words(words)
        demux = PacketFilterDemux(reorder_same_priority=False)
        ports = build(demux, specs)
        report = demux.deliver(packet)
        queued = sum(port.queued for port in ports)
        assert queued == len(report.accepted_by)
        assert demux.packets_seen == 1
        assert demux.packets_unclaimed == (0 if report.accepted else 1)


# --- Engine.IR: a compile that reuses the previous set equals a cold one --

#: Literals of the raw rules: the five fixed constants, two values of no
#: fixed class, one inside the other's mask, and None, the rule's
#: bucket value.  A rule's mask and compared value are one literal (an
#: equal pair) or two.
RAW_LITERALS = (*FIXED_CONSTANTS, 0x0F0F, 0x0F00, None)
raw_literal = st.sampled_from(RAW_LITERALS)

churn_steps = st.lists(
    st.tuples(
        st.sampled_from(["attach", "detach", "rebind", "copyall", "reorder"]),
        st.integers(0, 7),     # which attached port
        st.tuples(
            st.one_of(
                st.sampled_from(["word", "high", "low", "wild", "or"]),
                st.tuples(  # a raw rule: which word, (mask, compared value)
                    st.sampled_from(["next", "same"]),
                    st.one_of(
                        raw_literal.map(lambda literal: (literal, literal)),
                        st.tuples(raw_literal, raw_literal),
                    ),
                ),
                st.tuples(  # a raw rule folding two literals: join, operator
                    st.sampled_from(["either", "both"]),
                    st.sampled_from(["XOR", "NEQ", "AND"]),
                    st.tuples(raw_literal, raw_literal),
                ),
            ),
            st.integers(0, 3),  # discriminating word index
            st.integers(0, 3),  # required value
            st.integers(0, 1),  # priority: few classes, so ties reorder
            st.booleans(),      # copy_all
        ),
    ),
    min_size=1,
    max_size=10,
)


def churn_filter(kind, field, value, priority):
    """A filter of one of the shapes the dispatch root's paths turn on:
    a whole word, the high or low byte of one (two masks of one word,
    which can tie), or an unbucketable disjunction: of ``value`` in
    word ``field`` and in the next word, or (``or``) of ``value`` in
    word ``field`` and 9 in the word after the next, so that a probe of
    ``field`` in another bucket folds its own test of that word.  A raw
    rule pushes
    every constant as a ``PUSHLIT`` literal, so that its skeleton holds
    literals of every class: it requires ``value`` of word ``field``,
    then compares the next word, or the same one again, under a mask.
    A raw folding rule applies an operator to two literals, which its
    lowering folds: ``both`` compares the next word with the result, a
    one-entry leaf in its bucket; ``either`` accepts on the result or on
    ``value`` of word ``field``, merged into every bucket unless the
    result is 0."""
    if not isinstance(kind, str) and len(kind) == 3:
        join, operator, literals = kind
        left, right = (value if v is None else v for v in literals)
        folded = (("PUSHLIT", left), ("PUSHLIT", operator, right))
        if join == "either":
            program = asm(
                ("PUSHWORD", field), ("PUSHLIT", "EQ", value), *folded, "OR"
            )
        else:
            program = asm(
                ("PUSHWORD", field), ("PUSHLIT", "CAND", value),
                ("PUSHWORD", (field + 1) % 4), *folded, "EQ",
            )
        return FilterProgram(program, priority=priority)
    if not isinstance(kind, str):
        which, literals = kind
        mask, match = (value if v is None else v for v in literals)
        other = field if which == "same" else (field + 1) % 4
        return FilterProgram(asm(
            ("PUSHWORD", field), ("PUSHLIT", "CAND", value),
            ("PUSHWORD", other), ("PUSHLIT", "AND", mask),
            ("PUSHLIT", "EQ", match),
        ), priority=priority)
    if kind == "word":
        expr = word(field) == value
    elif kind == "high":
        expr = word(field).masked(0xFF00) == value << 8
    elif kind == "low":
        expr = word(field).masked(0x00FF) == value
    elif kind == "or":
        expr = (word(field) == value) | (word((field + 2) % 4) == 9)
    else:
        expr = (word(field) == value) | (word((field + 1) % 4) == value)
    return compile_expr(expr, priority=priority)


def bind_port(port, spec):
    kind, field, value, priority, copy_all = spec
    port.copy_all = copy_all
    port.bind_filter(churn_filter(kind, field, value, priority))


def cold_twin(demux):
    """A fresh IR demux bound, port for port, in ``demux``'s order."""
    twin = PacketFilterDemux(engine=Engine.IR, reorder_same_priority=False)
    for port in demux.attached_ports():
        copy = Port(port.port_id, queue_limit=10_000)
        copy.copy_all = port.copy_all
        copy.bind_filter(port.program)
        twin.attach(copy)
    twin.invalidate()  # compile even an empty set, as ``demux`` has
    return twin


def drain(demux):
    for port in demux.attached_ports():
        port.read_packets()


def churn_step(demux, op, port, spec, packets):
    """Apply one churn operation to ``port``, an attached port."""
    if op == "detach":
        demux.detach(port)
    elif op == "rebind":
        demux.detach(port)
        bind_port(port, spec)
        demux.attach(port)
    elif op == "copyall":
        port.copy_all = not port.copy_all
        demux.invalidate()
    else:  # busier-first, one reorder pass per delivery
        demux.reorder_same_priority = True
        for packet in packets:
            demux.deliver(packet)
        demux.reorder_same_priority = False
        drain(demux)


def tree_shape(tree):
    """A dispatch tree as plain data: the discriminant, the subtree of
    every bucket value, the fallback and the port ids at each node."""
    if tree is None:
        return None
    return (
        tree.discriminant,
        {value: tree_shape(sub) for value, sub in tree.buckets.items()},
        tree_shape(tree.fallback),
        tuple(entry.key for entry in tree.entries),
    )


def assert_equals_cold(demux, packets, step):
    """``demux``, compiled against the set it replaced, has the
    ``ir_stats``, generated source and dispatch-tree structure of a
    demux compiled from nothing (whose tree is in turn the reference
    builder's), delivers as that demux does, and holds each entry's
    necessary tests and links each chain as its entries' own lowerings
    make them."""
    twin = cold_twin(demux)
    assert demux.ir_stats == twin.ir_stats, step
    assert demux._ir.source == twin._ir.source, step
    for entry in demux._ir._root.entries:
        own = lower_program(entry.program, entry.report, demux.mode)
        assert entry.necessary == {
            test.key: test.value for test in necessary_tests(own)
        }, step
    sources = {id(f): text for text, f in demux._ir._shapes.items()}
    for leaf, context in linked_leaves(demux._ir):
        linked = sources[id(leaf.chain.factory)], leaf.arguments
        assert linked == own_chain(leaf.entries, context, demux.mode), step
    cold = twin._ir._root
    assert tree_shape(demux._ir._root) == tree_shape(cold), step
    reference = build_dispatch_tree(cold.entries, demux.mode)
    assert tree_shape(reference) == tree_shape(cold), step
    for packet in packets:
        got = demux.deliver(packet).accepted_by
        assert got == twin.deliver(packet).accepted_by, (step, packet.hex())
    drain(demux)


def raw_attach(which, mask, match, value):
    return ("attach", 0, ((which, (mask, match)), 0, value, 0, False))


def fold_attach(join, literal, value):
    return ("attach", 0, ((join, "XOR", (literal, None)), 0, value, 0, False))


class TestIncrementalIRCompile:
    @given(
        churn_steps,
        st.lists(packet_word_lists, min_size=1, max_size=8),
        st.booleans(),
    )
    # A rule of each fixed class, then one whose literal has none: they
    # share a skeleton only if a fixed class is lost.
    @example(
        [raw_attach("next", fixed, fixed, 2) for fixed in FIXED_CONSTANTS]
        + [raw_attach("next", 0x0F0F, 0x0F0F, 3)],
        [[2, 0x0F0F, 0, 0], [3, 0x0F0F, 0, 0]], False,
    )
    # An equal pair, then its mask beside another value in a bucket of
    # two and in a bucket alone, then the two swapped, whose value has
    # bits outside its mask.
    @example(
        [raw_attach("next", 0x0F0F, 0x0F0F, 2),
         raw_attach("next", 0x0F0F, 0x0F00, 2),
         raw_attach("next", 0x0F0F, 0x0F00, 3),
         raw_attach("next", 0x0F00, 0x0F0F, 3)],
        [[2, 0x0F0F, 0, 0], [3, 0x0F00, 0, 0]], False,
    )
    # One skeleton whose probe folds its low bit test either way.
    @example(
        [raw_attach("same", 1, 1, 2), raw_attach("same", 1, 1, 3)],
        [[2, 0, 0, 0], [3, 0, 0, 0]], False,
    )
    # A rule read off the template of a rule since detached, alone in
    # the set: no probe specializes its own test away.
    @example(
        [("attach", 0, ("word", 0, value, 0, False)) for value in (2, 3)]
        + [("detach", 0, ("word", 0, 0, 0, False))],
        [[2, 0, 0, 0], [3, 0, 0, 0]], False,
    )
    # Rules of one skeleton whose lowerings fold two literals to another
    # value each: alone in their buckets, then merged into every bucket.
    @example(
        [fold_attach(join, 0x0F0F, value)
         for join in ("both", "either") for value in (2, 3)],
        [[2, 0x0F0D, 0, 0], [3, 0x0F0C, 0, 0]], False,
    )
    # Two buckets of one skeleton, each merged with an unbucketed rule
    # that tests the probed word for the first bucket's value.
    @example(
        [("attach", 0, (kind, 0, value, 0, False))
         for kind, value in (("word", 2), ("word", 3), ("or", 2))],
        [[3, 0, 0, 0], [2, 0, 9, 0]], False,
    )
    @settings(max_examples=80, deadline=None)
    def test_every_step_equals_a_cold_compile(self, steps, packet_lists, cached):
        """Attach, detach, SETFILTER re-bind, copy-all flip and
        same-priority reorder each recompile against the previous set,
        over whole-word, high-byte, low-byte, unbucketable, raw literal
        and literal-folding filters (root-key changes, tied masks of one
        word, the root's patch and regroup paths); after every step the
        accepting ports, ``ir_stats``, the generated source and the
        dispatch tree's structure equal those of a demux compiled from
        nothing, and every entry and chain its own lowering's."""
        packets = [pack_words(words) for words in packet_lists]
        demux = PacketFilterDemux(
            engine=Engine.IR,
            reorder_same_priority=False,
            flow_cache=64 if cached else False,
        )
        demux.REORDER_INTERVAL = 1
        serial = 0
        for op, pick, spec in steps:
            attached = demux.attached_ports()
            if op == "attach" or not attached:
                port = Port(serial, queue_limit=10_000)
                serial += 1
                bind_port(port, spec)
                demux.attach(port)
            else:
                port = attached[pick % len(attached)]
                churn_step(demux, op, port, spec, packets)
            assert_equals_cold(demux, packets, op)

    def test_a_second_compile_from_one_set_counts_from_nothing(self):
        """Two compiles from one set P: the first takes P's root tallies
        over and leaves them spent, so the second, which detaches and
        attaches other entries than the first did, regroups from nothing
        and equals a cold compile in tree shape, source, stats and
        delivery.  So does a compile from a set whose last compile
        raised."""

        def entries(rules):
            return [
                SetEntry(key, program, validate(program), False)
                for key, program in rules
            ]

        def rule(key, value):
            return key, compile_expr(
                (word(6) == value) & (word(4) == key), priority=10
            )

        def assert_cold(compiled, rules):
            cold = compile_ir_set(entries(rules))
            assert tree_shape(compiled._root) == tree_shape(cold._root)
            assert compiled.source == cold.source
            assert compiled.stats == cold.stats
            for packet in packets:
                assert compiled.classify(packet) == cold.classify(packet), (
                    packet.hex()
                )

        packets = [
            pack_words([0, 0, 0, 0, key, 0, value])
            for key in (*range(8), 20, 21, 30, 31, 99)
            for value in (*range(100, 108), 300, 301, 99)
        ] + [b"", bytes(9)]
        base = [rule(i, 100 + i) for i in range(8)]
        held = entries(base)
        previous = compile_ir_set(held)
        compile_ir_set(
            held[:-2] + entries([rule(20, 300), rule(21, 301)]),
            previous=previous,
        )
        added = [rule(30, 107), rule(31, 102)]
        second = compile_ir_set(held[:-1] + entries(added), previous=previous)
        assert_cold(second, base[:-1] + added)

        previous = compile_ir_set(held)
        with pytest.raises(ValueError):
            compile_ir_set([*held, held[0]], previous=previous)
        again = compile_ir_set(held[:-1] + entries(added), previous=previous)
        assert_cold(again, base[:-1] + added)

    def test_each_root_path(self, monkeypatch):
        """A scripted churn that takes every path of the root at least
        once — patch, key change, an unbucketable filter attached and
        detached, a re-bind that must re-sort its bucket, a reorder, a
        copy-all flip, a tie between two masks of one word — and equals
        a cold compile after each step."""
        paths = []
        dispatch_root = irgen.dispatch_root

        def spy(entries, mode, previous, templates):
            tree, touched = dispatch_root(entries, mode, previous, templates)
            if previous is not None:  # not a cold twin's compile
                paths.append("regroup" if touched is None else "patch")
            return tree, touched

        monkeypatch.setattr(irgen, "dispatch_root", spy)
        packets = [
            pack_words([a, b, 0x0100 | c, 0]) for a in range(4)
            for b in range(3) for c in range(3)
        ]
        demux = PacketFilterDemux(engine=Engine.IR, reorder_same_priority=False)
        demux.REORDER_INTERVAL = 1
        ports = {}

        def attach(port_id, *spec):
            ports[port_id] = Port(port_id, queue_limit=10_000)
            bind_port(ports[port_id], (*spec, 0, False))
            demux.attach(ports[port_id])

        def step(name, *expected):
            assert_equals_cold(demux, packets, name)
            assert paths == list(expected), name
            paths.clear()

        for port_id in range(3):
            attach(port_id, "word", 0, port_id + 1)
        step("cold")
        assert demux._ir.discriminant == (0, 0xFFFF)
        churn_step(demux, "rebind", ports[1], ("word", 0, 0, 0, False), packets)
        step("re-bind within the key", "patch")
        churn_step(demux, "copyall", ports[0], None, packets)
        step("copy-all flip", "patch")
        attach(3, "wild", 0, 1)
        step("unbucketable attached", "regroup")
        # Higher priority than the unbucketable filter it joins in its
        # bucket, so the bucket's entries must be re-sorted.
        churn_step(demux, "rebind", ports[2], ("word", 0, 2, 1, False), packets)
        step("re-bind beside an unbucketable filter", "patch")
        # The unbucketable filter, made busiest, passes each of the two
        # filters that share its buckets: no entry changes, the order
        # does, twice.
        busy = [pack_words([3, 1, 0, 0])] * 64
        churn_step(demux, "reorder", None, None, busy)
        step("reorder within buckets", "regroup", "regroup")
        demux.detach(ports[3])
        step("unbucketable detached", "regroup")
        for port_id in (4, 5, 6, 7):
            attach(port_id, "word", 1, port_id - 4)
        step("root key changed", "regroup")
        assert demux._ir.discriminant == (1, 0xFFFF)

        # Two masks of one word tie on distinct values and coverage: the
        # larger mask wins whichever was seen first.
        for first, second in (("low", "high"), ("high", "low")):
            tied = PacketFilterDemux(
                engine=Engine.IR, reorder_same_priority=False
            )
            for port_id, (kind, value) in enumerate(
                [(first, 1), (first, 2), (second, 1), (second, 2)]
            ):
                port = Port(port_id, queue_limit=10_000)
                bind_port(port, (kind, 2, value, 0, False))
                tied.attach(port)
            tied.ir_stats
            assert tied._ir.discriminant == (2, 0xFF00), first
            churn_step(
                tied, "rebind", tied.attached_ports()[0],
                (first, 2, 3, 0, False), packets,
            )
            assert_equals_cold(tied, packets, f"tie, {first} first")


# --- Engine.IR: a rule read off its skeleton's template equals a cold one --

#: Rule shapes over a tuple of literals, each a ``PUSHLIT`` so that it
#: can hold a fixed constant: the tested words (where a probe can sit)
#: and the program.  The five-tuple; masked words, one mask a literal,
#: with the short-circuit's continue constant live; figures 3-8 and 3-9;
#: the unbucketable disjunction of ``churn_filter``; a second test of
#: the probed word, which folds against the probe; and a literal sum,
#: which folds at lowering.
TEMPLATE_SHAPES = {
    "five": ((6, 4, 5, 0, 1), lambda l: asm(
        ("PUSHWORD", 6), ("PUSHLIT", "CAND", l[0]),
        ("PUSHWORD", 4), ("PUSHLIT", "CAND", l[1]),
        ("PUSHWORD", 5), ("PUSHLIT", "CAND", l[2]),
        ("PUSHWORD", 0), ("PUSHLIT", "CAND", l[3]),
        ("PUSHWORD", 1), ("PUSHLIT", "EQ", l[4]),
    )),
    "masked": ((6, 2, 3), lambda l: asm(
        ("PUSHWORD", 6), ("PUSHLIT", "CAND", l[0]),
        ("PUSHWORD", 2), ("PUSHLIT", "AND", l[1]), ("PUSHLIT", "EQ", l[2]),
        ("PUSHWORD", 3), ("PUSHFF00", "AND"), ("PUSHLIT", "EQ", l[3]),
        "AND", "AND",
    )),
    "fig38": ((1, 3), lambda l: asm(
        ("PUSHWORD", 1), ("PUSHLIT", "EQ", l[0]),
        ("PUSHWORD", 3), ("PUSH00FF", "AND"), ("PUSHZERO", "GT"),
        ("PUSHWORD", 3), ("PUSH00FF", "AND"), ("PUSHLIT", "LE", l[1]),
        "AND", "AND",
    )),
    "fig39": ((8, 7, 1), lambda l: asm(
        ("PUSHWORD", 8), ("PUSHLIT", "CAND", l[0]),
        ("PUSHWORD", 7), ("PUSHLIT", "CAND", l[1]),
        ("PUSHWORD", 1), ("PUSHLIT", "EQ", l[2]),
    )),
    "either": ((0, 1), lambda l: asm(
        ("PUSHWORD", 0), ("PUSHLIT", "EQ", l[0]),
        ("PUSHWORD", 1), ("PUSHLIT", "EQ", l[1]), "OR",
    )),
    "below": ((6,), lambda l: asm(
        ("PUSHWORD", 6), ("PUSHLIT", "CAND", l[0]),
        ("PUSHWORD", 6), ("PUSHLIT", "LT", l[1]),
    )),
    "sum": ((6, 2), lambda l: asm(
        ("PUSHWORD", 6), ("PUSHLIT", "CAND", l[0]),
        ("PUSHWORD", 2), ("PUSHLIT", l[1]), ("PUSHLIT", "ADD", l[2]), "EQ",
    )),
}

#: Literals of no fixed class: distinct, some inside and some outside
#: the masks the shapes use.
OTHER_LITERALS = (2, 6, 0x0100, 0x0101, 0x0F0F, 0x1000, 0x1234, 0x8000)


def shape_literals(name):
    program = TEMPLATE_SHAPES[name][1](range(8))
    return sum(ins.literal is not None for ins in program)


@st.composite
def template_cases(draw):
    """A shape, the literals of the rule whose lowering makes the
    template and of the rule read off it, the fillers that decide the
    probe above each, copy-all flags and the mode.  The second rule
    renames the first's literals of no fixed class (keeping its
    skeleton) except where a literal is drawn afresh."""
    name = draw(st.sampled_from(sorted(TEMPLATE_SHAPES)))
    literal = st.sampled_from(FIXED_CONSTANTS + OTHER_LITERALS)
    count = shape_literals(name)
    first = draw(st.lists(literal, min_size=count, max_size=count))
    renamed = dict(zip(OTHER_LITERALS, draw(st.permutations(OTHER_LITERALS))))
    second = [
        draw(literal) if draw(st.integers(0, 3)) == 0
        else renamed.get(value, value)
        for value in first
    ]
    fillers = st.lists(
        st.tuples(
            st.sampled_from(TEMPLATE_SHAPES[name][0] + (9,)),
            st.sampled_from([0xFFFF, 0xFF00]),
            st.integers(3, 5),
        ),
        max_size=3,
    )
    before = draw(fillers)
    after = before if draw(st.booleans()) else draw(fillers)
    return (
        name, tuple(first), tuple(second), before, after,
        draw(st.booleans()), draw(st.booleans()),
        draw(st.sampled_from(list(ShortCircuitMode))),
    )


def linked_leaves(compiled):
    """Every linked leaf chain of ``compiled`` and its probe context."""
    root = compiled._root
    if root.discriminant is None:
        return [(root, {})]
    key = root.discriminant
    leaves = [(leaf, {key: value}) for value, leaf in root.buckets.items()]
    return leaves + [(root.fallback, {})]


def closure(function):
    return [cell.cell_contents for cell in function.__closure__ or ()]


def own_chain(chain, context, mode):
    """Factory source and call arguments of the leaf chain over the
    entries ``chain`` under the probe ``context``, emitted from each
    entry's own lowering: what a chain read off templates must equal."""
    source, constants, _, _ = irgen._emit_bodies(
        [
            (lower_program(entry.program, entry.report, mode), None,
             entry.copy_all)
            for entry in chain
        ],
        context,
    )
    return source, (*irgen._result_constants(chain), *constants)


class TestTemplateReadOff:
    @given(template_cases())
    # Each shape with literals of every class that a planted fault in the
    # skeleton, the template's checks or its recipe would misread.
    @example(("masked", (7, 0xFFFF, 0x1234, 0x0100),
              (8, 0x0F0F, 0x1234, 0x0100), [(6, 0xFFFF, 3)],
              [(6, 0xFFFF, 3)], False, False, ShortCircuitMode.PUSH_RESULT))
    @example(("masked", (7, 0x0F0F, 0x0101, 0x1234),
              (8, 0x0F0F, 0x1000, 0x0100), [(6, 0xFFFF, 3)],
              [(6, 0xFFFF, 3)], False, False, ShortCircuitMode.PUSH_RESULT))
    @example(("fig38", (2, 0x00FF), (2, 0x1234), [], [], False, False,
              ShortCircuitMode.PUSH_RESULT))
    @example(("fig38", (2, 0), (2, 0x1234), [], [], False, False,
              ShortCircuitMode.PUSH_RESULT))
    @example(("masked", (7, 1, 0x0100, 0x0100), (8, 0x0F0F, 0x0100, 0x0100),
              [], [], False, False, ShortCircuitMode.PUSH_RESULT))
    @example(("masked", (7, 0x0F0F, 0x0100, 0xFF00),
              (8, 0x0F0F, 0x0100, 0x1000), [], [], False, False,
              ShortCircuitMode.PUSH_RESULT))
    @example(("five", (7, 6, 6, 0x0A00, 0x1234), (8, 6, 0x0100, 0x0A00, 0x1234),
              [(6, 0xFFFF, 3)], [(6, 0xFFFF, 3)], False, False,
              ShortCircuitMode.PUSH_RESULT))
    @example(("below", (0x1000, 0x1234), (0x1234, 0x1000), [(6, 0xFFFF, 3)],
              [(6, 0xFFFF, 3)], False, False, ShortCircuitMode.PUSH_RESULT))
    @example(("sum", (7, 0x0100, 0xFF00), (8, 0x0101, 0xFF00), [], [],
              False, False, ShortCircuitMode.PUSH_RESULT))
    @example(("fig39", (0x1234, 0x0100, 2), (0x1000, 0x8000, 2),
              [(8, 0xFFFF, 3)], [(8, 0xFFFF, 3)], True, True,
              ShortCircuitMode.NO_PUSH))
    @settings(max_examples=120, deadline=None)
    def test_read_off_equals_cold(self, case):
        """A rule compiled against a set whose template table knows its
        skeleton (from another rule's lowering) gets the necessary
        tests, linked chains and ``IRStats`` a cold compile gives it:
        every leaf's factory was loaded from the source a cold emission
        writes, and was called with the arguments a cold emission
        passes."""
        name, first, second, before, after, copy_a, copy_b, mode = case
        build = TEMPLATE_SHAPES[name][1]

        def bound(key, program, copy_all=False):
            try:
                report = validate(
                    program, level=LanguageLevel.EXTENDED, mode=mode
                )
            except ValidationError:  # a shape that needs R pushed
                assume(False)
            return SetEntry(key, program, report, copy_all)

        def fill(fillers):
            return [
                bound(i, compile_expr(
                    word(index).masked(mask) == value << (mask == 0xFF00) * 8
                ))
                for i, (index, mask, value) in enumerate(fillers)
            ]

        made = bound("rule", FilterProgram(build(first)), copy_a)
        known = compile_ir_set([*fill(before), made], mode=mode)
        read = bound("rule", FilterProgram(build(second)), copy_b)
        entries = [*fill(after), read]
        patched = compile_ir_set(entries, mode=mode, previous=known)

        cold = lower_program(read.program, read.report, mode)
        assert read.necessary == {
            test.key: test.value for test in necessary_tests(cold)
        }
        sources = {id(factory): text for text, factory in patched._shapes.items()}
        for leaf, context in linked_leaves(patched):
            source, arguments = own_chain(leaf.entries, context, mode)
            assert sources[id(leaf.chain.factory)] == source, context
            function = irgen._load_factory(source)(*arguments)
            assert closure(leaf.function) == closure(function), context
        fresh = compile_ir_set(
            [bound(e.key, e.program, e.copy_all) for e in entries], mode=mode
        )
        assert patched.stats == fresh.stats
        _, reference = cse_filter_set(
            [lower_program(e.program, e.report, mode) for e in entries]
        )
        assert patched.stats.nodes_before_cse == reference.nodes_before
        assert patched.stats.nodes_after_cse == reference.nodes_after

    def test_a_known_skeleton_is_not_lowered(self, monkeypatch):
        """The second rule of a skeleton, in a bucket of its own under a
        probe of a word it tests, is read off the first one's template:
        no lowering, and its chain is the factory the first one's
        chain was made by."""
        lowered = []

        def counting(program, *args):
            lowered.append(program)
            return lower_program(program, *args)

        monkeypatch.setattr(opt, "lower_program", counting)
        build = TEMPLATE_SHAPES["five"][1]
        rules = [
            SetEntry(slot, program, validate(program), False)
            for slot, program in enumerate(
                FilterProgram(build((0x0900 + slot, 6, 0x1000, 2, 7)))
                for slot in range(3)
            )
        ]
        compiled = compile_ir_set(rules[:2])
        assert len(lowered) == 1
        compiled = compile_ir_set(rules, previous=compiled)
        assert len(lowered) == 1
        assert rules[2].template is rules[0].template is not None
        buckets = compiled._root.buckets
        assert buckets[0x0902].chain.factory is buckets[0x0900].chain.factory
        packet = pack_words([2, 7, 0, 0, 6, 0x1000, 0x0902])
        assert compiled.classify(packet) == ((2,), 1)


# --- Engine.IR: a chain of several entries equals their own lowerings -----


@st.composite
def several_entry_cases(draw):
    """Rules whose chains hold several entries: one to three of the
    shapes above and the unbucketable disjunction (merged into every
    bucket), at drawn places, over literals of every class (fixed, equal
    to another, equal to a probed value, other), with copy-all flags;
    then a warm-up rule per rule, its literals of no fixed class renamed
    (the same skeleton), whose lowering makes the template the rule is
    read off; and the mode."""
    names = draw(st.lists(
        st.sampled_from(sorted(set(TEMPLATE_SHAPES) - {"either"})),
        min_size=1, max_size=3,
    ))
    names.insert(draw(st.integers(0, len(names))), "either")
    literal = st.sampled_from(FIXED_CONSTANTS + OTHER_LITERALS[:4])
    rules = [
        (name, tuple(draw(st.lists(
            literal, min_size=shape_literals(name),
            max_size=shape_literals(name),
        ))), draw(st.booleans()))
        for name in names
    ]
    renamed = dict(zip(OTHER_LITERALS, draw(st.permutations(OTHER_LITERALS))))
    warm = [
        (name, tuple(renamed.get(value, value) for value in literals), False)
        for name, literals, _ in rules
    ]
    return rules, warm, draw(st.sampled_from(list(ShortCircuitMode)))


class TestSeveralEntryChains:
    @given(several_entry_cases())
    @example((
        [("five", (7, 6, 6, 0x0A00, 0x1234), False),
         ("five", (7, 2, 0x0100, 0x0A00, 0x1234), False),
         ("either", (7, 0x1234), False)],
        [("five", (8, 6, 6, 0x0A00, 0x0F0F), False),
         ("five", (8, 6, 0x1000, 0x0A00, 0x0F0F), False),
         ("either", (8, 0x0F0F), False)],
        ShortCircuitMode.PUSH_RESULT,
    ))
    @settings(max_examples=100, deadline=None)
    def test_chains_equal_their_rules_own_lowerings(self, case):
        """Every linked chain of a set whose rules are read off
        templates (another rule's lowering each) was loaded from the
        source, and called with the arguments, that its entries' own
        lowerings emit under the same probe: the template's constants
        are mapped to each rule's literals, chains of several entries
        included."""
        rules, warm, mode = case

        def bound(key, name, literals, copy_all):
            program = FilterProgram(TEMPLATE_SHAPES[name][1](literals))
            try:
                report = validate(
                    program, level=LanguageLevel.EXTENDED, mode=mode
                )
            except ValidationError:  # a shape that needs R pushed
                assume(False)
            return SetEntry(key, program, report, copy_all)

        known = compile_ir_set(
            [bound(key, *rule) for key, rule in enumerate(warm)], mode=mode
        )
        entries = [bound(key, *rule) for key, rule in enumerate(rules)]
        compiled = compile_ir_set(entries, mode=mode, previous=known)
        sources = {
            id(factory): text for text, factory in compiled._shapes.items()
        }
        leaves = linked_leaves(compiled)
        assert any(len(leaf.entries) > 1 for leaf, _ in leaves)
        for leaf, context in leaves:
            source, arguments = own_chain(leaf.entries, context, mode)
            assert sources[id(leaf.chain.factory)] == source, context
            assert leaf.arguments == arguments, context
            function = irgen._load_factory(source)(*arguments)
            assert closure(leaf.function) == closure(function), context

    def test_buckets_of_one_template_pair_keep_their_probe_values(self):
        """Two buckets of the probed word 6, each a chain of a rule of
        one skeleton and of an unbucketed rule that also tests word 6
        for the first bucket's value: each chain is its own rules'
        emission under its own probe, so in the second bucket the
        unbucketed rule's test of word 6 is not taken as passed."""
        programs = [
            compile_expr((word(6) == 7) & (word(4) == 6), priority=10),
            compile_expr((word(6) == 8) & (word(4) == 6), priority=10),
            compile_expr((word(6) == 7) | (word(2) == 9), priority=5),
        ]
        compiled = compile_ir_set([
            SetEntry(key, program, validate(program), False)
            for key, program in enumerate(programs)
        ])
        assert compiled.discriminant == (6, 0xFFFF)
        sources = {
            id(factory): text for text, factory in compiled._shapes.items()
        }
        for leaf, context in linked_leaves(compiled):
            source, arguments = own_chain(
                leaf.entries, context, ShortCircuitMode.PUSH_RESULT
            )
            assert sources[id(leaf.chain.factory)] == source, context
            assert leaf.arguments == arguments, context
        assert compiled.classify(pack_words([0] * 6 + [8, 0])) == ((), 2)
        assert compiled.classify(pack_words([0] * 6 + [7, 0])) == ((2,), 2)
        assert compiled.classify(pack_words([0, 0, 9, 0, 6, 0, 8])) == (
            (1,), 1
        )
