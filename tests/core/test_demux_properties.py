"""Property tests for the demultiplexer against a reference oracle.

The figure 4-1 loop's contract — priority order, first-match,
copy-all continuation, every engine — is pinned against a 15-line
reference implementation over randomized filter sets and packets.
"""

from hypothesis import given, settings, strategies as st

from repro.core.compiler import compile_expr, word
from repro.core.demux import Engine, PacketFilterDemux
from repro.core import irgen
from repro.core.interpreter import evaluate
from repro.core.opt import build_dispatch_tree
from repro.core.port import Port
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

churn_steps = st.lists(
    st.tuples(
        st.sampled_from(["attach", "detach", "rebind", "copyall", "reorder"]),
        st.integers(0, 7),     # which attached port
        st.tuples(
            st.sampled_from(["word", "high", "low", "wild"]),
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
    which can tie), or an unbucketable disjunction."""
    if kind == "word":
        expr = word(field) == value
    elif kind == "high":
        expr = word(field).masked(0xFF00) == value << 8
    elif kind == "low":
        expr = word(field).masked(0x00FF) == value
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
    builder's), and delivers as that demux does."""
    twin = cold_twin(demux)
    assert demux.ir_stats == twin.ir_stats, step
    assert demux._ir.source == twin._ir.source, step
    cold = twin._ir._root.tree
    assert tree_shape(demux._ir._root.tree) == tree_shape(cold), step
    reference = build_dispatch_tree(cold.entries, demux.mode)
    assert tree_shape(reference) == tree_shape(cold), step
    for packet in packets:
        got = demux.deliver(packet).accepted_by
        assert got == twin.deliver(packet).accepted_by, (step, packet.hex())
    drain(demux)


class TestIncrementalIRCompile:
    @given(
        churn_steps,
        st.lists(packet_word_lists, min_size=1, max_size=8),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_step_equals_a_cold_compile(self, steps, packet_lists, cached):
        """Attach, detach, SETFILTER re-bind, copy-all flip and
        same-priority reorder each recompile against the previous set,
        over whole-word, high-byte, low-byte and unbucketable filters
        (root-key changes, tied masks of one word, the root's patch and
        regroup paths); after every step the accepting ports,
        ``ir_stats``, the generated source and the dispatch tree's
        structure equal those of a demux compiled from nothing."""
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

    def test_each_root_path(self, monkeypatch):
        """A scripted churn that takes every path of the root at least
        once — patch, key change, an unbucketable filter attached and
        detached, a re-bind that must re-sort its bucket, a reorder, a
        copy-all flip, a tie between two masks of one word — and equals
        a cold compile after each step."""
        paths = []
        dispatch_root = irgen.dispatch_root

        def spy(entries, mode, previous, lowered):
            tree, index, touched = dispatch_root(
                entries, mode, previous, lowered
            )
            if previous is not None:  # not a cold twin's compile
                paths.append("regroup" if touched is None else "patch")
            return tree, index, touched

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
