"""Property tests for the demultiplexer against a reference oracle.

The figure 4-1 loop's contract — priority order, first-match,
copy-all continuation, every engine — is pinned against a 15-line
reference implementation over randomized filter sets and packets.
"""

from hypothesis import given, settings, strategies as st

from repro.core.compiler import compile_expr, word
from repro.core.demux import Engine, PacketFilterDemux
from repro.core.interpreter import evaluate
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
            st.integers(0, 3),  # discriminating word index
            st.integers(0, 3),  # required value
            st.integers(0, 1),  # priority: few classes, so ties reorder
            st.booleans(),      # copy_all
        ),
    ),
    min_size=1,
    max_size=10,
)


def bind_port(port, spec):
    field, value, priority, copy_all = spec
    port.copy_all = copy_all
    port.bind_filter(compile_expr(word(field) == value, priority=priority))


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


class TestIncrementalIRCompile:
    @given(
        churn_steps,
        st.lists(packet_word_lists, min_size=1, max_size=8),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_step_equals_a_cold_compile(self, steps, packet_lists, cached):
        """Attach, detach, SETFILTER re-bind, copy-all flip and
        same-priority reorder each recompile against the previous set;
        after every step the accepting ports, ``ir_stats`` and the
        generated source equal those of a demux compiled from nothing."""
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

            twin = cold_twin(demux)
            assert demux.ir_stats == twin.ir_stats, op
            assert demux._ir.source == twin._ir.source, op
            for packet in packets:
                got = demux.deliver(packet).accepted_by
                assert got == twin.deliver(packet).accepted_by, (
                    op, packet.hex()
                )
            drain(demux)
