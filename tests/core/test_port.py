"""Tests for ports: queues, batching, drop counting, policies."""

import pytest

from repro.core.port import (
    DEFAULT_QUEUE_LIMIT,
    DeliveredPacket,
    Port,
    ReadTimeoutPolicy,
)


class TestQueue:
    def test_enqueue_dequeue(self):
        port = Port(0)
        assert port.enqueue(b"one")
        assert port.enqueue(b"two")
        [first] = port.read_packets(1)
        assert first.data == b"one"
        assert port.queued == 1

    def test_overflow_drops_and_counts(self):
        port = Port(0, queue_limit=2)
        assert port.enqueue(b"1")
        assert port.enqueue(b"2")
        assert not port.enqueue(b"3")
        assert port.stats.dropped_overflow == 1
        assert port.stats.accepted == 3
        assert port.stats.delivered == 2

    def test_drop_count_rides_on_next_packet(self):
        """Section 3.3: packets carry the count of packets lost so far."""
        port = Port(0, queue_limit=1)
        port.enqueue(b"1")
        port.enqueue(b"dropped")
        port.read_packets()
        port.enqueue(b"2")
        [packet] = port.read_packets()
        assert packet.drops_before == 1

    def test_queue_limit_shrink_discards(self):
        port = Port(0, queue_limit=8)
        for i in range(8):
            port.enqueue(bytes([i]))
        port.set_queue_limit(3)
        assert port.queued == 3
        assert port.stats.dropped_resize == 5
        # Shrink discards are not wire-time congestion: the section 3.3
        # overflow count must not move.
        assert port.stats.dropped_overflow == 0

    def test_shrink_does_not_inflate_drops_before(self):
        """Regression: a shrink used to count into dropped_overflow,
        stamping a phantom loss onto every later packet's mark."""
        port = Port(0, queue_limit=4)
        for i in range(4):
            port.enqueue(bytes([i]))
        port.set_queue_limit(2)
        port.read_packets()
        assert port.enqueue(b"after")
        [packet] = port.read_packets()
        assert packet.drops_before == 0

    def test_queue_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            Port(0, queue_limit=0)
        with pytest.raises(ValueError):
            Port(0).set_queue_limit(0)

    def test_default_limit(self):
        assert Port(0).queue_limit == DEFAULT_QUEUE_LIMIT

    def test_flush(self):
        port = Port(0)
        port.enqueue(b"a")
        port.enqueue(b"b")
        assert port.flush() == 2
        assert not port.readable()


class TestBatching:
    def test_read_all(self):
        port = Port(0)
        for i in range(5):
            port.enqueue(bytes([i]))
        batch = port.read_packets(None)
        assert len(batch) == 5
        assert port.stats.reads == 1
        assert port.stats.read == 5

    def test_read_limited(self):
        port = Port(0)
        for i in range(5):
            port.enqueue(bytes([i]))
        assert len(port.read_packets(2)) == 2
        assert port.queued == 3

    def test_empty_read_not_counted(self):
        port = Port(0)
        assert port.read_packets() == []
        assert port.stats.reads == 0
        assert port.stats.read == 0


class TestTimestamping:
    def test_timestamp_only_when_enabled(self):
        port = Port(0)
        port.enqueue(b"x", timestamp=1.25)
        [plain] = port.read_packets()
        assert plain.timestamp is None

        port.timestamping = True
        port.enqueue(b"y", timestamp=2.5)
        [stamped] = port.read_packets()
        assert stamped.timestamp == 2.5


class TestReadTimeoutPolicy:
    def test_immediate(self):
        policy = ReadTimeoutPolicy.immediate()
        assert not policy.blocking

    def test_forever(self):
        policy = ReadTimeoutPolicy.forever()
        assert policy.blocking and policy.timeout is None

    def test_after(self):
        policy = ReadTimeoutPolicy.after(0.5)
        assert policy.blocking and policy.timeout == 0.5

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            ReadTimeoutPolicy.after(-1)


class TestDeliveredPacket:
    def test_len(self):
        assert len(DeliveredPacket(data=b"abcd")) == 4

    def test_priority_of_unbound_port_sorts_last(self):
        assert "priority=-1" in repr(Port(0))
