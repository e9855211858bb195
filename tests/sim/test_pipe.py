"""Tests for the byte-stream pipe with copy charging."""

import pytest

from repro.sim import (
    BrokenPipe,
    Close,
    InvalidArgument,
    PipeCreate,
    Read,
    Sleep,
    World,
    Write,
)
from repro.sim.process import ProcessState


def run_pipe(body_factory):
    world = World()
    host = world.host("h")
    proc = host.spawn("p", body_factory())
    world.run_until_done(proc)
    return world, host, proc


class TestByteStream:
    def test_read_drains_everything_buffered(self):
        def body():
            rfd, wfd = yield PipeCreate()
            yield Write(wfd, b"aaa")
            yield Write(wfd, b"bbb")
            data = yield Read(rfd)
            return data

        _, _, proc = run_pipe(body)
        assert proc.result == b"aaabbb"  # stream, not messages

    def test_read_respects_size(self):
        def body():
            rfd, wfd = yield PipeCreate()
            yield Write(wfd, b"abcdef")
            first = yield Read(rfd, 4)
            rest = yield Read(rfd)
            return first, rest

        _, _, proc = run_pipe(body)
        assert proc.result == (b"abcd", b"ef")

    def test_vectored_write(self):
        def body():
            rfd, wfd = yield PipeCreate()
            yield Write(wfd, (b"one", b"two", b"three"))
            return (yield Read(rfd))

        _, _, proc = run_pipe(body)
        assert proc.result == b"onetwothree"

    def test_eof_after_writer_close(self):
        def body():
            rfd, wfd = yield PipeCreate()
            yield Write(wfd, b"last")
            yield Close(wfd)
            data = yield Read(rfd)
            eof = yield Read(rfd)
            return data, eof

        _, _, proc = run_pipe(body)
        assert proc.result == (b"last", b"")

    def test_write_after_reader_close_breaks(self):
        def body():
            rfd, wfd = yield PipeCreate()
            yield Close(rfd)
            try:
                yield Write(wfd, b"x")
            except BrokenPipe:
                return "epipe"

        _, _, proc = run_pipe(body)
        assert proc.result == "epipe"


class TestBlockingAndCosts:
    def test_reader_blocks_until_data(self):
        world = World()
        host = world.host("h")
        fds = {}

        def producer():
            rfd, wfd = yield PipeCreate()
            fds["r"] = rfd
            yield Sleep(0.2)
            yield Write(wfd, b"late data")

        producer_proc = host.spawn("producer", producer())

        def consumer():
            yield Sleep(0.01)
            rfd = host.kernel.share_fd(producer_proc, fds["r"], consumer_proc)
            data = yield Read(rfd)
            return world.now, data

        consumer_proc = host.spawn("consumer", consumer())
        world.run_until_done(consumer_proc)
        when, data = consumer_proc.result
        assert data == b"late data"
        assert when >= 0.2

    def test_writer_blocks_when_full(self):
        from repro.sim.pipe import PIPE_CAPACITY

        world = World()
        host = world.host("h")

        def body():
            rfd, wfd = yield PipeCreate()
            yield Write(wfd, bytes(PIPE_CAPACITY))  # fills it
            # Second write must wait for the drain below to happen...
            yield Write(wfd, b"more")
            return world.now

        proc = host.spawn("p", body())

        def drainer():
            yield Sleep(0.3)
            rfd = host.kernel.share_fd(proc, 3, drain_proc)
            yield Read(rfd)

        drain_proc = host.spawn("drainer", drainer())
        world.run_until_done(proc)
        assert proc.result >= 0.3

    def test_each_transfer_charges_a_copy(self):
        def body():
            rfd, wfd = yield PipeCreate()
            yield Write(wfd, bytes(1024))
            yield Read(rfd)

        _, host, _ = run_pipe(body)
        assert host.stats.copies == 2  # one in, one out
        assert host.stats.bytes_copied == 2048


HOSTILE_PIPE_CALLS = [
    pytest.param(make, id=name)
    for name, make in (
        ("Write(5)", lambda rfd, wfd: Write(wfd, 5)),
        ("Write(None)", lambda rfd, wfd: Write(wfd, None)),
        ("Write('text')", lambda rfd, wfd: Write(wfd, "text")),
        ("Write([b'ok', 5])", lambda rfd, wfd: Write(wfd, [b"ok", 5])),
        ("Write(memoryview)", lambda rfd, wfd: Write(wfd, memoryview(b"x"))),
        ("Read('abc')", lambda rfd, wfd: Read(rfd, "abc")),
        ("Read(-1)", lambda rfd, wfd: Read(rfd, -1)),
        ("Read(1.5)", lambda rfd, wfd: Read(rfd, 1.5)),
    )
]


class TestHostilePipeArguments:
    """A bad ``Write.data`` or ``Read.size`` is the calling process's
    error and nobody else's: it is rejected before the call can block,
    and never raises out of the event loop."""

    @pytest.mark.parametrize("buffered", [b"", b"queued"], ids=["empty", "full"])
    @pytest.mark.parametrize("make", HOSTILE_PIPE_CALLS)
    def test_only_the_offender_fails(self, make, buffered):
        world = World()
        host = world.host("h")

        def offender():
            rfd, wfd = yield PipeCreate()
            if buffered:
                yield Write(wfd, buffered)
            yield make(rfd, wfd)

        def bystander():
            rfd, wfd = yield PipeCreate()
            yield Write(wfd, b"fine")
            yield Sleep(0.01)
            return (yield Read(rfd))

        bad = host.spawn("bad", offender())
        good = host.spawn("good", bystander())
        world.run_until_done(good)
        world.run()
        assert bad.state is ProcessState.FAILED
        assert isinstance(bad.error, InvalidArgument)
        assert good.result == b"fine"

    @pytest.mark.parametrize("make", HOSTILE_PIPE_CALLS)
    def test_the_offender_may_catch_it_and_carry_on(self, make):
        def body():
            rfd, wfd = yield PipeCreate()
            try:
                yield make(rfd, wfd)
            except InvalidArgument:
                yield Write(wfd, b"after")
                return (yield Read(rfd))

        _, _, proc = run_pipe(body)
        assert proc.result == b"after"

    def test_zero_size_read_and_list_write_are_legal(self):
        def body():
            rfd, wfd = yield PipeCreate()
            yield Write(wfd, [b"a", bytearray(b"b")])
            empty = yield Read(rfd, 0)
            return empty, (yield Read(rfd))

        _, _, proc = run_pipe(body)
        assert proc.result == (b"", b"ab")
