"""Tests for the simulated kernel: processes, syscalls, accounting."""

import math

import pytest

from repro.core import PFIoctl, compile_expr, word
from repro.core.instructions import BinaryOp, EncodingError, Instruction
from repro.core.program import FilterProgram
from repro.sim import (
    BadFileDescriptor,
    Close,
    Compute,
    InvalidArgument,
    Ioctl,
    NoSuchDevice,
    Open,
    PipeCreate,
    Primitive,
    Read,
    Select,
    SigWait,
    Sleep,
    World,
    Write,
)
from repro.sim.kernel import DeviceDriver, DeviceHandle
from repro.sim.process import ProcessState


class EchoHandle(DeviceHandle):
    """Test device: write stores, read returns what was written."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.stored = b""

    def write(self, process, call):
        self.stored = call.data
        self.kernel.complete(process, len(call.data))

    def read(self, process, call):
        self.kernel.complete(process, self.stored)

    def poll_readable(self):
        return bool(self.stored)


class EchoDevice(DeviceDriver):
    def open(self, kernel, process):
        return EchoHandle(kernel)


def make_host():
    world = World()
    host = world.host("h")
    host.kernel.register_device("echo", EchoDevice())
    return world, host


class TestProcessLifecycle:
    def test_process_returns_value(self):
        world, host = make_host()

        def body():
            yield Sleep(0.01)
            return 42

        proc = host.spawn("p", body())
        world.run_until_done(proc)
        assert proc.result == 42
        assert proc.state is ProcessState.DONE
        assert proc.finished_at == pytest.approx(world.now)

    def test_uncaught_kernel_error_fails_process(self):
        world, host = make_host()

        def body():
            yield Open("missing-device")

        proc = host.spawn("p", body())
        world.run()
        assert proc.state is ProcessState.FAILED
        assert isinstance(proc.error, NoSuchDevice)

    def test_process_can_catch_kernel_errors(self):
        world, host = make_host()

        def body():
            try:
                yield Open("missing-device")
            except NoSuchDevice:
                return "caught"

        proc = host.spawn("p", body())
        world.run_until_done(proc)
        assert proc.result == "caught"

    def test_yielding_garbage_fails(self):
        world, host = make_host()

        def body():
            yield "not a syscall"

        proc = host.spawn("p", body())
        world.run()
        assert isinstance(proc.error, InvalidArgument)

    def test_fds_closed_on_exit(self):
        world, host = make_host()

        def body():
            yield Open("echo")
            return True

        proc = host.spawn("p", body())
        world.run_until_done(proc)
        assert proc.fds == {}


class TestFileDescriptors:
    def test_open_read_write_close(self):
        world, host = make_host()

        def body():
            fd = yield Open("echo")
            yield Write(fd, b"hello")
            data = yield Read(fd)
            yield Close(fd)
            return data

        proc = host.spawn("p", body())
        world.run_until_done(proc)
        assert proc.result == b"hello"

    def test_bad_fd(self):
        world, host = make_host()

        def body():
            try:
                yield Read(17)
            except BadFileDescriptor:
                return "ebadf"

        proc = host.spawn("p", body())
        world.run_until_done(proc)
        assert proc.result == "ebadf"

    def test_double_close(self):
        world, host = make_host()

        def body():
            fd = yield Open("echo")
            yield Close(fd)
            try:
                yield Close(fd)
            except BadFileDescriptor:
                return "ebadf"

        proc = host.spawn("p", body())
        world.run_until_done(proc)
        assert proc.result == "ebadf"


class TestTimeAccounting:
    def test_sleep_advances_clock_without_cpu(self):
        world, host = make_host()

        def body():
            yield Sleep(0.5)

        proc = host.spawn("p", body())
        world.run_until_done(proc)
        assert world.now >= 0.5
        # Only syscall overhead was charged, not 0.5s of CPU.
        assert host.stats.cpu_time < 0.01

    def test_compute_charges_cpu(self):
        world, host = make_host()

        def body():
            yield Compute(0.25)

        proc = host.spawn("p", body())
        world.run_until_done(proc)
        assert host.stats.cpu_time >= 0.25

    def test_syscalls_counted_with_two_crossings_each(self):
        world, host = make_host()

        def body():
            fd = yield Open("echo")
            yield Write(fd, b"x")
            yield Read(fd)

        proc = host.spawn("p", body())
        world.run_until_done(proc)
        assert host.stats.syscalls == 3
        assert host.stats.domain_crossings == 6

    def test_context_switch_between_processes(self):
        world, host = make_host()

        def body():
            yield Compute(0.001)
            yield Compute(0.001)

        a = host.spawn("a", body())
        b = host.spawn("b", body())
        world.run_until_done(a, b)
        assert host.stats.context_switches >= 2

    def test_single_nonblocking_process_never_switches(self):
        """§6.5.1's best case: never suspended => no switches."""
        world, host = make_host()

        def body():
            fd = yield Open("echo")
            yield Write(fd, b"x")
            for _ in range(5):
                yield Read(fd)  # data always ready: no blocking

        proc = host.spawn("p", body())
        world.run_until_done(proc)
        assert host.stats.context_switches == 0

    def test_cpu_serializes_charges(self):
        world, host = make_host()
        kernel = host.kernel
        t0 = kernel.account(Primitive.COMPUTE, 0.010)
        t1 = kernel.account(Primitive.COMPUTE, 0.010)
        assert t1 == pytest.approx(t0 + 0.010)


HOSTILE_CALLS = [
    pytest.param(make, value, id=f"{name}({value!r})")
    for name, make in (
        ("Sleep", Sleep),
        ("Compute", Compute),
        ("Select", lambda timeout: Select((), timeout)),
    )
    for value in (-1.0, float("nan"), float("inf"), "x", None)
    if not (name == "Select" and value is None)  # None: wait for ever
]


class TestHostileTimeArguments:
    """A duration that is not a finite, non-negative real is the calling
    process's error and nobody else's: it must not raise out of the
    event loop, reach the heap, stop the clock at infinity or run
    ``cpu_time`` backwards."""

    @pytest.mark.parametrize("make, value", HOSTILE_CALLS)
    def test_only_the_offender_fails(self, make, value):
        world, host = make_host()

        def offender():
            yield make(value)

        def sibling():
            yield Sleep(0.01)
            yield Compute(0.001)
            return "fine"

        bad = host.spawn("bad", offender())
        good = host.spawn("good", sibling())
        world.run_until_done(good)
        world.run()
        assert bad.state is ProcessState.FAILED
        assert isinstance(bad.error, InvalidArgument)
        assert good.result == "fine"
        assert math.isfinite(world.now)
        assert 0.0 <= host.stats.cpu_time < 1.0

    @pytest.mark.parametrize("make, value", HOSTILE_CALLS)
    def test_the_offender_may_catch_it_and_carry_on(self, make, value):
        world, host = make_host()

        def body():
            try:
                yield make(value)
            except InvalidArgument:
                yield Sleep(0.01)
                return "recovered"

        proc = host.spawn("p", body())
        world.run_until_done(proc)
        assert proc.result == "recovered"

    def test_zero_and_integer_durations_are_legal(self):
        world, host = make_host()

        def body():
            yield Sleep(0)
            yield Compute(0)
            ready = yield Select((), 0)
            yield Sleep(1)
            return ready

        proc = host.spawn("p", body())
        world.run_until_done(proc)
        assert proc.result == []
        assert world.now >= 1.0


FRAME = bytes(64)   # long enough to carry the data-link header

HOSTILE_PF_CALLS = [
    pytest.param(option, make, value, id=f"{option.name}-{make.__name__}({label})")
    for option, make, values in (
        (
            PFIoctl.SETWRITEBATCH,
            Write,
            {
                "5": 5,
                "[1, 2]": [1, 2],
                "None": None,
                "[frame, str]": [FRAME, "x" * 64],
            },
        ),
        (PFIoctl.SETBATCH, Read, {"'x'": "x", "-1": -1, "0": 0, "1.5": 1.5}),
        # ... and with read batching off (any other option would do)
        (PFIoctl.SETTIMESTAMP, Read, {"'x'": "x", "-1": -1, "0": 0, "1.5": 1.5}),
    )
    for label, value in values.items()
]


HOSTILE_PROGRAMS = {
    "reserved-action": lambda: FilterProgram([Instruction(9)]),
    "operator-99": lambda: FilterProgram([Instruction(16, operator=99)]),
    "operator-str": lambda: FilterProgram([Instruction(16, operator="x")]),
    "not-an-instruction": lambda: FilterProgram([5]),
    # these two pass validation at bind time, then raise at packet time
    "float-action": lambda: FilterProgram([Instruction(16.0)]),
    "float-literal": lambda: FilterProgram(
        [Instruction(16), Instruction(1, operator=BinaryOp.AND, literal=2.5)]
    ),
}


class TestHostilePacketFilterArguments:
    """``Write.data`` and ``Read.size`` reach the packet filter straight
    from user code: a value of the wrong type or range is the calling
    process's error, never an exception out of the event loop and never
    a read that quietly returns the wrong number of packets."""

    @pytest.mark.parametrize("option, make, value", HOSTILE_PF_CALLS)
    def test_only_the_offender_fails(self, option, make, value):
        world = World()
        host = world.host("h", promiscuous=True)
        host.install_packet_filter()
        bystander = world.host("bystander")
        survived = []

        def offender():
            fd = yield Open("pf")
            yield Ioctl(fd, PFIoctl.SETFILTER, compile_expr(word(0) == 0))
            yield Ioctl(fd, option, True)
            yield Sleep(0.01)           # three packets queue up meanwhile
            try:
                yield make(fd, value)
            except InvalidArgument:
                survived.append((yield Read(fd)))
                raise

        def sibling():
            yield Sleep(0.02)
            yield Compute(0.001)
            return "fine"

        for _ in range(3):
            world.scheduler.schedule(0.005, host.nic.receive, FRAME)
        bad = host.spawn("bad", offender())
        good = bystander.spawn("good", sibling())
        world.run_until_done(good)
        world.run()
        assert bad.state is ProcessState.FAILED
        assert isinstance(bad.error, InvalidArgument)
        assert good.result == "fine"
        assert math.isfinite(world.now)
        # the refused call consumed nothing: every queued packet is
        # still there for the read that follows
        [batch] = survived
        assert len(batch) == (3 if option is PFIoctl.SETBATCH else 1)

    @pytest.mark.parametrize(
        "make", HOSTILE_PROGRAMS.values(), ids=list(HOSTILE_PROGRAMS)
    )
    def test_hostile_program_fails_only_its_author(self, make):
        """A malformed ``SETFILTER`` program is refused where it is
        built, in its author's own code: it never reaches the kernel,
        so no ioctl handler can raise anything but a ``SimError``."""
        world = World()
        a = world.host("a", promiscuous=True)
        a.install_packet_filter()
        b = world.host("b")

        def offender():
            fd = yield Open("pf")
            yield Ioctl(fd, PFIoctl.SETFILTER, make())
            yield Sleep(0.01)           # three packets arrive meanwhile

        def bystander():
            yield Sleep(0.02)
            return "fine"

        for _ in range(3):
            world.scheduler.schedule(0.005, a.nic.receive, FRAME)
        bad = a.spawn("bad", offender())
        good = b.spawn("good", bystander())
        world.run_until_done(good)
        assert bad.state is ProcessState.FAILED
        assert isinstance(bad.error, EncodingError)
        assert good.result == "fine"

    def test_legal_sizes_and_batches_still_work(self):
        world = World()
        host = world.host("h", promiscuous=True)
        host.install_packet_filter()

        def body():
            fd = yield Open("pf")
            yield Ioctl(fd, PFIoctl.SETFILTER, compile_expr(word(0) == 0))
            yield Ioctl(fd, PFIoctl.SETBATCH, True)
            yield Ioctl(fd, PFIoctl.SETWRITEBATCH, True)
            sent = yield Write(fd, [FRAME, bytearray(FRAME)])
            yield Sleep(0.01)
            two = yield Read(fd, 2)
            rest = yield Read(fd)
            return sent, len(two), len(rest)

        for _ in range(3):
            world.scheduler.schedule(0.005, host.nic.receive, FRAME)
        proc = host.spawn("p", body())
        world.run_until_done(proc)
        assert proc.result == (128, 2, 1)


class TestSignals:
    def test_sigwait_blocks_until_posted(self):
        world, host = make_host()

        def body():
            signal = yield SigWait()
            return signal

        proc = host.spawn("p", body())
        world.run()  # goes idle, blocked
        host.kernel.post_signal(proc, 17)
        world.run_until_done(proc)
        assert proc.result == 17

    def test_pending_signal_returned_immediately(self):
        world, host = make_host()

        def body():
            yield Sleep(0.05)
            return (yield SigWait())

        proc = host.spawn("p", body())
        world.run(until=0.01)
        host.kernel.post_signal(proc, 9)
        world.run_until_done(proc)
        assert proc.result == 9

    def test_signals_queue_in_order(self):
        world, host = make_host()

        def body():
            first = yield SigWait()
            second = yield SigWait()
            return (first, second)

        proc = host.spawn("p", body())
        world.run()
        host.kernel.post_signal(proc, 1)
        host.kernel.post_signal(proc, 2)
        world.run_until_done(proc)
        assert proc.result == (1, 2)


class TestPipesViaSyscall:
    def test_pipe_create_and_transfer(self):
        world, host = make_host()

        def body():
            rfd, wfd = yield PipeCreate()
            yield Write(wfd, b"through the pipe")
            data = yield Read(rfd)
            return data

        proc = host.spawn("p", body())
        world.run_until_done(proc)
        assert proc.result == b"through the pipe"

    def test_share_fd_between_processes(self):
        world, host = make_host()
        box = {}

        def producer():
            rfd, wfd = yield PipeCreate()
            box["rfd_handle"] = (yield Sleep(0.0)) or None
            yield Write(wfd, b"shared")
            yield Sleep(0.1)

        producer_proc = host.spawn("producer", producer())

        def consumer():
            yield Sleep(0.02)
            rfd = host.kernel.share_fd(producer_proc, 3, consumer_proc)
            data = yield Read(rfd)
            return data

        consumer_proc = host.spawn("consumer", consumer())
        world.run_until_done(consumer_proc)
        assert consumer_proc.result == b"shared"
