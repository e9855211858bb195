"""Integration tests: the packet-filter device inside the simulated kernel.

This is the section 3 user interface exercised end-to-end: open/ioctl/
read/write through real (simulated) syscalls, two hosts on a segment.
"""


from repro.core.compiler import compile_expr, word
from repro.core.ioctl import DataLinkInfo, PFIoctl, PortStatus
from repro.core.port import ReadTimeoutPolicy
from repro.core.program import FilterProgram, asm
from repro.sim import (
    BadFileDescriptor,
    BufferPool,
    Close,
    InvalidArgument,
    Ioctl,
    Open,
    Read,
    Select,
    SigWait,
    Sleep,
    SimTimeout,
    World,
    WouldBlock,
    Write,
)

TYPE = 0x0900


def make_world():
    world = World()
    alice = world.host("alice")
    bob = world.host("bob")
    alice.install_packet_filter()
    bob.install_packet_filter()
    return world, alice, bob


def frame_for(src, dst, payload=b"payload", ethertype=TYPE):
    return src.link.frame(dst.address, src.address, ethertype, payload)


def type_filter(value=TYPE, priority=10):
    return compile_expr(word(6) == value, priority=priority)


class TestRoundTrip:
    def test_send_receive(self):
        world, alice, bob = make_world()

        def receiver():
            fd = yield Open("pf")
            yield Ioctl(fd, PFIoctl.SETFILTER, type_filter())
            [packet] = yield Read(fd)
            return packet.data

        def sender():
            fd = yield Open("pf")
            yield Sleep(0.01)
            yield Write(fd, frame_for(alice, bob))
            return True

        rx = bob.spawn("rx", receiver())
        tx = alice.spawn("tx", sender())
        world.run_until_done(rx, tx)
        assert bob.link.payload_of(rx.result) == b"payload"

    def test_entire_packet_including_header_returned(self):
        world, alice, bob = make_world()

        def receiver():
            fd = yield Open("pf")
            yield Ioctl(fd, PFIoctl.SETFILTER, type_filter())
            [packet] = yield Read(fd)
            return packet.data

        rx = bob.spawn("rx", receiver())

        def sender():
            fd = yield Open("pf")
            yield Sleep(0.01)
            yield Write(fd, frame_for(alice, bob))

        alice.spawn("tx", sender())
        world.run_until_done(rx)
        assert rx.result[:6] == bob.address  # data-link header intact


class TestWriteValidation:
    def test_short_frame_rejected(self):
        world, alice, _ = make_world()

        def body():
            fd = yield Open("pf")
            try:
                yield Write(fd, b"xx")
            except Exception as exc:
                return type(exc).__name__
            return "accepted"

        proc = alice.spawn("p", body())
        world.run_until_done(proc)
        assert proc.result == "InvalidArgument"

    def test_oversized_frame_rejected(self):
        world, alice, _ = make_world()

        def body():
            fd = yield Open("pf")
            try:
                yield Write(fd, bytes(alice.link.max_frame_bytes + 1))
            except Exception as exc:
                return type(exc).__name__

        proc = alice.spawn("p", body())
        world.run_until_done(proc)
        assert proc.result == "InvalidArgument"

    def test_multiple_frames_need_write_batching(self):
        world, alice, bob = make_world()
        frames = (frame_for(alice, bob), frame_for(alice, bob))

        def body():
            fd = yield Open("pf")
            try:
                yield Write(fd, frames)
            except Exception as exc:
                failed = type(exc).__name__
            else:
                failed = None
            yield Ioctl(fd, PFIoctl.SETWRITEBATCH, True)
            total = yield Write(fd, frames)
            return failed, total

        proc = alice.spawn("p", body())
        world.run_until_done(proc)
        failed, total = proc.result
        assert failed == "InvalidArgument"
        assert total == 2 * len(frames[0])


class TestIoctlSurface:
    def test_getinfo(self):
        world, alice, _ = make_world()

        def body():
            fd = yield Open("pf")
            return (yield Ioctl(fd, PFIoctl.GETINFO))

        proc = alice.spawn("p", body())
        world.run_until_done(proc)
        info = proc.result
        assert isinstance(info, DataLinkInfo)
        assert info.datalink_type == "ethernet-10mb"
        assert info.address_length == 6
        assert info.header_length == 14
        assert info.local_address == alice.address
        assert info.broadcast_address == b"\xff" * 6

    def test_getstats(self):
        world, alice, bob = make_world()

        def receiver():
            fd = yield Open("pf")
            yield Ioctl(fd, PFIoctl.SETFILTER, type_filter())
            yield Read(fd)
            return (yield Ioctl(fd, PFIoctl.GETSTATS))

        rx = bob.spawn("rx", receiver())

        def sender():
            fd = yield Open("pf")
            yield Sleep(0.01)
            yield Write(fd, frame_for(alice, bob))

        alice.spawn("tx", sender())
        world.run_until_done(rx)
        stats = rx.result
        assert isinstance(stats, PortStatus)
        assert stats.accepted == 1
        assert stats.delivered == 1

    def test_bad_filter_is_an_ioctl_error(self):
        world, alice, _ = make_world()
        bad = FilterProgram(asm(("PUSHONE", "AND")))

        def body():
            fd = yield Open("pf")
            try:
                yield Ioctl(fd, PFIoctl.SETFILTER, bad)
            except Exception as exc:
                return type(exc).__name__

        proc = alice.spawn("p", body())
        world.run_until_done(proc)
        assert proc.result == "InvalidArgument"

    def test_rejected_rebind_leaves_old_filter_attached(self):
        """SETFILTER is atomic: a rejected program changes nothing."""
        world, alice, bob = make_world()
        bad = FilterProgram(asm(("PUSHONE", "AND")))

        def receiver():
            fd = yield Open("pf")
            yield Ioctl(fd, PFIoctl.SETFILTER, type_filter())
            try:
                yield Ioctl(fd, PFIoctl.SETFILTER, bad)
            except InvalidArgument:
                pass
            [packet] = yield Read(fd)
            return packet.data

        rx = bob.spawn("rx", receiver())

        def sender():
            fd = yield Open("pf")
            yield Sleep(0.02)
            yield Write(fd, frame_for(alice, bob))

        alice.spawn("tx", sender())
        world.run_until_done(rx)
        assert bob.link.payload_of(rx.result) == b"payload"

    def test_rebind_filter(self):
        """"A new filter can be bound at any time." (section 3)"""
        world, alice, bob = make_world()

        def receiver():
            fd = yield Open("pf")
            yield Ioctl(fd, PFIoctl.SETFILTER, type_filter(0x0111))
            yield Ioctl(fd, PFIoctl.SETFILTER, type_filter(TYPE))
            [packet] = yield Read(fd)
            return packet.data

        rx = bob.spawn("rx", receiver())

        def sender():
            fd = yield Open("pf")
            yield Sleep(0.02)
            yield Write(fd, frame_for(alice, bob))

        alice.spawn("tx", sender())
        world.run_until_done(rx)
        assert rx.result

    def test_flush(self):
        world, alice, bob = make_world()

        def receiver():
            fd = yield Open("pf")
            yield Ioctl(fd, PFIoctl.SETFILTER, type_filter())
            yield Sleep(0.05)  # let two packets queue
            flushed = yield Ioctl(fd, PFIoctl.FLUSH)
            return flushed

        rx = bob.spawn("rx", receiver())

        def sender():
            fd = yield Open("pf")
            yield Sleep(0.01)
            yield Write(fd, frame_for(alice, bob))
            yield Write(fd, frame_for(alice, bob))

        alice.spawn("tx", sender())
        world.run_until_done(rx)
        assert rx.result == 2

    def test_unknown_ioctl(self):
        world, alice, _ = make_world()

        def body():
            fd = yield Open("pf")
            try:
                yield Ioctl(fd, 999)
            except Exception as exc:
                return type(exc).__name__

        proc = alice.spawn("p", body())
        world.run_until_done(proc)
        assert proc.result == "InvalidArgument"


class TestReadPolicies:
    def test_timeout_reports_error(self):
        """Section 3: "if no packet arrives during a timeout period, the
        read call terminates and reports an error"."""
        world, alice, _ = make_world()

        def body():
            fd = yield Open("pf")
            yield Ioctl(fd, PFIoctl.SETFILTER, type_filter())
            yield Ioctl(fd, PFIoctl.SETTIMEOUT, ReadTimeoutPolicy.after(0.1))
            try:
                yield Read(fd)
            except SimTimeout:
                return world.now

        proc = alice.spawn("p", body())
        world.run_until_done(proc)
        assert proc.result >= 0.1

    def test_nonblocking_read(self):
        world, alice, _ = make_world()

        def body():
            fd = yield Open("pf")
            yield Ioctl(fd, PFIoctl.SETFILTER, type_filter())
            yield Ioctl(fd, PFIoctl.SETTIMEOUT, ReadTimeoutPolicy.immediate())
            try:
                yield Read(fd)
            except WouldBlock:
                return "would-block"

        proc = alice.spawn("p", body())
        world.run_until_done(proc)
        assert proc.result == "would-block"

    def test_batching_returns_all_pending(self):
        world, alice, bob = make_world()

        def receiver():
            fd = yield Open("pf")
            yield Ioctl(fd, PFIoctl.SETFILTER, type_filter())
            yield Ioctl(fd, PFIoctl.SETBATCH, True)
            yield Sleep(0.08)
            batch = yield Read(fd)
            return len(batch)

        rx = bob.spawn("rx", receiver())

        def sender():
            fd = yield Open("pf")
            yield Sleep(0.01)
            for _ in range(4):
                yield Write(fd, frame_for(alice, bob))

        alice.spawn("tx", sender())
        world.run_until_done(rx)
        assert rx.result == 4

    def test_unbatched_read_returns_one(self):
        world, alice, bob = make_world()

        def receiver():
            fd = yield Open("pf")
            yield Ioctl(fd, PFIoctl.SETFILTER, type_filter())
            yield Sleep(0.08)
            batch = yield Read(fd)
            return len(batch)

        rx = bob.spawn("rx", receiver())

        def sender():
            fd = yield Open("pf")
            yield Sleep(0.01)
            for _ in range(4):
                yield Write(fd, frame_for(alice, bob))

        alice.spawn("tx", sender())
        world.run_until_done(rx)
        assert rx.result == 1


class TestSynchronization:
    def test_select(self):
        world, alice, bob = make_world()

        def receiver():
            fd = yield Open("pf")
            yield Ioctl(fd, PFIoctl.SETFILTER, type_filter())
            ready = yield Select((fd,), 1.0)
            assert ready == [fd]
            [packet] = yield Read(fd)
            return packet.data

        rx = bob.spawn("rx", receiver())

        def sender():
            fd = yield Open("pf")
            yield Sleep(0.01)
            yield Write(fd, frame_for(alice, bob))

        alice.spawn("tx", sender())
        world.run_until_done(rx)
        assert rx.result

    def test_select_timeout(self):
        world, alice, _ = make_world()

        def body():
            fd = yield Open("pf")
            yield Ioctl(fd, PFIoctl.SETFILTER, type_filter())
            ready = yield Select((fd,), 0.05)
            return ready

        proc = alice.spawn("p", body())
        world.run_until_done(proc)
        assert proc.result == []

    def test_signal_on_reception(self):
        world, alice, bob = make_world()
        SIGIO = 23

        def receiver():
            fd = yield Open("pf")
            yield Ioctl(fd, PFIoctl.SETFILTER, type_filter())
            yield Ioctl(fd, PFIoctl.SETSIGNAL, SIGIO)
            signal = yield SigWait()
            [packet] = yield Read(fd)
            return signal, packet.data

        rx = bob.spawn("rx", receiver())

        def sender():
            fd = yield Open("pf")
            yield Sleep(0.01)
            yield Write(fd, frame_for(alice, bob))

        alice.spawn("tx", sender())
        world.run_until_done(rx)
        signal, data = rx.result
        assert signal == SIGIO


class TestTimestamping:
    def test_timestamp_marks_receive_time(self):
        world, alice, bob = make_world()

        def receiver():
            fd = yield Open("pf")
            yield Ioctl(fd, PFIoctl.SETFILTER, type_filter())
            yield Ioctl(fd, PFIoctl.SETTIMESTAMP, True)
            [packet] = yield Read(fd)
            return packet.timestamp

        rx = bob.spawn("rx", receiver())

        def sender():
            fd = yield Open("pf")
            yield Sleep(0.01)
            yield Write(fd, frame_for(alice, bob))

        alice.spawn("tx", sender())
        world.run_until_done(rx)
        assert rx.result is not None
        assert 0 < rx.result <= world.now


class TestCopyAllThroughDevice:
    def test_monitor_gets_copies(self):
        world, alice, bob = make_world()

        def monitor():
            fd = yield Open("pf")
            yield Ioctl(fd, PFIoctl.SETFILTER, type_filter(priority=99))
            yield Ioctl(fd, PFIoctl.SETCOPYALL, True)
            [packet] = yield Read(fd)
            return packet.data

        def owner():
            fd = yield Open("pf")
            yield Ioctl(fd, PFIoctl.SETFILTER, type_filter(priority=10))
            [packet] = yield Read(fd)
            return packet.data

        mon = bob.spawn("monitor", monitor())
        own = bob.spawn("owner", owner())

        def sender():
            fd = yield Open("pf")
            yield Sleep(0.02)
            yield Write(fd, frame_for(alice, bob))

        alice.spawn("tx", sender())
        world.run_until_done(mon, own)
        assert mon.result == own.result


class TestClose:
    def test_close_detaches_port(self):
        world, alice, bob = make_world()

        def opener():
            fd = yield Open("pf")
            yield Ioctl(fd, PFIoctl.SETFILTER, type_filter())
            yield Close(fd)
            return True

        proc = bob.spawn("p", opener())
        world.run_until_done(proc)
        assert bob.packet_filter.demux.attached_ports() == []

    def test_close_with_queued_packets_and_blocked_reader(self):
        """Closing a port with packets still queued and a peer blocked
        in read must detach the filter, free the queue, and error the
        blocked read — the crash-safety contract of teardown."""
        world, alice, bob = make_world()
        fds = {}

        def owner():
            fd = yield Open("pf")
            fds["pf"] = fd
            yield Ioctl(fd, PFIoctl.SETFILTER, type_filter())
            yield Ioctl(fd, PFIoctl.SETQUEUELEN, 8)
            yield Sleep(0.2)   # packets arrive and queue; peer blocks
            yield Close(fd)
            return True

        owner_proc = bob.spawn("owner", owner())

        def peer():
            yield Sleep(0.1)
            fd = bob.kernel.share_fd(owner_proc, fds["pf"], peer_proc)
            # The port already holds packets the *owner* never read —
            # drain them so this read genuinely blocks, then die with
            # the close.
            while True:
                yield Read(fd)

        peer_proc = bob.spawn("peer", peer())

        def sender():
            fd = yield Open("pf")
            yield Sleep(0.02)
            for _ in range(4):
                yield Write(fd, frame_for(alice, bob))
                yield Sleep(0.005)

        alice.spawn("tx", sender())
        world.run_until_done(owner_proc)
        world.run()
        assert owner_proc.result is True
        # Filter detached and queue freed.
        assert bob.packet_filter.demux.attached_ports() == []
        # The blocked peer was errored out, not left wedged forever.
        assert peer_proc.done
        assert isinstance(peer_proc.error, BadFileDescriptor)

    def test_close_releases_pool_buffers(self):
        """With a shared buffer pool installed, a close with packets
        still queued must return every reservation — the audit comes
        back empty."""
        world, alice, bob = make_world()
        pool = BufferPool(32, port_share=16)
        bob.kernel.buffer_pool = pool

        def opener():
            fd = yield Open("pf")
            yield Ioctl(fd, PFIoctl.SETFILTER, type_filter())
            yield Sleep(0.2)   # let packets queue, never read them
            yield Close(fd)
            return pool.in_use

        proc = bob.spawn("p", opener())

        def sender():
            fd = yield Open("pf")
            yield Sleep(0.02)
            for _ in range(3):
                yield Write(fd, frame_for(alice, bob))
                yield Sleep(0.005)

        alice.spawn("tx", sender())
        world.run_until_done(proc)
        world.run()
        assert proc.result == 0
        assert pool.audit() == {}


class TestSetQueueLimitValidation:
    def _attempt(self, argument):
        world, alice, bob = make_world()

        def body():
            fd = yield Open("pf")
            try:
                yield Ioctl(fd, PFIoctl.SETQUEUELEN, argument)
            except InvalidArgument:
                return "rejected"
            return "accepted"

        proc = bob.spawn("p", body())
        world.run_until_done(proc)
        return proc.result

    def test_zero_rejected(self):
        assert self._attempt(0) == "rejected"

    def test_negative_rejected(self):
        assert self._attempt(-4) == "rejected"

    def test_non_integer_rejected(self):
        assert self._attempt("lots") == "rejected"
        assert self._attempt(None) == "rejected"

    def test_positive_accepted(self):
        assert self._attempt(3) == "accepted"

    def test_rejection_is_an_ioctl_error_not_a_crash(self):
        """The regression this guards: int(argument) used to raise a
        plain ValueError out of the syscall layer, which is not a
        SimError and would have escaped the event loop."""
        world, alice, bob = make_world()

        def body():
            fd = yield Open("pf")
            try:
                yield Ioctl(fd, PFIoctl.SETQUEUELEN, 0)
            except InvalidArgument:
                pass
            # The process (and the world) survive to do real work.
            yield Ioctl(fd, PFIoctl.SETQUEUELEN, 16)
            return "alive"

        proc = bob.spawn("p", body())
        world.run_until_done(proc)
        assert proc.result == "alive"
