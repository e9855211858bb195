"""Shards: groups of segments stepping in lockstep, possibly in
separate processes.

A shard owns one or more :class:`~repro.sim.topology.SegmentRuntime`
and exposes the conservative-synchronization surface the orchestrator
drives:

``step(horizon, frames)``
    A *time grant* (the null message of null-message algorithms, carried
    on the same call that delivers any actual frames): inject the
    inbound bridged frames, run every owned segment's world up to — but
    excluding — ``horizon``, and return the frames captured for other
    segments plus the earliest pending local event time.

``collect()``
    Per-segment :class:`~repro.sim.topology.SegmentReport` records —
    stats, ledger, telemetry snapshot, builder reports — as picklable
    data.

Two interchangeable implementations: :class:`LocalShard` runs in the
calling process (the ``shards=1`` fallback — and the oracle that the
multiprocess path must match bitwise); :class:`ProcessShard` runs a
:class:`LocalShard` inside a ``multiprocessing`` worker, speaking a
small tuple protocol over a pipe.  The send/receive halves are split so
the orchestrator can grant time to every shard before blocking on any
reply — that concurrency is the whole speedup.

Failure is a first-class event here.  A dead worker (EOF on the pipe)
raises :class:`ShardDiedError`; an unresponsive one (no reply within
the configured deadline) raises :class:`ShardTimeoutError` — both carry
the shard id, the window being waited on, and the last acknowledged
window, and ``close()`` always reaps the child either way.

Checkpointing uses the cheapest state-capture primitive an OS offers:
``fork()``.  Per-segment worlds hold live generator frames — they can
never be pickled — but at a window boundary every shard is quiescent
(the conservative protocol guarantees it), so the worker forks a
*frozen child* whose copy-on-write memory image **is** the checkpoint.
The frozen child closes its copy of the command pipe immediately (so
supervisor-side EOF detection still works), then waits to be orphaned;
if its parent dies, it announces itself on the shard's recovery
listener and becomes the live worker, resuming from the checkpointed
window.  The supervisor replays the journaled grants since that window
— deterministic replay makes the recovered run bitwise identical to an
undisturbed one (the digest oracle enforces this).

Deterministic failure *injection* rides the same protocol: a ``hazard``
spec makes the worker kill itself (``die_at_window``) or hang
(``wedge_at_window``/``wedge_seconds``) at an exact window, so recovery
tests pick their crash sites with a seeded RNG instead of racing real
signals.  Hazards are one-shot: a promoted checkpoint child and a fresh
respawn both run hazard-free, so replay does not crash-loop.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import time

from .topology import SegmentRuntime, TopologySpec

__all__ = [
    "LocalShard",
    "ProcessShard",
    "ShardError",
    "ShardDiedError",
    "ShardTimeoutError",
    "partition",
]

#: How long the supervisor waits for a frozen checkpoint child to
#: notice it was orphaned and offer itself for promotion.
PROMOTE_TIMEOUT = 5.0


class ShardError(RuntimeError):
    """Base for shard-worker failures, carrying where the run stood."""

    def __init__(
        self,
        message: str,
        *,
        shard_id: int,
        window_index: int,
        last_ack: int,
    ) -> None:
        super().__init__(message)
        self.shard_id = shard_id
        #: the window whose reply was outstanding when the failure surfaced
        self.window_index = window_index
        #: the last window the worker acknowledged before failing
        self.last_ack = last_ack


class ShardDiedError(ShardError):
    """The worker process died (EOF / broken pipe on its connection)."""


class ShardTimeoutError(ShardError):
    """The worker produced no reply within the configured deadline."""


def partition(count: int, shards: int) -> list[list[int]]:
    """Deal ``count`` segment indices round-robin into ``shards`` groups.

    Round-robin keeps neighbouring (often similarly loaded) segments on
    different shards; the assignment is a pure function of the two
    counts, so every run partitions identically.
    """
    if shards < 1:
        raise ValueError("need at least one shard")
    groups: list[list[int]] = [[] for _ in range(min(shards, count))]
    for index in range(count):
        groups[index % len(groups)].append(index)
    return groups


class LocalShard:
    """Segments stepped in the calling process."""

    def __init__(self, topology: TopologySpec, indices: list[int]) -> None:
        # Build in index order: construction order is observable (RNG
        # draws, sequence numbers) and must be partition-independent.
        self.runtimes = {
            topology.segments[index].name: SegmentRuntime(topology, index)
            for index in sorted(indices)
        }
        self._reply = None

    # -- stepping -------------------------------------------------------

    def step(self, horizon: float | None, frames: list) -> tuple:
        """Run one window; returns (events fired, egress, next time).

        ``horizon=None`` means "no bridges anywhere": run each world to
        quiescence instead of to a time bound.
        """
        by_segment: dict[str, list] = {}
        for record in frames:
            by_segment.setdefault(record.dst_segment, []).append(record)
        for name, runtime in self.runtimes.items():
            runtime.inject(by_segment.get(name, []))
        fired = 0
        egress: list = []
        for runtime in self.runtimes.values():
            if horizon is None:
                fired += runtime.run_to_quiescence()
            else:
                fired += runtime.run_until(horizon)
            egress.extend(runtime.drain_egress())
        times = [
            t
            for t in (runtime.next_time() for runtime in self.runtimes.values())
            if t is not None
        ]
        return fired, egress, (min(times) if times else None)

    # Split halves, so Local and Process shards drive identically: the
    # orchestrator issues every send, then drains every receive.

    def step_send(self, horizon: float | None, frames: list) -> None:
        self._reply = self.step(horizon, frames)

    def step_recv(self) -> tuple:
        reply, self._reply = self._reply, None
        return reply

    # -- collection -----------------------------------------------------

    def collect(self) -> list:
        return [runtime.collect() for runtime in self.runtimes.values()]

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# the worker side
# ---------------------------------------------------------------------------


def _kill_quietly(pid: int | None, sig: int = signal.SIGKILL) -> None:
    if pid is None:
        return
    try:
        os.kill(pid, sig)
    except OSError:
        pass


def _await_promotion(conn, settings: dict, window: int, pending: tuple):
    """The frozen checkpoint child: park until orphaned, then offer
    this process as the recovered shard.

    Closing the inherited command pipe first is load-bearing — it keeps
    the supervisor's EOF detection crisp (only the live worker holds the
    pipe).  ``pending`` is the reply the parent had computed but may not
    have delivered before dying; it rides the promotion handshake so a
    crash *between compute and send* loses nothing.
    """
    try:
        conn.close()
    except OSError:
        pass
    parent = os.getppid()
    while os.getppid() == parent:
        time.sleep(0.02)
    try:
        fresh = multiprocessing.connection.Client(
            settings["promote_address"], authkey=settings["authkey"]
        )
        fresh.send(("promoted", window, pending))
    except (OSError, EOFError, multiprocessing.AuthenticationError):
        os._exit(0)
    return fresh


def _shard_worker(
    topology: TopologySpec, indices: list[int], conn, settings: dict | None = None
) -> None:
    """Worker main loop: build the shard, then serve step/collect/exit."""
    settings = settings or {}
    hazard = dict(settings.get("hazard") or {})
    interval = settings.get("checkpoint_interval")
    can_checkpoint = (
        hasattr(os, "fork")
        and interval
        and settings.get("promote_address") is not None
    )
    shard = LocalShard(topology, indices)
    # The observability sideband: a second, send-only pipe the worker
    # flushes one bounded progress delta down after every window.  It
    # is strictly best-effort — a vanished aggregator turns the stream
    # off, never the simulation — and it never carries protocol
    # traffic, so the grant channel's ordering is untouched.
    sideband = settings.get("sideband")
    source = None
    if sideband is not None:
        from .obsplane import SidebandSource

        source = SidebandSource(shard, settings.get("shard_id", 0))
    window = 0
    frozen_pid: int | None = None
    try:
        while True:
            message = conn.recv()
            command = message[0]
            if command == "step":
                window += 1
                if hazard.get("die_at_window") == window:
                    os._exit(13)
                if hazard.get("wedge_at_window") == window:
                    time.sleep(float(hazard.get("wedge_seconds", 3600.0)))
                _, horizon, frames = message
                reply = shard.step(horizon, frames)
                checkpoint = None
                if can_checkpoint and window % interval == 0:
                    # Retire the previous checkpoint *before* forking
                    # the new one: at most one frozen child ever exists,
                    # so at most one process can answer a promotion.
                    _kill_quietly(frozen_pid)
                    frozen_pid = None
                    fork_started = time.perf_counter()
                    pid = os.fork()
                    if pid == 0:
                        conn = _await_promotion(
                            conn,
                            settings,
                            window,
                            ("stepped", window) + reply + (None,),
                        )
                        # We are now the live worker, resumed from this
                        # window's state: hazards are spent, and any
                        # checkpoint pid belonged to our dead parent.
                        # The inherited sideband write end (and the
                        # source's cursors, frozen with our state) stay
                        # valid — the stream resumes where it paused.
                        hazard = {}
                        frozen_pid = None
                        continue
                    fork_seconds = time.perf_counter() - fork_started
                    frozen_pid = pid
                    checkpoint = (window, pid, fork_seconds)
                    if source is not None:
                        source.note_checkpoint(window, fork_seconds)
                conn.send(("stepped", window) + reply + (checkpoint,))
                if sideband is not None and source is not None:
                    try:
                        sideband.send(
                            source.delta(
                                window=window, egress_backlog=len(reply[1])
                            )
                        )
                    except (BrokenPipeError, OSError):
                        sideband = None
            elif command == "collect":
                conn.send(("collected", shard.collect()))
            elif command == "exit":
                return
            else:
                conn.send(("error", f"unknown command {command!r}"))
    except (EOFError, KeyboardInterrupt, BrokenPipeError):
        pass
    finally:
        _kill_quietly(frozen_pid)
        if sideband is not None:
            try:
                sideband.close()
            except OSError:
                pass
        try:
            conn.close()
        except OSError:
            pass


def _wait_dead(process, timeout: float | None) -> None:
    """``process.join(timeout)`` by polling ``is_alive()``."""
    deadline = None if timeout is None else time.monotonic() + timeout
    while process.is_alive():
        if deadline is not None and time.monotonic() >= deadline:
            return
        time.sleep(0.002)


def _default_context():
    """Fork where available (cheap, inherits imports); spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and os.name == "posix":
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


def _accept_with_timeout(listener, timeout: float):
    """Accept on a ``multiprocessing.connection.Listener`` with a
    deadline (None on timeout or a failed authentication handshake)."""
    try:
        listener._listener._socket.settimeout(timeout)
    except AttributeError:
        return None
    try:
        return listener.accept()
    except (OSError, EOFError, multiprocessing.AuthenticationError):
        return None


class _PidHandle:
    """A process-like handle over a promoted checkpoint child.

    It is not a ``multiprocessing.Process`` — it was forked by the
    worker, then orphaned — so the supervisor drives it through plain
    signals and cannot ``waitpid`` it: once it exits it stays a zombie
    until PID 1 gets round to reaping it (never, in a container without
    an init), and ``kill(pid, 0)`` succeeds on a zombie.  So a zombie
    counts as dead, and ``join`` polls.
    """

    def __init__(self, pid: int) -> None:
        self.pid = pid

    def is_alive(self) -> bool:
        try:
            os.kill(self.pid, 0)
        except OSError:
            return False
        try:
            with open(f"/proc/{self.pid}/stat", "rb") as stat:
                # "pid (comm) state ...": comm may hold anything, so
                # the state letter is the first field after the last ")".
                state = stat.read().rpartition(b")")[2].split()[0]
        except (OSError, IndexError):
            return True   # no procfs: kill(0) is all there is to go on
        return state not in (b"Z", b"X")

    def terminate(self) -> None:
        _kill_quietly(self.pid, signal.SIGTERM)

    def kill(self) -> None:
        _kill_quietly(self.pid, signal.SIGKILL)

    def join(self, timeout: float | None = None) -> None:
        _wait_dead(self, timeout)


class ProcessShard:
    """A :class:`LocalShard` behind a pipe, in its own process.

    ``timeout`` bounds every reply wait (None blocks forever, the
    legacy behaviour).  ``checkpoint_interval`` arms fork-based
    checkpointing every that-many windows; :meth:`recover` then brings
    a dead or wedged shard back — promoting the frozen checkpoint child
    when one survives, respawning from scratch otherwise — and replays
    the journaled grants the caller hands it.  ``hazard`` injects a
    deterministic failure (``die_at_window``, ``wedge_at_window`` +
    ``wedge_seconds``) for recovery tests.
    """

    def __init__(
        self,
        topology: TopologySpec,
        indices: list[int],
        *,
        context=None,
        shard_id: int = 0,
        timeout: float | None = None,
        checkpoint_interval: int | None = None,
        hazard: dict | None = None,
        sideband: bool = False,
    ) -> None:
        context = context or _default_context()
        if context.get_start_method() == "spawn":
            for index in indices:
                builder = topology.segments[index].builder
                if not isinstance(builder, str):
                    raise ValueError(
                        "spawn-based shards need string builder references "
                        f"(segment {topology.segments[index].name!r} has a "
                        "bare callable); use 'module:function' paths"
                    )
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ValueError("checkpoint interval must be at least 1")
        self.indices = list(indices)
        self.shard_id = shard_id
        self.timeout = timeout
        self.checkpoint_interval = checkpoint_interval
        self.sideband = bool(sideband)
        self.windows_sent = 0
        self.last_ack = 0
        self.restarts = 0
        self.checkpoint_forks = 0
        self.checkpoint_fork_seconds = 0.0
        self._topology = topology
        self._context = context
        self._hazard = dict(hazard) if hazard else None
        self._checkpoint: tuple[int, int] | None = None  # (window, pid)
        self._pending_reply: tuple | None = None
        self._send_failed = False
        self._failed = False
        self._listener = None
        self._sideband = None
        self._sideband_buffer: list = []
        self._authkey: bytes | None = None
        if checkpoint_interval is not None and hasattr(os, "fork"):
            self._authkey = bytes(multiprocessing.current_process().authkey)
            self._listener = multiprocessing.connection.Listener(
                family="AF_UNIX", authkey=self._authkey
            )
        self._spawn(hazard=self._hazard)

    # -- spawning --------------------------------------------------------

    def _settings(self, hazard: dict | None) -> dict:
        settings: dict = {"shard_id": self.shard_id}
        if hazard:
            settings["hazard"] = dict(hazard)
        if self._listener is not None:
            settings["checkpoint_interval"] = self.checkpoint_interval
            settings["promote_address"] = self._listener.address
            settings["authkey"] = self._authkey
        return settings

    def _spawn(self, *, hazard: dict | None) -> None:
        settings = self._settings(hazard)
        sideband_child = None
        if self.sideband:
            # A fresh stream per worker generation: a respawned worker
            # rebuilds its cursors from scratch, so its deltas must not
            # interleave with the dead predecessor's on a shared pipe.
            # (A *promoted* checkpoint child keeps the old pipe — it
            # inherited the write end at fork time.)
            if self._sideband is not None:
                try:
                    self._sideband.close()
                except OSError:
                    pass
            self._sideband, sideband_child = self._context.Pipe(duplex=False)
            settings["sideband"] = sideband_child
        self._conn, child = self._context.Pipe()
        self._process = self._context.Process(
            target=_shard_worker,
            args=(self._topology, self.indices, child, settings),
            daemon=True,
        )
        self._process.start()
        child.close()
        if sideband_child is not None:
            sideband_child.close()
        self._send_failed = False
        self._failed = False

    # -- the wire protocol ----------------------------------------------

    def step_send(self, horizon: float | None, frames: list) -> None:
        self.windows_sent += 1
        try:
            self._conn.send(("step", horizon, frames))
        except (BrokenPipeError, OSError):
            # Surface the death from step_recv, where the caller is
            # already prepared to catch typed shard errors.
            self._send_failed = True

    def _fail_died(self) -> None:
        self._failed = True
        raise ShardDiedError(
            f"shard {self.shard_id} died at window {self.windows_sent} "
            f"(last acknowledged window {self.last_ack})",
            shard_id=self.shard_id,
            window_index=self.windows_sent,
            last_ack=self.last_ack,
        )

    def _pump_sideband(self) -> None:
        """Drain every queued sideband delta into the local buffer.

        Called on every reply wait (including recovery replay), which
        doubles as backpressure relief: the worker's per-window delta
        send can never fill the pipe and stall the step protocol,
        because the supervisor empties it at least once per window.  A
        closed stream (worker death) just ends the pumping — the
        deltas already buffered stay readable.
        """
        conn = self._sideband
        if conn is None:
            return
        try:
            while conn.poll(0):
                self._sideband_buffer.append(conn.recv())
        except (EOFError, OSError):
            try:
                conn.close()
            except OSError:
                pass
            self._sideband = None

    def drain_sideband(self) -> list:
        """Hand back (and clear) the buffered sideband deltas."""
        self._pump_sideband()
        deltas, self._sideband_buffer = self._sideband_buffer, []
        return deltas

    def _recv(self) -> tuple:
        self._pump_sideband()
        if self._send_failed:
            self._fail_died()
        try:
            if self.timeout is not None and not self._conn.poll(self.timeout):
                self._failed = True
                raise ShardTimeoutError(
                    f"shard {self.shard_id} gave no reply within "
                    f"{self.timeout}s at window {self.windows_sent} "
                    f"(last acknowledged window {self.last_ack})",
                    shard_id=self.shard_id,
                    window_index=self.windows_sent,
                    last_ack=self.last_ack,
                )
            return self._conn.recv()
        except EOFError:
            self._fail_died()
        except (BrokenPipeError, ConnectionResetError):
            self._fail_died()

    def step_recv(self) -> tuple:
        reply = self._recv()
        if reply[0] != "stepped":
            raise RuntimeError(f"shard protocol error: {reply!r}")
        _, window, fired, egress, next_time, checkpoint = reply
        self.last_ack = window
        if checkpoint is not None:
            window_taken, pid, fork_seconds = checkpoint
            self._checkpoint = (window_taken, pid)
            self.checkpoint_forks += 1
            self.checkpoint_fork_seconds += fork_seconds
        return fired, egress, next_time

    def collect(self) -> list:
        try:
            self._conn.send(("collect",))
        except (BrokenPipeError, OSError):
            self._send_failed = True
        reply = self._recv()
        if reply[0] != "collected":
            raise RuntimeError(f"shard protocol error: {reply!r}")
        return reply[1]

    # -- recovery --------------------------------------------------------

    def _reap(self) -> None:
        """Take the (dead or wedged) worker down for certain and drop
        its connection.  Killing a wedged worker is what orphans its
        frozen checkpoint child and makes promotion possible."""
        process = self._process
        if process.is_alive():
            # Most often a worker caught between closing its pipe and
            # exiting.  Its frozen checkpoint child holds a copy of the
            # ``multiprocessing`` sentinel, so ``join`` would sit out
            # its whole timeout on a process that is already gone:
            # poll ``is_alive`` (``waitpid``, which is ours) instead.
            process.terminate()
            _wait_dead(process, 2.0)
            if process.is_alive():
                process.kill()
                _wait_dead(process, 2.0)
        else:
            process.join(timeout=1.0)
        try:
            self._conn.close()
        except OSError:
            pass

    def _promote(self) -> int | None:
        """Adopt the frozen checkpoint child as the live worker.

        Returns the window its state resumes from, or None when no
        checkpoint survives (then the caller respawns from scratch).
        """
        checkpoint, self._checkpoint = self._checkpoint, None
        self._pending_reply = None
        if checkpoint is None or self._listener is None:
            return None
        window, pid = checkpoint
        conn = _accept_with_timeout(self._listener, PROMOTE_TIMEOUT)
        if conn is None:
            _kill_quietly(pid)
            return None
        try:
            if not conn.poll(PROMOTE_TIMEOUT):
                raise EOFError
            hello = conn.recv()
        except (EOFError, OSError):
            conn.close()
            _kill_quietly(pid)
            return None
        if not (
            isinstance(hello, tuple) and len(hello) == 3 and hello[0] == "promoted"
        ):
            conn.close()
            _kill_quietly(pid)
            return None
        self._conn = conn
        self._process = _PidHandle(pid)
        self._send_failed = False
        self._failed = False
        self._pending_reply = hello[2]
        return hello[1]

    def revive(self) -> int:
        """Bring a failed shard back; returns the window index its
        state resumes from (0 = fresh process, replay everything)."""
        self.restarts += 1
        self._reap()
        resume = self._promote()
        if resume is None:
            self._spawn(hazard=None)
            resume = 0
        self.windows_sent = resume
        self.last_ack = resume
        return resume

    def recover(self, grants: list, *, final: str = "step") -> tuple:
        """Revive and deterministically replay ``grants`` (the journal
        of every ``(horizon, frames)`` this shard was ever sent).

        With ``final="step"`` the last grant's reply is the one the
        caller was waiting for and is returned; with ``final="collect"``
        every grant is replayed and a fresh ``collect()`` result is
        returned.  Also returns a bookkeeping dict (resume window,
        replay count, whether a checkpoint was used).
        """
        resume = self.revive()
        pending, self._pending_reply = self._pending_reply, None
        info = {
            "resumed_from": resume,
            "checkpointed": resume > 0,
            "replayed": 0,
        }
        if final == "step":
            if resume >= len(grants):
                # The worker died after computing the final window but
                # before replying; the frozen child carried that reply
                # across the promotion handshake.
                if pending is None or pending[1] != len(grants):
                    raise RuntimeError(
                        f"shard {self.shard_id} resumed past the journal "
                        f"({resume} > {len(grants)}) with no pending reply"
                    )
                self.last_ack = pending[1]
                return (pending[2], pending[3], pending[4]), info
            for horizon, frames in grants[resume:-1]:
                self.step_send(horizon, frames)
                self.step_recv()
            horizon, frames = grants[-1]
            self.step_send(horizon, frames)
            reply = self.step_recv()
            info["replayed"] = len(grants) - resume
            return reply, info
        for horizon, frames in grants[resume:]:
            self.step_send(horizon, frames)
            self.step_recv()
        info["replayed"] = len(grants) - resume
        return self.collect(), info

    # -- teardown --------------------------------------------------------

    def close(self) -> None:
        if not self._failed:
            try:
                self._conn.send(("exit",))
            except (BrokenPipeError, OSError):
                pass
            self._process.join(timeout=5.0)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5.0)
            if self._process.is_alive():
                self._process.kill()
                self._process.join(timeout=2.0)
        if self._checkpoint is not None:
            _kill_quietly(self._checkpoint[1])
            self._checkpoint = None
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        if self._sideband is not None:
            try:
                self._sideband.close()
            except OSError:
                pass
            self._sideband = None
        try:
            self._conn.close()
        except OSError:
            pass
