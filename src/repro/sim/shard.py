"""Shards: groups of segments stepping in lockstep, possibly in
separate processes.

A shard owns one or more :class:`~repro.sim.topology.SegmentRuntime`
and exposes the conservative-synchronization surface the orchestrator
drives:

``step_send(horizon, frames)`` / ``step_recv()``
    A *time grant* (the null message of null-message algorithms, carried
    on the same call that delivers any actual frames) and its reply.
    The grant runs one **window**: count it, inject the inbound bridged
    frames, run every owned world up to — but excluding — ``horizon``,
    and, when an observability plane is armed, read the shard's
    progress delta.  The reply is always ``(window, fired, egress,
    next_time, delta, fork_seconds)``.

``collect()``
    Per-segment :class:`~repro.sim.topology.SegmentReport` records —
    stats, ledger, telemetry snapshot, builder reports — as picklable
    data.

That window body is written once, in :meth:`LocalShard.run_window`.
:class:`LocalShard` runs it in the calling process (the ``shards=1``
fallback — and the oracle the multiprocess path must match bitwise);
:class:`ProcessShard` runs a :class:`LocalShard` inside a
``multiprocessing`` worker whose loop runs the same body between a
``recv`` and a ``send``.  A worker has two channels: the pipe that
carries grants one way and replies the other, and (with checkpoints
armed) the listener a promoted checkpoint announces itself on.  The
send/receive halves are split so the orchestrator can grant time to
every shard before blocking on any reply — that concurrency is the
whole speedup, and it needs each worker on a CPU of its own: a worker
pins itself by shard id and polls briefly for its next grant before it
blocks (:func:`_pin`, :func:`_await_grant`).

Failure is a first-class event here.  A dead worker (EOF on the pipe)
raises :class:`ShardDiedError`; an unresponsive one (no reply within
the configured deadline) raises :class:`ShardTimeoutError` — both carry
the shard id, the window being waited on, and the last acknowledged
window, and ``close()`` always reaps the child either way.  A Python
exception inside the worker (a builder bug, a report callable that
raises) is neither: the worker answers ``("failed", traceback)`` and
the supervisor raises it as a plain :class:`RuntimeError` — replaying
a deterministic failure would only fail again.

Checkpointing uses the cheapest state-capture primitive an OS offers:
``fork()``.  Per-segment worlds hold live generator frames — they can
never be pickled — but once a window has been stepped every shard is
quiescent (the conservative protocol guarantees it), so the worker
forks a *frozen child* whose copy-on-write memory image **is** the
checkpoint, taken mid-body: the window is computed, nothing has been
reported.  The frozen child closes its copy of the command pipe
immediately (so supervisor-side EOF detection still works), then waits
to be orphaned; if its parent dies, it announces itself (window and
pid) on the shard's recovery listener, becomes the live worker, and
finishes the body it was frozen in — so the reply its parent may never
have delivered is the first thing it sends.  The supervisor replays the
journaled grants since that window — deterministic replay makes the
recovered run bitwise identical to an undisturbed one (the digest
oracle enforces this).

Deterministic failure *injection* rides the same protocol: a ``hazard``
spec makes the worker kill itself (``die_at_window``) or hang
(``wedge_at_window``/``wedge_seconds``) at an exact window — after the
window is computed and checkpointed, before its reply is sent, the
crash site the promotion handshake exists for — so recovery tests pick
their crash sites with a seeded RNG instead of racing real signals.
Hazards are one-shot: a promoted checkpoint child and a fresh respawn
both run hazard-free, so replay does not crash-loop.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import select
import signal
import time
import traceback

from .obsplane import ProgressSource
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
#: notice it was orphaned and offer itself for promotion (only once the
#: lifeline says such a child exists).
PROMOTE_TIMEOUT = 5.0

#: How long a worker with a CPU of its own polls for its next grant
#: before it blocks (see :func:`_await_grant`).
GRANT_SPIN = 1e-3


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
    """Segments stepped in the calling process.

    ``observe`` arms the progress delta every window's reply then
    carries (built by a :class:`~repro.sim.obsplane.ProgressSource`
    this shard owns).
    """

    def __init__(
        self,
        topology: TopologySpec,
        indices: list[int],
        *,
        observe: bool = False,
    ) -> None:
        # Build in index order: construction order is observable (RNG
        # draws, sequence numbers) and must be partition-independent.
        self.runtimes = {
            topology.segments[index].name: SegmentRuntime(topology, index)
            for index in sorted(indices)
        }
        self.window = 0   #: windows run so far
        self._source = ProgressSource(self) if observe else None
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

    def run_window(
        self, horizon: float | None, frames: list, checkpoint=None
    ) -> tuple:
        """The whole per-window body — the same code in-process and in
        a worker; returns the reply ``(window, fired, egress, next_time,
        delta, fork_seconds)``.

        ``checkpoint(window)`` is the worker's fork hook, called at the
        one point where the window's state is complete and nothing has
        been reported; it returns the fork's wall seconds (None when it
        took no checkpoint).  The frozen child it leaves behind resumes
        *here* when promoted and finishes the body like its parent.
        """
        self.window += 1
        fired, egress, next_time = self.step(horizon, frames)
        fork_seconds = None if checkpoint is None else checkpoint(self.window)
        delta = None if self._source is None else self._source.delta()
        return self.window, fired, egress, next_time, delta, fork_seconds

    # Split halves, so Local and Process shards drive identically: the
    # orchestrator issues every send, then drains every receive.

    def step_send(self, horizon: float | None, frames: list) -> None:
        self._reply = self.run_window(horizon, frames)

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


def _pin(shard_id: int) -> bool:
    """Pin this worker to one CPU of the set it inherited, by shard id;
    True when it now has a CPU of its own.

    Linux places a task woken by a pipe write on the waker's CPU, so
    workers the supervisor wakes back to back queue behind it on one
    CPU and a window costs every shard's work in series.  One CPU per
    worker makes them run at once.  A single-CPU set (or no affinity
    call) leaves the worker where it is; a checkpoint child inherits
    its parent's pin, and a respawned worker pins itself again.
    """
    if not hasattr(os, "sched_setaffinity"):
        return False
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return False
    try:
        os.sched_setaffinity(0, {cpus[shard_id % len(cpus)]})
    except OSError:
        return False
    return True


def _await_grant(conn, spin: float) -> None:
    """Poll ``conn`` for up to ``spin`` seconds before the caller's
    blocking ``recv``.

    A pinned worker that blocks lets its CPU go idle, and waking an idle
    virtual CPU costs a hypervisor round trip — often more than a
    window's work.  The next grant usually comes within a millisecond
    (the other shards' remaining work plus the supervisor's routing), so
    poll for it first, yielding to anything else runnable on this CPU.
    """
    ready = select.poll()
    ready.register(conn, select.POLLIN)
    deadline = time.perf_counter() + spin
    while not ready.poll(0) and time.perf_counter() < deadline:
        os.sched_yield()


def _await_promotion(conn, settings: dict, worker_pid: int, window: int):
    """The frozen checkpoint child: park until orphaned, then offer
    this process as the recovered shard.

    Closing the inherited command pipe first is load-bearing — it keeps
    the supervisor's EOF detection crisp (only the live worker holds the
    pipe).  ``worker_pid`` is the forking worker's pid, read *before*
    the fork: a worker that dies before this child is first scheduled
    has already been replaced as its parent, so the child's own first
    ``getppid()`` would name the reaper and it would park forever.  The
    hello carries this process's pid — the supervisor may never have
    been told of this checkpoint by the worker that took it.
    """
    try:
        conn.close()
    except OSError:
        pass
    while os.getppid() == worker_pid:
        time.sleep(0.02)
    address, authkey = settings["promote_address"], settings["authkey"]
    try:
        # Connect, then shake hands by hand: ``Client(authkey=...)``
        # blocks on the supervisor's challenge with no way out, and
        # closing the listener never resets a queued connection while
        # forked processes (this one included) hold inherited copies of
        # the listening socket.  Its *path* is the signal instead: the
        # supervisor unlinks it once no offer is wanted any more.
        fresh = multiprocessing.connection.Client(address)
        while not fresh.poll(0.05):
            if not os.path.exists(address):
                os._exit(0)
        multiprocessing.connection.answer_challenge(fresh, authkey)
        multiprocessing.connection.deliver_challenge(fresh, authkey)
        fresh.send(("promoted", window, os.getpid()))
    except (OSError, EOFError, multiprocessing.AuthenticationError):
        os._exit(0)
    return fresh


def _shard_worker(
    topology: TopologySpec, indices: list[int], conn, settings: dict | None = None
) -> None:
    """Worker main loop: build the shard, then serve step/collect/exit."""
    # With checkpoints armed, ``settings`` holds the lifeline's write end
    # for as long as this process lives; every child it forks inherits it.
    settings = settings or {}
    spin = GRANT_SPIN if _pin(settings.get("shard_id", 0)) else 0.0
    hazard = settings.get("hazard") or {}
    interval = settings.get("checkpoint_interval")
    frozen_pid: int | None = None
    if interval:
        # Retired checkpoint children are killed, never waited for: have
        # the kernel reap them, or every checkpoint leaves a zombie.
        signal.signal(signal.SIGCHLD, signal.SIG_IGN)

    def checkpoint(window: int) -> float | None:
        nonlocal conn, hazard, frozen_pid
        if not interval or window % interval:
            return None
        # Retire the previous checkpoint *before* forking the new one:
        # at most one frozen child ever exists, so at most one process
        # can answer a promotion.
        _kill_quietly(frozen_pid)
        frozen_pid = None
        worker_pid = os.getpid()
        fork_started = time.perf_counter()
        pid = os.fork()
        if pid:
            frozen_pid = pid
            return time.perf_counter() - fork_started
        conn = _await_promotion(conn, settings, worker_pid, window)
        # We are now the live worker, resumed inside this window's
        # body: hazards are spent, and there is no checkpoint behind us.
        hazard = {}
        return None

    try:
        shard = LocalShard(
            topology, indices, observe=settings.get("observe", False)
        )
        while True:
            if spin:
                _await_grant(conn, spin)
            message = conn.recv()
            command = message[0]
            if command == "step":
                reply = shard.run_window(message[1], message[2], checkpoint)
                if hazard.get("die_at_window") == shard.window:
                    os._exit(13)
                if hazard.get("wedge_at_window") == shard.window:
                    time.sleep(float(hazard.get("wedge_seconds", 3600.0)))
                conn.send(("stepped",) + reply)
            elif command == "collect":
                conn.send(("collected", shard.collect()))
            elif command == "exit":
                return
            else:
                raise ValueError(f"unknown command {command!r}")
    except (EOFError, KeyboardInterrupt, BrokenPipeError):
        pass
    except Exception:
        # A bug in a builder, a process body or a report callable is
        # deterministic: say what it was instead of dying mute (the
        # supervisor would revive us only to replay the same failure).
        try:
            conn.send(("failed", traceback.format_exc()))
        except OSError:
            pass
    finally:
        _kill_quietly(frozen_pid)
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
    ``wedge_seconds``) for recovery tests.  ``observe`` has every reply
    carry the shard's progress delta.
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
        observe: bool = False,
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
        self.observe = bool(observe)
        self.windows_sent = 0
        self.last_ack = 0
        self._topology = topology
        self._context = context
        self._listener = None
        self._spawn(hazard)

    # -- spawning --------------------------------------------------------

    def _spawn(self, hazard: dict | None = None) -> None:
        settings: dict = {
            "observe": self.observe, "hazard": hazard, "shard_id": self.shard_id,
        }
        lifeline = None
        if self.checkpoint_interval is not None and hasattr(os, "fork"):
            # One listener per spawned generation: a checkpoint child of
            # an earlier generation that turns up late finds its address
            # gone and exits, so it can never be adopted as a stale offer.
            self._close_listener()
            authkey = bytes(multiprocessing.current_process().authkey)
            self._listener = multiprocessing.connection.Listener(
                family="AF_UNIX", authkey=authkey
            )
            # The lifeline's write end lives only in the worker and the
            # checkpoint children it forks: once the worker is reaped,
            # an open lifeline means a frozen child is there to promote.
            self._lifeline, lifeline = self._context.Pipe(duplex=False)
            settings["checkpoint_interval"] = self.checkpoint_interval
            settings["promote_address"] = self._listener.address
            settings["authkey"] = authkey
            settings["lifeline"] = lifeline
        self._conn, child = self._context.Pipe()
        self._process = self._context.Process(
            target=_shard_worker,
            args=(self._topology, self.indices, child, settings),
            daemon=True,
        )
        self._process.start()
        child.close()
        if lifeline is not None:
            lifeline.close()
        self._watch()
        self._origin = 0   # the window this worker's state started from
        self._failed = False

    def _watch(self) -> None:
        """Point the reply poller at the current connection: one
        ``poll`` syscall per timed wait, where ``Connection.poll``
        builds a fresh selector every call."""
        self._poller = select.poll()
        self._poller.register(self._conn, select.POLLIN)

    def _close_listener(self) -> None:
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
            self._lifeline.close()

    # -- the wire protocol ----------------------------------------------

    def _send(self, message: tuple) -> None:
        try:
            self._conn.send(message)
        except (BrokenPipeError, OSError):
            # The worker is gone; the reply wait that follows reads
            # whatever it managed to say, then the EOF, and raises the
            # typed error where the caller is prepared to catch it.
            pass

    def _failure(self, kind: type, what: str) -> ShardError:
        self._failed = True
        return kind(
            f"shard {self.shard_id} {what} at window {self.windows_sent} "
            f"(last acknowledged window {self.last_ack})",
            shard_id=self.shard_id,
            window_index=self.windows_sent,
            last_ack=self.last_ack,
        )

    def _recv(self, expected: str) -> tuple:
        try:
            if self.timeout is not None and not self._poller.poll(
                self.timeout * 1000.0
            ):
                raise self._failure(
                    ShardTimeoutError, f"gave no reply within {self.timeout}s"
                )
            message = self._conn.recv()
        except (EOFError, BrokenPipeError, ConnectionResetError):
            raise self._failure(ShardDiedError, "died") from None
        if message[0] == "failed":
            raise RuntimeError(
                f"shard {self.shard_id} failed at window {self.windows_sent}; "
                f"worker traceback:\n{message[1]}"
            )
        if message[0] != expected:
            raise RuntimeError(f"shard protocol error: {message!r}")
        return message[1:]

    def step_send(self, horizon: float | None, frames: list) -> None:
        self.windows_sent += 1
        self._send(("step", horizon, frames))

    def step_recv(self) -> tuple:
        reply = self._recv("stepped")
        self.last_ack = reply[0]
        return reply

    def collect(self) -> list:
        self._send(("collect",))
        return self._recv("collected")[0]

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

    def _promote(self) -> tuple | None:
        """Adopt the frozen checkpoint child as the live worker.

        Returns its reply for the window it was frozen in — the one its
        parent may have died holding — or None when no checkpoint
        survives (then the caller respawns from scratch).
        """
        if self._listener is None or self._lifeline.poll(0):
            # The lifeline reads EOF: the reaped worker forked no child
            # that is still alive (none yet, or it died inside its first
            # checkpoint window before forking), so no offer can come.
            return None
        conn = _accept_with_timeout(self._listener, PROMOTE_TIMEOUT)
        if conn is None:
            return None
        try:
            hello = conn.recv() if conn.poll(PROMOTE_TIMEOUT) else None
        except (EOFError, OSError):
            hello = None
        if not (
            isinstance(hello, tuple) and len(hello) == 3 and hello[0] == "promoted"
        ):
            conn.close()
            return None
        _, window, pid = hello
        self._conn = conn
        self._watch()
        self._process = _PidHandle(pid)
        self._origin = self.windows_sent = window
        self._failed = False
        return self.step_recv()

    def recover(self, grants: list) -> tuple:
        """Bring a failed shard back and deterministically replay
        ``grants`` (the journal of every ``(horizon, frames)`` this
        shard was ever sent) to its end.

        Returns ``(last_reply, resumed_from)``: the reply to the final
        grant, and the window the revived state started from (0 = fresh
        process, everything replayed).  When the checkpoint *is* the
        final window, that reply is the promoted child's own — the one
        its parent computed and never delivered.
        """
        self._reap()
        reply = self._promote()
        if reply is None:
            self._spawn()
        resumed = self.windows_sent = self.last_ack = self._origin
        for horizon, frames in grants[resumed:]:
            self.step_send(horizon, frames)
            reply = self.step_recv()
        return reply, resumed

    # -- teardown --------------------------------------------------------

    def close(self) -> None:
        # First, so that a checkpoint child orphaned by the kills below
        # finds the listener gone and exits instead of offering itself.
        self._close_listener()
        if not self._failed:
            self._send(("exit",))
            self._process.join(timeout=5.0)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=5.0)
            if self._process.is_alive():
                self._process.kill()
                self._process.join(timeout=2.0)
        try:
            self._conn.close()
        except OSError:
            pass
