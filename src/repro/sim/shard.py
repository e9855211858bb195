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
    and copy the watchdog alerts its segments fired meanwhile.  The
    reply is always ``(window, fired, egress, next_time, alerts)``.

``collect()``
    Per-segment :class:`~repro.sim.topology.SegmentReport` records —
    stats, ledger, telemetry snapshot, builder reports — as picklable
    data.

That window body is written once, in :meth:`LocalShard.run_window`.
:class:`LocalShard` runs it in the calling process (the ``shards=1``
fallback — and the oracle the multiprocess path must match bitwise);
:class:`ProcessShard` runs a :class:`LocalShard` inside a
``multiprocessing`` worker whose loop runs the same body between a
``recv`` and a ``send``, over the one pipe that carries grants one way
and replies the other.  The send/receive halves are split so the
orchestrator can grant time to every shard before blocking on any
reply — that concurrency is the whole speedup, and it needs each worker
on a CPU of its own: a worker pins itself by shard id and polls briefly
for its next grant before it blocks (:func:`_pin`, :func:`_await_grant`).

Failure is a first-class event here.  A dead worker (EOF on the pipe)
raises :class:`ShardDiedError`; an unresponsive one (no reply within
the configured deadline) raises :class:`ShardTimeoutError` — both carry
the shard id, the window being waited on, and the last acknowledged
window, and ``close()`` always reaps the child either way.  A Python
exception inside the worker (a builder bug, a report callable that
raises) is neither: the worker answers ``("failed", traceback)`` and
the supervisor raises it as a plain :class:`RuntimeError` — replaying
a deterministic failure would only fail again.

Recovery is respawn and replay.  Per-segment worlds hold live generator
frames — they can never be pickled — but they are a pure function of
the topology and the grants they were sent, so
:meth:`ProcessShard.recover` reaps the failed worker, starts a fresh
one and replays the supervisor's journal of every grant from window 1.
Deterministic replay makes the recovered run bitwise identical to an
undisturbed one (the digest oracle enforces this).

Deterministic failure *injection* rides the same protocol: a ``hazard``
spec makes the worker kill itself (``die_at_window``) or hang
(``wedge_at_window``/``wedge_seconds``) at an exact window — after the
window is computed, before its reply is sent — so recovery tests pick
their crash sites with a seeded RNG instead of racing real signals.
Hazards are one-shot: a respawned worker runs hazard-free, so replay
does not crash-loop.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import select
import time
import traceback
from dataclasses import replace

from .topology import SegmentRuntime, TopologySpec

__all__ = [
    "LocalShard",
    "ProcessShard",
    "ShardError",
    "ShardDiedError",
    "ShardTimeoutError",
    "check_deadline",
    "partition",
]

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


def check_deadline(name: str, seconds: float | None) -> None:
    """Refuse a reply deadline that is neither None (wait forever) nor a
    finite number of seconds above zero.

    ``poll`` reads a negative timeout as "block forever" and refuses a
    NaN only once it is called, mid-run; both must fail here instead.
    """
    if seconds is not None and not (math.isfinite(seconds) and seconds > 0.0):
        raise ValueError(
            f"{name} must be None or a positive number of seconds, "
            f"not {seconds!r}"
        )


class LocalShard:
    """Segments stepped in the calling process."""

    def __init__(self, topology: TopologySpec, indices: list[int]) -> None:
        # Build in index order: construction order is observable (RNG
        # draws, sequence numbers) and must be partition-independent.
        self.runtimes = {
            topology.segments[index].name: SegmentRuntime(topology, index)
            for index in sorted(indices)
        }
        self.window = 0   #: windows run so far
        #: per segment, how many of its telemetry's alerts replies have
        #: already carried
        self._alerts_sent = dict.fromkeys(self.runtimes, 0)
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

    def run_window(self, horizon: float | None, frames: list) -> tuple:
        """The whole per-window body — the same code in-process and in
        a worker; returns the reply ``(window, fired, egress, next_time,
        alerts)``.

        ``alerts`` are copies, as of this window, of the watchdog alerts
        the segments that run telemetry fired during it — copies at
        every shard count, so a reader never holds the sampler's own
        record while the sampler is still writing it.  They are read
        from telemetry alert lists, quiescent at a window boundary, so
        copying them cannot perturb the simulation.
        """
        self.window += 1
        fired, egress, next_time = self.step(horizon, frames)
        alerts: list = []
        for name, runtime in self.runtimes.items():
            telemetry = runtime.world.telemetry
            if telemetry is not None:
                fresh = telemetry.alerts[self._alerts_sent[name]:]
                alerts.extend(replace(alert) for alert in fresh)
                self._alerts_sent[name] = len(telemetry.alerts)
        return self.window, fired, egress, next_time, alerts

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


def _pin(shard_id: int) -> bool:
    """Pin this worker to one CPU of the set it inherited, by shard id;
    True when it now has a CPU of its own.

    Linux places a task woken by a pipe write on the waker's CPU, so
    workers the supervisor wakes back to back queue behind it on one
    CPU and a window costs every shard's work in series.  One CPU per
    worker makes them run at once.  A single-CPU set (or no affinity
    call) leaves the worker where it is; a respawned worker pins itself
    again.
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


def _shard_worker(
    topology: TopologySpec, indices: list[int], conn, settings: dict | None = None
) -> None:
    """Worker main loop: build the shard, then serve step/collect/exit."""
    settings = settings or {}
    spin = GRANT_SPIN if _pin(settings.get("shard_id", 0)) else 0.0
    hazard = settings.get("hazard") or {}
    try:
        shard = LocalShard(topology, indices)
        while True:
            if spin:
                _await_grant(conn, spin)
            message = conn.recv()
            command = message[0]
            if command == "step":
                reply = shard.run_window(message[1], message[2])
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
        try:
            conn.close()
        except OSError:
            pass


def _default_context():
    """Fork where available (cheap, inherits imports); spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and os.name == "posix":
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context("spawn")


class ProcessShard:
    """A :class:`LocalShard` behind a pipe, in its own process.

    ``timeout`` bounds every reply wait: None blocks forever, anything
    else must be a finite number of seconds above zero.  :meth:`recover`
    brings a dead or wedged shard back — a fresh worker replaying the
    journaled grants the caller hands it.  ``hazard`` injects a
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
        hazard: dict | None = None,
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
        check_deadline("timeout", timeout)
        self.indices = list(indices)
        self.shard_id = shard_id
        self.timeout = timeout
        self._topology = topology
        self._context = context
        self._spawn(hazard)

    # -- spawning --------------------------------------------------------

    def _spawn(self, hazard: dict | None = None) -> None:
        settings = {"hazard": hazard, "shard_id": self.shard_id}
        self._conn, child = self._context.Pipe()
        self._process = self._context.Process(
            target=_shard_worker,
            args=(self._topology, self.indices, child, settings),
            daemon=True,
        )
        self._process.start()
        child.close()
        # One ``poll`` syscall per timed reply wait, where
        # ``Connection.poll`` builds a fresh selector every call.
        self._poller = select.poll()
        self._poller.register(self._conn, select.POLLIN)
        self.windows_sent = self.last_ack = 0
        self._failed = False

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

    # -- recovery and teardown -------------------------------------------

    def _reap(self) -> None:
        """Take the worker down for certain and drop its connection."""
        process = self._process
        if process.is_alive():
            process.terminate()
            process.join(timeout=5.0)
            if process.is_alive():
                process.kill()
        process.join(timeout=2.0)
        try:
            self._conn.close()
        except OSError:
            pass

    def recover(self, grants: list) -> tuple:
        """Bring a failed shard back: reap the worker, respawn it
        hazard-free and deterministically replay ``grants`` (the journal
        of every ``(horizon, frames)`` this shard was ever sent).

        Returns the reply to the final grant.
        """
        self._reap()
        self._spawn()
        for horizon, frames in grants:
            self.step_send(horizon, frames)
            reply = self.step_recv()
        return reply

    def close(self) -> None:
        if not self._failed:
            self._send(("exit",))
            self._process.join(timeout=5.0)
        self._reap()
