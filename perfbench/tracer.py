"""Wall-clock span tracer installed from outside ``src/``.

The tracer wraps the public entry points of each layer (the table in
:data:`TARGETS`), the callbacks handed to ``EventScheduler.schedule_at``
(bucketed by the module that owns the callback) and the generator
bodies handed to ``SimKernel.spawn``.  Every call becomes a span —
key, start, end, parent span, operation index — kept in memory as
parallel columns and written out once, at the end.  A layer's *self*
time is its spans' duration minus the time their child spans cover.

Nothing under ``src/`` changes: wrappers are installed and removed here,
and a target that no longer exists raises :class:`MissingTarget` naming
it, so a refactor has to update :data:`TARGETS` in a benchmark change
instead of silently losing a layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

_clock = time.perf_counter_ns

__all__ = ["TARGETS", "MissingTarget", "Tracer", "aggregate", "operation_index"]

# (layer, module, owner class or None, attribute)
TARGETS = (
    ("core.validator", "repro.core.validator", None, "validate"),
    ("core.ir", "repro.core.ir", None, "lower_program"),
    ("core.opt", "repro.core.opt", None, "cse_filter_set"),
    ("core.opt", "repro.core.opt", None, "build_dispatch_tree"),
    ("core.irgen", "repro.core.irgen", None, "compile_ir_set"),
    ("core.interpreter", "repro.core.interpreter", None, "evaluate"),
    ("core.demux", "repro.core.demux", "PacketFilterDemux", "attach"),
    ("core.demux", "repro.core.demux", "PacketFilterDemux", "detach"),
    ("core.demux", "repro.core.demux", "PacketFilterDemux", "deliver"),
    ("core.demux", "repro.core.demux", "PacketFilterDemux", "deliver_batch"),
    ("core.port", "repro.core.port", "Port", "enqueue"),
    ("core.port", "repro.core.port", "Port", "read_packets"),
    ("core.device", "repro.core.device", "PacketFilterDevice", "packet_arrived"),
    ("core.device", "repro.core.device", "PacketFilterDevice", "packets_arrived"),
    ("core.device", "repro.core.device", "PacketFilterHandle", "read"),
    ("core.device", "repro.core.device", "PacketFilterHandle", "write"),
    ("core.device", "repro.core.device", "PacketFilterHandle", "ioctl"),
    ("sim.world", "repro.sim.world", "World", "run_until_done"),
    ("sim.clock", "repro.sim.clock", "EventScheduler", "run_until"),
    ("sim.clock", "repro.sim.clock", "EventScheduler", "step"),
    ("sim.clock", "repro.sim.clock", "Event", "cancel"),
    ("sim.kernel", "repro.sim.kernel", "SimKernel", "network_input"),
    ("sim.kernel", "repro.sim.kernel", "SimKernel", "network_input_batch"),
    ("sim.kernel", "repro.sim.kernel", "SimKernel", "network_output"),
    ("sim.kernel", "repro.sim.kernel", "SimKernel", "account"),
    ("net.nic", "repro.net.nic", "NIC", "receive"),
    ("net.nic", "repro.net.nic", "NIC", "transmit"),
    ("net.medium", "repro.net.medium", "EthernetSegment", "transmit"),
    ("sim.topology", "repro.sim.topology", "SegmentRuntime", "__init__"),
    ("sim.topology", "repro.sim.topology", "SegmentRuntime", "inject"),
    ("sim.topology", "repro.sim.topology", "SegmentRuntime", "run_until"),
    ("sim.topology", "repro.sim.topology", "SegmentRuntime", "collect"),
    ("sim.topology", "repro.sim.topology", "BridgeEndpoint", "receive"),
    ("sim.shard", "repro.sim.shard", "LocalShard", "step"),
    ("sim.shard", "repro.sim.shard", "LocalShard", "step_send"),
    ("sim.shard", "repro.sim.shard", "ProcessShard", "__init__"),
    ("sim.shard", "repro.sim.shard", "ProcessShard", "step_send"),
    ("sim.shard", "repro.sim.shard", "ProcessShard", "step_recv"),
    ("sim.shard", "repro.sim.shard", "ProcessShard", "collect"),
    ("sim.shard", "repro.sim.shard", "ProcessShard", "close"),
    ("sim.orchestrator", "repro.sim.orchestrator", None, "run_topology"),
)

# Wrapped by a Tracer method of their own rather than a plain span:
# (module, owner class or None, attribute, Tracer method).
SPECIAL = (
    ("repro.sim.clock", "EventScheduler", "schedule_at", "_wrap_schedule_at"),
    ("repro.sim.kernel", "SimKernel", "spawn", "_wrap_spawn"),
    ("repro.sim.shard", None, "_shard_worker", "_wrap_worker"),
)

OPERATION_KEYS = {"sim.clock.step"}
"""Spans that start a new operation index even when nested (one event =
one operation); any span directly under the root also starts one."""


class MissingTarget(LookupError):
    """A name the tracer wraps is gone from ``src/``."""


def _resolve(module_name: str, owner: str | None, attr: str):
    try:
        module = importlib.import_module(module_name)
    except ImportError as error:
        raise MissingTarget(f"{module_name} (module): {error}") from None
    holder = module
    if owner is not None:
        holder = getattr(module, owner, None)
        if holder is None:
            raise MissingTarget(f"{module_name}.{owner}")
    # ``vars`` not ``getattr``: an inherited method must not be patched
    # onto the subclass as if it were defined there.
    if attr not in vars(holder):
        dotted = ".".join(p for p in (module_name, owner, attr) if p)
        raise MissingTarget(dotted)
    return module, holder, vars(holder)[attr]


class Tracer:
    """Span store plus the install/remove machinery."""

    def __init__(self, body_layer: str = "sim.process") -> None:
        #: layer charged for time inside process generator bodies
        self.body_layer = body_layer
        self.keys: list[str] = []           # key id -> "layer.name"
        self._key_ids: dict[str, int] = {}
        self.key: list[int] = []            # columns, one entry per span
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self._current = [-1]                # innermost open span
        self._restore: list[tuple] = []
        self._callback_keys: dict = {}
        self.child_dir: str | None = None   # where forked workers dump

    # -- recording ------------------------------------------------------
    #
    # The hot path is two closures over the columns, not methods: a span
    # costs four appends and two clock reads, which matters when the
    # wrapped call itself takes a microsecond.

    def _recorder(self, name: str):
        """``(open, close)`` for spans of one key."""
        key_id = self._key_ids.get(name)
        if key_id is None:
            key_id = self._key_ids[name] = len(self.keys)
            self.keys.append(name)
        keys, starts, ends, parents = self.key, self.start, self.end, self.parent
        current = self._current

        def open_span() -> int:
            index = len(keys)
            keys.append(key_id)
            parents.append(current[0])
            ends.append(0)
            current[0] = index
            starts.append(_clock())
            return index

        def close_span(index: int) -> None:
            ends[index] = _clock()
            current[0] = parents[index]

        return open_span, close_span

    def wrap(self, name: str, fn):
        open_span, close_span = self._recorder(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_span()
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(index)

        return traced

    def span(self, name: str):
        """Context manager for a span the harness itself owns."""
        return _Span(*self._recorder(name))

    # -- special wrappers -----------------------------------------------

    def _callback_recorder(self, callback):
        fn = getattr(callback, "__func__", None) or getattr(
            callback, "func", callback
        )
        recorder = self._callback_keys.get(fn)
        if recorder is None:
            module = getattr(fn, "__module__", None) or "unknown"
            layer = module[len("repro."):] if module.startswith("repro.") else module
            name = getattr(fn, "__name__", type(fn).__name__)
            recorder = self._callback_keys[fn] = self._recorder(f"{layer}.cb:{name}")
        return recorder

    @staticmethod
    def _run_callback(recorder, callback, *args) -> None:
        open_span, close_span = recorder
        index = open_span()
        try:
            callback(*args)
        finally:
            close_span(index)

    def _wrap_schedule_at(self, original):
        """Time ``schedule_at`` itself and have the event fire through
        :meth:`_run_callback`, so the callback's time lands in the layer
        of the module that owns it."""
        open_span, close_span = self._recorder("sim.clock.schedule_at")
        run = self._run_callback
        recorder_for = self._callback_recorder

        def schedule_at(scheduler, when, callback, *args):
            index = open_span()
            try:
                return original(
                    scheduler, when, run, recorder_for(callback), callback, *args
                )
            finally:
                close_span(index)

        return schedule_at

    def _wrap_spawn(self, original):
        tracer = self

        def spawn(kernel, name, body):
            return original(kernel, name, tracer._traced_body(body))

        return spawn

    def _traced_body(self, body):
        """Forward a process generator, timing each resume."""
        open_span, close_span = self._recorder(f"{self.body_layer}.body")
        send, throw = body.send, body.throw
        value = error = None
        while True:
            index = open_span()
            try:
                call = send(value) if error is None else throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                close_span(index)
            value = error = None
            try:
                value = yield call
            except GeneratorExit:
                body.close()
                raise
            except BaseException as exc:  # forwarded into the body above
                error = exc

    def _wrap_worker(self, original):
        """Shard workers are forked with these wrappers in place; give
        each its own empty span store and have it dump on exit.  The
        worker's root span is ``sim.shard.worker``: its self time is the
        worker loop — blocked on the grant pipe, pickling replies."""
        tracer = self

        def worker(topology, indices, conn, settings=None):
            tracer._reset()
            try:
                with tracer.span("sim.shard.worker"):
                    return original(topology, indices, conn, settings)
            finally:
                if tracer.child_dir is not None:
                    shard = (settings or {}).get("shard_id", os.getpid())
                    tracer.dump(
                        os.path.join(tracer.child_dir, f"shard{shard}.json")
                    )

        return worker

    def _reset(self) -> None:
        for column in (self.key, self.start, self.end, self.parent):
            del column[:]
        self._current[0] = -1

    # -- install / remove -----------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        try:
            for layer, module_name, owner, attr in TARGETS:
                module, holder, original = _resolve(module_name, owner, attr)
                name = "build" if attr == "__init__" else attr
                self._patch(module, holder, attr, original,
                            self.wrap(f"{layer}.{name}", original))
            for module_name, owner, attr, method in SPECIAL:
                module, holder, original = _resolve(module_name, owner, attr)
                self._patch(module, holder, attr, original,
                            getattr(self, method)(original))
        except BaseException:
            self.remove()
            raise

    def _patch(self, module, holder, attr, original, replacement) -> None:
        if holder is not module:
            self._restore.append((holder, attr, original))
            setattr(holder, attr, replacement)
            return
        # A module-level function may have been imported by name into
        # other modules (``from .validator import validate``): rebind
        # every repro module global that still points at the original.
        for name, other in list(sys.modules.items()):
            if other is None or not name.startswith("repro"):
                continue
            for global_name, value in list(vars(other).items()):
                if value is original:
                    self._restore.append((other, global_name, original))
                    setattr(other, global_name, replacement)

    def remove(self) -> None:
        while self._restore:
            holder, attr, original = self._restore.pop()
            setattr(holder, attr, original)

    # -- results ----------------------------------------------------------

    def columns(self) -> dict:
        return {
            "keys": self.keys,
            "key": self.key,
            "start_ns": self.start,
            "end_ns": self.end,
            "parent": self.parent,
        }

    def aggregate(self) -> dict:
        return aggregate(self.columns())

    def dump(self, path: str) -> None:
        """Write every span: the columns plus the operation index."""
        document = self.columns()
        document["op"] = operation_index(self.keys, self.key, self.parent)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))


def operation_index(keys: list, key: list, parent: list) -> list:
    """The packet/event index the spans of one operation share.

    A span starts a new operation when it is one of
    :data:`OPERATION_KEYS` (one fired event) or sits directly under a
    root span; every other span inherits its parent's.  Parents precede
    children in the columns, so one forward pass settles it.
    """
    starters = {i for i, name in enumerate(keys) if name in OPERATION_KEYS}
    op = [0] * len(key)
    count = 0
    for index, above in enumerate(parent):
        if above < 0 or parent[above] < 0 or key[index] in starters:
            count += 1
            op[index] = count
        else:
            op[index] = op[above]
    return op


def aggregate(columns: dict) -> dict:
    """Per key: calls, inclusive ns and self ns; plus the traced wall.

    A root is a span with no parent; root durations sum to the traced
    wall, and — when every span closed inside its parent — self times
    over all spans sum to the same number.
    """
    keys, key = columns["keys"], columns["key"]
    start, end, parent = columns["start_ns"], columns["end_ns"], columns["parent"]
    count = len(key)
    child_ns = [0] * count
    wall = 0
    for index in range(count):
        duration = end[index] - start[index]
        if parent[index] >= 0:
            child_ns[parent[index]] += duration
        else:
            wall += duration
    calls = [0] * len(keys)
    total = [0] * len(keys)
    own = [0] * len(keys)
    for index, key_id in enumerate(key):
        duration = end[index] - start[index]
        calls[key_id] += 1
        total[key_id] += duration
        own[key_id] += duration - child_ns[index]
    return {
        "wall_ns": wall,
        "spans": count,
        "keys": {
            name: {"calls": calls[i], "total_ns": total[i], "self_ns": own[i]}
            for i, name in enumerate(keys)
            if calls[i]
        },
    }


class _Span:
    __slots__ = ("open_span", "close_span", "index")

    def __init__(self, open_span, close_span) -> None:
        self.open_span = open_span
        self.close_span = close_span

    def __enter__(self):
        self.index = self.open_span()
        return self

    def __exit__(self, *exc) -> None:
        self.close_span(self.index)
