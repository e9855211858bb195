"""The config-matrix runner: one stream, every engine configuration.

A *stream* is a flat list of events, replayed identically against every
configuration under test:

``("packet", bytes)``
    Deliver one packet.
``("detach", i)`` / ``("attach", i)``
    Live SETFILTER churn on port ``i`` (ports are created once, up
    front, from the rule list; detach keeps the port's queue, re-attach
    assigns a fresh bind sequence — exactly the device-layer rebind).
``("copyall", i, flag)``
    Flip port ``i``'s copy-all option and invalidate, the SETCOPYALL
    path.
``("drain",)``
    Read every port's queue to empty — frees queue space (and pool
    buffers) so overflow/nobuf outcomes keep toggling mid-stream.

Comparison rules (:func:`run_matrix`):

* per-packet outcomes — ``accepted_by``/``dropped_by``/``nobuf_by``
  port tuples — equal to the baseline configuration for every packet;
* demux and per-port lifetime counters equal across the matrix
  (predicate/instruction counts excluded: engines legitimately do
  different amounts of work);
* flow-cache hit/miss/invalidation counters equal across **all**
  cache-enabled configurations, whatever the engine — the cache keys
  on the packet's header prefix and stores port ids, neither of which
  may depend on the engine;
* optionally, the baseline's outcomes equal an independent 30-line
  oracle (:func:`reference_outcomes`) that reimplements priority
  order, first-match, copy-all and queue overflow with nothing but
  ``evaluate``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..core.demux import Engine, PacketFilterDemux
from ..core.interpreter import evaluate
from ..core.port import Port
from ..core.program import FilterProgram
from ..sim.overload import BufferPool

__all__ = [
    "MatrixConfig",
    "PacketOutcome",
    "RunResult",
    "Divergence",
    "MatrixReport",
    "full_matrix",
    "run_config",
    "run_matrix",
    "reference_outcomes",
]

#: Divergences reported per configuration before truncating — enough to
#: see the shape of a break without drowning the report.
MAX_DIVERGENCES_PER_CONFIG = 5


@dataclass(frozen=True)
class MatrixConfig:
    """One cell of the configuration matrix."""

    engine: Engine
    flow_cache: int = 0        #: slots (power of two); 0 = off

    @property
    def label(self) -> str:
        parts = [self.engine.value]
        if self.flow_cache:
            parts.append(f"cache{self.flow_cache}")
        return "+".join(parts)


def full_matrix(
    *, cache_sizes: Sequence[int] = (0, 64)
) -> tuple[MatrixConfig, ...]:
    """Every engine × cache combination.

    The first configuration returned is the baseline (checked
    interpreter, nothing else enabled) whenever ``cache_sizes``
    includes 0.
    """
    configs = [
        MatrixConfig(engine=engine, flow_cache=cache)
        for engine in Engine
        for cache in cache_sizes
    ]
    baseline = MatrixConfig(engine=Engine.CHECKED)
    configs.sort(key=lambda c: (c != baseline, c.label))
    return tuple(configs)


@dataclass(frozen=True)
class PacketOutcome:
    """What one configuration did with one packet."""

    accepted_by: tuple[int, ...]
    dropped_by: tuple[int, ...]
    nobuf_by: tuple[int, ...]


@dataclass
class RunResult:
    """One configuration's complete observable behavior over a stream."""

    config: MatrixConfig
    outcomes: tuple[PacketOutcome, ...]
    counters: dict[str, int]
    cache_stats: tuple[int, int, int] | None  #: (hits, misses, invalidations)

    def digest(self) -> str:
        """Canonical SHA-256 over everything compared — two runs of the
        same configuration must produce the same digest regardless of
        ``PYTHONHASHSEED`` (the determinism acceptance test runs this
        in subprocesses with different seeds)."""
        parts = [self.config.label]
        for outcome in self.outcomes:
            parts.append(
                f"{outcome.accepted_by}/{outcome.dropped_by}/{outcome.nobuf_by}"
            )
        for name in sorted(self.counters):
            parts.append(f"{name}={self.counters[name]}")
        parts.append(f"cache={self.cache_stats}")
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()


@dataclass(frozen=True)
class Divergence:
    """One observed disagreement between two configurations."""

    config: str     #: label of the diverging configuration
    baseline: str   #: label (or "oracle") it was compared against
    what: str       #: "outcome[i]" / counter name / "cache"
    got: str
    want: str

    def __str__(self) -> str:
        return (
            f"{self.config} vs {self.baseline}: {self.what} "
            f"got {self.got}, want {self.want}"
        )


@dataclass
class MatrixReport:
    """Everything :func:`run_matrix` learned."""

    results: list[RunResult] = field(default_factory=list)
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        lines = [
            f"{len(self.results)} configurations, "
            f"{len(self.results[0].outcomes) if self.results else 0} packets, "
            f"{len(self.divergences)} divergences"
        ]
        lines.extend(str(d) for d in self.divergences)
        return "\n".join(lines)


def _build_ports(
    programs: Sequence[FilterProgram],
    queue_limit: int,
    copy_all: Sequence[bool],
    pool: BufferPool | None,
) -> list[Port]:
    ports = []
    for index, program in enumerate(programs):
        port = Port(index, queue_limit=queue_limit)
        port.bind_filter(program)
        if index < len(copy_all):
            port.copy_all = bool(copy_all[index])
        port.pool = pool
        ports.append(port)
    return ports


def run_config(
    programs: Sequence[FilterProgram],
    stream: Iterable[tuple],
    config: MatrixConfig,
    *,
    queue_limit: int = 8,
    copy_all: Sequence[bool] = (),
    pool_capacity: int = 0,
    port_share: int | None = None,
    reorder: bool = False,
    reorder_interval: int | None = None,
) -> RunResult:
    """Replay ``stream`` through one configuration.

    Port ``i`` binds ``programs[i]``; all ports attach up front in
    index order, so bind-sequence tie-breaks are identical everywhere.
    ``pool_capacity`` > 0 wires a shared :class:`BufferPool` under the
    ports so the nobuf outcome is reachable.
    """
    pool = (
        BufferPool(pool_capacity, port_share=port_share)
        if pool_capacity
        else None
    )
    ports = _build_ports(programs, queue_limit, copy_all, pool)
    demux = PacketFilterDemux(
        engine=config.engine,
        flow_cache=config.flow_cache or False,
        reorder_same_priority=reorder,
    )
    if reorder_interval is not None:
        demux.REORDER_INTERVAL = reorder_interval
    for port in ports:
        demux.attach(port)

    outcomes: list[PacketOutcome] = []
    for event in stream:
        kind = event[0]
        if kind == "packet":
            report = demux.deliver(event[1])
            outcomes.append(
                PacketOutcome(
                    report.accepted_by, report.dropped_by, report.nobuf_by
                )
            )
        elif kind == "detach":
            demux.detach(ports[event[1]])
        elif kind == "attach":
            demux.attach(ports[event[1]])
        elif kind == "copyall":
            ports[event[1]].copy_all = bool(event[2])
            demux.invalidate()
        elif kind == "drain":
            for port in ports:
                port.read_packets()
        else:
            raise ValueError(f"unknown stream event {event!r}")

    counters: dict[str, int] = {
        "packets_seen": demux.packets_seen,
        "packets_unclaimed": demux.packets_unclaimed,
    }
    for port in ports:
        stats = port.stats
        for name in (
            "accepted",
            "delivered",
            "dropped_overflow",
            "dropped_nobuf",
            "read",
        ):
            counters[f"port{port.port_id}.{name}"] = getattr(stats, name)
        counters[f"port{port.port_id}.queued"] = port.queued
    if pool is not None:
        counters["pool.in_use"] = pool.in_use
    cache_stats = None
    if demux.flow_cache is not None:
        cache = demux.flow_cache
        cache_stats = (cache.hits, cache.misses, cache.invalidations)
    return RunResult(
        config=config,
        outcomes=tuple(outcomes),
        counters=counters,
        cache_stats=cache_stats,
    )


def reference_outcomes(
    programs: Sequence[FilterProgram],
    stream: Iterable[tuple],
    *,
    queue_limit: int = 8,
    copy_all: Sequence[bool] = (),
) -> list[PacketOutcome]:
    """An independent oracle: the figure 4-1 loop over ``evaluate``.

    Deliberately naive — priority order recomputed per packet, queue
    depths tracked as integers, no demultiplexer code involved — so a
    demux-wide bug cannot hide by infecting every engine equally.
    Buffer pools are out of scope (scenarios using one compare the
    matrix internally).
    """
    n = len(programs)
    flags = [
        bool(copy_all[i]) if i < len(copy_all) else False for i in range(n)
    ]
    sequence = dict.fromkeys(range(n))
    for i in range(n):
        sequence[i] = i
    next_seq = n
    queues = [0] * n
    outcomes: list[PacketOutcome] = []
    for event in stream:
        kind = event[0]
        if kind == "packet":
            packet = event[1]
            order = sorted(
                (i for i in range(n) if sequence[i] is not None),
                key=lambda i: (-programs[i].priority, sequence[i]),
            )
            accepted: list[int] = []
            dropped: list[int] = []
            for i in order:
                if not evaluate(programs[i], packet).accepted:
                    continue
                if queues[i] < queue_limit:
                    queues[i] += 1
                    accepted.append(i)
                else:
                    dropped.append(i)
                if not flags[i]:
                    break
            outcomes.append(
                PacketOutcome(tuple(accepted), tuple(dropped), ())
            )
        elif kind == "detach":
            sequence[event[1]] = None
        elif kind == "attach":
            sequence[event[1]] = next_seq
            next_seq += 1
        elif kind == "copyall":
            flags[event[1]] = bool(event[2])
        elif kind == "drain":
            queues = [0] * n
        else:
            raise ValueError(f"unknown stream event {event!r}")
    return outcomes


def run_matrix(
    programs: Sequence[FilterProgram],
    stream: Sequence[tuple],
    configs: Sequence[MatrixConfig] | None = None,
    *,
    oracle: bool = True,
    **run_kwargs,
) -> MatrixReport:
    """Replay ``stream`` through every configuration and cross-check.

    ``run_kwargs`` pass through to :func:`run_config`.  The oracle leg
    is skipped automatically for pool scenarios (it does not model the
    buffer pool) and can be turned off for large rule sets where the
    checked engine already is the semantic reference.
    """
    if configs is None:
        configs = full_matrix()
    stream = list(stream)
    report = MatrixReport()
    baseline: RunResult | None = None
    cache_refs: dict[int, RunResult] = {}
    for config in configs:
        result = run_config(programs, stream, config, **run_kwargs)
        report.results.append(result)
        if result.cache_stats is not None:
            reference = cache_refs.setdefault(config.flow_cache, result)
            if reference is not result:
                _compare_cache(report, result, reference)
        if baseline is None:
            baseline = result
            if oracle and not run_kwargs.get("pool_capacity"):
                expected = reference_outcomes(
                    programs,
                    stream,
                    queue_limit=run_kwargs.get("queue_limit", 8),
                    copy_all=run_kwargs.get("copy_all", ()),
                )
                _compare_outcomes(
                    report, result, expected, baseline_label="oracle"
                )
            continue
        _compare_outcomes(report, result, list(baseline.outcomes),
                          baseline_label=baseline.config.label)
        _compare_counters(report, result, baseline)
    return report


def _compare_outcomes(
    report: MatrixReport,
    result: RunResult,
    expected: Sequence[PacketOutcome],
    *,
    baseline_label: str,
) -> None:
    budget = MAX_DIVERGENCES_PER_CONFIG
    if len(result.outcomes) != len(expected):
        report.divergences.append(
            Divergence(
                config=result.config.label,
                baseline=baseline_label,
                what="outcome count",
                got=str(len(result.outcomes)),
                want=str(len(expected)),
            )
        )
        return
    for i, (got, want) in enumerate(zip(result.outcomes, expected)):
        if got != want:
            report.divergences.append(
                Divergence(
                    config=result.config.label,
                    baseline=baseline_label,
                    what=f"outcome[{i}]",
                    got=str(got),
                    want=str(want),
                )
            )
            budget -= 1
            if not budget:
                return


def _compare_counters(
    report: MatrixReport, result: RunResult, baseline: RunResult
) -> None:
    budget = MAX_DIVERGENCES_PER_CONFIG
    for name in sorted(set(result.counters) | set(baseline.counters)):
        got = result.counters.get(name)
        want = baseline.counters.get(name)
        if got != want:
            report.divergences.append(
                Divergence(
                    config=result.config.label,
                    baseline=baseline.config.label,
                    what=name,
                    got=str(got),
                    want=str(want),
                )
            )
            budget -= 1
            if not budget:
                return


def _compare_cache(
    report: MatrixReport, result: RunResult, reference: RunResult
) -> None:
    if result.cache_stats != reference.cache_stats:
        report.divergences.append(
            Divergence(
                config=result.config.label,
                baseline=reference.config.label,
                what="cache",
                got=str(result.cache_stats),
                want=str(reference.cache_stats),
            )
        )
