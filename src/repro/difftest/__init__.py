"""Differential correctness harness for the classification engines.

The demultiplexer can classify a packet four different ways (checked,
prevalidated, compiled, IR), each through an optional flow cache —
eight configurations that all claim to implement the one figure 4-1
contract.  This package runs the same rule set and packet stream
through every configuration and asserts they cannot be told apart:
identical per-packet accept/drop/nobuf outcomes, reconciled port and
demux counters, and identical flow-cache hit/miss statistics across
engines.

See :mod:`repro.difftest.harness` for the matrix runner,
:mod:`repro.difftest.mutations` for the adversarial stream builders
(attach/detach churn, copy-all flips, truncated frames, engineered
flow-cache collision floods), and :mod:`repro.difftest.sharding` for
the partition-independence oracle of the sharded multi-segment
simulator (1-shard vs N-shard runs must digest identically).
"""

from .harness import (
    Divergence,
    MatrixConfig,
    MatrixReport,
    PacketOutcome,
    RunResult,
    full_matrix,
    reference_outcomes,
    run_config,
    run_matrix,
)
from .sharding import (
    flow_storm_digest,
    outcome_digest,
    run_digest,
    span_fingerprint,
    stats_digest,
    stats_fingerprint,
)
from .mutations import (
    boundary_packets,
    cache_key_bytes,
    churn_stream,
    collision_flood,
    packets_only,
    truncation_stream,
    with_drains,
)

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
    "packets_only",
    "with_drains",
    "boundary_packets",
    "churn_stream",
    "collision_flood",
    "truncation_stream",
    "cache_key_bytes",
    "stats_fingerprint",
    "span_fingerprint",
    "stats_digest",
    "outcome_digest",
    "run_digest",
    "flow_storm_digest",
]
