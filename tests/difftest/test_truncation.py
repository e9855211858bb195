"""Truncated and short frames through every engine.

The checked interpreter discovers an out-of-bounds word at evaluation
time and rejects; the prevalidated/compiled/IR engines reject via
the hoisted ``min_packet_bytes`` pre-check.  Those mechanisms are
entirely different code — this suite pins that they cannot be told
apart at any frame length: shorter than the flow-cache key, shorter
than ``min_packet_bytes``, odd lengths (the zero-padded tail word),
single-byte and empty frames.
"""

from __future__ import annotations

from repro.core.validator import validate
from repro.difftest import (
    cache_key_bytes,
    full_matrix,
    packets_only,
    run_matrix,
    truncation_stream,
)
from ruleset_gen import generate_ruleset, traffic_for


def test_truncated_frames_identical_across_matrix():
    programs, tuples = generate_ruleset(8, seed=3)
    base = traffic_for(tuples, count=8, seed=4)
    key_bytes = cache_key_bytes(programs)
    min_bytes = validate(programs[0]).min_packet_bytes
    stream = truncation_stream(
        base, key_bytes, min_packet_bytes=min_bytes, seed=5
    )
    # the stream really covers the boundaries it claims to
    lengths = {len(p) for p in stream}
    assert 0 in lengths and 1 in lengths
    assert any(0 < n < key_bytes for n in lengths)
    assert any(0 < n < min_bytes for n in lengths)
    assert any(n % 2 == 1 for n in lengths)

    report = run_matrix(programs, packets_only(stream), full_matrix())
    assert report.ok, report.summary()

    # full-length frames still match (truncation didn't reject all)
    accepted = sum(1 for o in report.results[0].outcomes if o.accepted_by)
    rejected = sum(1 for o in report.results[0].outcomes if not o.accepted_by)
    assert accepted >= len(base)
    assert rejected > 0


def test_exact_boundary_frame_classified_everywhere():
    """Frames cut exactly at the last byte a filter reads — the
    odd-length case where the discriminant word is half present and
    zero-padded — must classify identically across the matrix.

    At ``min_packet_bytes`` (13 here: an odd cut into word 6) the
    padded word is ``high_byte << 8``, which equals the rule's dst
    port only when the port's low byte is zero — true for rule 0
    (port 1024) and no other, so the boundary frames separate the
    zero-pad semantics from a plain oob-reject."""
    programs, tuples = generate_ruleset(4, seed=9)
    min_bytes = validate(programs[0]).min_packet_bytes
    assert min_bytes % 2 == 1  # the cut really lands mid-word
    frames = []
    for packet in traffic_for(tuples, count=4, seed=10):
        frames += [
            packet[:min_bytes],       # zero-padded discriminant word
            packet[: min_bytes - 1],  # one byte short: reject everywhere
            packet[: min_bytes + 1],  # discriminant complete, sans payload
        ]
    report = run_matrix(programs, packets_only(frames), full_matrix())
    assert report.ok, report.summary()
    outcomes = report.results[0].outcomes
    # rule 0's padded word still reads 1024 -> accepted; rules 1-3 see
    # a wrong (zero-padded) port; the short frames never match; the
    # complete-discriminant frames always do
    assert outcomes[0].accepted_by == (0,)
    assert not any(outcomes[i * 3].accepted_by for i in range(1, 4))
    assert not any(outcomes[i * 3 + 1].accepted_by for i in range(4))
    assert all(outcomes[i * 3 + 2].accepted_by == (i,) for i in range(4))
