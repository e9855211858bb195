"""Property tests (hypothesis): payloads survive arbitrary chaos.

Whatever combination of burst loss, reordering, corruption and
duplication the segment inflicts — within a survivable retry budget —
the protocols must deliver exactly the bytes that were sent, or fail
loudly.  Silent damage is the one unacceptable outcome: every byte
that arrives must be a byte that was sent.

Small payloads and few examples keep the tier-1 suite fast; the seeded
soak matrix in benchmarks/test_chaos_soak.py covers the heavyweight
profiles.  ``derandomize`` keeps the examples fixed run to run — these
are regression tests, not a fuzzing campaign.
"""

from hypothesis import given, settings, strategies as st

from repro.bench.scenarios import run_bsp_chaos, run_vmtp_chaos
from repro.net.medium import ChaosConfig

# Survivable chaos: expected loss stays under ~35% so SOAK_RETRIES
# always rides out the bursts; every knob still gets exercised.
chaos_profiles = st.builds(
    ChaosConfig,
    loss_rate=st.floats(0.0, 0.15),
    burst_enter_rate=st.floats(0.0, 0.1),
    burst_exit_rate=st.floats(0.2, 0.5),
    burst_loss_rate=st.floats(0.5, 0.95),
    duplicate_rate=st.floats(0.0, 0.2),
    reorder_rate=st.floats(0.0, 0.3),
    reorder_jitter=st.floats(0.0, 4e-3),
    corrupt_rate=st.floats(0.0, 0.1),
)

seeds = st.integers(min_value=0, max_value=2**16)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(chaos=chaos_profiles, seed=seeds)
def test_bsp_stream_arrives_intact_under_chaos(chaos, seed):
    result = run_bsp_chaos(chaos=chaos, seed=seed, payload_bytes=4096)
    assert result["intact"]


@settings(max_examples=8, deadline=None, derandomize=True)
@given(chaos=chaos_profiles, seed=seeds)
def test_vmtp_replies_arrive_intact_under_chaos(chaos, seed):
    result = run_vmtp_chaos(
        chaos=chaos, seed=seed, calls=4, segment_bytes=2048
    )
    assert result["intact"]
