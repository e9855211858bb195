"""Tests for the shared Jacobson/Karels retransmission timer."""

import pytest

from repro.protocols.rto import MAX_TIMEOUT, RetransmitTimer


class TestConstruction:
    def test_initial_timeout(self):
        assert RetransmitTimer(0.2).timeout == 0.2

    def test_initial_clamped_to_cap(self):
        assert RetransmitTimer(5.0).timeout == MAX_TIMEOUT

    def test_validation(self):
        with pytest.raises(ValueError):
            RetransmitTimer(0.0)

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            RetransmitTimer(0.2).observe(-0.01)


class TestEstimation:
    def test_first_sample_initializes_srtt_and_rttvar(self):
        timer = RetransmitTimer(0.01)
        timer.observe(0.08)
        assert timer.srtt == 0.08
        assert timer.rttvar == 0.04
        assert timer.timeout == pytest.approx(0.08 + 4 * 0.04)
        assert timer.samples == 1

    def test_converges_toward_steady_samples(self):
        timer = RetransmitTimer(0.01)
        for _ in range(200):
            timer.observe(0.05)
        assert timer.srtt == pytest.approx(0.05, rel=1e-3)

    def test_floor_defaults_to_initial(self):
        """Adaptation only ever *raises* the timer above the
        historical fixed constant (RFC 6298's conservative-minimum
        stance): fast-path samples must not shrink it below the value
        that was known to work."""
        timer = RetransmitTimer(0.2)
        for _ in range(50):
            timer.observe(0.005)
        assert timer.timeout == 0.2

    def test_slack_keeps_timeout_above_srtt_at_zero_variance(self):
        """Steady samples decay rttvar toward zero; without slack the
        timeout would collapse onto the mean round trip and fire on
        any hiccup."""
        timer = RetransmitTimer(0.01)
        for _ in range(500):
            timer.observe(0.4)
        assert timer.rttvar < 0.01
        assert timer.timeout >= 2.0 * timer.srtt * 0.999

    def test_adapts_above_a_slow_path(self):
        timer = RetransmitTimer(0.1)
        timer.observe(0.3)
        assert timer.timeout > 0.3


class TestBackoff:
    def test_timeout_doubles_and_caps(self):
        timer = RetransmitTimer(0.2)
        timer.note_timeout()
        assert timer.timeout == pytest.approx(0.4)
        timer.note_timeout()
        assert timer.timeout == pytest.approx(0.8)
        for _ in range(10):
            timer.note_timeout()
        assert timer.timeout == MAX_TIMEOUT
        assert timer.timeouts == 12

    def test_fresh_sample_ends_backoff(self):
        timer = RetransmitTimer(0.01)
        timer.note_timeout()
        timer.note_timeout()
        timer.observe(0.02)
        assert timer.timeout == pytest.approx(0.02 + 4 * 0.01)


class TestRearm:
    def test_small_drift_not_worth_a_syscall(self):
        timer = RetransmitTimer(0.2)
        assert not timer.needs_rearm(0.2)
        assert not timer.needs_rearm(0.19)

    def test_material_drift_rearms(self):
        timer = RetransmitTimer(0.2)
        timer.note_timeout()   # timeout -> 0.4
        assert timer.needs_rearm(0.2)
