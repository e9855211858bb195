"""Adaptive retransmission timeouts for the user-level protocols.

Section 3's "write; read with timeout; retry if necessary" paradigm
leaves the *value* of the timeout to the protocol, and the original
implementations (like ours, until this module) hard-coded one.  A fixed
timer is wrong in both directions: shorter than the path's worst-case
round trip it retransmits spuriously (go-back-N then resends a whole
window that was never lost); much longer than the typical round trip it
sits idle after a genuine loss.

:class:`RetransmitTimer` is the classic Jacobson/Karels estimator
(SIGCOMM '88) that both BSP and VMTP now share:

* ``observe(rtt)`` folds in a round-trip sample —
  ``srtt += ALPHA * err`` and ``rttvar`` tracks mean deviation; the
  timeout is ``srtt + K * rttvar`` (but never below ``SLACK * srtt`` —
  a steady path decays the variance term to nothing, and a timer equal
  to the typical round trip fires spuriously on any hiccup), clamped
  between the initial timeout and ``MAX_TIMEOUT``;
* ``note_timeout()`` applies exponential backoff (doubling, capped) —
  and the caller must then stop sampling retransmitted packets until an
  unambiguous exchange completes (Karn's algorithm; both protocol
  integrations do this by invalidating their outstanding sample on any
  retransmission).

The timer is transport-agnostic: protocols arm it through the packet
filter's ``SETTIMEOUT`` read policy (or a ``Select`` timeout), and
:meth:`needs_rearm` rate-limits the re-arming ioctl to material changes
so the adaptive path does not distort syscall-count measurements.
"""

from __future__ import annotations

__all__ = ["RetransmitTimer"]

ALPHA = 0.125   #: gain of the smoothed round trip (Jacobson's 1/8)
BETA = 0.25     #: gain of the mean deviation (1/4)
K = 4.0         #: deviations the timeout sits above the smoothed round trip
SLACK = 2.0     #: smoothed round trips the timeout never falls below
BACKOFF = 2.0   #: factor each retransmission timeout multiplies the timer by
MAX_TIMEOUT = 2.0
"""The cap on the timer, backoff included: the longest gap between two
retransmissions."""


class RetransmitTimer:
    """Jacobson/Karels smoothed-RTT retransmission timer."""

    #: Relative change below which re-arming the device timeout is not
    #: worth a syscall (see :meth:`needs_rearm`).
    REARM_TOLERANCE = 0.1

    def __init__(self, initial: float) -> None:
        if initial <= 0.0:
            raise ValueError("initial timeout must be positive")
        # The floor is the protocol's historical fixed timeout:
        # adaptation only ever *raises* the timer above the old constant
        # (RFC 6298's conservative-minimum stance).  RTT samples
        # under-represent ack silence when a slow consumer acknowledges
        # in clusters, so an unfloored estimator converges below the
        # real ack gap and retransmits whole windows that were never
        # lost.
        self.min_timeout = min(initial, MAX_TIMEOUT)
        self.srtt: float | None = None
        self.rttvar: float | None = None
        self._base = self.min_timeout
        self._backoff = 1.0
        self.samples = 0     #: RTT observations folded in
        self.timeouts = 0    #: backoff events (retransmission timeouts)

    @property
    def timeout(self) -> float:
        """The current retransmission timeout, backoff and cap applied."""
        return min(self._base * self._backoff, MAX_TIMEOUT)

    def telemetry_gauges(self) -> dict:
        """Gauge callables for the telemetry sampler — the live timeout,
        the smoothed estimate, the backoff multiplier (what the
        backoff-storm watchdog watches) and the lifetime counters.  The
        owning protocol endpoint publishes these under its own prefix."""
        return {
            "timeout": lambda: self.timeout,
            "srtt": lambda: self.srtt if self.srtt is not None else 0.0,
            "backoff": lambda: self._backoff,
            "samples": lambda: self.samples,
            "timeouts": lambda: self.timeouts,
        }

    def observe(self, rtt: float) -> None:
        """Fold in one round-trip sample (never from a retransmitted
        exchange — Karn's algorithm is the caller's responsibility)."""
        if rtt < 0.0:
            raise ValueError("round-trip samples cannot be negative")
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            error = rtt - self.srtt
            self.rttvar = (1.0 - BETA) * self.rttvar + BETA * abs(error)
            self.srtt = self.srtt + ALPHA * error
        # When samples are steady, rttvar decays and srtt + k*rttvar
        # collapses onto the mean round trip itself — and a timer equal
        # to the typical RTT fires spuriously on any hiccup (the reason
        # TCP keeps a conservative RTO floor).  SLACK keeps the timeout a
        # multiple of srtt even at zero variance.
        self._base = min(
            max(
                self.srtt + K * self.rttvar,
                self.srtt * SLACK,
                self.min_timeout,
            ),
            MAX_TIMEOUT,
        )
        # A fresh unambiguous sample ends any backoff episode.
        self._backoff = 1.0
        self.samples += 1

    def note_timeout(self) -> None:
        """A retransmission timer fired: back off exponentially."""
        self.timeouts += 1
        if self._base * self._backoff < MAX_TIMEOUT:
            self._backoff *= BACKOFF

    def needs_rearm(self, armed: float) -> bool:
        """Whether ``timeout`` has drifted enough from the value last
        armed at the device to be worth another SETTIMEOUT syscall."""
        return abs(self.timeout - armed) > self.REARM_TOLERANCE * armed

    def __repr__(self) -> str:
        return (
            f"RetransmitTimer(timeout={self.timeout:.4f}, "
            f"srtt={self.srtt}, rttvar={self.rttvar}, "
            f"samples={self.samples}, timeouts={self.timeouts})"
        )
