"""Applications built on the packet filter (section 5)."""

from .monitor import NetworkMonitor, TraceRecord, TrafficSummary, decode_frame

__all__ = [
    "NetworkMonitor", "TraceRecord", "TrafficSummary", "decode_frame",
]
