"""The flow cache: a direct-mapped memo of classification results.

Usable by *every* engine: keyed by the packet's discriminating header
prefix, for the common case where thousands of consecutive packets
belong to a handful of flows.  The demultiplexer
(:mod:`repro.core.demux`) owns the invalidation discipline; this module
keeps the cache itself dumb and fast.
"""

from __future__ import annotations

from zlib import crc32

__all__ = ["FlowCache"]


class FlowCache:
    """Direct-mapped memo of packet-classification results.

    Keyed by the packet's discriminating header prefix (extracted by the
    demultiplexer at bind time: every byte any bound filter can read),
    each slot memoizes the full delivery decision — the accepting port ids,
    copy-all continuation included.  Identical prefixes provably
    classify identically, so a hit skips filter evaluation entirely;
    the paper's observation that consecutive packets overwhelmingly
    belong to the same few conversations does the rest.

    The cache is deliberately ignorant of *when* its contents go stale:
    the demultiplexer calls :meth:`invalidate` from its single
    order-mutation hook (attach/detach/reorder/copy-all).  Hit, miss
    and invalidation counters are public for benchmarks and tests.

    Slot indexing uses ``zlib.crc32``, **not** Python's ``hash``:
    ``hash(bytes)`` is salted per process (``PYTHONHASHSEED``), so a
    hash-indexed cache would make collision and eviction patterns — and
    with them the hit/miss counters, the ledger-derived costs, and any
    admission decision guided by :meth:`peek` — differ between
    identically-seeded runs, violating the simulator's bitwise
    determinism guarantee.  CRC32 is stable across processes, platforms
    and Python versions.
    """

    DEFAULT_SIZE = 1024

    def __init__(self, size: int = DEFAULT_SIZE) -> None:
        if size < 1 or size & (size - 1):
            raise ValueError("flow cache size must be a power of two")
        self.size = size
        self._mask = size - 1
        self._keys: list[bytes | None] = [None] * size
        self._values: list[tuple[int, ...] | None] = [None] * size
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def lookup(self, key: bytes) -> tuple[int, ...] | None:
        """Cached accepting port ids for ``key``, or None on a miss."""
        slot = crc32(key) & self._mask
        if self._keys[slot] == key:
            self.hits += 1
            return self._values[slot]
        self.misses += 1
        return None

    def peek(self, key: bytes) -> tuple[int, ...] | None:
        """Like :meth:`lookup` but without touching the hit/miss
        counters — for admission-control peeks that precede (and must
        not distort the statistics of) the real classification."""
        slot = crc32(key) & self._mask
        if self._keys[slot] == key:
            return self._values[slot]
        return None

    def store(self, key: bytes, ports: tuple[int, ...]) -> None:
        slot = crc32(key) & self._mask
        self._keys[slot] = key
        self._values[slot] = ports

    def invalidate(self) -> None:
        """Drop every entry (the bound filter set changed under us)."""
        self._keys = [None] * self.size
        self._values = [None] * self.size
        self.invalidations += 1

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
