"""``golden.json``: the simulated results each world workload must
reproduce, per scale, recorded on seed 0.

``python -m perfbench --update-golden`` is the only way the file
changes; a speed-up that moves one simulated counter therefore fails
the benchmark instead of looking like a gain.
"""

from __future__ import annotations

import json
import os

__all__ = ["PATH", "load_golden", "save_golden", "record"]

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def load_golden() -> dict:
    with open(PATH) as handle:
        return json.load(handle)


def save_golden(golden: dict) -> None:
    with open(PATH, "w") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")


def record() -> dict:
    """Run every world workload's job on the golden seed, at every
    scale, and return the fingerprints ``golden.json`` should hold."""
    from .workloads import SIZES, create
    from .worlds import GOLDEN_SEED, WorldWorkload

    golden: dict = {}
    for scale, sizes in SIZES.items():
        for name in sizes:
            workload = create(name, GOLDEN_SEED, scale)
            if isinstance(workload, WorldWorkload):
                golden.setdefault(scale, {})[name] = workload.fingerprint(
                    workload.job(GOLDEN_SEED)
                )
    return golden
