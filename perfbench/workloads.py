"""The six workloads: names, sizes, and the interface the harness drives.

Names are fixed — later issues cite them.  Each workload is closed-loop
in host time (the next packet, re-bind or simulated event starts when
the previous one returns), single-threaded except ``flow_storm_s2``'s
two shard workers, and runs a job whose size is fixed by
:data:`SIZES`, never by how fast the host is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SIZES", "NAMES", "Rep", "Check", "Workload", "create"]

SIZES = {
    # Sized so one repetition takes 0.1-0.3 s on the 2-core sandbox.  The
    # host's speed wanders on that time scale (perfbench/calibrate.py):
    # short repetitions, each with its own speed factor, are what make a
    # 10 s run repeatable.  The storms stay long enough that stepping
    # windows, not forking two workers, is what flow_storm_s2 times.
    "full": {
        "acl_classify": {"rules": 1000, "rounds": 32},
        "acl_churn": {"rules": 128, "rebinds": 1, "rounds": 14},
        "recv_path": {"frames": 1000},
        "bsp_bulk": {"bytes": 128 * 1024},
        "flow_storm_s1": {"sim_seconds": 0.5},
        "flow_storm_s2": {"sim_seconds": 0.5},
    },
    # A tenth of the above, for the smoke test.
    "quick": {
        "acl_classify": {"rules": 100, "rounds": 16},
        "acl_churn": {"rules": 32, "rebinds": 2, "rounds": 4},
        "recv_path": {"frames": 400},
        "bsp_bulk": {"bytes": 52 * 1024},
        "flow_storm_s1": {"sim_seconds": 0.1},
        "flow_storm_s2": {"sim_seconds": 0.1},
    },
}

NAMES = tuple(SIZES["full"])


@dataclass
class Rep:
    """What one repetition did."""

    packets: int                 #: the workload's unit of useful work
    wall_ns: int                 #: host time of the timed section
    digest: str | None = None    #: simulated-state digest (world workloads)
    counts: dict = field(default_factory=dict)  #: exact counters of the job
    sim: dict = field(default_factory=dict)     #: simulated-time results
    samples: dict = field(default_factory=dict)  #: per-operation host times


@dataclass
class Check:
    """Outcome of a workload's correctness gate."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def expect(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)


class Workload:
    """One workload, built once per process.

    Construction generates the inputs from the seed and builds whatever
    survives between repetitions (that, plus one warm-up
    :meth:`repeat`, is ``setup_s``).  :meth:`repeat` runs the identical
    job every time it is called.
    """

    name = ""
    body_layer = "sim.process"   #: layer charged for process-body time
    verify = True
    """Run in-repetition checks (untimed).  The traced run turns them
    off so the reference engine stays out of the profile."""

    def __init__(self, seed: int, size: dict, scale: str) -> None:
        self.seed = seed
        self.size = size
        self.scale = scale

    def repeat(self) -> Rep:
        raise NotImplementedError

    def check(self, reps: list[Rep]) -> Check:
        """The correctness gate, run after (outside) the timed reps."""
        raise NotImplementedError

    def end_to_end_extras(self, reps: list[Rep], factors: list[float]) -> dict:
        """End-to-end metrics only this workload has, as summaries.
        ``factors`` are the repetitions' host-speed factors
        (:mod:`perfbench.calibrate`)."""
        return {}

    def layer_extras(self, traced) -> dict[str, float]:
        """Per-layer metrics that need a pass of their own.

        ``traced(fn)`` runs ``fn`` under a fresh tracer and returns its
        aggregate, for the passes that need spans."""
        return {}


def create(name: str, seed: int, scale: str = "full") -> Workload:
    from . import acl, worlds

    classes = {
        cls.name: cls
        for cls in (
            acl.AclClassify,
            acl.AclChurn,
            worlds.RecvPath,
            worlds.BspBulk,
            worlds.FlowStormS1,
            worlds.FlowStormS2,
        )
    }
    if name not in classes:
        raise LookupError(f"unknown workload {name!r} (have: {', '.join(NAMES)})")
    return classes[name](seed, SIZES[scale][name], scale)
