"""The host/kernel substrate: a deterministic discrete-event simulator.

The paper's measurements are statements about operating-system
primitives — context switches, system calls, kernel/user copies,
interrupt service.  This package provides a small but complete simulated
Unix on which those primitives are first-class, chargeable, countable
events; see DESIGN.md §1 for why that substitution preserves the
evaluation's meaning.
"""

from .clock import Event, EventScheduler
from .costs import FREE, MICROVAX_II, VAX_780, CostModel
from .errors import (
    BadFileDescriptor,
    BrokenPipe,
    DeviceBusy,
    InvalidArgument,
    NoSuchDevice,
    ProcessKilled,
    SimError,
    SimTimeout,
    WouldBlock,
)
from .host import Host
from .kernel import DeviceDriver, DeviceHandle, SimKernel, WaitQueue
from .ledger import (
    ChargeEvent,
    Ledger,
    PacketSpan,
    Primitive,
    SPAN_OUTCOMES,
    SPAN_STAGES,
)
from .overload import BufferPool, PoolStats, RxPolicy
from .pipe import Pipe
from .process import (
    Close,
    Compute,
    Ioctl,
    Open,
    PipeCreate,
    Process,
    ProcessState,
    Read,
    Select,
    SigWait,
    Sleep,
    Syscall,
    Write,
)
from .orchestrator import TopologyResult, run_topology
from .seeds import derive_rng, derive_seed
from .shard import LocalShard, ProcessShard, partition
from .stats import KernelStats, merge_stats
from .telemetry import (
    Alert,
    Series,
    SeriesView,
    Telemetry,
    TelemetrySnapshot,
    WatchdogRule,
    builtin_watchdogs,
)
from .topology import (
    BridgeEndpoint,
    BridgeSpec,
    SegmentContext,
    SegmentReport,
    SegmentRuntime,
    SegmentSpec,
    TopologySpec,
    resolve_builder,
    segment_index_of,
    station_address,
)
from .world import World

__all__ = [
    "Event", "EventScheduler",
    "CostModel", "MICROVAX_II", "VAX_780", "FREE",
    "SimError", "SimTimeout", "BadFileDescriptor", "NoSuchDevice",
    "DeviceBusy", "InvalidArgument", "BrokenPipe", "WouldBlock",
    "ProcessKilled",
    "SimKernel", "WaitQueue", "DeviceDriver", "DeviceHandle",
    "RxPolicy", "BufferPool", "PoolStats",
    "Pipe", "KernelStats", "merge_stats", "Host", "World",
    "derive_seed", "derive_rng",
    "Ledger", "ChargeEvent", "PacketSpan", "Primitive",
    "SPAN_STAGES", "SPAN_OUTCOMES",
    "Telemetry", "TelemetrySnapshot", "Series", "SeriesView",
    "Alert", "WatchdogRule", "builtin_watchdogs",
    "TopologySpec", "SegmentSpec", "BridgeSpec", "BridgeEndpoint",
    "SegmentContext", "SegmentRuntime", "SegmentReport",
    "resolve_builder",
    "station_address", "segment_index_of",
    "TopologyResult", "run_topology",
    "LocalShard", "ProcessShard", "partition",
    "Process", "ProcessState", "Syscall",
    "Open", "Close", "Read", "Write", "Ioctl", "Select", "Sleep",
    "Compute", "PipeCreate", "SigWait",
]
