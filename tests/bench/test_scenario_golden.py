"""Bitwise golden for every scenario function in ``repro.bench.scenarios``.

Each case calls one public scenario function with an argument set the
paper-table benchmarks (``benchmarks/test_table_*``, ``test_figure_*``,
``test_section_*``, ``test_chaos_soak``, ``test_overload_livelock``)
use, and pins ``repr()`` of the result — every float to its last bit.
The simulator is deterministic, so a moved bit is a changed scenario:
this is the oracle a refactor of ``scenarios.py`` is checked against,
in the same spirit as ``perfbench/golden.json`` for the workloads.

Re-record only when a simulated number is *meant* to move::

    PYTHONPATH=src python tests/bench/test_scenario_golden.py
"""

import functools
import json
from pathlib import Path

import pytest

from repro.bench import scenarios
from repro.sim.display import TERMINAL_9600_CPS, WORKSTATION_CPS

GOLDEN = Path(__file__).with_name("golden_scenarios.json")

SEED = scenarios.CHAOS_SEEDS[0]


def _plain(value):
    """``value`` if it is data all the way down, else None: result dicts
    also carry live worlds, ledgers and processes, which have no stable
    repr and are not what the tables report."""
    if isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        items = [_plain(item) for item in value]
        return None if None in items else items
    if isinstance(value, dict):
        items = {key: _plain(item) for key, item in value.items()}
        return None if None in items.values() else sorted(items.items())
    return None


def _scalars(result: dict) -> list:
    """A result dict as sorted plain-data items, host wall clocks out."""
    plain = {
        key: _plain(value)
        for key, value in result.items()
        if not key.startswith("wall")
    }
    return sorted(item for item in plain.items() if item[1] is not None)


@functools.cache
def _disk_ms_per_kbyte() -> float:
    """Table 6-6's disk: as fast as the memory-sourced TCP stream."""
    return 1000.0 / scenarios.measure_tcp_bulk()


def _tcp_disk():
    return scenarios.measure_tcp_bulk(disk_ms_per_kbyte=_disk_ms_per_kbyte())


def _bsp_disk():
    return scenarios.measure_bsp_bulk(disk_ms_per_kbyte=_disk_ms_per_kbyte())


CASES = {
    # table 6-1
    **{
        f"send_cost-{via}-{size}": (
            lambda via=via, size=size: scenarios.measure_send_cost(via, size)
        )
        for via in ("pf", "udp")
        for size in (128, 1500)
    },
    # tables 6-2 / 6-5
    **{
        f"vmtp_minimal-{how}": (
            lambda how=how: scenarios.measure_vmtp_minimal(how)
        )
        for how in ("pf", "kernel", "pf-userdemux")
    },
    # tables 6-3 / 6-4 / 6-5
    **{
        f"vmtp_bulk-{how}": (lambda how=how: scenarios.measure_vmtp_bulk(how))
        for how in ("pf", "kernel", "pf-userdemux")
    },
    "vmtp_bulk-pf-unbatched": lambda: scenarios.measure_vmtp_bulk(
        "pf", batching=False
    ),
    # table 6-6
    "tcp_bulk": lambda: scenarios.measure_tcp_bulk(),
    "tcp_bulk-mss514": lambda: scenarios.measure_tcp_bulk(mss=514),
    "tcp_bulk-disk": _tcp_disk,
    "bsp_bulk": lambda: scenarios.measure_bsp_bulk(),
    "bsp_bulk-disk": _bsp_disk,
    # table 6-7
    **{
        f"telnet-{transport}-{label}": (
            lambda transport=transport, cps=cps, cpu=cpu: (
                scenarios.measure_telnet(
                    transport, cps, display_consumes_cpu=cpu
                )
            )
        )
        for transport in ("bsp", "tcp")
        for label, cps, cpu in (
            ("workstation", WORKSTATION_CPS, True),
            ("terminal", TERMINAL_9600_CPS, False),
        )
    },
    # tables 6-8 / 6-9, sections 3 and 6.5
    **{
        f"receive_cost-{demux}-{size}": (
            lambda demux=demux, size=size: (
                scenarios.measure_receive_cost(demux, size)
            )
        )
        for demux in ("kernel", "user")
        for size in (128, 1500)
    },
    **{
        f"receive_cost-{demux}-{size}-batched": (
            lambda demux=demux, size=size: scenarios.measure_receive_cost(
                demux, size, batching=True, burst=6
            )
        )
        for demux in ("kernel", "user")
        for size in (128, 1500)
    },
    "receive_cost-kernel-128-count30": (
        lambda: scenarios.measure_receive_cost("kernel", 128, count=30)
    ),
    # table 6-10
    **{
        f"filter_cost-{length}": (
            lambda length=length: scenarios.measure_filter_cost(length)
        )
        for length in (0, 1, 9, 21)
    },
    # figures 2-1/2-2 and 3-4/3-5
    "receive_events-kernel": lambda: _scalars(
        scenarios.count_receive_events("kernel")
    ),
    "receive_events-user": lambda: _scalars(
        scenarios.count_receive_events("user")
    ),
    **{
        f"receive_events-kernel-burst6-batching{batching}": (
            lambda batching=batching: _scalars(
                scenarios.count_receive_events(
                    "kernel", batching=batching, burst=6
                )
            )
        )
        for batching in (False, True)
    },
    # figure 2-3
    "stream_crossings-tcp": lambda: _scalars(
        scenarios.count_stream_crossings("tcp")
    ),
    "stream_crossings-bsp": lambda: _scalars(
        scenarios.count_stream_crossings("bsp")
    ),
    # section 6.1
    "kernel_profile": lambda: scenarios.kernel_profile(),
    # chaos soaks, at the arguments benchmarks/test_chaos_soak.py uses
    "bsp_chaos": lambda: _scalars(
        scenarios.run_bsp_chaos(seed=SEED, payload_bytes=16 * 1024)
    ),
    "vmtp_chaos": lambda: _scalars(
        scenarios.run_vmtp_chaos(seed=SEED, calls=10, segment_bytes=8 * 1024)
    ),
    "rarp_chaos": lambda: _scalars(scenarios.run_rarp_chaos(seed=SEED)),
    "pup_echo_chaos": lambda: _scalars(
        scenarios.run_pup_echo_chaos(seed=SEED, count=6)
    ),
    **{
        f"spurious_retransmissions-adaptive{adaptive}": (
            lambda adaptive=adaptive: (
                scenarios.measure_spurious_retransmissions(
                    adaptive_rto=adaptive, seed=SEED
                )
            )
        )
        for adaptive in (False, True)
    },
    # the livelock experiment, both modes
    "saturation_pps": lambda: scenarios.receive_saturation_pps(),
    **{
        f"overload_storm-{mode}": (
            lambda mode=mode: _scalars(
                scenarios.run_overload_storm(
                    mode=mode, offered_multiplier=4.0, duration=0.2
                )
            )
        )
        for mode in ("interrupt", "polling")
    },
    # the shardable storm's headline numbers (its whole-world digest is
    # pinned by the shard oracle and perfbench/golden.json)
    "flow_storm": lambda: _scalars(
        scenarios.run_flow_storm(
            segments=2, seed=SEED, duration=0.1, flows=64, cache_size=16
        )
    ),
}


def record() -> dict:
    return {name: repr(case()) for name, case in CASES.items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_scenario_is_bitwise_unchanged(name, golden):
    assert repr(CASES[name]()) == golden[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(CASES)} cases to {GOLDEN}")
