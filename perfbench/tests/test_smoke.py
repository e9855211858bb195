"""Smoke test: ``python -m perfbench --quick --trace`` end to end.

Not part of the tier-1 ``testpaths``; run as ``pytest perfbench/tests``.
"""

import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for entry in (os.path.join(ROOT, "src"), ROOT):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import catalog, tracer  # noqa: E402
from perfbench.workloads import NAMES  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
ROW_KEYS = {"name", "workload", "kind", "unit", "direction", "value", "median", "q1", "q3", "n"}
HOST_KEYS = {"git_sha", "cpu_count", "affinity", "python", "numpy", "loadavg_1m"}


def perfbench(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, "-m", "perfbench", *args], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("perfbench") / "quick.json"
    done = perfbench("--quick", "--trace", "--out", str(out))
    assert done.returncode == 0, done.stdout
    with open(out) as handle:
        return str(out), json.load(handle), done.stdout


def test_contract_file_matches_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == catalog.contract()


def test_result_schema(quick):
    _, record, _ = quick
    assert record["suite"] and record["scale"] == "quick"
    assert isinstance(record["seed"], int)
    assert set(record["host"]) == HOST_KEYS
    assert set(record["workloads"]) == set(NAMES)
    for row in record["metrics"]:
        assert set(row) >= ROW_KEYS, row
        assert NAME.fullmatch(row["name"]) and NAME.fullmatch(row["workload"])
        assert row["direction"] in ("higher", "lower")
        assert row["n"] >= 1
    for info in record["workloads"].values():
        assert info["repetitions"] == [2]


def test_every_metric_is_emitted_and_printed(quick):
    _, record, printed = quick
    emitted = {(row["workload"], row["name"]) for row in record["metrics"]}
    contract = catalog.contract()
    for workload in NAMES:
        for metric in contract["per_layer"] + contract["end_to_end"]:
            assert (workload, metric["name"]) in emitted, (workload, metric["name"])
    for name, *_ in catalog.END_TO_END:
        assert name in printed


def test_nothing_failed(quick):
    _, record, _ = quick
    for row in record["metrics"]:
        if row["name"] == "failed_share":
            assert row["value"] == 0, row
    for name, info in record["workloads"].items():
        assert info["failed"] == 0 and info["attempted"] > 0, (name, info["notes"])
    digests = {n: record["workloads"][n]["digests"] for n in NAMES}
    assert digests["flow_storm_s2"] == digests["flow_storm_s1"]
    nesting = [r for r in record["metrics"] if r["name"] == "trace.self_sum_ratio"]
    assert all(abs(row["value"] - 1.0) <= 0.02 for row in nesting)


def test_compare_passes_on_itself_and_fails_on_a_regression(quick, tmp_path):
    path, record, _ = quick
    assert perfbench("--compare", path, path).returncode == 0
    for row in record["metrics"]:
        if row["name"] == "pkts_per_s" and row["workload"] == "recv_path":
            row["value"] *= 0.5
    slower = tmp_path / "slower.json"
    slower.write_text(json.dumps(record))
    done = perfbench("--compare", path, str(slower))
    assert done.returncode == 1 and "BREACH" in done.stdout


def test_a_vanished_target_is_named():
    with pytest.raises(tracer.MissingTarget, match="PacketFilterDemux.no_such_method"):
        tracer._resolve("repro.core.demux", "PacketFilterDemux", "no_such_method")
