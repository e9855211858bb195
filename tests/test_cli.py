"""Tests for the ``python -m repro`` front door."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import EXIT_BROKEN_PIPE, _build_run, build_parser, main
from repro.bench.summary import run_summary
from repro.bench.topologies import TOPOLOGIES, named_topology
from repro.bench.traceout import validate_trace
from repro.sim.orchestrator import run_topology

REPO = Path(__file__).resolve().parents[1]
OBSERVABILITY_MD = REPO / "docs" / "OBSERVABILITY.md"


def refuse_constant(name):
    raise ValueError(f"run --json printed {name}, which is not JSON")


def run_json(capsys, *argv):
    """``run ARGV --json``, parsed as strict JSON: an ``Infinity`` or
    ``NaN`` anywhere in the summary fails the caller."""
    assert main(["run", *argv, "--json"]) == 0
    return json.loads(capsys.readouterr().out, parse_constant=refuse_constant)


class TestCLI:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "SOSP 1987" in out
        assert "table-6-10" in out

    def test_default_is_info(self, capsys):
        assert main([]) == 0
        assert "reproduced experiments" in capsys.readouterr().out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        assert "it works" in capsys.readouterr().out

    def test_trace(self, capsys):
        assert main(["trace"]) == 0
        out = capsys.readouterr().out
        assert "ACCEPT" in out
        assert "short-circuit return" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["profile", "receive"],
            ["top", "flow_storm"],
            ["shard", "flow_storm"],
            ["chaos-topo", "partition_storm"],
            ["trace", "receive"],
            ["trace", "flow_storm", "-o", "x.json"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_deleted_verbs_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2

    def test_trace_scenario_exports_valid_json(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["run", "receive", "--trace", str(path)]) == 0
        assert "trace events" in capsys.readouterr().err
        doc = json.loads(path.read_text())
        assert validate_trace(doc) == []
        assert doc["otherData"]["generator"] == "repro.bench.traceout"
        assert "lan0:receiver" in doc["otherData"]["hosts"]

    def test_trace_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            main(["run", "nonsense", "--trace", "x.json"])

    def test_profile_renders_table(self, capsys):
        assert main(["run", "receive", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "charge profile: host 'lan0:receiver'" in out
        assert "watchdog alerts:" in out
        assert "sync protocol:" in out

    def test_profile_json_round_trips(self, capsys):
        report = run_json(capsys, "receive", "--profile")
        assert report["topology"] == "receive"
        assert report["reports"]["lan0"]["received"] == 40
        profile = report["profile"]["lan0:receiver"]
        assert profile["span_outcomes"].get("delivered", 0) > 0
        assert "p50" in profile["span_latency"]
        assert profile["telemetry_latest"]

    def test_profile_trace_flag_writes_file(self, tmp_path, capsys):
        path = tmp_path / "profiled.json"
        assert main(
            ["run", "receive", "--profile", "--trace", str(path)]
        ) == 0
        assert validate_trace(json.loads(path.read_text())) == []


TOPO_ARGS = ["--shards", "2", "--duration", "0.1", "--seed", "0"]


class TestObservabilityCLI:
    def test_profile_topology_reports_sync_breakdown(self, capsys):
        assert main(["run", "flow_storm", *TOPO_ARGS, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "charge profile: host 'lan1:receiver'" in out
        assert "sync protocol:" in out
        assert "window advance:" in out
        assert "lan0" in out and "lan1" in out

    def test_profile_topology_json_has_nonzero_waits(self, capsys):
        report = run_json(capsys, "flow_storm", *TOPO_ARGS, "--profile")
        assert report["topology"] == "flow_storm"
        assert report["shards"] == 2
        assert report["windows"] > 0
        sync = report["wall"]["sync"]
        assert len(sync["shards"]) == 2
        for shard in sync["shards"]:
            assert shard["grant_wait_seconds"] > 0.0
        assert sync["wall_per_window"] > 0.0
        assert report["span_latency"]["p50"] is not None
        # both halves at once: the ledger profile rides with the sync one
        assert report["profile"]["lan0:receiver"]["breakdown"]

    def test_top_plain_renders_dashboard(self, capsys):
        assert main(
            ["run", "flow_storm", *TOPO_ARGS, "--top", "--plain"]
        ) == 0
        captured = capsys.readouterr()
        assert "cluster: 2 shard(s)" in captured.out
        assert "state" not in captured.out and "restart" not in captured.out
        assert "flow_storm: 2 segment(s) on 2 shard(s)" in captured.out
        # --plain never emits ANSI, on either stream
        assert "\x1b" not in captured.out + captured.err

    def test_top_plain_streams_alerts(self, capsys):
        assert main([
            "run", "partition_storm", "--shards", "2", "--top", "--plain",
        ]) == 0
        captured = capsys.readouterr()
        assert "ALERT [partition:" in captured.err

    def test_trace_topology_exports_stitched_json(self, tmp_path, capsys):
        path = tmp_path / "stitched.json"
        assert main([
            "run", "flow_storm", *TOPO_ARGS, "--trace", str(path),
        ]) == 0
        doc = json.loads(path.read_text())
        assert validate_trace(doc) == []
        assert doc["otherData"]["shards"] == 2
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"s", "f"} <= phases

    def test_shard_trace_flag_writes_stitched_file(self, tmp_path, capsys):
        # The defect this pins: the old ``profile <topology>`` path
        # dropped ``--trace`` on the floor (exit 0, no file).
        path = tmp_path / "shard.json"
        assert main([
            "run", "flow_storm", *TOPO_ARGS,
            "--profile", "--json", "--trace", str(path),
        ]) == 0
        assert validate_trace(json.loads(path.read_text())) == []

    def test_shard_json_surfaces_observability_fields(self, capsys):
        summary = run_json(capsys, "flow_storm", *TOPO_ARGS)
        assert "restarts" not in summary
        # one wall-per-window answer, under wall.sync
        assert "wall_per_window" not in summary["wall"]
        assert summary["wall"]["sync"]["wall_per_window"] > 0.0
        assert [d["shard"] for d in summary["shard_details"]] == [0, 1]
        for detail in summary["shard_details"]:
            assert detail["events_fired"] > 0
            assert detail["null_grants"] > 0   # idle windows exist
            assert detail["egress_frames"] > 0   # bridges crossed
        assert "windows" not in summary["wall"]["sync"]
        assert summary["span_latency"]["p50"] is not None

    def test_faults_ride_the_sharded_summary(self, capsys):
        summary = run_json(
            capsys, "partition_storm", "--shards", "2", "--duration", "0.4",
            "--faults", "down:lan0~lan1:0.1:0.25",
        )
        assert summary["faults"] == [{
            "link_id": "lan0~lan1", "start": 0.1, "end": 0.25,
            "direction": "both",
        }]
        assert sum(
            wire["frames_dropped_link_down"] for wire in summary["wire"].values()
        ) > 0
        assert any(
            alert["rule"].startswith("partition:")
            for alert in summary["alerts"]
        )

    def test_span_latency_is_the_ledgers_percentiles(self):
        """One estimator: the top-level value is the merged ledger's
        nearest-rank percentiles, each host's its own share of them."""
        result = run_topology(named_topology("bsp-chaos"))
        summary = run_summary("bsp-chaos", result, profile=True)
        assert summary["span_latency"] == {
            f"p{round(p * 100)}": value
            for p, value in result.ledger.stage_percentiles().items()
        }
        for host, profile in summary["profile"].items():
            assert profile["span_latency"] == {
                f"p{round(p * 100)}": value
                for p, value in result.ledger.stage_percentiles(host=host).items()
            }


# The shortest run each name accepts: the fixed exchanges take no
# duration, a partition storm has to outlast its own outage.
SHORTEST = {
    "overload-interrupt": ["--duration", "0.05"],
    "overload-polling": ["--duration", "0.05"],
    "flow_storm": ["--duration", "0.05"],
    "partition_storm": ["--duration", "0.3"],
}


def outside(summary, *keys):
    return {key: value for key, value in summary.items() if key not in keys}


def schema_table() -> tuple[set, set]:
    """The key column of docs/OBSERVABILITY.md's ``run --json`` schema
    table: ``(top-level keys, profile.<host> keys)``."""
    text = OBSERVABILITY_MD.read_text()
    section = text.split("### The `run --json` schema", 1)[1]
    top, per_host = set(), set()
    for line in section.splitlines():
        if not line.startswith("| `"):
            if top:
                break   # past the table
            continue
        for key in re.findall(r"`([^`]+)`", line.split("|")[1]):
            key = key.removesuffix("[]")
            if key.startswith("profile.<host>."):
                per_host.add(key.removeprefix("profile.<host>."))
            else:
                top.add(key)
    return top, per_host


class TestFrontDoorOracle:
    """``run`` is one path: what holds for one name holds for all."""

    def test_list_names_the_registry(self, capsys):
        assert main(["run", "--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == list(TOPOLOGIES)

    def test_every_name_yields_the_same_keys(self, capsys):
        """... and exactly the keys the schema table lists: ``--top``
        adds none, ``--profile`` adds ``profile``."""
        top, per_host = schema_table()
        assert len(TOPOLOGIES) == 9
        for name in TOPOLOGIES:
            argv = [name, *SHORTEST.get(name, ())]
            plain = run_json(capsys, *argv)
            assert set(plain) == top - {"profile"}, name
            watched = run_json(capsys, *argv, "--profile", "--top", "--plain")
            assert set(watched) == top, name
            for host, profile in watched["profile"].items():
                assert set(profile) == per_host, (name, host)

    def test_wall_holds_only_wall_clock(self, capsys):
        """``wall`` is the run's wall-clock time and nothing else: every
        count it once repeated is in ``windows`` or ``shard_details``."""
        summary = run_json(capsys, "flow_storm", *TOPO_ARGS, "--profile")
        wall = summary["wall"]
        assert set(wall) == {"wall_seconds", "sync"}
        assert set(wall["sync"]) == {
            "wall_per_window", "window_advance", "shards",
        }
        assert len(wall["sync"]["shards"]) == len(summary["shard_details"]) == 2
        for shard in wall["sync"]["shards"]:
            assert set(shard) == {"grant_wait_seconds", "grant_wait"}
        for block in (
            wall["sync"]["window_advance"],
            *(shard["grant_wait"] for shard in wall["sync"]["shards"]),
        ):
            assert set(block) == {"p50", "p95", "p99"}
        assert json.dumps(summary).count('"windows"') == 1

    def test_shard_count_changes_only_the_shard_keys(self, capsys):
        argv = ["flow_storm", "--segments", "4", "--duration", "0.1"]
        one = run_json(capsys, *argv, "--shards", "1")
        two = run_json(capsys, *argv, "--shards", "2")
        assert (one["shards"], two["shards"]) == (1, 2)
        volatile = ("wall", "shards", "shard_details")
        assert outside(one, *volatile) == outside(two, *volatile)

    def test_profile_json_repeats_byte_for_byte(self, capsys):
        first, second = (
            json.dumps(outside(run_json(capsys, "receive", "--profile"), "wall"))
            for _ in range(2)
        )
        assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        # the five that used to die with a traceback or run nothing
        ["flow_storm", "--segments", "0"],
        ["flow_storm", "--shards", "0"],
        ["partition_storm", "--shards", "2", "--recover",
         "--checkpoint-interval", "-1"],
        ["partition_storm", "--segments", "1"],
        ["flow_storm", "--duration", "nan"],
        # and their neighbours
        ["flow_storm", "--shards", "2", "--timeout", "inf"],
        ["flow_storm", "--faults", "sideways:lan0~lan1"],
        ["flow_storm", "--faults", "down:lan7~lan8:0.1:0.2"],
        # fault times that are not finite: a flap that never ends, a
        # dwell that divides by zero, an end that is not JSON
        ["partition_storm", "--faults", "flap:lan0~lan1:0:inf:0.05:0.1"],
        ["partition_storm", "--faults", "flap:lan0~lan1:0:1:inf:0.1"],
        ["partition_storm", "--faults", "down:lan0~lan1:0:inf"],
        ["partition_storm", "--faults", "down:lan0~lan1:0:1e400"],
        # a flap that expects 50 000 outages
        ["partition_storm", "--faults", "flap:lan0~lan1:0:1:1e-5:1e-5"],
        # flags the named topology cannot honour are not ignored either
        ["receive", "--segments", "3"],
        ["receive", "--duration", "1.0"],
        ["receive", "--faults", "down:lan0~lan1:0.1:0.2"],
        ["flow_storm", "--timeout", "30"],
        # a deleted flag is refused like any other unknown one
        ["flow_storm", "--checkpoint-interval", "4"],
        ["receive", "--shards", "2", "--recover"],
        ["flow_storm", "--top", "--refresh", "0"],
        ["flow_storm", "--plain"],
        [],
    ],
    ids=" ".join,
)
def test_hostile_run_arguments_are_usage_errors(argv, capsys):
    assert main(["run", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""   # nothing ran
    assert "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1, captured.err
    assert captured.err.startswith("python -m repro run: error: ")


def test_run_survives_a_closed_pipe():
    """``run NAME --json --profile | head``: the reader leaves before the
    summary is written, and the run exits with one documented status and
    no traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)   # a reader that left before the first byte
    src = str(Path(__file__).resolve().parents[1] / "src")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "repro", "run", "receive", "--json",
             "--profile"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == EXIT_BROKEN_PIPE
    assert done.stderr == ""


RUN = "python -m repro run"
#: A synopsis token: ``NAME``, ``N``, ``[--shards``, ``<topology>``, ``...``.
PLACEHOLDER = re.compile(r"[A-Z]+\]*|[\[<].*|\.\.\.|…")


def doc_run_commands() -> list:
    """Every ``python -m repro run`` command README.md, DESIGN.md and
    ``docs/*.md`` show — a line of a fenced block (with its indented
    continuation lines) or an inline code span — as ``(FILE:LINE,
    argv after run)``."""
    found = []
    docs = [REPO / "README.md", REPO / "DESIGN.md", *sorted(REPO.glob("docs/*.md"))]
    for path in docs:
        text = path.read_text()
        fenced, command = False, None
        for number, line in enumerate(text.splitlines(), 1):
            if line.lstrip().startswith("```"):
                fenced, command = not fenced, None
            elif fenced and line.startswith(RUN):
                command = [f"{path.name}:{number}", line]
                found.append(command)
            elif fenced and command is not None and line.startswith(" "):
                command[1] += " " + line
            else:
                command = None
        for match in re.finditer(f"`({RUN}[^`]*)`", text):
            number = text.count("\n", 0, match.start()) + 1
            found.append([f"{path.name}:{number}", match.group(1)])
    return [(where, shlex.split(line, comments=True)[4:]) for where, line in found]


def doc_run_command_fault(argv: list) -> str | None:
    """Why the front door would refuse ``run ARGV``, or None.  The real
    parser and ``_build_run`` judge it (nothing runs); a synopsis line,
    with placeholders, may only name flags that exist."""
    if any(PLACEHOLDER.fullmatch(token) for token in argv):
        (verbs,) = (
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        known = set(verbs.choices["run"]._option_string_actions)
        flags = {
            token.strip("[]") for token in argv if token.lstrip("[").startswith("-")
        }
        return f"unknown flags {sorted(flags - known)}" if flags - known else None
    try:
        args, unknown = build_parser().parse_known_args(["run", *argv])
        if unknown:
            return f"unrecognized arguments {unknown}"
        if not args.list:
            _build_run(args)
    except (SystemExit, ValueError) as error:
        return f"refused: {error}"
    return None


def test_doc_run_commands_parse():
    """Each ``python -m repro run`` command the docs show is one the
    front door accepts."""
    commands = doc_run_commands()
    assert len(commands) > 20
    faults = [
        f"{where}: run {' '.join(argv)}: {fault}"
        for where, argv in commands
        if (fault := doc_run_command_fault(argv)) is not None
    ]
    assert faults == []
