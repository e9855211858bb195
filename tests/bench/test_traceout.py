"""The Chrome trace-event / Perfetto exporter and its schema check."""

import json

import pytest

from dataclasses import replace

from repro.bench.topologies import TOPOLOGIES, flow_storm_topology
from repro.bench.traceout import (
    build_topology_trace,
    validate_trace,
    write_topology_trace,
)
from repro.sim.orchestrator import run_topology


@pytest.fixture(scope="module")
def overload_trace():
    """One interrupt-mode overload storm (``run overload-interrupt``),
    exported once for the module — the run where every event kind
    (slices, spans, counters, alert instants) must appear."""
    result = run_topology(TOPOLOGIES["overload-interrupt"]())
    return result, build_topology_trace(result)


def by_phase(doc):
    out = {}
    for event in doc["traceEvents"]:
        out.setdefault(event["ph"], []).append(event)
    return out


class TestBuildTrace:
    def test_schema_valid(self, overload_trace):
        _, doc = overload_trace
        assert validate_trace(doc) == []

    def test_every_event_kind_present(self, overload_trace):
        _, doc = overload_trace
        phases = by_phase(doc)
        assert phases.get("X"), "no charge slices"
        assert phases.get("b") and phases.get("e"), "no packet spans"
        assert phases.get("C"), "no counter series"
        assert phases.get("i"), "no alert instants"
        assert phases.get("M"), "no process/thread metadata"

    def test_alert_instants_include_the_livelock(self, overload_trace):
        result, doc = overload_trace
        names = {e["name"] for e in by_phase(doc)["i"]}
        assert "ALERT receive_livelock" in names
        # and the alert's timestamp round-trips the telemetry record
        [alert] = [
            a for a in result.telemetry.alerts if a.rule == "receive_livelock"
        ]
        [instant] = [
            e for e in by_phase(doc)["i"]
            if e["name"] == "ALERT receive_livelock"
        ]
        assert instant["ts"] == pytest.approx(alert.fired_at * 1e6)

    def test_spans_are_balanced_and_carry_outcomes(self, overload_trace):
        _, doc = overload_trace
        phases = by_phase(doc)
        begins = {e["id"] for e in phases["b"]}
        ends = {e["id"] for e in phases["e"]}
        assert begins == ends
        outcomes = {e["args"]["outcome"] for e in phases["e"]}
        assert "delivered" in outcomes
        assert "dropped_overflow" in outcomes   # it was a livelock run

    def test_hosts_become_named_processes(self, overload_trace):
        _, doc = overload_trace
        process_names = {
            e["args"]["name"]
            for e in by_phase(doc)["M"]
            if e["name"] == "process_name"
        }
        assert "host:lan0:receiver" in process_names
        thread_names = {
            e["args"]["name"]
            for e in by_phase(doc)["M"]
            if e["name"] == "thread_name"
        }
        assert "nic" in thread_names

    def test_counter_values_match_series(self, overload_trace):
        result, doc = overload_trace
        series = result.telemetry.series[("lan0:receiver", "pf.delivered")]
        [receiver_pid] = [
            e["pid"]
            for e in by_phase(doc)["M"]
            if e["name"] == "process_name"
            and e["args"]["name"] == "host:lan0:receiver"
        ]
        counters = [
            e for e in by_phase(doc)["C"]
            if e["name"] == "pf.delivered" and e["pid"] == receiver_pid
        ]
        assert len(counters) == len(series)
        assert counters[-1]["args"]["value"] == series.latest()

    def test_ledgerless_world_still_exports_counters(self):
        spec = replace(TOPOLOGIES["receive"](), ledger=False)
        doc = build_topology_trace(run_topology(spec))
        assert validate_trace(doc) == []
        phases = by_phase(doc)
        assert phases.get("C")
        assert "X" not in phases


class TestWriteTrace:
    def test_round_trips_as_json(self, overload_trace, tmp_path):
        result, _ = overload_trace
        path = tmp_path / "trace.json"
        doc = write_topology_trace(result, path)
        loaded = json.loads(path.read_text())
        assert loaded == doc
        assert validate_trace(loaded) == []
        assert loaded["otherData"]["shards"] == 1


STORM = dict(segments=2, seed=0, duration=0.1, flows=64, cache_size=16)


def stitched(shards=2, **overrides):
    spec = flow_storm_topology(**{**STORM, **overrides})
    return build_topology_trace(run_topology(spec, shards=shards))


@pytest.fixture(scope="module")
def storm_trace():
    """One stitched 2-shard flow storm, exported once for the module."""
    return stitched()


class TestBuildTopologyTrace:
    def test_schema_valid(self, storm_trace):
        assert validate_trace(storm_trace) == []

    def test_shards_become_process_tracks(self, storm_trace):
        names = {
            e["args"]["name"]
            for e in by_phase(storm_trace)["M"]
            if e["name"] == "process_name"
        }
        assert {"shard:0", "shard:1"} <= names
        # hosts still get their own tracks next to the shard ones
        assert any(name.startswith("host:") for name in names)

    def test_window_slices_cover_the_run(self, storm_trace):
        windows = [
            e for e in by_phase(storm_trace)["X"] if e.get("cat") == "sync"
        ]
        assert windows
        per_shard = {}
        for event in windows:
            per_shard.setdefault(event["pid"], []).append(event)
        assert len(per_shard) == 2
        for slices in per_shard.values():
            assert slices[0]["ts"] == 0.0
            # consecutive windows tile the timeline
            for prev, cur in zip(slices, slices[1:]):
                assert cur["ts"] == pytest.approx(prev["ts"] + prev["dur"])

    def test_flow_events_pair_across_shards(self, storm_trace):
        phases = by_phase(storm_trace)
        starts = {e["id"]: e for e in phases["s"]}
        ends = {e["id"]: e for e in phases["f"]}
        assert starts and set(starts) == set(ends)
        crossings = 0
        for flow_id, start in starts.items():
            end = ends[flow_id]
            assert end["ts"] >= start["ts"]     # capture before delivery
            assert end["bp"] == "e"
            link, _, seq = flow_id.rpartition("#")
            assert link and seq.isdigit()
            if start["pid"] != end["pid"]:
                crossings += 1
        assert crossings == len(starts)   # every hop joins two shards

    def test_egress_counters_present(self, storm_trace):
        counters = [
            e for e in by_phase(storm_trace)["C"]
            if e["name"] == "egress" and e.get("cat") == "sync"
        ]
        assert counters
        assert any(e["args"]["value"] > 0 for e in counters)

    def test_merged_spans_survive_stitching(self, storm_trace):
        phases = by_phase(storm_trace)
        assert {e["id"] for e in phases["b"]} == {
            e["id"] for e in phases["e"]
        }

    def test_export_is_byte_deterministic(self):
        """Same seed, same shard count -> byte-identical JSON, across
        runs and machines (simulated timestamps only)."""
        def render(doc):
            return json.dumps(doc, separators=(",", ":"))

        assert render(stitched()) == render(stitched())
        assert render(stitched(shards=1)) == render(stitched(shards=1))

    def test_payload_is_shard_count_invariant(self):
        """Track layout reflects the partitioning, but the simulation
        payload (spans, charges) must not."""
        def payload(doc):
            return [
                (e["ph"], e["name"], e["ts"], e.get("dur"), e.get("args"))
                for e in doc["traceEvents"]
                if e.get("cat") in ("charge", "packet")
            ]

        assert payload(stitched(shards=1)) == payload(stitched(shards=2))

    def test_write_round_trips(self, tmp_path):
        spec = flow_storm_topology(**STORM)
        result = run_topology(spec, shards=2)
        path = tmp_path / "stitched.json"
        doc = write_topology_trace(result, path)
        loaded = json.loads(path.read_text())
        assert loaded == doc
        assert validate_trace(loaded) == []
        assert loaded["otherData"]["shards"] == 2


class TestValidateTrace:
    def test_rejects_non_object(self):
        assert validate_trace([]) == ["document is not a JSON object"]

    def test_rejects_missing_event_list(self):
        assert validate_trace({}) == ["traceEvents is missing or not a list"]

    def test_flags_unknown_phase_and_missing_keys(self):
        doc = {"traceEvents": [
            {"ph": "Z", "name": "x", "pid": 1},
            {"ph": "X", "name": "x", "pid": 1, "ts": 0.0},       # no dur/tid
            {"ph": "C", "name": "c", "pid": 1, "ts": -1.0, "args": {}},
        ]}
        problems = validate_trace(doc)
        assert any("unknown phase" in p for p in problems)
        assert any("'dur'" in p for p in problems)
        assert any("bad ts" in p for p in problems)
        assert any("args.value" in p for p in problems)

    def test_flags_unnamed_pids(self):
        doc = {"traceEvents": [
            {"ph": "C", "name": "c", "pid": 9, "ts": 0.0,
             "args": {"value": 1}},
        ]}
        assert any(
            "no process_name" in p for p in validate_trace(doc)
        )

    def test_flags_unpaired_flow_events(self):
        named = {"name": "process_name", "ph": "M", "pid": 1,
                 "args": {"name": "shard:0"}}
        start = {"ph": "s", "name": "hop", "pid": 1, "tid": 1,
                 "ts": 0.0, "id": "link#1", "cat": "flow"}
        finish = {"ph": "f", "name": "hop", "pid": 1, "tid": 1,
                  "ts": 1.0, "id": "link#1", "cat": "flow", "bp": "e"}
        assert validate_trace({"traceEvents": [named, start, finish]}) == []
        assert any(
            "never finishes" in p
            for p in validate_trace({"traceEvents": [named, start]})
        )
        assert any(
            "never starts" in p
            for p in validate_trace({"traceEvents": [named, finish]})
        )
