#!/usr/bin/env python3
"""Reachability census of ``src/repro``: who reaches each function, and
which values each defaulted parameter is ever given.

    PYTHONPATH=src python benchmarks/census.py [--json FILE] [--logs DIR [--no-run]]

Every user of the package runs in its own processes under a
``sys.setprofile`` hook, and each function in ``src/repro`` is reported
as reached by

* ``user``      — a non-test user: the paper benchmarks (every marker,
  ``REPRO_SHARD_QUICK=1``), the examples, ``python -m repro info|demo|
  trace``, ``run NAME --json`` for every ``run --list`` name plus CI's
  other ``run`` invocations, and the EXPERIMENTS.md report;
* ``perfbench`` — perfbench alone: its tests and one traced quick run
  per ``BENCHMARK.json`` workload;
* ``tests``     — tier-1 and ``tests/difftest -m difftest`` alone;
* ``nothing``   — no run.  A name that a file under ``tests/``,
  ``benchmarks/``, ``examples/``, ``perfbench/`` or ``docs/`` still
  spells is reported ``named by`` that file instead, because code run by
  a ``python -c`` child that set its own ``PYTHONPATH`` (and so dropped
  the hook) is visible no other way.  A spelling does not count when a
  reached function, or a builtin type, has the same name: ``ctx.rng()``
  names the live ``SegmentContext.rng``, not a dead ``World.rng``.

For each parameter whose default is a simple value — None, a bool,
number, string or bytes, or an enum member — it reports the values the
calls carried: simple values by ``repr``, enum members by name, anything
else by type.  A parameter whose default is an object (or a container)
is left out, since every ``LinkSpec`` would print alike.

Everything that no user reaches, and every parameter that only ever
holds its default, must match an entry of :data:`OWNERS` — the document,
CI step, oracle or ROADMAP item that keeps it.  What matches none is
listed as **unowned**.  The census is a report, not a gate: it exits 0
whatever it finds, and non-zero only when it could not run.

How the hook gets everywhere: a generated ``sitecustomize.py`` on
``PYTHONPATH`` loads this file in every Python process the commands
start and calls :func:`install`.  Records are written on first sighting
and flushed, one log per process id, so forked shard workers and
processes that leave through ``os._exit`` lose nothing.  A test that
swaps in its own profile hook must put the previous one back.
"""

from __future__ import annotations

import enum
import json
import os
import sys
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

GROUPS = ("user", "perfbench", "tests")
STATIC_DIRS = ("benchmarks", "examples", "docs", "perfbench", "tests")
"""Searched in this order; the first file that names a function is the
one reported."""

_EXTENDED = ("LanguageLevel.EXTENDED and ShortCircuitMode.NO_PUSH: README, "
             "The section 7 extensions, implemented; docs/LANGUAGE.md")
_WIRE = "ROADMAP item 4(a); docs/LANGUAGE.md, Wire encoding"
_SHARDS = "ROADMAP item 2: the process-shard runtime awaits its verdict"
_SAFETY = "docs/SIMULATOR.md, Processes: failure semantics"
_DEVICES = "docs/SIMULATOR.md, Devices: the DeviceHandle interface"
_SYSCALLS = "docs/SIMULATOR.md, Processes and Recipes: signals, pipes, share_fd"
_SAMPLER = "docs/OBSERVABILITY.md, The sampler: reading series, the pool gauges"
_SPANS = "docs/OBSERVABILITY.md, Per-packet spans: the span property test, FLUSH"
_PROFILE = "docs/OBSERVABILITY.md, The profile: ledger=True soaks, format_costs"
_TRACE = "docs/OBSERVABILITY.md, Trace export"
_FAULTS = "docs/OBSERVABILITY.md, Topology chaos: the --faults grammar"
_IR = "docs/PERFORMANCE.md, The filter compiler: pf.ir.* gauges, hoisted values"
_EMITTED = "ROADMAP item 7(b): the emitted source the mutation oracle edits"
_TREE = "oracle: the dispatch tree's own reading, checked against the linear scan"
_ACCESSORS = "ROADMAP item 8(d): an accessor only tests read"

# (fnmatch pattern over ``module.qualname``, or ``module.qualname(param)``
#  for a parameter; the owner that keeps it).  The first match wins, and a
#  module-wide pattern owns that module's parameters too.
OWNERS = (
    ("repro.difftest.*", "oracle: the difftest matrix (CI job difftest)"),
    ("repro.sim.shard.*", _SHARDS),
    ("repro.sim.orchestrator.*", _SHARDS),
    ("repro.sim.obsplane.*", _SHARDS),
    ("repro.core.library.*", "docs/LANGUAGE.md, Tooling map: canned predicates"),
    ("repro.core.extensions.*", _EXTENDED),
    ("repro.core.trace.trace_evaluation(*)", _EXTENDED),
    ("repro.core.instructions.Instruction.is_indirect", _EXTENDED),
    ("repro.core.ir.ValueGraph.indirect", _EXTENDED),
    ("repro.core.words.get_byte", _EXTENDED),
    ("repro.core.compiler.*", "docs/LANGUAGE.md, Tooling map: the compiler"),
    ("repro.core.program.FilterProgram.encode", _WIRE),
    ("repro.core.program.FilterProgram.decode", _WIRE),
    ("repro.core.instructions.*_instruction_word", _WIRE),
    ("repro.core.opt.cse_filter_set", "perfbench/tracer.py TARGETS, ROADMAP 1(b)"),
    ("repro.core.opt.DispatchTree.lookup", _TREE),
    ("repro.core.opt.NecessaryTest.matches", _TREE),
    ("repro.core.opt.necessary_equalities",
     "docs/LANGUAGE.md, Tooling map: the set-level analysis"),
    ("repro.core.opt.DispatchTree.depth",
     "perfbench: the core.irgen.dispatch_depth metric"),
    ("repro.core.demux.PacketFilterDemux.ir_stats", _IR),
    ("repro.core.device.ir_gauge*", _IR),
    ("repro.core.irgen._emit_chain.<locals>.hoist_operand", _IR),
    ("repro.core.irgen.*", _EMITTED),
    ("repro.core.port.Port.flush", _SPANS),
    ("repro.sim.ledger.PacketSpan.*", _SPANS),
    ("repro.sim.ledger.Ledger.open_spans", _SPANS),
    ("repro.sim.telemetry.Telemetry.series", _SAMPLER),
    ("repro.sim.overload.BufferPool.in_use", _SAMPLER),
    ("repro.sim.overload.BufferPool.available", _SAMPLER),
    ("repro.bench.scenarios._*_report", _PROFILE),
    ("repro.apps.monitor.NetworkMonitor.format_costs", _PROFILE),
    ("repro.bench.traceout.build_trace*", _TRACE),
    ("repro.bench.traceout.write_trace", _TRACE),
    ("repro.net.medium.ChaosConfig.expected_loss_rate",
     "docs/SIMULATOR.md, Chaos injection"),
    ("repro.sim.faults.schedule_fingerprint",
     "oracle: fault schedules compared across processes"),
    ("repro.sim.faults.*", _FAULTS),
    ("repro.sim.seeds.derive_rng", _FAULTS),
    ("repro.bench.scenarios.run_partition_storm(duration)",
     "tests/difftest/test_chaos_recovery.py: the hash-seed leg runs 0.8 "
     "in a python -c child the hook does not see"),
    ("repro.bench.topologies.*(seed)", "README, Install & run: run --seed"),
    ("repro.sim.topology.SegmentContext.address_of(station)",
     "ROADMAP item 1: perfbench/worlds.py passes it positionally"),
    ("repro.sim.kernel.SimKernel.post_signal", _SYSCALLS),
    ("repro.sim.kernel.SimKernel._sigwait", _SYSCALLS),
    ("repro.sim.kernel.SimKernel._make_pipe", _SYSCALLS),
    ("repro.sim.kernel.SimKernel.share_fd", _SYSCALLS),
    ("repro.sim.pipe.Pipe.close_write", _SYSCALLS),
    ("repro.sim.pipe._*", _SYSCALLS),
    ("repro.core.device.PacketFilterDevice._port_drop", _SAFETY),
    ("repro.core.interpreter._fault", _SAFETY),
    ("repro.kernelnet.sockets.BufferedSocketHandle._post_error", _SAFETY),
    ("repro.kernelnet.tcp.TCPSocketHandle._retransmit_fire", _SAFETY),
    ("repro.kernelnet.tcp.TCPSocketHandle._abort", _SAFETY),
    ("repro.kernelnet.vmtp.VMTPClientHandle._retry", _SAFETY),
    ("repro.kernelnet.vmtp.VMTPServerHandle.close", _SAFETY),
    ("repro.net.ethernet.LinkSpec._too_short", _SAFETY),
    ("repro.sim.kernel.Device*", _DEVICES),
    ("*Handle.poll_readable", _DEVICES),
    ("*Handle.ioctl", _DEVICES),
    ("*.__*__", "ROADMAP, Settled (census owners): protocol methods, reprs"),
    ("repro.core.demux.PacketFilterDemux.attached_ports", _ACCESSORS),
    ("repro.core.flowcache.FlowCache.slot", _ACCESSORS),
    ("repro.core.instructions.Instruction.pushes", _ACCESSORS),
    ("repro.core.instructions.Instruction.pops", _ACCESSORS),
    ("repro.core.paper_filters.pup_socket_filter", _ACCESSORS),
    ("repro.core.port.ReadTimeoutPolicy.immediate", _ACCESSORS),
    ("repro.core.port.PortStats.packets_per_read", _ACCESSORS),
    ("repro.core.port.Port.priority", _ACCESSORS),
    ("repro.core.program.FilterProgram.words_examined", _ACCESSORS),
    ("repro.core.program.FilterProgram.uses_short_circuit", _ACCESSORS),
    ("repro.core.program.FilterProgram.with_priority", _ACCESSORS),
    ("repro.core.words.word_count", _ACCESSORS),
    ("repro.core.words.get_long", _ACCESSORS),
    ("repro.core.words.words_of", _ACCESSORS),
)


# ---------------------------------------------------------------------------
# the hook: runs inside every process under census
# ---------------------------------------------------------------------------

_SIMPLE = (type(None), bool, int, float, str, bytes)


def fingerprint(value) -> str:
    """A value's identity for the census: ``repr`` for a simple value (a
    checksum when long), the name for an enum member, the type for
    anything else."""
    kind = type(value)
    if kind in _SIMPLE:
        text = repr(value)
        if len(text) > 64:
            text = f"{kind.__name__}[{len(value)}]#{zlib.crc32(text.encode()):08x}"
        return text
    if isinstance(value, enum.Enum):
        return f"{kind.__name__}.{value.name}"
    return f"<{kind.__qualname__}>"


def is_simple(value) -> bool:
    return not fingerprint(value).startswith("<")


def install(out_dir: str, package: str, table_path: str) -> None:
    """Install the census hook in this process (and its future threads).

    ``table_path`` is the JSON list of ``[file, firstlineno, name,
    [param, ...]]`` whose simple-default parameters are fingerprinted.
    """
    import threading

    with open(table_path) as handle:
        table = {
            (rel, line, name): tuple(params)
            for rel, line, name, params in json.load(handle)
        }
    prefix = package + os.sep
    seen: dict = {}         # code -> params still fingerprinted (None: not ours)
    values: dict = {}       # (code, param) -> fingerprints written so far
    where: dict = {}        # code -> (rel, line, name)
    sink = {"pid": None, "file": None}

    def write(line: str) -> None:
        pid = os.getpid()
        if sink["pid"] != pid:  # first record of this process, or of a fork
            sink["pid"] = pid
            sink["file"] = open(
                os.path.join(out_dir, f"{pid}.log"), "a", encoding="utf-8"
            )
        sink["file"].write(line)
        sink["file"].flush()

    def first_sighting(code):
        path = os.path.abspath(code.co_filename)
        if not path.startswith(prefix):
            seen[code] = None
            return None
        key = (os.path.relpath(path, package), code.co_firstlineno, code.co_name)
        where[code] = key
        write("F\t%s\t%d\t%s\n" % key)
        params = seen[code] = table.get(key, ())
        return params

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        try:
            params = seen[code]
        except KeyError:
            params = first_sighting(code)
        if not params:
            return
        local = frame.f_locals
        for param in params:
            if param not in local:
                continue
            mark = fingerprint(local[param])
            known = values.setdefault((code, param), set())
            if mark in known:
                continue
            known.add(mark)
            write("A\t%s\t%d\t%s\t%s\t%s\n" % (*where[code], param, mark))
            if len(known) > 1:  # more than one value: no longer a suspect
                seen[code] = tuple(p for p in seen[code] if p != param)

    sys.setprofile(hook)
    threading.setprofile(hook)


# ---------------------------------------------------------------------------
# the census: inventory, runs, verdicts
# ---------------------------------------------------------------------------


def inventory() -> list[dict]:
    """Every ``def`` under ``src/repro``, with its defaulted parameters."""
    import ast

    functions = []
    for folder, _, files in sorted(os.walk(PACKAGE)):
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(folder, filename)
            rel = os.path.relpath(path, PACKAGE)
            module = "repro." + rel[:-3].replace(os.sep, ".")
            module = module.removesuffix(".__init__")
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            _collect(tree, module, rel, [], False, functions)
    return functions


def _collect(node, module, rel, scope, in_class, out) -> None:
    import ast

    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            _collect(child, module, rel, [*scope, child.name], True, out)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            positional = [*args.posonlyargs, *args.args]
            defaults = list(zip(positional[len(positional) - len(args.defaults):],
                                args.defaults))
            defaults += [
                (arg, default)
                for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
            first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
            out.append({
                "module": module,
                "file": rel,
                "line": first,
                "def_line": child.lineno,
                "name": child.name,
                "qualname": ".".join([*scope, child.name]),
                "method": in_class,
                "defaults": [(arg.arg, ast.unparse(expr)) for arg, expr in defaults],
            })
            _collect(child, module, rel, [*scope, child.name, "<locals>"], False, out)
        else:
            _collect(child, module, rel, scope, in_class, out)


def simple_defaults(functions: list[dict]) -> None:
    """Evaluate each default in its module; keep the simple ones as
    ``function["simple"] = {param: fingerprint}``."""
    import importlib

    for function in functions:
        function["simple"] = {}
        if not function["defaults"]:
            continue
        namespace = vars(importlib.import_module(function["module"]))
        for param, source in function["defaults"]:
            try:
                value = eval(source, dict(namespace))
            except Exception:
                continue  # refers to an enclosing or class scope: not simple
            if is_simple(value):
                function["simple"][param] = fingerprint(value)


def commands(python: str) -> dict[str, list[list[str]]]:
    """The command lines of each group, in run order."""
    from repro.bench.topologies import TOPOLOGIES

    def repro(*args):
        return [python, "-m", "repro", *args]

    def pytest(*args):
        return [python, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args]

    examples = sorted(
        name for name in os.listdir(os.path.join(ROOT, "examples"))
        if name.endswith(".py")
    )
    storm = ("flow_storm", "--shards", "2", "--segments", "4", "--duration", "0.2")
    validate = (
        "import json, sys; from repro.bench.traceout import validate_trace; "
        "problems = validate_trace(json.load(open(sys.argv[1]))); "
        "assert not problems, problems"
    )
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        workloads = [w["name"] for w in json.load(handle)["workloads"]]
    return {
        "user": [
            pytest(os.path.join(ROOT, "benchmarks"), "--benchmark-disable"),
            *([python, os.path.join(ROOT, "examples", name)] for name in examples),
            repro("info"), repro("demo"), repro("trace"),
            *(repro("run", name, "--json") for name in TOPOLOGIES),
            repro("run", "overload-polling", "--profile"),
            repro("run", "overload-polling", "--trace", "trace.json"),
            [python, "-c", validate, "trace.json"],
            repro("run", *storm, "--json"),
            repro("run", *storm, "--profile", "--json"),
            repro("run", *storm, "--trace", "stitched_trace.json"),
            [python, "-c", validate, "stitched_trace.json"],
            repro("run", "partition_storm", "--shards", "2", "--top", "--plain"),
            repro("run", "partition_storm", "--shards", "2", "--faults",
                  "down:lan0~lan1:0.2:0.55", "--json"),
            [python, "-m", "repro.bench.report"],
        ],
        "perfbench": [
            pytest(os.path.join(ROOT, "perfbench", "tests")),
            *([python, os.path.join(ROOT, "perfbench", "run.py"), "--workload", name,
               "--scale", "quick", "--seconds", "1", "--trace", "1"]
              for name in workloads),
        ],
        "tests": [
            pytest(os.path.join(ROOT, "tests")),
            pytest(os.path.join(ROOT, "tests", "difftest"), "-m", "difftest"),
        ],
    }


def run_groups(logs: str, functions: list[dict]) -> list[dict]:
    """Run every command under the hook; returns one record per command."""
    import subprocess
    import time

    table_path = os.path.join(logs, "table.json")
    with open(table_path, "w") as handle:
        json.dump([
            [f["file"], f["line"], f["name"], sorted(f["simple"])]
            for f in functions if f["simple"]
        ], handle)
    boot = os.path.join(logs, "boot")
    os.makedirs(boot, exist_ok=True)
    workdir = os.path.join(logs, "work")
    os.makedirs(workdir, exist_ok=True)
    runs = []
    for group, lines in commands(sys.executable).items():
        out_dir = os.path.join(logs, group)
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(boot, "sitecustomize.py"), "w") as handle:
            handle.write(
                "import importlib.util\n"
                "_spec = importlib.util.spec_from_file_location(\n"
                f"    '_repro_census', {os.path.abspath(__file__)!r})\n"
                "_census = importlib.util.module_from_spec(_spec)\n"
                "_spec.loader.exec_module(_census)\n"
                f"_census.install({out_dir!r}, {PACKAGE!r}, {table_path!r})\n"
            )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([boot, SRC]),
                   REPRO_SHARD_QUICK="1")
        # the tests expect the checkout as their working directory; the
        # user commands write bench_results.json, EXPERIMENTS.md and
        # traces into theirs
        cwd = workdir if group == "user" else ROOT
        for line in lines:
            started = time.monotonic()
            with open(os.path.join(logs, f"{group}.out"), "a") as output:
                output.write(f"\n$ {' '.join(line)}\n")
                output.flush()
                code = subprocess.run(
                    line, cwd=cwd, env=env, stdout=output,
                    stderr=subprocess.STDOUT,
                ).returncode
            seconds = time.monotonic() - started
            runs.append({"group": group, "command": " ".join(line[1:]),
                         "returncode": code, "seconds": round(seconds, 1)})
            print(f"  {group:9} {seconds:7.1f}s  exit {code}  "
                  f"{' '.join(line[1:])[:90]}", file=sys.stderr)
    return runs


def read_logs(logs: str) -> tuple[dict, dict]:
    """``reached[key] = {group, ...}`` and ``passed[(key, param)] =
    {group: {fingerprint, ...}}`` from every process log."""
    reached: dict = {}
    passed: dict = {}
    for group in GROUPS:
        folder = os.path.join(logs, group)
        if not os.path.isdir(folder):
            continue
        for filename in os.listdir(folder):
            with open(os.path.join(folder, filename), encoding="utf-8") as handle:
                for record in handle:
                    fields = record.rstrip("\n").split("\t")
                    if len(fields) < 4:
                        continue  # a process killed mid-write
                    key = (fields[1], int(fields[2]), fields[3])
                    reached.setdefault(key, set()).add(group)
                    if fields[0] == "A" and len(fields) == 6:
                        marks = passed.setdefault((key, fields[4]), {})
                        marks.setdefault(group, set()).add(fields[5])
    return reached, passed


def static_names(functions: list[dict], reached: dict) -> dict:
    """``{function index: file}`` for unreached functions a file spells."""
    import re

    explained = {key[2] for key in reached}
    for kind in (list, dict, set, str, bytes, int, float, tuple, object):
        explained.update(dir(kind))
    corpus = []
    for top in STATIC_DIRS:
        for folder, _, files in sorted(os.walk(os.path.join(ROOT, top))):
            for filename in sorted(files):
                path = os.path.join(folder, filename)
                if path == os.path.abspath(__file__):
                    continue
                if not filename.endswith((".py", ".md")):
                    continue
                with open(path, encoding="utf-8") as handle:
                    corpus.append((os.path.relpath(path, ROOT), handle.read()))
    named = {}
    for index, function in enumerate(functions):
        key = (function["file"], function["line"], function["name"])
        if key in reached or function["name"] in explained:
            continue
        name = re.escape(function["name"])
        lead = r"\." if function["method"] else r"\b"
        code = re.compile(lead + name + r"\b(?![\"'}])")  # not a gauge-name string
        prose = re.compile(lead + name + r"\(")
        for path, text in corpus:
            if (prose if path.endswith(".md") else code).search(text):
                named[index] = path
                break
    return named


def owner_of(name: str) -> str | None:
    from fnmatch import fnmatchcase

    for pattern, owner in OWNERS:
        if fnmatchcase(name, pattern):
            return owner
    return None


def verdicts(functions: list[dict], reached: dict, passed: dict) -> dict:
    named = static_names(functions, reached)
    rows, params = [], []
    for index, function in enumerate(functions):
        key = (function["file"], function["line"], function["name"])
        full = f"{function['module']}.{function['qualname']}"
        groups = reached.get(key, set())
        reach = next((g for g in GROUPS if g in groups), "nothing")
        row = {"function": full, "file": function["file"],
               "line": function["def_line"], "reach": reach}
        if index in named:
            row["named_by"] = named[index]
        if reach != "user" and not row.get("named_by", "").startswith(
                ("benchmarks", "examples", "docs")):
            row["owner"] = owner_of(full)
        rows.append(row)
        if not groups:
            continue
        for param, default in sorted(function["simple"].items()):
            marks = passed.get((key, param), {})
            used = set().union(*marks.values()) if marks else set()
            if used != {default}:
                continue
            name = f"{full}({param})"
            params.append({"parameter": name, "default": default,
                           "by": sorted(marks), "owner": owner_of(name)})
    return {"functions": rows, "parameters": params}


def summary(functions: list[dict], result: dict) -> dict:
    rows = result["functions"]
    count = {reach: sum(r["reach"] == reach for r in rows)
             for reach in (*GROUPS, "nothing")}
    return {
        "functions": len(rows),
        **{f"reached_by_{reach}": n for reach, n in count.items()},
        "named_only": sum("named_by" in r for r in rows),
        "parameters_with_default": sum(len(f["defaults"]) for f in functions),
        "simple_defaults": sum(len(f["simple"]) for f in functions),
        "one_value_parameters": len(result["parameters"]),
        "unowned_functions": sum("owner" in r and r["owner"] is None for r in rows),
        "unowned_parameters": sum(p["owner"] is None for p in result["parameters"]),
    }


def render(report: dict) -> str:
    s = report["summary"]
    lines = [
        f"functions {s['functions']}: user {s['reached_by_user']}, "
        f"perfbench only {s['reached_by_perfbench']}, tests only "
        f"{s['reached_by_tests']}, nothing {s['reached_by_nothing']} "
        f"({s['named_only']} of them named)",
        f"parameters with a default {s['parameters_with_default']}: simple "
        f"{s['simple_defaults']}, one value in use {s['one_value_parameters']}",
        f"unowned: {s['unowned_functions']} functions, "
        f"{s['unowned_parameters']} parameters",
    ]
    failed = [r for r in report["runs"] if r["returncode"] != 0]
    for run in failed:
        lines.append(f"note: exit {run['returncode']} from {run['command']}")
    unowned = [r for r in report["functions"] if "owner" in r and r["owner"] is None]
    if unowned:
        lines.append("\nunowned functions:")
        for row in unowned:
            named = f"  named by {row['named_by']}" if "named_by" in row else ""
            lines.append(f"  {row['reach']:9} {row['function']}  "
                         f"({row['file']}:{row['line']}){named}")
    unowned = [p for p in report["parameters"] if p["owner"] is None]
    if unowned:
        lines.append("\nunowned one-value parameters:")
        for row in unowned:
            lines.append(f"  {row['parameter']} = {row['default']}")
    owners: dict = {}
    for row in report["functions"] + report["parameters"]:
        if row.get("owner"):
            owners[row["owner"]] = owners.get(row["owner"], 0) + 1
    if owners:
        lines.append("\nowned:")
        for owner, n in sorted(owners.items(), key=lambda item: -item[1]):
            lines.append(f"  {n:4}  {owner}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    import argparse
    import shutil
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json", metavar="FILE", help="also write the report as JSON"
    )
    parser.add_argument(
        "--logs", metavar="DIR",
        help="keep the per-process logs here (default: a temporary directory)",
    )
    parser.add_argument("--no-run", action="store_true",
                        help="report from the logs already in --logs")
    args = parser.parse_args(argv)
    if args.no_run and not args.logs:
        parser.error("--no-run needs --logs")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    functions = inventory()
    simple_defaults(functions)
    logs = args.logs or tempfile.mkdtemp(prefix="census-")
    try:
        if args.no_run:
            with open(os.path.join(logs, "runs.json")) as handle:
                runs = json.load(handle)
        else:
            os.makedirs(logs, exist_ok=True)
            runs = run_groups(logs, functions)
            with open(os.path.join(logs, "runs.json"), "w") as handle:
                json.dump(runs, handle, indent=1)
        reached, passed = read_logs(logs)
    finally:
        if not args.logs:
            shutil.rmtree(logs, ignore_errors=True)
    report = verdicts(functions, reached, passed)
    report["summary"] = summary(functions, report)
    report["runs"] = runs
    print(render(report))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
