#!/usr/bin/env python3
"""Reachability census of ``src/repro``: who reaches each function,
which values each defaulted parameter is ever given, and which stored
attributes nothing reads.

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
is left out, since every ``LinkSpec`` would print alike.  A dataclass
field with a simple default is a parameter of its class, named
``module.Class(field)``: its generated ``__init__`` has no source line
in the package, so the hook keys each construction by the instance's
class instead.

A static view needs no run: every attribute the package stores (``x.a =
...``, ``x.a += ...``, a class-body field) that no module under ``src``,
``tests``, ``benchmarks``, ``perfbench`` or ``examples`` reads
(:func:`unread_state`).  A store on ``self`` is its class's: a read on
``self`` in an unrelated class does not count for it.  Writing is not
reading: ``x.a[k] = ...`` and ``x.a.append(...)`` (``extend``, ``add``,
``update``) leave ``a`` unread.

Everything that no user reaches, every parameter or field that only
ever holds its default, every one that a non-test run (``user``,
``perfbench``) leaves at its default while only tests set another value,
and every attribute stored and never read, must match an entry of
:data:`OWNERS` — the document, CI step, oracle or
ROADMAP item that keeps it.  What matches none is listed as
**unowned**.  The census is a report, not a gate: it exits 0 whatever it
finds, and non-zero only when it could not run.

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
_MODES = ("paper-mode enums: LanguageLevel and ShortCircuitMode select the "
          "section 7 language and short-circuit variants (docs/LANGUAGE.md)")
_WIRE = "ROADMAP item 5(a); docs/LANGUAGE.md, Wire encoding"
_CODECS = ("wire-codec fields: tests/protocols/test_codecs.py round-trips "
           "every header field")
_SHARDS = "ROADMAP item 2: the process-shard runtime awaits its verdict"
_SAFETY = "docs/SIMULATOR.md, Processes: failure semantics"
_BOUNDS = "safety bound: a runaway run fails loudly instead of hanging"
_DEVICES = "docs/SIMULATOR.md, Devices: the DeviceHandle interface, device names"
_SYSCALLS = "docs/SIMULATOR.md, Processes and Recipes: signals, pipes, share_fd"
_SAMPLER = "docs/OBSERVABILITY.md, The sampler: reading series, the pool gauges"
_SPANS = "docs/OBSERVABILITY.md, Per-packet spans: the span property test, FLUSH"
_PROFILE = "docs/OBSERVABILITY.md, The profile: ledger=True soaks, format_costs"
_FAULTS = "docs/OBSERVABILITY.md, Topology chaos: the --faults grammar"
_RUN_FLAGS = "README, Install & run: run --segments, --duration, --seed"
_SIZES = ("size: tier-1 runs the paper scenarios and soaks smaller "
          "(tests/bench/test_scenarios.py)")
_STATE = ("state record: each field starts at its default and is counted "
          "or filled in after construction")
_IR = "docs/PERFORMANCE.md, The filter compiler: pf.ir.* gauges, hoisted values"
_EMITTED = "ROADMAP item 6(b): the emitted source the mutation oracle edits"
_IOCTL = ("docs/SIMULATOR.md, Devices: a GETINFO/GETSTATS result is section "
          "3.3's record for the user process that issued the ioctl")

# (fnmatch pattern over ``module.qualname``, or ``module.qualname(param)``
#  for a parameter or dataclass field; the owner that keeps it).  The
#  first match wins, and a module-wide pattern owns that module's
#  parameters and fields too.
OWNERS = (
    ("repro.difftest.*", "oracle: the difftest matrix (CI job difftest)"),
    ("repro.sim.shard.*", _SHARDS),
    ("repro.sim.orchestrator.*", _SHARDS),
    ("repro.sim.obsplane.*", _SHARDS),
    ("repro.core.library.*", "docs/LANGUAGE.md, Tooling map: canned predicates"),
    ("repro.core.extensions.*", _EXTENDED),
    ("repro.core.trace.*", "docs/LANGUAGE.md, Tooling map: the step tracer"),
    ("repro.core.instructions.Instruction.is_indirect", _EXTENDED),
    ("repro.core.instructions.Instruction.pushes",
     "docs/LANGUAGE.md, Stack actions: an instruction's stack effect"),
    ("repro.core.instructions.Instruction.pops",
     "docs/LANGUAGE.md, Stack actions: an instruction's stack effect"),
    ("repro.core.ir.ValueGraph.indirect", _EXTENDED),
    ("repro.core.words.get_byte", _EXTENDED),
    ("repro.core.*(level)", _MODES),
    ("repro.core.*(mode)", _MODES),
    ("repro.core.compiler.*", "docs/LANGUAGE.md, Tooling map: the compiler"),
    ("repro.core.program.FilterProgram.encode", _WIRE),
    ("repro.core.program.FilterProgram.decode", _WIRE),
    ("repro.core.instructions.*_instruction_word", _WIRE),
    ("repro.core.paper_filters.pup_socket_filter",
     "docs/LANGUAGE.md, Tooling map: the paper's filters"),
    ("repro.core.validator.validate(max_stack)", _BOUNDS),
    ("repro.sim.world.World.run_until_done(max_events)", _BOUNDS),
    ("repro.core.opt.cse_filter_set", "perfbench/tracer.py TARGETS, ROADMAP 1(c)"),
    ("repro.core.opt.build_dispatch_tree",
     "perfbench/tracer.py TARGETS, ROADMAP 1(c)"),
    ("repro.core.opt.DispatchTree(*)", _STATE),
    ("repro.sim.clock.EventScheduler.pending",
     "oracle: the scheduler model test counts live events against its model"),
    ("repro.core.interpreter.FilterResult(fault)",
     "oracle: tests/core/reference_interpreter.py builds its results by "
     "keyword, a fault-free one at this default; evaluate() passes all four"),
    ("repro.core.opt.necessary_equalities",
     "docs/LANGUAGE.md, Tooling map: the set-level analysis"),
    ("repro.core.opt.SetEntry(*)", _STATE),
    ("repro.core.demux.PacketFilterDemux.ir_stats", _IR),
    ("repro.core.demux.PacketFilterDemux.attached_ports",
     "docs/LANGUAGE.md, Tooling map: bound filters in try order"),
    ("repro.core.demux._Binding(*)", _STATE),
    ("repro.core.device.ir_gauge*", _IR),
    ("repro.core.irgen._emit_bodies.<locals>.hoist_operand", _IR),
    ("repro.core.irgen.*", _EMITTED),
    ("repro.core.port.Port.flush", _SPANS),
    ("repro.core.port.ReadTimeoutPolicy.immediate",
     "docs/SIMULATOR.md, Devices: section 3.3's three read modes"),
    ("repro.core.port.ReadTimeoutPolicy(blocking)",
     "docs/SIMULATOR.md, Devices: section 3.3's three read modes"),
    ("repro.core.port.PortStats(*)", _STATE),
    ("repro.core.ioctl.DataLinkInfo.max_packet_bytes", _IOCTL),
    ("repro.core.ioctl.PortStatus.dropped_queue_overflow", _IOCTL),
    ("repro.sim.ledger.PacketSpan.*", _SPANS),
    ("repro.sim.ledger.Ledger.open_spans", _SPANS),
    ("repro.sim.telemetry.Telemetry.series", _SAMPLER),
    ("repro.sim.overload.BufferPool.in_use", _SAMPLER),
    ("repro.sim.overload.BufferPool.available", _SAMPLER),
    ("repro.sim.overload.PoolStats(*)", _STATE),
    ("repro.sim.stats.KernelStats(*)", _STATE),
    ("repro.protocols.bsp.StreamStats(*)", _STATE),
    ("repro.apps.monitor.TrafficSummary(*)", _STATE),
    ("repro.protocols.ip.IPHeader(*)", _CODECS),
    ("repro.protocols.udp.UDPHeader(*)", _CODECS),
    ("repro.protocols.pup.*(hop_count)", _CODECS),
    ("repro.bench.scenarios._*_report", _PROFILE),
    ("repro.bench.scenarios._run_chaos(ledger)", _PROFILE),
    ("repro.bench.scenarios._run_chaos(telemetry)", _PROFILE),
    ("repro.bench.scenarios.measure_*(*)", _SIZES),
    ("repro.bench.scenarios.count_*(*)", _SIZES),
    ("repro.bench.scenarios.kernel_profile(*)", _SIZES),
    ("repro.bench.scenarios._populate_*_chaos(*)", _SIZES),
    ("repro.bench.scenarios.run_partition_storm(*)",
     "oracle: repro.difftest.sharding.partition_storm_digest runs it at "
     "3 segments, seed 3, and 0.8 s in a python -c child the hook does "
     "not see"),
    ("repro.bench.report.generate(results_path)",
     "README: the EXPERIMENTS.md report reads bench_results.json; tests "
     "point it at a temporary copy"),
    ("repro.__main__.main(argv)",
     "README, Install & run: python -m repro reads its command line"),
    ("repro.apps.monitor.NetworkMonitor.format_costs", _PROFILE),
    ("repro.net.medium.ChaosConfig.expected_loss_rate",
     "docs/SIMULATOR.md, Chaos injection"),
    ("repro.sim.faults.schedule_fingerprint",
     "oracle: fault schedules compared across processes"),
    ("repro.sim.faults.*", _FAULTS),
    ("repro.sim.seeds.derive_rng", _FAULTS),
    ("repro.bench.topologies.*(seed)", _RUN_FLAGS),
    ("repro.bench.topologies.*(segments)", _RUN_FLAGS),
    ("repro.bench.topologies.*(duration)", _RUN_FLAGS),
    ("repro.sim.topology.SegmentContext.address_of(station)",
     "ROADMAP item 1: perfbench/worlds.py passes it positionally"),
    ("repro.sim.host.Host.install_packet_filter(device_name)", _DEVICES),
    ("repro.kernelnet.*(device_name)", _DEVICES),
    ("repro.sim.process.Read(size)",
     "docs/SIMULATOR.md, Processes: Read.size, a byte device's read count"),
    ("repro.sim.kernel.SimKernel.post_signal", _SYSCALLS),
    ("repro.sim.kernel.SimKernel._sigwait", _SYSCALLS),
    ("repro.sim.kernel.SimKernel._make_pipe", _SYSCALLS),
    ("repro.sim.kernel.SimKernel.share_fd", _SYSCALLS),
    ("repro.sim.pipe.Pipe.close_write", _SYSCALLS),
    ("repro.sim.pipe._*", _SYSCALLS),
    ("repro.core.device.PacketFilterDevice._port_drop", _SAFETY),
    ("repro.core.interpreter._operand_fault", _SAFETY),
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
    [param, ...], class]`` whose simple-default parameters are
    fingerprinted; ``class`` is ``module.qualname`` for a dataclass,
    whose fields are read from its generated ``__init__``, and None for
    a function.
    """
    import threading

    with open(table_path) as handle:
        rows = json.load(handle)
    table = {tuple(row[:3]): tuple(row[3]) for row in rows if not row[4]}
    classes = {row[4]: row for row in rows if row[4]}
    prefix = package + os.sep
    generated = object()    # a dataclass __init__: keyed by the instance's class
    seen: dict = {}         # code -> [key, params] (None: not ours)
    built: dict = {}        # dataclass -> [key, params] (None: not ours)
    values: dict = {}       # (key, param) -> fingerprints written so far
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

    def sighted(key, params):
        write("F\t%s\t%d\t%s\n" % key)
        return [key, params]

    def first_sighting(code):
        path = os.path.abspath(code.co_filename)
        if not path.startswith(prefix):
            made = code.co_name == "__init__" and code.co_filename == "<string>"
            seen[code] = generated if made else None
            return seen[code]
        key = (os.path.relpath(path, package), code.co_firstlineno, code.co_name)
        target = seen[code] = sighted(key, table.get(key, ()))
        return target

    def constructed(cls):
        row = classes.get(f"{cls.__module__}.{cls.__qualname__}")
        target = built[cls] = row and sighted(tuple(row[:3]), tuple(row[3]))
        return target

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        try:
            target = seen[code]
        except KeyError:
            target = first_sighting(code)
        if target is generated:
            cls = type(frame.f_locals[code.co_varnames[0]])
            try:
                target = built[cls]
            except KeyError:
                target = constructed(cls)
        if not target or not target[1]:
            return
        key, params = target
        local = frame.f_locals
        for param in params:
            if param not in local:
                continue
            mark = fingerprint(local[param])
            known = values.setdefault((key, param), set())
            if mark in known:
                continue
            known.add(mark)
            write("A\t%s\t%d\t%s\t%s\t%s\n" % (*key, param, mark))
            if len(known) > 1:  # more than one value: no longer a suspect
                target[1] = tuple(p for p in target[1] if p != param)

    sys.setprofile(hook)
    threading.setprofile(hook)


# ---------------------------------------------------------------------------
# the census: inventory, runs, verdicts
# ---------------------------------------------------------------------------


def inventory() -> list[dict]:
    """Every ``def`` under ``src/repro`` with its defaulted parameters, and
    every dataclass with its defaulted fields (``"fields": True``)."""
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


def names(functions: list[dict]) -> list[str]:
    """Every name an :data:`OWNERS` pattern can match: each function,
    dataclass, and defaulted parameter or field."""
    out = []
    for function in functions:
        full = f"{function['module']}.{function['qualname']}"
        out.append(full)
        out.extend(f"{full}({param})" for param, _ in function["defaults"])
    return out


def _is_dataclass(node) -> bool:
    import ast

    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if ast.unparse(target) in ("dataclass", "dataclasses.dataclass"):
            return True
    return False


def _entry(node, module, rel, scope, method, defaults, fields=False) -> dict:
    import ast

    first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
    return {
        "module": module,
        "file": rel,
        "line": first,
        "def_line": node.lineno,
        "name": node.name,
        "qualname": ".".join([*scope, node.name]),
        "method": method,
        "fields": fields,
        "defaults": [(name, ast.unparse(expr)) for name, expr in defaults],
    }


def _collect(node, module, rel, scope, in_class, out) -> None:
    import ast

    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            if _is_dataclass(child):
                fields = [
                    (item.target.id, item.value) for item in child.body
                    if isinstance(item, ast.AnnAssign) and item.value is not None
                    and isinstance(item.target, ast.Name)
                    and "ClassVar" not in ast.unparse(item.annotation)
                ]
                out.append(_entry(child, module, rel, scope, False, fields, True))
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
            defaults = [(arg.arg, expr) for arg, expr in defaults]
            out.append(_entry(child, module, rel, scope, in_class, defaults))
            _collect(child, module, rel, [*scope, child.name, "<locals>"], False, out)
        else:
            _collect(child, module, rel, scope, in_class, out)


def simple_defaults(functions: list[dict]) -> None:
    """Evaluate each default in its module; keep the simple ones as
    ``function["simple"] = {param: fingerprint}``.  A dataclass's are
    read from its fields, so ``field(default=...)`` counts and
    ``default_factory`` or ``init=False`` does not; one that writes its
    own ``__init__`` has none, since that ``__init__``'s parameters are
    counted as a function's."""
    import dataclasses
    import importlib

    for function in functions:
        function["simple"] = {}
        if not function["defaults"]:
            continue
        namespace = vars(importlib.import_module(function["module"]))
        if function["fields"]:
            cls = namespace
            for part in function["qualname"].split("."):
                cls = cls[part] if isinstance(cls, dict) else getattr(cls, part)
            if cls.__init__.__code__.co_filename != "<string>":
                continue
            for field in dataclasses.fields(cls):
                if field.init and is_simple(field.default):
                    function["simple"][field.name] = fingerprint(field.default)
            continue
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
            [f["file"], f["line"], f["name"], sorted(f["simple"]),
             f"{f['module']}.{f['qualname']}" if f["fields"] else None]
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


READERS = ("tests", "benchmarks", "perfbench", "examples")
"""Where the state view looks, besides the package itself, for a module
that reads an attribute."""

_WRITE_CALLS = {"append", "extend", "add", "update"}
_KEY_CALLS = {"get", "pop", "setdefault"}


def _modules(top: str):
    for folder, _, files in sorted(os.walk(top)):
        for filename in sorted(files):
            if filename.endswith(".py"):
                yield os.path.join(folder, filename)


def _stored(tree, module: str, rel: str) -> list[dict]:
    """Every attribute a module of the package stores: ``x.a = ...``,
    ``x.a += ...``, ``x.a: T = ...`` and a class-body field.  A store
    on ``self`` or in a class body is named ``module.Class.attr`` and
    owned by that class (``"cls"``), any other ``module.attr`` and
    owned by none."""
    import ast

    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, ast.ClassDef):
                inner = [*scope, child.name]
                for item in child.body:
                    if (isinstance(item, ast.AnnAssign)
                            and isinstance(item.target, ast.Name)
                            and "ClassVar" not in ast.unparse(item.annotation)):
                        found.append(_store(module, rel, inner, item.target.id,
                                            item.lineno))
            elif (isinstance(child, ast.Attribute)
                  and isinstance(child.ctx, ast.Store)):
                found.append(_store(module, rel,
                                    scope if _on_self(child) else [],
                                    child.attr, child.lineno))
            visit(child, inner)

    visit(tree, [])
    return found


def _store(module, rel, scope, attr, line) -> dict:
    return {"name": ".".join([module, *scope, attr]), "attribute": attr,
            "cls": scope[-1] if scope else None, "file": rel, "line": line}


def _on_self(node) -> bool:
    import ast

    return isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")


def _loaded(tree, owned: set | None = None) -> set:
    """Every attribute name a module reads: an attribute load, or a
    string constant (``getattr(x, "a")``, a field list).  Write idioms
    are not reads: the ``x.a`` of ``x.a[k] = ...`` or ``x.a.append(...)``
    (``extend``, ``add``, ``update``), nor is a string that keys a dict
    (``{"a": ...}``, ``d["a"]``, ``d.get("a")``).  Given ``owned``, a
    load on ``self`` or ``cls`` inside a class goes there instead, as
    ``(class, attr)``: its receiver's class is known."""
    import ast

    names, skip = set(), set()

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if id(child) not in skip:
                if isinstance(child, ast.Attribute) and isinstance(
                        child.ctx, ast.Load):
                    if owned is not None and cls and _on_self(child):
                        owned.add((cls, child.attr))
                    else:
                        names.add(child.attr)
                elif (isinstance(child, ast.Constant)
                      and isinstance(child.value, str)):
                    names.add(child.value)
            # what is written or keyed under this node is not read
            if isinstance(child, ast.Subscript):
                if isinstance(child.ctx, (ast.Store, ast.Del)):
                    skip.add(id(child.value))
                if isinstance(child.slice, ast.Constant):
                    skip.add(id(child.slice))
            elif isinstance(child, ast.Dict):
                skip.update(id(key) for key in child.keys)
            elif (isinstance(child, ast.Call)
                  and isinstance(child.func, ast.Attribute)):
                if child.func.attr in _WRITE_CALLS:
                    skip.add(id(child.func.value))
                elif child.func.attr in _KEY_CALLS and child.args:
                    skip.add(id(child.args[0]))
            visit(child, child.name if isinstance(child, ast.ClassDef) else cls)

    visit(tree, None)
    return names


def _package_trees():
    import ast

    for path in _modules(PACKAGE):
        rel = os.path.relpath(path, PACKAGE)
        module = "repro." + rel[:-3].replace(os.sep, ".")
        with open(path, encoding="utf-8") as handle:
            yield module.removesuffix(".__init__"), rel, ast.parse(handle.read())


def _kin(trees) -> dict:
    """Each package class's ancestors and descendants, itself included,
    by bare class name: the classes whose ``self`` may be its instance.
    A class defined inside a function is its own kin only."""
    import ast

    parents: dict = {}
    pending = [node for tree in trees for node in tree.body]
    while pending:  # classes at module level, nested in classes
        node = pending.pop()
        if isinstance(node, ast.ClassDef):
            parents.setdefault(node.name, set()).update(
                base.id if isinstance(base, ast.Name) else base.attr
                for base in node.bases
                if isinstance(base, (ast.Name, ast.Attribute)))
            pending.extend(node.body)

    def ancestors(name, seen):
        for parent in parents.get(name, ()):
            if parent not in seen:
                seen.add(parent)
                ancestors(parent, seen)
        return seen

    kin = {name: ancestors(name, {name}) for name in parents}
    for name, line in list(kin.items()):
        for elder in line - {name}:
            kin.setdefault(elder, {elder}).add(name)
    return kin


def unread_state() -> list[dict]:
    """The state view: one row per attribute that ``src/repro`` stores
    and no module under :data:`READERS` reads, named by its first store
    and carrying the owner that keeps it (:func:`unread`)."""
    def reader_texts():
        for top in READERS:
            for path in _modules(os.path.join(ROOT, top)):
                with open(path, encoding="utf-8") as handle:
                    yield handle.read()

    return unread(_package_trees(), reader_texts())


def unread(package, readers) -> list[dict]:
    """The stores of ``package`` (``(module, file, tree)`` triples) that
    neither it nor the ``readers`` (module texts) read.

    A store on ``self`` belongs to its class: a read on ``self`` counts
    for it only inside that class or one it inherits from or passes on
    to, so another class's ``self.a`` hides no write-only ``a``.  A read
    on any other receiver, or a string, counts for every store of the
    name.  A reader is parsed only when its text spells a candidate, so
    the view costs one parse of the package and a text search of the
    rest.
    """
    import ast
    import re

    first: dict = {}
    read, owned, trees = set(), set(), []
    for module, rel, tree in package:
        trees.append(tree)
        for row in _stored(tree, module, rel):
            first.setdefault((row["cls"], row["attribute"]), row)
        read |= _loaded(tree, owned)
    kin = _kin(trees)
    readers_of: dict = {}
    for reader, attr in owned:
        readers_of.setdefault(attr, set()).add(reader)

    def unread_key(key):
        cls, attr = key
        return attr not in read and not any(
            cls is None or cls in kin.get(reader, {reader})
            for reader in readers_of.get(attr, ()))

    left = {key for key in first if unread_key(key)}
    for text in readers:
        if not left:
            break
        spelled = r"\b(?:%s)\b" % "|".join(
            map(re.escape, sorted({attr for _, attr in left})))
        if re.search(spelled, text):
            names = _loaded(ast.parse(text))
            left = {key for key in left if key[1] not in names}
    return [{**first[key], "owner": owner_of(first[key]["name"])}
            for key in sorted(left, key=lambda key: first[key]["name"])]


def owner_of(name: str) -> str | None:
    from fnmatch import fnmatchcase

    for pattern, owner in OWNERS:
        if fnmatchcase(name, pattern):
            return owner
    return None


def verdicts(functions: list[dict], reached: dict, passed: dict) -> dict:
    named = static_names([f for f in functions if not f["fields"]], reached)
    rows, views = [], {"parameters": [], "fields": []}
    for function in functions:
        key = (function["file"], function["line"], function["name"])
        full = f"{function['module']}.{function['qualname']}"
        if function["fields"]:
            # a class body runs at import, so only a construction counts
            groups = {group for param in function["simple"]
                      for group in passed.get((key, param), {})}
        else:
            groups = reached.get(key, set())
        if not function["fields"]:
            reach = next((g for g in GROUPS if g in groups), "nothing")
            row = {"function": full, "file": function["file"],
                   "line": function["def_line"], "reach": reach}
            if len(rows) in named:
                row["named_by"] = named[len(rows)]
            if reach != "user" and not row.get("named_by", "").startswith(
                    ("benchmarks", "examples", "docs")):
                row["owner"] = owner_of(full)
            rows.append(row)
        if not groups:
            continue
        for param, default in sorted(function["simple"].items()):
            marks = passed.get((key, param), {})
            used = set().union(*marks.values()) if marks else set()
            outside = set().union(*(marks.get(g, ()) for g in GROUPS[:2]))
            if used == {default}:
                view = "one value"
            elif groups & set(GROUPS[:2]) and outside <= {default}:
                view = "only tests set it"
            else:
                continue
            name = f"{full}({param})"
            views["fields" if function["fields"] else "parameters"].append({
                "name": name, "default": default, "view": view,
                "tests": sorted(used - {default}), "by": sorted(marks),
                "owner": owner_of(name)})
    return {"functions": rows, **views}


def summary(functions: list[dict], result: dict) -> dict:
    rows = result["functions"]
    count = {reach: sum(r["reach"] == reach for r in rows)
             for reach in (*GROUPS, "nothing")}
    views = {kind: {view: sum(p["view"] == view for p in result[kind])
                    for view in ("one value", "only tests set it")}
             for kind in ("parameters", "fields")}
    return {
        "functions": len(rows),
        **{f"reached_by_{reach}": n for reach, n in count.items()},
        "named_only": sum("named_by" in r for r in rows),
        "parameters_with_default": sum(
            len(f["defaults"]) for f in functions if not f["fields"]),
        "simple_defaults": sum(len(f["simple"]) for f in functions if not f["fields"]),
        "one_value_parameters": views["parameters"]["one value"],
        "test_only_parameters": views["parameters"]["only tests set it"],
        "fields_with_default": sum(
            len(f["defaults"]) for f in functions if f["fields"]),
        "simple_fields": sum(len(f["simple"]) for f in functions if f["fields"]),
        "one_value_fields": views["fields"]["one value"],
        "test_only_fields": views["fields"]["only tests set it"],
        "unowned_functions": sum("owner" in r and r["owner"] is None for r in rows),
        "unowned_parameters": sum(p["owner"] is None for p in result["parameters"]),
        "unowned_fields": sum(p["owner"] is None for p in result["fields"]),
        "unread_state": len(result["state"]),
        "unowned_state": sum(row["owner"] is None for row in result["state"]),
    }


def render(report: dict) -> str:
    s = report["summary"]
    lines = [
        f"functions {s['functions']}: user {s['reached_by_user']}, "
        f"perfbench only {s['reached_by_perfbench']}, tests only "
        f"{s['reached_by_tests']}, nothing {s['reached_by_nothing']} "
        f"({s['named_only']} of them named)",
        f"parameters with a default {s['parameters_with_default']}: simple "
        f"{s['simple_defaults']}, one value in use {s['one_value_parameters']}, "
        f"only tests set another {s['test_only_parameters']}",
        f"dataclass fields with a default {s['fields_with_default']}: simple "
        f"{s['simple_fields']}, one value in use {s['one_value_fields']}, "
        f"only tests set another {s['test_only_fields']}",
        f"attributes stored and never read {s['unread_state']}",
        f"unowned: {s['unowned_functions']} functions, "
        f"{s['unowned_parameters']} parameters, {s['unowned_fields']} fields, "
        f"{s['unowned_state']} attributes",
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
    for kind in ("parameters", "fields"):
        for view in ("one value", "only tests set it"):
            rows = [p for p in report[kind] if p["view"] == view]
            if rows:
                lines.append(f"\n{kind}, {view}:")
            for row in rows:
                tests = f"  (tests: {', '.join(row['tests'])})" if row["tests"] else ""
                owner = row["owner"] or "UNOWNED"
                lines.append(f"  {row['name']} = {row['default']}{tests}  -- {owner}")
    if report["state"]:
        lines.append("\nattributes stored and never read:")
    for row in report["state"]:
        lines.append(f"  {row['name']}  ({row['file']}:{row['line']})  "
                     f"-- {row['owner'] or 'UNOWNED'}")
    owners: dict = {}
    for row in (report["functions"] + report["parameters"] + report["fields"]
                + report["state"]):
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
    report["state"] = unread_state()
    report["summary"] = summary(functions, report)
    report["runs"] = runs
    print(render(report))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
