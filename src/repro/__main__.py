"""``python -m repro`` — a small front door.

* ``info``  — version, package map, experiment inventory (the default)
* ``demo``  — run the quickstart scenario inline
* ``trace`` — trace the figure 3-9 filter on a matching and a missing
              packet (the tracer as a party trick)
* ``run``   — run one named topology (``run --list`` names them) through
              ``run_topology`` and print its run summary — as text, or
              with ``--json`` the dict ``docs/OBSERVABILITY.md``
              documents.  ``--shards N`` partitions it over N worker
              processes (1 = in-process, the bitwise oracle for any
              other count); ``--profile`` adds the per-host charge
              profile and the sync-protocol table; ``--trace FILE``
              exports the stitched Perfetto trace; ``--top`` watches the
              run through the live cluster dashboard; ``--faults``
              schedules link outages.

stdout carries the summary and nothing else; everything live (dashboard
repaints, alerts as they fire, the trace notice, errors) goes to stderr.

Exit codes: 0 on success, 2 for arguments the named topology cannot
honour, 3 when a shard died (:class:`~repro.sim.shard.ShardDiedError`),
4 when a shard blew its reply deadline
(:class:`~repro.sim.shard.ShardTimeoutError`), 141 when stdout's reader
closed the pipe (``run NAME --json | head``) — quietly, the status a
shell reports for a program that SIGPIPE ended.
"""

from __future__ import annotations

import argparse
import os
import sys

EXIT_USAGE = 2
EXIT_SHARD_DIED = 3
EXIT_SHARD_TIMEOUT = 4
EXIT_BROKEN_PIPE = 141


def cmd_info() -> int:
    import repro
    from repro.bench.report import TITLES

    print(f"repro {repro.__version__} — Mogul/Rashid/Accetta, SOSP 1987")
    print("packages: core, sim, net, kernelnet, protocols, baselines, "
          "apps, bench")
    print(f"\n{len(TITLES)} reproduced experiments:")
    for key, title in TITLES.items():
        print(f"  {key:24} {title}")
    print("\nrun them:  pytest benchmarks/ --benchmark-only")
    print("report:    python -m repro.bench.report")
    return 0


def cmd_demo() -> int:
    from repro.core import PFIoctl, compile_expr, word
    from repro.sim import Ioctl, Open, Read, Sleep, World, Write

    world = World()
    alice = world.host("alice")
    bob = world.host("bob")
    alice.install_packet_filter()
    bob.install_packet_filter()

    def receiver():
        fd = yield Open("pf")
        yield Ioctl(fd, PFIoctl.SETFILTER, compile_expr(word(6) == 0x0C47))
        [packet] = yield Read(fd)
        return bob.link.payload_of(packet.data)

    def sender():
        fd = yield Open("pf")
        yield Sleep(0.01)
        yield Write(fd, alice.link.frame(
            bob.address, alice.address, 0x0C47, b"it works"
        ))

    rx = bob.spawn("rx", receiver())
    alice.spawn("tx", sender())
    world.run_until_done(rx)
    print(f"received {rx.result!r} in {world.now * 1000:.2f} simulated ms")
    return 0


def cmd_trace() -> int:
    from repro.core import figure_3_9_pup_socket_35, trace_evaluation
    from repro.core.words import pack_words

    program = figure_3_9_pup_socket_35()
    matching = pack_words([0x0102, 2, 30, 0x0132, 0, 0, 0x0101, 0, 35])
    missing = pack_words([0x0102, 2, 30, 0x0132, 0, 0, 0x0101, 0, 36])
    for label, packet in (("MATCHING", matching), ("MISSING", missing)):
        print(f"--- figure 3-9 on a {label} packet ---")
        print(trace_evaluation(program, packet).format())
        print()
    return 0


def _build_run(args):
    """The one validation point: the spec for the parsed ``run``
    arguments, or :class:`ValueError` naming the first thing about them
    that cannot be honoured — before anything runs."""
    import dataclasses
    import math

    from repro.bench.topologies import named_topology
    from repro.sim.faults import parse_fault_spec

    for flag in ("shards", "segments"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise ValueError(f"--{flag} must be at least 1, not {value}")
    for flag in ("duration", "timeout"):
        value = getattr(args, flag)
        if value is not None and not (math.isfinite(value) and value > 0.0):
            raise ValueError(
                f"--{flag} must be a positive number of seconds, not {value}"
            )
    if args.plain and not args.top:
        raise ValueError("--plain needs --top")

    try:
        spec = named_topology(
            args.name,
            segments=args.segments,
            seed=args.seed,
            duration=args.duration,
        )
    except ValueError as error:
        raise ValueError(f"{args.name}: {error}") from None
    if args.faults is not None:
        # Watchdog alerts are the point of a run under link faults.
        spec = dataclasses.replace(
            spec,
            telemetry=True,
            faults=parse_fault_spec(args.faults, seed=args.seed),
        )
    spec.validate()
    if args.timeout is not None and min(args.shards, len(spec.segments)) < 2:
        raise ValueError(
            "--timeout bounds worker replies; this run has no workers "
            f"({len(spec.segments)} segment(s), --shards {args.shards})"
        )
    return spec


REPAINT_PERIOD = 0.25
"""Minimum seconds between two ``run --top`` dashboard repaints."""


def _dashboard(*, plain: bool):
    """An observability plane that repaints the cluster dashboard (at
    most every :data:`REPAINT_PERIOD`; never when ``plain``) and announces
    alerts the moment any shard streams them — on stderr, both."""
    import time

    from repro.sim.obsplane import ObservabilityPlane

    last_paint = 0.0

    def repaint(plane) -> None:
        nonlocal last_paint
        now = time.monotonic()
        if plain or now - last_paint < REPAINT_PERIOD:
            return
        last_paint = now
        sys.stderr.write("\x1b[2J\x1b[H" + plane.render() + "\n")
        sys.stderr.flush()

    def announce(alert) -> None:
        print(f"ALERT {alert.render()}", file=sys.stderr)

    return ObservabilityPlane(on_update=repaint, on_alert=announce)


def cmd_run(args, unknown=()) -> int:
    import json

    from repro.bench.summary import render_summary, run_summary
    from repro.bench.topologies import TOPOLOGIES
    from repro.sim.orchestrator import run_topology
    from repro.sim.shard import ShardDiedError, ShardTimeoutError

    if args.list:
        for name, factory in TOPOLOGIES.items():
            print(f"{name:20} {factory.__doc__.strip().splitlines()[0]}")
        return 0
    try:
        if unknown:
            raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
        if args.name is None:
            raise ValueError("name a topology to run (see run --list)")
        spec = _build_run(args)
    except ValueError as error:
        print(f"python -m repro run: error: {error}", file=sys.stderr)
        return EXIT_USAGE
    plane = None
    if args.top:
        plane = _dashboard(plain=args.plain)
    try:
        result = run_topology(
            spec,
            shards=args.shards,
            timeout=args.timeout,
            observability=plane,
        )
    except ShardDiedError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_SHARD_DIED
    except ShardTimeoutError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_SHARD_TIMEOUT
    if args.trace is not None:
        from repro.bench.traceout import write_topology_trace

        doc = write_topology_trace(result, args.trace)
        print(
            f"wrote {len(doc['traceEvents'])} trace events to {args.trace} "
            "(load it at https://ui.perfetto.dev or chrome://tracing)",
            file=sys.stderr,
        )
    summary = run_summary(args.name, result, profile=args.profile)
    if args.json:
        print(json.dumps(summary, indent=2, default=str))
        return 0
    if plane is not None:
        print(plane.render())
    print(render_summary(summary))
    return 0


def _add_run_parser(subcommands) -> None:
    from repro.bench.topologies import TOPOLOGIES

    run = subcommands.add_parser(
        "run", help="run a named topology and print its run summary"
    )
    run.add_argument(
        "name", nargs="?", choices=list(TOPOLOGIES), metavar="NAME",
        help="the topology to run (run --list names them)",
    )
    run.add_argument(
        "--list", action="store_true",
        help="list every runnable name and exit",
    )
    run.add_argument(
        "--shards", type=int, default=1,
        help="worker processes (1 = in-process, the oracle; default 1)",
    )
    run.add_argument(
        "--segments", type=int,
        help="Ethernet segments (default: the topology's own)",
    )
    run.add_argument(
        "--duration", type=float,
        help="simulated seconds of offered load (default: the topology's)",
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--timeout", type=float,
        help=(
            "per-window shard reply deadline in seconds (exit "
            f"{EXIT_SHARD_TIMEOUT} when blown; default: wait forever)"
        ),
    )
    run.add_argument(
        "--faults",
        help=(
            "comma-separated link-fault clauses: down:LINK:START:END[:DIR] "
            "or flap:LINK:START:END:MEAN_DOWN:MEAN_UP[:DIR] "
            "(DIR: both|a2b|b2a; omit for the topology's own schedule)"
        ),
    )
    run.add_argument(
        "--profile", action="store_true",
        help="add the per-host charge profile and the sync-protocol table",
    )
    run.add_argument(
        "--trace", metavar="FILE",
        help="also export the stitched Perfetto/Chrome trace JSON",
    )
    run.add_argument(
        "--top", action="store_true",
        help="watch the run through the live cluster dashboard (stderr)",
    )
    run.add_argument(
        "--plain", action="store_true",
        help="with --top: no ANSI repaints, only alerts and a final frame",
    )
    run.add_argument(
        "--json", action="store_true",
        help="print the summary as JSON instead of text",
    )


def build_parser() -> argparse.ArgumentParser:
    """The whole command line: every verb and every ``run`` flag."""
    parser = argparse.ArgumentParser(prog="python -m repro")
    subcommands = parser.add_subparsers(dest="command")
    subcommands.add_parser("info", help="version and experiment inventory")
    subcommands.add_parser("demo", help="run the quickstart scenario")
    subcommands.add_parser(
        "trace", help="trace the figure 3-9 filter on two packets"
    )
    _add_run_parser(subcommands)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        code = _dispatch(argv)
        sys.stdout.flush()   # a closed reader shows here, not at exit
    except BrokenPipeError:
        # What the reader left unread is lost either way; point stdout
        # at /dev/null so the interpreter's own flush at exit is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


def _dispatch(argv: list[str] | None) -> int:
    parser = build_parser()
    # ``run`` reports an unknown flag like any other usage error: one
    # stderr line and exit 2, not argparse's usage dump.
    args, unknown = parser.parse_known_args(argv)
    if args.command == "run":
        return cmd_run(args, unknown)
    if unknown:
        parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    command = args.command or "info"
    return {"info": cmd_info, "demo": cmd_demo, "trace": cmd_trace}[command]()


if __name__ == "__main__":
    sys.exit(main())
