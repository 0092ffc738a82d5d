"""Command line front end.

``depsim run`` executes a scenario file and optionally writes the JSONL
trace and a JSON metrics report; ``depsim verify`` replays the
invariant checks over a previously written trace. Exit codes: 0 on
success, 2 for an unusable scenario, trace file, ``--seed``, ``--until``
or output path, 3 when verification finds violations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .metrics import compute_metrics
from .run import SimulationRun
from .scenario import ScenarioError, load_scenario
from .tracing import MalformedTrace, dump_jsonl, read_rows
from .verify import verify_trace


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="depsim", description="dependable-system simulation runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario")
    run_p.add_argument("--scenario", required=True, help="scenario file (YAML or JSON)")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario's master seed")
    run_p.add_argument("--until", type=int, default=None, help="override the scenario's end tick")
    run_p.add_argument("--trace-out", default=None, help="write the event trace as JSONL")
    run_p.add_argument("--metrics-out", default=None, help="write the metrics report as JSON")
    run_p.add_argument("--verify", action="store_true", help="run trace invariant checks after the run")
    run_p.add_argument("--quiet", action="store_true", help="suppress the summary line")

    ver_p = sub.add_parser("verify", help="check an existing trace file")
    ver_p.add_argument("--trace", required=True, help="JSONL trace file to check")
    ver_p.add_argument("--scenario", default=None, help="scenario file for topology-aware checks")
    ver_p.add_argument("--quiet", action="store_true", help="suppress the ok line")
    return parser


def _print_violations(violations) -> None:
    for v in violations:
        where = f"t={v.at}" + (f", node={v.node}" if v.node is not None else "")
        print(f"violation {v.check}: {v.message} ({where})", file=sys.stderr)


def _same_file(a: str, b: str) -> bool:
    """One file on disk (a hard link too) if both exist, else one resolved path."""
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samefile(a, b)
    return Path(a).resolve() == Path(b).resolve()


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        for flag, value, least in (("--seed", args.seed, 0), ("--until", args.until, 1)):
            if value is not None and value < least:
                raise ScenarioError(flag, f"must be >= {least}, got {value}")
        # --until is applied while reading: the workload expands up to it.
        scenario = load_scenario(args.scenario, until=args.until)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    for flag, path in (("--trace-out", args.trace_out), ("--metrics-out", args.metrics_out)):
        if path is not None and Path(path).is_dir():
            print(f"output error: {flag}: {path} is a directory", file=sys.stderr)
            return 2
        if path is not None and not Path(path).resolve().parent.is_dir():
            print(f"output error: {flag}: no directory for {path}", file=sys.stderr)
            return 2
        if path is not None and _same_file(path, args.scenario):
            print(f"output error: {flag}: {path} is the scenario file", file=sys.stderr)
            return 2
    if args.trace_out and args.metrics_out and _same_file(args.trace_out, args.metrics_out):
        print("output error: --trace-out and --metrics-out name the same file", file=sys.stderr)
        return 2

    run = SimulationRun(scenario).run()
    rows = run.trace
    if args.trace_out:
        dump_jsonl(rows, args.trace_out)
    if args.metrics_out:
        report = compute_metrics(rows, scenario)
        with open(args.metrics_out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=False)
            fh.write("\n")
    if not args.quiet:
        print(f"scenario={scenario.name} seed={scenario.seed} until={scenario.until} events={len(rows)}")
    if args.verify:
        violations = verify_trace(rows, scenario.base_latency, scenario.topology)
        if violations:
            _print_violations(violations)
            return 3
        if not args.quiet:
            print("verify: ok")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    base_latency = 1
    topology = None
    if args.scenario is not None:
        try:
            scenario = load_scenario(args.scenario)
        except ScenarioError as exc:
            print(f"scenario error: {exc}", file=sys.stderr)
            return 2
        base_latency = scenario.base_latency
        topology = scenario.topology
    entries = 0

    def counted(rows):
        nonlocal entries
        for entries, row in enumerate(rows, start=1):
            yield row

    # The file streams through the checks; a bad line anywhere in it ends
    # the command before any violation is printed.
    try:
        violations = verify_trace(counted(read_rows(args.trace)), base_latency, topology)
    except (OSError, MalformedTrace) as exc:
        print(f"trace error: {exc}", file=sys.stderr)
        return 2
    if violations:
        _print_violations(violations)
        return 3
    if not args.quiet:
        print(f"verify: ok ({entries} entries)")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
