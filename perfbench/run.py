#!/usr/bin/env python3
"""depsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload closed loop in this process: the next simulation seed
starts when the previous one has finished and been checked. The
workload seed N picks the simulation seeds N*1000, N*1000+1, ... and,
for heal-mix, each one's generated scenario file. Every seed's output is
checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of untraced runs, as
measured.
``--trace 1`` runs each seed untraced and then traced, requires the two
depsim traces to be byte-identical, and reports per-layer span metrics
(see spans.py), the tracing overhead and the golden-hash check of the
bundled scenarios. perfbench/README.md lists every metric.

Everything a run does, set-up and the golden check included, fits in
``--seconds``: the loop stops before a seed that would end past it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import healmix
import spans
from setup_probe import import_depsim, setup

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
OUT = ROOT / ".bench_build" / "perfbench"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"
SEEDS_PER_BASE = 1000
# Untraced runs repeat the set-up between seeds until it has taken this
# share of the run, so the set-up samples see the same host as the seeds.
SETUP_SHARE = 0.1
TRACED_SETUP_REPS = 5

# The 64-node, loss-free, crash-free shape of the quiet-cluster
# acceptance sweep (tests/test_acceptance.py).
_QUIET_NODES = [f"n{i:02d}" for i in range(64)]
QUIET64 = {
    "name": "quiet-cluster",
    "until": 10_000,
    "network": {"base_latency": 1, "jitter": 0, "loss": 0.0},
    "clusters": [
        {"id": "c0", "nodes": _QUIET_NODES[0:16]},
        {"id": "c1", "nodes": _QUIET_NODES[16:32], "parent": "c0"},
        {"id": "c2", "nodes": _QUIET_NODES[32:48], "parent": "c0"},
        {"id": "c3", "nodes": _QUIET_NODES[48:64], "parent": "c0"},
    ],
    "detector": {"gossip_interval": 10, "fanout": 2, "window": 64, "k": 16.0, "t_min": 30, "t_bootstrap": 100},
}


class SetupError(Exception):
    """The checkout does not hold a runnable depsim."""


def load_depsim() -> dict:
    """Import depsim from this checkout's src/."""
    if not (SRC / "depsim" / "__init__.py").is_file() or not SCENARIOS.is_dir():
        raise SetupError(f"no depsim sources under {SRC} or no {SCENARIOS}")
    sys.path.insert(0, str(SRC))
    mods = import_depsim()
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"depsim was imported from {origin}, not from {SRC}")
    return mods


def timed_setup(scenario: Path) -> float:
    """One cold set-up, timed in a fresh interpreter (setup_probe.py)."""
    probe = subprocess.run([sys.executable, str(PROBE), str(SRC), str(scenario)],
                           capture_output=True, text=True, timeout=120, check=True)
    return float(probe.stdout)


class StageTimer:
    """Times ``SimulationRun.run``, the simulate stage, once per call."""

    def __init__(self, run_mod):
        self.total = 0.0
        cls = run_mod.SimulationRun
        inner = cls.run

        def run(sim_run):
            start = perf_counter()
            try:
                return inner(sim_run)
            finally:
                self.total += perf_counter() - start

        cls.run = run


class Outcome:
    """What one seed produced, as far as the checks and metrics need it."""

    def __init__(self, ok: bool, why: str, report: dict, sha256: str | None = None, nbytes: int = 0):
        self.ok, self.why, self.report = ok, why, report
        self.sha256, self.nbytes = sha256, nbytes
        self.heal_ticks: list[int] = []


class HealMixWorkload:
    """One seed = ``depsim run --trace-out --metrics-out --verify`` in
    process, on the scenario that healmix.py generates for the seed."""

    name = "heal-mix"

    def __init__(self, mods: dict):
        self.mods = mods
        self.path = OUT / "heal-mix.json"
        self.trace_file = OUT / "heal-mix.jsonl"
        self.metrics_file = OUT / "heal-mix.metrics.json"

    def prepare(self, seed: int) -> None:
        data = healmix.generate(seed)
        self.path.write_text(json.dumps(data, indent=1))
        self.hosts: dict[str, set[str]] = {}
        for container in data["containers"]:
            for replica in container["replicas"]:
                self.hosts.setdefault(replica["host"], set()).add(container["id"])

    def run_seed(self, seed: int):
        return self.mods["cli"].main([
            "run", "--scenario", str(self.path), "--seed", str(seed), "--trace-out", str(self.trace_file),
            "--metrics-out", str(self.metrics_file), "--verify", "--quiet",
        ])

    def outcome(self, rc: int, hash_trace: bool) -> Outcome:
        report = json.loads(self.metrics_file.read_text()) if rc == 0 else {}
        data = self.trace_file.read_bytes() if self.trace_file.exists() else b""
        if rc != 0:
            why = f"exit {rc}"
        elif report["module_errors"]:
            why = f"{report['module_errors']} module errors"
        elif report["notices"]["incomplete"]:
            why = f"{report['notices']['incomplete']} incomplete propagations"
        else:
            why = ""
        out = Outcome(why == "", why, report, hashlib.sha256(data).hexdigest(), len(data))
        out.heal_ticks = heal_ticks(data, self.hosts)
        self.trace_file.unlink(missing_ok=True)
        self.metrics_file.unlink(missing_ok=True)
        return out


class QuietWorkload:
    """One seed = ``SimulationRun(...).run()`` + ``compute_metrics``, in memory."""

    name = "quiet64-sweep"

    def __init__(self, mods: dict):
        self.mods = mods
        self.path = OUT / "quiet64.json"
        self.path.write_text(json.dumps(QUIET64, indent=1))
        self.scn = mods["scenario"].load_scenario(self.path)

    def prepare(self, seed: int) -> None:
        pass

    def run_seed(self, seed: int):
        sim_run = self.mods["run"].SimulationRun(self.scn, seed=seed).run()
        return sim_run, self.mods["metrics"].compute_metrics(sim_run.trace, scenario=self.scn)

    def outcome(self, result, hash_trace: bool) -> Outcome:
        sim_run, report = result
        total = report["suspicions"]["total"]
        why = "" if total == 0 else f"{total} suspicions on a quiet cluster"
        out = Outcome(why == "", why, report)
        if hash_trace:
            data = self.mods["tracing"].dumps_jsonl(sim_run.trace).encode()
            out.sha256, out.nbytes = hashlib.sha256(data).hexdigest(), len(data)
        return out


def heal_ticks(data: bytes, hosts: dict[str, set[str]]) -> list[int]:
    """Per crash of a replica host: ticks until an invocation issued
    after the crash, on a container that host served, succeeds."""
    open_crashes: list[tuple[int, set[str]]] = []
    out = []
    for line in data.splitlines():
        if b'"kind":"crash"' in line:
            e = json.loads(line)
            if e["node"] in hosts:
                open_crashes.append((e["t"], hosts[e["node"]]))
        elif b'"kind":"invoke_done"' in line and open_crashes:
            e = json.loads(line)
            issued = e["t"] - e["detail"]["latency"]
            if e["detail"]["outcome"] == "success":
                for crash in [c for c in open_crashes if e["detail"]["container"] in c[1] and issued >= c[0]]:
                    out.append(e["t"] - crash[0])
                    open_crashes.remove(crash)
    return out


WORKLOADS = {"quiet64-sweep": QuietWorkload, "heal-mix": HealMixWorkload}


def model_metrics(outcomes: list[Outcome]) -> dict[str, tuple[float, str]]:
    """Simulated-time results of the seeds that produced a report;
    deterministic for a given seed range. 0 where nothing applies."""
    reports = [o.report for o in outcomes if o.report]
    detect = [c["last_member_suspect_at"] - c["at"] for r in reports for c in r["crashes"]
              if c["last_member_suspect_at"] is not None]
    heal = [t for o in outcomes for t in o.heal_ticks]
    invoked = sum(r["invocations"]["total"] for r in reports)
    return {
        "model.detect_ticks": (statistics.median(detect) if detect else 0, "ticks"),
        "model.false_suspicions": (statistics.fmean(r["suspicions"]["false"] for r in reports) if reports else 0,
                                   "count"),
        "model.heal_ticks": (statistics.median(heal) if heal else 0, "ticks"),
        "model.invoke_ok_frac": (sum(r["invocations"]["success"] for r in reports) / invoked if invoked else 0,
                                 "ratio"),
    }


def run_untraced(wl, seed: int, stage: StageTimer, hash_trace: bool) -> tuple[float, float, Outcome]:
    """One timed seed; returns (seed wall s, simulate-stage s, outcome)."""
    wl.prepare(seed)
    gc.collect()
    sim_before = stage.total
    start = perf_counter()
    result = wl.run_seed(seed)
    wall = perf_counter() - start
    return wall, stage.total - sim_before, wl.outcome(result, hash_trace)


def bundled_hashes(cli, wl_name: str) -> dict[str, str]:
    """The sha256 of each bundled scenario's JSONL at seed 0."""
    bundled = {}
    for path in sorted(SCENARIOS.glob("*.yaml")):
        out = OUT / f"{wl_name}.golden.jsonl"
        rc = cli.main(["run", "--scenario", str(path), "--seed", "0", "--trace-out", str(out), "--quiet"])
        bundled[path.stem] = hashlib.sha256(out.read_bytes()).hexdigest() if rc == 0 else f"exit {rc}"
        out.unlink(missing_ok=True)
    return bundled


def golden_mismatches(wl_name: str, bundled: dict[str, str], hashes: dict[int, str]) -> int:
    """Count the bundled scenarios and workload seeds whose hashes differ
    from those recorded in golden.json."""
    golden = json.loads(GOLDEN.read_text())
    mismatches = sum(bundled.get(name) != sha for name, sha in golden["bundled"].items())
    recorded = golden["workloads"].get(wl_name, {})
    return mismatches + sum(str(seed) in recorded and recorded[str(seed)] != sha for seed, sha in hashes.items())


def layer_metrics(tracer: spans.Tracer, rows: dict[str, list[float]], traced: list[Outcome], setup_rows: dict) -> dict:
    """Per-layer metrics from span rows {name: [calls, total s, self s]},
    per traced seed."""
    n = len(traced)
    reports = [o.report for o in traced]
    counts = tracer.counts

    def calls(name):
        return rows.get(name, (0, 0, 0))[0] / n

    def self_s(name):
        return rows.get(name, (0, 0, 0))[2] / n

    def total(path):
        return sum(_dig(r, path) for r in reports)

    def ratio(a, b):
        return a / b if b else 0.0

    root = rows["bench.seed"][1]
    layer_self = dict.fromkeys(tracer.layers, 0.0)
    for name, row in rows.items():
        if name.split(".")[0] in layer_self:
            layer_self[name.split(".")[0]] += row[2]
    setup_scenario_s = sum(row[2] for name, row in setup_rows.items() if name.startswith("scenario."))
    return {
        "sim.loop_self_s": (self_s("sim.run_until"), "s"),
        "sim.send_calls": (calls("sim.send"), "count"),
        "sim.send_self_s": (self_s("sim.send"), "s"),
        "sim.set_timer_calls": (calls("sim.set_timer"), "count"),
        "sim.delivered_frac": (ratio(total("messages.delivers"), total("messages.sends")), "ratio"),
        **{f"sim.drops.{k}": (total(f"messages.drops.{k}") / n, "count")
           for k in ("loss", "partition", "target_crashed")},
        "membership.merge_calls": (calls("membership.merge"), "count"),
        "membership.merge_self_s": (self_s("membership.merge"), "s"),
        "membership.digest_entries": (counts["digest_entries"] / n, "count"),
        "membership.local_tick_self_s": (self_s("membership.local_tick"), "s"),
        "membership.evaluate_self_s": (self_s("membership.evaluate"), "s"),
        "membership.summary_self_s": (self_s("membership.summary"), "s"),
        "membership.transitions": ((total("suspicions.total") + total("suspicions.refutes")
                                    + total("suspicions.removals")) / n, "count"),
        "runtime.on_message_self_s": (self_s("runtime.on_message"), "s"),
        "runtime.on_timer_self_s": (self_s("runtime.on_timer"), "s"),
        "runtime.directive_self_s": (self_s("runtime.directive"), "s"),
        "containers.invocations": (total("invocations.total") / n, "count"),
        "containers.replica_skips": (counts["kind.replica_skip"] / n, "count"),
        "containers.vote_calls": (calls("containers.vote"), "count"),
        "analysis.ingest_calls": (calls("analysis.ingest"), "count"),
        "analysis.ingest_self_s": (self_s("analysis.ingest"), "s"),
        "analysis.poll_calls": (calls("analysis.poll"), "count"),
        "analysis.poll_self_s": (self_s("analysis.poll"), "s"),
        "analysis.diagnoses_per_poll": (ratio(counts["diagnoses"] / n, calls("analysis.poll")), "ratio"),
        "analysis.learn_calls": (calls("analysis.learn"), "count"),
        "analysis.learn_self_s": (self_s("analysis.learn"), "s"),
        "analysis.learned_per_learn": (ratio(total("analysis.patterns_learned") / n, calls("analysis.learn")),
                                       "ratio"),
        "analysis.forecast_self_s": (self_s("analysis.forecast"), "s"),
        "repair.plans": (calls("repair.plan"), "count"),
        "repair.plan_self_s": (self_s("repair.plan"), "s"),
        "repair.apply_notice_calls": (calls("repair.apply_notice"), "count"),
        "repair.notice_sends_per_apply": (ratio(counts["kind.notice_sent"] / n, calls("repair.apply_notice")),
                                          "ratio"),
        "repair.notice_dups": (total("notices.dups") / n, "count"),
        "security.mediate_calls": (calls("security.mediate"), "count"),
        "security.mediate_self_s": (self_s("security.mediate"), "s"),
        "security.deny_frac": (ratio(total("access.denied"), total("access.audits")), "ratio"),
        "tracing.record_calls": (calls("tracing.record"), "count"),
        "tracing.record_self_s": (self_s("tracing.record"), "s"),
        "tracing.encode_s": (self_s("tracing.encode"), "s"),
        "tracing.bytes_per_event": (ratio(sum(o.nbytes for o in traced), total("events")), "B/event"),
        "metrics.compute_s": (self_s("metrics.compute"), "s"),
        "verify.verify_s": (self_s("verify.verify"), "s"),
        "scenario.load_s": (setup_scenario_s / TRACED_SETUP_REPS, "s"),
        "unattributed_s": (self_s("bench.seed"), "s"),
        "unattributed_frac": (ratio(rows["bench.seed"][2], root), "ratio"),
        **{f"layer.{layer}.self_frac": (ratio(v, root), "ratio") for layer, v in layer_self.items()},
    }


def _dig(report: dict, path: str):
    for key in path.split("."):
        report = report.get(key, 0) if isinstance(report, dict) else 0
    return report


def run_traced(wl, seed: int, tracer: spans.Tracer) -> tuple[float, Outcome]:
    """The same seed again, with every layer wrapped in spans."""
    gc.collect()
    tracer.install()
    try:
        start = perf_counter()
        result = tracer.wrap("bench.seed", wl.run_seed)(seed)
        wall = perf_counter() - start
    finally:
        tracer.uninstall()
    return wall, wl.outcome(result, hash_trace=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    run_start = perf_counter()
    try:
        mods = load_depsim()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    first_seed = args.seed * SEEDS_PER_BASE
    wl = WORKLOADS[args.workload](mods)
    wl.prepare(first_seed)
    stage = StageTimer(mods["run"])
    tracer = spans.Tracer(mods) if args.trace else None

    setup_times: list[float] = []
    setup_rows, bundled = {}, {}
    if tracer is not None:
        tracer.install()
        for _ in range(TRACED_SETUP_REPS):
            tracer.wrap("bench.setup", setup)(mods, wl.path)
        tracer.uninstall()
        setup_rows = tracer.drain()
        bundled = bundled_hashes(mods["cli"], wl.name)

    outcomes: list[Outcome] = []
    walls, sim_walls, traced_walls, traced = [], [], [], []
    hashes: dict[int, str] = {}
    rows: dict[str, list[float]] = {}
    loop_start = perf_counter()
    for seed in range(first_seed, first_seed + SEEDS_PER_BASE):
        if tracer is None:
            while not setup_times or sum(setup_times) < SETUP_SHARE * (perf_counter() - loop_start):
                setup_times.append(timed_setup(wl.path))
        try:
            wall, sim_wall, out = run_untraced(wl, seed, stage, hash_trace=tracer is not None)
            walls.append(wall)
            sim_walls.append(sim_wall)
            if tracer is not None:
                traced_wall, twin = run_traced(wl, seed, tracer)
                for name, row in tracer.drain().items():
                    acc = rows.setdefault(name, [0, 0.0, 0.0])
                    for i in range(3):
                        acc[i] += row[i]
                traced_walls.append(traced_wall)
                traced.append(twin)
                if twin.sha256 != out.sha256:
                    out.ok, out.why = False, "the traced run wrote a different depsim trace"
        except Exception:  # a seed that raises is a failed seed, not a crashed benchmark
            traceback.print_exc()
            out = Outcome(False, "raised", {})
        outcomes.append(out)
        if not out.ok:
            print(f"seed {seed}: check failed: {out.why}", file=sys.stderr)
        if out.sha256 is not None:
            hashes[seed] = out.sha256
        if len(outcomes) == 1:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        now = perf_counter()
        if now - run_start + (now - loop_start) / len(outcomes) > args.seconds:
            break

    failed = sum(not o.ok for o in outcomes)
    problems = tracer.problems() if tracer is not None else []
    for problem in problems:
        print(f"spans: {problem}", file=sys.stderr)
    info = {"failed_frac": (failed / len(outcomes), "ratio"), **model_metrics(outcomes)}
    metrics: dict[str, tuple[float, str]] = {}
    if tracer is None and walls:
        events = sum(o.report.get("events", 0) for o in outcomes)
        metrics = {
            "seed_wall_s": (statistics.median(walls), "s"),
            "seeds_per_s": (len(walls) / sum(walls), "1/s"),
            "events_per_s": (events / sum(sim_walls), "events/s"),
            "peak_mem_mb": (peak_mb, "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
    elif tracer is not None and traced:
        print("bundled seed-0 sha256: " + json.dumps(bundled))
        metrics = {
            **layer_metrics(tracer, rows, traced, setup_rows),
            "trace_overhead_frac": (sum(traced_walls) / sum(walls) - 1, "ratio"),
            "trace_hash_mismatches": (golden_mismatches(wl.name, bundled, hashes), "count"),
            **info,
        }
    print(f"seed walls s ({len(walls)} samples): " + json.dumps([round(w, 4) for w in walls]))
    if setup_times:
        print(f"set-ups s ({len(setup_times)} samples): " + json.dumps([round(t, 4) for t in setup_times]))
    print("workload seed sha256: " + json.dumps({str(k): v for k, v in hashes.items()}))
    for name, (value, unit) in {**info, **metrics}.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
