"""Outside-in span tracing for the traced benchmark run.

The tracer replaces public functions and methods of depsim's layers
with wrappers, from outside the package, and restores them afterwards.
Each call becomes one span ``(name, parent, start, end)`` kept in
memory; the parent is the span open on the stack when the call began.
A span's self time is its duration minus the durations of its direct
children, so the self times of one tree add up to its root's duration.

Spans only observe calls: arguments and results pass through
unchanged, so a traced run produces the same depsim trace as an
untraced one. The benchmark checks that byte for byte.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter


def targets(depsim: dict) -> list[tuple[str, str, object, str]]:
    """Wrap points as (layer, name, owner, attribute); the span is named
    ``<layer>.<name>``.

    A function that another module imported by name is wrapped where
    the caller looks it up, under the same span name.
    """
    sim, membership, runtime = depsim["sim"], depsim["membership"], depsim["runtime"]
    containers, analysis, repair = depsim["containers"], depsim["analysis"], depsim["repair"]
    security, tracing, metrics = depsim["security"], depsim["tracing"], depsim["metrics"]
    verify, scenario, cli = depsim["verify"], depsim["scenario"], depsim["cli"]
    Sim, Det, Node = sim.Simulator, membership.Detector, runtime.NodeRuntime
    Engine, Monitor = analysis.AnalysisEngine, security.ReferenceMonitor
    return [
        ("sim", "run_until", Sim, "run_until"),
        ("sim", "send", Sim, "send"),
        ("sim", "set_timer", Sim, "set_timer"),
        ("membership", "merge", Det, "merge"),
        ("membership", "local_tick", Det, "local_tick"),
        ("membership", "evaluate", Det, "evaluate"),
        ("membership", "summary", Det, "summarize_and_channel"),
        ("membership", "summary", Det, "apply_summaries"),
        ("membership", "summary", Det, "global_suspected"),
        ("runtime", "on_message", Node, "on_message"),
        ("runtime", "on_timer", Node, "on_timer"),
        ("runtime", "directive", Node, "issue_invocation"),
        ("runtime", "directive", Node, "mediate_access"),
        ("runtime", "directive", Node, "ingest_telemetry"),
        ("runtime", "directive", Node, "update_policy"),
        ("runtime", "directive", Node, "reset"),
        ("containers", "vote", containers, "vote"),
        ("containers", "registry", containers.ContainerRegistry, "mark_degraded"),
        ("containers", "registry", containers.ContainerRegistry, "clear_degraded"),
        ("analysis", "ingest", Engine, "ingest"),
        ("analysis", "poll", Engine, "poll"),
        ("analysis", "learn", Engine, "learn"),
        ("analysis", "forecast", runtime, "forecast_ma"),
        ("repair", "plan", repair, "plan"),
        ("repair", "ports", repair.ServicePorts, "call"),
        ("repair", "notice_for", runtime, "notice_for"),
        ("repair", "apply_notice", runtime, "apply_notice"),
        ("security", "mediate", Monitor, "mediate"),
        ("security", "policy", Monitor, "insert_rule"),
        ("security", "policy", Monitor, "remove_rule"),
        ("tracing", "record", tracing.TraceRecorder, "record"),
        ("tracing", "encode", cli, "dump_jsonl"),
        ("metrics", "compute", metrics, "compute_metrics"),
        ("metrics", "compute", cli, "compute_metrics"),
        ("verify", "verify", cli, "verify_trace"),
        ("scenario", "load", scenario, "load_scenario"),
        ("scenario", "load", cli, "load_scenario"),
        ("scenario", "parse", scenario, "parse_scenario"),
    ]


def _merge_note(args, result, counts):
    counts["digest_entries"] += len(args[1].entries)


def _poll_note(args, result, counts):
    counts["diagnoses"] += len(result)


def _record_note(args, result, counts):
    counts["kind." + args[2]] += 1


_ABSENT = object()

# Counts taken from a call's arguments or result, by attribute name.
NOTES = {"merge": _merge_note, "poll": _poll_note, "record": _record_note}


class Tracer:
    """Span recorder; ``install`` wraps the targets, ``uninstall`` restores."""

    def __init__(self, depsim: dict):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.note_errors: Counter = Counter()
        self._targets = targets(depsim)
        self.layers = tuple(dict.fromkeys(layer for layer, *_ in self._targets))
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn, note=None):
        spans, stack, counts, note_errors = self.spans, self.stack, self.counts, self.note_errors

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, parent, start, perf_counter())
                stack.pop()
            if note is not None:
                try:
                    note(args, result, counts)
                except (AttributeError, IndexError, TypeError):  # the program changed shape; problems() reports it
                    note_errors[name] += 1
            return result

        return traced

    def install(self) -> None:
        self.missing = []
        for layer, name, owner, attr in self._targets:
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._saved.append((owner, attr, vars(owner).get(attr, _ABSENT)))
            setattr(owner, attr, self.wrap(f"{layer}.{name}", fn, NOTES.get(attr)))

    def problems(self) -> list[str]:
        """Why the per-layer figures would read low: wrap targets that
        were not found, and notes that could not read a call."""
        return ([f"not found, left unwrapped: {target}" for target in self.missing]
                + [f"note failed on {n} {name} calls" for name, n in self.note_errors.items()])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def drain(self) -> dict[str, list[float]]:
        """Fold the recorded spans into {span name: [calls, total s, self s]}
        and forget them."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, parent, start, end) in enumerate(spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        spans.clear()
        return dict(out)
