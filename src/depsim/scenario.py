"""Scenario files: schema, validation and workload expansion.

A scenario is a YAML (or JSON; YAML is a superset) document that fully
determines a run together with the master seed: topology, network
shape, component parameters, deployed services/containers/jobs, the
pattern library, scripted workload, telemetry series, replica
misbehavior windows and fault injections. Validation is eager and
reports the path of the offending field, so a bad file fails before
the simulation starts, with an error a human can act on.
"""

from __future__ import annotations

import io
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import yaml

from .analysis import AnalysisParams, COMPARATORS, Pattern, Sequence, Threshold, Trend
from .containers import Alternative, ContainerSpec, JobSpec, Replica, ServiceSpec, Strategy
from .membership import ClusterTopology, DetectorParams
from .repair import DEFAULT_POLICY, PortScript, ServicePorts
from .security import OPERATIONS, ObjectEntry, Rule, Subject
from .sim import Crash, Partition, Recover, SetLoss

FaultDirective = Crash | Recover | SetLoss | Partition

# Most scripted events (invocations, accesses, telemetry) one scenario
# may expand to; a larger file fails to load instead of exhausting memory.
MAX_EXPANDED_EVENTS = 1_000_000

# Most (node, member) pairs all clusters together may hold, the sum of
# each cluster's size squared: every node keeps a heartbeat row with its
# own history of arrival gaps for each member of its cluster, about 1 KB
# per pair.
MAX_CLUSTER_PAIRS = 250_000

# Deepest nesting of mappings and sequences a scenario file may have. The
# YAML composers build a document recursively: the Python one runs out of
# stack after about a thousand levels and libyaml's crashes the process
# after some tens of thousands, so the depth is checked on the parser's
# events before a document is composed.
MAX_NESTING = 64

# libyaml's loader is about ten times faster than the pure-Python one.
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


class ScenarioError(Exception):
    """Invalid scenario file; ``path`` points at the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


# --- component configuration not owned by a component module -------------------


@dataclass(frozen=True)
class ForecastSpec:
    source: str
    metric: str
    k: int
    horizon: int
    threshold: float
    cmp: str = ">"
    period: int = 20
    start: int = 0
    fault_class: str | None = None

    def __post_init__(self) -> None:
        if self.cmp not in COMPARATORS:
            raise ValueError(f"unknown comparator {self.cmp!r}")


@dataclass(frozen=True)
class BehaviorWindow:
    """Scripted replica misbehavior for (host, service) in [start, stop)."""

    host: str
    service_id: str
    kind: str  # corrupt | slow
    start: int
    stop: int
    value: str | None = None
    delay: int = 0


@dataclass(frozen=True)
class RepairConfig:
    retry_interval: int
    retry_max: int = 20
    policy: tuple[tuple[str, str], ...] = tuple(DEFAULT_POLICY.items())


# --- scripted events (already expanded to single occurrences) -----------------


@dataclass(frozen=True)
class InvokeEvent:
    at: int
    client: str
    container: str
    request: str


@dataclass(frozen=True)
class AccessEvent:
    at: int
    node: str
    request_id: str
    subject: str
    object_id: str
    op: str


@dataclass(frozen=True)
class PolicyEvent:
    at: int
    node: str
    action: str  # insert | remove
    index: int
    rule: Rule | None


@dataclass(frozen=True)
class TelemetryEvent:
    at: int
    node: str
    source: str
    metric: str
    value: float


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    until: int
    base_latency: int
    jitter: int
    loss: float
    topology: ClusterTopology
    detector: DetectorParams
    analysis: AnalysisParams
    repair: RepairConfig
    ports: ServicePorts
    services: dict[str, ServiceSpec]
    containers: tuple[ContainerSpec, ...]
    alternatives: tuple[Alternative, ...]
    jobs: tuple[JobSpec, ...]
    patterns: tuple[Pattern, ...]
    forecasts: tuple[ForecastSpec, ...]
    behaviors: tuple[BehaviorWindow, ...]
    subjects: dict[str, Subject]
    objects: dict[str, ObjectEntry]
    rules: tuple[Rule, ...]
    invocations: tuple[InvokeEvent, ...]
    accesses: tuple[AccessEvent, ...]
    policy_updates: tuple[PolicyEvent, ...]
    telemetry: tuple[TelemetryEvent, ...]
    faults: tuple[FaultDirective, ...]


# --- low-level field access ----------------------------------------------------

_MISSING = object()


def _fail(path: str, message: str) -> None:
    raise ScenarioError(path, message)


class _Expansion:
    """Running total of expanded scripted events, checked against
    MAX_EXPANDED_EVENTS before each entry is expanded."""

    def __init__(self) -> None:
        self.total = 0

    def take(self, n: int, path: str) -> None:
        self.total += n
        if self.total > MAX_EXPANDED_EVENTS:
            _fail(path, f"scripted events would reach {self.total}, above the limit of {MAX_EXPANDED_EVENTS}")


def _range_len(start: int, stop: int, step: int) -> int:
    """len(range(start, stop, step)) for step >= 1, without the C-size
    limit of ``len`` on a range."""
    return max(0, -((start - stop) // step))


def _field(data: dict, path: str, key: str, default=_MISSING):
    if not isinstance(data, dict):
        _fail(path, f"expected a mapping, got {type(data).__name__}")
    if key in data:
        return data[key]
    if default is _MISSING:
        _fail(f"{path}.{key}", "required field is missing")
    return default


def _str(data: dict, path: str, key: str, default=_MISSING) -> str:
    v = _field(data, path, key, default)
    if v is default and default is not _MISSING:
        return v
    if not isinstance(v, str) or not v:
        _fail(f"{path}.{key}", f"expected a non-empty string, got {v!r}")
    return v


def _int(data: dict, path: str, key: str, default=_MISSING, minimum: int | None = None) -> int:
    v = _field(data, path, key, default)
    if not isinstance(v, int) or isinstance(v, bool):
        _fail(f"{path}.{key}", f"expected an integer, got {v!r}")
    if minimum is not None and v < minimum:
        _fail(f"{path}.{key}", f"must be >= {minimum}, got {v}")
    return v


def _num(data: dict, path: str, key: str, default=_MISSING, lo: float | None = None, hi: float | None = None) -> float:
    v = _field(data, path, key, default)
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        _fail(f"{path}.{key}", f"expected a finite number, got {v!r}")
    v = float(v)
    if lo is not None and v < lo:
        _fail(f"{path}.{key}", f"must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        _fail(f"{path}.{key}", f"must be <= {hi}, got {v}")
    return v


def _bool(data: dict, path: str, key: str, default=_MISSING) -> bool:
    v = _field(data, path, key, default)
    if not isinstance(v, bool):
        _fail(f"{path}.{key}", f"expected a boolean, got {v!r}")
    return v


def _list(data: dict, path: str, key: str, default=_MISSING) -> list:
    v = _field(data, path, key, default)
    if not isinstance(v, list):
        _fail(f"{path}.{key}", f"expected a list, got {type(v).__name__}")
    return v


def _map(data: dict, path: str, key: str, default=_MISSING) -> dict:
    v = _field(data, path, key, default)
    if not isinstance(v, dict):
        _fail(f"{path}.{key}", f"expected a mapping, got {type(v).__name__}")
    return v


def _choice(data: dict, path: str, key: str, allowed: tuple, default=_MISSING) -> str:
    v = _field(data, path, key, default)
    if v not in allowed:
        _fail(f"{path}.{key}", f"expected one of {sorted(allowed)}, got {v!r}")
    return v


def _ref(data: dict, path: str, key: str, known, what: str) -> str:
    """A string field that must name a known node, service or container."""
    v = _str(data, path, key)
    if v not in known:
        _fail(f"{path}.{key}", f"unknown {what} {v!r}")
    return v


def _new_id(data: dict, path: str, taken, what: str, default=_MISSING) -> str:
    """The entry's ``id``, which no earlier entry of its section may have."""
    v = _str(data, path, "id", default)
    if v in taken:
        _fail(f"{path}.id", f"duplicate {what} id {v!r}")
    return v


def _span(data: dict, path: str) -> tuple[int, int]:
    """A ``start``/``stop`` pair with start < stop."""
    start = _int(data, path, "start", minimum=0)
    stop = _int(data, path, "stop", minimum=1)
    if stop <= start:
        _fail(f"{path}.stop", f"must be > start ({start}), got {stop}")
    return start, stop


@contextmanager
def _checked(path: str):
    """Report a component's own validation error (a ValueError) at ``path``."""
    try:
        yield
    except ValueError as exc:
        _fail(path, str(exc))


# --- section parsers -------------------------------------------------------------


def _parse_topology(data: dict) -> ClusterTopology:
    clusters: dict[str, tuple[str, ...]] = {}
    parent: dict[str, str | None] = {}
    items = _list(data, "scenario", "clusters")
    if not items:
        _fail("scenario.clusters", "at least one cluster is required")
    for i, c in enumerate(items):
        path = f"clusters[{i}]"
        cid = _new_id(c, path, clusters, "cluster")
        nodes = _list(c, path, "nodes")
        if not nodes or not all(isinstance(n, str) and n for n in nodes):
            _fail(f"{path}.nodes", "expected a non-empty list of node ids")
        clusters[cid] = tuple(nodes)
        parent[cid] = _str(c, path, "parent", None)
    pairs = sum(len(members) ** 2 for members in clusters.values())
    if pairs > MAX_CLUSTER_PAIRS:
        _fail("clusters", f"clusters would hold {pairs} (node, member) pairs, above the limit of {MAX_CLUSTER_PAIRS}")
    with _checked("clusters"):
        return ClusterTopology(clusters, parent)


def _parse_detector(data: dict) -> DetectorParams:
    d = _map(data, "scenario", "detector", {})
    with _checked("detector"):
        return DetectorParams(
            gossip_interval=_int(d, "detector", "gossip_interval", 10, minimum=1),
            fanout=_int(d, "detector", "fanout", 2, minimum=1),
            window=_int(d, "detector", "window", 16, minimum=1),
            k=_num(d, "detector", "k", 4.0, lo=0.0),
            t_min=None if "t_min" not in d else _int(d, "detector", "t_min", minimum=1),
            t_max=None if "t_max" not in d else _int(d, "detector", "t_max", minimum=1),
            t_bootstrap=None if "t_bootstrap" not in d else _int(d, "detector", "t_bootstrap", minimum=1),
            t_cleanup=None if "t_cleanup" not in d else _int(d, "detector", "t_cleanup", minimum=1),
            summary_interval=_int(d, "detector", "summary_interval", 20, minimum=1),
        )


def _parse_analysis(data: dict) -> AnalysisParams:
    d = _map(data, "scenario", "analysis", {})
    with _checked("analysis"):
        return AnalysisParams(
            capacity=_int(d, "analysis", "capacity", 128, minimum=1),
            lookback=_int(d, "analysis", "lookback", 50, minimum=1),
            compare_interval=_int(d, "analysis", "compare_interval", 10, minimum=1),
        )


def _parse_repair(data: dict, base_latency: int) -> RepairConfig:
    d = _map(data, "scenario", "repair", {})
    policy = _map(d, "repair", "policy", dict(DEFAULT_POLICY))
    for fc, recipe in policy.items():
        if not isinstance(fc, str) or not isinstance(recipe, str):
            _fail("repair.policy", f"expected string -> string entries, got {fc!r}: {recipe!r}")
    return RepairConfig(
        retry_interval=_int(d, "repair", "retry_interval", 2 * base_latency, minimum=1),
        retry_max=_int(d, "repair", "retry_max", 20, minimum=0),
        policy=tuple(sorted(policy.items())),
    )


_PORT_NAMES = ("scheduler", "checkpoint_store", "index", "transfer")


def _parse_ports(data: dict) -> ServicePorts:
    d = _map(data, "scenario", "ports", {})
    scripts = {}
    for name in _PORT_NAMES:
        p = _map(d, "ports", name, {})
        path = f"ports.{name}"
        refs = _list(p, path, "fail_refs", [])
        if not all(isinstance(r, str) for r in refs):
            _fail(f"{path}.fail_refs", "expected a list of strings")
        scripts[name] = PortScript(
            latency=_int(p, path, "latency", 1, minimum=0),
            fail=_bool(p, path, "fail", False),
            fail_refs=frozenset(refs),
        )
    return ServicePorts(**scripts)


def _parse_services(data: dict) -> dict[str, ServiceSpec]:
    out: dict[str, ServiceSpec] = {}
    for i, s in enumerate(_list(data, "scenario", "services", [])):
        path = f"services[{i}]"
        sid = _new_id(s, path, out, "service")
        table = _map(s, path, "table", {})
        for k, v in table.items():
            if not isinstance(k, str) or not isinstance(v, str):
                _fail(f"{path}.table", f"expected string -> string entries, got {k!r}: {v!r}")
        default = _field(s, path, "default", None)
        if default is not None and not isinstance(default, str):
            _fail(f"{path}.default", f"expected a string or null, got {default!r}")
        out[sid] = ServiceSpec(
            service_id=sid,
            equivalence_class=_str(s, path, "class", sid),
            table=dict(table),
            default=default,
        )
    return out


def _parse_containers(
    data: dict, nodes: set[str], services: dict[str, ServiceSpec]
) -> tuple[ContainerSpec, ...]:
    out: dict[str, ContainerSpec] = {}
    for i, c in enumerate(_list(data, "scenario", "containers", [])):
        path = f"containers[{i}]"
        cid = _new_id(c, path, out, "container")
        strategy = _choice(c, path, "strategy", ("failover", "active"))
        replicas: list[Replica] = []
        for j, r in enumerate(_list(c, path, "replicas")):
            rpath = f"{path}.replicas[{j}]"
            host = _ref(r, rpath, "host", nodes, "node")
            service = _ref(r, rpath, "service", services, "service")
            replicas.append(Replica(host, service))
        classes = {services[r.service_id].equivalence_class for r in replicas}
        if len(classes) > 1:
            _fail(f"{path}.replicas", f"replicas span several equivalence classes: {sorted(classes)}")
        with _checked(path):
            out[cid] = ContainerSpec(
                container_id=cid,
                strategy=Strategy(strategy),
                timeout=_int(c, path, "timeout", minimum=1),
                replicas=tuple(replicas),
            )
    return tuple(out.values())


def _parse_alternatives(
    data: dict, nodes: set[str], services: dict[str, ServiceSpec], containers: tuple[ContainerSpec, ...]
) -> tuple[Alternative, ...]:
    by_id = {c.container_id: c for c in containers}
    out: list[Alternative] = []
    for i, a in enumerate(_list(data, "scenario", "alternatives", [])):
        path = f"alternatives[{i}]"
        cid = _ref(a, path, "container", by_id, "container")
        host = _ref(a, path, "host", nodes, "node")
        service = _ref(a, path, "service", services, "service")
        have = services[by_id[cid].replicas[0].service_id].equivalence_class
        got = services[service].equivalence_class
        if got != have:
            _fail(f"{path}.service", f"equivalence class {got!r} does not match container's {have!r}")
        out.append(Alternative(cid, host, service))
    return tuple(out)


def _parse_jobs(data: dict) -> tuple[JobSpec, ...]:
    out: dict[str, JobSpec] = {}
    for i, j in enumerate(_list(data, "scenario", "jobs", [])):
        path = f"jobs[{i}]"
        jid = _new_id(j, path, out, "job")
        ckpt = _field(j, path, "checkpoint", None)
        if ckpt is not None and not isinstance(ckpt, str):
            _fail(f"{path}.checkpoint", f"expected a string or null, got {ckpt!r}")
        out[jid] = JobSpec(jid, ckpt)
    return tuple(out.values())


def _parse_step(d: dict, path: str):
    kind = _choice(d, path, "type", ("threshold", "trend"))
    with _checked(path):
        if kind == "threshold":
            return Threshold(
                metric=_str(d, path, "metric"),
                cmp=_choice(d, path, "cmp", tuple(COMPARATORS)),
                bound=_num(d, path, "bound"),
                min_consecutive=_int(d, path, "min_consecutive", 1, minimum=1),
            )
        return Trend(
            metric=_str(d, path, "metric"),
            k=_int(d, path, "k", minimum=2),
            cmp=_choice(d, path, "cmp", tuple(COMPARATORS)),
            slope_bound=_num(d, path, "slope_bound"),
        )


def _parse_patterns(data: dict) -> tuple[Pattern, ...]:
    out: dict[str, Pattern] = {}
    for i, p in enumerate(_list(data, "scenario", "patterns", [])):
        path = f"patterns[{i}]"
        pid = _new_id(p, path, out, "pattern", f"pattern-{i}")
        pd = _map(p, path, "predicate")
        ppath = f"{path}.predicate"
        ptype = _choice(pd, ppath, "type", ("threshold", "trend", "sequence"))
        if ptype == "sequence":
            steps = [_parse_step(s, f"{ppath}.steps[{j}]") for j, s in enumerate(_list(pd, ppath, "steps"))]
            with _checked(ppath):
                predicate = Sequence(steps=tuple(steps), span=_int(pd, ppath, "span", minimum=1))
        else:
            predicate = _parse_step(pd, ppath)
        out[pid] = Pattern(
            pattern_id=pid,
            fault_class=_str(p, path, "fault_class"),
            predicate=predicate,
            confidence=_num(p, path, "confidence", 0.5, lo=0.0, hi=1.0),
            origin="predefined",
        )
    return tuple(out.values())


def _parse_forecasts(data: dict) -> tuple[ForecastSpec, ...]:
    out: list[ForecastSpec] = []
    for i, f in enumerate(_list(data, "scenario", "forecasts", [])):
        path = f"forecasts[{i}]"
        fault_class = _str(f, path, "fault_class", None)
        out.append(
            ForecastSpec(
                source=_str(f, path, "source"),
                metric=_str(f, path, "metric"),
                k=_int(f, path, "k", minimum=1),
                horizon=_int(f, path, "horizon", minimum=1),
                threshold=_num(f, path, "threshold"),
                cmp=_choice(f, path, "cmp", tuple(COMPARATORS), ">"),
                period=_int(f, path, "period", 20, minimum=1),
                start=_int(f, path, "start", 0, minimum=0),
                fault_class=fault_class,
            )
        )
    return tuple(out)


def _parse_behaviors(data: dict, nodes: set[str], services: dict[str, ServiceSpec]) -> tuple[BehaviorWindow, ...]:
    out: list[BehaviorWindow] = []
    for i, b in enumerate(_list(data, "scenario", "behaviors", [])):
        path = f"behaviors[{i}]"
        host = _ref(b, path, "host", nodes, "node")
        service = _ref(b, path, "service", services, "service")
        kind = _choice(b, path, "kind", ("corrupt", "slow"))
        start, stop = _span(b, path)
        value = _field(b, path, "value", None)
        if value is not None and not isinstance(value, str):
            _fail(f"{path}.value", f"expected a string or null, got {value!r}")
        delay = _int(b, path, "delay", 0, minimum=0)
        if kind == "slow" and delay < 1:
            _fail(f"{path}.delay", "slow behavior needs delay >= 1")
        out.append(BehaviorWindow(host, service, kind, start, stop, value, delay))
    return tuple(out)


def _parse_security(data: dict):
    sec = _map(data, "scenario", "security", {})
    subjects: dict[str, Subject] = {}
    for i, s in enumerate(_list(sec, "security", "subjects", [])):
        path = f"security.subjects[{i}]"
        sid = _new_id(s, path, subjects, "subject")
        vos = _list(s, path, "vos", [])
        if not all(isinstance(v, str) and v for v in vos):
            _fail(f"{path}.vos", "expected a list of VO names")
        subjects[sid] = Subject(sid, frozenset(vos))
    objects: dict[str, ObjectEntry] = {}
    for i, o in enumerate(_list(sec, "security", "objects", [])):
        path = f"security.objects[{i}]"
        oid = _new_id(o, path, objects, "object")
        objects[oid] = ObjectEntry(
            object_id=oid,
            owner=_str(o, path, "owner"),
            vo=_str(o, path, "vo"),
            kind=_str(o, path, "kind", "data"),
        )
    rules: list[Rule] = []
    for i, r in enumerate(_list(sec, "security", "rules", [])):
        rules.append(_parse_rule(r, f"security.rules[{i}]"))
    return subjects, objects, tuple(rules)


def _parse_rule(r: dict, path: str) -> Rule:
    ops = _list(r, path, "ops")
    for op in ops:
        if op not in OPERATIONS:
            _fail(f"{path}.ops", f"unknown operation {op!r}")
    with _checked(path):
        return Rule(
            scope=_str(r, path, "scope"),
            subject=_str(r, path, "subject"),
            object_id=_str(r, path, "object"),
            ops=frozenset(ops),
            effect=_choice(r, path, "effect", ("allow", "deny")),
        )


def _parse_workload(
    data: dict, nodes: set[str], containers: tuple[ContainerSpec, ...], until: int, expansion: _Expansion
):
    wl = _map(data, "scenario", "workload", {})
    known_containers = {c.container_id for c in containers}

    invocations: list[InvokeEvent] = []
    for i, w in enumerate(_list(wl, "workload", "invocations", [])):
        path = f"workload.invocations[{i}]"
        client = _ref(w, path, "client", nodes, "node")
        container = _ref(w, path, "container", known_containers, "container")
        request = _str(w, path, "request")
        if "at" in w:
            expansion.take(1, path)
            invocations.append(InvokeEvent(_int(w, path, "at", minimum=0), client, container, request))
            continue
        start = _int(w, path, "start", minimum=0)
        period = _int(w, path, "period", minimum=1)
        stop = _int(w, path, "stop", until, minimum=1)
        expansion.take(_range_len(start, min(stop, until), period), path)
        for at in range(start, min(stop, until), period):
            invocations.append(InvokeEvent(at, client, container, request))

    accesses: list[AccessEvent] = []
    req_seq = 0
    for i, w in enumerate(_list(wl, "workload", "accesses", [])):
        path = f"workload.accesses[{i}]"
        node = _ref(w, path, "node", nodes, "node")
        subject = _str(w, path, "subject")
        object_id = _str(w, path, "object")
        op = _choice(w, path, "op", OPERATIONS)
        at = _int(w, path, "at", minimum=0)
        count = _int(w, path, "count", 1, minimum=1)
        every = _int(w, path, "every", 1, minimum=1)
        expansion.take(count, f"{path}.count")
        for j in range(count):
            req_seq += 1
            accesses.append(AccessEvent(at + j * every, node, f"a{req_seq}", subject, object_id, op))

    policy_updates: list[PolicyEvent] = []
    for i, w in enumerate(_list(wl, "workload", "policy_updates", [])):
        path = f"workload.policy_updates[{i}]"
        node = _ref(w, path, "node", nodes, "node")
        action = _choice(w, path, "action", ("insert", "remove"))
        rule = None
        if action == "insert":
            rule = _parse_rule(_map(w, path, "rule"), f"{path}.rule")
        policy_updates.append(
            PolicyEvent(_int(w, path, "at", minimum=0), node, action, _int(w, path, "index", minimum=0), rule)
        )

    return tuple(invocations), tuple(accesses), tuple(policy_updates)


def _parse_telemetry(data: dict, nodes: set[str], expansion: _Expansion) -> tuple[TelemetryEvent, ...]:
    out: list[TelemetryEvent] = []
    for i, t in enumerate(_list(data, "scenario", "telemetry", [])):
        path = f"telemetry[{i}]"
        node = _ref(t, path, "node", nodes, "node")
        source = _str(t, path, "source")
        metric = _str(t, path, "metric")
        if "at" in t:
            expansion.take(1, path)
            out.append(TelemetryEvent(_int(t, path, "at", minimum=0), node, source, metric, _num(t, path, "value")))
            continue
        start, stop = _span(t, path)
        every = _int(t, path, "every", 1, minimum=1)
        expansion.take(_range_len(start, stop, every), path)
        ticks = range(start, stop, every)
        if "from" in t or "to" in t:
            lo = _num(t, path, "from")
            hi = _num(t, path, "to")
            span = max(len(ticks) - 1, 1)
            for j, at in enumerate(ticks):
                out.append(TelemetryEvent(at, node, source, metric, lo + (hi - lo) * j / span))
        else:
            value = _num(t, path, "value")
            for at in ticks:
                out.append(TelemetryEvent(at, node, source, metric, value))
    return tuple(out)


def _parse_faults(data: dict, nodes: set[str]) -> tuple[FaultDirective, ...]:
    out: list[FaultDirective] = []
    for i, f in enumerate(_list(data, "scenario", "faults", [])):
        path = f"faults[{i}]"
        kind = _choice(f, path, "kind", ("crash", "recover", "set_loss", "partition"))
        if kind in ("crash", "recover"):
            node = _ref(f, path, "node", nodes, "node")
            at = _int(f, path, "at", minimum=0)
            out.append(Crash(node, at) if kind == "crash" else Recover(node, at))
        elif kind == "set_loss":
            out.append(SetLoss(_num(f, path, "probability", lo=0.0, hi=1.0), _int(f, path, "at", minimum=0)))
        else:
            a = _list(f, path, "a")
            b = _list(f, path, "b")
            for side, label in ((a, "a"), (b, "b")):
                if not side or not all(isinstance(n, str) and n in nodes for n in side):
                    _fail(f"{path}.{label}", "expected a non-empty list of known node ids")
            if set(a) & set(b):
                _fail(f"{path}.b", "partition sides overlap")
            start, stop = _span(f, path)
            out.append(Partition(frozenset(a), frozenset(b), start, stop))
    return tuple(out)


# --- entry points -----------------------------------------------------------------


def parse_scenario(data, default_name: str = "scenario", until: int | None = None) -> Scenario:
    """Validate a scenario document. A given ``until`` replaces the
    file's end tick, which open-ended periodic entries expand up to."""
    if not isinstance(data, dict):
        _fail("scenario", f"expected a mapping at the top level, got {type(data).__name__}")
    name = _str(data, "scenario", "name", default_name)
    seed = _int(data, "scenario", "seed", 0, minimum=0)
    file_until = _int(data, "scenario", "until", minimum=1)
    until = file_until if until is None else until

    net = _map(data, "scenario", "network", {})
    base_latency = _int(net, "network", "base_latency", 1, minimum=1)
    jitter = _int(net, "network", "jitter", 0, minimum=0)
    loss = _num(net, "network", "loss", 0.0, lo=0.0, hi=1.0)

    topology = _parse_topology(data)
    nodes = set(topology.nodes())
    services = _parse_services(data)
    containers = _parse_containers(data, nodes, services)
    alternatives = _parse_alternatives(data, nodes, services, containers)
    subjects, objects, rules = _parse_security(data)
    expansion = _Expansion()
    invocations, accesses, policy_updates = _parse_workload(data, nodes, containers, until, expansion)

    return Scenario(
        name=name,
        seed=seed,
        until=until,
        base_latency=base_latency,
        jitter=jitter,
        loss=loss,
        topology=topology,
        detector=_parse_detector(data),
        analysis=_parse_analysis(data),
        repair=_parse_repair(data, base_latency),
        ports=_parse_ports(data),
        services=services,
        containers=containers,
        alternatives=alternatives,
        jobs=_parse_jobs(data),
        patterns=_parse_patterns(data),
        forecasts=_parse_forecasts(data),
        behaviors=_parse_behaviors(data, nodes, services),
        subjects=subjects,
        objects=objects,
        rules=rules,
        invocations=invocations,
        accesses=accesses,
        policy_updates=policy_updates,
        telemetry=_parse_telemetry(data, nodes, expansion),
        faults=_parse_faults(data, nodes),
    )


def load_scenario(path: str | Path, until: int | None = None) -> Scenario:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError("file", f"cannot read {p}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError("file", f"{p} is not valid UTF-8: {exc}") from exc
    try:
        _check_nesting(_named(text, str(p)))
        data = yaml.load(_named(text, str(p)), Loader=_LOADER)
    except yaml.YAMLError as exc:
        # PyYAML spreads a message over several lines; the CLI prints one.
        raise ScenarioError("file", "not valid YAML/JSON: " + " ".join(str(exc).split())) from exc
    return parse_scenario(data, default_name=p.stem, until=until)


def _named(text: str, name: str) -> io.StringIO:
    """The text as a stream named ``name``, so that PyYAML's error marks
    name the file, not ``"<unicode string>"``."""
    stream = io.StringIO(text)
    stream.name = name
    return stream


def _check_nesting(stream: io.StringIO) -> None:
    """Reject a document nested deeper than MAX_NESTING, stopping at the
    first collection past the limit."""
    depth = 0
    for event in yaml.parse(stream, Loader=_LOADER):
        if isinstance(event, yaml.CollectionStartEvent):
            depth += 1
            if depth > MAX_NESTING:
                line = event.start_mark.line + 1
                raise ScenarioError("file", f"line {line}: nested deeper than {MAX_NESTING} levels")
        elif isinstance(event, yaml.CollectionEndEvent):
            depth -= 1
