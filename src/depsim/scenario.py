"""Scenario files: schema, validation and workload expansion.

A scenario is a YAML (or JSON; YAML is a superset) document that fully
determines a run together with the master seed: topology, network
shape, component parameters, deployed services/containers/jobs, the
pattern library, scripted workload, telemetry series, replica
misbehavior windows and fault injections.

The schema is closed: each mapping of the document has one table of its
keys (``_DETECTOR`` for ``detector`` and so on), a fault, a predicate, a
telemetry feed, an invocation and a policy update one per variant, and
``_read`` rejects a key its table does not name before it reads a field.
Only ``repair.policy`` and a service's ``table`` are free-form. The
section parsers keep the rules across fields. Validation is eager and
reports the path of the offending field, so a bad file fails before the
simulation starts, with an error a human can act on.
"""

from __future__ import annotations

import io
import math
from collections.abc import Iterator
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


# --- values: a validator takes a value in the file, its path and its bounds -------

_REQUIRED = object()  # the default of a key that must be present


def _fail(path: str, message: str) -> None:
    raise ScenarioError(path, message)


def _str(v, path: str) -> str:
    if not isinstance(v, str) or not v:
        _fail(path, f"expected a non-empty string, got {v!r}")
    return v


def _opt_str(v, path: str) -> str | None:
    """A non-empty string or null."""
    return v if v is None else _str(v, path)


def _text(v, path: str) -> str | None:
    """Any string or null."""
    if v is not None and not isinstance(v, str):
        _fail(path, f"expected a string or null, got {v!r}")
    return v


def _int(v, path: str, minimum: int | None = None) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        _fail(path, f"expected an integer, got {v!r}")
    if minimum is not None and v < minimum:
        _fail(path, f"must be >= {minimum}, got {v}")
    return v


def _num(v, path: str, lo: float | None = None, hi: float | None = None) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        _fail(path, f"expected a finite number, got {v!r}")
    v = float(v)
    if lo is not None and v < lo:
        _fail(path, f"must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        _fail(path, f"must be <= {hi}, got {v}")
    return v


def _bool(v, path: str) -> bool:
    if not isinstance(v, bool):
        _fail(path, f"expected a boolean, got {v!r}")
    return v


def _list(v, path: str) -> list:
    if not isinstance(v, list):
        _fail(path, f"expected a list, got {type(v).__name__}")
    return v


def _map(v, path: str) -> dict:
    if not isinstance(v, dict):
        _fail(path, f"expected a mapping, got {type(v).__name__}")
    return v


def _choice(v, path: str, allowed: tuple) -> str:
    if v not in allowed:
        _fail(path, f"expected one of {sorted(allowed)}, got {v!r}")
    return v


def _strmap(v, path: str) -> dict:
    """A free-form mapping of strings to strings."""
    for key, value in _map(v, path).items():
        if not isinstance(key, str) or not isinstance(value, str):
            _fail(path, f"expected string -> string entries, got {key!r}: {value!r}")
    return v


def _strings(v, path: str) -> frozenset[str]:
    if not all(isinstance(s, str) for s in _list(v, path)):
        _fail(path, "expected a list of strings")
    return frozenset(v)


# --- the schema: one table per mapping ----------------------------------------------
#
# key -> (validator, default or _REQUIRED, *bounds). An absent key takes
# its default as it stands. A default of None for a value that may not be
# null stands for one derived from other fields: the file's name for
# ``name``, twice the base latency for ``repair.retry_interval``, the id
# for a service's ``class``, ``pattern-<index>`` for a pattern's ``id``,
# ``until`` for a periodic invocation's ``stop``, and DetectorParams'
# own rules for ``t_min``, ``t_max``, ``t_bootstrap`` and ``t_cleanup``.

_SCENARIO = {
    "name": (_str, None),
    "seed": (_int, 0, 0),
    "until": (_int, _REQUIRED, 1),
    "network": (_map, {}),
    "clusters": (_list, _REQUIRED),
    "detector": (_map, {}),
    "analysis": (_map, {}),
    "repair": (_map, {}),
    "ports": (_map, {}),
    "services": (_list, []),
    "containers": (_list, []),
    "alternatives": (_list, []),
    "jobs": (_list, []),
    "patterns": (_list, []),
    "forecasts": (_list, []),
    "behaviors": (_list, []),
    "security": (_map, {}),
    "workload": (_map, {}),
    "telemetry": (_list, []),
    "faults": (_list, []),
}
_NETWORK = {"base_latency": (_int, 1, 1), "jitter": (_int, 0, 0), "loss": (_num, 0.0, 0.0, 1.0)}
_CLUSTER = {"id": (_str, _REQUIRED), "nodes": (_list, _REQUIRED), "parent": (_opt_str, None)}
_DETECTOR = {
    "gossip_interval": (_int, 10, 1),
    "fanout": (_int, 2, 1),
    "window": (_int, 16, 1),
    "k": (_num, 4.0, 0.0),
    "t_min": (_int, None, 1),
    "t_max": (_int, None, 1),
    "t_bootstrap": (_int, None, 1),
    "t_cleanup": (_int, None, 1),
    "summary_interval": (_int, 20, 1),
}
_ANALYSIS = {"capacity": (_int, 128, 1), "lookback": (_int, 50, 1), "compare_interval": (_int, 10, 1)}
_REPAIR = {"retry_interval": (_int, None, 1), "retry_max": (_int, 20, 0), "policy": (_strmap, DEFAULT_POLICY)}
_PORTS = dict.fromkeys(("scheduler", "checkpoint_store", "index", "transfer"), (_map, {}))
_PORT = {"latency": (_int, 1, 0), "fail": (_bool, False), "fail_refs": (_strings, frozenset())}
_SERVICE = {"id": (_str, _REQUIRED), "class": (_str, None), "table": (_strmap, {}), "default": (_text, None)}
_CONTAINER = {
    "id": (_str, _REQUIRED),
    "strategy": (_choice, _REQUIRED, ("failover", "active")),
    "timeout": (_int, _REQUIRED, 1),
    "replicas": (_list, _REQUIRED),
}
_REPLICA = {"host": (_str, _REQUIRED), "service": (_str, _REQUIRED)}
_ALTERNATIVE = {"container": (_str, _REQUIRED), **_REPLICA}
_JOB = {"id": (_str, _REQUIRED), "checkpoint": (_text, None)}
_PATTERN = {
    "id": (_str, None),
    "fault_class": (_str, _REQUIRED),
    "predicate": (_map, _REQUIRED),
    "confidence": (_num, 0.5, 0.0, 1.0),
}
_STEP = {"metric": (_str, _REQUIRED), "cmp": (_choice, _REQUIRED, tuple(COMPARATORS))}
_STEPS = {
    "threshold": {**_STEP, "bound": (_num, _REQUIRED), "min_consecutive": (_int, 1, 1)},
    "trend": {**_STEP, "k": (_int, _REQUIRED, 2), "slope_bound": (_num, _REQUIRED)},
}
_PREDICATES = {**_STEPS, "sequence": {"steps": (_list, _REQUIRED), "span": (_int, _REQUIRED, 1)}}
_FORECAST = {
    "source": (_str, _REQUIRED),
    "metric": (_str, _REQUIRED),
    "k": (_int, _REQUIRED, 1),
    "horizon": (_int, _REQUIRED, 1),
    "threshold": (_num, _REQUIRED),
    "cmp": (_choice, ">", tuple(COMPARATORS)),
    "period": (_int, 20, 1),
    "start": (_int, 0, 0),
    "fault_class": (_opt_str, None),
}
_SPAN = {"start": (_int, _REQUIRED, 0), "stop": (_int, _REQUIRED, 1)}
_BEHAVIOR = {
    **_REPLICA,
    "kind": (_choice, _REQUIRED, ("corrupt", "slow")),
    **_SPAN,
    "value": (_text, None),
    "delay": (_int, 0, 0),
}
_SECURITY = {"subjects": (_list, []), "objects": (_list, []), "rules": (_list, [])}
_SUBJECT = {"id": (_str, _REQUIRED), "vos": (_list, [])}
_OBJECT = {"id": (_str, _REQUIRED), "owner": (_str, _REQUIRED), "vo": (_str, _REQUIRED), "kind": (_str, "data")}
_RULE = {
    "scope": (_str, _REQUIRED),
    "subject": (_str, _REQUIRED),
    "object": (_str, _REQUIRED),
    "ops": (_list, _REQUIRED),
    "effect": (_choice, _REQUIRED, ("allow", "deny")),
}
_WORKLOAD = {"invocations": (_list, []), "accesses": (_list, []), "policy_updates": (_list, [])}
_AT = {"at": (_int, _REQUIRED, 0)}
_INVOKE = {"client": (_str, _REQUIRED), "container": (_str, _REQUIRED), "request": (_str, _REQUIRED)}
_INVOKE_AT = {**_INVOKE, **_AT}
_INVOKE_PERIODIC = {**_INVOKE, "start": (_int, _REQUIRED, 0), "period": (_int, _REQUIRED, 1), "stop": (_int, None, 1)}
_ACCESS = {
    "node": (_str, _REQUIRED),
    "subject": (_str, _REQUIRED),
    "object": (_str, _REQUIRED),
    "op": (_choice, _REQUIRED, OPERATIONS),
    **_AT,
    "count": (_int, 1, 1),
    "every": (_int, 1, 1),
}
_REMOVE = {"node": (_str, _REQUIRED), **_AT, "index": (_int, _REQUIRED, 0)}
_POLICY_UPDATES = {"insert": {**_REMOVE, "rule": (_map, _REQUIRED)}, "remove": _REMOVE}
_FEED = {"node": (_str, _REQUIRED), "source": (_str, _REQUIRED), "metric": (_str, _REQUIRED)}
_TICKS = {**_FEED, **_SPAN, "every": (_int, 1, 1)}
_TELEMETRY_AT = {**_FEED, **_AT, "value": (_num, _REQUIRED)}
_TELEMETRY_SERIES = {**_TICKS, "value": (_num, _REQUIRED)}
_TELEMETRY_RAMP = {**_TICKS, "from": (_num, _REQUIRED), "to": (_num, _REQUIRED)}
_NODE_AT = {"node": (_str, _REQUIRED), **_AT}
_FAULTS = {
    "crash": _NODE_AT,
    "recover": _NODE_AT,
    "set_loss": {"probability": (_num, _REQUIRED, 0.0, 1.0), **_AT},
    "partition": {"a": (_list, _REQUIRED), "b": (_list, _REQUIRED), **_SPAN},
}


# --- reading a mapping through its table ---------------------------------------------


def _read(data, path: str, table: dict) -> dict:
    """The fields of the mapping ``data`` at ``path``, key by key in
    ``table`` order. A key the table does not name fails before any
    field is read; an absent key takes its default, or fails when it is
    _REQUIRED."""
    for key in _map(data, path):
        if key not in table:
            _fail(f"{path}.{key}", f"unknown key (known: {', '.join(sorted(table))})")
    fields = {}
    for key, (check, default, *bounds) in table.items():
        if key in data:
            fields[key] = check(data[key], f"{path}.{key}", *bounds)
        elif default is _REQUIRED:
            _fail(f"{path}.{key}", "required field is missing")
        else:
            fields[key] = default
    return fields


def _variant(data, path: str, key: str, tables: dict[str, dict]) -> tuple[str, dict]:
    """The value of ``data``'s ``key``, which names its table in ``tables``,
    and the other fields read through that table and ``key``."""
    if key not in _map(data, path):
        _fail(f"{path}.{key}", "required field is missing")
    choice = _choice(data[key], f"{path}.{key}", tuple(tables))
    fields = _read(data, path, {key: (_str, _REQUIRED), **tables[choice]})
    del fields[key]
    return choice, fields


def _entries(items: list, path: str, table: dict) -> Iterator[tuple[str, dict]]:
    """(path, fields) of each mapping of the list ``items`` at ``path``."""
    for i, item in enumerate(items):
        yield f"{path}[{i}]", _read(item, f"{path}[{i}]", table)


# --- checks on fields already read -----------------------------------------------------


def _ref(fields: dict, path: str, key: str, known, what: str) -> str:
    """Field ``key``, which must name a known node, service or container."""
    v = fields[key]
    if v not in known:
        _fail(f"{path}.{key}", f"unknown {what} {v!r}")
    return v


def _new_id(v: str, path: str, taken, what: str) -> str:
    """The entry's ``id``, which no earlier entry of its section may have."""
    if v in taken:
        _fail(f"{path}.id", f"duplicate {what} id {v!r}")
    return v


def _span(fields: dict, path: str) -> tuple[int, int]:
    """The ``start``/``stop`` pair, which must have start < stop."""
    start, stop = fields["start"], fields["stop"]
    if stop <= start:
        _fail(f"{path}.stop", f"must be > start ({start}), got {stop}")
    return start, stop


class _Expansion:
    """Running total of expanded scripted events, checked against
    MAX_EXPANDED_EVENTS before each entry is expanded."""

    def __init__(self) -> None:
        self.total = 0

    def take(self, n: int, path: str) -> None:
        self.total += n
        if self.total > MAX_EXPANDED_EVENTS:
            _fail(path, f"scripted events would reach {self.total}, above the limit of {MAX_EXPANDED_EVENTS}")


def _range_len(ticks: range) -> int:
    """len(ticks) for a step >= 1, without the C-size limit of ``len`` on
    a range."""
    return max(0, -((ticks.start - ticks.stop) // ticks.step))


@contextmanager
def _checked(path: str):
    """Report a component's own validation error (a ValueError) at ``path``."""
    try:
        yield
    except ValueError as exc:
        _fail(path, str(exc))


# --- the rules across fields -----------------------------------------------------------


def _parse_topology(items: list) -> ClusterTopology:
    if not items:
        _fail("scenario.clusters", "at least one cluster is required")
    clusters: dict[str, tuple[str, ...]] = {}
    parent: dict[str, str | None] = {}
    for path, c in _entries(items, "clusters", _CLUSTER):
        cid = _new_id(c["id"], path, clusters, "cluster")
        if not c["nodes"] or not all(isinstance(n, str) and n for n in c["nodes"]):
            _fail(f"{path}.nodes", "expected a non-empty list of node ids")
        clusters[cid] = tuple(c["nodes"])
        parent[cid] = c["parent"]
    pairs = sum(len(members) ** 2 for members in clusters.values())
    if pairs > MAX_CLUSTER_PAIRS:
        _fail("clusters", f"clusters would hold {pairs} (node, member) pairs, above the limit of {MAX_CLUSTER_PAIRS}")
    with _checked("clusters"):
        return ClusterTopology(clusters, parent)


def _parse_services(items: list) -> dict[str, ServiceSpec]:
    out: dict[str, ServiceSpec] = {}
    for path, s in _entries(items, "services", _SERVICE):
        sid, cls, table, default = s.values()
        out[_new_id(sid, path, out, "service")] = ServiceSpec(sid, cls or sid, dict(table), default)
    return out


def _parse_containers(top: dict, nodes: set[str], services: dict[str, ServiceSpec]):
    """The containers and their spares, the alternatives."""
    out: dict[str, ContainerSpec] = {}
    for path, c in _entries(top["containers"], "containers", _CONTAINER):
        cid = _new_id(c["id"], path, out, "container")
        replicas = tuple(
            Replica(_ref(r, rpath, "host", nodes, "node"), _ref(r, rpath, "service", services, "service"))
            for rpath, r in _entries(c["replicas"], f"{path}.replicas", _REPLICA)
        )
        classes = {services[r.service_id].equivalence_class for r in replicas}
        if len(classes) > 1:
            _fail(f"{path}.replicas", f"replicas span several equivalence classes: {sorted(classes)}")
        with _checked(path):
            out[cid] = ContainerSpec(cid, Strategy(c["strategy"]), c["timeout"], replicas)
    alternatives: list[Alternative] = []
    for path, a in _entries(top["alternatives"], "alternatives", _ALTERNATIVE):
        cid = _ref(a, path, "container", out, "container")
        host = _ref(a, path, "host", nodes, "node")
        service = _ref(a, path, "service", services, "service")
        have = services[out[cid].replicas[0].service_id].equivalence_class
        got = services[service].equivalence_class
        if got != have:
            _fail(f"{path}.service", f"equivalence class {got!r} does not match container's {have!r}")
        alternatives.append(Alternative(cid, host, service))
    return tuple(out.values()), tuple(alternatives)


_PREDICATE_TYPES = {"threshold": Threshold, "trend": Trend, "sequence": Sequence}


def _parse_predicate(data, path: str, tables: dict[str, dict]):
    kind, fields = _variant(data, path, "type", tables)
    if kind == "sequence":
        steps = enumerate(fields["steps"])
        fields["steps"] = tuple(_parse_predicate(s, f"{path}.steps[{j}]", _STEPS) for j, s in steps)
    with _checked(path):
        return _PREDICATE_TYPES[kind](**fields)


def _parse_patterns(items: list) -> tuple[Pattern, ...]:
    out: dict[str, Pattern] = {}
    for i, (path, p) in enumerate(_entries(items, "patterns", _PATTERN)):
        pid = _new_id(p["id"] or f"pattern-{i}", path, out, "pattern")
        predicate = _parse_predicate(p["predicate"], f"{path}.predicate", _PREDICATES)
        out[pid] = Pattern(pid, p["fault_class"], predicate, p["confidence"], origin="predefined")
    return tuple(out.values())


def _parse_behaviors(items: list, nodes: set[str], services: dict[str, ServiceSpec]) -> tuple[BehaviorWindow, ...]:
    out: list[BehaviorWindow] = []
    for path, b in _entries(items, "behaviors", _BEHAVIOR):
        _ref(b, path, "host", nodes, "node")
        _ref(b, path, "service", services, "service")
        _span(b, path)
        window = BehaviorWindow(*b.values())
        if window.kind == "slow" and window.delay < 1:
            _fail(f"{path}.delay", "slow behavior needs delay >= 1")
        out.append(window)
    return tuple(out)


def _parse_security(data):
    sec = _read(data, "security", _SECURITY)
    subjects: dict[str, Subject] = {}
    for path, s in _entries(sec["subjects"], "security.subjects", _SUBJECT):
        sid = _new_id(s["id"], path, subjects, "subject")
        if not all(isinstance(v, str) and v for v in s["vos"]):
            _fail(f"{path}.vos", "expected a list of VO names")
        subjects[sid] = Subject(sid, frozenset(s["vos"]))
    objects: dict[str, ObjectEntry] = {}
    for path, o in _entries(sec["objects"], "security.objects", _OBJECT):
        objects[_new_id(o["id"], path, objects, "object")] = ObjectEntry(*o.values())
    rules = tuple(_parse_rule(r, f"security.rules[{i}]") for i, r in enumerate(sec["rules"]))
    return subjects, objects, rules


def _parse_rule(data, path: str) -> Rule:
    r = _read(data, path, _RULE)
    for op in r["ops"]:
        if op not in OPERATIONS:
            _fail(f"{path}.ops", f"unknown operation {op!r}")
    with _checked(path):
        return Rule(r["scope"], r["subject"], r["object"], frozenset(r["ops"]), r["effect"])


def _parse_workload(data, nodes: set[str], containers: tuple[ContainerSpec, ...], until: int, expansion: _Expansion):
    wl = _read(data, "workload", _WORKLOAD)
    known_containers = {c.container_id for c in containers}

    invocations: list[InvokeEvent] = []
    for i, w in enumerate(wl["invocations"]):
        path = f"workload.invocations[{i}]"
        w = _read(w, path, _INVOKE_AT if "at" in _map(w, path) else _INVOKE_PERIODIC)
        client = _ref(w, path, "client", nodes, "node")
        container = _ref(w, path, "container", known_containers, "container")
        if "at" in w:
            ticks = range(w["at"], w["at"] + 1)
        else:
            ticks = range(w["start"], min(w["stop"] or until, until), w["period"])
        expansion.take(_range_len(ticks), path)
        invocations += (InvokeEvent(at, client, container, w["request"]) for at in ticks)

    accesses: list[AccessEvent] = []
    for path, w in _entries(wl["accesses"], "workload.accesses", _ACCESS):
        _ref(w, path, "node", nodes, "node")
        node, subject, object_id, op, at, count, every = w.values()
        expansion.take(count, f"{path}.count")
        for j in range(count):
            accesses.append(AccessEvent(at + j * every, node, f"a{len(accesses) + 1}", subject, object_id, op))

    policy_updates: list[PolicyEvent] = []
    for i, w in enumerate(wl["policy_updates"]):
        path = f"workload.policy_updates[{i}]"
        action, w = _variant(w, path, "action", _POLICY_UPDATES)
        rule = _parse_rule(w["rule"], f"{path}.rule") if action == "insert" else None
        policy_updates.append(PolicyEvent(w["at"], _ref(w, path, "node", nodes, "node"), action, w["index"], rule))

    return tuple(invocations), tuple(accesses), tuple(policy_updates)


def _parse_telemetry(items: list, nodes: set[str], expansion: _Expansion) -> tuple[TelemetryEvent, ...]:
    out: list[TelemetryEvent] = []
    for i, t in enumerate(items):
        path = f"telemetry[{i}]"
        if "at" in _map(t, path):
            shape = _TELEMETRY_AT
        else:
            shape = _TELEMETRY_RAMP if "from" in t or "to" in t else _TELEMETRY_SERIES
        fields = _read(t, path, shape)
        node = _ref(fields, path, "node", nodes, "node")
        source, metric = fields["source"], fields["metric"]
        if shape is _TELEMETRY_AT:
            ticks = range(fields["at"], fields["at"] + 1)
        else:
            ticks = range(*_span(fields, path), fields["every"])
        expansion.take(_range_len(ticks), path)
        if shape is _TELEMETRY_RAMP:
            lo, hi = fields["from"], fields["to"]
            span = max(len(ticks) - 1, 1)
            out += (TelemetryEvent(at, node, source, metric, lo + (hi - lo) * j / span) for j, at in enumerate(ticks))
        else:
            out += (TelemetryEvent(at, node, source, metric, fields["value"]) for at in ticks)
    return tuple(out)


def _parse_faults(items: list, nodes: set[str]) -> tuple[FaultDirective, ...]:
    out: list[FaultDirective] = []
    for i, f in enumerate(items):
        path = f"faults[{i}]"
        kind, fields = _variant(f, path, "kind", _FAULTS)
        if kind in ("crash", "recover"):
            node = _ref(fields, path, "node", nodes, "node")
            out.append((Crash if kind == "crash" else Recover)(node, fields["at"]))
        elif kind == "set_loss":
            out.append(SetLoss(**fields))
        else:
            a, b = fields["a"], fields["b"]
            for side, label in ((a, "a"), (b, "b")):
                if not side or not all(isinstance(n, str) and n in nodes for n in side):
                    _fail(f"{path}.{label}", "expected a non-empty list of known node ids")
            if set(a) & set(b):
                _fail(f"{path}.b", "partition sides overlap")
            out.append(Partition(frozenset(a), frozenset(b), *_span(fields, path)))
    return tuple(out)


# --- entry points -----------------------------------------------------------------


def parse_scenario(data, default_name: str = "scenario", until: int | None = None) -> Scenario:
    """Validate a scenario document. A given ``until`` replaces the
    file's end tick, which open-ended periodic entries expand up to."""
    if not isinstance(data, dict):
        _fail("scenario", f"expected a mapping at the top level, got {type(data).__name__}")
    top = _read(data, "scenario", _SCENARIO)
    until = top["until"] if until is None else until
    net = _read(top["network"], "network", _NETWORK)

    topology = _parse_topology(top["clusters"])
    nodes = set(topology.nodes())
    services = _parse_services(top["services"])
    containers, alternatives = _parse_containers(top, nodes, services)
    subjects, objects, rules = _parse_security(top["security"])
    expansion = _Expansion()
    invocations, accesses, policy_updates = _parse_workload(top["workload"], nodes, containers, until, expansion)

    with _checked("detector"):
        detector = DetectorParams(**_read(top["detector"], "detector", _DETECTOR))
    repair = _read(top["repair"], "repair", _REPAIR)
    policy = tuple(sorted(repair["policy"].items()))
    ports = _read(top["ports"], "ports", _PORTS)
    jobs: dict[str, JobSpec] = {}
    for path, j in _entries(top["jobs"], "jobs", _JOB):
        jobs[_new_id(j["id"], path, jobs, "job")] = JobSpec(j["id"], j["checkpoint"])

    return Scenario(
        name=top["name"] or default_name,
        seed=top["seed"],
        until=until,
        **net,
        topology=topology,
        detector=detector,
        analysis=AnalysisParams(**_read(top["analysis"], "analysis", _ANALYSIS)),
        repair=RepairConfig(repair["retry_interval"] or 2 * net["base_latency"], repair["retry_max"], policy),
        ports=ServicePorts(**{name: PortScript(**_read(p, f"ports.{name}", _PORT)) for name, p in ports.items()}),
        services=services,
        containers=containers,
        alternatives=alternatives,
        jobs=tuple(jobs.values()),
        patterns=_parse_patterns(top["patterns"]),
        forecasts=tuple(ForecastSpec(**f) for _, f in _entries(top["forecasts"], "forecasts", _FORECAST)),
        behaviors=_parse_behaviors(top["behaviors"], nodes, services),
        subjects=subjects,
        objects=objects,
        rules=rules,
        invocations=invocations,
        accesses=accesses,
        policy_updates=policy_updates,
        telemetry=_parse_telemetry(top["telemetry"], nodes, expansion),
        faults=_parse_faults(top["faults"], nodes),
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
