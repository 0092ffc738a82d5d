"""Scenario parsing: defaults, expansion of periodic workload and
telemetry shorthand, and the error paths with their field locations."""

import copy
import json
import math
import re
import textwrap
from functools import partial
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from test_perfbench import load

from depsim import scenario
from depsim.cli import main
from depsim.scenario import ScenarioError, load_scenario, parse_scenario
from depsim.sim import Crash, Partition, Recover, SetLoss


def minimal(**overrides):
    data = {
        "until": 100,
        "clusters": [{"id": "c0", "nodes": ["a", "b"], "parent": None}],
    }
    data.update(overrides)
    return data


def err(data):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(data)
    return exc.value


# --- defaults and basics -----------------------------------------------------------


def test_minimal_scenario_defaults():
    scn = parse_scenario(minimal(), default_name="fallback")
    assert scn.name == "fallback" and scn.seed == 0 and scn.until == 100
    assert (scn.base_latency, scn.jitter, scn.loss) == (1, 0, 0.0)
    assert scn.detector.gossip_interval == 10
    assert scn.detector.t_min == 30  # derived from the gossip interval
    assert scn.analysis.capacity == 128
    assert scn.repair.retry_interval == 2  # twice the base latency
    assert dict(scn.repair.policy) == {
        "ServiceCrash": "activate-alternative",
        "JobFault": "checkpoint-reschedule",
    }
    assert scn.containers == () and scn.invocations == () and scn.faults == ()
    assert scn.topology.root == "c0"


def test_top_level_must_be_mapping():
    e = err([1, 2])
    assert e.path == "scenario"


def test_until_required():
    e = err({"clusters": [{"id": "c", "nodes": ["a"]}]})
    assert e.path == "scenario.until"
    assert "missing" in str(e)


def test_network_overrides():
    scn = parse_scenario(minimal(network={"base_latency": 3, "jitter": 2, "loss": 0.25}))
    assert (scn.base_latency, scn.jitter, scn.loss) == (3, 2, 0.25)
    assert scn.repair.retry_interval == 6


# --- topology ---------------------------------------------------------------------


def test_cluster_errors():
    assert err(minimal(clusters=[])).path == "scenario.clusters"
    assert err(minimal(clusters=[{"id": "c", "nodes": []}])).path == "clusters[0].nodes"
    assert (
        err(minimal(clusters=[{"id": "c", "nodes": ["a"]}, {"id": "c", "nodes": ["b"]}])).path
        == "clusters[1].id"
    )
    # duplicate node across clusters is caught by topology validation
    assert (
        err(minimal(clusters=[{"id": "c", "nodes": ["a"]}, {"id": "d", "nodes": ["a"], "parent": "c"}])).path
        == "clusters"
    )
    assert err(minimal(clusters=[{"id": "c", "nodes": ["a"], "parent": "ghost"}])).path == "clusters"


def test_hierarchy_parsing():
    scn = parse_scenario(
        minimal(
            clusters=[
                {"id": "top", "nodes": ["a"]},
                {"id": "mid", "nodes": ["b"], "parent": "top"},
                {"id": "leaf", "nodes": ["c"], "parent": "mid"},
            ]
        )
    )
    assert scn.topology.parent == {"top": None, "mid": "top", "leaf": "mid"}
    assert scn.topology.children("mid") == ["leaf"]


# --- detector / analysis ------------------------------------------------------------


def test_detector_field_errors():
    assert err(minimal(detector={"gossip_interval": 0})).path == "detector.gossip_interval"
    assert err(minimal(detector={"window": "big"})).path == "detector.window"
    # t_min > t_max is a cross-field constraint reported at the section
    assert err(minimal(detector={"t_min": 50, "t_max": 10})).path == "detector"


def test_analysis_section():
    scn = parse_scenario(minimal(analysis={"capacity": 4, "lookback": 9, "compare_interval": 3}))
    assert (scn.analysis.capacity, scn.analysis.lookback, scn.analysis.compare_interval) == (4, 9, 3)


# --- services and containers ---------------------------------------------------------


def services_section():
    return [
        {"id": "s1", "class": "kv", "table": {"q": "v"}},
        {"id": "s2", "class": "kv"},
        {"id": "other", "class": "blob"},
    ]


def test_service_defaults_class_to_id():
    scn = parse_scenario(minimal(services=[{"id": "solo"}]))
    assert scn.services["solo"].equivalence_class == "solo"


def test_container_validation_paths():
    base = minimal(services=services_section())
    bad_host = dict(
        base,
        containers=[{"id": "c", "strategy": "failover", "timeout": 5, "replicas": [{"host": "zz", "service": "s1"}]}],
    )
    assert err(bad_host).path == "containers[0].replicas[0].host"
    bad_service = dict(
        base,
        containers=[{"id": "c", "strategy": "failover", "timeout": 5, "replicas": [{"host": "a", "service": "zz"}]}],
    )
    assert err(bad_service).path == "containers[0].replicas[0].service"
    mixed = dict(
        base,
        containers=[
            {
                "id": "c",
                "strategy": "failover",
                "timeout": 5,
                "replicas": [{"host": "a", "service": "s1"}, {"host": "b", "service": "other"}],
            }
        ],
    )
    assert err(mixed).path == "containers[0].replicas"
    even_active = dict(
        base,
        containers=[
            {
                "id": "c",
                "strategy": "active",
                "timeout": 5,
                "replicas": [{"host": "a", "service": "s1"}, {"host": "b", "service": "s2"}],
            }
        ],
    )
    assert err(even_active).path == "containers[0]"


def test_alternative_must_match_equivalence_class():
    base = minimal(
        services=services_section(),
        containers=[{"id": "c", "strategy": "failover", "timeout": 5, "replicas": [{"host": "a", "service": "s1"}]}],
    )
    ok = parse_scenario(dict(base, alternatives=[{"container": "c", "host": "b", "service": "s2"}]))
    assert ok.alternatives[0].host == "b"
    bad = dict(base, alternatives=[{"container": "c", "host": "b", "service": "other"}])
    assert err(bad).path == "alternatives[0].service"


# --- patterns, forecasts, behaviors ---------------------------------------------------


def test_pattern_parsing_and_errors():
    scn = parse_scenario(
        minimal(
            patterns=[
                {
                    "id": "p1",
                    "fault_class": "F",
                    "predicate": {
                        "type": "sequence",
                        "span": 9,
                        "steps": [
                            {"type": "threshold", "metric": "m", "cmp": ">", "bound": 1.0},
                            {"type": "trend", "metric": "m", "cmp": ">", "k": 3, "slope_bound": 0.1},
                        ],
                    },
                }
            ]
        )
    )
    assert scn.patterns[0].predicate.span == 9
    bad_cmp = minimal(
        patterns=[{"id": "p", "fault_class": "F", "predicate": {"type": "threshold", "metric": "m", "cmp": "!!", "bound": 1}}]
    )
    assert err(bad_cmp).path == "patterns[0].predicate.cmp"
    dup = minimal(
        patterns=[
            {"id": "p", "fault_class": "F", "predicate": {"type": "threshold", "metric": "m", "cmp": ">", "bound": 1}},
            {"id": "p", "fault_class": "F", "predicate": {"type": "threshold", "metric": "m", "cmp": ">", "bound": 1}},
        ]
    )
    assert err(dup).path == "patterns[1].id"


def test_forecast_defaults():
    scn = parse_scenario(
        minimal(forecasts=[{"source": "s", "metric": "m", "k": 3, "horizon": 5, "threshold": 2.0}])
    )
    fc = scn.forecasts[0]
    assert (fc.cmp, fc.period, fc.start, fc.fault_class) == (">", 20, 0, None)


def test_behavior_validation():
    base = minimal(services=[{"id": "s1"}])
    slow_needs_delay = dict(
        base, behaviors=[{"host": "a", "service": "s1", "kind": "slow", "start": 0, "stop": 10}]
    )
    assert err(slow_needs_delay).path == "behaviors[0].delay"
    backwards = dict(
        base, behaviors=[{"host": "a", "service": "s1", "kind": "corrupt", "start": 10, "stop": 10}]
    )
    assert err(backwards).path == "behaviors[0].stop"


# --- workload expansion ----------------------------------------------------------------


def test_periodic_invocations_expand_and_clip():
    scn = parse_scenario(
        minimal(
            until=100,
            services=[{"id": "s1"}],
            containers=[{"id": "c", "strategy": "failover", "timeout": 5, "replicas": [{"host": "a", "service": "s1"}]}],
            workload={
                "invocations": [
                    {"client": "a", "container": "c", "request": "q", "start": 10, "period": 30},
                    {"client": "b", "container": "c", "request": "q", "at": 55},
                ]
            },
        )
    )
    ats = [ev.at for ev in scn.invocations]
    assert ats == [10, 40, 70, 55]  # periodic stops before until
    assert scn.invocations[3].client == "b"


def test_access_expansion_numbers_requests():
    scn = parse_scenario(
        minimal(
            security={"subjects": [{"id": "u", "vos": []}], "objects": []},
            workload={
                "accesses": [
                    {"node": "a", "subject": "u", "object": "o", "op": "read", "at": 5, "count": 3, "every": 10},
                    {"node": "b", "subject": "u", "object": "o", "op": "write", "at": 50},
                ]
            },
        )
    )
    assert [(a.at, a.request_id) for a in scn.accesses] == [(5, "a1"), (15, "a2"), (25, "a3"), (50, "a4")]
    assert scn.accesses[3].op == "write"


def test_scripted_expansion_is_capped(monkeypatch):
    base = minimal(
        services=[{"id": "s1"}],
        containers=[{"id": "c", "strategy": "failover", "timeout": 5, "replicas": [{"host": "a", "service": "s1"}]}],
        security={"subjects": [{"id": "u", "vos": []}], "objects": []},
    )
    invoke = {"client": "a", "container": "c", "request": "q", "start": 0, "period": 1}  # 100 ticks until 100
    access = {"node": "a", "subject": "u", "object": "o", "op": "read", "at": 5}
    telemetry = [{"node": "a", "source": "s", "metric": "m", "start": 0, "stop": 10, "value": 1}]

    def with_counts(n_access, **more):
        return dict(base, workload={"invocations": [invoke], "accesses": [dict(access, count=n_access)]}, **more)

    monkeypatch.setattr(scenario, "MAX_EXPANDED_EVENTS", 120)
    # the three kinds share one running total
    scn = parse_scenario(with_counts(10, telemetry=telemetry))
    assert (len(scn.invocations), len(scn.accesses), len(scn.telemetry)) == (100, 10, 10)
    assert err(with_counts(11, telemetry=telemetry)).path == "telemetry[0]"
    e = err(with_counts(21))
    assert e.path == "workload.accesses[0].count" and "121" in e.message
    monkeypatch.undo()

    # sizes are computed before anything is built
    assert err(with_counts(10**9)).path == "workload.accesses[0].count"
    assert err(dict(base, until=10**30, workload={"invocations": [invoke]})).path == "workload.invocations[0]"
    huge = [dict(telemetry[0], stop=10**30)]
    assert err(dict(base, telemetry=huge)).path == "telemetry[0]"


def test_workload_unknown_references():
    base = minimal(
        services=[{"id": "s1"}],
        containers=[{"id": "c", "strategy": "failover", "timeout": 5, "replicas": [{"host": "a", "service": "s1"}]}],
    )
    bad_client = dict(base, workload={"invocations": [{"client": "zz", "container": "c", "request": "q", "at": 1}]})
    assert err(bad_client).path == "workload.invocations[0].client"
    bad_container = dict(base, workload={"invocations": [{"client": "a", "container": "zz", "request": "q", "at": 1}]})
    assert err(bad_container).path == "workload.invocations[0].container"
    bad_op = dict(base, workload={"accesses": [{"node": "a", "subject": "u", "object": "o", "op": "rm", "at": 1}]})
    assert err(bad_op).path == "workload.accesses[0].op"


def test_policy_update_requires_rule_on_insert():
    data = minimal(workload={"policy_updates": [{"node": "a", "at": 1, "action": "insert", "index": 0}]})
    assert err(data).path == "workload.policy_updates[0].rule"
    ok = parse_scenario(
        minimal(workload={"policy_updates": [{"node": "a", "at": 1, "action": "remove", "index": 0}]})
    )
    assert ok.policy_updates[0].rule is None


# --- telemetry expansion -----------------------------------------------------------------


def test_telemetry_flat_series():
    scn = parse_scenario(
        minimal(telemetry=[{"node": "a", "source": "s", "metric": "m", "start": 10, "stop": 40, "every": 10, "value": 7}])
    )
    assert [(t.at, t.value) for t in scn.telemetry] == [(10, 7.0), (20, 7.0), (30, 7.0)]


def test_telemetry_ramp_interpolates_endpoints():
    scn = parse_scenario(
        minimal(
            telemetry=[
                {"node": "a", "source": "s", "metric": "m", "start": 0, "stop": 50, "every": 10, "from": 0, "to": 8}
            ]
        )
    )
    assert [(t.at, t.value) for t in scn.telemetry] == [(0, 0.0), (10, 2.0), (20, 4.0), (30, 6.0), (40, 8.0)]


def test_telemetry_single_shot_and_errors():
    scn = parse_scenario(minimal(telemetry=[{"node": "a", "source": "s", "metric": "m", "at": 5, "value": 1}]))
    assert scn.telemetry[0].at == 5
    assert err(minimal(telemetry=[{"node": "zz", "source": "s", "metric": "m", "at": 5, "value": 1}])).path == "telemetry[0].node"
    bad_range = minimal(
        telemetry=[{"node": "a", "source": "s", "metric": "m", "start": 9, "stop": 9, "value": 1}]
    )
    assert err(bad_range).path == "telemetry[0].stop"


# --- faults ------------------------------------------------------------------------------


def test_fault_parsing():
    scn = parse_scenario(
        minimal(
            faults=[
                {"kind": "crash", "node": "a", "at": 10},
                {"kind": "recover", "node": "a", "at": 20},
                {"kind": "set_loss", "probability": 0.5, "at": 30},
                {"kind": "partition", "a": ["a"], "b": ["b"], "start": 5, "stop": 9},
            ]
        )
    )
    crash, recover, set_loss, part = scn.faults
    assert isinstance(crash, Crash) and crash.at == 10
    assert isinstance(recover, Recover) and recover.node == "a"
    assert isinstance(set_loss, SetLoss) and set_loss.probability == 0.5
    assert isinstance(part, Partition) and part.a == frozenset({"a"})


def test_fault_errors():
    assert err(minimal(faults=[{"kind": "meteor"}])).path == "faults[0].kind"
    assert err(minimal(faults=[{"kind": "crash", "node": "zz", "at": 1}])).path == "faults[0].node"
    overlap = minimal(faults=[{"kind": "partition", "a": ["a"], "b": ["a"], "start": 1, "stop": 2}])
    assert err(overlap).path == "faults[0].b"
    assert err(minimal(faults=[{"kind": "set_loss", "probability": 1.5, "at": 1}])).path == "faults[0].probability"


# --- error paths of the shared reference, id and span rules ---------------------------------

_CONTAINER = {"id": "c", "strategy": "failover", "timeout": 5, "replicas": [{"host": "a", "service": "s1"}]}


@pytest.mark.parametrize(
    "overrides, path",
    [
        ({"alternatives": [{"container": "zz", "host": "b", "service": "s1"}]}, "alternatives[0].container"),
        ({"alternatives": [{"container": "c", "host": "zz", "service": "s1"}]}, "alternatives[0].host"),
        ({"behaviors": [{"host": "zz", "service": "s1", "kind": "corrupt", "start": 0, "stop": 5}]}, "behaviors[0].host"),
        ({"behaviors": [{"host": "a", "service": "zz", "kind": "corrupt", "start": 0, "stop": 5}]}, "behaviors[0].service"),
        ({"jobs": [{"id": "j"}, {"id": "j"}]}, "jobs[1].id"),
        ({"security": {"subjects": [{"id": "u"}, {"id": "u"}]}}, "security.subjects[1].id"),
        (
            {"security": {"objects": [{"id": "o", "owner": "u", "vo": "v"}, {"id": "o", "owner": "u", "vo": "v"}]}},
            "security.objects[1].id",
        ),
        ({"services": [{"id": "s1"}, {"id": "s1"}]}, "services[1].id"),
        ({"containers": [_CONTAINER, _CONTAINER]}, "containers[1].id"),
        ({"clusters": [{"id": "c0", "nodes": ["a"]}, {"id": "c0", "nodes": ["b"]}]}, "clusters[1].id"),
        ({"workload": {"policy_updates": [{"node": "zz", "at": 1, "action": "remove", "index": 0}]}}, "workload.policy_updates[0].node"),
        ({"faults": [{"kind": "partition", "a": ["a"], "b": ["b"], "start": 5, "stop": 5}]}, "faults[0].stop"),
        ({"clusters": [{"id": "c0", "nodes": ["a", "b"], "parent": ""}]}, "clusters[0].parent"),
        ({"forecasts": [{"source": "s", "metric": "m", "k": 3, "horizon": 5, "threshold": 2.0, "fault_class": ""}]}, "forecasts[0].fault_class"),
    ],
)
def test_reference_id_and_span_error_paths(overrides, path):
    base = minimal(services=[{"id": "s1"}], containers=[_CONTAINER])
    assert err(dict(base, **overrides)).path == path


# --- file loading ---------------------------------------------------------------------------


def test_load_yaml_file(tmp_path):
    text = textwrap.dedent(
        """
        name: from-file
        until: 50
        clusters:
          - id: c0
            nodes: [a, b]
        detector:
          gossip_interval: 5
        """
    )
    path = tmp_path / "scn.yaml"
    path.write_text(text)
    scn = load_scenario(str(path))
    assert scn.name == "from-file" and scn.detector.gossip_interval == 5


def test_load_json_file(tmp_path):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(minimal(name="json-one")))
    scn = load_scenario(str(path))
    assert scn.name == "json-one"


def test_load_defaults_name_to_filename(tmp_path):
    path = tmp_path / "my-case.yaml"
    path.write_text("until: 10\nclusters:\n  - id: c\n    nodes: [a]\n")
    assert load_scenario(str(path)).name == "my-case"


def assert_names_the_file(exc, path):
    assert f'in "{path}", line 1, column 8' in exc.value.message
    assert "<unicode string>" not in exc.value.message


def test_load_reports_yaml_syntax_error(tmp_path):
    # The nesting check's event parse meets this one first.
    path = tmp_path / "broken.yaml"
    path.write_text("until: [unclosed\n")
    with pytest.raises(ScenarioError, match="^file: not valid YAML/JSON: while parsing a flow sequence [^\n]*$") as exc:
        load_scenario(str(path))
    assert_names_the_file(exc, path)


@pytest.mark.parametrize("text", ["until: *nowhere\n", "until: !!python/name:os.system x\n"], ids=["alias", "tag"])
def test_load_reports_composer_errors_at_the_file(tmp_path, text):
    # Parser events pass these; composing the document fails.
    path = tmp_path / "broken.yaml"
    path.write_text(text)
    with pytest.raises(ScenarioError, match="^file: not valid YAML/JSON: [^\n]*$") as exc:
        load_scenario(str(path))
    assert_names_the_file(exc, path)


def test_cluster_pairs_are_bounded(tmp_path):
    # Every node keeps state for each member of its cluster, so a
    # topology costs memory in the sum of its cluster sizes squared.
    limit = scenario.MAX_CLUSTER_PAIRS
    side = math.isqrt(limit)
    assert side * side == limit

    def nodes(n, prefix="n"):
        return [f"{prefix}{i}" for i in range(n)]

    at_limit = parse_scenario(minimal(clusters=[{"id": "c0", "nodes": nodes(side)}]))
    assert len(at_limit.topology.nodes()) == side
    e = err(minimal(clusters=[{"id": "c0", "nodes": nodes(side + 1)}]))
    assert e.path == "clusters"
    assert e.message == f"clusters would hold {(side + 1) ** 2} (node, member) pairs, above the limit of {limit}"
    # The bound is on the sum over clusters: two clusters, each well
    # inside it alone, exceed it together.
    half = math.isqrt(limit // 2) + 1
    assert half * half < limit < 2 * half * half
    split = [{"id": "c0", "nodes": nodes(half, "a")}, {"id": "c1", "nodes": nodes(half, "b"), "parent": "c0"}]
    assert f"hold {2 * half * half} (node, member) pairs" in err(minimal(clusters=split)).message
    # A small file listing many nodes in one cluster fails to load
    # instead of asking the simulator for about 1 KB per pair.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(minimal(clusters=[{"id": "c0", "nodes": nodes(10_000)}])))
    with pytest.raises(ScenarioError, match=r"^clusters: clusters would hold 100000000 \(node, member\) pairs"):
        load_scenario(path)


def test_scenario_error_message_carries_path():
    e = err(minimal(until="soon"))
    assert str(e).startswith("scenario.until:")


# --- mutated scenarios ------------------------------------------------------------------------

BUNDLED = {p.stem: yaml.safe_load(p.read_text()) for p in sorted(Path(__file__).resolve().parent.parent.glob("scenarios/*.yaml"))}


def _paths(node, prefix=()):
    """Every key path into a parsed scenario document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


ODD_VALUES = st.one_of(
    st.sampled_from([None, True, "", "x", [], {}, [None], {"": None}, 0, -1, 1, 10**9, 10**30, -(10**30), 0.5, -0.5,
                     float("inf"), float("-inf"), float("nan"), 1e308]),
    st.integers(),
    st.floats(),
    st.text(max_size=3),
)


@st.composite
def mutated_scenarios(draw):
    """A bundled scenario document with one to three fields replaced by
    an odd value, deleted, or a list entry duplicated."""
    data = copy.deepcopy(BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(data))))
        *head, last = path
        parent = data
        for key in head:
            parent = parent[key]
        action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if action == "delete":
            del parent[last]
        elif action == "duplicate" and isinstance(parent, list):
            parent.insert(last, copy.deepcopy(parent[last]))
        else:
            parent[last] = draw(ODD_VALUES)
    return data


@settings(max_examples=100, deadline=None)
@given(mutated_scenarios())
def test_mutated_scenarios_raise_only_scenario_error(data):
    # A small expansion cap keeps a mutated count or period cheap to reject.
    with mock.patch.object(scenario, "MAX_EXPANDED_EVENTS", 5_000):
        try:
            parse_scenario(data)
        except ScenarioError:
            pass


# --- the closed schema ----------------------------------------------------------------------

# The two mappings whose keys are free-form strings.
FREE_FORM = re.compile(r"repair\.policy|services\[\d+\]\.table")


def table_mappings(doc):
    """(path, mapping) of every mapping of a scenario document that is
    read through a table, with its path as errors name it."""

    def walk(node, path):
        if isinstance(node, dict):
            if not FREE_FORM.fullmatch(path):
                yield path, node
            for key, child in node.items():
                yield from walk(child, key if path == "scenario" else f"{path}.{key}")
        elif isinstance(node, list):
            for i, child in enumerate(node):
                yield from walk(child, f"{path}[{i}]")

    return list(walk(doc, "scenario"))


_RULE = {"scope": "*", "subject": "u", "object": "o", "ops": ["read"], "effect": "allow"}
_STEP = {"type": "threshold", "metric": "m", "cmp": ">", "bound": 1}
_FEED = {"node": "a", "source": "s", "metric": "m"}

# A document with a mapping of every table: every section, every kind of
# list entry and every variant.
EVERY_TABLE = {
    "name": "every-table",
    "until": 50,
    "network": {"base_latency": 1},
    "clusters": [{"id": "c0", "nodes": ["a", "b"]}, {"id": "c1", "nodes": ["c"], "parent": "c0"}],
    "detector": {"gossip_interval": 5},
    "analysis": {"lookback": 10},
    "repair": {"retry_max": 3, "policy": {"ServiceCrash": "activate-alternative"}},
    "ports": {name: {"latency": 2} for name in ("scheduler", "checkpoint_store", "index", "transfer")},
    "services": [{"id": "s1", "class": "kv", "table": {"get": "v"}}, {"id": "s2", "class": "kv"}],
    "containers": [{"id": "box", "strategy": "failover", "timeout": 5, "replicas": [{"host": "b", "service": "s1"}]}],
    "alternatives": [{"container": "box", "host": "c", "service": "s2"}],
    "jobs": [{"id": "j", "checkpoint": "ck"}],
    "patterns": [
        {"fault_class": "F", "predicate": _STEP},
        {"fault_class": "F", "predicate": {"type": "trend", "metric": "m", "cmp": ">", "k": 3, "slope_bound": 1}},
        {"fault_class": "F", "predicate": {"type": "sequence", "span": 9, "steps": [_STEP, _STEP]}},
    ],
    "forecasts": [{"source": "s", "metric": "m", "k": 2, "horizon": 5, "threshold": 1}],
    "behaviors": [{"host": "b", "service": "s1", "kind": "slow", "start": 0, "stop": 9, "delay": 2}],
    "security": {
        "subjects": [{"id": "u", "vos": ["v"]}],
        "objects": [{"id": "o", "owner": "u", "vo": "v"}],
        "rules": [_RULE],
    },
    "workload": {
        "invocations": [
            {"client": "a", "container": "box", "request": "get", "at": 3},
            {"client": "a", "container": "box", "request": "get", "start": 5, "period": 10},
        ],
        "accesses": [{"node": "a", "subject": "u", "object": "o", "op": "read", "at": 4}],
        "policy_updates": [
            {"node": "a", "at": 6, "action": "insert", "index": 0, "rule": _RULE},
            {"node": "a", "at": 7, "action": "remove", "index": 0},
        ],
    },
    "telemetry": [
        {**_FEED, "at": 1, "value": 2},
        {**_FEED, "start": 0, "stop": 9, "value": 2},
        {**_FEED, "start": 0, "stop": 9, "from": 1, "to": 5},
    ],
    "faults": [
        {"kind": "crash", "node": "b", "at": 10},
        {"kind": "recover", "node": "b", "at": 20},
        {"kind": "set_loss", "probability": 0.1, "at": 5},
        {"kind": "partition", "a": ["a"], "b": ["b"], "start": 5, "stop": 9},
    ],
}
EVERY_PATH = [path for path, _ in table_mappings(EVERY_TABLE)]


def every_table():
    """EVERY_TABLE with no mapping shared between two places."""
    return json.loads(json.dumps(EVERY_TABLE))


# The keys whose value picks the table of the other keys.
SELECTORS = ("kind", "type", "action")


def test_every_table_document_loads():
    scn = parse_scenario(every_table())
    assert len(scn.patterns) == 3 and len(scn.faults) == 4 and len(scn.policy_updates) == 2
    assert "workload.policy_updates[1]" in EVERY_PATH and "patterns[2].predicate.steps[1]" in EVERY_PATH


@pytest.mark.parametrize("index", range(len(EVERY_PATH)), ids=EVERY_PATH)
def test_misspelled_key_exits_2_at_its_path(tmp_path, capsys, index):
    data = every_table()
    path, mapping = table_mappings(data)[index]
    key = max((k for k in mapping if k not in SELECTORS), key=len)
    typo = key[0] + key[2:]
    assert typo not in mapping
    mapping[typo] = mapping.pop(key)
    file = tmp_path / "typo.yaml"
    file.write_text(yaml.safe_dump(data))
    assert main(["run", "--scenario", str(file), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(f"scenario error: {path}.{typo}: unknown key (known: ")


def test_unknown_key_names_the_known_keys():
    e = err(minimal(detector={"t_mni": 5}))
    assert e.path == "detector.t_mni"
    known = "fanout, gossip_interval, k, summary_interval, t_bootstrap, t_cleanup, t_max, t_min, window"
    assert e.message == f"unknown key (known: {known})"
    assert err(minimal(detecor={})).path == "scenario.detecor"
    assert err(minimal(clusters=[{"id": "c0", "nodes": ["a"], "parnet": None}])).path == "clusters[0].parnet"
    assert err(minimal(faults=[{"kind": "crash", "node": "a", "util": 5, "at": 1}])).path == "faults[0].util"


@pytest.mark.parametrize(
    "overrides, path",
    [
        ({"workload": {"invocations": [{"client": "a", "container": "box", "request": "q", "at": 1, "period": 5}]}},
         "workload.invocations[0].period"),
        ({"workload": {"policy_updates": [{"node": "a", "at": 1, "action": "remove", "index": 0, "rule": _RULE}]}},
         "workload.policy_updates[0].rule"),
        ({"telemetry": [{**_FEED, "at": 1, "value": 2, "every": 5}]}, "telemetry[0].every"),
        ({"telemetry": [{**_FEED, "start": 0, "stop": 9, "from": 1, "to": 5, "value": 2}]}, "telemetry[0].value"),
        ({"faults": [{"kind": "set_loss", "probability": 0.1, "at": 5, "node": "a"}]}, "faults[0].node"),
        ({"patterns": [{"fault_class": "F", "predicate": {**_STEP, "k": 3}}]}, "patterns[0].predicate.k"),
    ],
)
def test_key_of_another_variant_is_unknown(overrides, path):
    base = minimal(services=[{"id": "s1"}], containers=[{**_CONTAINER, "id": "box"}])
    assert err(dict(base, **overrides)).path == path


@st.composite
def with_unknown_key(draw):
    """A bundled scenario document with one key no table names (an int, or
    text starting with x, which no schema key does) in one of its
    mappings; and the path the error must name."""
    data = copy.deepcopy(BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))])
    path, mapping = draw(st.sampled_from(table_mappings(data)))
    key = draw(st.one_of(st.integers(), st.text(max_size=6).map("x".__add__)))
    mapping[key] = draw(ODD_VALUES)
    return data, f"{path}.{key}"


@settings(max_examples=200, deadline=None)
@given(with_unknown_key())
def test_unknown_key_in_any_mapping_of_a_bundled_scenario(case):
    data, path = case
    e = err(data)
    assert (e.path, e.message.split("(")[0]) == (path, "unknown key ")


def test_readme_scenario_examples_load():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```yaml\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    for block in blocks:
        parse_scenario(yaml.safe_load(block))


def test_heal_mix_documents_load():
    healmix = load("healmix")
    for seed in range(50):
        assert parse_scenario(healmix.generate(seed)).name == f"heal-mix-{seed}"


# --- the YAML loader ---------------------------------------------------------------------------

SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F][0-9a-fA-F]{2}")


def parsed(loader, text):
    """repr of the document ``text`` parses to (NaN compares equal that
    way), or None when the loader raises."""
    try:
        return repr(yaml.load(text, Loader=loader))
    except yaml.YAMLError:
        return None


def assert_loaders_agree(text):
    """libyaml and the pure-Python loader give equal data or both raise,
    except where a known divergence explains the difference."""
    python, libyaml = parsed(yaml.SafeLoader, text), parsed(yaml.CSafeLoader, text)
    if python == libyaml:
        return
    if python is None:
        # Only libyaml takes a tab as white space between tokens.
        assert libyaml is not None and "\t" in text
    else:
        # Only the Python loader takes surrogate escapes and a U+FEFF
        # that does not open the text.
        assert libyaml is None and (SURROGATE_ESCAPE.search(text) or "\ufeff" in text[1:])


needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")


@needs_libyaml
def test_loader_is_libyaml_when_available():
    assert scenario._LOADER is yaml.CSafeLoader


@needs_libyaml
@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_loaders_agree_on_bundled_files(name):
    text = (Path(__file__).resolve().parent.parent / "scenarios" / f"{name}.yaml").read_text()
    assert parsed(yaml.CSafeLoader, text) == parsed(yaml.SafeLoader, text) is not None


@needs_libyaml
@pytest.mark.parametrize("seed", [0, 41000, 41001])
def test_loaders_agree_on_heal_mix_documents(seed):
    doc = load("healmix").generate(seed)
    for text in (json.dumps(doc), yaml.safe_dump(doc)):
        assert parsed(yaml.CSafeLoader, text) == parsed(yaml.SafeLoader, text) is not None


@needs_libyaml
@settings(max_examples=100, deadline=None)
@given(mutated_scenarios(), st.sampled_from([json.dumps, partial(json.dumps, indent="\t"), yaml.safe_dump]))
def test_loaders_agree_on_mutated_scenarios(data, dump):
    assert_loaders_agree(dump(data))


def load_text(tmp_path, text):
    path = tmp_path / "scn.yaml"
    path.write_text(text, encoding="utf-8")
    return load_scenario(path)


@needs_libyaml
def test_load_accepts_tab_separated_json(tmp_path):
    assert load_text(tmp_path, json.dumps(minimal(name="tabbed"), indent="\t")).name == "tabbed"
    assert load_text(tmp_path, '{"until":\t10, "clusters": [{"id": "c", "nodes": ["a"]}]}').until == 10


@needs_libyaml
@pytest.mark.parametrize(
    "text",
    [
        json.dumps(minimal(name="\U0001f600")),  # json.dumps writes a surrogate-pair escape
        json.dumps(minimal(name="\ud800")),
        "until: 10\n\ufeffclusters: [{id: c, nodes: [a]}]\n",
    ],
    ids=["surrogate-pair", "lone-surrogate", "bom-on-second-line"],
)
def test_load_rejects_what_libyaml_rejects(tmp_path, text):
    with pytest.raises(ScenarioError, match="^file: not valid YAML/JSON: [^\n]*$"):
        load_text(tmp_path, text)


@pytest.mark.parametrize("loader", [yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader)])
def test_load_bounds_nesting(tmp_path, loader):
    limit = scenario.MAX_NESTING
    # The top-level mapping is the first level.
    nested = "x: " + "[" * (limit - 1) + "]" * (limit - 1) + "\n"
    with mock.patch.object(scenario, "_LOADER", loader):
        # At the limit the document passes the nesting check and is read,
        # up to its unknown key.
        with pytest.raises(ScenarioError, match=r"^scenario\.x: unknown key ") as exc:
            load_text(tmp_path, "until: 10\nclusters: [{id: c, nodes: [a]}]\n" + nested)
        assert exc.value.path == "scenario.x"
        for depth in (limit + 1, 100_000):
            deep = "{a: " * depth + "1" + "}" * depth
            with pytest.raises(ScenarioError, match=f"^file: line 1: nested deeper than {limit} levels$"):
                load_text(tmp_path, deep)
