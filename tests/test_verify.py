"""Trace invariant checks: clean runs pass, corrupted traces are caught
by the right check."""

from collections import namedtuple

from conftest import base_scenario, entries, run
from hypothesis import example, given, settings
from hypothesis import strategies as st

from depsim.metrics import compute_metrics
from depsim.tracing import dump_jsonl, read_rows
from depsim.verify import verify_trace


def entry(t, kind, node, **detail):
    return (t, kind, node, detail)


def checks(violations):
    return [v.check for v in violations]


# --- crash isolation ---------------------------------------------------------------


def test_crashed_node_must_stay_silent():
    trace = [
        entry(10, "crash", "b"),
        entry(12, "drop", "b", reason="target_crashed", src="a", msg="M", msg_id=1),  # harness-side: fine
        entry(15, "send", "b", dst="a", msg="M", msg_id=2),  # not fine
        entry(20, "recover", "b"),
        entry(25, "send", "b", dst="a", msg="M", msg_id=3),  # fine again
        entry(26, "deliver", "a", src="b", msg="M", msg_id=3, sent_at=25),
    ]
    vs = verify_trace(trace)
    assert checks(vs) == ["crash-isolation"]
    assert vs[0].at == 15 and vs[0].node == "b"


# --- causality ---------------------------------------------------------------------


def test_delivery_without_send():
    trace = [entry(5, "deliver", "b", src="a", msg="M", msg_id=9, sent_at=4)]
    vs = verify_trace(trace)
    assert checks(vs) == ["causality"] and "without a prior send" in vs[0].message


def test_double_delivery():
    trace = [
        entry(1, "send", "a", dst="b", msg="M", msg_id=1),
        entry(2, "deliver", "b", src="a", msg="M", msg_id=1, sent_at=1),
        entry(3, "deliver", "b", src="a", msg="M", msg_id=1, sent_at=1),
    ]
    vs = verify_trace(trace)
    assert checks(vs) == ["causality"] and "twice" in vs[0].message


def test_latency_floor_respected():
    trace = [
        entry(1, "send", "a", dst="b", msg="M", msg_id=1),
        entry(2, "deliver", "b", src="a", msg="M", msg_id=1, sent_at=1),
    ]
    assert verify_trace(trace, base_latency=1) == []
    assert checks(verify_trace(trace, base_latency=3)) == ["causality"]


def test_sent_at_mismatch():
    trace = [
        entry(1, "send", "a", dst="b", msg="M", msg_id=1),
        entry(4, "deliver", "b", src="a", msg="M", msg_id=1, sent_at=2),
    ]
    vs = verify_trace(trace)
    assert checks(vs) == ["causality"] and "sent_at" in vs[0].message


# --- exactly once ------------------------------------------------------------------


def test_duplicate_application_flagged():
    trace = [
        entry(5, "notice_applied", "b", notice="n1", origin=False),
        entry(9, "notice_applied", "b", notice="n1", origin=False),
    ]
    vs = verify_trace(trace)
    assert checks(vs) == ["exactly-once"] and vs[0].at == 9


def test_reapplication_after_crash_is_legal():
    # a restarted node lost its dedup memory; applying again is correct
    trace = [
        entry(5, "notice_applied", "b", notice="n1", origin=False),
        entry(7, "crash", "b"),
        entry(8, "recover", "b"),
        entry(12, "notice_applied", "b", notice="n1", origin=False),
    ]
    assert verify_trace(trace) == []


def test_same_notice_fine_on_different_nodes():
    trace = [
        entry(5, "notice_applied", "b", notice="n1", origin=False),
        entry(5, "notice_applied", "c", notice="n1", origin=False),
    ]
    assert verify_trace(trace) == []


# --- suspicion transitions ------------------------------------------------------------


def test_legal_lifecycle_passes():
    trace = [
        entry(10, "suspect", "a", peer="b", gap=31),
        entry(20, "refute", "a", peer="b", rejoin=False),
        entry(30, "suspect", "a", peer="b", gap=40),
        entry(60, "remove", "a", peer="b"),
        entry(90, "refute", "a", peer="b", rejoin=True),
    ]
    assert verify_trace(trace) == []


def test_illegal_transitions_flagged():
    double_suspect = [
        entry(10, "suspect", "a", peer="b", gap=31),
        entry(12, "suspect", "a", peer="b", gap=33),
    ]
    vs = verify_trace(double_suspect)
    assert checks(vs) == ["suspicion-transitions"] and "while suspected" in vs[0].message

    cold_remove = [entry(10, "remove", "a", peer="b")]
    assert checks(verify_trace(cold_remove)) == ["suspicion-transitions"]

    cold_refute = [entry(10, "refute", "a", peer="b", rejoin=False)]
    assert checks(verify_trace(cold_refute)) == ["suspicion-transitions"]


def test_observer_crash_resets_its_detector_state():
    trace = [
        entry(10, "suspect", "a", peer="b", gap=31),
        entry(15, "crash", "a"),
        entry(20, "recover", "a"),
        entry(30, "suspect", "a", peer="b", gap=50),  # fresh detector, legal
    ]
    assert verify_trace(trace) == []


def test_one_violation_does_not_cascade():
    trace = [
        entry(10, "remove", "a", peer="b"),  # illegal from alive
        entry(20, "refute", "a", peer="b", rejoin=True),  # legal from (resynced) removed
    ]
    assert len(verify_trace(trace)) == 1


# --- mediation completeness ------------------------------------------------------------


def test_unaudited_access_flagged():
    trace = [entry(5, "access", "a", request="r1", subject="u", object="o", op="read")]
    vs = verify_trace(trace)
    assert checks(vs) == ["mediation-completeness"] and "never audited" in vs[0].message


def test_orphan_and_duplicate_audits_flagged():
    orphan = [entry(5, "audit", "a", request="rX", subject="u", object="o", op="read", decision="deny", reason="", matched_rule="", policy_version=1)]
    assert "unseen request" in verify_trace(orphan)[0].message

    dup = [
        entry(5, "access", "a", request="r1", subject="u", object="o", op="read"),
        entry(5, "audit", "a", request="r1", subject="u", object="o", op="read", decision="allow", reason="", matched_rule="", policy_version=1),
        entry(6, "audit", "a", request="r1", subject="u", object="o", op="read", decision="allow", reason="", matched_rule="", policy_version=1),
    ]
    assert "audited twice" in verify_trace(dup)[0].message


# --- hierarchy soundness -----------------------------------------------------------------


def test_hierarchy_checks_need_topology():
    scn = base_scenario(
        clusters=[
            {"id": "top", "nodes": ["a", "b"], "parent": None},
            {"id": "leaf", "nodes": ["x", "y"], "parent": "top"},
        ],
        containers=[],
        services=[],
    )
    bogus_summary = [entry(5, "summary", "a", cluster="leaf", epoch=5, alive=["x"], suspected=[])]
    # without topology the check cannot run
    assert verify_trace(bogus_summary) == []
    vs = verify_trace(bogus_summary, topology=scn.topology)
    assert checks(vs) == ["hierarchy-soundness"] and "non-member" in vs[0].message

    stray_view = [entry(5, "global_view", "x", peer="y", status="suspected")]
    vs2 = verify_trace(stray_view, topology=scn.topology)
    assert checks(vs2) == ["hierarchy-soundness"] and "root" in vs2[0].message

    fine = [
        entry(5, "summary", "x", cluster="leaf", epoch=5, alive=["x"], suspected=["y"]),
        entry(9, "global_view", "a", peer="y", status="suspected"),
    ]
    assert verify_trace(fine, topology=scn.topology) == []


# --- alert totality -------------------------------------------------------------------


def test_failed_plan_without_alert_flagged():
    trace = [entry(9, "plan_done", "a", plan="p1", ok=False)]
    vs = verify_trace(trace)
    assert checks(vs) == ["alert-totality"]
    ok = [
        entry(8, "alert_operator", "a", plan="p1", reason="r"),
        entry(9, "plan_done", "a", plan="p1", ok=False),
    ]
    assert verify_trace(ok) == []


def test_alert_only_plan_must_alert():
    trace = [
        entry(5, "plan", "a", plan="p1", subject="s", fault_class="F", actions=["alert_operator"]),
        entry(6, "plan_done", "a", plan="p1", ok=True),
    ]
    vs = verify_trace(trace)
    assert checks(vs) == ["alert-totality"] and "never alerted" in vs[0].message


# --- module errors -------------------------------------------------------------------


def test_module_errors_surface():
    trace = [entry(5, "module_error", "a", error="boom", where="on_timer")]
    vs = verify_trace(trace)
    assert checks(vs) == ["module-errors"] and vs[0].message == "boom"


# --- clean end-to-end runs pass everything ------------------------------------------------


def test_live_run_produces_clean_trace():
    scn = base_scenario(
        faults=[
            {"kind": "crash", "node": "b", "at": 150},
            {"kind": "recover", "node": "b", "at": 350},
        ],
        workload={
            "invocations": [
                {"client": "a", "container": "store", "request": "get", "start": 10, "period": 20}
            ],
            "accesses": [
                {"node": "a", "subject": "alice", "object": "dataset", "op": "read", "at": 30, "count": 5, "every": 50}
            ],
        },
    )
    r = run(scn)
    raw = r.trace
    assert verify_trace(raw, base_latency=scn.base_latency, topology=scn.topology) == []


def test_live_lossy_run_is_clean_too():
    scn = base_scenario(network={"base_latency": 2, "jitter": 3, "loss": 0.2})
    r = run(scn, seed=11)
    assert verify_trace(r.trace, base_latency=2, topology=scn.topology) == []


@st.composite
def random_runs(draw):
    """A tree of one to three clusters of one to three nodes, a failover
    container on the first cluster, and a random schedule of crashes,
    recoveries, loss changes and partitions."""
    n_clusters = draw(st.integers(1, 3))
    clusters, nodes = [], []
    for c in range(n_clusters):
        members = [f"n{c}{i}" for i in range(draw(st.integers(1, 3)))]
        parent = None if c == 0 else f"c{draw(st.integers(0, c - 1))}"
        clusters.append({"id": f"c{c}", "nodes": members, "parent": parent})
        nodes += members
    until = 300
    times = st.integers(0, until - 1)
    crashes = st.fixed_dictionaries({"kind": st.sampled_from(["crash", "recover"]), "node": st.sampled_from(nodes), "at": times})
    losses = st.fixed_dictionaries({"kind": st.just("set_loss"), "probability": st.sampled_from([0.0, 0.1, 0.3, 0.6]), "at": times})
    faults = draw(st.lists(st.one_of(crashes, losses), max_size=6))
    if len(nodes) > 1:
        side = draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=len(nodes) - 1, unique=True))
        start = draw(times)
        stop = draw(st.integers(start + 1, until))
        faults.append({"kind": "partition", "a": side, "b": [n for n in nodes if n not in side], "start": start, "stop": stop})
    hosts = clusters[0]["nodes"]
    return base_scenario(
        until=until,
        network={"base_latency": draw(st.integers(1, 3)), "jitter": draw(st.integers(0, 2)), "loss": 0.0},
        clusters=clusters,
        detector={"gossip_interval": 5, "t_min": 15, "t_bootstrap": 50, "t_cleanup": 100, "summary_interval": 10},
        containers=[{"id": "store", "strategy": "failover", "timeout": 10,
                     "replicas": [{"host": h, "service": f"kv{i + 1}"} for i, h in enumerate(hosts)]}],
        workload={"invocations": [{"client": nodes[-1], "container": "store", "request": "get", "start": 10, "period": 25}]},
        faults=faults,
    ), draw(st.integers(0, 2**16))


@settings(max_examples=60, deadline=None)
@given(random_runs())
def test_random_topologies_and_fault_schedules_verify_clean(case):
    scn, seed = case
    trace = run(scn, seed=seed).trace
    assert verify_trace(trace, base_latency=scn.base_latency, topology=scn.topology) == []


# --- tuple details and the mappings they stand for give the same verdict -------------


def mapped(rows):
    """The rows with every detail the mapping its JSONL line holds."""
    return [(e["t"], e["kind"], e["node"], e["detail"]) for e in entries(rows)]


def assert_tuples_agree_with_mappings(rows, scn, tmp_dir):
    """verify_trace and compute_metrics give the same results on the rows
    as given, on the rows read back from their JSONL file (where every
    send, deliver and drop detail that fits its layout is a tuple) and on
    the rows with every detail a mapping."""
    path = str(tmp_dir / "trace.jsonl")
    dump_jsonl(rows, path)
    assert any(type(row[3]) is tuple for row in read_rows(path))
    as_mappings = mapped(rows)
    expected = verify_trace(as_mappings, scn.base_latency, scn.topology)
    assert expected, "the trace should break at least one check"
    report = compute_metrics(as_mappings, scn)
    for form in (lambda: rows, lambda: read_rows(path)):
        assert verify_trace(form(), scn.base_latency, scn.topology) == expected
        assert compute_metrics(form(), scn) == report


# Breaks every check, with crash/recover/suspect/remove and workload
# entries in it for the metrics report.
HAND_CORRUPTED = [
    entry(1, "send", "a", dst="b", msg="M", msg_id=1),
    entry(2, "deliver", "b", src="a", msg="M", msg_id=1, sent_at=1),
    entry(3, "deliver", "b", src="a", msg="M", msg_id=1, sent_at=1),
    entry(4, "deliver", "b", src="a", msg="M", msg_id=7, sent_at=3),
    entry(5, "send", "a", dst="c", msg="M", msg_id=2),
    entry(6, "deliver", "c", src="a", msg="M", msg_id=2, sent_at=4),
    entry(10, "crash", "b"),
    entry(10, "suspect", "a", peer="b", gap=31),
    entry(11, "suspect", "a", peer="b", gap=32),
    entry(12, "send", "b", dst="a", msg="M", msg_id=3),
    entry(20, "remove", "c", peer="b"),
    entry(25, "recover", "b"),
    entry(30, "notice_applied", "c", notice="n1", origin=True),
    entry(31, "notice_applied", "c", notice="n1", origin=False),
    entry(40, "access", "a", request="r1", subject="u", object="o", op="read"),
    entry(41, "access", "a", request="r1", subject="u", object="o", op="read"),
    entry(42, "audit", "a", request="r2", subject="u", object="o", op="read", decision="deny", reason="", matched_rule="", policy_version=1),
    entry(50, "summary", "a", cluster="leaf", epoch=5, alive=["x"], suspected=[]),
    entry(51, "global_view", "x", peer="y", status="suspected"),
    entry(60, "plan", "a", plan="p1", subject="s", fault_class="F", actions=["alert_operator"]),
    entry(61, "plan_done", "a", plan="p2", ok=False),
    entry(62, "invoke_done", "a", container="store", outcome="success", latency=4),
    entry(70, "module_error", "c", error="boom", where="on_timer"),
]


def test_hand_corrupted_trace_gives_same_verdict_on_rows(tmp_path):
    """The trace holds every detail as a mapping; read back from its file,
    its send, deliver and drop details are tuples."""
    scn = base_scenario(
        network={"base_latency": 2, "jitter": 0, "loss": 0.0},
        clusters=[{"id": "top", "nodes": ["a", "b", "c"], "parent": None}, {"id": "leaf", "nodes": ["x", "y"], "parent": "top"}],
        containers=[],
        services=[],
    )
    assert [(v.check, v.message, v.at, v.node) for v in verify_trace(HAND_CORRUPTED, 2, scn.topology)] == [
    ('crash-isolation', 'send entry from crashed node', 12, 'b'),
    ('causality', 'msg_id 1 delivered after 1 ticks, base latency is 2', 2, 'b'),
    ('causality', 'msg_id 1 delivered twice', 3, 'b'),
    ('causality', 'delivery of msg_id 7 without a prior send', 4, 'b'),
    ('causality', 'msg_id 2 sent_at 4 != send time 5', 6, 'c'),
    ('exactly-once', 'notice n1 applied twice at the same node', 31, 'c'),
    ('suspicion-transitions', 'suspect on peer b while suspected', 11, 'a'),
    ('suspicion-transitions', 'remove on peer b while alive', 20, 'c'),
    ('mediation-completeness', 'duplicate access request id r1', 41, 'a'),
    ('mediation-completeness', 'audit for unseen request r2', 42, 'a'),
    ('mediation-completeness', 'access r1 was never audited', 41, 'a'),
    ('hierarchy-soundness', 'summary for leaf from non-member', 50, 'a'),
    ('hierarchy-soundness', 'global view entry outside the root cluster', 51, 'x'),
    ('alert-totality', 'alert-only plan p1 never alerted', 60, 'a'),
    ('alert-totality', 'failed plan p2 raised no alert', 61, 'a'),
    ('module-errors', 'boom', 70, 'c'),
    ]
    assert_tuples_agree_with_mappings(HAND_CORRUPTED, scn, tmp_path)


@st.composite
def mutated_runs(draw):
    """A clean random run's trace rows, with the simulator's tuple
    details, after a few random edits, a wrong or missing ``sent_at`` in
    one delivery, and the insertion of a delivery that no send precedes."""
    scn, seed = draw(random_runs())
    rows = list(run(scn, seed=seed).trace)
    nodes = scn.topology.nodes()
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(rows) - 1))
        t, kind, node, detail = rows[i]
        edit = draw(st.sampled_from(["drop", "copy", "swap", "node", "tick"]))
        if edit == "drop":
            del rows[i]
        elif edit == "copy":
            rows.insert(i, rows[i])
        elif edit == "swap" and i + 1 < len(rows):
            rows[i], rows[i + 1] = rows[i + 1], rows[i]
        elif edit == "node":
            rows[i] = (t, kind, draw(st.sampled_from(nodes)), detail)
        elif edit == "tick":
            rows[i] = (max(0, t + draw(st.integers(-5, 5))), kind, node, detail)
    delivers = [i for i, row in enumerate(rows) if row[1] == "deliver" and type(row[3]) is tuple]
    if delivers:
        i = draw(st.sampled_from(delivers))
        t, kind, node, (src, msg, msg_id, sent_at) = rows[i]
        if draw(st.booleans()):
            rows[i] = (t, kind, node, (src, msg, msg_id, sent_at + draw(st.sampled_from([-1, 1]))))
        else:
            # A detail mapping without sent_at, as record() keeps it.
            rows[i] = (t, kind, node, {"src": src, "msg": msg, "msg_id": msg_id})
    i = draw(st.integers(0, len(rows) - 1))
    rows.insert(i, (rows[i][0], "deliver", draw(st.sampled_from(nodes)), ("?", "M", -1, 0)))
    return scn, rows


@settings(max_examples=40, deadline=None)
@given(mutated_runs())
def test_mutated_traces_give_same_verdict_on_rows(tmp_path_factory, case):
    scn, rows = case
    assert_tuples_agree_with_mappings(rows, scn, tmp_path_factory.mktemp("rows"))


# --- one pass against the nine-pass reference --------------------------------------------
#
# The checks as they were before verify_trace became one pass: one replay
# of the rows per check, two in _ref_alert_totality, and a crash handler
# in each of the three checks that forget a crashed node's state.

_RefViolation = namedtuple("_RefViolation", "check message at node")


def _ref_crash_isolation(rows):
    out = []
    crashed = set()
    for t, kind, node, _ in rows:
        if kind == "crash":
            crashed.add(node)
            continue
        if kind == "recover":
            crashed.discard(node)
            continue
        if node in crashed and kind != "drop":
            out.append(_RefViolation("crash-isolation", f"{kind} entry from crashed node", t, node))
    return out


def _ref_causality(rows, base_latency):
    out = []
    sent_at = {}
    delivered = set()
    for t, kind, node, detail in rows:
        if kind == "send":
            sent_at[detail.get("msg_id")] = t
        elif kind == "deliver":
            msg_id = detail.get("msg_id")
            send_t = sent_at.get(msg_id)
            if send_t is None:
                out.append(_RefViolation("causality", f"delivery of msg_id {msg_id} without a prior send", t, node))
                continue
            if msg_id in delivered:
                out.append(_RefViolation("causality", f"msg_id {msg_id} delivered twice", t, node))
                continue
            delivered.add(msg_id)
            claimed = detail.get("sent_at")
            if claimed != send_t:
                out.append(_RefViolation("causality", f"msg_id {msg_id} sent_at {claimed} != send time {send_t}", t, node))
            elif t < send_t + base_latency:
                message = f"msg_id {msg_id} delivered after {t - send_t} ticks, base latency is {base_latency}"
                out.append(_RefViolation("causality", message, t, node))
    return out


def _ref_exactly_once(rows):
    out = []
    applied = {}
    for t, kind, node, detail in rows:
        if kind == "crash":
            applied.pop(node, None)
        elif kind == "notice_applied":
            notice = detail["notice"]
            seen = applied.setdefault(node, set())
            if notice in seen:
                out.append(_RefViolation("exactly-once", f"notice {notice} applied twice at the same node", t, node))
            seen.add(notice)
    return out


_REF_LEGAL = {
    ("alive", "suspect"): "suspected",
    ("suspected", "refute"): "alive",
    ("suspected", "remove"): "removed",
    ("removed", "refute"): "alive",
}


def _ref_suspicion_transitions(rows):
    out = []
    state = {}
    for t, kind, node, detail in rows:
        if kind == "crash":
            for key in [k for k in state if k[0] == node]:
                del state[key]
            continue
        if kind not in ("suspect", "refute", "remove"):
            continue
        key = (node, detail["peer"])
        cur = state.get(key, "alive")
        nxt = _REF_LEGAL.get((cur, kind))
        if nxt is None:
            out.append(_RefViolation("suspicion-transitions", f"{kind} on peer {key[1]} while {cur}", t, node))
            nxt = {"suspect": "suspected", "refute": "alive", "remove": "removed"}[kind]
        state[key] = nxt
    return out


def _ref_mediation_completeness(rows):
    out = []
    accesses = {}
    audited = set()
    for t, kind, node, detail in rows:
        if kind == "access":
            rid = detail["request"]
            if rid in accesses:
                out.append(_RefViolation("mediation-completeness", f"duplicate access request id {rid}", t, node))
            accesses[rid] = (t, node)
        elif kind == "audit":
            rid = detail["request"]
            if rid in audited:
                out.append(_RefViolation("mediation-completeness", f"request {rid} audited twice", t, node))
            audited.add(rid)
            if rid not in accesses:
                out.append(_RefViolation("mediation-completeness", f"audit for unseen request {rid}", t, node))
    for rid, (t, node) in accesses.items():
        if rid not in audited:
            out.append(_RefViolation("mediation-completeness", f"access {rid} was never audited", t, node))
    return out


def _ref_hierarchy_soundness(rows, topology):
    out = []
    root_members = set(topology.clusters[topology.root])
    for t, kind, node, detail in rows:
        if kind == "summary":
            cluster = detail["cluster"]
            members = topology.clusters.get(cluster)
            if members is None or node not in members:
                out.append(_RefViolation("hierarchy-soundness", f"summary for {cluster} from non-member", t, node))
        elif kind == "global_view" and node not in root_members:
            out.append(_RefViolation("hierarchy-soundness", "global view entry outside the root cluster", t, node))
    return out


def _ref_alert_totality(rows):
    out = []
    alerts_by_plan = {detail.get("plan") for _, kind, _, detail in rows if kind == "alert_operator"}
    for t, kind, node, detail in rows:
        if kind == "plan_done" and not detail["ok"]:
            if detail["plan"] not in alerts_by_plan:
                out.append(_RefViolation("alert-totality", f"failed plan {detail['plan']} raised no alert", t, node))
        elif kind == "plan" and detail["actions"] == ["alert_operator"]:
            if detail["plan"] not in alerts_by_plan:
                out.append(_RefViolation("alert-totality", f"alert-only plan {detail['plan']} never alerted", t, node))
    return out


def _ref_module_errors(rows):
    return [
        _RefViolation("module-errors", str(detail.get("error", "handler raised")), t, node)
        for t, kind, node, detail in rows
        if kind == "module_error"
    ]


def ref_verify_trace(dicts, base_latency=1, topology=None):
    """The nine-pass checks over a trace's entry dicts, as the JSONL file
    holds them."""
    rows = [(e["t"], e["kind"], e["node"], e["detail"]) for e in dicts]
    out = []
    out.extend(_ref_crash_isolation(rows))
    out.extend(_ref_causality(rows, base_latency))
    out.extend(_ref_exactly_once(rows))
    out.extend(_ref_suspicion_transitions(rows))
    out.extend(_ref_mediation_completeness(rows))
    if topology is not None:
        out.extend(_ref_hierarchy_soundness(rows, topology))
    out.extend(_ref_alert_totality(rows))
    out.extend(_ref_module_errors(rows))
    return out


def as_tuples(violations):
    """Violations as (check, message, at, node); the reference has its own
    violation type."""
    return [(v.check, v.message, v.at, v.node) for v in violations]


def assert_matches_reference(rows, base_latency, topology):
    dicts = entries(rows)
    for topo in (None, topology):
        assert as_tuples(verify_trace(rows, base_latency, topo)) == as_tuples(ref_verify_trace(dicts, base_latency, topo))


_TOPOLOGY = base_scenario(
    clusters=[{"id": "top", "nodes": ["a", "b", "c"], "parent": None}, {"id": "leaf", "nodes": ["x", "y"], "parent": "top"}],
    containers=[],
    services=[],
).topology
_NODES = ["a", "b", "c", "x", "y", None]


def _ids(prefix):
    return st.sampled_from([f"{prefix}{i}" for i in range(3)])


@st.composite
def random_rows(draw):
    """Rows of every kind a check reads, plus drops and a kind no check
    reads, over small pools of nodes, message, notice, request and plan
    ids so that ids repeat. Crashes and recovers interleave freely (a node
    may crash twice or recover while up), plans, their outcomes and
    alerts come in any order, summaries may name a cluster the topology
    lacks, and send/deliver details are tuples or mappings, with or
    without sent_at. A tuple's node fields are strings, as the recorder's
    are."""
    node = st.sampled_from(_NODES)
    named = st.sampled_from(_NODES[:-1])
    msg_id = st.integers(0, 4)
    details = {
        "crash": st.just({}),
        "recover": st.just({}),
        "drop": st.builds(lambda m: {"reason": "loss", "src": "a", "msg": "M", "msg_id": m}, msg_id),
        "send": st.one_of(
            st.tuples(named, st.just("M"), msg_id),
            st.builds(lambda d, m: {"dst": d, "msg": "M", "msg_id": m}, node, msg_id),
        ),
        "deliver": st.one_of(
            st.tuples(named, st.just("M"), msg_id, st.integers(0, 30)),
            st.builds(lambda s, m: {"src": s, "msg": "M", "msg_id": m}, node, msg_id),
        ),
        "notice_applied": st.fixed_dictionaries({"notice": _ids("n"), "origin": st.booleans()}),
        "suspect": st.fixed_dictionaries({"peer": node}),
        "refute": st.fixed_dictionaries({"peer": node, "rejoin": st.booleans()}),
        "remove": st.fixed_dictionaries({"peer": node}),
        "access": st.fixed_dictionaries({"request": _ids("r")}),
        "audit": st.fixed_dictionaries({"request": _ids("r")}),
        "summary": st.fixed_dictionaries({"cluster": st.sampled_from(["top", "leaf", "nowhere"])}),
        "global_view": st.fixed_dictionaries({"peer": node}),
        "alert_operator": st.fixed_dictionaries({"plan": _ids("p")}),
        "plan": st.fixed_dictionaries(
            {"plan": _ids("p"), "actions": st.sampled_from([["alert_operator"], ["restart"], ["restart", "alert_operator"]])}
        ),
        "plan_done": st.fixed_dictionaries({"plan": _ids("p"), "ok": st.booleans()}),
        "module_error": st.one_of(st.just({}), st.fixed_dictionaries({"error": st.just("boom")})),
        "invoke_done": st.just({"container": "store", "outcome": "success"}),
    }
    t, rows = 0, []
    for _ in range(draw(st.integers(0, 40))):
        t += draw(st.integers(0, 3))
        kind = draw(st.sampled_from(sorted(details)))
        rows.append((t, kind, draw(node), draw(details[kind])))
    return rows, draw(st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(random_rows())
@example(([(5, "plan_done", "a", {"plan": "p1", "ok": False}), (6, "alert_operator", "a", {"plan": "p1"})], 1))  # alert after its plan
@example(  # a duplicated access id that is never audited
    ([(1, "access", "a", {"request": "r1"}), (2, "access", "b", {"request": "r2"}), (3, "access", "c", {"request": "r1"})], 1)
)
@example(  # a notice re-applied after a crash
    (
        [
            (5, "notice_applied", "b", {"notice": "n1", "origin": False}),
            (7, "crash", "b", {}),
            (8, "recover", "b", {}),
            (12, "notice_applied", "b", {"notice": "n1", "origin": False}),
        ],
        1,
    )
)
@example(  # an observer crashes with a suspicion open
    (
        [
            (10, "suspect", "a", {"peer": "b"}),
            (15, "crash", "a", {}),
            (20, "recover", "a", {}),
            (30, "suspect", "a", {"peer": "b"}),
            (31, "remove", "a", {"peer": "b"}),
        ],
        1,
    )
)
def test_one_pass_matches_nine_pass_reference_on_random_rows(case):
    rows, base_latency = case
    assert_matches_reference(rows, base_latency, _TOPOLOGY)


@settings(max_examples=40, deadline=None)
@given(mutated_runs())
def test_one_pass_matches_nine_pass_reference_on_mutated_runs(case):
    scn, rows = case
    assert_matches_reference(rows, scn.base_latency, scn.topology)
