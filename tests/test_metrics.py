"""Metrics reports: recomputable from the trace, with crash windows as
ground truth for suspicion accuracy."""

import json

from conftest import base_scenario, entries, kind, run
from hypothesis import example, given, settings
from hypothesis import strategies as st

from depsim.metrics import compute_metrics
from depsim.scenario import parse_scenario
from depsim.tracing import dump_jsonl, read_rows


def entry(t, kind_, node, **detail):
    return (t, kind_, node, detail)


def test_empty_trace():
    rep = compute_metrics([])
    assert rep["events"] == 0 and rep["ticks"] == 0
    assert rep["messages"] == {"sends": 0, "delivers": 0, "drops": {}}
    assert rep["invocations"]["latency_mean"] is None


def test_suspicion_truth_against_crash_windows():
    trace = [
        entry(10, "crash", "b"),
        entry(40, "suspect", "a", peer="b", gap=30),  # true: b is down
        entry(60, "recover", "b"),
        entry(70, "suspect", "a", peer="b", gap=9),  # false: b is back
        entry(80, "refute", "a", peer="b", rejoin=True),
        entry(300, "suspect", "c", peer="d", gap=50),  # false, past warmup
    ]
    rep = compute_metrics(trace, warmup=100)
    s = rep["suspicions"]
    assert (s["total"], s["true"], s["false"]) == (3, 1, 2)
    assert s["false_after_warmup"] == 1
    assert s["rejoins"] == 1 and s["refutes"] == 1


def test_crash_records_detection_and_removal():
    trace = [
        entry(10, "crash", "b"),
        entry(42, "suspect", "a", peer="b", gap=30),
        entry(45, "suspect", "c", peer="b", gap=33),
        entry(50, "global_view", "a", peer="b", status="suspected"),
        entry(90, "remove", "a", peer="b"),
        entry(200, "recover", "b"),
        entry(300, "suspect", "a", peer="b", gap=99),  # outside the window
    ]
    rep = compute_metrics(trace, warmup=0)
    rec = rep["crashes"][0]
    assert rec["node"] == "b" and rec["at"] == 10 and rec["recovered_at"] == 200
    assert rec["first_suspect_at"] == 42
    assert rec["global_view_at"] == 50
    assert rec["removed_by"] == 1


def test_member_accounting_needs_topology():
    scn = base_scenario()
    trace = [
        entry(10, "crash", "b"),
        entry(40, "suspect", "a", peer="b", gap=30),
        entry(55, "suspect", "c", peer="b", gap=45),
    ]
    rep = compute_metrics(trace, scenario=scn)
    rec = rep["crashes"][0]
    assert rec["member_suspectors"] == 2
    assert rec["last_member_suspect_at"] == 55
    assert rec["members_silent"] == ["d"]  # a, c spoke; b is the crashed node


def test_drop_reasons_and_counts(tmp_path):
    """A drop from a hand-written file may lack its reason or carry one
    that is not a string; those count under "?"."""
    trace = [
        entry(1, "send", "a", dst="b", msg="M", msg_id=1),
        entry(2, "deliver", "b", src="a", msg="M", msg_id=1, sent_at=1),
        entry(3, "drop", "b", reason="loss", src="a", msg="M", msg_id=2),
        entry(4, "drop", "b", reason="target_crashed", src="a", msg="M", msg_id=3),
        entry(5, "drop", "b", reason="loss", src="a", msg="M", msg_id=4),
        entry(6, "drop", "b", reason=["loss"], src="a", msg="M", msg_id=5),
        entry(7, "drop", "b", reason=7, src="a", msg="M", msg_id=6),
        entry(8, "drop", "b", src="a", msg="M", msg_id=7),
    ]
    rep = compute_metrics(trace)
    assert rep["messages"] == {"sends": 1, "delivers": 1, "drops": {"?": 3, "loss": 2, "target_crashed": 1}}
    path = tmp_path / "trace.jsonl"
    dump_jsonl(trace, str(path))
    assert compute_metrics(read_rows(str(path))) == rep


def test_invocation_rollup():
    trace = [
        entry(5, "invoke_done", "a", invocation="i1", container="c", outcome="success", value="v", responders=["b"], latency=4),
        entry(9, "invoke_done", "a", invocation="i2", container="c", outcome="success", value="v", responders=["b"], latency=10),
        entry(12, "invoke_done", "a", invocation="i3", container="c", outcome="no_quorum", value=None, responders=[], latency=8),
        entry(20, "invoke_done", "a", invocation="i4", container="c", outcome="all_failed", value=None, responders=[], latency=0),
    ]
    inv = compute_metrics(trace)["invocations"]
    assert inv == {
        "total": 4,
        "success": 2,
        "no_quorum": 1,
        "all_failed": 1,
        "latency_mean": 7.0,
        "latency_max": 10,
    }


def test_notice_and_repair_rollup():
    trace = [
        entry(1, "plan", "a", plan="p1", subject="s", fault_class="F", actions=["x"]),
        entry(2, "plan_done", "a", plan="p1", ok=True),
        entry(3, "plan_done", "a", plan="p2", ok=False),
        entry(4, "alert_operator", "a", plan="p2", reason="r"),
        entry(5, "notice_applied", "a", notice="n1", origin=True),
        entry(6, "notice_applied", "b", notice="n1", origin=False),
        entry(7, "notice_dup", "c", notice="n1", src="a"),
        entry(8, "propagation_incomplete", "a", notice="n1", dst="d", retries=20),
    ]
    rep = compute_metrics(trace)
    assert rep["repair"] == {"plans": 1, "ok": 1, "failed": 1, "alerts": 1}
    assert rep["notices"] == {"created": 1, "applied": 1, "dups": 1, "incomplete": 1}


def test_access_rollup():
    trace = [
        entry(1, "access", "a", request="r1", subject="u", object="o", op="read"),
        entry(1, "audit", "a", request="r1", subject="u", object="o", op="read", decision="allow", reason="x", matched_rule="m", policy_version=1),
        entry(2, "access", "a", request="r2", subject="u", object="o", op="write"),
        entry(2, "audit", "a", request="r2", subject="u", object="o", op="write", decision="deny", reason="x", matched_rule="m", policy_version=1),
    ]
    rep = compute_metrics(trace)
    assert rep["access"] == {"requests": 2, "audits": 2, "allowed": 1, "denied": 1}


def test_warmup_defaults_to_detector_bootstrap():
    scn = base_scenario()  # t_bootstrap 50 in the shared fixture
    trace = [entry(30, "suspect", "a", peer="b", gap=20)]
    rep = compute_metrics(trace, scenario=scn)
    assert rep["suspicions"]["warmup"] == 50
    assert rep["suspicions"]["false"] == 1
    assert rep["suspicions"]["false_after_warmup"] == 0


def test_metrics_from_live_run():
    scn = base_scenario(
        faults=[{"kind": "crash", "node": "b", "at": 150}],
        workload={
            "invocations": [
                {"client": "a", "container": "store", "request": "get", "start": 10, "period": 20}
            ]
        },
    )
    r = run(scn)
    rep = compute_metrics(r.trace, scenario=scn)
    assert rep["scenario"] == "t"
    assert rep["events"] == len(r.trace)
    assert rep["messages"]["sends"] == len(kind(r.trace, "send"))
    assert rep["suspicions"]["false_after_warmup"] == 0
    rec = rep["crashes"][0]
    assert rec["node"] == "b" and rec["first_suspect_at"] is not None
    assert rec["members_silent"] == []
    assert rec["member_suspectors"] == 3
    assert rep["invocations"]["success"] == rep["invocations"]["total"]
    assert rep["module_errors"] == 0


# --- one pass against the three-pass reference ---------------------------------------------


def _ref_crash_windows(entries):
    windows = {}
    for e in entries:
        if e["kind"] == "crash":
            windows.setdefault(e["node"], []).append((e["t"], None))
        elif e["kind"] == "recover":
            spans = windows.get(e["node"])
            if spans and spans[-1][1] is None:
                spans[-1] = (spans[-1][0], e["t"])
    return windows


def _ref_down_at(windows, node, t):
    for start, stop in windows.get(node, ()):
        if start <= t and (stop is None or t < stop):
            return True
    return False


def ref_compute_metrics(entries, scenario=None, warmup=None):
    """The metrics report as it was computed before it became one pass:
    a crash-window pre-pass for suspicion truth, the main loop, and a
    second loop over ``remove`` entries for ``removed_by``."""
    if warmup is None:
        warmup = scenario.detector.t_bootstrap if scenario is not None else 0
    windows = _ref_crash_windows(entries)
    topology = scenario.topology if scenario is not None else None

    counts, drops = {}, {}
    susp_total = susp_true = susp_false = susp_false_late = 0
    refutes = rejoins = removals = 0
    inv_outcomes, latencies = {}, []
    plans_ok = plans_failed = 0
    notices_origin = notices_applied = notice_dups = notices_incomplete = 0
    audits_allow = audits_deny = 0
    crashes, suspects_by_peer, views_by_peer = [], {}, {}

    for e in entries:
        kind_ = e["kind"]
        counts[kind_] = counts.get(kind_, 0) + 1
        detail = e["detail"]
        if kind_ == "drop":
            reason = detail.get("reason")
            reason = reason if isinstance(reason, str) else "?"
            drops[reason] = drops.get(reason, 0) + 1
        elif kind_ == "crash":
            crashes.append(
                {
                    "node": e["node"],
                    "at": e["t"],
                    "recovered_at": None,
                    "first_suspect_at": None,
                    "last_member_suspect_at": None,
                    "member_suspectors": 0,
                    "members_silent": [],
                    "global_view_at": None,
                    "removed_by": 0,
                }
            )
        elif kind_ == "recover":
            for rec in reversed(crashes):
                if rec["node"] == e["node"] and rec["recovered_at"] is None:
                    rec["recovered_at"] = e["t"]
                    break
        elif kind_ == "suspect":
            susp_total += 1
            peer = detail["peer"]
            suspects_by_peer.setdefault(peer, []).append((e["t"], e["node"]))
            if _ref_down_at(windows, peer, e["t"]):
                susp_true += 1
            else:
                susp_false += 1
                if e["t"] > warmup:
                    susp_false_late += 1
        elif kind_ == "refute":
            refutes += 1
            if detail.get("rejoin"):
                rejoins += 1
        elif kind_ == "remove":
            removals += 1
        elif kind_ == "global_view":
            views_by_peer.setdefault(detail["peer"], []).append(e["t"])
        elif kind_ == "invoke_done":
            outcome = detail["outcome"]
            inv_outcomes[outcome] = inv_outcomes.get(outcome, 0) + 1
            if outcome == "success":
                latencies.append(detail["latency"])
        elif kind_ == "plan_done":
            if detail["ok"]:
                plans_ok += 1
            else:
                plans_failed += 1
        elif kind_ == "notice_applied":
            if detail.get("origin"):
                notices_origin += 1
            else:
                notices_applied += 1
        elif kind_ == "notice_dup":
            notice_dups += 1
        elif kind_ == "propagation_incomplete":
            notices_incomplete += 1
        elif kind_ == "audit":
            if detail["decision"] == "allow":
                audits_allow += 1
            else:
                audits_deny += 1

    for rec in crashes:
        stop = rec["recovered_at"]
        in_window = [
            (t, node)
            for t, node in suspects_by_peer.get(rec["node"], ())
            if rec["at"] <= t and (stop is None or t < stop)
        ]
        if in_window:
            rec["first_suspect_at"] = min(t for t, _ in in_window)
        for t in views_by_peer.get(rec["node"], ()):
            if rec["at"] <= t and (stop is None or t < stop):
                rec["global_view_at"] = t
                break
        if topology is not None:
            members = topology.clusters[topology.cluster_of[rec["node"]]]
            suspectors = {node for _, node in in_window}
            member_times = [t for t, node in in_window if node in members]
            rec["member_suspectors"] = sum(1 for m in members if m in suspectors)
            rec["last_member_suspect_at"] = max(member_times) if member_times else None
            rec["members_silent"] = sorted(
                m
                for m in members
                if m != rec["node"] and m not in suspectors and not _ref_down_at(windows, m, rec["at"])
            )
        rec["removed_by"] = 0

    if crashes:
        for e in entries:
            if e["kind"] != "remove":
                continue
            peer = e["detail"]["peer"]
            for rec in reversed(crashes):
                stop = rec["recovered_at"]
                if rec["node"] == peer and rec["at"] <= e["t"] and (stop is None or e["t"] < stop):
                    rec["removed_by"] += 1
                    break

    return {
        "scenario": scenario.name if scenario is not None else None,
        "ticks": entries[-1]["t"] if entries else 0,
        "events": len(entries),
        "messages": {
            "sends": counts.get("send", 0),
            "delivers": counts.get("deliver", 0),
            "drops": {k: drops[k] for k in sorted(drops)},
        },
        "suspicions": {
            "total": susp_total,
            "true": susp_true,
            "false": susp_false,
            "false_after_warmup": susp_false_late,
            "warmup": warmup,
            "refutes": refutes,
            "rejoins": rejoins,
            "removals": removals,
        },
        "crashes": crashes,
        "invocations": {
            "total": sum(inv_outcomes.values()),
            "success": inv_outcomes.get("success", 0),
            "no_quorum": inv_outcomes.get("no_quorum", 0),
            "all_failed": inv_outcomes.get("all_failed", 0),
            "latency_mean": round(sum(latencies) / len(latencies), 3) if latencies else None,
            "latency_max": max(latencies) if latencies else None,
        },
        "analysis": {
            "diagnoses": counts.get("diagnosis", 0),
            "predictions": counts.get("prediction", 0),
            "patterns_learned": counts.get("pattern_learned", 0),
            "records_dropped": counts.get("record_dropped", 0),
        },
        "repair": {
            "plans": counts.get("plan", 0),
            "ok": plans_ok,
            "failed": plans_failed,
            "alerts": counts.get("alert_operator", 0),
        },
        "notices": {
            "created": notices_origin,
            "applied": notices_applied,
            "dups": notice_dups,
            "incomplete": notices_incomplete,
        },
        "access": {
            "requests": counts.get("access", 0),
            "audits": counts.get("audit", 0),
            "allowed": audits_allow,
            "denied": audits_deny,
        },
        "module_errors": counts.get("module_error", 0),
    }


MEMBERSHIP_KINDS = ("crash", "recover", "suspect", "refute", "remove", "global_view")


@st.composite
def membership_traces(draw):
    """Crash, recover and membership entries over three to five nodes,
    several per tick. A node may crash again with no recover between,
    and a recover may come with no crash open. Left out is the one trace
    shape on which the reference's two crash models disagree with each
    other: a recover that finds the node's newest crash already closed
    while an older one is still open (the simulator never records a
    crash of a crashed node)."""
    nodes = [f"n{i}" for i in range(draw(st.integers(3, 5)))]
    steps = st.tuples(
        st.integers(0, 3), st.sampled_from(MEMBERSHIP_KINDS), st.sampled_from(nodes), st.sampled_from(nodes), st.booleans()
    )
    t, trace, open_crashes = 0, [], {n: [] for n in nodes}
    for dt, kind_, node, peer, flag in draw(st.lists(steps, max_size=40)):
        t += dt
        opened = open_crashes[node]
        if kind_ == "crash":
            opened.append(True)
        elif kind_ == "recover":
            if opened and opened[-1]:
                opened[-1] = False
            elif any(opened):
                continue
        detail = {} if kind_ in ("crash", "recover") else {"peer": peer}
        if kind_ == "refute":
            detail["rejoin"] = flag
        trace.append((t, kind_, node, detail))
    split = draw(st.integers(1, len(nodes)))
    clusters = [{"id": "c0", "nodes": nodes[:split]}]
    if split < len(nodes):
        clusters.append({"id": "c1", "nodes": nodes[split:], "parent": "c0"})
    topology = draw(st.booleans())
    warmup = draw(st.one_of(st.none(), st.integers(0, 20)))
    return trace, clusters if topology else None, warmup


_ONE_CLUSTER = [{"id": "c0", "nodes": ["n0", "n1", "n2"]}]


@settings(max_examples=400, deadline=None)
@given(membership_traces())
@example(  # the crash follows the suspicion in the same tick: still true
    ([(5, "suspect", "n0", {"peer": "n1"}), (5, "crash", "n1", {}), (5, "remove", "n2", {"peer": "n1"})], _ONE_CLUSTER, 0)
)
@example(  # the recover follows the suspicion in the same tick: false
    (
        [(2, "crash", "n1", {}), (7, "suspect", "n0", {"peer": "n1"}), (7, "recover", "n1", {}), (9, "suspect", "n2", {"peer": "n1"})],
        _ONE_CLUSTER,
        None,
    )
)
@example(  # two crashes open at the remove: the newer one is credited
    ([(1, "crash", "n1", {}), (2, "crash", "n1", {}), (3, "remove", "n0", {"peer": "n1"})], None, None)
)
def test_compute_metrics_matches_three_pass_reference(case):
    rows, clusters, warmup = case
    scenario = None
    if clusters is not None:
        scenario = parse_scenario({"until": 100, "clusters": clusters, "detector": {"t_bootstrap": 6}})
    got = compute_metrics(rows, scenario, warmup)
    want = ref_compute_metrics(entries(rows), scenario, warmup)
    assert got == want
    assert json.dumps(got) == json.dumps(want)  # same key order in the written report


def test_recover_after_two_crashes_judges_truth_by_the_crash_records():
    # A node with two crash entries and no recover between them, then two
    # recovers: the second recover closes the older crash record, and the
    # suspicion after it is judged against those records (the node is up).
    trace = [
        entry(1, "crash", "b"),
        entry(2, "crash", "b"),
        entry(3, "recover", "b"),
        entry(4, "recover", "b"),
        entry(5, "suspect", "a", peer="b", gap=9),
    ]
    rep = compute_metrics(trace)
    assert [(c["at"], c["recovered_at"]) for c in rep["crashes"]] == [(1, 4), (2, 3)]
    assert (rep["suspicions"]["true"], rep["suspicions"]["false"]) == (0, 1)
