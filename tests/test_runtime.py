"""End-to-end node behavior: failure detection feeding invocations,
voting, self-repair with change notices, forecasts, and mediation."""

import statistics
from pathlib import Path

import pytest
from conftest import base_scenario, details, kind, run

from depsim.analysis import COMPARATORS
from depsim.containers import Replica
from depsim.scenario import load_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


# --- failover ---------------------------------------------------------------------


def crash_scenario(**overrides):
    data = dict(
        faults=[{"kind": "crash", "node": "b", "at": 150}],
        workload={
            "invocations": [
                {"client": "a", "container": "store", "request": "get", "start": 10, "period": 20}
            ]
        },
    )
    data.update(overrides)
    return base_scenario(**data)


def test_failover_rides_through_crash():
    r = run(crash_scenario())
    done = details(r.trace, "invoke_done", node="a")
    assert done and all(d["outcome"] == "success" and d["value"] == "v1" for d in done)

    # before the crash the first replica answers directly
    pre = [d for e, d in zip(kind(r.trace, "invoke_done", "a"), done) if e.t < 150]
    assert pre and all(d["responders"] == ["b"] for d in pre)

    # between crash and suspicion: a step timeout, then the next replica
    timeouts = [d for d in details(r.trace, "failover_step", "a") if d["result"] == "timeout"]
    assert timeouts and all(d["host"] == "b" for d in timeouts)
    degr = details(r.trace, "replica_degraded", "a")
    assert {(d["host"], d["reason"]) for d in degr} == {("b", "timeout")}

    # after suspicion and removal the dead replica is skipped up front
    reasons = {d["reason"] for d in details(r.trace, "replica_skip", "a") if d["host"] == "b"}
    assert "suspected" in reasons and "removed" in reasons

    # post-crash requests land on the second replica
    post = [d for e, d in zip(kind(r.trace, "invoke_done", "a"), done) if e.t > 400]
    assert post and all(d["responders"] == ["c"] for d in post)


def test_all_replicas_gone_is_all_failed():
    scn = base_scenario(
        containers=[
            {
                "id": "store",
                "strategy": "failover",
                "timeout": 10,
                "replicas": [{"host": "b", "service": "kv1"}],
            }
        ],
        faults=[{"kind": "crash", "node": "b", "at": 100}],
        workload={
            "invocations": [
                {"client": "a", "container": "store", "request": "get", "start": 450, "period": 50}
            ]
        },
    )
    r = run(scn)
    done = details(r.trace, "invoke_done", "a")
    assert done and all(d["outcome"] == "all_failed" and d["responders"] == [] for d in done)
    # no requests were even sent: the only replica is removed by then
    assert all(d["latency"] == 0 for d in done)
    skips = details(r.trace, "replica_skip", "a")
    assert skips and all(d["reason"] == "removed" for d in skips)


def test_refute_reinstates_degraded_replica():
    scn = crash_scenario(
        faults=[
            {"kind": "crash", "node": "b", "at": 150},
            {"kind": "recover", "node": "b", "at": 300},
        ],
        until=800,
    )
    r = run(scn)
    refutes = [e for e in kind(r.trace, "refute", "a") if e.detail["peer"] == "b"]
    assert refutes and refutes[-1].detail["rejoin"] is True
    t_back = refutes[-1].t
    late = [d for e, d in [(e, e.detail) for e in kind(r.trace, "invoke_done", "a")] if e.t > t_back + 100]
    assert late and all(d["responders"] == ["b"] for d in late)


# --- active replication ----------------------------------------------------------


def active_scenario(behaviors, until=300, timeout=10):
    return base_scenario(
        containers=[
            {
                "id": "store",
                "strategy": "active",
                "timeout": timeout,
                "replicas": [
                    {"host": "b", "service": "kv1"},
                    {"host": "c", "service": "kv2"},
                    {"host": "d", "service": "kv3"},
                ],
            }
        ],
        behaviors=behaviors,
        workload={
            "invocations": [
                {"client": "a", "container": "store", "request": "get", "start": 50, "period": 40}
            ]
        },
        until=until,
    )


def test_active_outvotes_corrupt_replica():
    r = run(active_scenario([{"host": "c", "service": "kv2", "kind": "corrupt", "start": 0, "stop": 100, "value": "bad"}]))
    votes = details(r.trace, "vote_result", "a")
    first = votes[0]
    assert first["n"] == 3 and first["counts"] == {"bad": 1, "v1": 2}
    assert first["winner"] == "v1" and first["responders"] == ["b", "c", "d"]
    assert details(r.trace, "replica_degraded", "a") == [{"container": "store", "host": "c", "reason": "corrupt"}]

    # the outvoted replica sits out later rounds; quorum still reached
    second = votes[1]
    assert second["responders"] == ["b", "d"] and second["winner"] == "v1"
    skips = details(r.trace, "replica_skip", "a")
    assert skips and all(d["host"] == "c" and d["reason"] == "degraded" for d in skips)
    assert all(d["outcome"] == "success" for d in details(r.trace, "invoke_done", "a"))


def test_active_no_quorum_on_split_vote():
    r = run(
        active_scenario(
            [
                {"host": "c", "service": "kv2", "kind": "corrupt", "start": 0, "stop": 60, "value": "x"},
                {"host": "d", "service": "kv3", "kind": "corrupt", "start": 0, "stop": 60, "value": "y"},
            ],
            until=70,
        )
    )
    votes = details(r.trace, "vote_result", "a")
    assert votes[0]["counts"] == {"v1": 1, "x": 1, "y": 1} and votes[0]["winner"] is None
    done = details(r.trace, "invoke_done", "a")
    assert done[0]["outcome"] == "no_quorum" and done[0]["value"] is None
    # minority cannot be told from majority here: nobody gets degraded
    assert details(r.trace, "replica_degraded", "a") == []


def test_active_decides_at_deadline_without_slow_replica():
    r = run(
        active_scenario(
            [{"host": "d", "service": "kv3", "kind": "slow", "start": 0, "stop": 100, "delay": 50}],
            until=120,
            timeout=8,
        )
    )
    votes = details(r.trace, "vote_result", "a")
    assert votes[0]["responders"] == ["b", "c"]
    assert votes[0]["winner"] == "v1"  # 2 of n=3 is still a strict majority
    done = [
        (e.t, e.detail) for e in kind(r.trace, "invoke_done", "a")
    ]
    t, d = done[0]
    assert d["outcome"] == "success" and d["latency"] == 8  # waited out the full deadline


# --- repair and change notices -----------------------------------------------------


def repair_scenario(**overrides):
    """Telemetry ramps a metric on node a; a threshold pattern turns it
    into a ServiceCrash diagnosis for the container, whose repair
    activates the registered alternative replica."""
    data = dict(
        alternatives=[{"container": "store", "host": "a", "service": "kv1"}],
        patterns=[
            {
                "id": "hot",
                "fault_class": "ServiceCrash",
                "predicate": {"type": "threshold", "metric": "heat", "cmp": ">", "bound": 5.0, "min_consecutive": 2},
                "confidence": 0.8,
            }
        ],
        telemetry=[
            {"node": "a", "source": "store", "metric": "heat", "start": 100, "stop": 130, "every": 5, "value": 9.0}
        ],
        until=400,
    )
    data.update(overrides)
    return base_scenario(**data)


def test_diagnosis_drives_repair_and_notice():
    r = run(repair_scenario())
    diags = details(r.trace, "diagnosis", "a")
    assert diags and diags[0]["subject"] == "store" and diags[0]["fault_class"] == "ServiceCrash"
    assert diags[0]["patterns"] == ["hot"] and diags[0]["confidence"] == 0.8

    plans = details(r.trace, "plan", "a")
    assert plans[0]["actions"] == ["activate_alternative"]
    steps = details(r.trace, "repair_step", "a")
    assert steps[0]["ok"] is True and steps[0]["action"] == "activate_alternative"
    assert details(r.trace, "plan_done", "a")[0]["ok"] is True

    # the origin applies its own notice, everyone else applies it exactly once
    applied = kind(r.trace, "notice_applied")
    by_node = {}
    for e in applied:
        by_node.setdefault(e.node, []).append(e.detail)
    assert set(by_node) == {"a", "b", "c", "d"}
    assert all(len(v) == 1 for v in by_node.values())
    assert by_node["a"][0]["origin"] is True
    assert all(by_node[n][0]["origin"] is False for n in "bcd")

    # every local registry now carries the activated replica
    for node in "abcd":
        state = r.runtimes[node].registry.container("store")
        assert Replica("a", "kv1") in state.replicas
        assert r.runtimes[node].registry.available_alternative("store") is None

    assert kind(r.trace, "propagation_incomplete") == []


def test_notice_propagation_survives_loss():
    r = run(repair_scenario(network={"base_latency": 1, "jitter": 0, "loss": 0.3}), seed=7)
    applied = kind(r.trace, "notice_applied")
    per_node = {n: 0 for n in "abcd"}
    for e in applied:
        per_node[e.node] += 1
    # exactly once each, despite retries and duplicate deliveries
    assert per_node == {"a": 1, "b": 1, "c": 1, "d": 1}
    attempts = details(r.trace, "notice_sent")
    assert any(d["attempt"] > 0 for d in attempts)  # loss actually forced retries
    assert kind(r.trace, "propagation_incomplete") == []


def test_port_failure_stops_plan_and_alerts():
    r = run(repair_scenario(ports={"index": {"fail": True}}))
    steps = details(r.trace, "repair_step", "a")
    assert steps[0]["ok"] is False
    alerts = details(r.trace, "alert_operator", "a")
    assert alerts and "activate_alternative failed" in alerts[0]["reason"]
    assert details(r.trace, "plan_done", "a")[0]["ok"] is False
    assert kind(r.trace, "notice_applied") == []


def test_unplannable_fault_class_alerts_operator():
    r = run(repair_scenario(patterns=[
        {
            "id": "hot",
            "fault_class": "Gremlins",
            "predicate": {"type": "threshold", "metric": "heat", "cmp": ">", "bound": 5.0},
        }
    ]))
    plans = details(r.trace, "plan", "a")
    assert plans[0]["actions"] == ["alert_operator"]
    assert details(r.trace, "alert_operator", "a")
    assert details(r.trace, "plan_done", "a")[0]["ok"] is True


def test_plans_serialize_per_subject():
    # two diagnoses for the same subject: second plan starts only after
    # the first finishes (the second finds the alternative consumed)
    r = run(
        repair_scenario(
            telemetry=[
                {"node": "a", "source": "store", "metric": "heat", "start": 100, "stop": 130, "every": 5, "value": 9.0},
                {"node": "a", "source": "store", "metric": "heat", "at": 140, "value": 1.0},
                {"node": "a", "source": "store", "metric": "heat", "start": 150, "stop": 180, "every": 5, "value": 9.0},
            ]
        )
    )
    plans = kind(r.trace, "plan", "a")
    dones = kind(r.trace, "plan_done", "a")
    assert len(plans) == 2 and len(dones) == 2
    assert plans[1].t >= dones[0].t  # strictly serialized
    assert plans[0].detail["actions"] == ["activate_alternative"]
    assert plans[1].detail["actions"] == ["alert_operator"]  # alternative already used


# --- job repair over ports ----------------------------------------------------------


def job_scenario(**overrides):
    data = dict(
        jobs=[{"id": "j1", "checkpoint": "ck1"}],
        patterns=[
            {
                "id": "wedge",
                "fault_class": "JobFault",
                "predicate": {"type": "threshold", "metric": "queue", "cmp": ">", "bound": 10.0},
            }
        ],
        telemetry=[
            {"node": "b", "source": "j1", "metric": "queue", "start": 60, "stop": 90, "every": 5, "value": 50.0}
        ],
        until=400,
    )
    data.update(overrides)
    return base_scenario(**data)


def test_job_repair_restores_then_reschedules():
    r = run(job_scenario())
    plans = details(r.trace, "plan", "b")
    assert plans[0]["actions"] == ["restore_checkpoint", "reschedule_jobs"]
    steps = details(r.trace, "repair_step", "b")
    assert [(s["action"], s["ok"]) for s in steps] == [("restore_checkpoint", True), ("reschedule_jobs", True)]
    # two notices, each applied once per node
    applied = kind(r.trace, "notice_applied")
    count = {}
    for e in applied:
        count[(e.node, e.detail["notice"])] = count.get((e.node, e.detail["notice"]), 0) + 1
    assert len(count) == 8 and set(count.values()) == {1}
    for node in "abcd":
        assert r.runtimes[node].registry.jobs["j1"].status == "rescheduled"


def test_checkpoint_unreadable_alerts():
    r = run(job_scenario(ports={"checkpoint_store": {"fail_refs": ["ck1"]}}))
    steps = details(r.trace, "repair_step", "b")
    assert steps[0]["action"] == "restore_checkpoint" and steps[0]["ok"] is False
    assert details(r.trace, "plan_done", "b")[0]["ok"] is False
    # the reschedule never ran
    assert all(s["action"] != "reschedule_jobs" for s in steps)


# --- forecasts -----------------------------------------------------------------------


def test_forecast_matches_recomputation_and_edge_triggers():
    scn = base_scenario(
        forecasts=[
            {
                "source": "j1",
                "metric": "queue",
                "k": 4,
                "horizon": 10,
                "threshold": 30.0,
                "period": 10,
                "fault_class": "JobFault",
            }
        ],
        telemetry=[
            {"node": "a", "source": "j1", "metric": "queue", "start": 0, "stop": 200, "every": 5, "from": 0.0, "to": 80.0}
        ],
        until=260,
    )
    r = run(scn)
    preds = [(e.t, e.detail) for e in kind(r.trace, "prediction", "a")]
    assert preds

    # rebuild each forecast from the raw telemetry stream
    feed = [(ev.at, ev.value) for ev in scn.telemetry]
    for t, d in preds:
        # a telemetry event landing on the forecast tick is ingested first:
        # directives scheduled up front carry lower sequence numbers
        seen = [v for at, v in feed if at <= t][-4:]
        assert len(seen) == 4
        assert d["forecast"] == pytest.approx(statistics.fmean(seen), rel=1e-9)
        assert d["will_cross"] == (d["forecast"] > 30.0)

    crossings = [d for _, d in preds if d["will_cross"]]
    assert crossings  # the ramp does cross the bound
    # many crossing predictions, exactly one diagnosis: edge-triggered
    diags = details(r.trace, "diagnosis", "a")
    assert len([d for d in diags if d["fault_class"] == "JobFault"]) == 1
    assert diags[0]["patterns"] == ["forecast-queue"]


def test_forecast_cmp_lt():
    """A falling series against a ``<`` bound: the prediction crosses
    once the mean of the last k samples is below the threshold."""
    scn = base_scenario(
        forecasts=[{"source": "j1", "metric": "free", "k": 2, "horizon": 5, "threshold": 20.0, "cmp": "<", "period": 10}],
        telemetry=[
            {"node": "a", "source": "j1", "metric": "free", "start": 0, "stop": 100, "every": 5, "from": 50.0, "to": 0.0}
        ],
        until=120,
    )
    preds = details(run(scn).trace, "prediction", "a")
    assert {d["will_cross"] for d in preds} == {True, False}
    assert all(d["will_cross"] == (d["forecast"] < 20.0) for d in preds)


@pytest.mark.parametrize("seed", [0, 7])
def test_prediction_rows_compare_forecast_with_threshold(seed):
    scn = load_scenario(SCENARIO_DIR / "learn-and-predict.yaml")
    cmp = {(fc.source, fc.metric): fc.cmp for fc in scn.forecasts}
    preds = details(run(scn, seed=seed).trace, "prediction")
    assert preds
    for d in preds:
        op = COMPARATORS[cmp[(d["source"], d["metric"])]]
        assert d["will_cross"] == op(d["forecast"], d["threshold"])


# --- mediation and policy --------------------------------------------------------------


def test_access_audit_pairing_and_policy_update():
    scn = base_scenario(
        workload={
            "accesses": [
                {"node": "a", "subject": "bob", "object": "dataset", "op": "read", "at": 50, "count": 4, "every": 100},
                {"node": "b", "subject": "outsider", "object": "dataset", "op": "read", "at": 60},
            ],
            "policy_updates": [
                {
                    "node": "a",
                    "at": 200,
                    "action": "insert",
                    "index": 0,
                    "rule": {"scope": "physics", "subject": "bob", "object": "*", "ops": ["read"], "effect": "deny"},
                }
            ],
        },
        until=500,
    )
    r = run(scn)
    accesses = details(r.trace, "access")
    audits = details(r.trace, "audit")
    assert len(accesses) == len(audits) == 5
    assert [a["request"] for a in accesses] == [a["request"] for a in audits]

    bob = [a for a in audits if a["subject"] == "bob"]
    # reads at 50 and 150 pass; the rule inserted at 200 denies 250 and 350
    assert [a["decision"] for a in bob] == ["allow", "allow", "deny", "deny"]
    assert bob[0]["matched_rule"] == "builtin:member-read" and bob[0]["policy_version"] == 1
    assert bob[2]["matched_rule"] == "rule:0" and bob[2]["policy_version"] == 2

    outsider = [a for a in audits if a["subject"] == "outsider"]
    assert outsider[0]["decision"] == "deny" and outsider[0]["matched_rule"] == "builtin:non-member"

    changed = details(r.trace, "policy_changed", "a")
    assert changed == [{"action": "insert", "index": 0, "version": 2}]
    # policy state is per node: b never saw the update
    assert r.runtimes["b"].monitor.policy.version == 1
    assert r.runtimes["a"].monitor.policy.version == 2


def test_policy_rejection_traced():
    scn = base_scenario(
        workload={
            "policy_updates": [{"node": "a", "at": 50, "action": "remove", "index": 3}]
        }
    )
    r = run(scn)
    rejected = details(r.trace, "policy_rejected", "a")
    assert len(rejected) == 1 and rejected[0]["action"] == "remove"
    assert details(r.trace, "policy_changed", "a") == []
    assert r.runtimes["a"].monitor.policy.version == 1


# --- recovery identity -----------------------------------------------------------------


def test_recovered_node_ids_do_not_collide():
    scn = crash_scenario(
        faults=[
            {"kind": "crash", "node": "b", "at": 150},
            {"kind": "recover", "node": "b", "at": 300},
        ],
        workload={
            "invocations": [
                {"client": "b", "container": "store", "request": "get", "start": 10, "period": 40}
            ]
        },
        until=800,
    )
    r = run(scn)
    ids = [d["invocation"] for d in details(r.trace, "invoke", "b")]
    assert len(ids) == len(set(ids))
    epochs = {i.split(".")[1] for i in ids}
    # epoch 0 before the crash; the crash and the recovery each bump it
    assert epochs == {"0", "2"}
    # the restarted node serves traffic again
    assert all(d["outcome"] == "success" for d in details(r.trace, "invoke_done", "b"))


# --- hierarchy -------------------------------------------------------------------------


def test_root_sees_remote_suspicion():
    scn = base_scenario(
        clusters=[
            {"id": "top", "nodes": ["a", "b"], "parent": None},
            {"id": "leaf", "nodes": ["x", "y"], "parent": "top"},
        ],
        containers=[],
        services=[],
        faults=[{"kind": "crash", "node": "y", "at": 150}],
        until=600,
    )
    r = run(scn)
    suspects = [e for e in kind(r.trace, "suspect", "x") if e.detail["peer"] == "y"]
    assert suspects
    views = kind(r.trace, "global_view", "a")  # a is the root representative
    assert [e.detail for e in views] == [{"peer": "y", "status": "suspected"}]
    assert views[0].t >= suspects[0].t
    # the non-representative root member stays quiet
    assert kind(r.trace, "global_view", "b") == []
    # summaries flowed from the leaf representative
    summaries = details(r.trace, "summary", "x")
    assert any("y" in s["suspected"] for s in summaries)
