"""Repair planning recipes, scripted ports, and change notices."""

import pytest

from depsim.analysis import Diagnosis
from depsim.containers import (
    Alternative,
    ContainerRegistry,
    ContainerSpec,
    JobSpec,
    Replica,
    ServiceSpec,
    Strategy,
)
from depsim.repair import (
    DEFAULT_POLICY,
    ActivateAlternative,
    AlertOperator,
    ChangeNotice,
    PortScript,
    RepairPlan,
    RescheduleJobs,
    RestoreCheckpoint,
    ServicePorts,
    apply_notice,
    notice_for,
    plan,
)


def diag(subject, fault_class):
    return Diagnosis(subject=subject, fault_class=fault_class, confidence=0.9, evidence=())


def registry(with_alt=True, checkpoint="ck7"):
    services = {"s1": ServiceSpec("s1", "kv", table={"q": "v"})}
    containers = [ContainerSpec("store", Strategy.FAILOVER, 5, (Replica("h1", "s1"),))]
    alts = [Alternative("store", "h9", "s1")] if with_alt else []
    return ContainerRegistry(services, containers, alts, jobs=[JobSpec("j1", checkpoint=checkpoint)])


# --- planning ---------------------------------------------------------------------


def test_plan_service_crash_with_alternative():
    p = plan(diag("store", "ServiceCrash"), DEFAULT_POLICY, registry(), "plan-1")
    assert p.actions == (ActivateAlternative("store", "h9", "s1"),)
    assert (p.plan_id, p.subject, p.fault_class) == ("plan-1", "store", "ServiceCrash")


def test_plan_service_crash_without_alternative_alerts():
    p = plan(diag("store", "ServiceCrash"), DEFAULT_POLICY, registry(with_alt=False), "plan-1")
    assert len(p.actions) == 1 and isinstance(p.actions[0], AlertOperator)


def test_plan_skips_consumed_alternatives():
    reg = registry()
    reg.consume_alternative(Alternative("store", "h9", "s1"))
    p = plan(diag("store", "ServiceCrash"), DEFAULT_POLICY, reg, "plan-1")
    assert isinstance(p.actions[0], AlertOperator)


def test_plan_unknown_container_subject_alerts():
    p = plan(diag("ghost", "ServiceCrash"), DEFAULT_POLICY, registry(), "plan-1")
    assert isinstance(p.actions[0], AlertOperator)


def test_plan_job_fault_with_checkpoint():
    p = plan(diag("j1", "JobFault"), DEFAULT_POLICY, registry(), "plan-2")
    assert p.actions == (RestoreCheckpoint("j1", "ck7"), RescheduleJobs(("j1",)))


def test_plan_job_fault_without_checkpoint():
    p = plan(diag("j1", "JobFault"), DEFAULT_POLICY, registry(checkpoint=None), "plan-2")
    assert p.actions == (RescheduleJobs(("j1",)),)


def test_plan_unknown_job_alerts():
    p = plan(diag("jX", "JobFault"), DEFAULT_POLICY, registry(), "plan-2")
    assert isinstance(p.actions[0], AlertOperator)


def test_plan_unknown_fault_class_alerts():
    p = plan(diag("store", "SolarFlare"), DEFAULT_POLICY, registry(), "plan-3")
    assert isinstance(p.actions[0], AlertOperator)
    assert "SolarFlare" in p.actions[0].reason


def test_plan_is_deterministic():
    a = plan(diag("store", "ServiceCrash"), DEFAULT_POLICY, registry(), "p")
    b = plan(diag("store", "ServiceCrash"), DEFAULT_POLICY, registry(), "p")
    assert a == b


def test_custom_policy_overrides_recipe():
    p = plan(diag("j1", "ServiceCrash"), {"ServiceCrash": "checkpoint-reschedule"}, registry(), "p")
    assert isinstance(p.actions[0], RestoreCheckpoint)


# --- ports ------------------------------------------------------------------------


def test_port_call_success_paths():
    ports = ServicePorts(
        scheduler=PortScript(latency=2),
        checkpoint_store=PortScript(latency=3),
        index=PortScript(latency=4),
        transfer=PortScript(latency=5),
    )
    ok, lat, detail = ports.call(ActivateAlternative("c", "h", "s"))
    assert (ok, lat) == (True, 4) and "h" in detail
    ok, lat, detail = ports.call(RestoreCheckpoint("j1", "ck"))
    assert (ok, lat) == (True, 8)  # checkpoint read + state transfer
    ok, lat, detail = ports.call(RescheduleJobs(("j1", "j2")))
    assert (ok, lat) == (True, 2) and "j1,j2" in detail
    ok, lat, _ = ports.call(AlertOperator("x"))
    assert (ok, lat) == (True, 0)


def test_port_failures():
    ports = ServicePorts(index=PortScript(latency=1, fail=True))
    ok, _, detail = ports.call(ActivateAlternative("c", "h", "s"))
    assert not ok and "index" in detail

    ports = ServicePorts(scheduler=PortScript(fail=True))
    ok, _, _ = ports.call(RescheduleJobs(("j1",)))
    assert not ok


def test_checkpoint_fail_refs_and_transfer_leg():
    ports = ServicePorts(checkpoint_store=PortScript(latency=1, fail_refs=frozenset({"bad"})))
    ok, _, detail = ports.call(RestoreCheckpoint("j1", "bad"))
    assert not ok and "bad" in detail
    ok, _, _ = ports.call(RestoreCheckpoint("j1", "good"))
    assert ok

    # store readable but transfer down: the restore still fails
    ports = ServicePorts(transfer=PortScript(fail=True))
    ok, _, detail = ports.call(RestoreCheckpoint("j1", "ck"))
    assert not ok and "transfer" in detail


def test_port_script_validation():
    with pytest.raises(ValueError):
        PortScript(latency=-1)


# --- notices ----------------------------------------------------------------------


def test_notice_for_each_state_changing_action():
    n = notice_for(ActivateAlternative("store", "h9", "s1"), "n1")
    assert n == ChangeNotice("n1", ActivateAlternative("store", "h9", "s1"))

    n2 = notice_for(RestoreCheckpoint("j1", "ck7"), "n2")
    assert n2.action.checkpoint == "ck7"

    n3 = notice_for(RescheduleJobs(("j1", "j2")), "n3")
    assert n3.action.job_ids == ("j1", "j2")


def test_notice_for_rejects_alerts():
    with pytest.raises(ValueError):
        notice_for(AlertOperator("x"), "n")


def test_apply_notice_activate_alternative():
    reg = registry()
    n = notice_for(ActivateAlternative("store", "h9", "s1"), "n1")
    apply_notice(reg, n)
    state = reg.container("store")
    assert Replica("h9", "s1") in state.replicas
    assert reg.available_alternative("store") is None  # consumed everywhere
    # idempotent under redelivery
    apply_notice(reg, n)
    assert [r.host for r in state.replicas].count("h9") == 1


def test_apply_notice_job_status():
    reg = registry()
    apply_notice(reg, notice_for(RestoreCheckpoint("j1", "ck7"), "n"))
    assert reg.jobs["j1"].status == "restored"
    apply_notice(reg, notice_for(RescheduleJobs(("j1",)), "n2"))
    assert reg.jobs["j1"].status == "rescheduled"


def test_apply_notice_tolerates_unknown_targets():
    reg = registry()
    apply_notice(reg, notice_for(ActivateAlternative("ghost", "h", "s"), "n"))
    apply_notice(reg, notice_for(RescheduleJobs(("ghost-job",)), "n2"))
    assert reg.jobs["j1"].status == "running"
