"""Repair planning and change notices.

A diagnosis is turned into an ordered repair plan by a deterministic
policy table: a crashed service with a registered alternative gets the
alternative activated, a faulty job is restored from its checkpoint (if
any) and rescheduled, and anything the table cannot place falls back to
alerting a human operator. Actions execute through scripted service
ports; each state-changing success produces a ChangeNotice that is
propagated to every node exactly once over acknowledged, retried,
deduplicated hops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .analysis import Diagnosis
from .containers import Alternative, ContainerRegistry, Replica


@dataclass(frozen=True)
class ActivateAlternative:
    name = "activate_alternative"
    container_id: str
    host: str
    service_id: str
    state_changing = True


@dataclass(frozen=True)
class RestoreCheckpoint:
    name = "restore_checkpoint"
    job_id: str
    checkpoint: str
    state_changing = True


@dataclass(frozen=True)
class RescheduleJobs:
    name = "reschedule_jobs"
    job_ids: tuple[str, ...]
    state_changing = True


@dataclass(frozen=True)
class AlertOperator:
    name = "alert_operator"
    reason: str
    state_changing = False


RepairAction = Union[ActivateAlternative, RestoreCheckpoint, RescheduleJobs, AlertOperator]


@dataclass(frozen=True)
class RepairPlan:
    plan_id: str
    subject: str
    fault_class: str
    actions: tuple[RepairAction, ...]


DEFAULT_POLICY: dict[str, str] = {
    "ServiceCrash": "activate-alternative",
    "JobFault": "checkpoint-reschedule",
}


def plan(diagnosis: Diagnosis, policy: dict[str, str], context: ContainerRegistry, plan_id: str) -> RepairPlan:
    """Map a diagnosis to an ordered action list.

    Deterministic: same diagnosis, same policy, same registry state,
    same plan. Unplannable diagnoses become a single AlertOperator so
    nothing is ever silently dropped.
    """
    recipe = policy.get(diagnosis.fault_class)
    actions: tuple[RepairAction, ...]
    if recipe == "activate-alternative":
        alt = context.available_alternative(diagnosis.subject) if diagnosis.subject in context.containers else None
        if alt is not None:
            actions = (ActivateAlternative(alt.container_id, alt.host, alt.service_id),)
        else:
            actions = (AlertOperator(f"no alternative available for {diagnosis.subject}"),)
    elif recipe == "checkpoint-reschedule":
        job = context.jobs.get(diagnosis.subject)
        if job is None:
            actions = (AlertOperator(f"unknown job {diagnosis.subject}"),)
        elif job.spec.checkpoint is not None:
            actions = (
                RestoreCheckpoint(diagnosis.subject, job.spec.checkpoint),
                RescheduleJobs((diagnosis.subject,)),
            )
        else:
            actions = (RescheduleJobs((diagnosis.subject,)),)
    else:
        actions = (AlertOperator(f"no recipe for fault class {diagnosis.fault_class}"),)
    return RepairPlan(
        plan_id=plan_id,
        subject=diagnosis.subject,
        fault_class=diagnosis.fault_class,
        actions=actions,
    )


# --- service ports -----------------------------------------------------------


@dataclass(frozen=True)
class PortScript:
    """Scenario-scripted behavior of one external service port."""

    latency: int = 1
    fail: bool = False
    fail_refs: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError("port latency must be >= 0")


@dataclass(frozen=True)
class ServicePorts:
    scheduler: PortScript = PortScript()
    checkpoint_store: PortScript = PortScript()
    index: PortScript = PortScript()
    transfer: PortScript = PortScript()

    def call(self, action: RepairAction) -> tuple[bool, int, str]:
        """Scripted outcome of running an action: (ok, latency, detail)."""
        if isinstance(action, ActivateAlternative):
            script = self.index
            if script.fail:
                return False, script.latency, "index port unavailable"
            return True, script.latency, f"registered {action.service_id} on {action.host}"
        if isinstance(action, RestoreCheckpoint):
            script = self.checkpoint_store
            if script.fail or action.checkpoint in script.fail_refs:
                return False, script.latency, f"checkpoint {action.checkpoint} unavailable"
            # recovered state moves over the transfer port
            transfer = self.transfer
            if transfer.fail:
                return False, script.latency + transfer.latency, "transfer port unavailable"
            return True, script.latency + transfer.latency, f"restored {action.checkpoint}"
        if isinstance(action, RescheduleJobs):
            script = self.scheduler
            if script.fail:
                return False, script.latency, "scheduler port unavailable"
            return True, script.latency, f"rescheduled {','.join(action.job_ids)}"
        return True, 0, "operator alerted"


# --- change notices -----------------------------------------------------------


@dataclass(frozen=True)
class ChangeNotice:
    notice_id: str
    action: RepairAction  # state-changing; receivers apply it to their registry


def notice_for(action: RepairAction, notice_id: str) -> ChangeNotice:
    if not action.state_changing:
        raise ValueError(f"action {action.name} does not change state")
    return ChangeNotice(notice_id, action)


def apply_notice(registry: ContainerRegistry, notice: ChangeNotice) -> None:
    """Apply a notice to a node's local registry. Idempotent."""
    action = notice.action
    if isinstance(action, ActivateAlternative):
        if action.container_id in registry.containers:
            registry.container(action.container_id).add_replica(Replica(action.host, action.service_id))
            registry.consume_alternative(Alternative(action.container_id, action.host, action.service_id))
    elif isinstance(action, RestoreCheckpoint):
        job = registry.jobs.get(action.job_id)
        if job is not None:
            job.status = "restored"
    elif isinstance(action, RescheduleJobs):
        for job_id in action.job_ids:
            job = registry.jobs.get(job_id)
            if job is not None:
                job.status = "rescheduled"
