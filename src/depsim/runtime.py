"""Per-node runtime: the component stack and its event wiring.

Each node runs the same stack: failure detector, container registry
with an invocation engine, analysis engine, repair orchestrator with
change-notice propagation, and a reference monitor. The runtime is the
only place these components meet: it routes every delivered message and
timer to exactly one consumer and converts component outputs into trace
entries, monitoring samples and new messages. A crash drops the whole
stack; recovery rebuilds it from the scenario baseline with a fresh
incarnation, which is exactly the state loss the rejoin protocol
expects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

from . import containers as containers_mod
from . import repair as repair_mod
from .analysis import COMPARATORS, AnalysisEngine, Diagnosis, InsufficientData, NoSignal, forecast_ma
from .containers import ContainerRegistry, Replica, Strategy, UnknownReplica
from .membership import Detector, GossipDigest, SummaryBatch, PeerState
from .repair import AlertOperator, ChangeNotice, RepairPlan, apply_notice, notice_for
from .scenario import BehaviorWindow, Scenario
from .security import IndexOutOfRange, ReferenceMonitor, Rule

if TYPE_CHECKING:
    from .sim import Simulator

SimTime = int


# --- messages -----------------------------------------------------------------
# A message does not name its sender: handlers take the delivery's ``src``.


@dataclass(frozen=True)
class InvokeRequest:
    kind: ClassVar[str] = "invoke_req"
    invocation_id: str
    service_id: str
    request: str


@dataclass(frozen=True)
class InvokeResponse:
    kind: ClassVar[str] = "invoke_resp"
    invocation_id: str
    value: str


@dataclass(frozen=True)
class NoticeMsg:
    kind: ClassVar[str] = "notice"
    notice: ChangeNotice


@dataclass(frozen=True)
class NoticeAck:
    kind: ClassVar[str] = "notice_ack"
    notice_id: str


class _Invocation:
    __slots__ = (
        "invocation_id",
        "container_id",
        "request",
        "strategy",
        "started",
        "order",
        "step",
        "targets",
        "responses",
    )

    def __init__(self, invocation_id: str, container_id: str, request: str, strategy: Strategy, started: SimTime):
        self.invocation_id = invocation_id
        self.container_id = container_id
        self.request = request
        self.strategy = strategy
        self.started = started
        self.order: list[Replica] = []  # failover: configured order at issue time
        self.step = 0
        self.targets: list[str] = []  # active: hosts addressed
        self.responses: dict[str, str] = {}


class _PlanRun:
    __slots__ = ("plan", "step")

    def __init__(self, plan: RepairPlan):
        self.plan = plan
        self.step = 0


class NodeRuntime:
    """One node's component stack plus the dispatch tables."""

    def __init__(self, sim: "Simulator", node: str, scenario: Scenario):
        self.sim = sim
        self.node = node
        self.scenario = scenario
        # scripted misbehavior of the services this node hosts, by service id
        self.behaviors: dict[str, list[BehaviorWindow]] = {}
        for b in scenario.behaviors:
            if b.host == node:
                self.behaviors.setdefault(b.service_id, []).append(b)
        self._build(now=0, incarnation=0)

    # -- construction and recovery

    def _build(self, now: SimTime, incarnation: int) -> None:
        scn = self.scenario
        self.detector = Detector(
            self.node,
            scn.topology,
            scn.detector,
            rng=self.sim.rng.stream(self.node, "peers"),
            now=now,
            incarnation=incarnation,
        )
        self.registry = ContainerRegistry(scn.services, scn.containers, scn.alternatives, scn.jobs)
        self.engine = AnalysisEngine(scn.analysis, library=scn.patterns)
        self.monitor = ReferenceMonitor(scn.subjects, scn.objects, scn.rules)
        self.policy_map = dict(scn.repair.policy)
        self._invocations: dict[str, _Invocation] = {}
        self._inv_seq = 0
        self._plan_seq = 0
        self._notice_seq = 0
        self._active_plans: dict[str, _PlanRun] = {}
        self._plan_queue: dict[str, list[Diagnosis]] = {}
        self._applied_notices: set[str] = set()
        self._pending_acks: dict[tuple[str, str], int] = {}  # (dst, notice_id) -> retries so far
        self._forecast_state: dict[int, bool] = {}

    def start(self, now: SimTime) -> None:
        """Arm the periodic timers with per-node phase stagger."""
        scn = self.scenario
        phase_rng = self.sim.rng.stream(self.node, "phase")
        gossip_phase = phase_rng.randrange(scn.detector.gossip_interval)
        summary_phase = phase_rng.randrange(scn.detector.summary_interval)
        compare_phase = phase_rng.randrange(scn.analysis.compare_interval)
        self.sim.set_timer(self.node, gossip_phase + 1, "gossip")
        self.sim.set_timer(self.node, summary_phase + 1, "summary")
        self.sim.set_timer(self.node, compare_phase + 1, "compare")
        for idx, fc in enumerate(scn.forecasts):
            delay = max(fc.start - now, 0) + fc.period
            self.sim.set_timer(self.node, delay, "forecast", idx)

    def reset(self, now: SimTime) -> None:
        """Recovery after a crash: all state is gone, the incarnation is
        the recovery tick so peers accept the restarted counter."""
        self._build(now=now, incarnation=now)
        self.start(now)

    # -- helpers

    def _epoch(self) -> int:
        return self.sim.nodes[self.node].epoch

    def trace(self, kind: str, detail: dict) -> None:
        self.sim.trace.record(self.sim.now, kind, self.node, detail)

    def record_metric(self, source: str, metric: str, value: float) -> None:
        if not self.engine.ingest(source, metric, value, self.sim.now):
            self.trace("record_dropped", {"source": source, "metric": metric})

    # -- dispatch

    def on_message(self, sim: "Simulator", node: str, src: str, msg) -> None:
        if isinstance(msg, GossipDigest):
            self.detector.merge(msg, sim.now)
        elif isinstance(msg, SummaryBatch):
            self._on_summary_batch(msg)
        elif isinstance(msg, InvokeRequest):
            self._on_invoke_request(src, msg)
        elif isinstance(msg, InvokeResponse):
            self._on_invoke_response(src, msg)
        elif isinstance(msg, NoticeMsg):
            self._on_notice(src, msg.notice)
        elif isinstance(msg, NoticeAck):
            self._pending_acks.pop((src, msg.notice_id), None)
        else:
            self.trace("unrouted", {"msg": type(msg).__name__})

    def on_timer(self, sim: "Simulator", node: str, timer_kind: str, data) -> None:
        if timer_kind == "gossip":
            self._gossip_tick()
        elif timer_kind == "summary":
            self._summary_tick()
        elif timer_kind == "compare":
            self._compare_tick()
        elif timer_kind == "forecast":
            self._forecast_tick(data)
        elif timer_kind == "inv_step":
            self._on_step_timeout(*data)
        elif timer_kind == "inv_deadline":
            self._on_deadline(data)
        elif timer_kind == "svc_reply":
            dst, response = data
            self.sim.send(self.node, dst, response)
        elif timer_kind == "notice_retry":
            self._on_notice_retry(*data)
        elif timer_kind == "repair_step":
            self._on_repair_step(*data)
        else:
            self.trace("unrouted", {"timer": timer_kind})

    # -- membership ------------------------------------------------------------

    def _gossip_tick(self) -> None:
        now = self.sim.now
        for peer, digest in self.detector.local_tick(now):
            self.sim.send(self.node, peer, digest)
        for tr in self.detector.evaluate(now):
            if tr.kind == "suspect":
                self.trace("suspect", {"peer": tr.peer, "gap": tr.gap})
                self.record_metric(tr.peer, "heartbeat_gap", float(tr.gap))
            elif tr.kind == "refute":
                self.trace("refute", {"peer": tr.peer, "rejoin": tr.rejoin})
                self.registry.clear_degraded(tr.peer)
            else:
                self.trace("remove", {"peer": tr.peer})
                self._try_learn(tr.peer, "NodeCrash", now)
        self.sim.set_timer(self.node, self.scenario.detector.gossip_interval, "gossip")

    def _summary_tick(self) -> None:
        summary, sends = self.detector.summarize_and_channel(self.sim.now)
        if summary is not None:
            self.trace(
                "summary",
                {
                    "cluster": summary.cluster,
                    "epoch": summary.epoch,
                    "alive": list(summary.alive),
                    "suspected": list(summary.suspected),
                },
            )
        for dst, batch in sends:
            self.sim.send(self.node, dst, batch)
        self.sim.set_timer(self.node, self.scenario.detector.summary_interval, "summary")

    def _on_summary_batch(self, batch: SummaryBatch) -> None:
        det = self.detector
        is_root_rep = det.cluster == self.scenario.topology.root and det.representative(det.cluster) == self.node
        before = det.global_suspected() if is_root_rep else None
        det.apply_summaries(batch)
        if is_root_rep:
            added = det.global_suspected() - before
            for node in sorted(added):
                self.trace("global_view", {"peer": node, "status": "suspected"})

    # -- invocation (client side) -----------------------------------------------

    def issue_invocation(self, container_id: str, request: str) -> str:
        now = self.sim.now
        state = self.registry.container(container_id)
        self._inv_seq += 1
        inv_id = f"{self.node}.{self._epoch()}.{self._inv_seq}"
        inv = _Invocation(inv_id, container_id, request, state.spec.strategy, now)
        self.trace(
            "invoke",
            {
                "invocation": inv_id,
                "container": container_id,
                "request": request,
                "strategy": state.spec.strategy.value,
            },
        )
        self._invocations[inv_id] = inv
        if state.spec.strategy is Strategy.FAILOVER:
            inv.order = list(state.replicas)
            self._failover_send(inv)
        else:
            targets = []
            for r in state.replicas:
                reason = self._skip_reason(state, r, failover=False)
                if reason is None:
                    targets.append(r)
                else:
                    self.trace("replica_skip", {"invocation": inv_id, "host": r.host, "reason": reason})
            if not targets:
                self._complete(inv, "all_failed", None, unavailable=True)
                return inv_id
            inv.targets = [r.host for r in targets]
            for r in targets:
                self.sim.send(
                    self.node,
                    r.host,
                    InvokeRequest(inv_id, r.service_id, request),
                )
            self.sim.set_timer(self.node, state.spec.timeout, "inv_deadline", inv_id)
        return inv_id

    def _skip_reason(self, state, replica: Replica, failover: bool) -> str | None:
        view = self.detector.view.get(replica.host)
        peer_state = PeerState.ALIVE if (view is None or replica.host == self.node) else view.state
        if peer_state is PeerState.REMOVED:
            return "removed"
        if failover and peer_state is PeerState.SUSPECTED:
            return "suspected"
        if replica.host in state.degraded:
            return "degraded"
        return None

    def _failover_send(self, inv: _Invocation) -> None:
        """Send to the next eligible replica in configured order, or give
        up when none remain."""
        state = self.registry.container(inv.container_id)
        while inv.step < len(inv.order):
            replica = inv.order[inv.step]
            reason = self._skip_reason(state, replica, failover=True)
            if reason is None:
                self.sim.send(
                    self.node,
                    replica.host,
                    InvokeRequest(inv.invocation_id, replica.service_id, inv.request),
                )
                self.sim.set_timer(
                    self.node, state.spec.timeout, "inv_step", (inv.invocation_id, inv.step)
                )
                return
            self.trace("replica_skip", {"invocation": inv.invocation_id, "host": replica.host, "reason": reason})
            inv.step += 1
        self._complete(inv, "all_failed", None, unavailable=True)

    def _on_step_timeout(self, inv_id: str, step: int) -> None:
        inv = self._invocations.get(inv_id)
        if inv is None or inv.step != step:
            return  # answered or already advanced
        host = inv.order[step].host
        self.trace("failover_step", {"invocation": inv_id, "step": step, "host": host, "result": "timeout"})
        self._degrade(inv.container_id, host, "timeout")
        inv.step += 1
        self._failover_send(inv)

    def _on_invoke_response(self, src: str, msg: InvokeResponse) -> None:
        inv = self._invocations.get(msg.invocation_id)
        if inv is None:
            return
        if inv.strategy is Strategy.FAILOVER:
            if inv.step >= len(inv.order) or inv.order[inv.step].host != src:
                return  # stale answer from an abandoned step
            self.trace(
                "failover_step",
                {"invocation": inv.invocation_id, "step": inv.step, "host": src, "result": "ok"},
            )
            self._complete(inv, "success", msg.value, responders=[src])
        else:
            if src in inv.responses or src not in inv.targets:
                return
            inv.responses[src] = msg.value
            if len(inv.responses) == len(inv.targets):
                self._decide_active(inv)

    def _on_deadline(self, inv_id: str) -> None:
        inv = self._invocations.get(inv_id)
        if inv is None:
            return
        self._decide_active(inv)

    def _decide_active(self, inv: _Invocation) -> None:
        state = self.registry.container(inv.container_id)
        n = len(state.replicas)
        winner = containers_mod.vote(inv.responses.values(), n)
        counts: dict[str, int] = {}
        for v in inv.responses.values():
            counts[v] = counts.get(v, 0) + 1
        self.trace(
            "vote_result",
            {
                "invocation": inv.invocation_id,
                "n": n,
                "counts": {k: counts[k] for k in sorted(counts)},
                "winner": winner,
                "responders": sorted(inv.responses),
            },
        )
        if winner is not None:
            for host in sorted(inv.responses):
                if inv.responses[host] != winner:
                    self._degrade(inv.container_id, host, "corrupt")
            self._complete(inv, "success", winner, responders=sorted(inv.responses))
        elif not inv.responses:
            self._complete(inv, "all_failed", None)
        else:
            self._complete(inv, "no_quorum", None, responders=sorted(inv.responses))

    def _degrade(self, container_id: str, host: str, why: str) -> None:
        try:
            fresh = self.registry.mark_degraded(container_id, host)
        except UnknownReplica:
            return
        if fresh:
            self.trace("replica_degraded", {"container": container_id, "host": host, "reason": why})
            self.record_metric(container_id, "replica_degraded", 1.0)

    def _complete(
        self,
        inv: _Invocation,
        outcome: str,
        value: str | None,
        responders: list[str] | None = None,
        unavailable: bool = False,
    ) -> None:
        now = self.sim.now
        self._invocations.pop(inv.invocation_id, None)
        self.trace(
            "invoke_done",
            {
                "invocation": inv.invocation_id,
                "container": inv.container_id,
                "outcome": outcome,
                "value": value,
                "responders": responders or [],
                "latency": now - inv.started,
            },
        )
        if outcome == "success":
            self.record_metric(inv.container_id, "svc_latency", float(now - inv.started))
            self.record_metric(inv.container_id, "svc_error", 0.0)
        else:
            self.record_metric(inv.container_id, "svc_error", 1.0)
            if unavailable:
                self.record_metric(inv.container_id, "svc_unavailable", 1.0)
            if outcome == "all_failed":
                self._try_learn(inv.container_id, "ServiceCrash", now)

    # -- invocation (server side) -------------------------------------------------

    def _on_invoke_request(self, src: str, msg: InvokeRequest) -> None:
        service = self.registry.services.get(msg.service_id)
        if service is None:
            return  # not hosting that service: no answer, caller times out
        value = service.respond(msg.request)
        delay = 0
        for b in self.behaviors.get(msg.service_id, ()):
            if b.start <= self.sim.now < b.stop:
                if b.kind == "corrupt":
                    value = b.value if b.value is not None else value + "!"
                elif b.kind == "slow":
                    delay = b.delay
                break
        response = InvokeResponse(msg.invocation_id, value)
        if delay > 0:
            self.sim.set_timer(self.node, delay, "svc_reply", (src, response))
        else:
            self.sim.send(self.node, src, response)

    # -- analysis ------------------------------------------------------------------

    def _compare_tick(self) -> None:
        for diagnosis in self.engine.poll():
            self._emit_diagnosis(diagnosis)
        self.sim.set_timer(self.node, self.scenario.analysis.compare_interval, "compare")

    def _emit_diagnosis(self, diagnosis: Diagnosis) -> None:
        self.trace(
            "diagnosis",
            {
                "subject": diagnosis.subject,
                "fault_class": diagnosis.fault_class,
                "confidence": diagnosis.confidence,
                "patterns": [pid for pid, _ in diagnosis.evidence],
            },
        )
        self.submit_diagnosis(diagnosis)

    def _forecast_tick(self, idx: int) -> None:
        fc = self.scenario.forecasts[idx]
        window = self.engine.windows.get((fc.source, fc.metric))
        if window is not None:
            try:
                forecast = forecast_ma(tuple(window), fc.k)
            except InsufficientData:
                forecast = None
            if forecast is not None:
                will_cross = COMPARATORS[fc.cmp](forecast, fc.threshold)
                self.trace(
                    "prediction",
                    {
                        "source": fc.source,
                        "metric": fc.metric,
                        "forecast": forecast,
                        "horizon": fc.horizon,
                        "threshold": fc.threshold,
                        "will_cross": will_cross,
                    },
                )
                previous = self._forecast_state.get(idx, False)
                self._forecast_state[idx] = will_cross
                if will_cross and not previous and fc.fault_class is not None:
                    samples = tuple(window)[-fc.k:]
                    self._emit_diagnosis(
                        Diagnosis(
                            subject=fc.source,
                            fault_class=fc.fault_class,
                            confidence=0.5,
                            evidence=((f"forecast-{fc.metric}", samples),),
                        )
                    )
        self.sim.set_timer(self.node, fc.period, "forecast", idx)

    def _try_learn(self, subject: str, fault_class: str, fault_time: SimTime) -> None:
        try:
            pattern = self.engine.learn(subject, fault_class, fault_time)
        except NoSignal:
            return
        pred = pattern.predicate
        self.trace(
            "pattern_learned",
            {
                "pattern": pattern.pattern_id,
                "subject": subject,
                "fault_class": fault_class,
                "metric": pred.metric,
                "bound": pred.bound,
            },
        )

    def ingest_telemetry(self, source: str, metric: str, value: float) -> None:
        self.record_metric(source, metric, value)

    # -- repair ----------------------------------------------------------------------

    def submit_diagnosis(self, diagnosis: Diagnosis) -> None:
        """Plans are serialized per subject; a diagnosis arriving while
        its subject is under repair queues up behind the running plan."""
        if diagnosis.subject in self._active_plans:
            self._plan_queue.setdefault(diagnosis.subject, []).append(diagnosis)
            return
        self._start_plan(diagnosis)

    def _start_plan(self, diagnosis: Diagnosis) -> None:
        self._plan_seq += 1
        plan_id = f"{self.node}.{self._epoch()}.p{self._plan_seq}"
        the_plan = repair_mod.plan(diagnosis, self.policy_map, self.registry, plan_id)
        self.trace(
            "plan",
            {
                "plan": plan_id,
                "subject": the_plan.subject,
                "fault_class": the_plan.fault_class,
                "actions": [a.name for a in the_plan.actions],
            },
        )
        self._active_plans[the_plan.subject] = _PlanRun(the_plan)
        self._advance_plan(the_plan.subject)

    def _advance_plan(self, subject: str) -> None:
        run = self._active_plans[subject]
        if run.step >= len(run.plan.actions):
            self._finish_plan(subject, ok=True)
            return
        action = run.plan.actions[run.step]
        if isinstance(action, AlertOperator):
            self.trace("alert_operator", {"plan": run.plan.plan_id, "reason": action.reason})
            run.step += 1
            self._advance_plan(subject)
            return
        ok, latency, detail = self.scenario.ports.call(action)
        self.sim.set_timer(self.node, latency, "repair_step", (subject, run.step, ok, detail))

    def _on_repair_step(self, subject: str, step: int, ok: bool, detail: str) -> None:
        run = self._active_plans.get(subject)
        if run is None or run.step != step:
            return
        action = run.plan.actions[step]
        self.trace(
            "repair_step",
            {"plan": run.plan.plan_id, "action": action.name, "ok": ok, "detail": detail},
        )
        if not ok:
            # stop on failure, alert automatically
            self.trace("alert_operator", {"plan": run.plan.plan_id, "reason": f"{action.name} failed: {detail}"})
            self._finish_plan(subject, ok=False)
            return
        if action.state_changing:
            self._notice_seq += 1
            notice_id = f"{self.node}.{self._epoch()}.n{self._notice_seq}"
            notice = notice_for(action, notice_id)
            self._applied_notices.add(notice_id)
            apply_notice(self.registry, notice)
            self.trace("notice_applied", {"notice": notice_id, "origin": True})
            self._propagate(notice)
        run.step += 1
        self._advance_plan(subject)

    def _finish_plan(self, subject: str, ok: bool) -> None:
        run = self._active_plans.pop(subject)
        self.trace("plan_done", {"plan": run.plan.plan_id, "ok": ok})
        queued = self._plan_queue.get(subject)
        if queued:
            self._start_plan(queued.pop(0))

    # -- change notice propagation ------------------------------------------------

    def _propagate(self, notice: ChangeNotice) -> None:
        rep = self.detector.representative(self.detector.cluster)
        if rep == self.node:
            self._fan_out(notice, exclude=None)
        else:
            self._reliable_send(rep, notice)

    def _fan_out(self, notice: ChangeNotice, exclude: str | None) -> None:
        """Representative only: every other member of our cluster, then
        the tree targets; ``exclude`` is whoever handed us the notice."""
        det = self.detector
        for t in det.peers + tuple(det.tree_targets()):
            if t != exclude:
                self._reliable_send(t, notice)

    def _reliable_send(self, dst: str, notice: ChangeNotice) -> None:
        key = (dst, notice.notice_id)
        if key in self._pending_acks:
            return
        self._pending_acks[key] = 0
        self._send_notice(dst, notice, attempt=0)

    def _send_notice(self, dst: str, notice: ChangeNotice, attempt: int) -> None:
        self.trace("notice_sent", {"notice": notice.notice_id, "dst": dst, "attempt": attempt})
        self.sim.send(self.node, dst, NoticeMsg(notice))
        self.sim.set_timer(self.node, self.scenario.repair.retry_interval, "notice_retry", (dst, notice))

    def _on_notice_retry(self, dst: str, notice: ChangeNotice) -> None:
        key = (dst, notice.notice_id)
        retries = self._pending_acks.get(key)
        if retries is None:
            return  # acked
        if retries >= self.scenario.repair.retry_max:
            del self._pending_acks[key]
            self.trace("propagation_incomplete", {"notice": notice.notice_id, "dst": dst, "retries": retries})
            return
        self._pending_acks[key] = retries + 1
        self._send_notice(dst, notice, attempt=retries + 1)

    def _on_notice(self, src: str, notice: ChangeNotice) -> None:
        self.sim.send(self.node, src, NoticeAck(notice.notice_id))  # always ack, duplicates too
        if notice.notice_id in self._applied_notices:
            self.trace("notice_dup", {"notice": notice.notice_id, "src": src})
            return
        self._applied_notices.add(notice.notice_id)
        apply_notice(self.registry, notice)
        self.trace("notice_applied", {"notice": notice.notice_id, "origin": False})
        if self.detector.representative(self.detector.cluster) == self.node:
            self._fan_out(notice, exclude=src)

    # -- security -------------------------------------------------------------------

    def mediate_access(self, request_id: str, subject: str, object_id: str, op: str) -> None:
        self.trace("access", {"request": request_id, "subject": subject, "object": object_id, "op": op})
        record = self.monitor.mediate(subject, object_id, op, self.sim.now)
        self.trace(
            "audit",
            {
                "request": request_id,
                "subject": subject,
                "object": object_id,
                "op": op,
                "decision": record.decision,
                "reason": record.reason,
                "matched_rule": record.matched_rule,
                "policy_version": record.policy_version,
            },
        )
        self.record_metric(subject, "deny_rate", 1.0 if record.decision == "deny" else 0.0)

    def update_policy(self, action: str, index: int, rule: Rule | None) -> None:
        try:
            if action == "insert":
                version = self.monitor.insert_rule(index, rule)
            else:
                version = self.monitor.remove_rule(index)
        except IndexOutOfRange as exc:
            self.trace("policy_rejected", {"action": action, "index": index, "error": str(exc)})
            return
        self.trace("policy_changed", {"action": action, "index": index, "version": version})
