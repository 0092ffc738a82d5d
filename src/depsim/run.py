"""Assemble a scenario into a live simulation and drive it.

The builder instantiates one :class:`NodeRuntime` per node, attaches it
to the simulator, schedules every scripted workload event and fault,
and exposes ``run_until``/``run``. Workload events fire through the
simulator's directive channel, so they obey the same deterministic
(fire_at, seq) ordering as everything else; events addressed to a node
that happens to be crashed at fire time are dropped on the floor, which
is what a real driver talking to a dead host would experience.
"""

from __future__ import annotations

from .runtime import NodeRuntime
from .scenario import AccessEvent, InvokeEvent, PolicyEvent, Scenario, TelemetryEvent
from .sim import NetworkModel, Recover, Simulator
from .tracing import TraceRecorder


class SimulationRun:
    def __init__(self, scenario: Scenario, seed: int | None = None):
        self.scenario = scenario
        network = NetworkModel(scenario.base_latency, scenario.jitter, scenario.loss)
        node_ids = scenario.topology.nodes()
        self.sim = Simulator(
            node_ids,
            network,
            seed=scenario.seed if seed is None else seed,
            directive_handler=self._on_directive,
        )
        self.runtimes: dict[str, NodeRuntime] = {}
        for node in node_ids:
            rt = NodeRuntime(self.sim, node, scenario)
            self.sim.attach(node, rt.on_message, rt.on_timer)
            rt.start(0)
            self.runtimes[node] = rt
        for events in (scenario.invocations, scenario.accesses, scenario.policy_updates, scenario.telemetry):
            for ev in events:
                self.sim.schedule_directive(ev.at, ev)
        for fault in scenario.faults:
            self.sim.inject_fault(fault)

    def _on_directive(self, sim: Simulator, directive) -> None:
        if isinstance(directive, Recover):
            self.runtimes[directive.node].reset(sim.now)
            return
        node = directive.client if isinstance(directive, InvokeEvent) else directive.node
        if not sim.nodes[node].up:
            return  # scripted event addressed to a dead host
        rt = self.runtimes[node]
        if isinstance(directive, InvokeEvent):
            rt.issue_invocation(directive.container, directive.request)
        elif isinstance(directive, AccessEvent):
            rt.mediate_access(directive.request_id, directive.subject, directive.object_id, directive.op)
        elif isinstance(directive, PolicyEvent):
            rt.update_policy(directive.action, directive.index, directive.rule)
        elif isinstance(directive, TelemetryEvent):
            rt.ingest_telemetry(directive.source, directive.metric, directive.value)
        else:
            sim.trace.record(sim.now, "unrouted", node, {"directive": repr(directive)})

    def run_until(self, t: int) -> "SimulationRun":
        self.sim.run_until(t)
        return self

    def run(self) -> "SimulationRun":
        return self.run_until(self.scenario.until)

    @property
    def trace(self) -> TraceRecorder:
        return self.sim.trace
