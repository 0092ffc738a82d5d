"""Trace invariant checking.

Each check replays the trace and reports violations by name. The
checks are intentionally independent of the simulator: they treat the
trace as the authority, so they catch both implementation bugs and
hand-corrupted trace files.

Checks:

- ``crash-isolation``: a crashed node produces no trace entries other
  than harness-side drops until it recovers.
- ``causality``: every delivery pairs with exactly one earlier send of
  the same message id and respects the base network latency.
- ``exactly-once``: no node applies the same change notice twice within
  one up interval.
- ``suspicion-transitions``: per (observer, peer) the suspect/refute/
  remove entries follow the legal state machine.
- ``mediation-completeness``: access attempts and audit entries pair up
  one to one by request id.
- ``hierarchy-soundness``: cluster summaries are only emitted by
  members of the summarized cluster, and global view entries only by
  root cluster members (needs the scenario's topology).
- ``alert-totality``: every failed plan raised an operator alert, and
  plans that consist only of an alert actually alerted.
- ``module-errors``: component code never raised inside a handler.
"""

from __future__ import annotations

from dataclasses import dataclass

from .membership import ClusterTopology


@dataclass(frozen=True)
class Violation:
    check: str
    message: str
    at: int
    node: str | None


def _crash_isolation(entries: list[dict]) -> list[Violation]:
    out: list[Violation] = []
    crashed: set[str] = set()
    for e in entries:
        node, kind = e["node"], e["kind"]
        if kind == "crash":
            crashed.add(node)
            continue
        if kind == "recover":
            crashed.discard(node)
            continue
        if node in crashed and kind != "drop":
            out.append(Violation("crash-isolation", f"{kind} entry from crashed node", e["t"], node))
    return out


def _causality(entries: list[dict], base_latency: int) -> list[Violation]:
    out: list[Violation] = []
    sends: dict[int, dict] = {}
    delivered: set[int] = set()
    for e in entries:
        detail = e["detail"]
        if e["kind"] == "send":
            sends[detail["msg_id"]] = e
        elif e["kind"] == "deliver":
            msg_id = detail.get("msg_id")
            send = sends.get(msg_id)
            if send is None:
                out.append(Violation("causality", f"delivery of msg_id {msg_id} without a prior send", e["t"], e["node"]))
                continue
            if msg_id in delivered:
                out.append(Violation("causality", f"msg_id {msg_id} delivered twice", e["t"], e["node"]))
                continue
            delivered.add(msg_id)
            if detail.get("sent_at") != send["t"]:
                out.append(
                    Violation("causality", f"msg_id {msg_id} sent_at {detail.get('sent_at')} != send time {send['t']}", e["t"], e["node"])
                )
            elif e["t"] < send["t"] + base_latency:
                out.append(
                    Violation(
                        "causality",
                        f"msg_id {msg_id} delivered after {e['t'] - send['t']} ticks, base latency is {base_latency}",
                        e["t"],
                        e["node"],
                    )
                )
    return out


def _exactly_once(entries: list[dict]) -> list[Violation]:
    out: list[Violation] = []
    applied: dict[str, set[str]] = {}  # node -> notices applied since its last crash
    for e in entries:
        kind = e["kind"]
        if kind == "crash":
            # the node's applied set dies with it
            applied.pop(e["node"], None)
        elif kind == "notice_applied":
            notice = e["detail"]["notice"]
            seen = applied.setdefault(e["node"], set())
            if notice in seen:
                out.append(
                    Violation("exactly-once", f"notice {notice} applied twice at the same node", e["t"], e["node"])
                )
            seen.add(notice)
    return out


_LEGAL = {
    ("alive", "suspect"): "suspected",
    ("suspected", "refute"): "alive",
    ("suspected", "remove"): "removed",
    ("removed", "refute"): "alive",
}


def _suspicion_transitions(entries: list[dict]) -> list[Violation]:
    out: list[Violation] = []
    state: dict[tuple[str, str], str] = {}
    for e in entries:
        kind = e["kind"]
        if kind == "crash":
            # the observer's detector state dies with it
            observer = e["node"]
            for key in [k for k in state if k[0] == observer]:
                del state[key]
            continue
        if kind not in ("suspect", "refute", "remove"):
            continue
        key = (e["node"], e["detail"]["peer"])
        cur = state.get(key, "alive")
        nxt = _LEGAL.get((cur, kind))
        if nxt is None:
            out.append(
                Violation("suspicion-transitions", f"{kind} on peer {key[1]} while {cur}", e["t"], e["node"])
            )
            # resynchronize so one bad entry does not cascade
            nxt = {"suspect": "suspected", "refute": "alive", "remove": "removed"}[kind]
        state[key] = nxt
    return out


def _mediation_completeness(entries: list[dict]) -> list[Violation]:
    out: list[Violation] = []
    accesses: dict[str, dict] = {}
    audited: set[str] = set()
    for e in entries:
        if e["kind"] == "access":
            rid = e["detail"]["request"]
            if rid in accesses:
                out.append(Violation("mediation-completeness", f"duplicate access request id {rid}", e["t"], e["node"]))
            accesses[rid] = e
        elif e["kind"] == "audit":
            rid = e["detail"]["request"]
            if rid in audited:
                out.append(Violation("mediation-completeness", f"request {rid} audited twice", e["t"], e["node"]))
            audited.add(rid)
            if rid not in accesses:
                out.append(Violation("mediation-completeness", f"audit for unseen request {rid}", e["t"], e["node"]))
    for rid, e in accesses.items():
        if rid not in audited:
            out.append(Violation("mediation-completeness", f"access {rid} was never audited", e["t"], e["node"]))
    return out


def _hierarchy_soundness(entries: list[dict], topology: ClusterTopology) -> list[Violation]:
    out: list[Violation] = []
    root_members = set(topology.clusters[topology.root])
    for e in entries:
        if e["kind"] == "summary":
            cluster = e["detail"]["cluster"]
            members = topology.clusters.get(cluster)
            if members is None or e["node"] not in members:
                out.append(
                    Violation("hierarchy-soundness", f"summary for {cluster} from non-member", e["t"], e["node"])
                )
        elif e["kind"] == "global_view" and e["node"] not in root_members:
            out.append(
                Violation("hierarchy-soundness", "global view entry outside the root cluster", e["t"], e["node"])
            )
    return out


def _alert_totality(entries: list[dict]) -> list[Violation]:
    out: list[Violation] = []
    alerts_by_plan: set[str] = set()
    for e in entries:
        if e["kind"] == "alert_operator":
            alerts_by_plan.add(e["detail"].get("plan"))
    for e in entries:
        if e["kind"] == "plan_done" and not e["detail"]["ok"]:
            if e["detail"]["plan"] not in alerts_by_plan:
                out.append(
                    Violation("alert-totality", f"failed plan {e['detail']['plan']} raised no alert", e["t"], e["node"])
                )
        elif e["kind"] == "plan" and e["detail"]["actions"] == ["alert_operator"]:
            if e["detail"]["plan"] not in alerts_by_plan:
                out.append(
                    Violation("alert-totality", f"alert-only plan {e['detail']['plan']} never alerted", e["t"], e["node"])
                )
    return out


def _module_errors(entries: list[dict]) -> list[Violation]:
    return [
        Violation("module-errors", str(e["detail"].get("error", "handler raised")), e["t"], e["node"])
        for e in entries
        if e["kind"] == "module_error"
    ]


def verify_trace(
    entries: list[dict],
    base_latency: int = 1,
    topology: ClusterTopology | None = None,
) -> list[Violation]:
    """Run every applicable check; violations come back in check order."""
    out: list[Violation] = []
    out.extend(_crash_isolation(entries))
    out.extend(_causality(entries, base_latency))
    out.extend(_exactly_once(entries))
    out.extend(_suspicion_transitions(entries))
    out.extend(_mediation_completeness(entries))
    if topology is not None:
        out.extend(_hierarchy_soundness(entries, topology))
    out.extend(_alert_totality(entries))
    out.extend(_module_errors(entries))
    return out
