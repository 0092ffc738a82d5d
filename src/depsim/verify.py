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
from typing import Iterable

from .membership import ClusterTopology
from .tracing import Row, detail_field, trace_rows


@dataclass(frozen=True)
class Violation:
    check: str
    message: str
    at: int
    node: str | None


def _crash_isolation(rows: list[Row]) -> list[Violation]:
    out: list[Violation] = []
    crashed: set[str] = set()
    for t, kind, node, _ in rows:
        if kind == "crash":
            crashed.add(node)
            continue
        if kind == "recover":
            crashed.discard(node)
            continue
        if node in crashed and kind != "drop":
            out.append(Violation("crash-isolation", f"{kind} entry from crashed node", t, node))
    return out


def _causality(rows: list[Row], base_latency: int) -> list[Violation]:
    out: list[Violation] = []
    sent_at: dict[int, int] = {}  # msg_id -> send tick
    delivered: set[int] = set()
    for t, kind, node, detail in rows:
        if kind == "send":
            sent_at[detail_field(kind, detail, "msg_id")] = t
        elif kind == "deliver":
            msg_id = detail_field(kind, detail, "msg_id")
            send_t = sent_at.get(msg_id)
            if send_t is None:
                out.append(Violation("causality", f"delivery of msg_id {msg_id} without a prior send", t, node))
                continue
            if msg_id in delivered:
                out.append(Violation("causality", f"msg_id {msg_id} delivered twice", t, node))
                continue
            delivered.add(msg_id)
            claimed = detail_field(kind, detail, "sent_at")
            if claimed != send_t:
                out.append(Violation("causality", f"msg_id {msg_id} sent_at {claimed} != send time {send_t}", t, node))
            elif t < send_t + base_latency:
                out.append(
                    Violation(
                        "causality",
                        f"msg_id {msg_id} delivered after {t - send_t} ticks, base latency is {base_latency}",
                        t,
                        node,
                    )
                )
    return out


def _exactly_once(rows: list[Row]) -> list[Violation]:
    out: list[Violation] = []
    applied: dict[str, set[str]] = {}  # node -> notices applied since its last crash
    for t, kind, node, detail in rows:
        if kind == "crash":
            # the node's applied set dies with it
            applied.pop(node, None)
        elif kind == "notice_applied":
            notice = detail["notice"]
            seen = applied.setdefault(node, set())
            if notice in seen:
                out.append(Violation("exactly-once", f"notice {notice} applied twice at the same node", t, node))
            seen.add(notice)
    return out


_LEGAL = {
    ("alive", "suspect"): "suspected",
    ("suspected", "refute"): "alive",
    ("suspected", "remove"): "removed",
    ("removed", "refute"): "alive",
}


def _suspicion_transitions(rows: list[Row]) -> list[Violation]:
    out: list[Violation] = []
    state: dict[tuple[str, str], str] = {}
    for t, kind, node, detail in rows:
        if kind == "crash":
            # the observer's detector state dies with it
            for key in [k for k in state if k[0] == node]:
                del state[key]
            continue
        if kind not in ("suspect", "refute", "remove"):
            continue
        key = (node, detail["peer"])
        cur = state.get(key, "alive")
        nxt = _LEGAL.get((cur, kind))
        if nxt is None:
            out.append(Violation("suspicion-transitions", f"{kind} on peer {key[1]} while {cur}", t, node))
            # resynchronize so one bad entry does not cascade
            nxt = {"suspect": "suspected", "refute": "alive", "remove": "removed"}[kind]
        state[key] = nxt
    return out


def _mediation_completeness(rows: list[Row]) -> list[Violation]:
    out: list[Violation] = []
    accesses: dict[str, tuple[int, str | None]] = {}  # request id -> (t, node) of its access
    audited: set[str] = set()
    for t, kind, node, detail in rows:
        if kind == "access":
            rid = detail["request"]
            if rid in accesses:
                out.append(Violation("mediation-completeness", f"duplicate access request id {rid}", t, node))
            accesses[rid] = (t, node)
        elif kind == "audit":
            rid = detail["request"]
            if rid in audited:
                out.append(Violation("mediation-completeness", f"request {rid} audited twice", t, node))
            audited.add(rid)
            if rid not in accesses:
                out.append(Violation("mediation-completeness", f"audit for unseen request {rid}", t, node))
    for rid, (t, node) in accesses.items():
        if rid not in audited:
            out.append(Violation("mediation-completeness", f"access {rid} was never audited", t, node))
    return out


def _hierarchy_soundness(rows: list[Row], topology: ClusterTopology) -> list[Violation]:
    out: list[Violation] = []
    root_members = set(topology.clusters[topology.root])
    for t, kind, node, detail in rows:
        if kind == "summary":
            cluster = detail["cluster"]
            members = topology.clusters.get(cluster)
            if members is None or node not in members:
                out.append(Violation("hierarchy-soundness", f"summary for {cluster} from non-member", t, node))
        elif kind == "global_view" and node not in root_members:
            out.append(Violation("hierarchy-soundness", "global view entry outside the root cluster", t, node))
    return out


def _alert_totality(rows: list[Row]) -> list[Violation]:
    out: list[Violation] = []
    alerts_by_plan = {detail.get("plan") for _, kind, _, detail in rows if kind == "alert_operator"}
    for t, kind, node, detail in rows:
        if kind == "plan_done" and not detail["ok"]:
            if detail["plan"] not in alerts_by_plan:
                out.append(Violation("alert-totality", f"failed plan {detail['plan']} raised no alert", t, node))
        elif kind == "plan" and detail["actions"] == ["alert_operator"]:
            if detail["plan"] not in alerts_by_plan:
                out.append(Violation("alert-totality", f"alert-only plan {detail['plan']} never alerted", t, node))
    return out


def _module_errors(rows: list[Row]) -> list[Violation]:
    return [
        Violation("module-errors", str(detail.get("error", "handler raised")), t, node)
        for t, kind, node, detail in rows
        if kind == "module_error"
    ]


def verify_trace(
    entries: Iterable[dict],
    base_latency: int = 1,
    topology: ClusterTopology | None = None,
) -> list[Violation]:
    """Run every applicable check; violations come back in check order."""
    rows = trace_rows(entries)
    out: list[Violation] = []
    out.extend(_crash_isolation(rows))
    out.extend(_causality(rows, base_latency))
    out.extend(_exactly_once(rows))
    out.extend(_suspicion_transitions(rows))
    out.extend(_mediation_completeness(rows))
    if topology is not None:
        out.extend(_hierarchy_soundness(rows, topology))
    out.extend(_alert_totality(rows))
    out.extend(_module_errors(rows))
    return out
