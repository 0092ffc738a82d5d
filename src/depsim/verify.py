"""Trace invariant checking.

One forward pass over the trace's rows checks every invariant and
reports violations by name; the two verdicts that need the whole trace,
an access never audited and a plan never alerted, settle after it. The
checks are intentionally independent of the simulator: they treat the
trace as the authority, so they catch both implementation bugs and
hand-corrupted trace files.

All checks share one crash model: a ``crash`` entry marks its node down
until its next ``recover``, and the node's applied notices and its
detector's view of its peers die with it.

Checks, in the order their violations are reported (each check's in
trace order):

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
  plans that consist only of an alert actually alerted, anywhere in the
  trace.
- ``module-errors``: component code never raised inside a handler.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .membership import ClusterTopology
from .tracing import Row, detail_field

_CHECKS = (
    "crash-isolation",
    "causality",
    "exactly-once",
    "suspicion-transitions",
    "mediation-completeness",
    "hierarchy-soundness",
    "alert-totality",
    "module-errors",
)

# (state, entry kind) -> next state of one (observer, peer) pair
_LEGAL = {
    ("alive", "suspect"): "suspected",
    ("suspected", "refute"): "alive",
    ("suspected", "remove"): "removed",
    ("removed", "refute"): "alive",
}
# The state an illegal entry resynchronizes its pair to, so one bad entry does not cascade
_RESYNC = {"suspect": "suspected", "refute": "alive", "remove": "removed"}


@dataclass(frozen=True)
class Violation:
    check: str
    message: str
    at: int
    node: str | None


def verify_trace(
    rows: Iterable[Row], base_latency: int = 1, topology: ClusterTopology | None = None
) -> list[Violation]:
    """Run every applicable check in one pass over the trace's rows, a
    recorder's list or a file's streamed rows; violations come back in
    check order, each check's in trace order."""
    found: dict[str, list[Violation]] = {check: [] for check in _CHECKS}

    def flag(check: str, message: str, t: int, node: str | None) -> None:
        found[check].append(Violation(check, message, t, node))

    crashed: set[str] = set()
    sent_at: dict[int, int] = {}  # msg_id -> send tick
    delivered: set[int] = set()
    applied: dict[str, set[str]] = {}  # node -> notices applied since its last crash
    observed: dict[str, dict[str, str]] = {}  # observer -> peer -> suspicion state
    accesses: dict[str, tuple[int, str | None]] = {}  # request id -> (t, node) of its last access
    audited: set[str] = set()
    alerted: set[str] = set()  # plans an alert_operator entry names
    need_alert: list[tuple[str, str, int, str | None]] = []  # (plan, message, t, node)

    for t, kind, node, detail in rows:
        if kind == "crash":
            crashed.add(node)
            applied.pop(node, None)
            observed.pop(node, None)
            continue
        if kind == "recover":
            crashed.discard(node)
            continue
        if node in crashed and kind != "drop":
            flag("crash-isolation", f"{kind} entry from crashed node", t, node)
        if kind == "send":
            sent_at[detail_field(kind, detail, "msg_id")] = t
        elif kind == "deliver":
            msg_id = detail_field(kind, detail, "msg_id")
            send_t = sent_at.get(msg_id)
            if send_t is None:
                flag("causality", f"delivery of msg_id {msg_id} without a prior send", t, node)
            elif msg_id in delivered:
                flag("causality", f"msg_id {msg_id} delivered twice", t, node)
            else:
                delivered.add(msg_id)
                claimed = detail_field(kind, detail, "sent_at")
                if claimed != send_t:
                    flag("causality", f"msg_id {msg_id} sent_at {claimed} != send time {send_t}", t, node)
                elif t < send_t + base_latency:
                    message = f"msg_id {msg_id} delivered after {t - send_t} ticks, base latency is {base_latency}"
                    flag("causality", message, t, node)
        elif kind == "notice_applied":
            seen = applied.setdefault(node, set())
            if detail["notice"] in seen:
                flag("exactly-once", f"notice {detail['notice']} applied twice at the same node", t, node)
            seen.add(detail["notice"])
        elif kind in _RESYNC:
            peers = observed.setdefault(node, {})
            peer = detail["peer"]
            cur = peers.get(peer, "alive")
            nxt = _LEGAL.get((cur, kind))
            if nxt is None:
                flag("suspicion-transitions", f"{kind} on peer {peer} while {cur}", t, node)
                nxt = _RESYNC[kind]
            peers[peer] = nxt
        elif kind == "access":
            rid = detail["request"]
            if rid in accesses:
                flag("mediation-completeness", f"duplicate access request id {rid}", t, node)
            accesses[rid] = (t, node)
        elif kind == "audit":
            rid = detail["request"]
            if rid in audited:
                flag("mediation-completeness", f"request {rid} audited twice", t, node)
            audited.add(rid)
            if rid not in accesses:
                flag("mediation-completeness", f"audit for unseen request {rid}", t, node)
        elif kind == "summary" and topology is not None:
            cluster = detail["cluster"]
            if node not in topology.clusters.get(cluster, ()):
                flag("hierarchy-soundness", f"summary for {cluster} from non-member", t, node)
        elif kind == "global_view" and topology is not None and node not in topology.clusters[topology.root]:
            flag("hierarchy-soundness", "global view entry outside the root cluster", t, node)
        elif kind == "alert_operator":
            alerted.add(detail.get("plan"))
        elif kind == "plan_done" and not detail["ok"]:
            need_alert.append((detail["plan"], f"failed plan {detail['plan']} raised no alert", t, node))
        elif kind == "plan" and detail["actions"] == ["alert_operator"]:
            need_alert.append((detail["plan"], f"alert-only plan {detail['plan']} never alerted", t, node))
        elif kind == "module_error":
            flag("module-errors", str(detail.get("error", "handler raised")), t, node)

    for rid, (t, node) in accesses.items():
        if rid not in audited:
            flag("mediation-completeness", f"access {rid} was never audited", t, node)
    for plan, message, t, node in need_alert:
        if plan not in alerted:
            flag("alert-totality", message, t, node)
    return [v for violations in found.values() for v in violations]
