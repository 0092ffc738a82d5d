"""Offline metrics over a finished trace.

Everything here is recomputable from the JSONL trace alone (plus the
scenario for topology-aware fields), so a report can be regenerated
long after the run. Ground truth for suspicion accuracy comes from the
crash/recover entries in the same trace: a suspicion is true while its
peer is inside a crash window and false otherwise.
"""

from __future__ import annotations

from typing import Iterable

from .scenario import Scenario
from .tracing import Row, detail_field


def _holds(rec: dict, t: int) -> bool:
    """Whether ``t`` falls in the crash record's window [at, recovered_at)."""
    stop = rec["recovered_at"]
    return rec["at"] <= t and (stop is None or t < stop)


def _down_at(crashes: list[dict], node: str, t: int) -> dict | None:
    """The newest crash record of ``node`` whose window holds ``t``, or
    None when ``node`` was up at ``t``."""
    for rec in reversed(crashes):
        if rec["node"] == node and _holds(rec, t):
            return rec
    return None


def compute_metrics(rows: Iterable[Row], scenario: Scenario | None = None, warmup: int | None = None) -> dict:
    if warmup is None:
        warmup = scenario.detector.t_bootstrap if scenario is not None else 0
    topology = scenario.topology if scenario is not None else None

    counts: dict[str, int] = {}
    drops: dict[str, int] = {}
    rejoins = 0
    inv_outcomes: dict[str, int] = {}
    latencies: list[int] = []
    plans_ok = plans_failed = 0
    notices_origin = notices_applied = 0
    audits_allow = audits_deny = 0
    crashes: list[dict] = []
    suspects_by_peer: dict[str, list[tuple[int, str]]] = {}
    views_by_peer: dict[str, list[int]] = {}
    removes: list[tuple[int, str]] = []

    t = 0
    for t, kind, node, detail in rows:
        counts[kind] = counts.get(kind, 0) + 1
        if kind == "drop":
            reason = detail_field(kind, detail, "reason")
            reason = reason if isinstance(reason, str) else "?"  # missing or not a string
            drops[reason] = drops.get(reason, 0) + 1
        elif kind == "crash":
            crashes.append(
                {
                    "node": node,
                    "at": t,
                    "recovered_at": None,
                    "first_suspect_at": None,
                    "last_member_suspect_at": None,
                    "member_suspectors": 0,
                    "members_silent": [],
                    "global_view_at": None,
                    "removed_by": 0,
                }
            )
        elif kind == "recover":
            for rec in reversed(crashes):
                if rec["node"] == node and rec["recovered_at"] is None:
                    rec["recovered_at"] = t
                    break
        elif kind == "suspect":
            suspects_by_peer.setdefault(detail["peer"], []).append((t, node))
        elif kind == "refute":
            if detail.get("rejoin"):
                rejoins += 1
        elif kind == "remove":
            removes.append((t, detail["peer"]))
        elif kind == "global_view":
            views_by_peer.setdefault(detail["peer"], []).append(t)
        elif kind == "invoke_done":
            outcome = detail["outcome"]
            inv_outcomes[outcome] = inv_outcomes.get(outcome, 0) + 1
            if outcome == "success":
                latencies.append(detail["latency"])
        elif kind == "plan_done":
            if detail["ok"]:
                plans_ok += 1
            else:
                plans_failed += 1
        elif kind == "notice_applied":
            if detail.get("origin"):
                notices_origin += 1
            else:
                notices_applied += 1
        elif kind == "audit":
            if detail["decision"] == "allow":
                audits_allow += 1
            else:
                audits_deny += 1
    ticks = t  # the last row's

    # Settled against the final crash records: a crash or recover entry
    # may follow a suspect or remove entry of the same tick.
    susp_total = counts.get("suspect", 0)
    susp_true = susp_false_late = 0
    for peer, seen in suspects_by_peer.items():
        for t, _ in seen:
            if _down_at(crashes, peer, t):
                susp_true += 1
            elif t > warmup:
                susp_false_late += 1
    for t, peer in removes:
        rec = _down_at(crashes, peer, t)
        if rec is not None:
            rec["removed_by"] += 1

    for rec in crashes:
        in_window = [(t, node) for t, node in suspects_by_peer.get(rec["node"], ()) if _holds(rec, t)]
        if in_window:
            rec["first_suspect_at"] = min(t for t, _ in in_window)
        for t in views_by_peer.get(rec["node"], ()):
            if _holds(rec, t):
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
                if m != rec["node"] and m not in suspectors and not _down_at(crashes, m, rec["at"])
            )

    return {
        "scenario": scenario.name if scenario is not None else None,
        "ticks": ticks,
        "events": sum(counts.values()),
        "messages": {
            "sends": counts.get("send", 0),
            "delivers": counts.get("deliver", 0),
            "drops": {k: drops[k] for k in sorted(drops)},
        },
        "suspicions": {
            "total": susp_total,
            "true": susp_true,
            "false": susp_total - susp_true,
            "false_after_warmup": susp_false_late,
            "warmup": warmup,
            "refutes": counts.get("refute", 0),
            "rejoins": rejoins,
            "removals": len(removes),
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
            "dups": counts.get("notice_dup", 0),
            "incomplete": counts.get("propagation_incomplete", 0),
        },
        "access": {
            "requests": counts.get("access", 0),
            "audits": counts.get("audit", 0),
            "allowed": audits_allow,
            "denied": audits_deny,
        },
        "module_errors": counts.get("module_error", 0),
    }
