"""Scenario generator for the ``heal-mix`` workload.

One seed gives one scenario: twelve nodes in a three-cluster
tree over a jittery network with one spell of mild loss, failover and active
containers that each have a spare, periodic invocations from several
clients, telemetry that threshold, trend and sequence patterns and
moving-average forecasts watch, access requests against a policy that
gains and loses a rule, corrupt and slow replica windows, and a few
crash/recover faults. The shape is fixed and only placements, timings
and values vary with the seed, so every seed asks for about the same
amount of work.

Faults are kept sparse on purpose. Crash windows never overlap, never
hit a client or a job host, and end well inside the notice retry
budget, so most invocations succeed and every change notice lands.
"""

from __future__ import annotations

import random

UNTIL = 3000
CLUSTERS = (("c0", None), ("c1", "c0"), ("c2", "c0"))
NODES = tuple(f"n{i:02d}" for i in range(12))


def _cluster_nodes() -> list[tuple[str, str | None, list[str]]]:
    return [(cid, parent, list(NODES[4 * i : 4 * i + 4])) for i, (cid, parent) in enumerate(CLUSTERS)]


def generate(seed: int) -> dict:
    """Return the scenario mapping for simulation seed ``seed``."""
    rng = random.Random(f"heal-mix/{seed}")
    clusters = _cluster_nodes()
    # One client per cluster; the other nodes host replicas and spares.
    clients = [rng.choice(members) for _, _, members in clusters]
    hosts = [n for n in NODES if n not in clients]
    rng.shuffle(hosts)
    job_host = hosts.pop()

    services: list[dict] = []
    containers: list[dict] = []
    alternatives: list[dict] = []
    behaviors: list[dict] = []
    crash_candidates: list[str] = []

    def service(sid: str, cls: str, answer: str) -> str:
        services.append({"id": sid, "class": cls, "table": {"get": answer, "put": "stored"}})
        return sid

    # failover, one replica: a crash heals through diagnosis and repair
    kv_main, kv_spare = hosts[0], hosts[1]
    containers.append({"id": "kv", "strategy": "failover", "timeout": 10,
                       "replicas": [{"host": kv_main, "service": service("kv-a", "kv", "v1")}]})
    alternatives.append({"container": "kv", "host": kv_spare, "service": service("kv-s", "kv", "v1")})
    crash_candidates.append(kv_main)

    # failover, two replicas: a crash heals by stepping to the next one
    web = hosts[2:4]
    containers.append({"id": "web", "strategy": "failover", "timeout": 10, "replicas": [
        {"host": web[0], "service": service("web-a", "web", "page")},
        {"host": web[1], "service": service("web-b", "web", "page")},
    ]})
    alternatives.append({"container": "web", "host": hosts[4], "service": service("web-s", "web", "page")})
    crash_candidates.append(web[0])

    # active, three replicas: majority vote through slow and corrupt windows
    calc = hosts[5:8]
    containers.append({"id": "calc", "strategy": "active", "timeout": 12, "replicas": [
        {"host": h, "service": service(f"calc-{i}", "calc", "42")} for i, h in enumerate(calc)
    ]})
    alternatives.append({"container": "calc", "host": hosts[0], "service": service("calc-s", "calc", "42")})
    slow_at = rng.randrange(300, 900, 10)
    corrupt_at = rng.randrange(1500, 2200, 10)
    behaviors.append({"host": calc[0], "service": "calc-0", "kind": "slow",
                      "start": slow_at, "stop": slow_at + 200, "delay": 25})
    behaviors.append({"host": calc[1], "service": "calc-1", "kind": "corrupt",
                      "start": corrupt_at, "stop": corrupt_at + 200, "value": "13"})

    invocations = []
    for i, client in enumerate(clients):
        for j, cid in enumerate(("kv", "web", "calc")):
            invocations.append({"client": client, "container": cid, "request": "get",
                                "start": 15 + 3 * i + j, "period": rng.choice((20, 25, 30))})

    # Two crashes, far apart; each ends 150-250 ticks later.
    rng.shuffle(crash_candidates)
    faults = []
    for k, node in enumerate(crash_candidates):
        at = rng.randrange(600 + 1100 * k, 900 + 1100 * k, 10)
        faults.append({"kind": "crash", "node": node, "at": at})
        faults.append({"kind": "recover", "node": node, "at": at + rng.randrange(150, 260, 10)})

    # one mild-loss spell between the two crashes
    lossy = rng.randrange(1250, 1450, 10)
    faults.append({"kind": "set_loss", "probability": round(rng.uniform(0.01, 0.03), 3), "at": lossy})
    faults.append({"kind": "set_loss", "probability": 0.0, "at": lossy + 250})

    telemetry = []
    for client in clients:
        # client-side latency: flat, then a climb before the first crash
        climb = faults[0]["at"] - 80
        telemetry.append({"node": client, "source": "fleet", "metric": "cpu", "start": 0, "stop": UNTIL,
                          "every": 10, "value": round(rng.uniform(20, 40), 1)})
        telemetry.append({"node": client, "source": "fleet", "metric": "latency_ms", "start": 0, "stop": climb,
                          "every": 10, "value": round(rng.uniform(15, 25), 1)})
        telemetry.append({"node": client, "source": "fleet", "metric": "latency_ms", "start": climb,
                          "stop": climb + 60, "every": 5, "from": 30, "to": 160})
        telemetry.append({"node": client, "source": "fleet", "metric": "latency_ms", "start": climb + 60,
                          "stop": UNTIL, "every": 10, "value": 22})
    # a job's queue ramps up late in the run; the forecaster flags it
    ramp = rng.randrange(1800, 2300, 10)
    telemetry.append({"node": job_host, "source": "batch", "metric": "queue_depth", "start": 0, "stop": ramp,
                      "every": 10, "value": 10})
    telemetry.append({"node": job_host, "source": "batch", "metric": "queue_depth", "start": ramp,
                      "stop": ramp + 200, "every": 10, "from": 12, "to": 95})
    # overload: cpu spike then a latency climb on one client, matched by the sequence pattern
    spike = rng.randrange(2400, 2700, 10)
    telemetry.append({"node": clients[0], "source": "fleet", "metric": "cpu", "start": spike,
                      "stop": spike + 30, "every": 5, "value": 97})

    # every host reports cpu and memory; a few run hot and then leak
    hot = rng.sample(NODES, 3)
    for node in NODES:
        src = f"host-{node}"
        telemetry.append({"node": node, "source": src, "metric": "cpu", "start": 0, "stop": UNTIL,
                          "every": 10, "value": round(rng.uniform(20, 60), 1)})
        telemetry.append({"node": node, "source": src, "metric": "mem", "start": 5, "stop": UNTIL,
                          "every": 10, "value": round(rng.uniform(30, 50), 1)})
        if node in hot:
            at = rng.randrange(300, 2600, 10)
            telemetry.append({"node": node, "source": src, "metric": "cpu", "start": at, "stop": at + 40,
                              "every": 5, "value": 95})
            telemetry.append({"node": node, "source": src, "metric": "mem", "start": at + 40, "stop": at + 120,
                              "every": 4, "from": 50, "to": 90})

    patterns = [
        {"id": "outage", "fault_class": "ServiceCrash", "confidence": 0.9,
         "predicate": {"type": "threshold", "metric": "svc_unavailable", "cmp": ">", "bound": 0.5}},
        {"id": "errors", "fault_class": "ServiceCrash", "confidence": 0.6,
         "predicate": {"type": "threshold", "metric": "svc_error", "cmp": ">", "bound": 0.5,
                       "min_consecutive": 3}},
        {"id": "slowdown", "fault_class": "Degraded", "confidence": 0.5,
         "predicate": {"type": "trend", "metric": "latency_ms", "k": 6, "cmp": ">", "slope_bound": 1.5}},
        {"id": "overload", "fault_class": "Overload", "confidence": 0.7,
         "predicate": {"type": "sequence", "span": 200, "steps": [
             {"type": "threshold", "metric": "cpu", "cmp": ">", "bound": 90},
             {"type": "trend", "metric": "latency_ms", "k": 4, "cmp": ">", "slope_bound": 0.5},
         ]}},
        {"id": "leak", "fault_class": "Overload", "confidence": 0.8,
         "predicate": {"type": "sequence", "span": 300, "steps": [
             {"type": "threshold", "metric": "cpu", "cmp": ">", "bound": 85, "min_consecutive": 2},
             {"type": "trend", "metric": "mem", "k": 5, "cmp": ">", "slope_bound": 0.3},
         ]}},
        {"id": "mem-high", "fault_class": "Overload", "confidence": 0.5,
         "predicate": {"type": "threshold", "metric": "mem", "cmp": ">", "bound": 85, "min_consecutive": 3}},
        {"id": "denials", "fault_class": "Intrusion", "confidence": 0.4,
         "predicate": {"type": "threshold", "metric": "deny_rate", "cmp": ">", "bound": 0.5,
                       "min_consecutive": 4}},
    ]
    forecasts = [
        {"source": "batch", "metric": "queue_depth", "k": 4, "horizon": 15, "threshold": 60, "cmp": ">",
         "period": 20, "start": 40, "fault_class": "JobFault"},
        {"source": "fleet", "metric": "cpu", "k": 5, "horizon": 10, "threshold": 80, "cmp": ">",
         "period": 40, "start": 40},
    ]

    subjects = [{"id": "alice", "vos": ["astro"]}, {"id": "bob", "vos": ["astro", "grid"]},
                {"id": "carol", "vos": ["grid"]}, {"id": "eve", "vos": []}]
    objects = [{"id": "sky", "owner": "alice", "vo": "astro"},
               {"id": "queue", "owner": "bob", "vo": "grid", "kind": "service"},
               {"id": "index", "owner": "carol", "vo": "grid"}]
    ops = ("read", "write", "execute", "admin")
    accesses = []
    for i in range(8):
        accesses.append({"node": rng.choice(NODES[:4] + tuple(clients)), "subject": rng.choice(subjects)["id"],
                         "object": rng.choice(objects)["id"], "op": rng.choice(ops),
                         "at": 20 + 7 * i, "count": 20, "every": rng.choice((120, 140, 150))})
    insert_at = rng.randrange(500, 1200, 10)
    policy_updates = [
        {"node": clients[0], "at": insert_at, "action": "insert", "index": 0,
         "rule": {"scope": "astro", "subject": "bob", "object": "sky", "ops": ["read"], "effect": "deny"}},
        {"node": clients[0], "at": insert_at + 700, "action": "remove", "index": 0},
        {"node": clients[0], "at": insert_at + 900, "action": "remove", "index": 3},
    ]

    return {
        "name": f"heal-mix-{seed}",
        "until": UNTIL,
        "network": {"base_latency": 1, "jitter": rng.choice((1, 2)), "loss": 0.0},
        "clusters": [{"id": cid, "nodes": members, **({"parent": p} if p else {})} for cid, p, members in clusters],
        "detector": {"gossip_interval": 10, "fanout": 2, "window": 64, "k": 16.0, "t_min": 30,
                     "t_bootstrap": 150, "t_cleanup": 200, "summary_interval": 20},
        "analysis": {"capacity": 128, "lookback": 50, "compare_interval": 10},
        "repair": {"retry_interval": 20, "retry_max": 20},
        "jobs": [{"id": "batch", "checkpoint": "ck-1"}],
        "services": services,
        "containers": containers,
        "alternatives": alternatives,
        "behaviors": behaviors,
        "patterns": patterns,
        "forecasts": forecasts,
        "security": {"subjects": subjects, "objects": objects},
        "workload": {"invocations": invocations, "accesses": accesses, "policy_updates": policy_updates},
        "telemetry": telemetry,
        "faults": faults,
    }
