"""Shared helpers for end-to-end tests: a compact scenario builder and
trace filters."""

import json

from depsim.run import SimulationRun
from depsim.scenario import parse_scenario
from depsim.tracing import dumps_jsonl


def base_scenario(**overrides):
    """Single cluster of four nodes with one failover container and a
    small security catalog. Sections can be replaced wholesale via
    keyword overrides."""
    data = {
        "name": "t",
        "until": 600,
        "network": {"base_latency": 1, "jitter": 0, "loss": 0.0},
        "clusters": [{"id": "c0", "nodes": ["a", "b", "c", "d"], "parent": None}],
        "detector": {"gossip_interval": 5, "t_min": 15, "t_bootstrap": 50, "t_cleanup": 100},
        "services": [
            {"id": "kv1", "class": "kv", "table": {"get": "v1"}},
            {"id": "kv2", "class": "kv", "table": {"get": "v1"}},
            {"id": "kv3", "class": "kv", "table": {"get": "v1"}},
        ],
        "containers": [
            {
                "id": "store",
                "strategy": "failover",
                "timeout": 10,
                "replicas": [
                    {"host": "b", "service": "kv1"},
                    {"host": "c", "service": "kv2"},
                    {"host": "d", "service": "kv3"},
                ],
            }
        ],
        "security": {
            "subjects": [
                {"id": "alice", "vos": ["physics"]},
                {"id": "bob", "vos": ["physics"]},
                {"id": "outsider", "vos": []},
            ],
            "objects": [{"id": "dataset", "owner": "alice", "vo": "physics"}],
            "rules": [],
        },
    }
    data.update(overrides)
    return parse_scenario(data)


def run(scn, seed=0, **kw):
    r = SimulationRun(scn, seed=seed, **kw)
    r.run()
    return r


def entries(rows):
    """The entry dicts of a trace's rows, as the JSONL file holds them."""
    return [json.loads(line) for line in dumps_jsonl(rows).splitlines()]


class Entry:
    """Attribute view over a raw trace entry dict."""

    __slots__ = ("t", "seq", "kind", "node", "detail")

    def __init__(self, raw):
        self.t = raw["t"]
        self.seq = raw["seq"]
        self.kind = raw["kind"]
        self.node = raw["node"]
        self.detail = raw["detail"]


def kind(trace, k, node=None):
    return [
        Entry(e) for e in entries(trace) if e["kind"] == k and (node is None or e["node"] == node)
    ]


def details(trace, k, node=None):
    return [e.detail for e in kind(trace, k, node)]
