"""End-to-end acceptance gate.

Each test here checks one externally stated guarantee, at its stated
tolerance, over the bundled scenarios in scenarios/. Ceilings marked
"frozen" were measured once on the reference implementation (100-seed
sweeps at the noted settings) and pinned; they are regression bounds,
not aspirations. This file is slow by design (the two detection sweeps
run 100 seeded simulations each); the unit suite stays fast.
"""

import itertools
import json
import random
import statistics
import time
from math import isclose
from pathlib import Path

import pytest

from depsim.analysis import forecast_ma
from depsim.cli import main
from depsim.containers import vote
from depsim.metrics import compute_metrics
from depsim.run import SimulationRun
from depsim.scenario import load_scenario, parse_scenario
from depsim.security import ObjectEntry, Policy, ReferenceMonitor, Rule, Subject, decide

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED = sorted(SCENARIO_DIR.glob("*.yaml"))

# frozen 100-seed ceilings (loss 0 reference measurements)
DETECT_P0_CEILING = 344      # crash -> last member suspicion, large-cluster shape
DETECT_ALLOWED = int(DETECT_P0_CEILING * 1.5)
HEAL_BY = 32                 # crash -> first successful invocation, crash-and-heal
SEEDS = range(100)


def trace_of(scn, seed):
    return SimulationRun(scn, seed=seed).run().trace


def test_bundled_scenarios_exist():
    names = {p.stem for p in BUNDLED}
    assert {"crash-and-heal", "partition-and-propagate"} <= names
    assert len(BUNDLED) >= 5


def test_determinism_and_runtime_budget(tmp_path):
    # same scenario + seed twice -> byte-identical traces, each run < 5s
    for path in BUNDLED:
        out = []
        for i in (0, 1):
            tf = tmp_path / f"{path.stem}-{i}.jsonl"
            t0 = time.perf_counter()
            rc = main(["run", "--scenario", str(path), "--seed", "0",
                       "--trace-out", str(tf), "--quiet"])
            elapsed = time.perf_counter() - t0
            assert rc == 0
            assert elapsed < 5.0, f"{path.stem} took {elapsed:.2f}s"
            out.append(tf.read_bytes())
        assert out[0] == out[1], f"{path.stem} trace differs between runs"
        assert out[0]


@pytest.mark.slow
def test_detection_complete_under_loss():
    # every surviving cluster member suspects the crashed node by the
    # end of the run, and never later than the frozen loss-free ceiling
    # plus half
    scn = load_scenario(SCENARIO_DIR / "large-cluster-detect.yaml")
    for seed in SEEDS:
        rep = compute_metrics(trace_of(scn, seed), scenario=scn)
        crash = rep["crashes"][0]
        assert crash["members_silent"] == [], f"seed {seed}: {crash['members_silent']}"
        assert crash["member_suspectors"] == 15, f"seed {seed}"
        latency = crash["last_member_suspect_at"] - crash["at"]
        assert latency <= DETECT_ALLOWED, f"seed {seed}: {latency}"


@pytest.mark.slow
def test_no_false_suspicions_on_quiet_cluster():
    # loss-free, jitter-free; nothing crashes, so any suspicion at all
    # is a false one
    nodes = [f"n{i:02d}" for i in range(64)]
    scn = parse_scenario({
        "name": "quiet-cluster",
        "until": 10_000,
        "network": {"base_latency": 1, "jitter": 0, "loss": 0.0},
        "clusters": [
            {"id": "c0", "nodes": nodes[0:16]},
            {"id": "c1", "nodes": nodes[16:32], "parent": "c0"},
            {"id": "c2", "nodes": nodes[32:48], "parent": "c0"},
            {"id": "c3", "nodes": nodes[48:64], "parent": "c0"},
        ],
        "detector": {"gossip_interval": 10, "fanout": 2, "window": 64,
                     "k": 16.0, "t_min": 30, "t_bootstrap": 100},
    })
    for seed in SEEDS:
        rep = compute_metrics(trace_of(scn, seed), scenario=scn)
        assert rep["suspicions"]["total"] == 0, f"seed {seed}: {rep['suspicions']}"


def test_global_view_convergence_bound():
    # leaf crash; the root representative's global view must list the
    # node as suspected within local-detect + 2*depth*summary_interval
    # + base_latency
    depth, interval, latency = 2, 20, 1
    scn = parse_scenario({
        "name": "deep-tree",
        "until": 1500,
        "network": {"base_latency": latency, "jitter": 0, "loss": 0.0},
        "clusters": [
            {"id": "c0", "nodes": ["a1", "a2"]},
            {"id": "c1", "nodes": ["m1", "m2", "m3", "m4"], "parent": "c0"},
            {"id": "c2", "nodes": ["x1", "x2", "x3", "x4"], "parent": "c1"},
        ],
        "detector": {"gossip_interval": 10, "window": 64, "k": 16.0,
                     "t_min": 30, "t_bootstrap": 150, "t_cleanup": 200,
                     "summary_interval": interval},
        "faults": [{"kind": "crash", "node": "x3", "at": 500}],
    })
    for seed in range(25):
        rep = compute_metrics(trace_of(scn, seed), scenario=scn)
        crash = rep["crashes"][0]
        assert rep["suspicions"]["false_after_warmup"] == 0
        assert crash["global_view_at"] is not None, f"seed {seed}"
        bound = crash["last_member_suspect_at"] + 2 * depth * interval + latency
        assert crash["global_view_at"] <= bound, (
            f"seed {seed}: global view at {crash['global_view_at']}, bound {bound}")


def test_vote_safety():
    # exhaustive for n in {3, 5}: with at most f = (n-1)//2 replicas
    # wrong or silent, the majority answer always wins. ABSENT drops
    # the response entirely; w1/w2 model disagreeing and colluding
    # wrong answers.
    t0 = time.perf_counter()
    for n in (3, 5):
        f = (n - 1) // 2
        for bad in range(f + 1):
            for positions in itertools.combinations(range(n), bad):
                for kinds in itertools.product(("ABSENT", "w1", "w2"), repeat=bad):
                    responses = []
                    for i in range(n):
                        if i in positions:
                            k = kinds[positions.index(i)]
                            if k != "ABSENT":
                                responses.append(k)
                        else:
                            responses.append("correct")
                    assert vote(responses, n) == "correct", (n, positions, kinds)

    rng = random.Random(1905)
    for _ in range(10_000):
        n, f = 7, 3
        bad = rng.randint(0, f)
        responses = ["correct"] * (n - bad)
        for _ in range(bad):
            if rng.random() < 0.3:
                continue  # silent replica
            responses.append(rng.choice(["w1", "w2", "w3"]))
        rng.shuffle(responses)
        assert vote(responses, n) == "correct"
    assert time.perf_counter() - t0 < 1.0


def test_exactly_once_propagation_under_loss():
    # partition heals, retries keep going; every node ends up applying
    # both change notices exactly once, on every seed
    scn = load_scenario(SCENARIO_DIR / "partition-and-propagate.yaml")
    nodes = [f"n{i}" for i in range(1, 9)]
    for seed in SEEDS:
        rows = trace_of(scn, seed)
        created = [detail["notice"] for _, k, _, detail in rows
                   if k == "notice_applied" and detail["origin"]]
        assert len(created) == 2, f"seed {seed}"
        applied = {}
        for _, k, node, detail in rows:
            if k == "notice_applied":
                key = (node, detail["notice"])
                applied[key] = applied.get(key, 0) + 1
            assert k != "propagation_incomplete", f"seed {seed}"
        for node in nodes:
            for notice in created:
                assert applied.get((node, notice)) == 1, (seed, node, notice)


def test_mediation_is_total_and_matches_oracle():
    subjects = {
        "alice": Subject("alice", frozenset({"astro"})),
        "bob": Subject("bob", frozenset({"astro", "grid"})),
        "carol": Subject("carol", frozenset({"grid"})),
        "eve": Subject("eve", frozenset()),
    }
    objects = {
        "telescope-data": ObjectEntry("telescope-data", "alice", "astro"),
        "job-queue": ObjectEntry("job-queue", "bob", "grid", kind="service"),
        "survey-index": ObjectEntry("survey-index", "carol", "grid"),
    }

    def oracle(rules, sid, oid, op):
        subject = subjects.get(sid)
        obj = objects.get(oid)
        if subject is None or obj is None:
            return False
        if sid == obj.owner:
            return True
        if obj.vo not in subject.vos:
            return False
        if op in ("write", "admin"):
            return False
        for rule in rules:
            if (rule.scope in ("*", obj.vo) and rule.subject in ("*", sid)
                    and rule.object_id in ("*", oid) and op in rule.ops):
                return rule.effect == "allow"
        return True

    # three canonical organization cases
    fixed = Policy(rules=())
    assert decide(subjects, objects, fixed, "bob", "telescope-data", "read").allowed
    assert not decide(subjects, objects, fixed, "eve", "telescope-data", "read").allowed
    assert not decide(subjects, objects, fixed, "carol", "job-queue", "write").allowed

    monitor = ReferenceMonitor(subjects, objects)
    rng = random.Random(4711)
    sids = list(subjects) + ["mallory"]
    oids = list(objects) + ["ghost"]
    ops = ["read", "write", "execute", "admin"]
    effects = ["allow", "deny"]
    total = 10_000
    for i in range(total):
        if i % 500 == 250:  # mutate the policy mid-stream
            if monitor.policy.rules and rng.random() < 0.5:
                monitor.remove_rule(rng.randrange(len(monitor.policy.rules)))
            else:
                rule = Rule(
                    scope=rng.choice(["*", "astro", "grid"]),
                    subject=rng.choice(["*"] + sids[:4]),
                    object_id=rng.choice(["*"] + oids[:3]),
                    ops=frozenset(rng.sample(ops, rng.randint(1, 4))),
                    effect=rng.choice(effects),
                )
                monitor.insert_rule(rng.randint(0, len(monitor.policy.rules)), rule)
        sid, oid, op = rng.choice(sids), rng.choice(oids), rng.choice(ops)
        record = monitor.mediate(sid, oid, op, now=i)
        want = oracle(monitor.policy.rules, sid, oid, op)
        assert (record.decision == "allow") == want, (i, sid, oid, op)
    assert len(monitor.audit_log) == total


def test_forecast_matches_recomputation():
    rng = random.Random(271828)
    for _ in range(1000):
        n = rng.randint(1, 60)
        k = rng.randint(1, n)
        samples = tuple(
            (i, rng.uniform(-1e4, 1e4) * (10.0 ** rng.randint(-3, 3)))
            for i in range(n)
        )
        got = forecast_ma(samples, k=k)
        want = statistics.fmean(v for _, v in samples[-k:])
        assert isclose(got, want, rel_tol=1e-9), (k, samples[-k:])


def test_crash_and_heal_downtime():
    # the whole loop: dead host -> unavailable signal -> diagnosis ->
    # spare activated -> traffic healthy. every invocation issued once
    # the frozen heal window has passed must succeed.
    scn = load_scenario(SCENARIO_DIR / "crash-and-heal.yaml")
    crash_at = 400
    for seed in SEEDS:
        first = {}  # kind -> detail of its first row
        first_ok = None
        for t, k, _, detail in trace_of(scn, seed):
            if k in ("diagnosis", "plan_done", "notice_applied") and k not in first:
                first[k] = detail
            if k == "invoke_done":
                issued = t - detail["latency"]
                ok = detail["outcome"] == "success"
                if ok and t > crash_at and first_ok is None:
                    first_ok = t
                if issued >= crash_at + HEAL_BY:
                    assert ok, (seed, t, detail)
        assert first["diagnosis"]["fault_class"] == "ServiceCrash"
        assert first["plan_done"]["ok"] is True
        assert first_ok is not None and first_ok - crash_at <= HEAL_BY, (seed, first_ok)


def test_learned_pattern_fires_before_the_fault():
    # run once to mine a leading indicator from the telemetry, then
    # rerun the same deployment with the mined threshold installed:
    # the diagnosis must now land strictly before the crash
    path = SCENARIO_DIR / "learn-and-predict.yaml"
    fault_at = 640
    scn = load_scenario(path)
    learned = [detail for _, k, _, detail in trace_of(scn, 0) if k == "pattern_learned"]
    assert learned, "first run mined nothing"
    mined = learned[0]
    assert mined["subject"] == "svc-front" and mined["metric"] == "latency_ms"

    import yaml
    raw = yaml.safe_load(path.read_text())
    raw.setdefault("patterns", []).append({
        "id": "mined-latency",
        "fault_class": mined["fault_class"],
        "confidence": 0.9,
        "predicate": {"type": "threshold", "metric": mined["metric"],
                      "cmp": ">", "bound": mined["bound"], "min_consecutive": 2},
    })
    replay = parse_scenario(raw)
    hits = [t for t, k, _, detail in trace_of(replay, 0)
            if k == "diagnosis" and detail["subject"] == "svc-front"]
    assert hits, "replay produced no diagnosis"
    assert hits[0] < fault_at, f"diagnosis at {hits[0]}, fault at {fault_at}"


def test_verify_passes_bundles_and_catches_corruptions(tmp_path, capsys):
    for path in BUNDLED:
        assert main(["run", "--scenario", str(path), "--verify", "--quiet"]) == 0
    capsys.readouterr()

    scn_path = SCENARIO_DIR / "crash-and-heal.yaml"
    trace_file = tmp_path / "clean.jsonl"
    assert main(["run", "--scenario", str(scn_path), "--seed", "0",
                 "--trace-out", str(trace_file), "--quiet"]) == 0
    capsys.readouterr()
    clean = [json.loads(line) for line in trace_file.read_text().splitlines()]
    top_seq = max(e["seq"] for e in clean)

    def expect_violation(label, entries, check):
        corrupted = tmp_path / f"{label}.jsonl"
        corrupted.write_text("".join(json.dumps(e) + "\n" for e in entries))
        rc = main(["verify", "--trace", str(corrupted),
                   "--scenario", str(scn_path)])
        err = capsys.readouterr().err
        assert rc == 3, f"{label}: rc={rc}"
        assert f"violation {check}:" in err, f"{label}: {err}"

    # a send from a node that is down at that tick
    forged = {"t": 500, "seq": top_seq + 1, "kind": "send", "node": "n2",
              "detail": {"dst": "n1", "msg": "gossip", "msg_id": 10 ** 9}}
    at = next(i for i, e in enumerate(clean) if e["t"] > 500)
    expect_violation("talkative-ghost", clean[:at] + [forged] + clean[at:],
                     "crash-isolation")

    # the same change notice applied twice on one node
    idx, src = next((i, e) for i, e in enumerate(clean)
                    if e["kind"] == "notice_applied" and e["node"] != "n2")
    dup = dict(src, seq=top_seq + 1)
    expect_violation("double-apply", clean[: idx + 1] + [dup] + clean[idx + 1:],
                     "exactly-once")

    # a delivery whose send never happened
    delivered = next(e for e in clean if e["kind"] == "deliver")
    ghost_id = delivered["detail"]["msg_id"]
    pruned = [e for e in clean
              if not (e["kind"] == "send" and e["detail"].get("msg_id") == ghost_id)]
    expect_violation("unsent-delivery", pruned, "causality")
