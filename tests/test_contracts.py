"""Metamorphic checks of two determinism contracts at scenario level:
a run split at arbitrary ``run_until`` cuts writes the same JSONL bytes
as one run, and metrics and verify give the same results on the
in-memory trace and on its JSONL round trip."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_perfbench import load
from test_verify import random_runs

from depsim.metrics import compute_metrics
from depsim.run import SimulationRun
from depsim.scenario import parse_scenario
from depsim.tracing import dump_jsonl, dumps_jsonl, load_jsonl
from depsim.verify import verify_trace


def check_contracts(scn, seed, cuts, tmp_dir):
    whole = SimulationRun(scn, seed=seed).run()
    split = SimulationRun(scn, seed=seed)
    for t in sorted(cuts):
        split.run_until(t)
    split.run()
    assert dumps_jsonl(split.trace) == dumps_jsonl(whole.trace)

    path = str(Path(tmp_dir) / "trace.jsonl")
    dump_jsonl(whole.trace, path)
    loaded = load_jsonl(path)
    assert compute_metrics(loaded, scn) == compute_metrics(whole.trace, scn)
    assert verify_trace(loaded, scn.base_latency, scn.topology) == verify_trace(
        whole.trace, scn.base_latency, scn.topology
    )


@settings(max_examples=25, deadline=None)
@given(random_runs(), st.lists(st.integers(0, 300), max_size=5))
def test_random_runs_keep_determinism_contracts(tmp_path_factory, case, cuts):
    scn, seed = case
    check_contracts(scn, seed, cuts, tmp_path_factory.mktemp("contracts"))


@pytest.mark.parametrize("seed", [3, 17])
def test_heal_mix_keeps_determinism_contracts(tmp_path, seed):
    scn = parse_scenario(load("healmix").generate(seed))
    cuts = random.Random(seed).sample(range(scn.until + 1), 5)
    check_contracts(scn, seed, cuts, tmp_path)
