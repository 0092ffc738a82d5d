"""Metamorphic checks of three contracts at scenario level: a run split
at arbitrary ``run_until`` cuts writes the same JSONL bytes as one run;
the rows read back from the JSONL file equal the recorder's, tuple
details included; and metrics and verify give the same results on any
iterable of the trace's rows: the recorder, a list copy of its rows and
the rows streamed from the file."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_perfbench import load
from test_verify import mutated_runs, random_runs

from depsim.metrics import compute_metrics
from depsim.run import SimulationRun
from depsim.scenario import parse_scenario
from depsim.tracing import dump_jsonl, dumps_jsonl, read_rows
from depsim.verify import verify_trace


def check_file_contracts(rows, scn, path):
    """Rows read back from the rows' JSONL file equal them, and the checks
    and the report agree on the rows, a list copy of them and the rows
    streamed from the file."""
    dump_jsonl(rows, path)
    assert list(read_rows(path)) == list(rows)
    expected = verify_trace(rows, scn.base_latency, scn.topology)
    report = compute_metrics(rows, scn)
    for form in (lambda: list(rows), lambda: read_rows(path)):
        assert verify_trace(form(), scn.base_latency, scn.topology) == expected
        assert compute_metrics(form(), scn) == report
    return expected


def check_contracts(scn, seed, cuts, tmp_dir):
    whole = SimulationRun(scn, seed=seed).run()
    split = SimulationRun(scn, seed=seed)
    for t in sorted(cuts):
        split.run_until(t)
    split.run()
    assert dumps_jsonl(split.trace) == dumps_jsonl(whole.trace)

    check_file_contracts(whole.trace, scn, str(Path(tmp_dir) / "trace.jsonl"))


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


@settings(max_examples=40, deadline=None)
@given(mutated_runs())
def test_mutated_runs_stream_like_they_load(tmp_path_factory, case):
    scn, rows = case
    path = str(tmp_path_factory.mktemp("stream") / "trace.jsonl")
    assert check_file_contracts(rows, scn, path), "the trace should break at least one check"


def test_detail_off_its_layout_stays_a_mapping_with_the_same_verdict(tmp_path):
    """Only a detail whose keys are exactly its kind's layout, in order,
    with a str in each string field and an int in each int field, becomes
    a tuple; reordered keys, an extra key, an int where a string belongs
    or a bool where an int belongs keep the mapping, which the writer
    encodes as it was read."""
    details = [
        (1, "send", "a", {"dst": "b", "msg": "M", "msg_id": 1}),
        (2, "deliver", "b", {"src": "a", "msg": "M", "msg_id": 1, "sent_at": 1}),
        (3, "send", "a", {"msg_id": 2, "dst": "b", "msg": "M"}),
        (4, "deliver", "b", {"src": "a", "msg": "M", "msg_id": 2, "sent_at": 2, "hop": 1}),
        (5, "deliver", "c", {"msg": "M", "src": "a", "msg_id": 2, "sent_at": 3}),
        (6, "drop", "c", {"src": "a", "reason": "loss", "msg": "M", "msg_id": 3}),
        (7, "drop", "c", {"reason": "partition", "src": "a", "msg": "M", "msg_id": 4}),
        (8, "send", "a", {"dst": 5, "msg": "g", "msg_id": 5}),
        (9, "deliver", "b", {"src": "a", "msg": "g", "msg_id": 5, "sent_at": True}),
        (10, "drop", "c", {"reason": ["loss"], "src": "a", "msg": "M", "msg_id": 6}),
    ]
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(
        json.dumps({"t": t, "seq": seq, "kind": kind, "node": node, "detail": detail}) + "\n"
        for seq, (t, kind, node, detail) in enumerate(details)
    ))
    rows = list(read_rows(str(path)))
    assert [type(row[3]) for row in rows] == [tuple, tuple, dict, dict, dict, dict, tuple, dict, dict, dict]
    assert rows[2:6] == details[2:6] and rows[7:] == details[7:]
    assert dumps_jsonl(rows) == dumps_jsonl(details)
    verdict = verify_trace(details)
    assert [v.message for v in verdict] == [
        "msg_id 2 sent_at 2 != send time 3",
        "msg_id 2 delivered twice",
        "msg_id 5 sent_at True != send time 8",
    ]
    assert verify_trace(read_rows(str(path))) == verdict
    report = compute_metrics(read_rows(str(path)))
    assert report == compute_metrics(details)
    assert report["messages"]["drops"] == {"?": 1, "loss": 1, "partition": 1}
