import pytest

from depsim.tracing import MalformedTrace, TraceRecorder, dump_jsonl, dumps_jsonl, load_jsonl


def test_record_fixed_shape():
    rec = TraceRecorder()
    rec.record(5, "send", "a", {"dst": "b"})
    rec.record(5, "deliver", "b", {"src": "a"})
    assert rec.entries == [
        {"t": 5, "seq": 0, "kind": "send", "node": "a", "detail": {"dst": "b"}},
        {"t": 5, "seq": 1, "kind": "deliver", "node": "b", "detail": {"src": "a"}},
    ]


def test_seq_strictly_increasing_across_kinds():
    rec = TraceRecorder()
    for i in range(10):
        rec.record(i, "tick", None, {})
    assert [e["seq"] for e in rec.entries] == list(range(10))


def test_dumps_compact_and_key_order():
    rec = TraceRecorder()
    rec.record(1, "send", "a", {"x": 1})
    line = dumps_jsonl(rec.entries).strip()
    assert line == '{"t":1,"seq":0,"kind":"send","node":"a","detail":{"x":1}}'


def test_file_round_trip(tmp_path):
    rec = TraceRecorder()
    rec.record(1, "a", "n", {"v": [1, 2]})
    rec.record(2, "b", None, {})
    path = tmp_path / "trace.jsonl"
    dump_jsonl(rec.entries, str(path))
    assert load_jsonl(str(path)) == rec.entries


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t": 1}\nnot json\n')
    with pytest.raises(MalformedTrace):
        load_jsonl(str(path))


def test_load_rejects_missing_fields(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t": 1, "seq": 0, "kind": "x"}\n')
    with pytest.raises(MalformedTrace):
        load_jsonl(str(path))


@pytest.mark.parametrize(
    "line, problem",
    [
        ('{"t": 1, "seq": 0, "kind": "x", "detail": {}}', "missing field 'node'"),
        ('{"t": 1.5, "seq": 0, "kind": "x", "node": null, "detail": {}}', "t must be an integer"),
        ('{"t": 1, "seq": "0", "kind": "x", "node": null, "detail": {}}', "seq must be an integer"),
        ('{"t": 1, "seq": 0, "kind": ["x"], "node": null, "detail": {}}', "kind must be a string"),
        ('{"t": 1, "seq": 0, "kind": "x", "node": 7, "detail": {}}', "node must be a string or null"),
        ('{"t": 1, "seq": 0, "kind": "x", "node": "a", "detail": []}', "detail must be an object"),
        ('{"t": 1, "seq": 0, "kind": "suspect", "node": "a", "detail": {}}', "suspect entry needs detail.peer"),
        ('{"t": 1, "seq": 0, "kind": "send", "node": "a", "detail": {"msg_id": [1]}}', "send entry needs detail.msg_id"),
        ('{"t": 1, "seq": 0, "kind": "plan_done", "node": "a", "detail": {"plan": "p"}}', "plan_done entry needs detail.ok"),
    ],
)
def test_load_rejects_bad_shapes_with_line_number(tmp_path, line, problem):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t": 0, "seq": 0, "kind": "x", "node": null, "detail": {}}\n' + line + "\n")
    with pytest.raises(MalformedTrace, match=f"^line 2: {problem}"):
        load_jsonl(str(path))
