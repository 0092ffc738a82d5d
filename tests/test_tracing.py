import json

import pytest
from conftest import base_scenario
from hypothesis import example, given, settings
from hypothesis import strategies as st

from depsim.run import SimulationRun
from depsim.tracing import (
    MalformedTrace,
    TraceRecorder,
    detail_dict,
    detail_field,
    dump_jsonl,
    dumps_jsonl,
    load_jsonl,
    trace_rows,
)


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


# --- rows and the entry view ---------------------------------------------------------


def recorded():
    rec = TraceRecorder()
    for i in range(5):
        rec.record(i // 2, "tick", None if i % 3 else "a", {"i": i})
    return rec


def test_rows_are_four_tuples_without_seq():
    rec = recorded()
    assert rec.rows[3] == (1, "tick", "a", {"i": 3})
    assert all(type(row) is tuple and len(row) == 4 for row in rec.rows)


def test_view_iteration_indexing_and_len_agree():
    view = recorded().entries
    listed = list(view)
    assert len(view) == len(listed) == 5
    assert [view[i] for i in range(len(view))] == listed
    assert [view[i] for i in range(-len(view), 0)] == listed
    assert view[-1] == listed[-1] == {"t": 2, "seq": 4, "kind": "tick", "node": None, "detail": {"i": 4}}
    assert list(view[-1]) == ["t", "seq", "kind", "node", "detail"]
    assert view == listed and view != listed[:-1]
    with pytest.raises(IndexError):
        view[5]
    with pytest.raises(IndexError):
        view[-6]


def test_view_is_live_and_seq_is_row_index_across_split_runs():
    scn = base_scenario(until=200)
    split = SimulationRun(scn, seed=3)
    view = split.trace
    for cut in (17, 64, 150):
        split.run_until(cut)
        assert len(view) == len(split.sim.trace.rows)
    split.run()
    assert [e["seq"] for e in view] == list(range(len(view)))
    assert [(e["t"], e["kind"], e["node"], e["detail"]) for e in view] == [
        (t, kind, node, detail_dict(kind, detail)) for t, kind, node, detail in split.sim.trace.rows
    ]
    assert view == SimulationRun(scn, seed=3).run().trace


def test_simulator_holds_send_and_deliver_details_as_tuples():
    """send, deliver and drop details are tuples; on a lossy network with
    a crash, drops for loss and for the crashed target both appear."""
    faults = [{"kind": "crash", "node": "b", "at": 60}]
    scn = base_scenario(until=120, network={"base_latency": 1, "jitter": 0, "loss": 0.2}, faults=faults)
    rows = SimulationRun(scn, seed=5).run().sim.trace.rows
    sends = [row for row in rows if row[1] == "send"]
    delivers = [row for row in rows if row[1] == "deliver"]
    drops = [row for row in rows if row[1] == "drop"]
    assert sends and delivers
    assert {row[3][0] for row in drops} == {"loss", "target_crashed"}
    assert all(type(row[3]) is tuple and len(row[3]) == 3 for row in sends)
    assert all(type(row[3]) is tuple and len(row[3]) == 4 for row in delivers + drops)
    assert all(type(row[3]) is dict for row in rows if row[1] not in ("send", "deliver", "drop"))
    reason, src, msg, msg_id = drops[0][3]
    expanded = detail_dict("drop", drops[0][3])
    assert list(expanded.items()) == [("reason", reason), ("src", src), ("msg", msg), ("msg_id", msg_id)]
    assert detail_field("drop", drops[0][3], "reason") == reason
    assert detail_field("drop", {}, "reason", "?") == "?"
    # The dicts the simulator recorded before, key order included.
    dst, msg, msg_id = sends[0][3]
    assert list(detail_dict("send", sends[0][3]).items()) == [("dst", dst), ("msg", msg), ("msg_id", msg_id)]
    src, msg, msg_id, sent_at = delivers[0][3]
    expanded = detail_dict("deliver", delivers[0][3])
    assert list(expanded.items()) == [("src", src), ("msg", msg), ("msg_id", msg_id), ("sent_at", sent_at)]
    assert detail_field("deliver", delivers[0][3], "sent_at") == detail_field("deliver", expanded, "sent_at") == sent_at
    assert detail_field("deliver", {"msg_id": 1}, "sent_at") is None


def test_tuple_details_encode_like_the_dicts_they_replace():
    rec = TraceRecorder()
    rec.send(3, "a", "b", "gossip", 7)
    rec.deliver(4, "b", "a", "gossip", 7, 3)
    rec.record(4, "deliver", "c", {"src": "a", "msg": "gossip", "msg_id": 8})
    assert dumps_jsonl(rec.entries) == (
        '{"t":3,"seq":0,"kind":"send","node":"a","detail":{"dst":"b","msg":"gossip","msg_id":7}}\n'
        '{"t":4,"seq":1,"kind":"deliver","node":"b","detail":{"src":"a","msg":"gossip","msg_id":7,"sent_at":3}}\n'
        '{"t":4,"seq":2,"kind":"deliver","node":"c","detail":{"src":"a","msg":"gossip","msg_id":8}}\n'
    )
    # A detail a reader changes is a fresh dict; the row keeps its tuple.
    rec.entries[1]["detail"]["sent_at"] = 99
    assert rec.rows[1] == (4, "deliver", "b", ("a", "gossip", 7, 3))


def test_changing_a_read_entry_leaves_the_trace_alone():
    rec = recorded()
    first = rec.entries[2]
    first.update(t=99, seq=99, kind="forged", node="z")
    for e in rec.entries:
        e["seq"] = -1
    assert rec.entries[2] == {"t": 1, "seq": 2, "kind": "tick", "node": None, "detail": {"i": 2}}
    assert [e["seq"] for e in rec.entries] == list(range(5))


def test_trace_rows_of_view_and_of_dicts():
    rec = recorded()
    assert trace_rows(rec.entries) is rec.rows
    assert trace_rows(list(rec.entries)) == rec.rows
    rows = iter(rec.rows)
    assert trace_rows(rows) is rows


def test_dumps_matches_encoding_of_plain_entry_dicts():
    rec = TraceRecorder()
    old = []
    for seq, (t, kind, node, detail) in enumerate(
        [(0, "send", "a", {"dst": "b", "msg": "gossip", "msg_id": 1}), (0, "set_loss", None, {"probability": 0.25}),
         (3, "deliver", "b", {"src": "a", "msg": "gossip", "msg_id": 1, "sent_at": 0}), (4, "crash", "b", {}),
         (4, "note", "a", {"text": "ünïcode \"quoted\"", "nested": {"xs": [1, None, True]}})]
    ):
        rec.record(t, kind, node, detail)
        old.append({"t": t, "seq": seq, "kind": kind, "node": node, "detail": detail})
    expected = "".join(json.dumps(e, separators=(",", ":")) + "\n" for e in old)
    assert dumps_jsonl(rec.entries) == expected
    assert dumps_jsonl(old) == expected


# --- the row writer against the JSON encoding of the entry dicts ----------------------

# Characters the escaping must get right, beside any code point at all
# (lone surrogates included).
_TRICKY = st.sampled_from(['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "\u2028", "\ud800", "\udfff", "😀"])
_text = st.text(st.one_of(_TRICKY, st.characters(blacklist_categories=())), max_size=8)
_big = st.one_of(st.integers(0, 50), st.integers(-(2**70), 2**70))
_json = st.recursive(
    st.none() | st.booleans() | _big | st.floats(allow_nan=False) | _text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_text, inner, max_size=3),
    max_leaves=6,
)


@st.composite
def recorded_rows(draw):
    """A recorder holding rows of every form: tuple details through send,
    deliver and drop, mappings under those kinds and under any other."""
    rec = TraceRecorder()
    for _ in range(draw(st.integers(0, 12))):
        t, form = draw(_big), draw(st.sampled_from(["send", "deliver", "drop", "mapping", "other"]))
        if form == "send":
            rec.send(t, draw(_text), draw(_text), draw(_text), draw(_big))
        elif form == "deliver":
            rec.deliver(t, draw(_text), draw(_text), draw(_text), draw(_big), draw(_big))
        elif form == "drop":
            rec.drop(t, draw(_text), draw(_text), draw(_text), draw(_text), draw(_big))
        else:
            kind = draw(st.sampled_from(["send", "deliver", "drop"])) if form == "mapping" else draw(_text)
            rec.record(t, kind, draw(st.none() | _text), draw(st.dictionaries(_text, _json, max_size=4)))
    return rec


def mapping_details():
    """Mappings under the kinds whose details are usually tuples."""
    rec = TraceRecorder()
    rec.record(5, "send", "a", {"dst": "b"})
    rec.record(6, "drop", "b", {"msg_id": 1, "reason": "loss"})
    return rec


@settings(max_examples=150, deadline=None)
@given(recorded_rows())
@example(rec=mapping_details())
def test_row_writer_matches_json_encoding_of_entry_dicts(tmp_path_factory, rec):
    expected = "".join(json.dumps(e, separators=(",", ":")) + "\n" for e in rec.entries)
    assert dumps_jsonl(rec.entries) == expected
    assert dumps_jsonl(list(rec.entries)) == expected
    path = tmp_path_factory.mktemp("writer") / "trace.jsonl"
    dump_jsonl(rec.entries, str(path))
    assert path.read_text(encoding="ascii") == expected
