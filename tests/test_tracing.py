import gc
import json
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from conftest import base_scenario, entries
from hypothesis import example, given, settings
from hypothesis import strategies as st

from depsim.run import SimulationRun
from depsim.scenario import load_scenario, parse_scenario
from depsim.tracing import _ENCODER, MalformedTrace, TraceRecorder, detail_field, dump_jsonl, dumps_jsonl, read_rows

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def test_record_fixed_shape():
    rec = TraceRecorder()
    rec.record(5, "send", "a", {"dst": "b"})
    rec.record(5, "deliver", "b", {"src": "a"})
    assert list(rec) == [(5, "send", "a", {"dst": "b"}), (5, "deliver", "b", {"src": "a"})]
    assert entries(rec) == [
        {"t": 5, "seq": 0, "kind": "send", "node": "a", "detail": {"dst": "b"}},
        {"t": 5, "seq": 1, "kind": "deliver", "node": "b", "detail": {"src": "a"}},
    ]


def test_seq_strictly_increasing_across_kinds():
    rec = TraceRecorder()
    for i in range(10):
        rec.record(i, "tick", None, {})
    assert [e["seq"] for e in entries(rec)] == list(range(10))


def test_dumps_compact_and_key_order():
    rec = TraceRecorder()
    rec.record(1, "send", "a", {"x": 1})
    line = dumps_jsonl(rec).strip()
    assert line == '{"t":1,"seq":0,"kind":"send","node":"a","detail":{"x":1}}'


def test_file_round_trip(tmp_path):
    rec = TraceRecorder()
    rec.record(1, "a", "n", {"v": [1, 2]})
    rec.record(2, "b", None, {})
    path = tmp_path / "trace.jsonl"
    dump_jsonl(rec, str(path))
    assert list(read_rows(str(path))) == list(rec)


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t": 1}\nnot json\n')
    with pytest.raises(MalformedTrace):
        list(read_rows(str(path)))


def test_load_rejects_missing_fields(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"t": 1, "seq": 0, "kind": "x"}\n')
    with pytest.raises(MalformedTrace):
        list(read_rows(str(path)))


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
        list(read_rows(str(path)))


# --- rows ----------------------------------------------------------------------------


def recorded():
    rec = TraceRecorder()
    for i in range(5):
        rec.record(i // 2, "tick", None if i % 3 else "a", {"i": i})
    return rec


def test_rows_are_four_tuples_without_seq():
    rec = recorded()
    assert list(rec)[3] == (1, "tick", "a", {"i": 3})
    assert all(type(row) is tuple and len(row) == 4 for row in rec)


def test_view_is_live_and_seq_is_row_index_across_split_runs():
    """``trace`` is the recorder itself, so one taken before the run
    grows with it; the file numbers its lines by row index."""
    scn = base_scenario(until=200)
    split = SimulationRun(scn, seed=3)
    rows = split.trace
    assert rows is split.sim.trace
    for cut in (17, 64, 150):
        split.run_until(cut)
        assert len(rows) == len(split.sim.trace) > 0
    split.run()
    dicts = entries(rows)
    assert [e["seq"] for e in dicts] == list(range(len(rows)))
    assert [(e["t"], e["kind"], e["node"]) for e in dicts] == [row[:3] for row in rows]
    assert list(rows) == list(SimulationRun(scn, seed=3).run().trace)


def test_simulator_holds_send_and_deliver_details_as_tuples():
    """send, deliver and drop details are tuples; on a lossy network with
    a crash, drops for loss and for the crashed target both appear."""
    faults = [{"kind": "crash", "node": "b", "at": 60}]
    scn = base_scenario(until=120, network={"base_latency": 1, "jitter": 0, "loss": 0.2}, faults=faults)
    rows = SimulationRun(scn, seed=5).run().trace
    sends = [row for row in rows if row[1] == "send"]
    delivers = [row for row in rows if row[1] == "deliver"]
    drops = [row for row in rows if row[1] == "drop"]
    assert sends and delivers
    assert {row[3][0] for row in drops} == {"loss", "target_crashed"}
    assert all(type(row[3]) is tuple and len(row[3]) == 3 for row in sends)
    assert all(type(row[3]) is tuple and len(row[3]) == 4 for row in delivers + drops)
    assert all(type(row[3]) is dict for row in rows if row[1] not in ("send", "deliver", "drop"))
    # The JSONL keys of each tuple, in order: the dicts the simulator recorded before.
    send, deliver, drop = (e["detail"] for e in entries([sends[0], delivers[0], drops[0]]))
    dst, msg, msg_id = sends[0][3]
    assert list(send.items()) == [("dst", dst), ("msg", msg), ("msg_id", msg_id)]
    src, msg, msg_id, sent_at = delivers[0][3]
    assert list(deliver.items()) == [("src", src), ("msg", msg), ("msg_id", msg_id), ("sent_at", sent_at)]
    reason, src, msg, msg_id = drops[0][3]
    assert list(drop.items()) == [("reason", reason), ("src", src), ("msg", msg), ("msg_id", msg_id)]
    assert detail_field("drop", drops[0][3], "reason") == reason
    assert detail_field("drop", {}, "reason") is None
    assert detail_field("deliver", delivers[0][3], "sent_at") == detail_field("deliver", deliver, "sent_at") == sent_at
    assert detail_field("deliver", {"msg_id": 1}, "sent_at") is None


def test_tuple_details_encode_like_the_dicts_they_replace():
    rec = TraceRecorder()
    rec.send(3, "a", "b", "gossip", 7)
    rec.deliver(4, "b", "a", "gossip", 7, 3)
    rec.record(4, "deliver", "c", {"src": "a", "msg": "gossip", "msg_id": 8})
    assert dumps_jsonl(rec) == (
        '{"t":3,"seq":0,"kind":"send","node":"a","detail":{"dst":"b","msg":"gossip","msg_id":7}}\n'
        '{"t":4,"seq":1,"kind":"deliver","node":"b","detail":{"src":"a","msg":"gossip","msg_id":7,"sent_at":3}}\n'
        '{"t":4,"seq":2,"kind":"deliver","node":"c","detail":{"src":"a","msg":"gossip","msg_id":8}}\n'
    )


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
    assert dumps_jsonl(rec) == expected


# --- the row writer against the JSON encoding of the entry dicts ----------------------

# Characters the escaping must get right, beside any code point at all
# (lone surrogates included).
_TRICKY = st.sampled_from(['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "\u2028", "\ud800", "\udfff", "😀"])
_text = st.text(st.one_of(_TRICKY, st.characters(blacklist_categories=())), max_size=8)
_big = st.one_of(st.integers(0, 50), st.integers(-(2**70), 2**70))
# The ints the recorder takes as a t or an int field.
_int64 = st.one_of(st.integers(0, 50), st.integers(-(2**63), 2**63 - 1))
_json = st.recursive(
    st.none() | st.booleans() | _big | st.floats(allow_nan=False) | _text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_text, inner, max_size=3),
    max_leaves=6,
)

# The layouts of the tuple details, spelt out here as the entry dicts
# the simulator recorded before the tuples replaced them.
_LAYOUT = {
    "send": (("dst", _text), ("msg", _text), ("msg_id", _int64)),
    "deliver": (("src", _text), ("msg", _text), ("msg_id", _int64), ("sent_at", _int64)),
    "drop": (("reason", _text), ("src", _text), ("msg", _text), ("msg_id", _int64)),
}


@st.composite
def recorded_rows(draw):
    """A recorder holding rows of every form: tuple details through send,
    deliver and drop, mappings under those kinds and under any other;
    with the entry dict each row stands for, built from the drawn fields."""
    rec, expected = TraceRecorder(), []
    for seq in range(draw(st.integers(0, 12))):
        t, form = draw(_int64), draw(st.sampled_from(["send", "deliver", "drop", "mapping", "other"]))
        if form in _LAYOUT:
            node = draw(_text)
            detail = {name: draw(values) for name, values in _LAYOUT[form]}
            getattr(rec, form)(t, node, *detail.values())
            kind = form
        else:
            kind = draw(st.sampled_from(sorted(_LAYOUT))) if form == "mapping" else draw(_text)
            node, detail = draw(st.none() | _text), draw(st.dictionaries(_text, _json, max_size=4))
            rec.record(t, kind, node, detail)
        expected.append({"t": t, "seq": seq, "kind": kind, "node": node, "detail": detail})
    return rec, expected


def mapping_details():
    """Mappings under the kinds whose details are usually tuples."""
    rec = TraceRecorder()
    rec.record(5, "send", "a", {"dst": "b"})
    rec.record(6, "drop", "b", {"msg_id": 1, "reason": "loss"})
    expected = [
        {"t": 5, "seq": 0, "kind": "send", "node": "a", "detail": {"dst": "b"}},
        {"t": 6, "seq": 1, "kind": "drop", "node": "b", "detail": {"msg_id": 1, "reason": "loss"}},
    ]
    return rec, expected


@settings(max_examples=150, deadline=None)
@given(recorded_rows())
@example(case=mapping_details())
def test_row_writer_matches_json_encoding_of_entry_dicts(tmp_path_factory, case):
    rec, dicts = case
    expected = "".join(json.dumps(e, separators=(",", ":")) + "\n" for e in dicts)
    assert dumps_jsonl(rec) == expected
    assert dumps_jsonl(list(rec)) == expected
    path = tmp_path_factory.mktemp("writer") / "trace.jsonl"
    dump_jsonl(rec, str(path))
    assert path.read_text(encoding="ascii") == expected


# --- the reader and the writer round trip any valid file -------------------------------

# Values of any JSON type, so that a layout field may hold a string, an
# int, a bool, null, a float or a container.
_field = st.one_of(_text, _big, st.booleans(), st.none(), st.floats(allow_nan=False), st.lists(_big, max_size=2))


@st.composite
def valid_lines(draw):
    """Entry objects with ``seq`` 0..n-1 that the reader accepts: layout
    keys under send, deliver and drop holding values of any type (msg_id
    of send and deliver an int or a bool, as the reader requires), and
    other details under any kind."""
    lines = []
    for seq in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["send", "deliver", "drop", "other"]))
        if kind == "other":
            kind, detail = draw(_text), draw(st.dictionaries(_text, _json, max_size=3))
        else:
            detail = {name: draw(_field) for name, _ in _LAYOUT[kind]}
            if kind != "drop":
                detail["msg_id"] = draw(_big | st.booleans())
            if draw(st.booleans()):
                detail = draw(st.permutations(list(detail.items())).map(dict))
        lines.append({"t": draw(_big), "seq": seq, "kind": kind, "node": draw(st.none() | _text), "detail": detail})
    return lines


@settings(max_examples=200, deadline=None)
@given(valid_lines())
@example(lines=[{"t": 0, "seq": 0, "kind": "send", "node": "a", "detail": {"dst": 5, "msg": "g", "msg_id": 1}}])
@example(
    lines=[{"t": 0, "seq": 0, "kind": "deliver", "node": "b", "detail": {"src": "a", "msg": "g", "msg_id": 1, "sent_at": True}}]
)
def test_read_rows_then_write_gives_the_file_back(tmp_path_factory, lines):
    """Writing the rows read from a valid file gives back the compact JSON
    encoding of its lines: every detail the reader makes a tuple is one
    the writer encodes as the mapping it was read from."""
    path = tmp_path_factory.mktemp("round") / "trace.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="ascii")
    assert dumps_jsonl(list(read_rows(str(path)))) == "".join(json.dumps(line, separators=(",", ":")) + "\n" for line in lines)


# --- the columnar recorder against a list of row tuples ---------------------------------


def _in_64_bits(v):
    return type(v) is int and -(2**63) <= v < 2**63


def writable(t, kind, node, detail):
    """Whether the JSONL writer writes the row as its entry dict: ``t`` an
    int in 64 bits, a str kind, a str or None node, and a tuple detail
    only under a layout kind, with its length and, field by field, a str
    or an int in 64 bits as the layout has it."""
    if not (_in_64_bits(t) and type(kind) is str and (node is None or type(node) is str)):
        return False
    if type(detail) is not tuple:
        return True
    names = [name for name, _ in _LAYOUT.get(kind, ())]
    return len(names) == len(detail) > 0 and all(
        _in_64_bits(v) if name in ("msg_id", "sent_at") else type(v) is str for name, v in zip(names, detail)
    )


class RefRecorder:
    """The recorder as it was before it held columns: a list of the rows
    as recorded, of the rows the writer can write."""

    def __init__(self):
        self.rows = []

    def record(self, t, kind, node, detail):
        if not writable(t, kind, node, detail):
            raise TypeError("not a writable row")
        self.rows.append((t, kind, node, detail))

    def send(self, t, src, dst, msg, msg_id):
        self.record(t, "send", src, (dst, msg, msg_id))

    def deliver(self, t, dst, src, msg, msg_id, sent_at):
        self.record(t, "deliver", dst, (src, msg, msg_id, sent_at))

    def drop(self, t, dst, reason, src, msg, msg_id):
        self.record(t, "drop", dst, (reason, src, msg, msg_id))


# Values that no column holds as they are: a bool, an int outside 64
# bits, a str subclass, or no string or int at all.
class _Name(str):
    pass


_edge_int = st.sampled_from([2**63 - 1, -(2**63), 2**63, -(2**63) - 1, 2**64])
_misfit = st.one_of(st.booleans(), _edge_int, st.none(), st.floats(allow_nan=False), st.just(_Name("n1")), st.tuples(_big))
_name = st.one_of(st.sampled_from(["n1", "n2", "gossip", "é", "ünï\"\\", "😀"]), _text)
_int = st.one_of(st.integers(0, 50), _big, _edge_int)
_str_field = st.one_of(_name, _name, _name, _misfit)
_int_field = st.one_of(_int, _int, _int, _misfit)
_layout_kind = st.sampled_from(sorted(_LAYOUT))


def _layout_fields(kind):
    """The fields of a ``kind`` detail, each fitting its column or not."""
    return st.tuples(*(_int_field if name in ("msg_id", "sent_at") else _str_field for name, _ in _LAYOUT[kind]))


@st.composite
def _layout_detail(draw, kind):
    """A tuple detail of ``kind``, now and then one field short or one too many."""
    fields = draw(_layout_fields(kind))
    cut = draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    return fields[:cut] if cut < 0 else fields + (draw(_name),) * cut


@st.composite
def recorder_ops(draw):
    """Interleaved send, deliver, drop and record calls, with a look at
    the rows now and then in the middle of the run."""
    ops = []
    for _ in range(draw(st.integers(0, 25))):
        op = draw(st.sampled_from(["send", "deliver", "drop", "record", "record", "look"]))
        t = draw(st.one_of(_int, _int, _int, st.booleans()))
        if op == "look":
            ops.append(("look",))
        elif op == "record":
            kind = draw(st.one_of(_layout_kind, _name, st.just(7)))
            node = draw(st.one_of(st.none(), _name, _misfit))
            form = draw(st.sampled_from(["mapping", "layout", "tuple"]))
            if form == "mapping":
                detail = draw(st.dictionaries(_text, _json, max_size=3))
            elif form == "layout":
                detail = draw(_layout_detail(draw(_layout_kind)))
            else:
                detail = draw(st.tuples(_name, _int))
            ops.append((op, t, kind, node, detail))
        else:
            node = draw(st.one_of(_name, _name, _misfit))
            ops.append((op, t, node, *draw(_layout_fields(op))))
    return ops


def assert_same_rows(got, want):
    """Equal rows whose fields have the same types; a detail the recorder
    does not split into columns is the very object recorded."""
    assert got == want
    for g, w in zip(got, want):
        assert list(map(type, g[:3])) == list(map(type, w[:3]))
        if type(w[3]) is tuple:
            assert type(g[3]) is tuple and list(map(type, g[3])) == list(map(type, w[3]))
        else:
            assert g[3] is w[3]


def assert_same_trace(rec, ref):
    assert len(rec) == len(ref.rows)
    assert_same_rows(list(rec), ref.rows)
    assert dumps_jsonl(rec) == dumps_jsonl(ref.rows)


def refused(call, *args):
    """Whether ``call(*args)`` raises TypeError."""
    try:
        call(*args)
    except TypeError:
        return True
    return False


@settings(max_examples=300, deadline=None)
@given(recorder_ops())
@example(ops=[("send", 1, "a", "b", "gossip", 7), ("look",), ("deliver", 2, "b", "a", "gossip", 7, 1)])
@example(ops=[("send", 1, "a", "b", "gossip", True), ("deliver", 2, "b", "a", "gossip", 7, 2**63)])
@example(ops=[("drop", 1, "b", "loss", 5, "gossip", 7), ("record", 2**63, "x", "a", {}), ("record", 1, "x", 7, {})])
@example(ops=[("record", 1, "send", "a", {"dst": "b"}), ("record", 1, "tick", "a", ("a", 1)), ("record", 1, 7, None, {})])
# Rows the writer wrote wrong before the recorder refused them: a bool
# msg_id as 1, a float one as 2, a float t as 1, and a tuple under a kind
# with no layout ended in KeyError.
@example(ops=[("record", 1, "send", "a", ("x", "m", True)), ("send", 2, "a", "b", "gossip", 7)])
@example(ops=[("record", 1, "send", "a", ("x", "m", 2.7)), ("send", 2, "a", "b", "gossip", 7)])
@example(ops=[("record", 1.5, "note", "a", {}), ("record", 2, "note", "a", {})])
@example(ops=[("record", 1, "note", "a", ("x",)), ("record", 2, "note", "a", {})])
def test_recorder_rows_equal_a_list_of_the_rows_recorded(ops):
    """The recorder and the list take and refuse the same rows, and hold
    the same rows after a refused one."""
    rec, ref = TraceRecorder(), RefRecorder()
    for op, *args in ops:
        if op == "look":
            assert_same_trace(rec, ref)
        else:
            assert refused(getattr(rec, op), *args) == refused(getattr(ref, op), *args)
    assert_same_trace(rec, ref)


def test_every_row_goes_through_record(monkeypatch):
    """A wrapper on ``TraceRecorder.record`` sees every row of a run, the
    simulator's send, deliver and drop rows included, with its kind as
    the third argument (what a profiler wrapping ``record`` counts)."""
    calls = Counter()
    record = TraceRecorder.record

    def counted(*args):
        calls[args[2]] += 1
        return record(*args)

    monkeypatch.setattr(TraceRecorder, "record", counted)
    run = SimulationRun(load_scenario(SCENARIOS / "crash-and-heal.yaml"), seed=0).run()
    kinds = Counter(kind for _, kind, _, _ in run.trace)
    assert calls.total() == len(run.trace) > 0
    assert calls == kinds
    assert {"send", "deliver"} <= set(kinds)


def test_trace_keeps_at_most_64_bytes_a_row():
    """On a quiet 16-node cluster over 2,000 ticks nearly every row is a
    send or a deliver; the recorder keeps each in columns (a list of row
    tuples kept about 190 bytes a row)."""
    nodes = [f"n{i:02d}" for i in range(16)]
    scn = parse_scenario({
        "name": "quiet16",
        "until": 2000,
        "network": {"base_latency": 1, "jitter": 0, "loss": 0.0},
        "clusters": [{"id": "c0", "nodes": nodes}],
        "detector": {"gossip_interval": 10, "fanout": 2, "t_min": 30, "t_bootstrap": 100},
    })
    gc.collect()
    tracemalloc.start()
    try:
        run = SimulationRun(scn, seed=1).run()
        rows = len(run.trace)
        gc.collect()
        with_trace = tracemalloc.get_traced_memory()[0]
        run.sim.trace = None
        gc.collect()
        kept = with_trace - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert rows > 10_000
    assert kept / rows <= 64


# --- dict details through the one C encoder ----------------------------------------------

_any_json = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | _text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_text, inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_text, _any_json, max_size=5))
@example(detail={"x": float("nan"), "y": float("inf"), "z": -float("inf"), "big": 2**64, "q": '"\\\x00\x1fé😀', "n": None})
def test_dict_details_encode_as_the_shared_encoder_does(detail):
    line = dumps_jsonl([(3, "note", "a", detail)])
    assert line == '{"t":3,"seq":0,"kind":"note","node":"a","detail":%s}\n' % _ENCODER.encode(detail)


def test_unserializable_detail_raises_type_error():
    with pytest.raises(TypeError):
        dumps_jsonl([(1, "note", None, {"ok": 1}), (2, "note", None, {"bad": object()})])
    # A later dump is not disturbed by the failed one.
    assert dumps_jsonl([(1, "note", None, {"ok": [1]})]) == '{"t":1,"seq":0,"kind":"note","node":null,"detail":{"ok":[1]}}\n'
