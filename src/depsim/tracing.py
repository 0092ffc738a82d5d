"""Run traces.

A trace is an append-only sequence of entries, one per observable event.
Each entry has a logical timestamp ``t``, a monotonically increasing
sequence number ``seq`` (unique within the run), a ``kind`` string, the
``node`` it concerns (or None for run-level events) and a ``detail``
mapping. Serialized form is JSON Lines with a fixed key order so that
identical runs produce byte-identical files.

In memory the recorder keeps one ``(t, kind, node, detail)`` row per
entry; an entry's ``seq`` is its row's list index. Readers that want
entry dicts get them from a read-only view that builds each one on read;
metrics and verify read rows through :func:`trace_rows`.

The simulator's ``send``, ``deliver`` and ``drop`` entries, nearly all
the rows of a quiet or lossy run, keep their detail as a plain tuple in
the fixed field order of ``_TUPLE_FIELDS`` instead of a dict each. Only
this module knows that layout: the view expands such a detail into the
same keys in the same order (:func:`detail_dict`), and
:func:`detail_field` reads one field of a detail in either form. Every
other row holds the detail mapping it was recorded with.

The JSONL writer formats each line straight from its row, a tuple
detail through a format built once per kind from its layout, so the
bytes are those of the entry dict's JSON encoding with no dict built.
The reader parses one line at a time: :func:`read_rows` yields rows,
turning a detail whose keys are exactly its kind's layout back into the
tuple, so a check over a file holds only its own state, never the file.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence
from itertools import count
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable

Row = tuple[int, str, str | None, dict[str, Any] | tuple]

# Field names of the details held as tuples, per entry kind, in the
# order of the tuple and of the serialized keys. The fields in
# _INT_FIELDS are ints and come last; the others are strings.
_TUPLE_FIELDS: dict[str, tuple[str, ...]] = {
    "send": ("dst", "msg", "msg_id"),
    "deliver": ("src", "msg", "msg_id", "sent_at"),
    "drop": ("reason", "src", "msg", "msg_id"),
}
_INT_FIELDS = frozenset({"msg_id", "sent_at"})
_FIELD_INDEX = {(kind, name): i for kind, names in _TUPLE_FIELDS.items() for i, name in enumerate(names)}


class MalformedTrace(Exception):
    """Raised when a trace file cannot be parsed or lacks required fields."""


def detail_field(kind: str, detail: dict[str, Any] | tuple, name: str, default: Any = None) -> Any:
    """Field ``name`` of a row's detail in either form, or ``default``
    when a detail mapping lacks it."""
    if type(detail) is tuple:
        return detail[_FIELD_INDEX[kind, name]]
    return detail.get(name, default)


def detail_dict(kind: str, detail: dict[str, Any] | tuple) -> dict[str, Any]:
    """A row's detail as a mapping: a tuple expanded into a fresh dict of
    its kind's fields in order, a mapping as it is."""
    if type(detail) is tuple:
        return dict(zip(_TUPLE_FIELDS[kind], detail))
    return detail


def _entry_dict(seq: int, row: Row) -> dict[str, Any]:
    """The entry dict of the row at list index ``seq``."""
    t, kind, node, detail = row
    # Insertion order of keys is the serialization order.
    return {"t": t, "seq": seq, "kind": kind, "node": node, "detail": detail_dict(kind, detail)}


class TraceView(Sequence):
    """Read-only sequence of entry dicts over a recorder's rows. Every
    read builds a fresh entry dict, so changing one never changes the
    trace. A ``send`` or ``deliver`` detail held as a tuple is expanded
    into a fresh mapping too; any other ``detail`` mapping is the recorded
    one."""

    __slots__ = ("rows",)

    def __init__(self, rows: list[Row]) -> None:
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index: int) -> dict[str, Any]:
        seq = range(len(self.rows))[index]  # maps a negative index to its seq, or raises IndexError
        return _entry_dict(seq, self.rows[seq])

    def __iter__(self):
        return map(_entry_dict, count(), self.rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, TraceView)):
            return list(self) == list(other)
        return NotImplemented


class TraceRecorder:
    """Collects trace rows in memory; ``entries`` views them as dicts."""

    __slots__ = ("rows", "entries")

    def __init__(self) -> None:
        self.rows: list[Row] = []
        self.entries = TraceView(self.rows)

    def record(self, t: int, kind: str, node: str | None, detail: dict[str, Any] | tuple) -> None:
        self.rows.append((t, kind, node, detail))

    # send and deliver append through record(), so a wrapper on record()
    # still sees every row.
    def send(self, t: int, src: str, dst: str, msg: str, msg_id: int) -> None:
        """Record a ``send`` entry of ``src`` with its detail as a tuple."""
        self.record(t, "send", src, (dst, msg, msg_id))

    def deliver(self, t: int, dst: str, src: str, msg: str, msg_id: int, sent_at: int) -> None:
        """Record a ``deliver`` entry at ``dst`` with its detail as a tuple."""
        self.record(t, "deliver", dst, (src, msg, msg_id, sent_at))

    def drop(self, t: int, dst: str, reason: str, src: str, msg: str, msg_id: int) -> None:
        """Record a ``drop`` entry at ``dst`` with its detail as a tuple."""
        self.record(t, "drop", dst, (reason, src, msg, msg_id))


def trace_rows(trace: Iterable) -> Iterable[Row]:
    """The rows of a trace: a recorder view's own row list, not copied;
    the rows of a sequence of entry dicts, in a fresh list; or any other
    iterable, such as :func:`read_rows`, as it is, since it yields rows.
    Read a field of a row's detail with :func:`detail_field`, which takes
    either form."""
    if isinstance(trace, TraceView):
        return trace.rows
    if isinstance(trace, Sequence):
        return [(e["t"], e["kind"], e["node"], e["detail"]) for e in trace]
    return trace


# One encoder for every entry: json.dumps with separators builds a new one per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _tuple_format(kind: str, fields: tuple[str, ...]) -> str:
    """The %-format of a line whose detail is a ``kind`` tuple, taking
    t, seq, the encoded node and string fields, and the int fields."""
    detail = ",".join(f'"{name}":' + ("%d" if name in _INT_FIELDS else "%s") for name in fields)
    return '{"t":%d,"seq":%d,"kind":"' + kind + '","node":%s,"detail":{' + detail + "}}\n"


# kind -> (line format, number of leading string fields) of a tuple detail
_TUPLE_LINES = {
    kind: (_tuple_format(kind, fields), sum(name not in _INT_FIELDS for name in fields))
    for kind, fields in _TUPLE_FIELDS.items()
}


def _lines(trace: Iterable[dict[str, Any]]) -> Iterator[str]:
    """The JSONL lines of a recorder view's rows, or of entry dicts with
    the view's key order, each the compact ``_ENCODER`` encoding of its
    entry dict. Strings are escaped as ``_ENCODER`` does (ASCII only)."""
    if isinstance(trace, TraceView):
        numbered = enumerate(trace.rows)
    else:
        numbered = ((e["seq"], (e["t"], e["kind"], e["node"], e["detail"])) for e in trace)
    encode, esc = _ENCODER.encode, encode_basestring_ascii
    tuple_lines = _TUPLE_LINES
    for seq, (t, kind, node, detail) in numbered:
        if type(detail) is tuple:
            fmt, n = tuple_lines[kind]
            yield fmt % (t, seq, esc(node), *map(esc, detail[:n]), *detail[n:])
        else:
            node = "null" if node is None else esc(node)
            yield '{"t":%d,"seq":%d,"kind":%s,"node":%s,"detail":%s}\n' % (t, seq, esc(kind), node, encode(detail))


def dump_jsonl(trace: Iterable[dict[str, Any]], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_lines(trace))


def dumps_jsonl(trace: Iterable[dict[str, Any]]) -> str:
    return "".join(_lines(trace))


def _entries(path: str) -> Iterator[dict[str, Any]]:
    """The entry dicts of a JSONL trace file as written, parsed one line
    at a time. Every entry must have the fixed shape and, for its kind,
    the detail fields the verifier reads."""
    # surrogateescape turns each byte that is not UTF-8 into a lone
    # surrogate, so the bad line can be named instead of the read failing.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise MalformedTrace(f"line {lineno}: not valid UTF-8") from exc
            # json.loads recurses once per nesting level, so a deep value
            # raises RecursionError.
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise MalformedTrace(f"line {lineno}: {exc}") from exc
            problem = _shape_problem(obj)
            if problem is not None:
                raise MalformedTrace(f"line {lineno}: {problem}")
            yield obj


def load_jsonl(path: str) -> list[dict[str, Any]]:
    """Read a whole JSONL trace into a list of its entry dicts."""
    return list(_entries(path))


def read_rows(path: str) -> Iterator[Row]:
    """The rows of a JSONL trace file, parsed and checked one line at a
    time. A ``send``, ``deliver`` or ``drop`` detail whose keys are
    exactly its kind's layout, in order, becomes the tuple the recorder
    holds; any other detail stays the mapping the file holds."""
    for e in _entries(path):
        kind, detail = e["kind"], e["detail"]
        fields = _TUPLE_FIELDS.get(kind)
        if fields is not None and tuple(detail) == fields:
            detail = tuple(detail.values())
        yield e["t"], kind, e["node"], detail


# The detail fields the checks in ``verify`` read, with their types, per
# entry kind. The reader rejects a trace entry that lacks one, so no check
# meets one missing or mistyped (an unhashable msg_id or plan included).
REQUIRED_DETAIL: dict[str, dict[str, type]] = {
    "send": {"msg_id": int},
    "deliver": {"msg_id": int},
    "notice_applied": {"notice": str},
    "suspect": {"peer": str},
    "refute": {"peer": str},
    "remove": {"peer": str},
    "access": {"request": str},
    "audit": {"request": str},
    "summary": {"cluster": str},
    "plan": {"plan": str, "actions": list},
    "plan_done": {"plan": str, "ok": bool},
    "alert_operator": {"plan": str},
}


def _shape_problem(obj: Any) -> str | None:
    if not isinstance(obj, dict):
        return "entry is not an object"
    for field in ("t", "seq", "kind", "node", "detail"):
        if field not in obj:
            return f"missing field {field!r}"
    for field in ("t", "seq"):
        if type(obj[field]) is not int:
            return f"{field} must be an integer, got {obj[field]!r}"
    kind, node, detail = obj["kind"], obj["node"], obj["detail"]
    if not isinstance(kind, str):
        return f"kind must be a string, got {kind!r}"
    if node is not None and not isinstance(node, str):
        return f"node must be a string or null, got {node!r}"
    if not isinstance(detail, dict):
        return f"detail must be an object, got {detail!r}"
    for key, typ in REQUIRED_DETAIL.get(kind, {}).items():
        if not isinstance(detail.get(key), typ):
            return f"{kind} entry needs detail.{key} of type {typ.__name__}, got {detail.get(key)!r}"
    return None
