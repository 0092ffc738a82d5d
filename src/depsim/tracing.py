"""Run traces.

A trace has two forms. In memory the recorder keeps one
``(t, kind, node, detail)`` row per observable event: a logical
timestamp ``t``, a ``kind`` string, the ``node`` it concerns (or None for
run-level events) and a ``detail``. On disk it is JSON Lines, one entry
object per row with the keys ``t``, ``seq``, ``kind``, ``node`` and
``detail`` in that order, where ``seq`` is the row's index. Identical
runs write byte-identical files. Metrics and verify read any iterable of
rows: the recorder, a list of rows or the rows :func:`read_rows` streams
from a file.

The simulator's ``send``, ``deliver`` and ``drop`` entries, nearly all
the rows of a quiet or lossy run, have their detail as a plain tuple in
the fixed field order of ``_TUPLE_FIELDS`` instead of a dict each. Only
this module knows that layout: :func:`detail_field` reads one field of a
detail in either form. Every other row has the detail mapping it was
recorded with.

The recorder holds its rows in columns, not as row tuples: ``t`` and the
int fields of a tuple detail in 64-bit arrays, and the node, the kind
and the string fields of a tuple detail as codes into one table that
holds each distinct string once. It is the run's trace: sized, live
while the run goes on, and iterating it builds each row again, equal to
the one recorded and of the same types. It refuses a row the writer
cannot write.

The JSONL writer formats each line straight from its row, a tuple
detail through a format built once per kind from its layout, so the
bytes are those of the entry dict's JSON encoding with no dict built.
The reader parses one line at a time and turns a detail that fits its
kind's layout back into the tuple, so a check over a file holds only its
own state, never the file.
"""

from __future__ import annotations

import json
from array import array
from collections.abc import Callable, Iterator
from itertools import repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
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
# kind -> the number of its layout's string fields, which come first
_STRINGS = {kind: sum(name not in _INT_FIELDS for name in fields) for kind, fields in _TUPLE_FIELDS.items()}
_FIELD_INDEX = {(kind, name): i for kind, names in _TUPLE_FIELDS.items() for i, name in enumerate(names)}


class MalformedTrace(Exception):
    """Raised when a trace file cannot be parsed or lacks required fields."""


def detail_field(kind: str, detail: dict[str, Any] | tuple, name: str) -> Any:
    """Field ``name`` of a row's detail in either form, or None when a
    detail mapping lacks it."""
    if type(detail) is tuple:
        return detail[_FIELD_INDEX[kind, name]]
    return detail.get(name)


_Q = 2**63  # an array('q') holds the ints in [-_Q, _Q)


def _layout_binder(table: int, width: int, n: int) -> Callable[..., Callable[..., int | None]]:
    """A function that binds the string table and the columns of the
    table of a layout of ``width`` fields, the first ``n`` of them strings,
    into ``store(t, node, detail)``, which appends a row of that layout
    and returns ``table``; or returns None, having appended
    nothing, when the row does not fit: a ``t`` outside 64 bits, a node
    neither str nor None, a detail of another length, a string field not
    a str, an int field not an int or outside 64 bits. The source is
    written field by field from the layout, as ``dataclasses`` writes
    ``__init__``: a loop over the fields made each quiet64 seed about 6%
    slower."""
    values = [f"v{i}" for i in range(width)]
    checks = ["type(t) is int and -_Q <= t < _Q and (node is None or type(node) is str)"]
    checks += [f"type({v}) is str" for v in values[:n]] + [f"type({v}) is int and -_Q <= {v} < _Q" for v in values[n:]]
    source = "\n".join([
        "def bind(strings, ts, nodes, strs, ints):",
        "    def store(t, node, detail):",
        f"        if len(detail) != {width}:",
        "            return None",
        f"        {', '.join(values)}, = detail",
        f"        if not ({' and '.join(checks)}):",
        "            return None",
        "        ts.append(t)",
        "        nodes.append(strings[node])",
        *[f"        strs.append(strings[{v}])" for v in values[:n]],
        *[f"        ints.append({v})" for v in values[n:]],
        f"        return {table}",
        "    return store",
    ])
    namespace: dict[str, Any] = {"_Q": _Q}
    exec(source, namespace)
    return namespace["bind"]


# kind -> (its table's binder, the number of its layout's fields and of its string fields)
_LAYOUTS = {
    kind: (_layout_binder(table, len(fields), _STRINGS[kind]), len(fields), _STRINGS[kind])
    for table, (kind, fields) in enumerate(_TUPLE_FIELDS.items())
}
_OTHER = len(_LAYOUTS)  # the table of the rows whose detail is held as recorded


class _Codes(dict):
    """Codes for values, each value held once: ``self[value]`` is its
    code, a new one the first time, and ``values[code]`` the value."""

    __slots__ = ("values",)

    def __init__(self) -> None:
        super().__init__()
        self.values: list[Any] = []

    def __missing__(self, value: Any) -> int:
        code = self[value] = len(self.values)
        self.values.append(value)
        return code


class TraceRecorder:
    """The trace in memory: a sized, live iterable of rows, held in columns.

    One byte per row names the table that holds it: a table per layout
    kind (``t``, the node and string fields as codes into one string
    table, the int fields) and one for any other detail (``t``, node and
    kind codes, the detail as recorded). Iteration gives back every row
    recorded, equal and of the same types."""

    __slots__ = ("_order", "_layouts", "_stores", "_other", "_strings")

    def __init__(self) -> None:
        self._order = array("B")  # per row, its table
        self._strings = _Codes()
        # Per layout kind: t, node code, string field codes, int fields.
        self._layouts = [(array("q"), array("I"), array("I"), array("q")) for _ in _LAYOUTS]
        self._stores = {
            kind: bind(self._strings, *columns) for (kind, (bind, _, _)), columns in zip(_LAYOUTS.items(), self._layouts)
        }
        # t, node code, kind code, the detail.
        self._other: tuple[array, array, array, list[Any]] = (array("q"), array("I"), array("I"), [])

    def record(self, t: int, kind: str, node: str | None, detail: dict[str, Any] | tuple) -> None:
        """Append a row; raise TypeError, appending nothing, for a row the
        JSONL writer would not write as its entry dict: a ``t`` not an int
        in 64 bits, a kind not a str, a node neither str nor None, or a
        tuple detail that does not fit its kind's layout."""
        if type(detail) is tuple:
            store = self._stores.get(kind) if type(kind) is str else None
            table = None if store is None else store(t, node, detail)
        elif type(t) is int and -_Q <= t < _Q and type(kind) is str and (node is None or type(node) is str):
            table = _OTHER
            strings = self._strings
            ts, nodes, kinds, details = self._other
            ts.append(t)
            nodes.append(strings[node])
            kinds.append(strings[kind])
            details.append(detail)
        else:
            table = None
        if table is None:
            raise TypeError(f"cannot record the row {(t, kind, node, detail)!r}: the trace writer cannot write it")
        self._order.append(table)

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Row]:
        string = self._strings.values.__getitem__
        # Per table, its rows in order: a layout's detail regrouped from
        # its string and int columns.
        tables: list[Iterator[Row]] = [
            zip(ts, repeat(kind), map(string, nodes), zip(*[map(string, strs)] * n, *[iter(ints)] * (width - n)))
            for (kind, (_, width, n)), (ts, nodes, strs, ints) in zip(_LAYOUTS.items(), self._layouts)
        ]
        ts, nodes, kinds, details = self._other
        tables.append(zip(ts, map(string, kinds), map(string, nodes), details))
        return map(next, map(tables.__getitem__, self._order))

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


# One encoder for every entry: json.dumps with separators builds a new one per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _tuple_format(kind: str, fields: tuple[str, ...]) -> str:
    """The %-format of a line whose detail is a ``kind`` tuple, taking
    t, seq, the encoded node and string fields, and the int fields."""
    detail = ",".join(f'"{name}":' + ("%d" if name in _INT_FIELDS else "%s") for name in fields)
    return '{"t":%d,"seq":%d,"kind":"' + kind + '","node":%s,"detail":{' + detail + "}}\n"


# kind -> (line format, number of leading string fields) of a tuple detail
_TUPLE_LINES = {
    kind: (_tuple_format(kind, fields), _STRINGS[kind])
    for kind, fields in _TUPLE_FIELDS.items()
}


def _lines(rows: Iterable[Row]) -> Iterator[str]:
    """The JSONL lines of rows numbered by position, each the compact
    ``_ENCODER`` encoding of its entry dict. Strings are escaped as
    ``_ENCODER`` does (ASCII only)."""
    esc = encode_basestring_ascii
    # The C encoder that _ENCODER.encode builds anew for every detail, built
    # once per call with the arguments JSONEncoder.iterencode gives it. Its
    # circular-reference markers, which a failed encode leaves behind, end
    # with the call.
    encode = c_make_encoder(
        {}, _ENCODER.default, esc, _ENCODER.indent, _ENCODER.key_separator,
        _ENCODER.item_separator, _ENCODER.sort_keys, _ENCODER.skipkeys, _ENCODER.allow_nan,
    )
    tuple_lines = _TUPLE_LINES
    for seq, (t, kind, node, detail) in enumerate(rows):
        node = "null" if node is None else esc(node)
        if type(detail) is tuple:
            fmt, n = tuple_lines[kind]
            yield fmt % (t, seq, node, *map(esc, detail[:n]), *detail[n:])
        else:
            yield '{"t":%d,"seq":%d,"kind":%s,"node":%s,"detail":%s}\n' % (t, seq, esc(kind), node, "".join(encode(detail, 0)))


def dump_jsonl(rows: Iterable[Row], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_lines(rows))


def dumps_jsonl(rows: Iterable[Row]) -> str:
    return "".join(_lines(rows))


def read_rows(path: str) -> Iterator[Row]:
    """The rows of a JSONL trace file, parsed and checked one line at a
    time. Every entry must have the fixed shape and, for its kind, the
    detail fields the verifier reads. A ``send``, ``deliver`` or ``drop``
    detail that fits its kind's layout becomes the tuple the recorder
    holds; any other detail stays the mapping the file holds."""
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
            kind, detail = obj["kind"], obj["detail"]
            fields = _TUPLE_FIELDS.get(kind)
            # A tuple only where the writer encodes it as this mapping: the
            # layout's keys in order, a str in each string field and an int,
            # not a bool, in each int field.
            if fields is not None and tuple(detail) == fields:
                if all(type(v) is (int if k in _INT_FIELDS else str) for k, v in detail.items()):
                    detail = tuple(detail.values())
            yield obj["t"], kind, obj["node"], detail


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
