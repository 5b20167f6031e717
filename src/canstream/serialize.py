"""Scenario and trace file formats.

Scenarios are single JSON documents; traces are line-delimited JSON with one
header line followed by one line per tick, or per run of repeated ticks. All
dumps are canonical (sorted keys, fixed separators, integers and hex strings
only), so a given run always serializes to identical bytes.

A trace keeps only what it cannot derive. Each node's application stream a is
its environment's input, so the header's scenario alone gives it: a tick line
has no "a" field, and the loader builds every node's a from the scenario's
injections (core.arrivals), at every tick, whether or not the tick has a line
of its own. The writer refuses a trace whose a is not its scenario's
injections. A trace records the buffer states only, under "state"; the other
component states follow from the streams. Entering tick t, node i's encoder
holds the payload of as_i(t-1)'s message exactly when ms_i(t-1) is an
identifier, its decoder holds k exactly when mr(t-1) = [id(k)], and its
bus-access layer's lid is the last identifier in ms_i before t, else 0.

A tick line writes each distinct value once. Its "new" list holds the JSON of
each cell, row and buffer state first seen at that tick. The value table opens
with the entries that no file writes: the four values of an idle tick 0, then
the header's message cells, [{"data":..,"id":..}], in injection order, each
distinct one once. Then come the entries of all lines so far in order; every
other field is an integer reference into it. A per-node field, a stream
family, the rows or the buffers of the state, is one reference if every node's
entry is the same, else a [node index, reference] pair per node whose entry
differs from its own entry two ticks before: a frame takes two ticks, so a
node that loses arbitration repeats its cells and states two ticks later. The
ticks before tick 0 are idle. Equal values count as the same, so the bytes
depend on the values alone.

A buffer state entry refers to its messages, {"b":k,"buf":[k1,...]}: k names
the cell of its offer slot, and each ki the cell that holds one queued message
alone, the entry a stream cell of that message alone uses. A reference inside
an entry names an earlier entry. Every message of a run is injected, so the
offer, delivery and queue references of a run all name the header's message
cells, and each message is written once, in the header.

A line gives "t" and only the fields whose value differs from the previous
tick's ("state" when the buffers changed), and "new" only when it has entries.
A tick that repeats the previous one has no line of its own: "through":M on
the line of tick N says that ticks N+1 to M repeat tick N, and a line of "t"
alone is one repeated tick. The header is {"format","scenario","version"}: the
node count and the horizon are the scenario's. The loader reads version 12
(TRACE_VERSION) only; an older trace is regenerated by running the scenario in
its header.

Both formats are closed: one table gives each object kind its keys and their
value kinds, and one reader checks them, so an error names the key and its
place ("unknown key 'injections[0].prio'"), never a missing field. An object
that gives a key twice is rejected by name ("repeated key 'nodeCount'"), in a
scenario file and anywhere in a trace file, where JSON decoding would keep the
last value.

Within one dump each value is numbered once and then found by its id(), which
is exact: the values are immutable and the trace keeps them alive for the call,
so no id is reused. Its text, made when its id is first met, finds its number;
no text is kept, as a memo of texts costs more than it saves. A load builds each
table entry once for each kind it is read as, and a field that a line leaves out
keeps the previous tick's object, so a loaded trace shares its values as a run
does: a header message entry, read as a cell, is the a cell that holds it, and
a loaded buffer holds the message objects of the loaded cells.
"""
from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import asdict
from itertools import compress, zip_longest
from operator import ne
from string import hexdigits

from .checkers import Report, render_cell
from .components import REQ_CELL, _IDLE_BUFFER, BufferState
from .core import (
    PER_NODE_FAMILIES,
    REQ,
    AMessage,
    DataSym,
    IdSym,
    Injection,
    Scenario,
    ScenarioError,
    Trace,
    arrivals,
    assemble_trace,
    require_valid,
)

TRACE_FORMAT = "canstream-trace"
TRACE_VERSION = 12


_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


# -- scenarios ---------------------------------------------------------------

def scenario_to_dict(s: Scenario) -> dict:
    return {
        "nodeCount": s.node_count,
        "horizon": s.horizon,
        "injections": [
            {"node": inj.node, "tick": inj.tick, "id": inj.message.id, "data": inj.message.data.hex()}
            for inj in s.injections
        ],
    }


_INVALID = object()  # what a kind reads a value of another kind as; the value of a key that an object lacks

# JSON value kinds a scenario or trace field may take, as (reader, description): a reader gives the value as read, or
# _INVALID for a value of another kind. A bool is not an integer here, and nothing is coerced.
_ANY = (lambda v: v, "given")
_INT = (lambda v: v if type(v) is int else _INVALID, "an integer")
_INTS = (lambda v: v if type(v) is list and {int}.issuperset(map(type, v)) else _INVALID, "a list of integers")
_HEX = (lambda v: bytes.fromhex(v) if isinstance(v, str) and len(v) % 2 == 0 and not v.strip(hexdigits) else _INVALID,
        "a hex string")
_OBJECT = (lambda v: v if isinstance(v, dict) else _INVALID, "an object")


def _or(kind: tuple, default) -> tuple:
    """The kind of an optional key: `kind`, with a missing value read as `default`."""
    return (lambda v: default if v is _INVALID else kind[0](v)), kind[1]


# Each kind of JSON object that `_read` reads: its keys in reading order, each with the kind of its value. A key is
# optional if its kind reads a missing value. A symbol's `sym` picks the kind of its `value`, and a buffer's `b` is a
# reference: `_symbol` and `_buffer_state` check those.
_INJECTION = {"node": _INT, "tick": _INT, "id": _INT, "data": _HEX}
_SCENARIO = {"nodeCount": _INT, "horizon": _INT,
             "injections": _or((lambda v: tuple(map(_injection, v, range(len(v)))) if type(v) is list else _INVALID,
                                "a list"), ())}
_MESSAGE = {"id": _INT, "data": _HEX}
_SYMBOL = {"sym": _ANY, "value": _ANY}
_BUFFER = {"b": _ANY, "buf": _INTS}
# The per-node stream families that a tick line gives: each node's `a` is its scenario's injections.
_FAMILIES = tuple(family for family in PER_NODE_FAMILIES if family != "a")
# The key sets of the objects that the trace loader reads by hand, in the order it reads their keys.
_HEADER = dict.fromkeys(("format", "version", "scenario")).keys()
_LINE = dict.fromkeys(("t", "through", "new", *_FAMILIES, "wr", "rows", "state")).keys()


def _checked(name: str, value, kind: tuple):
    """`value` as its kind reads it, or a ValueError naming the field `name` if it is of another kind."""
    read = kind[0](value)
    if read is _INVALID:
        raise ValueError(f"{name} must be {kind[1]}, got {json.dumps(value)}")
    return read


def _misfit(obj: dict, keys, required) -> tuple[str, str] | None:
    """The key that keeps `obj` from fitting its key set, and the reason: the first key of `required` that it lacks, in
    order ("missing key"), else its first key outside `keys`, in sorted order ("unknown key"); None if it fits."""
    missing, unknown = [key for key in required if key not in obj], obj.keys() - keys
    return (missing[0], "missing key") if missing else (min(unknown), "unknown key") if unknown else None


def _read(obj, schema: dict, where: str = "") -> list:
    """The values of `obj`, an object of the kind `schema`, in key order, each as its kind reads it. An object that
    does not fit raises `_unfit`'s error."""
    if type(obj) is dict and obj.keys() <= schema.keys():
        values = []
        for key, (read, _) in schema.items():
            value = read(obj.get(key, _INVALID))
            if value is _INVALID:
                break
            values.append(value)
        else:
            return values
    raise _unfit(obj, schema, where)


def _unfit(obj, schema: dict, where: str) -> ValueError:
    """The error for `obj`, which does not fit `schema`, naming after the path `where` the first thing wrong: a key it
    repeats, that it is not an object, a key (see `_misfit`), or else its first value of the wrong kind (`_checked`)."""
    if type(obj) is _Repeated:
        return ValueError(f"repeated key {where + obj.repeated!r}")
    if type(obj) is not dict:
        return ValueError(f"{where[:-1]} must be an object, got {json.dumps(obj)}" if where else
                          f"expected an object, got {_dumps(obj)}")
    misfit = _misfit(obj, schema.keys(), [key for key, kind in schema.items() if kind[0](_INVALID) is _INVALID])
    if misfit:
        return ValueError(f"{misfit[1]} {where + misfit[0]!r}")
    for key, kind in schema.items():
        _checked(where + key, obj.get(key, _INVALID), kind)


def _injection(obj, k: int) -> Injection:
    node, tick, ident, data = _read(obj, _INJECTION, f"injections[{k}].")
    return Injection(node, tick, AMessage(ident, data))


def scenario_from_dict(obj) -> Scenario:
    """The scenario of a parsed JSON document; a field of the wrong kind, or a key missing from or outside its
    object's key set, raises ScenarioError."""
    try:
        return Scenario(*_read(_checked("scenario", obj, _OBJECT), _SCENARIO))
    except (ValueError, RecursionError) as exc:  # or a value nested too deeply for its error to show it
        raise ScenarioError(exc) from None


def scenario_to_json(s: Scenario) -> str:
    return _dumps(scenario_to_dict(s)) + "\n"


class _Repeated(dict):
    """An object of a scenario file that gives a key twice, the first such key being `repeated`; `_read` rejects it."""
    __slots__ = ("repeated",)


def _unrepeated(pairs: list) -> dict:
    """A scenario or trace file's object from its key-value pairs, a _Repeated if it gives a key twice."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        obj = _Repeated(obj)
        obj.repeated = next(key for key in keys if keys.count(key) > 1)
    return obj


_decode = json.JSONDecoder(object_pairs_hook=_unrepeated).raw_decode


def scenario_from_json(text: str) -> Scenario:
    try:
        obj = json.loads(text, object_pairs_hook=_unrepeated)
    except (ValueError, RecursionError) as exc:  # bad syntax, an integer of too many digits, or nesting too deep
        raise ScenarioError(exc) from exc
    return scenario_from_dict(obj)


# -- traces -------------------------------------------------------------------

# An idle tick 0's values, in the order its line would number them: they open every value table, and no file has them.
_OPENING = ((), REQ_CELL, 1, _IDLE_BUFFER)


def _idle(n: int) -> dict:
    """The fields of the tick before tick 0 for n nodes, in a record's order."""
    return {**dict.fromkeys(_FAMILIES, ((),) * n), "wr": (), "rows": (1,) * n,
            "state": {"buffers": (_IDLE_BUFFER,) * n}}


# The canonical JSON text of a value, by its exact type.
_FRAGMENTS = {
    tuple: lambda v: "[%s]" % ",".join([_FRAGMENTS[type(x)](x) for x in v]),
    int: lambda v: "%d" % v,
    AMessage: lambda v: '{"data":"%s","id":%d}' % (v.data.hex(), v.id),
    IdSym: lambda v: '{"sym":"id","value":%d}' % v.value,
    DataSym: lambda v: '{"sym":"data","value":"%s"}' % v.value.hex(),
}


def _per_node(entries: tuple, ref, base: tuple) -> str:
    """One reference if every node's entry is the same, else a [node index, reference] pair per node whose entry
    differs from its entry in `base`, the entries of two ticks before."""
    first, last = entries[0], entries[-1]
    # A tuple count tests each entry for identity, then equality; the last entry is tested first.
    if (last is first or last == first) and entries.count(first) == len(entries):
        return "%d" % ref(first)
    return "[%s]" % ",".join(["[%d,%d]" % (i, ref(entries[i]))
                              for i in compress(range(len(entries)), map(ne, entries, base))])


def _snapshot_to_obj(snap: dict, base: dict, ref) -> str:
    """The buffers of one tick's snapshot, which differ from the tick before's, written against `base`'s, as text."""
    return '{"buffers":%s}' % _per_node(snap["buffers"], ref, base["buffers"])


def _line(parts: list) -> str:
    """A tick line of its parts, each starting with its quoted key: a quote sorts first, so the parts sort by key."""
    return "{%s}" % ",".join(sorted(parts))


def _value_table(cells) -> tuple:
    """A dump's value table, opened with `_OPENING`'s entries and then `cells`, the header's message cells in injection
    order, and a value's table number, its text added if new."""
    refs, numbers, table = {}, {}, []  # refs: id() -> table number of each value met; numbers: text -> table number

    def number(text: str) -> int:
        k = numbers.setdefault(text, len(numbers))
        if k == len(table):
            table.append(text)
        return k

    def ref(value) -> int:
        k = refs.get(id(value))
        if k is None:
            # A buffer state refers to its offer cell and to each queued message's cell; such a cell may be no object
            # of the trace, and a tuple made here could reuse an id, so its text numbers it.
            text = (_FRAGMENTS[type(value)](value) if type(value) is not BufferState else '{"b":%d,"buf":[%s]}' % (
                number(_FRAGMENTS[tuple](value.b)),
                ",".join(["%d" % number("[%s]" % _FRAGMENTS[AMessage](m)) for m in value.buf])))
            k = refs[id(value)] = number(text)
        return k

    for value in (*_OPENING, *cells):
        ref(value)
    return table, ref


def _require_arrivals(trace: Trace) -> None:
    """Raise a ValueError naming the first node and tick where the trace's `a` stream is not its scenario's
    injections, which are all that a file keeps of it."""
    rows = arrivals(trace.scenario)
    expected = tuple(zip(*rows)) if rows else ((),) * trace.node_count
    given = tuple(stream.cells for stream in trace.streams["a"])
    if given == expected:
        return
    for i, (cells, injected) in enumerate(zip_longest(given, expected, fillvalue=())):
        for t, (cell, arrival) in enumerate(zip_longest(cells, injected)):
            if cell != arrival:
                shown = [render_cell(c) if c is not None else "no cell" for c in (cell, arrival)]
                raise ValueError(f"node {i + 1}, tick {t}: a is {shown[0]}, but the scenario injects {shown[1]}; a "
                                 f"trace file keeps each node's a as its scenario's injections only")


def trace_to_jsonl(trace: Trace) -> str:
    _require_arrivals(trace)
    header = {"format": TRACE_FORMAT, "version": TRACE_VERSION, "scenario": scenario_to_dict(trace.scenario)}
    a = trace.streams["a"]
    table, ref = _value_table([a[inj.node - 1].cells[inj.tick] for inj in trace.scenario.injections])
    idle = _idle(trace.node_count)
    pairs = lambda values, u: _per_node(values[u], ref, values[u - 2])
    # key -> (value per tick, writer of the value at an index); a family's value is its column of per-node cells
    series = {family: (zip(*(stream.cells for stream in trace.streams[family])), pairs) for family in _FAMILIES}
    series.update(rows=(trace.rows, pairs), wr=(trace.wire.cells, lambda values, u: "%d" % ref(values[u])),
                  state=(trace.states, lambda snaps, u: _snapshot_to_obj(snaps[u], snaps[u - 2], ref)))
    # The line's fields as (quoted key and colon, values from tick -2 on, so that tick t's is at index t+2, writer), in
    # key order, so that the table numbers its entries in order of first appearance.
    fields = [('"%s":' % key, [idle[key]] * 2 + list(values), write) for key, (values, write) in sorted(series.items())]
    # A tick line is kept as its parts until the next line starts: a tick that repeats it adds "through" to its "t"
    # part, which sorts where "through" does.
    lines, start = [_dumps(header)], 0
    for t in range(len(trace.states)):
        u, first = t + 2, len(table)
        parts = [key + write(values, u) for key, values, write in fields if values[u] != values[u - 1]]
        if t and not parts:  # the tick repeats the previous one, so the latest line covers it
            lines[-1][-1] = '"t":%d,"through":%d' % (start, t)
            continue
        if t:
            lines[-1] = _line(lines[-1])
        if len(table) > first:
            parts.append('"new":[%s]' % ",".join(table[first:]))
        parts.append('"t":%d' % t)
        lines.append(parts)
        start = t
    if trace.states:
        lines[-1] = _line(lines[-1])
    return "\n".join(lines) + "\n"


def _symbol(obj):
    kind, value = _read(obj, _SYMBOL)
    if kind not in ("id", "data"):
        raise ValueError(f"unknown symbol kind {kind!r}")
    return IdSym(_checked("value", value, _INT)) if kind == "id" else DataSym(_checked("value", value, _HEX))


def _cell(read):
    """The reader of a cell, a list of values that `read` reads."""
    def cell(value) -> tuple:
        if type(value) is not list:
            raise ValueError(f"cell must be a list, got {_dumps(value)}")
        return tuple(map(read, value))
    return cell


def _requests(cell) -> tuple:
    if not {REQ}.issuperset(_checked("request cell", cell, _INTS)):
        raise ValueError(f"request cell may hold only the request token {REQ}, got {_dumps(cell)}")
    return tuple(cell)


def _row(value) -> int:
    if not 1 <= _checked("row", value, _INT) <= 5:  # the rows of the bus-access table
        raise ValueError(f"row must be 1 to 5, got {value}")
    return value


def _buffer_state(obj, cell) -> BufferState:
    """A buffer state entry, whose references `cell` reads as message cells: the offer slot's cell and the cell of each
    queued message alone."""
    offer, refs = _read(obj, _BUFFER)
    offer, queued = cell(offer), []
    for k in refs:
        alone = cell(k)
        if len(alone) != 1:
            raise ValueError(f"buf: expected a reference to a cell of one message, got {k}, a cell of {len(alone)}")
        queued += alone
    return BufferState(tuple(queued), offer)


_amessages = _cell(lambda obj: AMessage(*_read(obj, _MESSAGE)))
# How a JSON value is read as a cell of each family.
_CELLS = {**dict.fromkeys(("as", "ar"), _amessages), **dict.fromkeys(("ms", "mr", "ws", "wr"), _cell(_symbol)),
          "r": _requests}
_OPENING_ENTRIES = [json.loads(text) for text in _value_table(())[0]]  # the opening entries as a load reads them


def _table_readers(n: int, table: list, cells: dict):
    """A value-table load's readers of a reference and of a family's references; each entry is read once per kind, and
    the entries numbered in `cells` are read as message cells as those cells."""
    built = defaultdict(dict, {_amessages: cells})  # per reader: table number -> the entry as read
    copies = defaultdict(dict)  # per reader: table number -> n copies of the entry as read

    def entry(k, read):
        value = built[read].get(k) if type(k) is int else None
        if value is None:
            if type(k) is not int or not 0 <= k < len(table):
                raise ValueError(f"expected a reference to one of the value table's {len(table)} entries, "
                                 f"got {_dumps(k)}")
            value = built[read][k] = read(table[k]) if read is not _buffer_state else read(table[k], earlier(k))
        return value

    def earlier(end):
        """The reader of the references inside entry `end`, as message cells; each names an earlier entry."""
        def cell(k):
            if type(k) is not int or not 0 <= k < end:
                raise ValueError(f"expected a reference to an entry before entry {end}, got {_dumps(k)}")
            return entry(k, _amessages)
        return cell

    def entries(value, read, old: tuple) -> tuple:
        """One reference's entry at every node, or `old` with the entry of each [node index, reference] pair replaced;
        the indices rise strictly."""
        if type(value) is int:
            same = copies[read].get(value)
            if same is None:
                same = copies[read][value] = (entry(value, read),) * n
            return same
        new, last = list(old), -1
        # The pairs are tested in the loop, and any other value is read as one malformed pair.
        for pair in value if type(value) is list else [value]:
            if type(pair) is not list or len(pair) != 2:
                raise ValueError(f"expected a reference or a list of [node index, reference] pairs, "
                                 f"got {_dumps(value)}")
            i, k = pair
            if type(i) is not int or not last < i < n:
                raise ValueError(f"node index {_dumps(i)} out of order or out of range")
            new[i], last = entry(k, read), i
        return tuple(new)
    return entry, entries


def _snapshot_from_obj(obj, prev: dict, base: dict, entries) -> dict:
    """The snapshot that one tick line's state gives: its buffers read against `base`'s, else `prev`."""
    if type(obj) is not dict or not obj.keys() <= {"buffers"}:  # the buffers are optional
        raise _unfit(obj, {"buffers": _or(_ANY, None)}, "")
    return {"buffers": entries(obj["buffers"], _buffer_state, base["buffers"])} if obj else prev


def _json_line(number: int, line: str, tick: int | None = None):
    """The JSON value of one line of a trace file, the header or tick `tick`; a decode error names the line and what
    it holds."""
    try:
        value, end = _decode(line)
    except (ValueError, RecursionError):
        end = None
    if end == len(line):
        return value
    # Blanks around the value, extra data or no JSON at all: json.loads reads the blanks and words the errors.
    try:
        return json.loads(line, object_pairs_hook=_unrepeated)
    except (ValueError, RecursionError) as exc:  # bad syntax, an integer of too many digits, or nesting too deep
        raise ValueError(f"line {number} ({'header' if tick is None else f'tick {tick}'}): {exc}") from exc


def trace_from_jsonl(text: str) -> Trace:
    lines = [(number, line) for number, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if not lines:
        raise ValueError("empty trace file")
    header = _json_line(*lines[0])
    if not isinstance(header, dict):
        raise ValueError(f"header must be a JSON object, got a {type(header).__name__}")
    if type(header) is _Repeated:
        raise ValueError(f"header field {header.repeated!r}: repeated key {header.repeated!r}")
    if header.get("format") != TRACE_FORMAT:
        raise ValueError(f"header field 'format': expected {_dumps(TRACE_FORMAT)}, got {_dumps(header.get('format'))}")
    version = header.get("version")
    if type(version) is not int or version != TRACE_VERSION:
        raise ValueError(f"header field 'version': expected {TRACE_VERSION}, got {_dumps(version)}")
    if header.keys() != _HEADER:
        key, reason = _misfit(header, _HEADER, _HEADER)
        raise ValueError(f"header field {key!r}: {reason} {key!r}")
    try:
        scenario = scenario_from_dict(header["scenario"])
        require_valid(scenario)
    except ScenarioError as exc:
        raise ValueError(f"header field 'scenario': {exc}") from exc
    n, horizon = scenario.node_count, scenario.horizon
    # Each node's a, and the table entries after the opening: the header's message cells, each distinct one once (a
    # valid scenario's equal cells have equal texts) and read as the first cell that holds it.
    rows = arrivals(scenario)
    cells = dict.fromkeys(rows[inj.tick][inj.node - 1] for inj in scenario.injections)
    table = _OPENING_ENTRIES + [[{"data": cell[0].data.hex(), "id": cell[0].id}] for cell in cells]
    entry, entries = _table_readers(n, table, dict(enumerate(cells, len(_OPENING_ENTRIES))))
    # A record's fields after a, the tick's arrival row, and before its state, in its order, each with its reader and
    # whether it has an entry per node.
    fields = [(family, _CELLS[family], True) for family in _FAMILIES]
    fields += [("wr", _CELLS["wr"], False), ("rows", _row, True)]
    # Two idle ticks, whose a no tick reads, come before tick 0; a line's pairs apply to the entries of two ticks before.
    records = [[None, *_idle(n).values()]] * 2
    for number, line in lines[1:]:
        t = len(records) - 2  # the tick where the line starts
        tick = _json_line(number, line, t)
        if t == horizon:
            raise ValueError(f"tick {t}: field 't': expected the file to end at the horizon, tick {horizon}")
        if type(tick) is _Repeated:
            raise ValueError(f"tick {t}: field {tick.repeated!r}: repeated key {tick.repeated!r}")
        if type(tick) is not dict:
            raise ValueError(f"tick {t}: expected an object, got {_dumps(tick)}")
        field = "t"
        try:
            given = tick.get("t")
            if type(given) is not int or given != t:
                raise ValueError(f"expected {t}, found {_dumps(given)}" if "t" in tick else "missing key 't'")
            through = t  # the last tick the line covers: each later one repeats tick t
            if "through" in tick:
                field, through = "through", tick["through"]
                if type(through) is not int or not t < through < horizon:
                    raise ValueError(f"expected an integer above {t} and below the horizon, {horizon}, "
                                     f"got {_dumps(through)}")
            if not tick.keys() <= _LINE:
                field, reason = _misfit(tick, _LINE, ())
                raise ValueError(f"{reason} {field!r}")
            if "new" in tick:
                field = "new"
                if type(tick["new"]) is not list:
                    raise ValueError(f"expected a list, got {_dumps(tick['new'])}")
                table += tick["new"]
            record = [rows[t]]
            for k, (field, read, per_node) in enumerate(fields, start=1):
                if field not in tick:
                    record.append(records[-1][k])
                else:
                    record.append(entries(tick[field], read, records[-2][k]) if per_node else entry(tick[field], read))
            field, snap = "state", records[-1][-1]
            if "state" in tick:
                snap = _snapshot_from_obj(tick["state"], snap, records[-2][-1], entries)
            record.append(snap)
            # Each tick that the line covers repeats tick t but for its arrivals; most share tick t's row of none.
            records += [record if rows[u] is record[0] else [rows[u], *record[1:]] for u in range(t, through + 1)]
        except (ValueError, RecursionError) as exc:  # or a value nested too deeply for its error to show it
            raise ValueError(f"tick {t}: field {field!r}: {exc}") from exc
    if len(records) - 2 != horizon:
        raise ValueError(f"expected {horizon} ticks, found {len(records) - 2}")
    return assemble_trace(scenario, records[2:])


# -- reports ------------------------------------------------------------------

def report_to_dict(report: Report) -> dict:
    """The report as JSON-ready values: each entry's findings with every field of a Violation."""
    return {"ok": report.ok(), "predicates": asdict(report)["entries"]}


def report_to_json(report: Report) -> str:
    return _dumps(report_to_dict(report)) + "\n"
