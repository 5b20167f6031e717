"""Scenario and trace file formats.

Scenarios are single JSON documents; traces are line-delimited JSON with one
header line followed by one line per tick. All dumps are canonical (sorted
keys, fixed separators, integers and hex strings only), so a given run always
serializes to identical bytes.

A tick line writes each distinct value once. Its "new" list holds the JSON of
each cell, row tuple and component state first seen at that tick. The entries
of all lines so far are the value table, numbered in order of first appearance,
and every other field is an integer reference into it. A per-node field, a
stream family or a component family of the state, is one reference if every
node's entry is the same, else a [node index, reference] pair per node whose
entry differs from its own entry two ticks before: a frame takes two ticks, so
a node that loses arbitration repeats its cells and states two ticks later.
Before tick 0 every cell is empty and no state is known. Values count as the
same when equal, so the bytes depend on the values alone.

Version 5 lines give "t" and only the fields whose value differs from the
previous tick's (in "state", only the families that changed), and "new" only
when it has entries, so a quiet tick is {"t":N}; tick 0 gives every field.
Version 4 is the same except that its pairs name the non-empty cells of a
stream family and the nodes whose state changed since the previous tick. A
version 3 line gives every field, with "new":[] and "state":{} when nothing is
new or changed, and is otherwise version 4. The loader also reads versions 1
and 2, which wrote each value in place, as [node index, value] pairs (version
2) or every node's entry (version 1, read as enumerate(list)), plus a wire
state that must latch the previous ws row.

Within one dump each value becomes text once and is then found by its id(),
which is exact: the values are immutable and the trace keeps them alive for the
call, so no id is reused. A load builds each table entry once for each kind it
is read as, and a field that a line leaves out keeps the previous tick's
object, so a loaded trace shares its values as a run does.
"""
from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import asdict
from itertools import chain, compress
from operator import ne
from string import hexdigits

from .checkers import Report
from .components import BufferState, DecoderState, EncoderState, LogicalLayerState
from .core import (
    FRAME_LATENCY,
    PER_NODE_FAMILIES,
    AMessage,
    DataSym,
    IdSym,
    Injection,
    RunOptions,
    Scenario,
    ScenarioError,
    Trace,
    assemble_trace,
    require_valid,
)
from .primitives import collect_elements

TRACE_FORMAT = "canstream-trace"
TRACE_VERSION = 5


_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


# -- scenarios ---------------------------------------------------------------

# Options that scenario files once let vary, as (key, rule, only value): every
# other value broke the run. They are still read, for older files, but no longer written.
_FIXED_OPTIONS = (("reqDelay", "req-delay", 1), ("mtLatency", "mt-latency", FRAME_LATENCY))


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "nodeCount": s.node_count,
        "horizon": s.horizon,
        "injections": [
            {"node": inj.node, "tick": inj.tick, "id": inj.message.id, "data": inj.message.data.hex()}
            for inj in s.injections
        ],
        "options": {
            "bootstrapRequestTick": s.options.bootstrap_request_tick,
            "fidelityMode": s.options.fidelity_row2,
        },
    }


# JSON value kinds a scenario or trace field may take, as (test, description).
# A bool is not an integer here, and nothing is coerced.
_INT = (lambda v: type(v) is int, "an integer")
_INTS = (lambda v: type(v) is list and {int}.issuperset(map(type, v)), "a list of integers")
_INT_OR_NULL = (lambda v: v is None or type(v) is int, "an integer or null")
_BOOL = (lambda v: type(v) is bool, "true or false")
_HEX = (lambda v: isinstance(v, str) and len(v) % 2 == 0 and not v.strip(hexdigits), "a hex string")
_OBJECT = (lambda v: isinstance(v, dict), "an object")


def _checked(name: str, value, kind: tuple):
    """value if it is of the given kind, else a ScenarioError naming the field."""
    accepts, expected = kind
    if not accepts(value):
        raise ScenarioError(f"{name} must be {expected}, got {json.dumps(value)}")
    return value


def _hex(name: str, value) -> bytes:
    """The bytes of a hex-string payload field; any other value raises a ScenarioError naming the field."""
    return bytes.fromhex(_checked(name, value, _HEX))


def scenario_from_dict(obj: dict) -> Scenario:
    """The scenario of a parsed JSON document; a field of the wrong kind raises ScenarioError."""
    _checked("scenario", obj, _OBJECT)
    opts = _checked("options", obj.get("options", {}), _OBJECT)
    for key, rule, value in _FIXED_OPTIONS:
        given = opts.get(key, value)
        if type(given) is not int or given != value:
            raise ScenarioError(f"{rule}: {key} is fixed at {value}, got {json.dumps(given)}")
    injections = []
    for k, inj in enumerate(obj.get("injections", ())):
        where = f"injections[{k}]"
        node, tick, ident = (_checked(f"{where}.{key}", inj[key], _INT) for key in ("node", "tick", "id"))
        data = _hex(f"{where}.data", inj["data"])
        injections.append(Injection(node, tick, AMessage(ident, data)))
    boot = _checked("bootstrapRequestTick", opts.get("bootstrapRequestTick", 0), _INT_OR_NULL)
    fidelity = _checked("fidelityMode", opts.get("fidelityMode", False), _BOOL)
    return Scenario(
        node_count=_checked("nodeCount", obj["nodeCount"], _INT),
        horizon=_checked("horizon", obj["horizon"], _INT),
        injections=tuple(injections),
        options=RunOptions(bootstrap_request_tick=boot, fidelity_row2=fidelity),
    )


def scenario_to_json(s: Scenario) -> str:
    return _dumps(scenario_to_dict(s)) + "\n"


def scenario_from_json(text: str) -> Scenario:
    return scenario_from_dict(json.loads(text))


# -- traces -------------------------------------------------------------------

# The canonical JSON text of a value, by its exact type; parts come from the memo.
_FRAGMENTS = {
    tuple: lambda v, memo: "[%s]" % ",".join(_texts(v, memo)),
    int: lambda v, memo: "%d" % v,
    AMessage: lambda v, memo: '{"data":"%s","id":%d}' % (v.data.hex(), v.id),
    IdSym: lambda v, memo: '{"sym":"id","value":%d}' % v.value,
    DataSym: lambda v, memo: '{"sym":"data","value":"%s"}' % v.value.hex(),
    BufferState: lambda v, memo: '{"b":%s,"buf":%s}' % tuple(_texts((v.b, v.buf), memo)),
    DecoderState: lambda v, memo: '{"d":%s,"lastId":%s}' % (_dumps(v.d), _dumps(v.last_id)),
    EncoderState: lambda v, memo: '{"e":%s,"pending":%s}' % (
        _dumps(v.e), _dumps(None if v.pending is None else v.pending.hex())),
    LogicalLayerState: lambda v, memo: '{"lid":%d}' % v.lid,
}

# The per-node component families of a state snapshot, in key order.
_COMPONENTS = ("buffers", "decoders", "encoders", "llayers")


def _texts(values, memo: dict[int, str]) -> list[str]:
    """Each value's canonical JSON text, made once per dump and then found by id."""
    get, made = memo.get, memo.setdefault
    return [get(id(v)) or made(id(v), _FRAGMENTS[type(v)](v, memo)) for v in values]


def _per_node(entries: tuple, ref, base: tuple) -> str:
    """One reference if every node's entry is the same, else a [node index, reference] pair per node whose entry
    differs from its entry in `base`, the entries of two ticks before."""
    first, last = entries[0], entries[-1]
    # A tuple count tests each entry for identity, then equality; the last entry is tested first.
    if (last is first or last == first) and entries.count(first) == len(entries):
        return "%d" % ref(first)
    return "[%s]" % ",".join(["[%d,%d]" % (i, ref(entries[i]))
                              for i in compress(range(len(entries)), map(ne, entries, base))])


def _snapshot_to_obj(prev: dict, snap: dict, base: dict, ref) -> str:
    """The component families of one tick that differ from `prev`, each written against `base`, as text."""
    parts = []
    for key in _COMPONENTS:
        if prev[key] != snap[key]:  # a tuple compare tests each pair of entries for identity, then equality
            parts.append('"%s":%s' % (key, _per_node(snap[key], ref, base[key])))
    return "{%s}" % ",".join(parts)


def trace_to_jsonl(trace: Trace) -> str:
    header = {"format": TRACE_FORMAT, "version": TRACE_VERSION, "nodeCount": trace.node_count,
              "horizon": trace.horizon, "scenario": scenario_to_dict(trace.scenario)}
    # memo: id() -> text of each value met; refs: id() -> its table number; numbers: text -> table number
    memo, refs, numbers, table = {}, {}, {}, []

    def ref(value) -> int:
        k = refs.get(id(value))
        if k is None:
            text = _texts((value,), memo)[0]
            k = refs[id(value)] = numbers.setdefault(text, len(numbers))
            if k == len(table):
                table.append(text)
        return k

    # Before tick 0 every cell is empty and no state is known, so tick 0 gives every state.
    blank, unknown = ((),) * trace.node_count, dict.fromkeys(_COMPONENTS, (None,) * trace.node_count)
    prevs, bases = (unknown,) + trace.states, (unknown, unknown) + trace.states
    cells = lambda column, t: _per_node(column[t], ref, column[t - 2] if t > 1 else blank)
    one = lambda values, t: "%d" % ref(values[t])
    # key -> (value per tick, writer); a family's value is its column of per-node cells
    series = {family: (list(zip(*(stream.cells for stream in trace.streams[family]))), cells)
              for family in PER_NODE_FAMILIES}
    series.update(rows=(trace.rows, one), wr=(trace.wire.cells, one),
                  state=(trace.states, lambda snaps, t: _snapshot_to_obj(prevs[t], snaps[t], bases[t], ref)))
    # The line's fields as (quoted key and colon, value per tick, writer), in key order, so that the table numbers
    # its entries in order of first appearance. A line gives each field whose value differs from the previous
    # tick's (at tick 0, all of them), "new" if it has entries, and "t".
    fields = [('"%s":' % key, *series[key]) for key in sorted(series)]
    changes = [[] for _ in trace.states]
    for field in fields:
        for t in compress(range(len(changes)), chain((True,), map(ne, field[1][1:], field[1]))):
            changes[t].append(field)
    lines = [_dumps(header)]
    for t, changed in enumerate(changes):
        first = len(table)
        parts = [key + write(values, t) for key, values, write in changed]
        if len(table) > first:
            parts.append('"new":[%s]' % ",".join(table[first:]))
        parts.append('"t":%d' % t)
        # Each part starts with its quoted key, and a quote sorts before any letter, so the parts sort by key.
        lines.append("{%s}" % ",".join(sorted(parts)))
    if trace.error is not None:
        lines.append(_dumps({"error": trace.error}))
    return "\n".join(lines) + "\n"


def _symbol(obj):
    kind, value = obj["sym"], obj["value"]
    if kind not in ("id", "data"):
        raise ValueError(f"unknown symbol kind {kind!r}")
    return IdSym(_checked("value", value, _INT)) if kind == "id" else DataSym(_hex("value", value))


def _amessages(cell) -> tuple:
    return tuple([AMessage(_checked("id", m["id"], _INT), _hex("data", m["data"])) for m in cell])


def _symbols(cell) -> tuple:
    return tuple(map(_symbol, cell))


# How a JSON value is read as each kind of value: a cell of each family, or one node's component state.
_CELLS = {**dict.fromkeys(("a", "as", "ar"), _amessages), **dict.fromkeys(("ms", "mr", "ws", "wr"), _symbols),
          "r": lambda cell: tuple(_checked("request cell", cell, _INTS))}
_STATES = {
    "buffers": lambda o: BufferState(_amessages(o["buf"]), _amessages(o["b"])),
    "decoders": lambda o: DecoderState(_checked("d", o["d"], _BOOL), _checked("lastId", o["lastId"], _INT_OR_NULL)),
    "encoders": lambda o: EncoderState(_checked("e", o["e"], _BOOL),
                                       None if o["pending"] is None else _hex("pending", o["pending"])),
    "llayers": lambda o: LogicalLayerState(_checked("lid", o["lid"], _INT)),
}


def _applied(old: tuple, pairs, read, listed: bool, shape: str = "a list of [node index, value] pairs") -> tuple:
    """`old` with each [node index, value] pair's entry replaced by its read value.

    Indices rise strictly within `old`. A line that lists every node's entry
    (`listed`, as version 1 does) reads as the pairs enumerate(list). Any
    other form raises an error that names `shape`, the form expected.
    """
    if listed and type(pairs) is not list:
        raise ValueError(f"expected a list of {len(old)} entries, got {_dumps(pairs)}")
    if listed and len(pairs) != len(old):
        raise ValueError(f"{len(pairs)} entries for {len(old)} nodes")
    if not listed and not (type(pairs) is list and all(type(pair) is list and len(pair) == 2 for pair in pairs)):
        raise ValueError(f"expected {shape}, got {_dumps(pairs)}")
    new, last = list(old), -1
    for i, value in enumerate(pairs) if listed else pairs:
        if type(i) is not int or not last < i < len(new):
            raise ValueError(f"node index {_dumps(i)} out of order or out of range")
        new[i], last = read(value), i
    return tuple(new)


def _table_readers(n: int, table: list):
    """A value-table load's readers of a reference and of a family's references; each entry is read once per kind."""
    built = defaultdict(dict)  # per reader: table number -> the entry as read
    rows = defaultdict(dict)  # per reader: table number -> n copies of the entry as read

    def entry(k, read):
        value = built[read].get(k) if type(k) is int else None
        if value is None:
            if type(k) is not int or not 0 <= k < len(table):
                raise ValueError(f"expected a reference to one of the value table's {len(table)} entries, "
                                 f"got {_dumps(k)}")
            value = built[read][k] = read(table[k])
        return value

    def entries(value, read, old: tuple) -> tuple:
        if type(value) is not int:
            return _applied(old, value, lambda k: entry(k, read), False,
                            "a reference or a list of [node index, reference] pairs")
        row = rows[read].get(value)
        if row is None:
            row = rows[read][value] = (entry(value, read),) * n
        return row
    return entry, entries


def _snapshot_from_obj(obj: dict, prev: dict, base: dict, entries) -> dict:
    """`prev` with each family one tick line gives read against that family in `base`; `prev` itself if it gives
    none."""
    if not isinstance(obj, dict):
        raise ValueError("not an object")
    if obj.keys().isdisjoint(_COMPONENTS):
        return prev
    return {key: entries(obj[key], _STATES[key], base[key]) if key in obj else prev[key] for key in _COMPONENTS}


def _latch(obj: dict, latch: tuple | None, offers: tuple) -> tuple:
    """A version 1 or 2 line's wire state as (latch, sources), or `latch` if the line gives none.

    `sources` must list one node of 1..n per latch symbol, highest first, and
    the state must be the latch of `offers`, the previous tick's ws row.
    """
    if "wire" in obj:
        symbols, sources = _symbols(obj["wire"]["latch"]), _checked("sources", obj["wire"]["sources"], _INTS)
        bounds = (len(offers) + 1, *sources, 0)
        if len(sources) != len(symbols) or any(a <= b for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"sources must list one node of 1..{len(offers)} per latch symbol, highest first, "
                             f"got {_dumps(sources)} for {len(symbols)} symbols")
        latch = symbols, tuple(sources)
    if latch is None:
        raise ValueError("tick 0 must give every component state")
    expected = collect_elements(len(offers), offers), tuple(i for i in range(len(offers), 0, -1) if offers[i - 1])
    if latch != expected:
        text = lambda pair: '{"latch":[%s],"sources":%s}' % (",".join(_texts(pair[0], {})), _dumps(pair[1]))
        raise ValueError(f"wire must be the latch of the previous tick's ws row, {text(expected)}, got {text(latch)}")
    return latch


def _error_record(line, ticks: int, horizon: int) -> dict:
    """The error record of a failed run's last line, which follows its `ticks` tick lines.

    A run fails at a tick within its horizon and records the ticks before it,
    so the record's tick is `ticks`, below the scenario's `horizon`.
    """
    error = line.get("error") if isinstance(line, dict) and line.keys() == {"error"} else None
    if not (isinstance(error, dict) and error.keys() == {"message", "tick"} and isinstance(error["message"], str)
            and type(error["tick"]) is int and error["tick"] == ticks and ticks < horizon):
        raise ValueError(f'error line: expected {{"error":{{"message":<a string>,"tick":{ticks}}}}}, the number '
                         f"of tick lines, which a failed run keeps below the scenario's horizon of {horizon}; "
                         f"got {_dumps(line)}")
    return error


def _json_line(number: int, line: str, holds: str):
    """The JSON value of one line of a trace file; a decode error names the line and what it holds."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {number} ({holds}): {exc}") from exc


def trace_from_jsonl(text: str) -> Trace:
    lines = [(number, line) for number, line in enumerate(text.splitlines(), start=1) if line.strip()]
    if not lines:
        raise ValueError("empty trace file")
    header = _json_line(*lines[0], "header")
    if not isinstance(header, dict):
        raise ValueError(f"header must be a JSON object, got a {type(header).__name__}")
    if header.get("format") != TRACE_FORMAT:
        raise ValueError(f"not a {TRACE_FORMAT} file")
    version = header.get("version")
    if type(version) is not int or not 1 <= version <= TRACE_VERSION:
        raise ValueError(f"header field 'version': expected {', '.join(map(str, range(1, TRACE_VERSION)))} or "
                         f"{TRACE_VERSION}, got {_dumps(version)}")
    try:
        scenario = scenario_from_dict(header["scenario"])
        require_valid(scenario)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"header field 'scenario': {exc}") from exc
    n, horizon = header.get("nodeCount"), header.get("horizon")
    if type(n) is not int or n != scenario.node_count:
        raise ValueError(f"header field 'nodeCount': expected the scenario's {scenario.node_count}, got {_dumps(n)}")
    ticks = [_json_line(number, line, f"tick {t}") for t, (number, line) in enumerate(lines[1:])]
    # A last line that is not a tick object is the error line of a failed run.
    error_line = ticks.pop() if ticks and not (isinstance(ticks[-1], dict) and "error" not in ticks[-1]) else None
    failed = error_line is not None
    # A run that failed stops early; one that did not runs the scenario's whole horizon.
    if type(horizon) is not int or horizon > scenario.horizon or (not failed and horizon < scenario.horizon):
        bound = "at most" if failed else "expected"
        raise ValueError(f"header field 'horizon': {bound} the scenario's {scenario.horizon}, got {_dumps(horizon)}")
    if len(ticks) != horizon:
        raise ValueError(f"expected {horizon} tick lines, found {len(ticks)}")
    error = _error_record(error_line, horizon, scenario.horizon) if failed else None

    def read_rows(value) -> tuple:
        if len(value) != n:
            raise ValueError(f"{len(value)} entries for {n} nodes")
        return tuple(_checked("rows", value, _INTS))

    table: list = []  # the value table of versions 3 to 5
    entry, entries = _table_readers(n, table) if version >= 3 else (
        lambda value, read: read(value), lambda value, read, old: _applied(old, value, read, version == 1))
    # A record's fields, in its order, each with its reader and whether it has an entry per node.
    fields = [(family, _CELLS[family], True) for family in PER_NODE_FAMILIES]
    fields += [("wr", _CELLS["wr"], False), ("rows", read_rows, False)]
    # Two ticks of empty cells and unknown states come before tick 0.
    blank, unknown = [((),) * n] * len(fields), dict.fromkeys(_COMPONENTS, (None,) * n)
    records, states, latch = [blank] * 2, [unknown] * 2, None
    for t, tick in enumerate(ticks):
        field = "t"
        try:
            if type(tick["t"]) is not int or tick["t"] != t:
                raise ValueError(f"expected {t}, found {_dumps(tick['t'])}")
            # After tick 0, a line of version 4 or 5 leaves out each field whose value did not change.
            kept = records[-1] if version >= 4 and t else None
            if kept is not None and len(tick) == 1:  # a quiet tick, {"t":N}, repeats the previous one
                records.append(kept)
                states.append(states[-1])
                continue
            # Version 5 lists the entries that differ from two ticks before; earlier versions list the non-empty
            # cells and the states that changed since the previous tick.
            old_cells, old_states = (records[-2], states[-2]) if version == 5 else (blank, states[-1])
            if version >= 3 and (kept is None or "new" in tick):
                field = "new"
                if type(tick["new"]) is not list:
                    raise ValueError(f"expected a list, got {_dumps(tick['new'])}")
                table += tick["new"]
            record = []
            for k, (field, read, per_node) in enumerate(fields):
                if kept is not None and field not in tick:
                    record.append(kept[k])
                else:
                    record.append(entries(tick[field], read, old_cells[k]) if per_node else entry(tick[field], read))
            field, snap = "state", states[-1]
            if kept is None or "state" in tick:
                snap = _snapshot_from_obj(tick["state"], snap, old_states, entries)
            if t < 2 and any(None in snap[key] for key in _COMPONENTS):
                raise ValueError("tick 0 must give every component state" if t == 0 else
                                 "tick 1 must give every node's state in each family it gives")
            if version < 3:  # the wire state must latch the ws row, the 7th cell of the previous record
                latch = _latch(tick["state"], latch, records[-1][6])
            records.append(record)
            states.append(snap)
        except (KeyError, TypeError, ValueError) as exc:
            reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"tick {t}: field {field!r}: {reason}") from exc
    return assemble_trace(scenario, records[2:], states[2:], error)


# -- reports ------------------------------------------------------------------

def report_to_dict(report: Report) -> dict:
    """The report as JSON-ready values: each entry's findings with every field of a Violation."""
    return {"ok": report.ok(), "predicates": asdict(report)["entries"]}


def report_to_json(report: Report) -> str:
    return _dumps(report_to_dict(report)) + "\n"
