"""Scenario and trace file formats.

Scenarios are single JSON documents; traces are line-delimited JSON with one
header line followed by one line per tick. All dumps are canonical (sorted
keys, fixed separators, integers and hex strings only), so a given run always
serializes to identical bytes.

A version 2 tick line holds only what is non-empty or changed. Each stream
family lists a [node index, cell] pair per non-empty cell. The state lists, per
component family, a [node index, state] pair per node whose state differs from
the previous tick's (tick 0 lists them all), and the wire state only when it
changed. A state counts as changed unless it is the same object as before or
equal to it, so the bytes depend on the trace's values alone. Version 1 lines
list every node's entry; the loader reads such a list as the pairs
enumerate(list), on the same path.

Tick lines are canonical JSON text written by hand. Within one dump each cell,
message and state becomes text once and is then found by its id(), which is
exact: the values are immutable and the trace keeps them all alive for the
call, so no id is reused. A load builds each distinct message and symbol once,
and a tick whose state did not change shares the previous tick's snapshot.
"""
from __future__ import annotations

import json
from dataclasses import asdict
from string import hexdigits
from typing import Any

from .checkers import Report
from .components import BufferState, DecoderState, EncoderState, LogicalLayerState, WireState
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

TRACE_FORMAT = "canstream-trace"
TRACE_VERSION = 2


def _dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


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
_HEX = (lambda v: isinstance(v, str) and len(v) % 2 == 0 and all(c in hexdigits for c in v), "a hex string")
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
    WireState: lambda v, memo: '{"latch":%s,"sources":%s}' % tuple(_texts((v.latch, v.latch_sources), memo)),
}

# The per-node component families of a state snapshot, in key order; "wire" is one state.
_COMPONENTS = ("buffers", "decoders", "encoders", "llayers")


def _texts(values, memo: dict[int, str]) -> list[str]:
    """Each value's canonical JSON text, made once per dump and then found by id."""
    get, made = memo.get, memo.setdefault
    return [get(id(v)) or made(id(v), _FRAGMENTS[type(v)](v, memo)) for v in values]


def _sparse(per_node: tuple, horizon: int, memo: dict[int, str]) -> list[str]:
    """Per tick, one family's [node index, cell] pair for each non-empty cell, as JSON text."""
    ticks: list[list[str]] = [[] for _ in range(horizon)]
    for i, stream in enumerate(per_node):
        for t, cell in enumerate(stream.cells):
            if cell:
                ticks[t].append("[%d,%s]" % (i, _texts((cell,), memo)[0]))
    return ["[%s]" % ",".join(pairs) for pairs in ticks]


def _unset(n: int) -> dict:
    """The snapshot before tick 0: every state unknown, so tick 0 gives them all."""
    return {**dict.fromkeys(_COMPONENTS, (None,) * n), "wire": None}


def _snapshot_to_obj(prev: dict, snap: dict, memo: dict[int, str]) -> str:
    """The component states of one tick that differ from `prev`, as canonical JSON text.

    Each family lists a [node index, state] pair per node whose state changed
    and is left out if none did; wire is written only when it changed. A state
    counts as changed unless it is the same object as before or equal to it, so
    the text depends on the values alone.
    """
    parts = []
    for key in _COMPONENTS:
        old, new = prev[key], snap[key]
        if old != new:  # a tuple compare tests each pair of entries for identity, then equality
            changed = [i for i, (o, s) in enumerate(zip(old, new)) if not (o is s or o == s)]
            texts = _texts([new[i] for i in changed], memo)
            parts.append('"%s":[%s]' % (key, ",".join(map("[%d,%s]".__mod__, zip(changed, texts)))))
    old, new = prev["wire"], snap["wire"]
    if not (old is new or old == new):
        parts.append('"wire":%s' % _texts((new,), memo)[0])
    return "{%s}" % ",".join(parts)


def trace_to_jsonl(trace: Trace) -> str:
    header = {"format": TRACE_FORMAT, "version": TRACE_VERSION, "nodeCount": trace.node_count,
              "horizon": trace.horizon, "scenario": scenario_to_dict(trace.scenario)}
    memo: dict[int, str] = {}
    fields = {family: _sparse(per_node, trace.horizon, memo) for family, per_node in trace.streams.items()}
    prevs = (_unset(trace.node_count),) + trace.states
    states = ["{}" if snap == prev else _snapshot_to_obj(prev, snap, memo) for prev, snap in zip(prevs, trace.states)]
    fields.update(rows=_texts(trace.rows, memo), state=states, t=range(trace.horizon),
                  wr=_texts(trace.wire.cells, memo))
    keys = sorted(fields)
    line = "{%s}" % ",".join('"%s":%%s' % key for key in keys)
    lines = [_dumps(header), *(line % values for values in zip(*[fields[key] for key in keys]))]
    if trace.error is not None:
        lines.append(_dumps({"error": trace.error}))
    return "\n".join(lines) + "\n"


# A key holding a list or an object cannot be a memo key; such a value is made
# without the memo, so that `make` rejects it and names its field.

def _memo_reader(key, make):
    """A reader for one load: JSON list -> tuple, making each distinct key's value once."""
    memo: dict = {}
    get, made = memo.get, memo.setdefault

    def read(objs):
        try:
            return () if objs == [] else tuple([get(k) or made(k, make(k)) for k in map(key, objs)])
        except TypeError:
            return tuple(map(make, map(key, objs)))
    return read


def _memo_state(key, make):
    """A reader for one load: JSON object -> component state, making each distinct key's state once."""
    memo: dict = {}
    get, made = memo.get, memo.setdefault

    def read(obj):
        k = key(obj)
        try:
            return get(k) or made(k, make(k))
        except TypeError:
            return make(k)
    return read


def _symbol(key: tuple):
    kind, value, _ = key
    if kind not in ("id", "data"):
        raise ValueError(f"unknown symbol kind {kind!r}")
    return IdSym(_checked("value", value, _INT)) if kind == "id" else DataSym(_hex("value", value))


def _readers(n: int) -> dict:
    """Fresh readers for one load of an n-node trace, by field name: a cell, or one node's component state."""
    # A key holds the type of its number or flag too: 1, 1.0 and true are one dict key.
    amessages = _memo_reader(lambda o: (o["id"], o["data"], type(o["id"])),
                             lambda k: AMessage(_checked("id", k[0], _INT), _hex("data", k[1])))
    symbols = _memo_reader(lambda o: (o["sym"], o["value"], type(o["value"])), _symbol)
    return {
        **dict.fromkeys(("a", "as", "ar"), amessages),
        **dict.fromkeys(("ms", "mr", "ws", "wr"), symbols),
        "r": lambda cell: tuple(_checked("request cell", cell, _INTS)),
        "buffers": lambda obj: BufferState(amessages(obj["buf"]), amessages(obj["b"])),
        "decoders": _memo_state(
            lambda o: (o["d"], type(o["d"]), o["lastId"], type(o["lastId"])),
            lambda k: DecoderState(_checked("d", k[0], _BOOL), _checked("lastId", k[2], _INT_OR_NULL))),
        "encoders": _memo_state(
            lambda o: (o["e"], type(o["e"]), o["pending"]),
            lambda k: EncoderState(_checked("e", k[0], _BOOL),
                                   None if k[2] is None else _hex("pending", k[2]))),
        "llayers": _memo_state(
            lambda o: (o["lid"], type(o["lid"])),
            lambda k: LogicalLayerState(_checked("lid", k[0], _INT))),
        "wire": lambda obj: _wire_state(symbols(obj["latch"]), _checked("sources", obj["sources"], _INTS), n),
    }


def _wire_state(latch: tuple, sources: list, n: int) -> WireState:
    """The wire state, if `sources` lists one node of 1..n per latch symbol, highest first."""
    bounds = (n + 1, *sources, 0)
    if len(sources) != len(latch) or any(a <= b for a, b in zip(bounds, bounds[1:])):
        raise ValueError(f"sources must list one node of 1..{n} per latch symbol, highest first, "
                         f"got {_dumps(sources)} for {len(latch)} symbols")
    return WireState(latch, tuple(sources))


def _applied(old: tuple, pairs: list, read, listed: bool) -> tuple:
    """`old` with each [node index, value] pair's entry replaced by its read value.

    Indices rise strictly within `old`. A line that lists every node's entry
    (`listed`, as version 1 does) reads as the pairs enumerate(list).
    """
    if listed and len(pairs) != len(old):
        raise ValueError(f"{len(pairs)} entries for {len(old)} nodes")
    new, last = list(old), -1
    for i, value in enumerate(pairs) if listed else pairs:
        if type(i) is not int or not last < i < len(new):
            raise ValueError(f"node index {_dumps(i)} out of order or out of range")
        new[i], last = read(value), i
    return tuple(new)


def _snapshot_from_obj(obj: dict, prev: dict, read: dict, listed: bool) -> dict:
    """`prev` with one tick line's state changes applied; `prev` itself if there are none."""
    if not isinstance(obj, dict):
        raise ValueError("not an object")
    if not obj:
        return prev
    snap = {key: _applied(prev[key], obj[key], read[key], listed) if key in obj else prev[key] for key in _COMPONENTS}
    snap["wire"] = read["wire"](obj["wire"]) if "wire" in obj else prev["wire"]
    return snap


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
    if type(version) is not int or version not in (1, TRACE_VERSION):
        raise ValueError(f"header field 'version': expected 1 or {TRACE_VERSION}, got {_dumps(version)}")
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

    read, listed = _readers(n), version == 1
    blank_row = ((),) * n
    records, states, snap = [], [], _unset(n)
    for t, tick in enumerate(ticks):
        field = "t"
        try:
            if tick["t"] != t:
                raise ValueError(f"expected {t}, found {tick['t']!r}")
            record = []
            for field in PER_NODE_FAMILIES:
                cells = tick[field]
                record.append(blank_row if cells == [] else _applied(blank_row, cells, read[field], listed))
            field = "rows"
            if len(tick["rows"]) != n:
                raise ValueError(f"{len(tick['rows'])} entries for {n} nodes")
            rows = tuple(_checked("rows", tick["rows"], _INTS))
            field = "wr"
            record += (read["wr"](tick["wr"]), rows)
            field = "state"
            snap = _snapshot_from_obj(tick["state"], snap, read, listed)
            if t == 0 and (snap["wire"] is None or any(None in snap[key] for key in _COMPONENTS)):
                raise ValueError("tick 0 must give every component state")
            records.append(record)
            states.append(snap)
        except (KeyError, TypeError, ValueError) as exc:
            reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"tick {t}: field {field!r}: {reason}") from exc
    return assemble_trace(scenario, records, states, error)


# -- reports ------------------------------------------------------------------

def report_to_dict(report: Report) -> dict:
    """The report as JSON-ready values: each entry's findings with every field of a Violation."""
    return {"ok": report.ok(), "predicates": asdict(report)["entries"]}


def report_to_json(report: Report) -> str:
    return _dumps(report_to_dict(report)) + "\n"
