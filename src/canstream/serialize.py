"""Scenario and trace file formats.

Scenarios are single JSON documents; traces are line-delimited JSON with one
header line followed by one line per tick. All dumps are canonical (sorted
keys, fixed separators, integers and hex strings only), so a given run always
serializes to identical bytes.

Trace lines are canonical JSON text written by hand. Within one dump each
cell, message and state becomes text once and is then found by its id(), which
is exact: the values are immutable and the trace keeps them all alive for the
call, so no id is reused. A load builds each distinct message and state once,
and a run of equal snapshots is decoded (and encoded) once.
"""
from __future__ import annotations

import json
from operator import itemgetter
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
    TimedStream,
    Trace,
)

TRACE_FORMAT = "canstream-trace"
TRACE_VERSION = 1


def _dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- scenarios ---------------------------------------------------------------

# Options that scenario files once let vary, as (key, rule, only value): every
# other value broke the run. They are still read, for older files, and written.
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
            **{key: value for key, _, value in _FIXED_OPTIONS},
        },
    }


# JSON value kinds a scenario field may take, as (test, description). A bool
# is not an integer here, and nothing is coerced.
_INT = (lambda v: type(v) is int, "an integer")
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
        data = bytes.fromhex(_checked(f"{where}.data", inj["data"], _HEX))
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


def _texts(values, memo: dict[int, str]) -> list[str]:
    """Each value's canonical JSON text, made once per dump and then found by id."""
    get, made = memo.get, memo.setdefault
    return [get(id(v)) or made(id(v), _FRAGMENTS[type(v)](v, memo)) for v in values]


def _snapshot_to_obj(snap: dict, memo: dict[int, str]) -> str:
    """One tick's component states as canonical JSON text."""
    keys = sorted(snap)
    return "{%s}" % ",".join('"%s":%s' % kv for kv in zip(keys, _texts([snap[k] for k in keys], memo)))


def trace_to_jsonl(trace: Trace) -> str:
    header = {"format": TRACE_FORMAT, "version": TRACE_VERSION, "nodeCount": trace.node_count,
              "horizon": trace.horizon, "scenario": scenario_to_dict(trace.scenario)}
    memo: dict[int, str] = {}
    fields = {
        family: ["[%s]" % ",".join(cells) for cells in zip(*[_texts(s.cells, memo) for s in per_node])]
        for family, per_node in trace.streams.items()
    }
    states, snap = [], None
    for state in trace.states:  # runs of equal snapshots are common: encode each run once
        if state != snap:
            snap, text = state, _snapshot_to_obj(state, memo)
        states.append(text)
    fields.update(rows=_texts(trace.rows, memo), state=states, t=range(trace.horizon),
                  wr=_texts(trace.wire.cells, memo))
    keys = sorted(fields)
    line = "{%s}" % ",".join('"%s":%%s' % key for key in keys)
    lines = [_dumps(header), *(line % values for values in zip(*[fields[key] for key in keys]))]
    if trace.error is not None:
        lines.append(_dumps({"error": trace.error}))
    return "\n".join(lines) + "\n"


def _memo_reader(key, make):
    """A reader for one load: JSON list -> tuple, making each distinct key's value once."""
    memo: dict = {}

    def made(k):
        value = memo[k] = make(k)
        return value

    return lambda objs: () if objs == [] else tuple([memo.get(k) or made(k) for k in map(key, objs)])


def _symbol(key: tuple):
    kind, value = key
    if kind not in ("id", "data"):
        raise ValueError(f"unknown symbol kind {kind!r}")
    return IdSym(int(value)) if kind == "id" else DataSym(bytes.fromhex(value))


def _readers() -> dict:
    """Fresh readers for one load, by field name."""
    amessages = _memo_reader(itemgetter("id", "data"), lambda k: AMessage(int(k[0]), bytes.fromhex(k[1])))
    symbols = _memo_reader(itemgetter("sym", "value"), _symbol)
    return {
        **dict.fromkeys(("a", "as", "ar"), amessages),
        **dict.fromkeys(("ms", "mr", "ws", "wr"), symbols),
        "r": lambda cell: tuple(map(int, cell)),
        "rows": int,
        "encoders": _memo_reader(
            itemgetter("e", "pending"), lambda k: EncoderState(k[0], None if k[1] is None else bytes.fromhex(k[1]))),
        "decoders": _memo_reader(itemgetter("d", "lastId"), lambda k: DecoderState(*k)),
        "llayers": _memo_reader(itemgetter("lid"), LogicalLayerState),
    }


def _snapshot_from_obj(obj: dict, read: dict) -> dict:
    """One tick's component states from their parsed JSON."""
    snap = {key: read[key](obj[key]) for key in ("encoders", "decoders", "llayers")}
    snap["wire"] = WireState(read["wr"](obj["wire"]["latch"]), tuple(obj["wire"]["sources"]))
    snap["buffers"] = tuple(BufferState(read["a"](b["buf"]), read["a"](b["b"])) for b in obj["buffers"])
    return snap


def trace_from_jsonl(text: str) -> Trace:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty trace file")
    header = json.loads(lines[0])
    if header.get("format") != TRACE_FORMAT:
        raise ValueError(f"not a {TRACE_FORMAT} file")
    n = int(header["nodeCount"])
    horizon = int(header["horizon"])
    try:
        scenario = scenario_from_dict(header["scenario"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"header field 'scenario': {exc}") from exc
    ticks = [json.loads(line) for line in lines[1:]]
    error = ticks.pop()["error"] if ticks and "error" in ticks[-1] else None
    if len(ticks) != horizon:
        raise ValueError(f"expected {horizon} tick lines, found {len(ticks)}")

    read = _readers()
    # Each tick has one entry per node in every family and in rows.
    columns = {f: [] for f in PER_NODE_FAMILIES + ("rows",)}
    blank, blank_row = [[]] * n, ((),) * n
    wire, states, snap = [], [], None
    for t, tick in enumerate(ticks):
        field = "t"
        try:
            if tick["t"] != t:
                raise ValueError(f"expected {t}, found {tick['t']!r}")
            for field, column in columns.items():
                cells = tick[field]
                if len(cells) != n:
                    raise ValueError(f"{len(cells)} entries for {n} nodes")
                column.append(blank_row if cells == blank else tuple(map(read[field], cells)))
            field = "wr"
            wire.append(read["wr"](tick["wr"]))
            field = "state"
            if snap is None or tick["state"] != ticks[t - 1]["state"]:  # decode each run of equal ones once
                snap = _snapshot_from_obj(tick["state"], read)
            states.append(snap)
        except (KeyError, TypeError, ValueError) as exc:
            reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise ValueError(f"tick {t}: field {field!r}: {reason}") from exc

    rows = tuple(columns.pop("rows"))
    streams = {f: tuple(map(TimedStream, zip(*column))) or (TimedStream(()),) * n for f, column in columns.items()}
    return Trace(scenario=scenario, node_count=n, horizon=horizon, streams=streams, wire=TimedStream(tuple(wire)),
                 rows=rows, states=tuple(states), error=error)


# -- reports ------------------------------------------------------------------

def report_to_dict(report: Report) -> dict:
    def finding(v) -> dict:
        return {
            "predicate": v.predicate,
            "tick": v.tick,
            "streams": list(v.streams),
            "expected": v.expected,
            "observed": v.observed,
            "severity": v.severity,
        }

    return {
        "ok": report.ok(),
        "predicates": [
            {
                "predicate": e.predicate,
                "violations": [finding(v) for v in e.violations],
                "warnings": [finding(w) for w in e.warnings],
            }
            for e in report.entries
        ],
    }


def report_to_json(report: Report) -> str:
    return _dumps(report_to_dict(report)) + "\n"
