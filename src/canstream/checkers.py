"""Trace-level validators for the protocol's assumption/guarantee predicates.

Checkers are read-only and total: they never mutate a trace and never raise on
bad content, they report it. Each finding carries the predicate name, the tick,
the streams involved, and a rendered expected/observed pair. Guarantees that
refer to neighbouring ticks are only checked where all referenced ticks fall
inside the horizon; boundary ticks are skipped, never assumed to pass.

Each check first makes a test at C speed that can only conclude that there is
nothing to report; only where it fails does the per-tick loop that makes the
findings run. The kernel hands on an unchanged value as the same object and the
trace keeps every value alive, so the tests judge each distinct state once, by
id(), and compare a stream that copies another (mr the wire, ar node 1's) whole.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from itertools import chain, compress
from operator import is_not, itemgetter
from typing import Sequence

from .core import FRAME_LATENCY, PER_NODE_FAMILIES, AMessage, DataSym, IdSym, TimedStream, Trace


@dataclass(frozen=True, slots=True)
class Violation:
    predicate: str
    tick: int | None
    streams: tuple[str, ...]
    expected: str
    observed: str


def _payload(data) -> str:
    """A payload as hex, "-" if empty; a value that is not bytes, which only a faulty component makes, by its repr."""
    return (data.hex() or "-") if type(data) is bytes else repr(data)


def render_cell(cell: Sequence) -> str:
    if not cell:
        return "[]"
    parts = []
    for m in cell:
        if isinstance(m, AMessage):
            parts.append(f"msg({m.id},{_payload(m.data)})")
        elif isinstance(m, IdSym):
            parts.append(f"id:{m.value}")
        elif isinstance(m, DataSym):
            parts.append(f"data:{_payload(m.value)}")
        else:
            parts.append("req")
    return "[" + " ".join(parts) + "]"


def _stream_by_name(trace: Trace, name: str) -> TimedStream:
    """The stream named `<family>_<node>`, or the wire for "wr"."""
    family, _, node = name.rpartition("_")
    return trace.node_stream(family or node, int(node) if node.isdecimal() else 0)


def check_msg1(trace: Trace, stream_name: str) -> list[Violation]:
    """At most one message per tick on the named stream."""
    cells = _stream_by_name(trace, stream_name).cells
    busy = list(filter(None, cells))
    if sum(map(len, busy)) == len(busy):  # each non-empty cell holds one message
        return []
    return [
        Violation("msg1", t, (stream_name,), "at most 1 message", render_cell(cell))
        for t, cell in enumerate(cells)
        if len(cell) > 1
    ]


def check_msg_can_format(trace: Trace, stream_name: str) -> list[Violation]:
    """Identifier-then-data framing on a wire-symbol stream.

    An identifier must be followed by a nonempty data cell in the next tick,
    and a data symbol must be preceded by an identifier in the previous tick
    (which also rules out data at tick 0).
    """
    cells = _stream_by_name(trace, stream_name).cells
    # Nothing to report if the heads alternate identifier, data and each run of
    # non-empty ticks has even length, but for an identifier at the horizon. A
    # stream of few non-empty cells goes straight to the loop, which costs less.
    if len(cells) - cells.count(()) > 8:
        kinds = list(map(type, map(itemgetter(0), filter(None, cells))))
        unchecked = kinds[-1] is IdSym and bool(cells[-1])
        paired, runs = len(kinds) - unchecked, bytes(map(bool, cells[:len(cells) - unchecked]))
        if (kinds[:paired:2].count(IdSym) == paired // 2 == kinds[1:paired:2].count(DataSym)
                and 1 not in runs.replace(b"\1\1", b"")):
            return []
    out: list[Violation] = []
    for t in compress(range(len(cells)), cells):
        cell = cells[t]
        head = cell[0]
        if isinstance(head, IdSym):
            if t + 1 >= len(cells):
                continue
            nxt = cells[t + 1]
            if not nxt or not isinstance(nxt[0], DataSym):
                out.append(Violation(
                    "format", t, (stream_name,),
                    f"data symbol at tick {t + 1} after identifier",
                    render_cell(nxt),
                ))
        else:
            prev = cells[t - 1] if t > 0 else ()
            if t == 0 or not prev or not isinstance(prev[0], IdSym):
                out.append(Violation(
                    "format", t, (stream_name,),
                    f"identifier at tick {t - 1} before data symbol",
                    render_cell(prev) if t > 0 else "(start of stream)",
                ))
    return out


def check_wire_assumptions(trace: Trace) -> list[Violation]:
    """No tick may mix identifier and data symbols across the nodes' bus offers."""
    ws = trace.streams["ws"]
    kinds = (set(map(type, map(itemgetter(0), filter(None, offers)))) for offers in zip(*(s.cells for s in ws)))
    if all(k <= {IdSym} or k <= {DataSym} for k in kinds):  # each tick's offers are all of one kind
        return []
    out: list[Violation] = []
    for t in range(trace.horizon):
        id_nodes = [i + 1 for i in range(trace.node_count) if ws[i].cells[t] and isinstance(ws[i].cells[t][0], IdSym)]
        data_nodes = [i + 1 for i in range(trace.node_count) if ws[i].cells[t] and isinstance(ws[i].cells[t][0], DataSym)]
        if id_nodes and data_nodes:
            out.append(Violation(
                "wire", t, tuple(f"ws_{i}" for i in id_nodes + data_nodes),
                "all offers of one symbol kind",
                f"identifiers from nodes {id_nodes}, data from nodes {data_nodes}",
            ))
    return out


def check_message_transmission(trace: Trace) -> list[Violation]:
    """The end-to-end transmission contract over the as/ar/r boundary streams.

    (1) A tick with no offers delivers nothing FRAME_LATENCY ticks later.
    (2) All nodes receive identical cells at every tick.
    (3) The minimum-identifier offer of a tick is acknowledged to its sender
        and delivered to every node FRAME_LATENCY ticks later.

    Each identifier belongs to one sender, so several nodes offering the same
    minimal identifier break (3) outright. (3) reads each offer cell's head, and
    skips a head that is not a message; a head whose identifier is not an
    integer is reported and skipped. (1) and (3) are checked for the ticks
    whose delivery tick lies inside the horizon.
    """
    n = trace.node_count
    r_streams = trace.streams["r"]
    offer_rows = list(zip(*(stream.cells for stream in trace.streams["as"])))
    delivery_rows = list(zip(*(stream.cells for stream in trace.streams["ar"])))
    out: list[Violation] = []

    uniform = [row.count(row[0]) == n for row in delivery_rows]  # every node receives the same cell
    for t, delivered in enumerate(delivery_rows):
        first = delivered[0]
        for j in range(1, n) if not uniform[t] else ():
            other = delivered[j]
            if other != first:
                out.append(Violation(
                    "transmission", t, ("ar_1", f"ar_{j + 1}"),
                    f"identical delivery cells (clause 2), ar_1 = {render_cell(first)}",
                    render_cell(other),
                ))

    for t in range(trace.horizon - FRAME_LATENCY):
        later = t + FRAME_LATENCY
        offers, delivered = offer_rows[t], delivery_rows[later]
        if not any(offers):
            for j in range(n) if any(delivered) else ():
                if delivered[j]:
                    out.append(Violation(
                        "transmission", t, (f"ar_{j + 1}",),
                        f"empty delivery at tick {later} (clause 1, no offers at {t})",
                        render_cell(delivered[j]),
                    ))
            continue
        # The smallest identifier among the heads that are messages; msg1 and the kind rules report the rest. A head
        # whose identifier is not an integer cannot arbitrate.
        heads = {i: cell[0].id for i, cell in enumerate(offers) if cell and type(cell[0]) is AMessage}
        if not {int}.issuperset(map(type, heads.values())):
            for i in [i for i, ident in heads.items() if type(ident) is not int]:
                del heads[i]
                out.append(Violation("transmission", t, (f"as_{i + 1}",), "an integer identifier (clause 3)",
                                     render_cell(offers[i])))
        best = min(heads.values(), default=None)
        winners = [i for i, ident in heads.items() if ident == best]
        if not winners:
            continue
        if len(winners) > 1:
            out.append(Violation(
                "transmission", t, tuple(f"as_{i + 1}" for i in winners),
                "a unique minimal identifier (clause 3)",
                f"identifier {best} offered by nodes {[i + 1 for i in winners]}",
            ))
            continue
        w = winners[0]
        if not r_streams[w].cells[later]:
            out.append(Violation(
                "transmission", t, (f"r_{w + 1}",),
                f"request at tick {later} for winner node {w + 1} (clause 3)",
                "[]",
            ))
        for j in range(n) if not (uniform[later] and delivered[0] == offers[w]) else ():
            if delivered[j] != offers[w]:
                out.append(Violation(
                    "transmission", t, (f"as_{w + 1}", f"ar_{j + 1}"),
                    f"delivery of {render_cell(offers[w])} at tick {later} (clause 3)",
                    render_cell(delivered[j]),
                ))
    return out


def check_row3_unreachable(trace: Trace) -> list[Violation]:
    """Row 3 of the bus-access table must never fire in a composed run."""
    if not any(3 in per_node for per_node in trace.rows):
        return []
    out: list[Violation] = []
    for t, per_node in enumerate(trace.rows):
        for i, row in enumerate(per_node):
            if row == 3:
                out.append(Violation(
                    "row3", t, (f"node_{i + 1}",),
                    "row 3 never fires",
                    f"row 3 fired at node {i + 1}",
                ))
    return out


def _is_sorted_by_id(msgs: Sequence[AMessage]) -> bool:
    """Whether the identifiers are integers in ascending order; a queue holding any other identifier is not sorted."""
    ids = [getattr(m, "id", None) for m in msgs]
    return {int}.issuperset(map(type, ids)) and ids == sorted(ids)


# Per component family: its snapshot key, its stream name, and the (expected,
# observed) pair of each invariant a state breaks.
_INVARIANTS = (
    ("buffers", "buffer", lambda s: ([] if _is_sorted_by_id(s.buf) else [("buf sorted by id", render_cell(s.buf))])
                                    + ([("|b| <= 1", render_cell(s.b))] if len(s.b) > 1 else [])),
)


def check_structural(trace: Trace) -> list[Violation]:
    """Component-state invariants, checked on every per-tick snapshot.

    Buffer queues stay id-sorted with a one-slot offer, and every node's mr
    mirrors the bus. A snapshot holds the buffer states only: the encoder,
    decoder and bus-access states follow from the streams, which the other
    checks judge. That all nodes decode identical deliveries is clause 2 of
    check_message_transmission.
    """
    out: list[Violation] = []
    broken = {}  # id() of each distinct state that breaks an invariant -> its (expected, observed) pairs
    for key, _, judge in _INVARIANTS:
        # Each distinct state once: pass over, at C speed, an entry that is the same
        # object as the one two ticks before it, then as the entry before it.
        states = list(chain.from_iterable(snap.get(key, ()) for snap in trace.states))
        for lag in (max(2 * trace.node_count, 1), 1):
            states = states[:lag] + list(compress(states[lag:], map(is_not, states[lag:], states)))
        broken.update((id(s), faults) for s in {id(s): s for s in states}.values() if (faults := judge(s)))
    for t, snap in enumerate(trace.states if broken else ()):
        for key, name, _ in _INVARIANTS:
            for i, state in enumerate(snap.get(key, ()), start=1):
                for expected, observed in broken.get(id(state), ()):
                    out.append(Violation("structural", t, (f"{name}_{i}",), expected, observed))
    wr = trace.wire.cells
    for i, mr in enumerate(trace.streams["mr"], start=1):
        for t in range(trace.horizon) if mr.cells != wr else ():
            if mr.cells[t] != wr[t]:
                out.append(Violation("structural", t, (f"mr_{i}", "wr"), render_cell(wr[t]), render_cell(mr.cells[t])))
    return out


@dataclass(frozen=True, slots=True)
class ReportEntry:
    predicate: str
    violations: tuple[Violation, ...]


@dataclass(frozen=True, slots=True)
class Report:
    entries: tuple[ReportEntry, ...]

    @property
    def violations(self) -> tuple[Violation, ...]:
        return tuple(v for e in self.entries for v in e.violations)

    def ok(self) -> bool:
        return not self.violations


def _each_stream(trace: Trace, check, families: tuple[str, ...]) -> list[Violation]:
    """`check` on every node's stream of each family, then on the wire. A stream whose cells
    equal those of the stream it copies takes that stream's findings under its own name."""
    names = [f"{family}_{node}" for family in families for node in range(1, trace.node_count + 1)]
    copied = {"mr": "wr", "ar": "ar_1"}  # the stream each family's streams copy in a run
    findings = cache(lambda name: check(trace, name))
    out: list[Violation] = []
    for name in names + ["wr"]:
        source = copied.get(name.rpartition("_")[0], name)
        if source != name and _stream_by_name(trace, source).cells != _stream_by_name(trace, name).cells:
            source = name
        out += findings(name) if source == name else [replace(v, streams=(name,)) for v in findings(source)]
    return out


# Each predicate's whole-trace check, in report order. The checks are looked up
# when called, so a wrapper put on this module's functions (as the benchmark's
# span tracer does) sees every call.
_CHECKS = {
    "msg1": lambda trace: _each_stream(trace, check_msg1, PER_NODE_FAMILIES),
    "format": lambda trace: _each_stream(trace, check_msg_can_format, ("ms", "mr")),
    "wire": lambda trace: check_wire_assumptions(trace),
    "transmission": lambda trace: check_message_transmission(trace),
    "row3": lambda trace: check_row3_unreachable(trace),
    "structural": lambda trace: check_structural(trace),
}
ALL_PREDICATES = tuple(_CHECKS)


def check_all(trace: Trace, predicates: Sequence[str] = ALL_PREDICATES) -> Report:
    """Run the selected checkers over every applicable stream of a trace, in report order."""
    unknown = set(predicates) - set(_CHECKS)
    if unknown:
        raise ValueError(f"unknown predicates: {sorted(unknown)}")
    return Report(tuple(ReportEntry(name, tuple(check(trace)))
                        for name, check in _CHECKS.items() if name in predicates))
