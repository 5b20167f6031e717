"""Trace-level validators for the protocol's assumption/guarantee predicates.

Checkers are read-only and total: they never mutate a trace and never raise on
bad content, they report it. Each finding carries the predicate name, the tick,
the streams involved, and a rendered expected/observed pair. Guarantees that
refer to neighbouring ticks are only checked where all referenced ticks fall
inside the horizon; boundary ticks are skipped, never assumed to pass.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import FRAME_LATENCY, AMessage, DataSym, IdSym, Trace
from .primitives import collect_elements, min_of_list, take_ids

ALL_PREDICATES = ("msg1", "format", "wire", "transmission", "row3", "structural")


@dataclass(frozen=True, slots=True)
class Violation:
    predicate: str
    tick: int | None
    streams: tuple[str, ...]
    expected: str
    observed: str


def render_cell(cell: Sequence) -> str:
    if not cell:
        return "[]"
    parts = []
    for m in cell:
        if isinstance(m, AMessage):
            parts.append(f"msg({m.id},{m.data.hex() or '-'})")
        elif isinstance(m, IdSym):
            parts.append(f"id:{m.value}")
        elif isinstance(m, DataSym):
            parts.append(f"data:{m.value.hex() or '-'}")
        else:
            parts.append("req")
    return "[" + " ".join(parts) + "]"


def _stream_by_name(trace: Trace, name: str):
    if name == "wr":
        return trace.wire
    family, _, node = name.rpartition("_")
    if family and node.isdigit():
        return trace.node_stream(family, int(node))
    raise ValueError(f"unknown stream name {name!r}")


def check_msg1(trace: Trace, stream_name: str) -> list[Violation]:
    """At most one message per tick on the named stream."""
    stream = _stream_by_name(trace, stream_name)
    return [
        Violation("msg1", t, (stream_name,), "at most 1 message", render_cell(cell))
        for t, cell in enumerate(stream.cells)
        if len(cell) > 1
    ]


def check_msg_can_format(trace: Trace, stream_name: str) -> list[Violation]:
    """Identifier-then-data framing on a wire-symbol stream.

    An identifier must be followed by a nonempty data cell in the next tick,
    and a data symbol must be preceded by an identifier in the previous tick
    (which also rules out data at tick 0).
    """
    stream = _stream_by_name(trace, stream_name)
    cells = stream.cells
    out: list[Violation] = []
    for t, cell in enumerate(cells):
        if not cell:
            continue
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
    out: list[Violation] = []
    ws = trace.streams["ws"]
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
    minimal identifier break (3) outright. (1) and (3) are checked for the
    ticks whose delivery tick lies inside the horizon.
    """
    n = trace.node_count
    as_streams = trace.streams["as"]
    ar_streams = trace.streams["ar"]
    r_streams = trace.streams["r"]
    out: list[Violation] = []

    for t in range(trace.horizon):
        first = ar_streams[0].cells[t]
        for j in range(1, n):
            other = ar_streams[j].cells[t]
            if other != first:
                out.append(Violation(
                    "transmission", t, ("ar_1", f"ar_{j + 1}"),
                    f"identical delivery cells (clause 2), ar_1 = {render_cell(first)}",
                    render_cell(other),
                ))

    for t in range(trace.horizon - FRAME_LATENCY):
        later = t + FRAME_LATENCY
        offers = [as_streams[i].cells[t] for i in range(n)]
        if not any(offers):
            for j in range(n):
                delivered = ar_streams[j].cells[later]
                if delivered:
                    out.append(Violation(
                        "transmission", t, (f"ar_{j + 1}",),
                        f"empty delivery at tick {later} (clause 1, no offers at {t})",
                        render_cell(delivered),
                    ))
            continue
        ids = take_ids(collect_elements(n, offers))
        best = min_of_list(ids)
        winners = [i for i in range(n) if offers[i] and offers[i][0].id == best]
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
        for j in range(n):
            delivered = ar_streams[j].cells[later]
            if delivered != offers[w]:
                out.append(Violation(
                    "transmission", t, (f"as_{w + 1}", f"ar_{j + 1}"),
                    f"delivery of {render_cell(offers[w])} at tick {later} (clause 3)",
                    render_cell(delivered),
                ))
    return out


def check_row3_unreachable(trace: Trace) -> list[Violation]:
    """Row 3 of the bus-access table must never fire in a composed run."""
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
    return all(msgs[k].id <= msgs[k + 1].id for k in range(len(msgs) - 1))


def check_structural(trace: Trace) -> list[Violation]:
    """Component-state invariants, checked on every per-tick snapshot.

    Buffer queues stay id-sorted with a one-slot offer; encoder and decoder
    caches exist exactly while their phase flags are set; every node's mr
    mirrors the bus; all nodes decode identical deliveries.
    """
    out: list[Violation] = []
    for t, snap in enumerate(trace.states):
        for i, buf_state in enumerate(snap.get("buffers", ()), start=1):
            if not _is_sorted_by_id(buf_state.buf):
                out.append(Violation("structural", t, (f"buffer_{i}",),
                                     "buf sorted by id", render_cell(buf_state.buf)))
            if len(buf_state.b) > 1:
                out.append(Violation("structural", t, (f"buffer_{i}",),
                                     "|b| <= 1", render_cell(buf_state.b)))
        for i, enc in enumerate(snap.get("encoders", ()), start=1):
            if enc.e != (enc.pending is not None):
                out.append(Violation("structural", t, (f"encoder_{i}",),
                                     "pending present iff e", f"e={enc.e}, pending={enc.pending!r}"))
        for i, dec in enumerate(snap.get("decoders", ()), start=1):
            if dec.d != (dec.last_id is not None):
                out.append(Violation("structural", t, (f"decoder_{i}",),
                                     "last_id present iff d", f"d={dec.d}, last_id={dec.last_id!r}"))
    for i in range(trace.node_count):
        mr = trace.streams["mr"][i]
        for t in range(trace.horizon):
            if mr.cells[t] != trace.wire.cells[t]:
                out.append(Violation("structural", t, (f"mr_{i + 1}", "wr"),
                                     render_cell(trace.wire.cells[t]), render_cell(mr.cells[t])))
    ar = trace.streams["ar"]
    for t in range(trace.horizon):
        for i in range(1, trace.node_count):
            if ar[i].cells[t] != ar[0].cells[t]:
                out.append(Violation("structural", t, ("ar_1", f"ar_{i + 1}"),
                                     render_cell(ar[0].cells[t]), render_cell(ar[i].cells[t])))
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


def check_all(trace: Trace, predicates: Sequence[str] = ALL_PREDICATES) -> Report:
    """Run the selected checkers over every applicable stream of a trace."""
    unknown = set(predicates) - set(ALL_PREDICATES)
    if unknown:
        raise ValueError(f"unknown predicates: {sorted(unknown)}")
    entries: list[ReportEntry] = []

    if "msg1" in predicates:
        findings: list[Violation] = []
        for family in ("as", "ar", "ms", "mr", "ws", "r"):
            if family in trace.streams:
                for node in range(1, trace.node_count + 1):
                    findings += check_msg1(trace, f"{family}_{node}")
        findings += check_msg1(trace, "wr")
        entries.append(ReportEntry("msg1", tuple(findings)))

    if "format" in predicates:
        findings = []
        for family in ("ms", "mr"):
            for node in range(1, trace.node_count + 1):
                findings += check_msg_can_format(trace, f"{family}_{node}")
        findings += check_msg_can_format(trace, "wr")
        entries.append(ReportEntry("format", tuple(findings)))

    if "wire" in predicates:
        entries.append(ReportEntry("wire", tuple(check_wire_assumptions(trace))))

    if "transmission" in predicates:
        entries.append(ReportEntry("transmission", tuple(check_message_transmission(trace))))

    if "row3" in predicates:
        entries.append(ReportEntry("row3", tuple(check_row3_unreachable(trace))))

    if "structural" in predicates:
        entries.append(ReportEntry("structural", tuple(check_structural(trace))))

    return Report(tuple(entries))
