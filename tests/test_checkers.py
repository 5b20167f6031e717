from __future__ import annotations

import hashlib
import random
from dataclasses import replace

import pytest

from canstream import (
    AMessage,
    DataSym,
    IdSym,
    Scenario,
    TimedStream,
    Trace,
    assemble_trace,
    check_all,
    check_message_transmission,
    check_msg1,
    check_msg_can_format,
    check_row3_unreachable,
    check_structural,
    check_wire_assumptions,
    run_scenario,
    tick_system,
)
from canstream.checkers import ALL_PREDICATES
from canstream.components import BufferState
from canstream.core import PER_NODE_FAMILIES
from canstream.fuzzing import ID_POOL, seeded_scenario
from canstream.serialize import report_to_json, trace_from_jsonl, trace_to_jsonl
from canstream.system import initial_state
from .conftest import amsg, saturated, scenario


def make_trace(families, n=1, wr=(), rows=(), states=()) -> Trace:
    """Hand-built trace for checker units; families maps name -> per-node cell lists."""
    horizon = max(
        [len(wr), len(rows), len(states)] + [len(s) for streams in families.values() for s in streams],
        default=0,
    )

    def pad(cells):
        return TimedStream(tuple(map(tuple, cells)) + ((),) * (horizon - len(cells)))

    return Trace(
        scenario=Scenario(n, horizon),
        streams={name: tuple(pad(s) for s in per_node) for name, per_node in families.items()},
        wire=pad(wr),
        rows=tuple(rows) + tuple(((1,) * n,) * (horizon - len(rows))),
        states=tuple(states) + ({},) * (horizon - len(states)),
    )


# -- msg(1) -----------------------------------------------------------------------

def test_msg1_compliant(golden_scenario):
    t = run_scenario(golden_scenario)
    assert check_msg1(t, "as_1") == []
    assert check_msg1(t, "wr") == []


def test_msg1_flags_wide_cell():
    t = make_trace({"ms": [[(), (), (), (), (IdSym(1), IdSym(2))]]})
    assert [v.tick for v in check_msg1(t, "ms_1")] == [4]


def test_msg1_empty_trace_vacuous():
    t = make_trace({"ms": [[]]})
    assert check_msg1(t, "ms_1") == []


def test_msg1_unknown_stream():
    t = make_trace({"ms": [[]]})
    with pytest.raises(ValueError):
        check_msg1(t, "nonsense")


# -- frame format ------------------------------------------------------------------

def test_format_id_then_data_ok():
    t = make_trace({"ms": [[(IdSym(5),), (DataSym(b"p"),)]]})
    assert check_msg_can_format(t, "ms_1") == []


def test_format_data_at_start_flagged():
    t = make_trace({"ms": [[(DataSym(b"p"),)]]})
    found = check_msg_can_format(t, "ms_1")
    assert len(found) == 1 and found[0].tick == 0


def test_format_dangling_identifier_flagged():
    t = make_trace({"ms": [[(IdSym(5),), ()]]})
    found = check_msg_can_format(t, "ms_1")
    assert len(found) == 1 and found[0].tick == 0


def test_format_identifier_at_horizon_boundary_skipped():
    t = make_trace({"ms": [[(), (IdSym(5),)]]})
    assert check_msg_can_format(t, "ms_1") == []


# -- wire mixing -------------------------------------------------------------------

def test_wire_assumption_id_only_ok():
    t = make_trace({"ws": [[(IdSym(3),)], [(IdSym(5),)], [()]]}, n=3)
    assert check_wire_assumptions(t) == []


def test_wire_assumption_mixing_flagged():
    t = make_trace({"ws": [[(IdSym(3),)], [(DataSym(b"p"),)]]}, n=2)
    found = check_wire_assumptions(t)
    assert len(found) == 1 and found[0].tick == 0


def test_wire_assumption_all_empty_ok():
    t = make_trace({"ws": [[()], [()]]}, n=2)
    assert check_wire_assumptions(t) == []


# -- transmission -------------------------------------------------------------------

def test_transmission_on_real_race(two_node_scenario):
    t = run_scenario(two_node_scenario)
    assert check_message_transmission(t) == []


def test_transmission_quiescent():
    t = run_scenario(scenario(2, 6))
    assert check_message_transmission(t) == []


def test_transmission_catches_unequal_deliveries():
    m = amsg(1, b"x")
    t = make_trace({
        "as": [[(), (), (), ()], [(), (), (), ()]],
        "ar": [[(), (m,), (), ()], [(), (), (), ()]],
        "r": [[(), (), (), ()], [(), (), (), ()]],
    }, n=2)
    found = check_message_transmission(t)
    assert any("ar_2" in v.streams for v in found)


def test_transmission_winner_must_be_acknowledged():
    m = amsg(3, b"x")
    # node 1 offers at tick 1; nothing is delivered or acknowledged at tick 3
    t = make_trace({
        "as": [[(), (m,), (), ()]],
        "ar": [[(), (), (), ()]],
        "r": [[(), (), (), ()]],
    })
    found = check_message_transmission(t)
    assert any(v.streams == ("r_1",) for v in found)
    assert any("ar_1" in v.streams for v in found)


def test_transmission_duplicate_min_id_is_a_violation():
    m1, m2 = amsg(3, b"a"), amsg(3, b"b")
    t = make_trace({
        "as": [[(), (m1,), (), ()], [(), (m2,), (), ()]],
        "ar": [[(), (), (), ()], [(), (), (), ()]],
        "r": [[(), (), (), ()], [(), (), (), ()]],
    }, n=2)
    found = check_message_transmission(t)
    assert [(v.tick, v.streams) for v in found] == [(1, ("as_1", "as_2"))]
    assert "nodes [1, 2]" in found[0].observed
    assert not check_all(t, ("transmission",)).ok()


def test_a_tie_in_a_trace_stepped_outside_run_scenario_fails_the_checks():
    # run_scenario rejects an identifier shared by two nodes; stepping the kernel directly does not
    state, records = initial_state(2), []
    tie = (amsg(3, b"\xaa"),), (amsg(3, b"\xbb"),)
    for t in range(8):
        state, record = tick_system(state, tie if t == 1 else ((), ()), t)
        records.append(record)
    report = check_all(assemble_trace(Scenario(2, 8), records), ("transmission",))
    assert not report.ok()
    assert [(v.tick, v.streams, v.observed) for v in report.violations] == [
        (3, ("as_1", "as_2"), "identifier 3 offered by nodes [1, 2]")]


def test_transmission_latency_must_fit_horizon():
    """Below FRAME_LATENCY + 1 ticks clauses 1 and 3 fit nowhere; clause 2 is still checked."""
    m = amsg(3, b"x")
    equal = make_trace({"as": [[(), ()]] * 2, "ar": [[(), (m,)]] * 2, "r": [[(), ()]] * 2}, n=2)
    assert check_message_transmission(equal) == []
    unequal = make_trace({"as": [[(), ()]] * 2, "ar": [[(), (m,)], [(), ()]], "r": [[(), ()]] * 2}, n=2)
    found = check_message_transmission(unequal)
    assert [(v.tick, v.streams) for v in found] == [(1, ("ar_1", "ar_2"))]
    assert "clause 2" in found[0].expected


# -- row 3 -------------------------------------------------------------------------

def test_row3_clean_run(golden_scenario):
    t = run_scenario(golden_scenario)
    assert check_row3_unreachable(t) == []


def test_transmission_passes_over_an_offer_head_that_is_not_a_message():
    # node 1 offers an identifier symbol, which no run makes and the loader refuses; msg1 and the kind rules judge it
    t = make_trace({"as": [[(), (IdSym(1),)], [(), (amsg(5),)]], "ar": [[(), (), (), (amsg(5),)]] * 2,
                    "r": [[(), (), (), ()], [(), (), (), (0,)]]}, n=2)
    assert check_message_transmission(t) == []
    # tick 1's only offer has no message head, so no node wins there; the horizon leaves room for its delivery
    t = make_trace({"as": [[(), (IdSym(1),)]], "ar": [[(), (), (), ()]], "r": [[(), (), (), ()]]})
    assert check_message_transmission(t) == []


def test_row3_flagged_when_marked():
    t = make_trace({"ms": [[(), ()]]}, rows=((1,), (3,)))
    found = check_row3_unreachable(t)
    assert len(found) == 1 and found[0].tick == 1


# -- structural ---------------------------------------------------------------------

def test_structural_clean_run(two_node_scenario):
    t = run_scenario(two_node_scenario)
    assert check_structural(t) == []


def test_structural_flags_unsorted_buffer():
    snap = {"buffers": (BufferState(buf=(amsg(5), amsg(2))),)}
    t = make_trace({"mr": [[()]], "ar": [[()]]}, states=(snap,))
    found = check_structural(t)
    assert any("buffer_1" in v.streams for v in found)


def test_structural_reports_a_queue_whose_identifier_is_not_an_integer(two_node_scenario):
    # only a faulty component queues such a message; the check reports the queue as unsorted and does not raise
    trace = run_scenario(two_node_scenario)
    states = list(trace.states)
    states[2] = {"buffers": (BufferState((AMessage(None, b""), AMessage(2, b""))), states[2]["buffers"][1])}
    found = check_structural(replace(trace, states=tuple(states)))
    assert [(v.tick, v.streams, v.expected, v.observed) for v in found] == [
        (2, ("buffer_1",), "buf sorted by id", "[msg(None,-) msg(2,-)]")]


def test_transmission_reports_an_offer_whose_identifier_is_not_an_integer(two_node_scenario):
    # both nodes offer at tick 1; a head whose identifier is not an integer cannot arbitrate, so it is reported
    trace = run_scenario(two_node_scenario)
    offers = trace.streams["as"]
    assert offers[0].cells[1] and offers[1].cells[1]
    bad = replace(offers[0], cells=offers[0].cells[:1] + ((AMessage(None, b"\xaa"),),) + offers[0].cells[2:])
    found = check_message_transmission(replace(trace, streams={**trace.streams, "as": (bad, offers[1])}))
    assert ("transmission", 1, ("as_1",), "an integer identifier (clause 3)", "[msg(None,aa)]") in {
        (v.predicate, v.tick, v.streams, v.expected, v.observed) for v in found}


# -- aggregate ----------------------------------------------------------------------

def test_check_all_golden_passes(golden_scenario):
    t = run_scenario(golden_scenario)
    report = check_all(t, predicates=("msg1", "format", "wire", "transmission", "row3", "structural"))
    assert report.ok()
    assert {e.predicate for e in report.entries} == {
        "msg1", "format", "wire", "transmission", "row3", "structural"
    }


def test_check_all_checks_every_predicate_by_default():
    # a hand-built trace has {} snapshots: the structural checks find no states, not a fault
    t = make_trace({family: [[(), (), ()]] * 2 for family in PER_NODE_FAMILIES}, n=2)
    report = check_all(t)
    assert [e.predicate for e in report.entries] == list(ALL_PREDICATES)
    assert report.ok()


def test_check_all_reports_payloads_that_are_not_bytes(two_node_scenario):
    # only a faulty component makes such a payload; a check renders it by its repr and does not raise
    trace = run_scenario(two_node_scenario)
    ar, wr = trace.streams["ar"], trace.wire.cells
    assert ar[0].cells[3] and wr[3] == (DataSym(b"\xaa"),)
    ar = (TimedStream(ar[0].cells[:3] + ((AMessage(3, None),),) + ar[0].cells[4:]),) + ar[1:]
    wire = TimedStream(wr[:3] + ((DataSym(None),),) + wr[4:])
    report = check_all(replace(trace, streams={**trace.streams, "ar": ar}, wire=wire))
    observed = {(v.predicate, v.tick, v.observed) for v in report.violations}
    assert ("transmission", 1, "[msg(3,None)]") in observed  # the delivery of the frame offered at tick 1
    assert ("structural", 3, "[data:aa]") in observed
    assert any(v.expected == "[data:None]" for v in report.violations)


def test_check_all_rejects_unknown_predicate(golden_scenario):
    t = run_scenario(golden_scenario)
    with pytest.raises(ValueError):
        check_all(t, predicates=("nonsense",))


def test_check_all_is_read_only(golden_scenario):
    t = run_scenario(golden_scenario)
    assert check_all(t) == check_all(t)


# -- pinned reports of faulty traces --------------------------------------------------

# What a cell of each family may be swapped for, as (kind, make), and the kinds
# each family's trace reader accepts, so that a swap keeps the trace loadable.
_MESSAGE = ("message", lambda rng: (AMessage(rng.randrange(ID_POOL), rng.randbytes(2)),))
_ID = ("id", lambda rng: (IdSym(rng.randrange(ID_POOL)),))
_DATA = ("data", lambda rng: (DataSym(rng.randbytes(2)),))
# The transmission check reads an offer's identifier, so `as` cells keep messages.
_SWAPS = {"a": (_MESSAGE, _ID, _DATA), "as": (_MESSAGE,), "ar": (_MESSAGE, _ID, _DATA),
          "r": (_ID,), "ms": (_ID, _DATA), "mr": (_ID, _DATA), "ws": (_ID, _DATA), "wr": (_ID, _DATA)}
_LOADABLE = {**dict.fromkeys(("a", "as", "ar"), {"message"}), **dict.fromkeys(("ms", "mr", "ws", "wr"), {"id", "data"}),
             "r": set()}
# The faults a state draw picks from; there are four, so that the draws, and so every other fault, stay as pinned.
_BAD_BUFFERS = (
    lambda s: BufferState((amsg(9), amsg(2)) + s.buf, s.b),  # unsorted buf
    lambda s: BufferState(s.buf, (amsg(7), amsg(8))),  # two entries in b
    lambda s: BufferState(s.buf + (amsg(9), amsg(2)), s.b),  # buf unsorted at its tail
    lambda s: BufferState(s.buf, s.b + (amsg(7), amsg(8))),  # b grown past one entry
)


def _mutated(trace: Trace, rng: random.Random) -> tuple[Trace, bool]:
    """The trace with one seeded fault, and whether the trace reader can load it back."""
    n, horizon = trace.node_count, trace.horizon
    i, t = rng.randrange(n), rng.randrange(horizon)
    kind = rng.choice(("cell", "cell", "cell", "wire", "row", "state", "state"))
    if kind in ("cell", "wire"):
        # The families whose copies are compared as whole streams, and ws for mixing, come up twice as often.
        family = rng.choice(PER_NODE_FAMILIES + ("ar", "mr", "ws")) if kind == "cell" else "wr"
        per_node = (trace.wire,) if family == "wr" else trace.streams[family]
        stream = per_node[0] if family == "wr" else per_node[i]
        # A tick where this stream, or for mixing some other node's, is busy.
        looked_at = (stream,) if rng.random() < 0.5 else per_node
        busy = [u for u in range(horizon) if any(s.cells[u] for s in looked_at)]
        t = rng.choice(busy) if busy and rng.random() < 0.8 else t
        old, how = stream.cells[t], rng.choice(("empty", "double", "swap", "swap"))
        swap_kind, make = rng.choice(_SWAPS[family])
        new = () if how == "empty" else (old or make(rng)) * 2 if how == "double" else make(rng)
        # A file keeps each node's a as its scenario's injections only, so no fault of a can be written.
        loadable = family != "a" and (how == "empty" or (how == "double" and bool(old)) or swap_kind in _LOADABLE[family])
        cells = TimedStream(stream.cells[:t] + (new,) + stream.cells[t + 1:])
        if family == "wr":
            return replace(trace, wire=cells), loadable
        streams = {**trace.streams, family: per_node[:i] + (cells,) + per_node[i + 1:]}
        return replace(trace, streams=streams), loadable
    if kind == "row":
        row = trace.rows[t][:i] + (rng.choice((3, 3, 2, 5)),) + trace.rows[t][i + 1:]
        return replace(trace, rows=trace.rows[:t] + (row,) + trace.rows[t + 1:]), True
    old = trace.states[t]["buffers"][i]
    new = rng.choice(_BAD_BUFFERS)(old)
    # The faulty state replaces this one entry, or every entry that is the same object.
    everywhere = rng.random() < 0.5
    states = []
    for u, snap in enumerate(trace.states):
        entries = tuple(new if s is old and (everywhere or (u, j) == (t, i)) else s
                        for j, s in enumerate(snap["buffers"]))
        states.append({**snap, "buffers": entries})
    return replace(trace, states=tuple(states)), True


def _pinned_traces() -> list[Trace]:
    """About 350 traces with seeded faults: corpus-shaped runs, a 16-node saturated run, JSONL copies."""
    rng = random.Random("report pin")
    bases = [run_scenario(seeded_scenario("report pin", k, nodes=2 + k % 4, horizon=64)) for k in range(8)]
    bases.append(run_scenario(saturated(5, nodes=16, horizon=96)))
    traces = list(bases)
    for k in range(288):
        trace, loadable = _mutated(bases[k % len(bases)], rng)
        traces.append(trace)
        if loadable and k % 6 == 0:
            traces.append(trace_from_jsonl(trace_to_jsonl(trace)))
    return traces + [trace_from_jsonl(trace_to_jsonl(trace)) for trace in bases]


# SHA-256 of every pinned trace's report_to_json(check_all(...)), in order, and
# the number of findings.
PINNED_REPORTS = "7dfa047bc2c77affe89a25b960aa4340206fd7c82da3ea3053e80691638d31c2"
PINNED_FINDINGS = 3546


def test_the_reports_on_faulty_traces_are_pinned():
    digest, findings, predicates = hashlib.sha256(), 0, set()
    for trace in _pinned_traces():
        report = check_all(trace)
        digest.update(report_to_json(report).encode())
        findings += len(report.violations)
        predicates.update(v.predicate for v in report.violations)
    assert predicates == set(ALL_PREDICATES)
    assert (digest.hexdigest(), findings) == (PINNED_REPORTS, PINNED_FINDINGS)
