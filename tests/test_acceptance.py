"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

from canstream import (
    REQ,
    AMessage,
    DataSym,
    IdSym,
    check_all,
    check_message_transmission,
    check_row3_unreachable,
    check_structural,
    divergence,
    run_scenario,
)
from canstream.components import (
    BufferState,
    DecoderState,
    EncoderState,
    LogicalLayerState,
    buffer_step,
    decoder_step,
    encoder_step,
    logical_layer_step,
    wire_emission,
)
from canstream.fuzzing import seeded_scenario, two_node_scenarios
from canstream.primitives import broadcast, collect_elements, min_nat_list, pr_add
from canstream.serialize import trace_from_jsonl, trace_to_jsonl
from canstream.system import delivery_log
from .conftest import amsg, literal_row2, scenario, unprimed

GOLDENS = Path(__file__).parent / "goldens"

@contextmanager
def criterion(number: int, name: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS ({time.perf_counter() - started:.2f}s)")


def test_criterion_1_axiom_unit_suite():
    with criterion(1, "axiom unit suite"):
        started = time.perf_counter()

        # collect_elements
        assert collect_elements(0, [("a",), ("b",)]) == ()
        assert collect_elements(2, [(), ("m",)]) == ("m",)
        assert collect_elements(3, [("a",), (), ("c",)]) == ("c", "a")
        # min_nat_list
        assert min_nat_list(5, ()) == 5
        assert min_nat_list(3, (5, 1)) == 1
        assert min_nat_list(0, (7,)) == 0
        # pr_add
        m = amsg(1)
        assert pr_add((), m) == (m,)
        new = amsg(3, b"d")
        assert pr_add((amsg(2), amsg(5)), new) == (amsg(2), new, amsg(5))
        p, q = AMessage(3, b"p"), AMessage(3, b"q")
        assert pr_add((p,), q) == (p, q)
        # broadcast
        assert broadcast(()) == ()
        assert broadcast((IdSym(2), IdSym(7), IdSym(4))) == (IdSym(2),)
        assert broadcast((DataSym(b"p"), IdSym(9))) == (DataSym(b"p"),)

        # buffer guarantees 2-6
        assert buffer_step(BufferState(b=(m,)), (), (), 2)[0] == ()
        out, nxt = buffer_step(BufferState(b=(m,)), (), (), 3)
        assert out == (m,) and nxt.b == (m,)
        _, nxt = buffer_step(BufferState(), (amsg(4),), (), 0)
        assert nxt == BufferState(buf=(amsg(4),), b=())
        _, nxt = buffer_step(BufferState(), (amsg(2),), (REQ,), 1)
        assert nxt == BufferState(buf=(), b=(amsg(2),))
        _, nxt = buffer_step(BufferState(buf=(amsg(4, b"p"),), b=(m,)), (amsg(2, b"q"),), (REQ,), 1)
        assert nxt.b == (amsg(2, b"q"),) and nxt.buf == (amsg(4, b"p"),)

        # encoder guarantees 2-4
        assert encoder_step(EncoderState(), (), 0) == ((), EncoderState())
        out, nxt = encoder_step(EncoderState(), (amsg(5, b"p"),), 1)
        assert out == (IdSym(5),) and nxt == EncoderState(e=True, pending=b"p")
        out, nxt = encoder_step(EncoderState(e=True, pending=b"p"), (), 2)
        assert out == (DataSym(b"p"),) and nxt == EncoderState()

        # decoder guarantees 2-4
        assert decoder_step(DecoderState(), (), 0) == ((), DecoderState())
        out, nxt = decoder_step(DecoderState(), (IdSym(5),), 1)
        assert out == () and nxt == DecoderState(d=True, last_id=5)
        out, nxt = decoder_step(DecoderState(d=True, last_id=5), (DataSym(b"p"),), 2)
        assert out == (amsg(5, b"p"),) and nxt == DecoderState()

        # wire guarantees 2-3
        assert wire_emission(((),) * 2, 0) == ()
        assert wire_emission(((IdSym(5),), (IdSym(3),)), 2) == (IdSym(3),)
        assert wire_emission(((), (DataSym(b"p"),)), 2) == (DataSym(b"p"),)

        # bus-access table rows 1-5
        ll = LogicalLayerState()
        assert logical_layer_step(ll, (), (IdSym(9),), 0) == ((IdSym(9),), (), (), ll)
        mr, ws, r, nxt = logical_layer_step(ll, (IdSym(5),), (), 1)
        assert (ws, r, nxt.lid) == ((IdSym(5),), (), 5)
        mr, ws, r, nxt = logical_layer_step(LogicalLayerState(lid=5), (DataSym(b"p"),), (), 2)
        assert (ws, r, nxt.lid) == ((), (), 5)
        mr, ws, r, nxt = logical_layer_step(LogicalLayerState(lid=5), (DataSym(b"p"),), (IdSym(5),), 2)
        assert (ws, r) == ((DataSym(b"p"),), (REQ,))
        mr, ws, r, nxt = logical_layer_step(LogicalLayerState(lid=7), (DataSym(b"p"),), (IdSym(5),), 2)
        assert (ws, r) == ((), ())

        assert time.perf_counter() - started < 1.0


def test_criterion_2_golden_trace(golden_scenario):
    with criterion(2, "golden trace"):
        trace = run_scenario(golden_scenario)
        m = amsg(5, b"\xab")
        assert trace.node_stream("ar", 1).cells[3] == (m,)
        assert trace.node_stream("r", 1).cells[3] == (REQ,)
        first = trace_to_jsonl(trace)
        second = trace_to_jsonl(run_scenario(golden_scenario))
        assert first == second
        frozen = (GOLDENS / "single_node.v12.jsonl").read_text()
        assert first == frozen
        assert trace_from_jsonl(frozen) == trace


def test_criterion_3_transmission_sweep():
    with criterion(3, "transmission sweep (1000 scenarios)"):
        started = time.perf_counter()
        for i in range(1000):
            report = check_all(run_scenario(seeded_scenario("accept3", i, nodes=2 + (i % 4), horizon=64)))
            assert not report.violations, report.violations[:3]
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"


def test_criterion_4_oracle_equivalence_exhaustive():
    with criterion(4, "oracle equivalence (exhaustive small scale)"):
        started = time.perf_counter()
        count = 0
        for scenario in two_node_scenarios():
            diverged = divergence(run_scenario(scenario))
            assert diverged is None, (scenario.injections, diverged)
            count += 1
        elapsed = time.perf_counter() - started
        assert count == 2005
        assert elapsed < 30.0, f"enumeration took {elapsed:.1f}s"


def test_criterion_5_negative_controls(golden_scenario, two_node_scenario, monkeypatch):
    with criterion(5, "negative controls"):
        # (a) the paper's literal row 2, patched into the kernel: no deliveries, and the row-3 monitor diagnoses
        # the stall
        with monkeypatch.context() as patch:
            literal_row2(patch)
            trace = run_scenario(golden_scenario)
        assert delivery_log(trace) == []
        assert check_row3_unreachable(trace), "expected a row-3 firing to diagnose the stall"

        # (b) a buffer that never takes a request, patched into the kernel: no buffer is primed, nothing is
        # delivered, and the oracle comparison diverges at its first entry
        with monkeypatch.context() as patch:
            unprimed(patch)
            trace = run_scenario(golden_scenario)
        assert delivery_log(trace) == []
        assert divergence(trace)[1] == 0

        # (c) a flipped delivery cell is caught by the broadcast-equality axiom
        text = trace_to_jsonl(run_scenario(two_node_scenario))
        lines = text.splitlines()
        tick3 = json.loads(lines[4])
        assert tick3["t"] == 3 and type(tick3["ar"]) is int  # one reference: every node gets the same cell
        tick3["ar"] = [[1, tick3["ar"]]]  # erase node 1's delivery
        lines[4] = json.dumps(tick3, sort_keys=True, separators=(",", ":"))
        mutated = trace_from_jsonl("\n".join(lines) + "\n")
        found = check_message_transmission(mutated)
        assert any(v.streams == ("ar_1", "ar_2") for v in found), found


def test_criterion_6_structural_invariants():
    with criterion(6, "structural invariants under fuzzing"):
        for i in range(300):
            trace = run_scenario(seeded_scenario("accept6", i, nodes=1 + i % 8, horizon=64))
            assert check_structural(trace) == []
