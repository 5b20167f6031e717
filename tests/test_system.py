from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canstream import (
    DataSym,
    IdSym,
    ModelViolation,
    RunError,
    RunOptions,
    Scenario,
    ScenarioError,
    assemble_trace,
    run_scenario,
    tick_system,
)
from canstream.components import decoder_step, encoder_step
from canstream.fuzzing import random_scenario, seeded_scenario
from canstream.serialize import trace_from_jsonl, trace_to_jsonl
from canstream.system import delivery_log, initial_state
from .conftest import amsg, saturated, scenario


def cells(trace, family, node=1):
    if family == "wr":
        return [list(c) for c in trace.wire.cells]
    return [list(c) for c in trace.node_stream(family, node).cells]


def test_golden_single_node_full_unroll(golden_scenario):
    """Every stream of the canonical one-message run, tick by tick."""
    m = amsg(5, b"\xab")
    t = run_scenario(golden_scenario)
    assert cells(t, "a") == [[m], [], [], [], [], []]
    assert cells(t, "as") == [[], [m], [], [], [], []]
    assert cells(t, "ms") == [[], [IdSym(5)], [DataSym(b"\xab")], [], [], []]
    assert cells(t, "ws") == [[], [IdSym(5)], [DataSym(b"\xab")], [], [], []]
    assert cells(t, "wr") == [[], [], [IdSym(5)], [DataSym(b"\xab")], [], []]
    assert cells(t, "mr") == cells(t, "wr")
    assert cells(t, "ar") == [[], [], [], [m], [], []]
    assert cells(t, "r") == [[0], [], [], [0], [], []]
    assert t.rows == ((1,), (2,), (4,), (1,), (1,), (1,))


def test_two_node_race_loser_retries(two_node_scenario):
    t = run_scenario(two_node_scenario)
    assert delivery_log(t, 1) == [(3, amsg(3, b"\xaa")), (5, amsg(5, b"\xbb"))]
    assert delivery_log(t, 2) == delivery_log(t, 1)
    # the loser re-offers its slot at the next odd tick
    assert cells(t, "as", 2)[3] == [amsg(5, b"\xbb")]
    assert t.rows[2] == (4, 5)  # winner transmits, loser swallows


def test_quiescent_system():
    t = run_scenario(scenario(2, 4))
    for family in ("as", "ar", "ms", "mr", "ws", "r"):
        for node in (1, 2):
            flat = [c for c in t.node_stream(family, node).cells if c]
            if family == "r":
                assert flat == [(0,)]  # the bootstrap priming request
            else:
                assert flat == []


def test_determinism(two_node_scenario):
    assert run_scenario(two_node_scenario) == run_scenario(two_node_scenario)


def test_invalid_scenario_rejected():
    bad = scenario(1, 4, (1, 9, 5, b""))  # injection beyond horizon
    with pytest.raises(ScenarioError):
        run_scenario(bad)


def test_zero_horizon_runs_empty():
    t = run_scenario(scenario(2, 0))
    assert t.horizon == 0
    assert t.rows == ()


def test_backlog_drains_in_priority_order():
    s = scenario(1, 14, (1, 0, 9, b"\x01"), (1, 1, 7, b"\x02"), (1, 2, 2, b"\x03"))
    t = run_scenario(s)
    # id 9 is committed first; the handoff after its frame picks the smallest
    # waiting id, including the message arriving in the handoff tick itself
    assert [(tick, m.id) for tick, m in delivery_log(t)] == [(3, 9), (5, 2), (7, 7)]


def test_handoff_with_empty_queue_keeps_node_ready():
    s = scenario(1, 10, (1, 0, 9, b"\x01"), (1, 3, 2, b"\x03"))
    t = run_scenario(s)
    # frame of 9 runs t=1..2; the handoff at t=2 finds an empty queue, so the
    # tick-3 arrival commits immediately and goes out in the next frame
    assert [(tick, m.id) for tick, m in delivery_log(t)] == [(3, 9), (7, 2)]


def test_idle_node_wakes_up_for_late_traffic():
    s = scenario(1, 20, (1, 0, 1, b"\x01"), (1, 11, 2, b"\x02"))
    t = run_scenario(s)
    assert [(tick, m.id) for tick, m in delivery_log(t)] == [(3, 1), (15, 2)]


def test_delayed_bootstrap_holds_traffic_then_pops_by_priority():
    from canstream.oracle import compare_with_simulator

    s = scenario(1, 12, (1, 1, 9, b"\x01"), (1, 3, 2, b"\x02"),
                 bootstrap_request_tick=4)
    t = run_scenario(s)
    assert [(tick, m.id) for tick, m in delivery_log(t)] == [(7, 2), (9, 9)]
    assert compare_with_simulator(s).equivalent


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_internal_guarantees_on_random_runs(rng):
    from canstream import check_all

    s = random_scenario(rng, nodes=rng.randint(1, 4), horizon=24)
    t = run_scenario(s)
    report = check_all(t, predicates=("msg1", "format", "wire", "row3", "structural"))
    assert report.ok(), report.violations[:3]
    for node in range(1, s.node_count + 1):
        assert cells(t, "mr", node) == cells(t, "wr")


def test_a_state_that_does_not_change_stays_the_same_object():
    """Between ticks, every component state is the previous object or a different value."""
    for i in range(40):
        states = run_scenario(seeded_scenario("identity", i, nodes=1 + i % 5, horizon=64)).states
        for prev, snap in zip(states, states[1:]):
            pairs = [pair for key in ("buffers", "encoders", "decoders", "llayers") for pair in zip(prev[key], snap[key])]
            assert all(old is new or old != new for old, new in pairs), (i, snap)


@pytest.mark.parametrize("s", [saturated(seed) for seed in range(3)]
                         + [seeded_scenario("accept3", i, nodes=2 + i % 4, horizon=64) for i in range(12)])
def test_every_encoder_and_decoder_result_is_that_of_a_fresh_call(s):
    """The kernel may reuse a step's result; each one must equal the step called afresh."""
    trace = run_scenario(s)
    stream = {family: [trace.node_stream(family, i + 1).cells for i in range(s.node_count)]
              for family in ("as", "ms", "mr", "ar")}
    for t, (before, after) in enumerate(zip(trace.states, trace.states[1:])):
        for i in range(s.node_count):
            assert encoder_step(before["encoders"][i], stream["as"][i][t], t) == (
                stream["ms"][i][t], after["encoders"][i]), (t, i)
            assert decoder_step(before["decoders"][i], stream["mr"][i][t], t) == (
                stream["ar"][i][t], after["decoders"][i]), (t, i)


def test_a_node_re_offering_a_lost_frame_reuses_its_encoder_steps(monkeypatch):
    import canstream.system as system

    calls = {"encoder_step": 0, "decoder_step": 0}

    def counted(name):
        real = getattr(system, name)

        def step(*args):
            calls[name] += 1
            return real(*args)
        return step

    for name in calls:
        monkeypatch.setattr(system, name, counted(name))
    s = saturated(0)
    trace = run_scenario(s)
    assert sum(map(bool, trace.wire.cells)) > 0.9 * s.horizon  # saturated: losers re-offer on every frame
    assert calls["encoder_step"] < 0.1 * s.node_count * s.horizon
    assert calls["decoder_step"] <= s.horizon


def test_the_kernel_without_the_step_record_gives_the_same_run(monkeypatch):
    import canstream.system as system

    s = saturated(1, nodes=6, horizon=48)
    full = run_scenario(s)
    real = system.tick_system
    monkeypatch.setattr(system, "tick_system", lambda state, cells, t, options, last: real(state, cells, t, options))
    assert run_scenario(s) == full


def _stepped_by_hand(s: Scenario):
    """The trace of stepping tick_system from the initial state, one call per tick and no reuse record."""
    state, records, states = initial_state(s.node_count), [], []
    for t in range(s.horizon):
        cells = [()] * s.node_count
        for inj in s.injections:
            if inj.tick == t:
                cells[inj.node - 1] = (inj.message,)
        states.append({"buffers": state.buffers, "encoders": state.encoders, "decoders": state.decoders,
                       "llayers": state.llayers})
        state, record = tick_system(state, cells, t, s.options)
        records.append(record)
    return assemble_trace(s, records, states)


@pytest.mark.parametrize("s", [
    replace(seeded_scenario("by-hand", i, nodes=1 + i % 5, horizon=32),
            options=RunOptions(bootstrap_request_tick=(0, None, 5)[i % 3], fidelity_row2=i % 4 == 3))
    for i in range(12)] + [saturated(2), scenario(3, 0)])
def test_stepping_the_kernel_by_hand_gives_the_run(s):
    assert _stepped_by_hand(s) == run_scenario(s)


def test_seeded_scenarios_are_reproducible():
    a = seeded_scenario(42, 7, nodes=3, horizon=64)
    b = seeded_scenario(42, 7, nodes=3, horizon=64)
    assert a == b


# -- a component failing mid-run ------------------------------------------------

def _fail_second_call_at(monkeypatch, k):
    """Make canstream.system's bus-access step raise for the second node at tick k."""
    import canstream.system as system

    real = system.logical_layer_step
    calls_at_k = []

    def failing(state, ms, wr, t, **kwargs):
        if t == k:
            calls_at_k.append(t)
            if len(calls_at_k) == 2:
                raise ModelViolation(f"synthetic failure at tick {t}")
        return real(state, ms, wr, t, **kwargs)

    monkeypatch.setattr(system, "logical_layer_step", failing)


def _fail_call_at(monkeypatch, name, k, nth=1):
    """Make canstream.system's `name` step, which takes the tick last, raise at its nth call at tick k."""
    import canstream.system as system

    real = getattr(system, name)
    calls_at_k = []

    def failing(*args, **kwargs):
        if args[-1] == k:
            calls_at_k.append(k)
            if len(calls_at_k) == nth:
                raise ModelViolation(f"synthetic failure at tick {k}")
        return real(*args, **kwargs)

    monkeypatch.setattr(system, name, failing)


@pytest.mark.parametrize("k", [0, 1, 6, 11])
def test_run_error_trace_ends_before_the_failing_tick(monkeypatch, k):
    """A failure at a tick's first step, in its node loop, or at its last step records ticks 0..k-1."""
    s = seeded_scenario("partial", 3, nodes=3, horizon=16)
    full = run_scenario(s)
    failures = [lambda patch: _fail_call_at(patch, "wire_emission", k),
                lambda patch: _fail_second_call_at(patch, k),
                lambda patch: _fail_call_at(patch, "buffer_step", k, nth=3)]
    for fail in failures:
        with monkeypatch.context() as patch:
            fail(patch)
            with pytest.raises(RunError, match=f"tick {k}:") as info:
                run_scenario(s)
        trace = info.value.trace
        assert trace.horizon == k
        assert trace.error == {"tick": k, "message": f"synthetic failure at tick {k}"}
        assert set(trace.streams) == set(full.streams)
        for family, per_node in trace.streams.items():
            assert len(per_node) == 3
            for partial, whole in zip(per_node, full.streams[family]):
                assert partial.cells == whole.cells[:k], family
        assert trace.wire.cells == full.wire.cells[:k]
        assert trace.rows == full.rows[:k]
        assert trace.states == full.states[:k]
        assert trace_from_jsonl(trace_to_jsonl(trace)) == trace
