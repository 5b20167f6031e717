from __future__ import annotations

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canstream import (
    DataSym,
    IdSym,
    ModelViolation,
    Scenario,
    ScenarioError,
    assemble_trace,
    check_all,
    divergence,
    run_scenario,
    tick_system,
    validate_scenario,
)
from canstream.components import (REQ_CELL, DecoderState, EncoderState, buffer_emission, buffer_step, decoder_step,
                                  encoder_step)
from canstream.core import PER_NODE_FAMILIES
from canstream.fuzzing import random_scenario, seeded_scenario
from canstream.serialize import trace_to_jsonl
from canstream.system import _UNSEEN, delivery_log, initial_state
from .conftest import amsg, saturated, scenario, valid_scenarios


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


def test_arrivals_behind_a_busy_offer_slot_pop_by_priority():
    # node 1 offers id 4 from tick 0 and loses the first frame to node 2's id 0, so ids 9 and 2 queue behind it; the
    # handoff after its frame picks id 2 first
    s = scenario(2, 12, (1, 0, 4, b"\x04"), (2, 0, 0, b"\x00"), (1, 1, 9, b"\x01"), (1, 3, 2, b"\x02"))
    t = run_scenario(s)
    assert [(tick, m.id) for tick, m in delivery_log(t)] == [(3, 0), (5, 4), (7, 2), (9, 9)]
    assert divergence(t) is None


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


@settings(max_examples=300, deadline=None)
@given(valid_scenarios())
def test_every_valid_scenario_runs_to_its_horizon(s):
    """The run also agrees with the oracle on every node and checks clean."""
    assert validate_scenario(s) == []
    trace = run_scenario(s)
    assert trace.horizon == s.horizon
    assert divergence(trace) is None
    assert check_all(trace).ok()


def _steps(s: Scenario, last: list | None = None):
    """Step tick_system from the initial state over the scenario's ticks: per tick, the state entering it, its record
    and the next state. A reuse record `last` is kept across the ticks, as run_scenario keeps one."""
    state = initial_state(s.node_count)
    for t in range(s.horizon):
        cells = [()] * s.node_count
        for inj in s.injections:
            if inj.tick == t:
                cells[inj.node - 1] = (inj.message,)
        after, record = tick_system(state, cells, t, last)
        yield state, record, after
        state = after


def _reuse_record(s: Scenario) -> list:
    return [_UNSEEN] * (4 * s.node_count + 1)


def test_a_state_that_does_not_change_stays_the_same_object():
    """Between ticks, every component state is the previous object or a different value."""
    for i in range(40):
        s = seeded_scenario("identity", i, nodes=1 + i % 5, horizon=64)
        for before, _, after in _steps(s, _reuse_record(s)):
            pairs = [pair for key in ("buffers", "encoders", "decoders", "llayers")
                     for pair in zip(getattr(before, key), getattr(after, key))]
            assert all(old is new or old != new for old, new in pairs), (i, after)


@pytest.mark.parametrize("s", [saturated(seed) for seed in range(3)]
                         + [seeded_scenario("accept3", i, nodes=2 + i % 4, horizon=64) for i in range(12)])
def test_every_encoder_and_decoder_result_is_that_of_a_fresh_call(s):
    """The kernel may reuse a step's result; each one must equal the step called afresh on the state it was given.

    The buffer's request at tick t is the success request of row 4, or the standing request of a node whose offer slot
    is empty."""
    for t, (before, record, after) in enumerate(_steps(s, _reuse_record(s))):
        cells, rows = dict(zip(PER_NODE_FAMILIES, record)), record[-2]
        for i, buf in enumerate(before.buffers):
            assert cells["as"][i] == buffer_emission(buf, t), (t, i)
            req = REQ_CELL if rows[i] == 4 or not buf.b else ()
            assert buffer_step(buf, cells["a"][i], req, t)[1] == after.buffers[i], (t, i)
            assert encoder_step(before.encoders[i], cells["as"][i], t) == (cells["ms"][i], after.encoders[i]), (t, i)
            assert decoder_step(before.decoders[i], cells["mr"][i], t) == (cells["ar"][i], after.decoders[i]), (t, i)


@pytest.mark.parametrize("s", [saturated(seed, nodes=4 + seed % 8) for seed in range(4)]
                         + [seeded_scenario("derived", i, nodes=1 + i % 5, horizon=64) for i in range(12)])
def test_the_states_a_trace_leaves_out_follow_from_its_streams(s):
    """Entering tick t, a node's encoder holds the payload of as(t-1)'s message exactly when ms(t-1) is an identifier,
    its decoder holds k exactly when mr(t-1) is [id(k)], and its bus-access layer's lid is the last identifier in its
    ms, else 0."""
    encoders, decoders, lids = [EncoderState()] * s.node_count, [DecoderState()] * s.node_count, [0] * s.node_count
    for before, record, _ in _steps(s):
        assert (before.encoders, before.decoders) == (tuple(encoders), tuple(decoders))
        assert [ll.lid for ll in before.llayers] == lids
        cells = dict(zip(PER_NODE_FAMILIES, record))
        for i, (as_cell, ms, mr) in enumerate(zip(cells["as"], cells["ms"], cells["mr"])):
            framing = ms and type(ms[0]) is IdSym
            encoders[i] = EncoderState(True, as_cell[0].data) if framing else EncoderState()
            decoders[i] = DecoderState(True, mr[0].value) if mr and type(mr[0]) is IdSym else DecoderState()
            lids[i] = ms[0].value if framing else lids[i]


def test_a_node_re_offering_a_lost_frame_reuses_its_encoder_steps(monkeypatch):
    import canstream.system as system

    calls = {"encoder_step": 0, "decoder_step": 0, "buffer_step": 0}

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
    assert calls["buffer_step"] < 0.2 * s.node_count * s.horizon  # a loser's buffer keeps its state and inputs


def _stepped_by_hand(s: Scenario):
    """The trace of stepping tick_system from the initial state, one call per tick and no reuse record."""
    return assemble_trace(s, [record for _, record, _ in _steps(s)])


@pytest.mark.parametrize("s", [seeded_scenario("by-hand", i, nodes=1 + i % 5, horizon=32) for i in range(12)]
                         + [saturated(2), scenario(3, 0)])
def test_stepping_the_kernel_by_hand_gives_the_run(s):
    assert _stepped_by_hand(s) == run_scenario(s)


@pytest.mark.parametrize("count", [2, 4])
def test_a_row_of_cells_for_another_node_count_is_an_error(count):
    with pytest.raises(ValueError, match="^zip"):
        tick_system(initial_state(3), [()] * count, 0)


@settings(max_examples=200, deadline=None)
@given(valid_scenarios())
def test_stepping_any_valid_scenario_by_hand_gives_the_run_byte_for_byte(s):
    """Without a reuse record kept across ticks, the kernel gives the run's trace and its trace file."""
    by_hand, run = _stepped_by_hand(s), run_scenario(s)
    assert by_hand == run
    assert trace_to_jsonl(by_hand) == trace_to_jsonl(run)


def test_the_python_blocks_of_the_readme_run():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2  # the library example and the hand-stepped run
    for k, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {k}", "exec"), {})


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

    def failing(state, ms, wr, t):
        if t == k:
            calls_at_k.append(t)
            if len(calls_at_k) == 2:
                raise ModelViolation(f"synthetic failure at tick {t}")
        return real(state, ms, wr, t)

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


FAILURE_TICKS = (0, 1, 6, 11)


@pytest.mark.parametrize("k", FAILURE_TICKS)
def test_a_component_failure_leaves_run_scenario_as_its_model_violation(monkeypatch, k):
    """A failure at a tick's first step, in its node loop, or at its last step is raised as it is; no trace is made.

    Every node gets a message at each tick k, so each node's buffer input is new there and its buffer step is
    called, not taken from the reuse record."""
    s = scenario(3, 16, *[(n, t, 4 * n + j, bytes([j])) for n in (1, 2, 3) for j, t in enumerate(FAILURE_TICKS)])
    failures = [lambda patch: _fail_call_at(patch, "wire_emission", k),
                lambda patch: _fail_second_call_at(patch, k),
                lambda patch: _fail_call_at(patch, "buffer_step", k, nth=3)]
    for fail in failures:
        with monkeypatch.context() as patch:
            fail(patch)
            with pytest.raises(ModelViolation) as info:
                run_scenario(s)
        assert type(info.value) is ModelViolation and info.value.__cause__ is None
        assert str(info.value) == f"synthetic failure at tick {k}"
