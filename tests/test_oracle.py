from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from canstream import RunOptions, compare_with_simulator, oracle_run
from canstream.fuzzing import random_scenario
from .conftest import amsg, scenario


def ids_of(log):
    return [(t, m.id) for t, m in log]


def test_single_message_delivery():
    log = oracle_run(scenario(1, 6, (1, 0, 5, b"\xab")))
    assert log == [(3, amsg(5, b"\xab"))]


def test_priority_order_between_nodes():
    log = oracle_run(scenario(2, 8, (1, 0, 3, b"\xaa"), (2, 0, 5, b"\xbb")))
    assert ids_of(log) == [(3, 3), (5, 5)]


def test_no_injections_no_deliveries():
    assert oracle_run(scenario(2, 8)) == []


def test_committed_message_is_not_preempted():
    # A higher-priority arrival must wait for the already committed slot.
    s = scenario(2, 12, (1, 0, 4, b"\xda"), (1, 1, 1, b"\xdb"), (2, 0, 2, b"\xdc"))
    assert ids_of(oracle_run(s)) == [(3, 2), (5, 4), (7, 1)]


def test_deliveries_beyond_horizon_are_dropped():
    assert oracle_run(scenario(1, 4, (1, 0, 5, b"x"))) == [(3, amsg(5, b"x"))]
    assert oracle_run(scenario(1, 3, (1, 0, 5, b"x"))) == []


def test_duplicate_min_ids_are_flagged():
    s = scenario(2, 8, (1, 0, 3, b"\xaa"), (2, 0, 3, b"\xbb"))
    result = compare_with_simulator(s)
    assert result.flagged_ticks


def test_compare_equivalent_on_nominal_scenario(two_node_scenario):
    result = compare_with_simulator(two_node_scenario)
    assert result.equivalent
    assert result.first_divergence is None
    assert result.divergent_node is None


def test_compare_empty_scenario():
    result = compare_with_simulator(scenario(2, 6))
    assert result.equivalent
    assert result.simulator_log == ()


def test_compare_detects_stall_without_priming(golden_scenario):
    from dataclasses import replace

    stalled = replace(golden_scenario, options=RunOptions(bootstrap_request_tick=None))
    result = compare_with_simulator(stalled)
    assert not result.equivalent
    assert result.simulator_log == ()
    assert result.oracle_log  # the oracle states what should have been delivered
    assert result.first_divergence == 0


def test_compare_detects_stall_in_literal_row2_mode(golden_scenario):
    from dataclasses import replace

    stalled = replace(golden_scenario, options=RunOptions(fidelity_row2=True))
    result = compare_with_simulator(stalled)
    assert not result.equivalent and result.simulator_log == ()


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_equivalence_on_random_scenarios(rng):
    s = random_scenario(rng, nodes=rng.randint(1, 4), horizon=32)
    result = compare_with_simulator(s)
    assert result.equivalent, (result.simulator_log, result.oracle_log)


def test_compare_checks_every_node_not_only_node_1(monkeypatch, two_node_scenario):
    from dataclasses import replace

    import canstream.oracle as oracle
    from canstream import TimedStream

    real = oracle.run_scenario

    def node_2_hears_nothing(s):
        trace = real(s)
        ar = trace.streams["ar"]
        deaf = TimedStream(((),) * trace.horizon)
        return replace(trace, streams={**trace.streams, "ar": (ar[0], deaf)})

    monkeypatch.setattr(oracle, "run_scenario", node_2_hears_nothing)
    result = compare_with_simulator(two_node_scenario)
    assert not result.equivalent
    assert result.divergent_node == 2
    assert result.simulator_log == ()
    assert ids_of(result.oracle_log) == [(3, 3), (5, 5)]
    assert result.first_divergence == 0
