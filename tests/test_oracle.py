from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canstream import (
    AMessage,
    Injection,
    RunOptions,
    Scenario,
    ScenarioError,
    check_all,
    compare_with_simulator,
    oracle_run,
    run_scenario,
    validate_scenario,
)
from canstream.checkers import ALL_PREDICATES
from canstream.fuzzing import random_scenario, seeded_scenario
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


@pytest.mark.parametrize("entry", [run_scenario, oracle_run, compare_with_simulator], ids=lambda f: f.__name__)
def test_an_identifier_sent_by_two_nodes_is_rejected(entry):
    s = scenario(2, 8, (1, 1, 3, b"\xaa"), (2, 1, 3, b"\xbb"))
    with pytest.raises(ScenarioError, match=r"^duplicate-identifier: identifier 3 is injected at nodes 1 and 2$"):
        entry(s)


def test_a_comparison_validates_its_scenario_once(monkeypatch, two_node_scenario):
    import canstream.core as core

    calls = Counter()
    real = core.validate_scenario

    def counted(s):
        calls[s] += 1
        return real(s)

    monkeypatch.setattr(core, "validate_scenario", counted)
    assert compare_with_simulator(two_node_scenario).equivalent
    assert calls == {two_node_scenario: 1}
    assert oracle_run(two_node_scenario) == list(compare_with_simulator(two_node_scenario).oracle_log)
    assert calls == {two_node_scenario: 3}


def test_a_node_that_repeats_an_identifier_sends_both_in_arrival_order():
    # node 1 commits id 4 at once; its two id-3 messages wait behind it, in arrival order
    s = scenario(2, 12, (1, 0, 4, b"\x04"), (1, 1, 3, b"\xaa"), (1, 2, 3, b"\xbb"), (2, 0, 5, b"\x05"))
    result = compare_with_simulator(s)
    assert result.equivalent, (result.simulator_log, result.oracle_log)
    assert list(result.simulator_log) == [
        (3, amsg(4, b"\x04")), (5, amsg(3, b"\xaa")), (7, amsg(3, b"\xbb")), (9, amsg(5, b"\x05"))]


def _sweep_scenario(rng: random.Random) -> Scenario:
    """Up to 3 messages per node at any distinct (node, tick), even ticks too, with ids from range(6)."""
    nodes, horizon = rng.randint(1, 4), rng.randint(0, 40)
    slots = [(node, tick) for node in range(1, nodes + 1) for tick in range(horizon)]
    chosen = sorted(rng.sample(slots, min(len(slots), rng.randint(0, 3 * nodes))))
    return Scenario(nodes, horizon, tuple(
        Injection(node, tick, AMessage(rng.randrange(6), rng.randbytes(rng.randint(0, 8))))
        for node, tick in chosen))


def test_each_scenario_is_rejected_for_a_shared_identifier_or_agrees_with_the_oracle_and_checks():
    rng = random.Random(7)
    outcomes = Counter()
    for _ in range(1500):
        s = _sweep_scenario(rng)
        senders: dict[int, set[int]] = {}
        for inj in s.injections:
            senders.setdefault(inj.message.id, set()).add(inj.node)
        shared = any(len(nodes) > 1 for nodes in senders.values())
        try:
            result = compare_with_simulator(s)
        except ScenarioError as exc:
            assert shared and {v.rule for v in validate_scenario(s)} == {"duplicate-identifier"}, (s, exc)
            outcomes["rejected"] += 1
            continue
        assert result.equivalent, (s, result.divergent_node, result.simulator_log, result.oracle_log)
        report = check_all(result.trace, ALL_PREDICATES)
        assert report.ok(), (s, report.violations[:3])
        assert not shared, s
        outcomes["ran"] += 1
    assert outcomes["rejected"] > 100 and outcomes["ran"] > 100, outcomes


@pytest.mark.parametrize("boot", range(7))
def test_a_delayed_bootstrap_agrees_with_the_oracle_and_checks(boot):
    for i in range(40):
        s = seeded_scenario("boot", i, nodes=1 + i % 5, horizon=48)
        s = replace(s, options=RunOptions(bootstrap_request_tick=boot))
        result = compare_with_simulator(s)
        assert result.equivalent, (s, result.divergent_node, result.simulator_log, result.oracle_log)
        report = check_all(result.trace)
        assert report.ok(), (s, report.violations[:3])


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
    stalled = replace(golden_scenario, options=RunOptions(bootstrap_request_tick=None))
    result = compare_with_simulator(stalled)
    assert not result.equivalent
    assert result.simulator_log == ()
    assert result.oracle_log  # the oracle states what should have been delivered
    assert result.first_divergence == 0


def test_compare_detects_stall_in_literal_row2_mode(golden_scenario):
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
