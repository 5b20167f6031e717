from __future__ import annotations

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canstream import (
    AMessage,
    Injection,
    RunError,
    RunOptions,
    Scenario,
    ScenarioError,
    check_all,
    run_scenario,
)
from canstream.cli import EXIT_INPUT, main
from canstream.fuzzing import random_scenario, seeded_scenario
from canstream.serialize import (
    _dumps,
    report_to_dict,
    report_to_json,
    scenario_from_json,
    scenario_to_json,
    trace_from_jsonl,
    trace_to_jsonl,
)
from .conftest import scenario
from .test_system import _fail_second_call_at

GOLDENS = Path(__file__).parent / "goldens"


def test_scenario_round_trip(two_node_scenario):
    text = scenario_to_json(two_node_scenario)
    assert scenario_from_json(text) == two_node_scenario


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False))
def test_scenario_round_trip_random(rng):
    s = random_scenario(rng, nodes=rng.randint(1, 5), horizon=16)
    assert scenario_from_json(scenario_to_json(s)) == s


def test_trace_round_trip(two_node_scenario):
    t = run_scenario(two_node_scenario)
    assert trace_from_jsonl(trace_to_jsonl(t)) == t


def test_trace_round_trip_zero_horizon():
    t = run_scenario(scenario(2, 0))
    assert trace_from_jsonl(trace_to_jsonl(t)) == t


def test_trace_bytes_are_deterministic(two_node_scenario):
    a = trace_to_jsonl(run_scenario(two_node_scenario))
    b = trace_to_jsonl(run_scenario(two_node_scenario))
    assert a == b


def test_trace_is_line_delimited_json(golden_scenario):
    text = trace_to_jsonl(run_scenario(golden_scenario))
    lines = text.strip().split("\n")
    assert len(lines) == 1 + 6  # header + one line per tick
    header = json.loads(lines[0])
    assert header["format"] == "canstream-trace"
    for line in lines[1:]:
        json.loads(line)


def test_trace_rejects_foreign_files():
    with pytest.raises(ValueError):
        trace_from_jsonl('{"something": "else"}\n')
    with pytest.raises(ValueError):
        trace_from_jsonl("")


def test_report_serializes(golden_scenario):
    report = check_all(run_scenario(golden_scenario))
    obj = report_to_dict(report)
    assert obj["ok"] is True
    assert {e["predicate"] for e in obj["predicates"]} == {
        "msg1", "format", "wire", "transmission", "row3", "structural"
    }
    json.loads(report_to_json(report))


def test_scenario_options_defaults():
    s = scenario_from_json('{"nodeCount": 1, "horizon": 4}')
    assert s.options == RunOptions(bootstrap_request_tick=0, fidelity_row2=False)


@pytest.mark.parametrize("key,rule,value", [
    ("reqDelay", "req-delay", 0), ("reqDelay", "req-delay", 2),
    ("mtLatency", "mt-latency", 1), ("mtLatency", "mt-latency", 3),
])
def test_fixed_options_reject_any_other_value(key, rule, value):
    with pytest.raises(ScenarioError, match=f"^{rule}: {key} is fixed at .*, got {value}$"):
        scenario_from_json(json.dumps({"nodeCount": 1, "horizon": 4, "options": {key: value}}))


def test_fixed_options_load_explicit_or_missing_and_are_not_written():
    explicit = scenario_from_json('{"nodeCount": 1, "horizon": 4, "options": {"reqDelay": 1, "mtLatency": 2}}')
    missing = scenario_from_json('{"nodeCount": 1, "horizon": 4, "options": {}}')
    assert explicit == missing == scenario_from_json('{"nodeCount": 1, "horizon": 4}')
    assert json.loads(scenario_to_json(explicit))["options"] == {"bootstrapRequestTick": 0, "fidelityMode": False}


def test_scenario_null_bootstrap_survives():
    s = scenario_from_json(
        '{"nodeCount": 1, "horizon": 4, "options": {"bootstrapRequestTick": null}}'
    )
    assert s.options.bootstrap_request_tick is None
    assert scenario_from_json(scenario_to_json(s)) == s


def _any_scenario(rng: random.Random, nodes: int, horizon: int) -> Scenario:
    """Anything validation accepts: any tick, ids repeated by one node, empty payloads, all options."""
    slots = rng.sample([(n, t) for n in range(1, nodes + 1) for t in range(horizon)],
                       min(nodes * horizon, rng.randint(0, 2 * nodes)))
    # each node draws from its own identifiers, so an identifier repeats within one node only
    injections = tuple(
        Injection(node, tick, AMessage(nodes * rng.randrange(4) + node - 1, rng.randbytes(rng.randint(0, 8))))
        for node, tick in sorted(slots)
    )
    options = RunOptions(bootstrap_request_tick=rng.choice([0, 0, 1, 4, None]), fidelity_row2=rng.random() < 0.2)
    return Scenario(nodes, horizon, injections, options)


def _partial(monkeypatch, run, k: int):
    """The RunError trace of `run` when the second node's bus-access step fails at tick k."""
    with monkeypatch.context() as patch:
        _fail_second_call_at(patch, k)
        with pytest.raises(RunError) as info:
            run()
    return info.value.trace


def test_trace_codec_is_canonical_and_round_trips_over_every_kind_of_run(monkeypatch):
    rng = random.Random(2024)
    traces = [run_scenario(seeded_scenario("codec", i, nodes=1 + i % 6, horizon=rng.choice([4, 16, 64])))
              for i in range(60)]
    traces += [run_scenario(_any_scenario(rng, 1 + i % 6, rng.choice([0, 1, 2, 5, 16, 40]))) for i in range(100)]
    for i in range(10):
        s = seeded_scenario("partial", i, nodes=2 + i % 3, horizon=16)
        traces.append(_partial(monkeypatch, lambda: run_scenario(s), i))
    kinds = {(t.node_count, t.horizon == 0, t.error is not None) for t in traces}
    assert {k[0] for k in kinds} == set(range(1, 7)) and any(k[1] for k in kinds) and any(k[2] for k in kinds)
    options = [t.scenario.options for t in traces]
    assert any(o.fidelity_row2 for o in options) and any(o.bootstrap_request_tick not in (0, None) for o in options)
    assert any(i.tick % 2 == 0 and i.tick for t in traces for i in t.scenario.injections)
    for trace in traces:
        text = trace_to_jsonl(trace)
        for line in text.splitlines():
            assert line == _dumps(json.loads(line))
        loaded = trace_from_jsonl(text)
        assert loaded == trace
        assert trace_to_jsonl(loaded) == text


def test_equal_states_dump_the_same_whether_or_not_they_are_the_same_objects():
    trace = run_scenario(seeded_scenario("copies", 3, nodes=3, horizon=32))
    copied = tuple(
        {key: replace(value) if key == "wire" else tuple(map(replace, value)) for key, value in snap.items()}
        for snap in trace.states
    )
    assert copied == trace.states and copied[1]["wire"] is not trace.states[1]["wire"]
    assert trace_to_jsonl(replace(trace, states=copied)) == trace_to_jsonl(trace)


# Version 1 traces, written before tick lines held only changes, and the scenarios they ran.
V1_GOLDENS = {
    "single_node.jsonl": scenario(1, 6, (1, 0, 5, b"\xab")),
    "three_node.v1.jsonl": seeded_scenario("v1-fixture", 2, nodes=3, horizon=24),
}


@pytest.mark.parametrize("name", sorted(V1_GOLDENS))
def test_version_1_traces_load_to_the_trace_of_a_fresh_run(name):
    text = (GOLDENS / name).read_text()
    assert json.loads(text.splitlines()[0])["version"] == 1
    trace = run_scenario(V1_GOLDENS[name])
    assert any(trace.streams["ar"][0].cells)
    loaded = trace_from_jsonl(text)
    assert loaded == trace
    assert trace_to_jsonl(loaded) == trace_to_jsonl(trace)


def test_a_version_1_line_lists_every_node():
    lines = (GOLDENS / "three_node.v1.jsonl").read_text().splitlines()
    _edit_tick(5, lambda tick: tick["ms"].pop())(lines)
    with pytest.raises(ValueError, match=r"^tick 5: field 'ms': 2 entries for 3 nodes$"):
        trace_from_jsonl("\n".join(lines) + "\n")


def _swap_ticks_1_and_2(lines):
    lines[2], lines[3] = lines[3], lines[2]


def _edit_tick(t, edit):
    def mutate(lines):
        tick = json.loads(lines[1 + t])
        edit(tick)
        lines[1 + t] = _dumps(tick)
    return mutate


def _unknown_symbol_kind(lines):
    t = next(t for t in range(1, len(lines)) if json.loads(lines[t])["ws"])
    _edit_tick(t - 1, lambda tick: tick["ws"][0][1][0].update(sym="bogus"))(lines)


def _edit_header(edit):
    def mutate(lines):
        header = json.loads(lines[0])
        edit(header)
        lines[0] = _dumps(header)
    return mutate


def _error_line_after_scenario_horizon(lines):
    """A failed run's trace whose header horizon exceeds its scenario's."""
    _edit_header(lambda header: header["scenario"].update(horizon=header["horizon"] - 1))(lines)
    lines.append(_dumps({"error": {"tick": 8, "message": "stop"}}))


def _header_not_an_object(lines):
    lines[0] = "[1]"


def _add_header_injection(injection):
    return _edit_header(lambda header: header["scenario"]["injections"].append(injection))


def _set_message(t, family, k, **fields):
    """Set fields of the message in tick t's k-th pair of a family."""
    return _edit_tick(t, lambda tick: tick[family][k][1][0].update(fields))


def _set_state(family, k, key, value):
    """Set one field of tick 0's k-th state of a component family ("wire" has one state)."""
    def edit(tick):
        state = tick["state"][family]
        (state if family == "wire" else state[k][1])[key] = value
    return _edit_tick(0, edit)


def _edit_wire_sources(edit):
    """Edit the sources of the first wire state written with a two-symbol latch."""
    def mutate(lines):
        wires = [json.loads(line)["state"].get("wire", {}) for line in lines[1:]]
        t = next(t for t, wire in enumerate(wires) if len(wire.get("latch", ())) == 2)
        _edit_tick(t, lambda tick: edit(tick["state"]["wire"]["sources"]))(lines)
    return mutate


MALFORMED = {
    "null scenario": (_edit_header(lambda header: header.update(scenario=None)),
                      r"^header field 'scenario': scenario must be an object, got null$"),
    "header not an object": (_header_not_an_object, r"^header must be a JSON object, got a list$"),
    "scenario that breaks the rules": (
        _add_header_injection({"node": 7, "tick": 99, "id": -4, "data": "00" * 12}),
        r"^header field 'scenario': node-range: node 7 outside \[1..2\]; "
        r"out-of-horizon: injection tick 99 outside \[0..7\]; identifier: identifier -4 is negative; "
        r"payload: payload of 12 octets exceeds 8$"),
    "scenario with an identifier at two nodes": (
        _add_header_injection({"node": 2, "tick": 2, "id": 3, "data": "cc"}),
        r"^header field 'scenario': duplicate-identifier: identifier 3 is injected at nodes 1 and 2$"),
    "float identifier": (_set_message(0, "a", 1, id=5.7), r"^tick 0: field 'a': id must be an integer, got 5.7$"),
    "string identifier": (_set_message(0, "a", 1, id="5"), r'^tick 0: field \'a\': id must be an integer, got "5"$'),
    "float copy of an identifier read before": (_set_message(1, "as", 0, id=3.0),
                                                r"^tick 1: field 'as': id must be an integer, got 3.0$"),
    "payload with a space": (_set_message(0, "a", 1, data=" ab"),
                             r'^tick 0: field \'a\': data must be a hex string, got " ab"$'),
    "payload as a list of octets": (_set_message(0, "a", 1, data=[171]),
                                    r"^tick 0: field 'a': data must be a hex string, got \[171\]$"),
    "data symbol with a space": (_edit_tick(2, lambda tick: tick["ms"][0][1][0].update(value=" ab")),
                                 r'^tick 2: field \'ms\': value must be a hex string, got " ab"$'),
    "float identifier symbol": (_edit_tick(1, lambda tick: tick["ms"][0][1][0].update(value=3.5)),
                                r"^tick 1: field 'ms': value must be an integer, got 3.5$"),
    "bool row": (_edit_tick(0, lambda tick: tick["rows"].__setitem__(0, True)),
                 r"^tick 0: field 'rows': rows must be a list of integers, got \[true, 1\]$"),
    "bool request token": (_edit_tick(0, lambda tick: tick["r"][0].__setitem__(1, [False])),
                           r"^tick 0: field 'r': request cell must be a list of integers, got \[false\]$"),
    "unknown version": (_edit_header(lambda header: header.update(version=3)),
                        r"^header field 'version': expected 1 or 2, got 3$"),
    "node count differs from the scenario": (_edit_header(lambda header: header["scenario"].update(nodeCount=3)),
                                             r"^header field 'nodeCount': expected the scenario's 3, got 2$"),
    "horizon differs from the scenario": (_edit_header(lambda header: header["scenario"].update(horizon=99)),
                                          r"^header field 'horizon': expected the scenario's 99, got 8$"),
    "horizon beyond the scenario with an error line": (_error_line_after_scenario_horizon,
                                                       r"^header field 'horizon': at most the scenario's 7, got 8$"),
    "swapped ticks": (_swap_ticks_1_and_2, r"tick 1: field 't'"),
    "extra node entry": (_edit_tick(3, lambda tick: tick["rows"].append(1)), r"tick 3: field 'rows'"),
    "short family list": (_edit_tick(0, lambda tick: tick["state"]["encoders"].pop()),
                          r"tick 0: field 'state': tick 0 must give every component state"),
    "node index out of range": (_edit_tick(1, lambda tick: tick["as"].append([2, []])),
                                r"tick 1: field 'as': node index 2 out of order or out of range"),
    "negative node index": (_edit_tick(1, lambda tick: tick["as"][0].__setitem__(0, -1)),
                            r"tick 1: field 'as': node index -1 out of order or out of range"),
    "node indices out of order": (_edit_tick(0, lambda tick: tick["a"].reverse()),
                                  r"tick 0: field 'a': node index 0 out of order or out of range"),
    "missing family": (_edit_tick(4, lambda tick: tick.pop("mr")), r"tick 4: field 'mr'"),
    "unknown symbol kind": (_unknown_symbol_kind, r"tick \d+: field 'ws': unknown symbol kind 'bogus'"),
    "string decoding flag": (_set_state("decoders", 0, "d", "yes"),
                             r'^tick 0: field \'state\': d must be true or false, got "yes"$'),
    "float last identifier": (_set_state("decoders", 1, "lastId", 1.5),
                              r"^tick 0: field 'state': lastId must be an integer or null, got 1.5$"),
    "integer encoding flag": (_set_state("encoders", 0, "e", 0),
                              r"^tick 0: field 'state': e must be true or false, got 0$"),
    "pending payload not hex": (_set_state("encoders", 1, "pending", "xyz"),
                                r'^tick 0: field \'state\': pending must be a hex string, got "xyz"$'),
    "float lid": (_set_state("llayers", 0, "lid", 1.5), r"^tick 0: field 'state': lid must be an integer, got 1.5$"),
    "bool copy of a lid read before": (_set_state("llayers", 1, "lid", False),
                                       r"^tick 0: field 'state': lid must be an integer, got false$"),
    "string wire source": (_set_state("wire", 0, "sources", ["1"]),
                           r'^tick 0: field \'state\': sources must be a list of integers, got \["1"\]$'),
    "list lid": (_set_state("llayers", 0, "lid", [1]), r"^tick 0: field 'state': lid must be an integer, got \[1\]$"),
    "list identifier": (_set_message(0, "a", 1, id=[5]), r"^tick 0: field 'a': id must be an integer, got \[5\]$"),
    "wire sources without a latch": (
        _set_state("wire", 0, "sources", [7, 9]),
        r"^tick 0: field 'state': sources must list one node of 1..2 per latch symbol, highest first, "
        r"got \[7,9\] for 0 symbols$"),
    "wire sources lowest first": (
        _edit_wire_sources(lambda sources: sources.reverse()),
        r"^tick \d+: field 'state': sources must list one node of 1..2 per latch symbol, highest first, "
        r"got \[1,2\] for 2 symbols$"),
    "wire source beyond the node count": (
        _edit_wire_sources(lambda sources: sources.__setitem__(0, 3)),
        r"^tick \d+: field 'state': sources must list one node of 1..2 per latch symbol, highest first, "
        r"got \[3,1\] for 2 symbols$"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_tick_lines_name_the_tick_and_field(case, two_node_scenario, tmp_path, capsys):
    mutate, message = MALFORMED[case]
    lines = trace_to_jsonl(run_scenario(two_node_scenario)).splitlines()
    mutate(lines)
    text = "\n".join(lines) + "\n"
    with pytest.raises(ValueError, match=message):
        trace_from_jsonl(text)
    path = tmp_path / "bad.trace"
    path.write_text(text)
    assert main(["check", "--trace", str(path)]) == EXIT_INPUT
    assert "malformed trace" in capsys.readouterr().err


def test_uppercase_hex_payloads_load_as_in_scenario_files():
    # the header's scenario and every message and data symbol of the golden spell 0xab
    text = (GOLDENS / "single_node.v2.jsonl").read_text()
    assert text.count('"ab"') > 4
    assert trace_from_jsonl(text.replace('"ab"', '"AB"')) == trace_from_jsonl(text)
