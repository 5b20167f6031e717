from __future__ import annotations

import gc
import json
import random
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canstream import (
    Scenario,
    ScenarioError,
    TimedStream,
    check_all,
    run_scenario,
)
from canstream.checkers import Report
from canstream.cli import EXIT_INPUT, main
from canstream.core import PER_NODE_FAMILIES
from canstream.fuzzing import random_scenario, seeded_scenario
from canstream.serialize import (
    _OPENING,
    _OPENING_ENTRIES,
    _dumps,
    report_to_dict,
    report_to_json,
    scenario_from_json,
    scenario_to_json,
    trace_from_jsonl,
    trace_to_jsonl,
)
from canstream.system import initial_state
from .conftest import add_entry, amsg, saturated, scenario, tick_line, unwritten_entries, valid_scenarios

GOLDENS = Path(__file__).parent / "goldens"
STATE_KEYS = ("buffers",)  # the families of a trace's state
LINE_FAMILIES = tuple(family for family in PER_NODE_FAMILIES if family != "a")  # a is the header scenario's


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
    assert len(lines) == 1 + 5  # header + one line per tick, but tick 5 repeats tick 4 and shares its line
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


def _without(document: dict, key: str) -> dict:
    return {k: v for k, v in document.items() if k != key}


_DOCUMENT = {"nodeCount": 2, "horizon": 8, "injections": [{"node": 1, "tick": 0, "id": 3, "data": "aa"}]}
_INJECTION = _DOCUMENT["injections"][0]

# Scenario documents whose keys do not fit their object's key set, and the error each must raise. The request delay,
# the frame latency and the bootstrap tick were options once; a document that still carries its options is rejected,
# whatever they hold: an object, null, or an object that repeats a key.
SCENARIO_KEYS = {
    "injection for injections": ({**_without(_DOCUMENT, "injections"), "injection": []},
                                 r"^unknown key 'injection'$"),
    "missing nodeCount": (_without(_DOCUMENT, "nodeCount"), r"^missing key 'nodeCount'$"),
    "missing horizon": (_without(_DOCUMENT, "horizon"), r"^missing key 'horizon'$"),
    "options.fidelitymode": ({**_DOCUMENT, "options": {"fidelitymode": True}}, r"^unknown key 'options'$"),
    "extra injection key": ({**_DOCUMENT, "injections": [{**_INJECTION, "prio": 1}]},
                            r"^unknown key 'injections\[0\].prio'$"),
    "injection without a node": ({**_DOCUMENT, "injections": [_INJECTION, _without(_INJECTION, "node")]},
                                 r"^missing key 'injections\[1\].node'$"),
    "injections that are a number": ({**_DOCUMENT, "injections": 5}, r"^injections must be a list, got 5$"),
    "null injections": ({**_DOCUMENT, "injections": None}, r"^injections must be a list, got null$"),
    "injection that is not an object": ({**_DOCUMENT, "injections": [[1, 0, 3, "aa"]]},
                                        r"^injections\[0\] must be an object, got \[1, 0, 3, \"aa\"\]$"),
    "null options": ({**_DOCUMENT, "options": None}, r"^unknown key 'options'$"),
    "null document": (None, r"^scenario must be an object, got null$"),
    # Texts that do not decode, given as they are.
    "document that is not JSON": ("{not json", r"^Expecting property name enclosed in double quotes"),
    "document nested 100,000 deep": ("[" * 100_000 + "]" * 100_000, r"^maximum recursion depth exceeded"),
    "node count of 5,000 digits": ('{"nodeCount":%s,"horizon":4}' % ("1" * 5000), r"^Exceeds the limit \(4300"),
    # Texts that give a key twice, which JSON decoding would otherwise read as its last value.
    "repeated horizon": ('{"nodeCount":1,"horizon":6,"horizon":2}', r"^repeated key 'horizon'$"),
    "repeated option": ('{"nodeCount":1,"horizon":6,"options":{"bootstrapRequestTick":1,"bootstrapRequestTick":0}}',
                        r"^unknown key 'options'$"),
    "repeated injection data": ('{"nodeCount":1,"horizon":6,"injections":[{"node":1,"tick":0,"id":5,"data":"ab",'
                                '"data":"cd"}]}', r"^repeated key 'injections\[0\].data'$"),
}


@pytest.mark.parametrize("case", sorted(SCENARIO_KEYS))
def test_a_scenario_key_that_does_not_fit_is_named(case):
    document, message = SCENARIO_KEYS[case]
    with pytest.raises(ScenarioError, match=message):
        scenario_from_json(document if isinstance(document, str) else json.dumps(document))


def test_the_scenario_writer_gives_every_key_of_its_set():
    s = scenario(2, 8, (1, 0, 3, b"\xaa"))
    assert json.loads(scenario_to_json(s)) == _DOCUMENT
    assert scenario_from_json(json.dumps(_DOCUMENT)) == s
    assert scenario_from_json('{"nodeCount": 1, "horizon": 4}') == scenario(1, 4)  # a document without injections


def _assert_canonical_round_trip(trace) -> str:
    """Check that the trace dumps canonically, loads equal to itself and dumps again to the same text; the text."""
    text = trace_to_jsonl(trace)
    for line in text.splitlines():
        assert line == _dumps(json.loads(line))
    loaded = trace_from_jsonl(text)
    assert loaded == trace
    assert trace_to_jsonl(loaded) == text
    return text


@settings(max_examples=250, deadline=None)
@given(valid_scenarios())
def test_every_valid_scenarios_trace_is_canonical_and_round_trips(s):
    _assert_canonical_round_trip(run_scenario(s))


def test_an_idle_run_is_its_header_tick_0_and_one_run_of_repeated_ticks():
    # Tick 0 differs from the idle tick before it only by each node's bootstrap request, the opening entry 1.
    lines = trace_to_jsonl(run_scenario(Scenario(3, 64, ()))).splitlines()
    assert lines[1:] == ['{"r":1,"t":0}', '{"r":0,"t":1,"through":63}']


def test_the_value_table_opens_with_the_values_of_an_idle_tick_0():
    assert [_dumps(entry) for entry in _OPENING_ENTRIES] == ["[]", "[0]", "1", '{"b":0,"buf":[]}']
    # A field that a line leaves out, from tick 0 on, keeps its idle value: at tick 0 the buffer's shared value.
    trace = trace_from_jsonl(trace_to_jsonl(run_scenario(scenario(2, 4, (2, 1, 3, b"\xaa")))))
    assert all(state is idle for key, idle in zip(STATE_KEYS, _OPENING[3:]) for state in trace.states[0][key])


@settings(max_examples=100, deadline=None)
@given(valid_scenarios())
def test_no_line_after_tick_0_is_a_bare_tick_and_a_bare_line_loads_as_one_repeated_tick(s):
    trace = run_scenario(s)
    lines = trace_to_jsonl(trace).splitlines()
    assert not any(json.loads(line).keys() == {"t"} for line in lines[2:])
    _unfold(lines)
    assert len(lines) == 1 + trace.horizon
    assert trace_from_jsonl("\n".join(lines) + "\n") == trace


def test_trace_codec_is_canonical_and_round_trips_over_every_kind_of_run():
    rng = random.Random(2024)
    traces = [run_scenario(seeded_scenario("codec", i, nodes=1 + i % 6, horizon=rng.choice([4, 16, 64])))
              for i in range(60)]
    traces += [run_scenario(scenario(nodes, 0)) for nodes in (1, 5)]
    # Saturated buses, where each node that loses arbitration offers its frame again two ticks later, and messages
    # queue behind the offer.
    saturated_traces = [run_scenario(saturated(i, nodes=nodes)) for i, nodes in enumerate((8, 16))]
    saturated_traces.append(run_scenario(saturated(2, nodes=16, per_node=6)))
    assert _deepest_queue(saturated_traces[-1]) >= 3
    traces += saturated_traces
    kinds = {(t.node_count, t.horizon == 0) for t in traces}
    assert {k[0] for k in kinds} == {*range(1, 7), 8, 16} and any(k[1] for k in kinds)
    for trace in traces:
        text = _assert_canonical_round_trip(trace)
        listed = _assert_pairs_name_the_entries_that_differ_from_two_ticks_before(text, trace)
        # Most re-offered cells repeat those of two ticks before, so few of them are listed.
        if any(trace is s for s in saturated_traces):
            assert listed["ms"] < 0.25 * sum(bool(cell) for stream in trace.streams["ms"] for cell in stream.cells)


def _deepest_queue(trace) -> int:
    return max(len(buffer.buf) for snap in trace.states for buffer in snap["buffers"])


def test_a_dump_writes_each_message_once():
    # The header's scenario writes each message; the tick lines and their buffer states refer to it.
    trace = run_scenario(saturated(2, nodes=16, per_node=6))
    assert _deepest_queue(trace) >= 3
    header, ticks = trace_to_jsonl(trace).split("\n", 1)
    for injection in trace.scenario.injections:
        message = injection.message
        assert header.count('{"data":"%s","id":%d,' % (message.data.hex(), message.id)) == 1, message
        assert '"id":%d}' % message.id not in ticks, message


@pytest.mark.parametrize("scenarios", [
    [seeded_scenario(1, i, nodes=2 + i % 4, horizon=64) for i in range(240)],  # the benchmark's corpus shape
    [saturated(2, nodes=16, per_node=6)],
], ids=["corpus", "saturated"])
def test_no_two_entries_of_a_dumps_value_table_are_equal(scenarios):
    for s in scenarios:
        lines = trace_to_jsonl(run_scenario(s)).splitlines()[1:]
        entries = [_dumps(entry) for line in lines for entry in json.loads(line).get("new", ())]
        assert len(set(entries)) == len(entries), s


def _assert_pairs_name_the_entries_that_differ_from_two_ticks_before(text: str, trace) -> Counter:
    """Check that each list of pairs in a dump names exactly the nodes whose entry differs from two ticks before
    (before tick 0 every cell is empty, every row 1 and every state a run's initial one); the number of pairs per
    field."""
    n, listed = trace.node_count, Counter()
    idle = {**dict.fromkeys(LINE_FAMILIES, ((),) * n), "rows": (1,) * n, **initial_state(n)._asdict()}
    columns = {family: list(zip(*(stream.cells for stream in trace.streams[family]))) for family in LINE_FAMILIES}
    columns.update(rows=trace.rows, **{key: [snap[key] for snap in trace.states] for key in STATE_KEYS})
    for line in text.splitlines()[1:]:
        tick = json.loads(line)
        t = tick["t"]
        for key, column in columns.items():
            value = (tick.get("state", {}) if key in STATE_KEYS else tick).get(key)
            if type(value) is list:
                before = column[t - 2] if t > 1 else idle[key]
                assert [i for i, _ in value] == [i for i in range(n) if column[t][i] != before[i]], (t, key)
                listed[key] += len(value)
    return listed


def test_a_dump_leaves_no_cyclic_garbage():
    """Each dump's value table is freed when the call returns, not when the cyclic collector next runs."""
    traces = [run_scenario(seeded_scenario(1, i, nodes=2 + i % 4, horizon=64)) for i in range(4)]
    traces.append(run_scenario(saturated(2, nodes=16, per_node=6)))
    gc.collect()
    gc.disable()
    try:
        for trace in traces:
            trace_to_jsonl(trace)
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_equal_states_dump_the_same_whether_or_not_they_are_the_same_objects():
    trace = run_scenario(seeded_scenario("copies", 3, nodes=3, horizon=32))
    copied = tuple({key: tuple(map(replace, value)) for key, value in snap.items()} for snap in trace.states)
    assert copied == trace.states and copied[1]["buffers"][0] is not trace.states[1]["buffers"][0]
    assert trace_to_jsonl(replace(trace, states=copied)) == trace_to_jsonl(trace)


def test_equal_cells_dump_the_same_whether_or_not_they_are_the_same_objects():
    trace = run_scenario(saturated(1, nodes=6, horizon=48))
    fresh = lambda cells: tuple(tuple(list(cell)) for cell in cells)
    copied = replace(trace, wire=TimedStream(fresh(trace.wire.cells)), rows=fresh(trace.rows), streams={
        family: tuple(TimedStream(fresh(stream.cells)) for stream in per_node)
        for family, per_node in trace.streams.items()})
    t = next(t for t, cell in enumerate(trace.wire.cells) if cell)
    assert copied == trace and copied.wire.cells[t] is not trace.wire.cells[t]
    assert trace_to_jsonl(copied) == trace_to_jsonl(trace)


def test_an_edit_of_a_tick_that_a_run_covers_fails_with_its_line(two_node_scenario):
    lines = trace_to_jsonl(run_scenario(two_node_scenario)).splitlines()
    assert tick_line(lines, 6) == 7
    with pytest.raises(pytest.fail.Exception, match="^tick 7 has no line of its own: the line of tick 6 covers it, "
                                                    "through tick 7$"):
        tick_line(lines, 7)


def _swap_ticks_1_and_2(lines):
    lines[2], lines[3] = lines[3], lines[2]


def _edit_tick(t, edit):
    """Edit the line of tick t; a tick that a line's "through" covers has none."""
    def mutate(lines):
        at = tick_line(lines, t)
        tick = json.loads(lines[at])
        edit(tick)
        lines[at] = _dumps(tick)
    return mutate


def _set_field(t, key, value):
    return _edit_tick(t, lambda tick: tick.__setitem__(key, value))


def _drop_field(t, key):
    return _edit_tick(t, lambda tick: tick.pop(key))


def _set_entry(t, k, value):
    """Set the k-th new table entry of tick t's line."""
    return _edit_tick(t, lambda tick: tick["new"].__setitem__(k, value))


def _edit_entry(t, k, **fields):
    """Set fields of the k-th new table entry of tick t's line: a buffer state, or the first message or symbol of a
    cell."""
    def edit(tick):
        entry = tick["new"][k]
        (entry if isinstance(entry, dict) else entry[0]).update(fields)
    return _edit_tick(t, edit)


def _fresh_entry(t, value, point):
    """Add `value` to the table at tick t's line, where no field refers to it, then `point(tick, k)` a field at it,
    entry k."""
    def mutate(lines):
        k = add_entry(lines, t, value)
        _edit_tick(t, lambda tick: point(tick, k))(lines)
    return mutate


def test_an_added_table_entry_leaves_every_reference_reading_what_it_read():
    trace = run_scenario(saturated(2, nodes=16, per_node=6))
    lines = trace_to_jsonl(trace).splitlines()
    k = add_entry(lines, 1, [{"data": "ff", "id": 999}])
    assert json.loads(lines[2])["new"][-1] == [{"data": "ff", "id": 999}]
    # later buffer states refer, inside the entries themselves, to the header's message cells, before entry k
    states = [entry for line in lines[3:] for entry in json.loads(line).get("new", ()) if isinstance(entry, dict)]
    assert any(state["buf"] for state in states) and max(max(state["buf"], default=0) for state in states) < k
    assert trace_from_jsonl("\n".join(lines) + "\n") == trace


def _edit_header(edit):
    def mutate(lines):
        header = json.loads(lines[0])
        edit(header)
        lines[0] = _dumps(header)
    return mutate


def _header_not_an_object(lines):
    lines[0] = "[1]"


def _add_header_injection(injection):
    return _edit_header(lambda header: header["scenario"]["injections"].append(injection))


def _truncated_tick_line(blank_lines: int):
    """Keep the header and ticks 0 and 1, then blank lines and a tick 2 line cut short."""
    def mutate(lines):
        lines[3:] = [""] * blank_lines + ['{"t":2,"as":[']
    return mutate


def _version(value):
    return (_edit_header(lambda header: header.update(version=value)),
            rf"^header field 'version': expected 12, got {re.escape(_dumps(value))}$")


def _message_entry(message):
    """Give tick 3's `ar` a fresh table entry, a cell of `message`."""
    return _fresh_entry(3, [message], lambda tick, k: tick.__setitem__("ar", k))


def _repeat_key(n, key):
    """Give key `key` of line n twice, the first time with the value 9."""
    def mutate(lines):
        assert lines[n].count(f'"{key}":') == 1
        lines[n] = lines[n].replace(f'"{key}":', f'"{key}":9,"{key}":')
    return mutate


def _edits(*mutations):
    def mutate(lines):
        for edit in mutations:
            edit(lines)
    return mutate


def _unfold(lines):
    """Give each tick that a line's "through" covers a line of "t" alone, as version 8 wrote a repeated tick."""
    unfolded = lines[:1]
    for line in lines[1:]:
        tick = json.loads(line)
        through = tick.pop("through", tick["t"])
        unfolded += [_dumps(tick)] + ['{"t":%d}' % t for t in range(tick["t"] + 1, through + 1)]
    lines[:] = unfolded


# Hand edits of the dump of two_node_scenario, and the error each must raise. Its table opens with entries 0 to 3, the
# empty cell, the request cell, row 1 and the idle buffer state, then 4 and 5, the header's message cells of node 1 and
# node 2, which no line writes. It has entries to 10 after tick 1 and to 14 after tick 2 and every later tick. Each
# tick has a line of its own but tick 7, which repeats tick 6: tick 6's line gives "through":7.
# Tick 0 writes no entry; tick 1's new entries are node 1's and node 2's `ms` cells, 6 and 7, row 2, and node 1's and
# node 2's buffer states, {"b":4,"buf":[]} and {"b":5,"buf":[]}, 9 and 10; tick 2's are node 1's and node 2's data
# symbols and rows 4 and 5. Tick 1's `as` gives the message cells as [[0,4],[1,5]], and tick 3's `ar` gives 4.
MALFORMED = {
    "header that is not JSON": (lambda lines: lines.__setitem__(0, lines[0][:-1]),
                                r"^line 1 \(header\): Expecting ',' delimiter: line 1 column \d+"),
    "truncated tick line": (_truncated_tick_line(0),
                            r"^line 4 \(tick 2\): Expecting value: line 1 column 14 \(char 13\)$"),
    "truncated tick line after blank lines": (_truncated_tick_line(2), r"^line 6 \(tick 2\): Expecting value"),
    "extra data after a tick": (lambda lines: lines.__setitem__(3, '{"t":2} {"t":2}'),
                                r"^line 4 \(tick 2\): Extra data: line 1 column 9 \(char 8\)$"),
    "header nested 100,000 deep": (lambda lines: lines.__setitem__(0, "[" * 100_000 + "]" * 100_000),
                                   r"^line 1 \(header\): maximum recursion depth exceeded"),
    "tick line nested 100,000 deep": (lambda lines: lines.__setitem__(3, "[" * 100_000 + "]" * 100_000),
                                      r"^line 4 \(tick 2\): maximum recursion depth exceeded"),
    "tick of 5,000 digits": (lambda lines: lines.__setitem__(3, '{"t":%s}' % ("1" * 5000)),
                             r"^line 4 \(tick 2\): Exceeds the limit \(4300"),
    "missing tick line": (lambda lines: lines.pop(), r"^expected 8 ticks, found 6$"),
    "null scenario": (_edit_header(lambda header: header.update(scenario=None)),
                      r"^header field 'scenario': scenario must be an object, got null$"),
    "header not an object": (_header_not_an_object, r"^header must be a JSON object, got a list$"),
    "foreign format": (_edit_header(lambda header: header.update(format="other")),
                       r'^header field \'format\': expected "canstream-trace", got "other"$'),
    "scenario that breaks the rules": (
        _add_header_injection({"node": 7, "tick": 99, "id": -4, "data": "00" * 12}),
        r"^header field 'scenario': node-range: node 7 outside \[1..2\]; "
        r"out-of-horizon: injection tick 99 outside \[0..7\]; identifier: identifier -4 is negative; "
        r"payload: payload of 12 octets exceeds 8$"),
    "scenario with an identifier at two nodes": (
        _add_header_injection({"node": 2, "tick": 2, "id": 3, "data": "cc"}),
        r"^header field 'scenario': duplicate-identifier: identifier 3 is injected at nodes 1 and 2$"),
    "version 1": _version(1),
    "version 4": _version(4),
    "version 5": _version(5),
    "version 6": _version(6),
    "version 7": _version(7),
    "version 8": _version(8),
    "version 9": _version(9),
    "version 10": _version(10),
    "version 11": _version(11),
    "unknown version": _version(13),
    "version as a string": _version("12"),
    "version as a float": _version(12.0),
    # A file that gives a key of an object twice, which JSON decoding would otherwise read as its last value.
    "header that repeats a key": (_repeat_key(0, "version"), r"^header field 'version': repeated key 'version'$"),
    "header scenario that repeats a key": (_repeat_key(0, "nodeCount"),
                                           r"^header field 'scenario': repeated key 'nodeCount'$"),
    "tick line that repeats a key": (_repeat_key(2, "t"), r"^tick 1: field 't': repeated key 't'$"),
    # A v12 header, as a v8 one, has no node count or horizon of its own: they are its scenario's.
    "node count differs from the scenario": (_edit_header(lambda header: header.update(nodeCount=3)),
                                             r"^header field 'nodeCount': unknown key 'nodeCount'$"),
    "horizon differs from the scenario": (_edit_header(lambda header: header.update(horizon=99)),
                                          r"^header field 'horizon': unknown key 'horizon'$"),
    "v7 header fields in a v8 header": (_edit_header(lambda header: header.update(nodeCount=2, horizon=8)),
                                        r"^header field 'horizon': unknown key 'horizon'$"),
    "line after the last tick": (lambda lines: lines.append('{"error":{"message":"forged","tick":8}}'),
                                 r"^tick 8: field 't': expected the file to end at the horizon, tick 8$"),
    # A run of repeated ticks folded into the line before it.
    "flag as through": (_set_field(4, "through", True),
                        r"^tick 4: field 'through': expected an integer above 4 and below the horizon, 8, got true$"),
    "float through": (_set_field(4, "through", 5.0),
                      r"^tick 4: field 'through': expected an integer above 4 and below the horizon, 8, got 5.0$"),
    "string through": (_set_field(4, "through", "5"),
                       r'^tick 4: field \'through\': expected an integer above 4 and below the horizon, 8, got "5"$'),
    "null through": (_set_field(4, "through", None),
                     r"^tick 4: field 'through': expected an integer above 4 and below the horizon, 8, got null$"),
    "through at its own tick": (
        _set_field(4, "through", 4),
        r"^tick 4: field 'through': expected an integer above 4 and below the horizon, 8, got 4$"),
    "through past the horizon": (
        _set_field(6, "through", 8),
        r"^tick 6: field 'through': expected an integer above 6 and below the horizon, 8, got 8$"),
    "line after a run that reaches the horizon": (lambda lines: lines.append('{"t":8}'),
                                                  r"^tick 8: field 't': expected the file to end at the horizon, "
                                                  r"tick 8$"),
    "run that stops short": (_drop_field(6, "through"), r"^expected 8 ticks, found 7$"),
    "line that repeats the end of a run": (_set_field(4, "through", 5), r"^tick 6: field 't': expected 6, found 5$"),
    "swapped ticks": (_swap_ticks_1_and_2, r"^tick 1: field 't': expected 1, found 2$"),
    "flag as the tick": (_set_field(1, "t", True), r"^tick 1: field 't': expected 1, found true$"),
    "float tick": (_set_field(2, "t", 2.0), r"^tick 2: field 't': expected 2, found 2.0$"),
    "tick line that is not an object": (lambda lines: lines.__setitem__(3, "[1]"),
                                        r"^tick 2: expected an object, got \[1\]$"),
    "state that is not an object": (_set_field(0, "state", 5), r"^tick 0: field 'state': expected an object, got 5$"),
    "node index out of range": (_edit_tick(1, lambda tick: tick["as"].append([2, 0])),
                                r"^tick 1: field 'as': node index 2 out of order or out of range$"),
    "negative node index": (_edit_tick(1, lambda tick: tick["as"][0].__setitem__(0, -1)),
                            r"^tick 1: field 'as': node index -1 out of order or out of range$"),
    "node indices out of order": (_edit_tick(1, lambda tick: tick["as"].reverse()),
                                  r"^tick 1: field 'as': node index 0 out of order or out of range$"),
    "float identifier": (_message_entry({"data": "bb", "id": 5.7}),
                         r"^tick 3: field 'ar': id must be an integer, got 5.7$"),
    "string identifier": (_message_entry({"data": "bb", "id": "5"}),
                          r'^tick 3: field \'ar\': id must be an integer, got "5"$'),
    "list identifier": (_message_entry({"data": "bb", "id": [5]}),
                        r"^tick 3: field 'ar': id must be an integer, got \[5\]$"),
    "float copy of an identifier read before": (
        _fresh_entry(1, [{"data": "aa", "id": 3.0}], lambda tick, k: tick["as"][0].__setitem__(1, k)),
        r"^tick 1: field 'as': id must be an integer, got 3.0$"),
    "payload with a space": (_message_entry({"data": " ab", "id": 5}),
                             r'^tick 3: field \'ar\': data must be a hex string, got " ab"$'),
    "payload as a list of octets": (_message_entry({"data": [171], "id": 5}),
                                    r"^tick 3: field 'ar': data must be a hex string, got \[171\]$"),
    "data symbol with a space": (_edit_entry(2, 0, value=" ab"),
                                 r'^tick 2: field \'ms\': value must be a hex string, got " ab"$'),
    "float identifier symbol": (_edit_entry(1, 0, value=3.5),
                                r"^tick 1: field 'ms': value must be an integer, got 3.5$"),
    "unknown symbol kind": (_edit_entry(1, 0, sym="bogus"), r"^tick 1: field 'ms': unknown symbol kind 'bogus'$"),
    "bool request token": (_fresh_entry(0, [False], lambda tick, k: tick.__setitem__("r", k)),
                           r"^tick 0: field 'r': request cell must be a list of integers, got \[false\]$"),
    "request token other than the request": (
        _fresh_entry(0, [7], lambda tick, k: tick.__setitem__("r", k)),
        r"^tick 0: field 'r': request cell may hold only the request token 0, got \[7\]$"),
    "row beyond the table": (_set_entry(1, 2, 9), r"^tick 1: field 'rows': row must be 1 to 5, got 9$"),
    "negative row": (_set_entry(1, 2, -1), r"^tick 1: field 'rows': row must be 1 to 5, got -1$"),
    "bool row": (_set_entry(1, 2, True), r"^tick 1: field 'rows': row must be an integer, got true$"),
    "float row": (_set_entry(1, 2, 1.0), r"^tick 1: field 'rows': row must be an integer, got 1.0$"),
    "row entry that is a list": (_set_entry(1, 2, [1, 1]),
                                 r"^tick 1: field 'rows': row must be an integer, got \[1, 1\]$"),
    "extra node entry": (_edit_tick(4, lambda tick: tick["rows"].append([2, 4])),
                         r"^tick 4: field 'rows': node index 2 out of order or out of range$"),
}


# Hand edits of the same dump that break a rule of the value table, which tick lines have had since version 3, or a
# rule of the references inside a buffer state entry, which version 6 added.
MALFORMED_V3 = {
    "reference beyond the table": (
        _set_field(3, "wr", 15),
        r"^tick 3: field 'wr': expected a reference to one of the value table's 15 entries, got 15$"),
    "reference to an entry of a later tick": (
        _set_field(1, "mr", 11),
        r"^tick 1: field 'mr': expected a reference to one of the value table's 11 entries, got 11$"),
    "flag as a reference": (_set_field(0, "wr", True), r"^tick 0: field 'wr': expected a reference .* got true$"),
    "symbol cell read as an offer": (_edit_tick(1, lambda tick: tick.__setitem__("as", tick["ms"])),
                                     r"^tick 1: field 'as': missing key 'id'$"),
    "cell read as a buffer state": (_edit_tick(1, lambda tick: tick["state"].__setitem__("buffers", tick["r"])),
                                    r"^tick 1: field 'state': expected an object, got \[\]$"),
    "cell that is not a list": (_set_entry(1, 0, 5), r"^tick 1: field 'ms': cell must be a list, got 5$"),
    "symbol cell that is an object": (_set_entry(1, 0, {"sym": "id", "value": 3}),
                                      r'^tick 1: field \'ms\': cell must be a list, got \{"sym":"id","value":3\}$'),
    "message that is not an object": (_message_entry(5), r"^tick 3: field 'ar': expected an object, got 5$"),
    "new that is not a list": (_set_field(2, "new", {"x": 1}),
                               r'^tick 2: field \'new\': expected a list, got \{"x":1\}$'),
    "pairs of a state family out of order": (
        _edit_tick(1, lambda tick: tick["state"]["buffers"].reverse()),
        r"^tick 1: field 'state': node index 0 out of order or out of range$"),
    "node index out of range in a pair list": (_set_field(1, "as", [[2, 0]]),
                                               r"^tick 1: field 'as': node index 2 out of order or out of range$"),
    "buffer state that refers to itself": (_edit_entry(1, 3, b=9),
                                           r"^tick 1: field 'state': expected a reference to an entry before entry "
                                           r"9, got 9$"),
    "buffer state that refers to a later entry": (_edit_entry(1, 3, buf=[10]),
                                                  r"^tick 1: field 'state': expected a reference to an entry before "
                                                  r"entry 9, got 10$"),
    "buffer state reference out of range": (_edit_entry(1, 3, b=-1),
                                            r"^tick 1: field 'state': expected a reference to an entry before entry "
                                            r"9, got -1$"),
    "buffer state offer that names a symbol cell": (_edit_entry(1, 3, b=6),
                                                    r"^tick 1: field 'state': missing key 'id'$"),
    "queued message that names the empty cell": (
        _edit_entry(1, 3, buf=[0]),
        r"^tick 1: field 'state': buf: expected a reference to a cell of one message, got 0, a cell of 0$"),
    "queued message that names a cell of two": (
        _edits(lambda lines: add_entry(lines, 0, [{"data": "aa", "id": 3}, {"data": "cc", "id": 7}]),
               _edit_entry(1, 3, buf=[6])),
        r"^tick 1: field 'state': buf: expected a reference to a cell of one message, got 6, a cell of 2$"),
    "queued messages that are not a list": (_edit_entry(1, 3, buf=0),
                                            r"^tick 1: field 'state': buf must be a list of integers, got 0$"),
}

# Hand edits of the same dump that break a rule of the fields a line may leave out, which tick lines have had
# since version 4: a line gives at least its `t`, and `new` when its fields refer to entries first seen at its tick.
# Since version 10 tick 0 may leave out any other field, as a later line may.
MALFORMED_V4 = {
    "tick 1 without new": (_drop_field(1, "new"),
                           r"^tick 1: field 'ms': expected a reference to one of the value table's 6 entries, got 6$"),
    "line without t": (_drop_field(3, "t"), r"^tick 3: field 't': missing key 't'$"),
    "reference beyond the table on a quiet tick": (
        _edits(_unfold, _set_field(7, "wr", 15)),
        r"^tick 7: field 'wr': expected a reference to one of the value table's 15 entries, got 15$"),
}

# Hand edits of the same dump that break a rule of the [node index, reference] pairs, which tick lines have had
# since version 5, and `rows` since version 6. Its tick 4 gives both nodes' rows.
MALFORMED_V5 = {
    "rows pairs out of order": (_edit_tick(4, lambda tick: tick["rows"].reverse()),
                                r"^tick 4: field 'rows': node index 0 out of order or out of range$"),
    "reference beyond the table in a pair": (
        _edit_tick(3, lambda tick: tick["as"][0].__setitem__(1, 15)),
        r"^tick 3: field 'as': expected a reference to one of the value table's 15 entries, got 15$"),
    "node indices out of order": (_edit_tick(4, lambda tick: tick["ws"].reverse()),
                                  r"^tick 4: field 'ws': node index 0 out of order or out of range$"),
    "flag as a stream family": (
        _set_field(0, "ar", True),
        r"^tick 0: field 'ar': expected a reference or a list of \[node index, reference\] pairs, got true$"),
    "string as a stream family": (
        _set_field(0, "ar", "x"),
        r"^tick 0: field 'ar': expected a reference or a list of \[node index, reference\] pairs, got \"x\"$"),
    "flag as a state family": (
        _edit_tick(1, lambda tick: tick["state"].__setitem__("buffers", True)),
        r"^tick 1: field 'state': expected a reference or a list of \[node index, reference\] pairs, got true$"),
    "pair of three as a state family": (
        _edit_tick(1, lambda tick: tick["state"].__setitem__("buffers", [[0, 5, 6]])),
        r"^tick 1: field 'state': expected a reference or a list of \[node index, reference\] pairs, "
        r"got \[\[0,5,6\]\]$"),
}


def _rename(t, old, new, within=None):
    """Rename key `old` of tick t's line, or of its object `within`, to `new`."""
    def edit(tick):
        obj = tick if within is None else tick[within]
        obj[new] = obj.pop(old)
    return _edit_tick(t, edit)


def _drop_key(t, k, key):
    """Drop `key` from tick t's k-th new table entry: a buffer state, or the first message or symbol of a cell."""
    def edit(tick):
        entry = tick["new"][k]
        (entry if isinstance(entry, dict) else entry[0]).pop(key)
    return _edit_tick(t, edit)


# Hand edits of the same dump that give an object a key outside its kind's key set, or take one of its keys away.
KEYS = {
    "header key outside its set": (_edit_header(lambda header: header.update(extra=1)),
                                   r"^header field 'extra': unknown key 'extra'$"),
    "header without its node count": (_edit_header(lambda header: header["scenario"].pop("nodeCount")),
                                      r"^header field 'scenario': missing key 'nodeCount'$"),
    "header without its scenario": (_edit_header(lambda header: header.pop("scenario")),
                                    r"^header field 'scenario': missing key 'scenario'$"),
    "scenario option outside its set": (
        _edit_header(lambda header: header["scenario"].update(options={"fidelitymode": True})),
        r"^header field 'scenario': unknown key 'options'$"),
    "scenario injection outside its set": (
        _edit_header(lambda header: header["scenario"]["injections"][1].update(prio=1)),
        r"^header field 'scenario': unknown key 'injections\[1\].prio'$"),
    "tick line key outside its set": (_rename(3, "ar", "aR"), r"^tick 3: field 'aR': unknown key 'aR'$"),
    "tick 0 key outside its set": (_set_field(0, "x", 1), r"^tick 0: field 'x': unknown key 'x'$"),
    # Each node's `a` is the header's scenario's injections, which a tick line does not repeat.
    "tick line that gives a": (_set_field(0, "a", 0), r"^tick 0: field 'a': unknown key 'a'$"),
    "state key outside its set": (_rename(1, "buffers", "buffer", within="state"),
                                  r"^tick 1: field 'state': unknown key 'buffer'$"),
    "message key outside its set": (_message_entry({"data": "bb", "id": 5, "prio": 1}),
                                    r"^tick 3: field 'ar': unknown key 'prio'$"),
    "message without its payload": (_message_entry({"id": 5}), r"^tick 3: field 'ar': missing key 'data'$"),
    "symbol key outside its set": (_edit_entry(1, 0, extra=1), r"^tick 1: field 'ms': unknown key 'extra'$"),
    "symbol without its kind": (_drop_key(1, 0, "sym"), r"^tick 1: field 'ms': missing key 'sym'$"),
    "buffer state key outside its set": (_edit_entry(1, 3, x=1), r"^tick 1: field 'state': unknown key 'x'$"),
}


def _assert_rejected(text: str, message: str, tmp_path, capsys):
    with pytest.raises(ValueError, match=message):
        trace_from_jsonl(text)
    path = tmp_path / "bad.trace"
    path.write_text(text)
    assert main(["check", "--trace", str(path)]) == EXIT_INPUT
    assert "malformed trace" in capsys.readouterr().err


def _assert_edit_rejected(table, case, scenario, tmp_path, capsys):
    mutate, message = table[case]
    lines = trace_to_jsonl(run_scenario(scenario)).splitlines()
    mutate(lines)
    _assert_rejected("\n".join(lines) + "\n", message, tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_tick_lines_name_the_tick_and_field(case, two_node_scenario, tmp_path, capsys):
    _assert_edit_rejected(MALFORMED, case, two_node_scenario, tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(MALFORMED_V3))
def test_malformed_version_3_lines_name_the_tick_and_field(case, two_node_scenario, tmp_path, capsys):
    _assert_edit_rejected(MALFORMED_V3, case, two_node_scenario, tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(MALFORMED_V4))
def test_malformed_version_4_lines_name_the_tick_and_field(case, two_node_scenario, tmp_path, capsys):
    _assert_edit_rejected(MALFORMED_V4, case, two_node_scenario, tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(MALFORMED_V5))
def test_malformed_version_5_lines_name_the_tick_and_field(case, two_node_scenario, tmp_path, capsys):
    _assert_edit_rejected(MALFORMED_V5, case, two_node_scenario, tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(KEYS))
def test_a_key_outside_its_objects_set_or_missing_is_named(case, two_node_scenario, tmp_path, capsys):
    _assert_edit_rejected(KEYS, case, two_node_scenario, tmp_path, capsys)


def test_a_request_cell_of_two_tokens_and_row_3_load_and_are_reported(two_node_scenario):
    """Values within their field's universe load, and the checks report what is wrong with them."""
    lines = trace_to_jsonl(run_scenario(two_node_scenario)).splitlines()
    _edits(_fresh_entry(0, [0, 0], lambda tick, k: tick.__setitem__("r", k)),
           _fresh_entry(0, 3, lambda tick, k: tick.__setitem__("rows", k)))(lines)
    report = check_all(trace_from_jsonl("\n".join(lines) + "\n"))
    found = {(v.predicate, v.tick, v.streams) for v in report.violations}
    assert {("msg1", 0, ("r_1",)), ("msg1", 0, ("r_2",)), ("row3", 0, ("node_1",)), ("row3", 0, ("node_2",))} <= found


def test_a_field_a_version_5_line_leaves_out_is_the_previous_ticks_object(two_node_scenario):
    text = trace_to_jsonl(run_scenario(two_node_scenario))
    given = {}  # tick -> the keys of its line; a tick that a line's "through" covers gives none
    for line in text.splitlines()[1:]:
        tick = json.loads(line)
        given[tick["t"]] = tick.keys()
        given.update(dict.fromkeys(range(tick["t"] + 1, tick.get("through", 0) + 1), ()))
    trace = trace_from_jsonl(text)
    assert sorted(given) == list(range(trace.horizon))
    kept = {key: [t for t in range(1, trace.horizon) if key not in given[t]]
            for key in (*LINE_FAMILIES, "wr", "rows", "state")}
    assert all(kept.values()) and () in given.values()
    for family in LINE_FAMILIES:
        for stream in trace.streams[family]:
            assert all(stream.cells[t] is stream.cells[t - 1] for t in kept[family])
    assert all(trace.wire.cells[t] is trace.wire.cells[t - 1] for t in kept["wr"])
    assert all(trace.rows[t] is trace.rows[t - 1] for t in kept["rows"])
    assert all(trace.states[t] is trace.states[t - 1] for t in kept["state"])


def test_a_loaded_trace_shares_its_values_as_the_run_does():
    trace = trace_from_jsonl(trace_to_jsonl(run_scenario(saturated(0))))
    wire, ar = trace.wire.cells, trace.streams["ar"]
    busy = [(t, cell) for stream in trace.streams["mr"] for t, cell in enumerate(stream.cells) if cell]
    assert len(busy) > 0.9 * trace.node_count * trace.horizon
    assert all(cell is wire[t] for t, cell in busy)
    assert all(c is d for stream in ar[1:] for c, d in zip(stream.cells, ar[0].cells))
    # a buffer holds the message objects of the `a` cells, and each offer and delivery is an `a` cell, which the
    # header's scenario gives
    sent = {id(cell[0]) for stream in trace.streams["a"] for cell in stream.cells if cell}
    held = {id(m) for snap in trace.states for buffer in snap["buffers"] for m in (*buffer.buf, *buffer.b)}
    assert held and held <= sent
    cells = {id(cell) for stream in trace.streams["a"] for cell in stream.cells if cell}
    assert all(id(cell) in cells for family in ("as", "ar") for stream in trace.streams[family]
               for cell in stream.cells if cell)


def test_the_writer_rejects_an_a_stream_that_is_not_the_scenarios_injections(two_node_scenario):
    # A file keeps each node's a as its header's injections only, so a trace that differs there cannot be written.
    trace = run_scenario(two_node_scenario)
    a = trace.streams["a"]
    extra = replace(a[1], cells=a[1].cells[:4] + ((amsg(7, b""),),) + a[1].cells[5:])
    with pytest.raises(ValueError, match=r"^node 2, tick 4: a is \[msg\(7,-\)\], but the scenario injects \[\]; "):
        trace_to_jsonl(replace(trace, streams={**trace.streams, "a": (a[0], extra)}))
    dropped = replace(a[0], cells=((),) + a[0].cells[1:])
    with pytest.raises(ValueError, match=r"^node 1, tick 0: a is \[\], but the scenario injects \[msg\(3,aa\)\]; "):
        trace_to_jsonl(replace(trace, streams={**trace.streams, "a": (dropped, a[1])}))
    short = replace(a[1], cells=a[1].cells[:-1])
    with pytest.raises(ValueError, match=r"^node 2, tick 7: a is no cell, but the scenario injects \[\]; "):
        trace_to_jsonl(replace(trace, streams={**trace.streams, "a": (a[0], short)}))


def test_blanks_around_a_line_are_read_as_json_reads_them(two_node_scenario):
    text = trace_to_jsonl(run_scenario(two_node_scenario))
    padded = "".join(f" \t{line}  \n" for line in text.splitlines())
    assert trace_from_jsonl(padded) == trace_from_jsonl(text)


def test_uppercase_hex_payloads_load_as_in_scenario_files():
    # the header's scenario, which alone gives the one message, and the data symbol of the golden spell 0xab
    text = (GOLDENS / "single_node.v12.jsonl").read_text()
    assert text.count('"ab"') == 2
    assert trace_from_jsonl(text.replace('"ab"', '"AB"')) == trace_from_jsonl(text)


# The golden's header fields, and its scenario's counts, whose error texts echo their value, each with its value's text.
_ECHOED_HEADER_FIELDS = {"format": '"canstream-trace"', "horizon": "6", "nodeCount": "1", "version": "12"}


def test_a_value_nested_near_the_recursion_limit_is_a_value_error():
    # A list that just decodes is echoed in the error text; echoing it must not pass the limit either.
    text = (GOLDENS / "single_node.v12.jsonl").read_text()
    header, ticks = text.split("\n", 1)
    depths, decoded = range(800, 1001), Counter()  # per place, the depths whose line decodes and the error echoes
    for depth in depths:
        nested = "[" * depth + "]" * depth
        edits = {key: header.replace(f'"{key}":{value}', f'"{key}":{nested}', 1) + "\n" + ticks
                 for key, value in _ECHOED_HEADER_FIELDS.items()}
        edits["line after the last tick line"] = text + nested + "\n"
        for place, edited in edits.items():
            assert edited != text
            with pytest.raises(ValueError) as caught:
                trace_from_jsonl(edited)
            decoded[place] += "maximum recursion depth" not in str(caught.value)
    # The sweep crosses the decoder's limit in every place: some depths decode, and some do not.
    assert all(0 < decoded[place] < len(depths) for place in edits), decoded


# JSON values of the shapes a trace file holds: cells of messages or symbols, rows, state fields.
_MESSAGE = st.fixed_dictionaries({"data": st.sampled_from(["", "ab", "0c0d"]), "id": st.integers(0, 9)})
_SYMBOL = st.one_of(st.fixed_dictionaries({"sym": st.just("id"), "value": st.integers(0, 9)}),
                    st.fixed_dictionaries({"sym": st.just("data"), "value": st.sampled_from(["", "ab"])}))
_LISTS = {"message": st.lists(_MESSAGE, max_size=3), "symbol": st.lists(_SYMBOL, max_size=3),
          "int": st.lists(st.integers(0, 5), max_size=3)}
_FIELD = st.one_of(st.booleans(), st.none(), st.integers(-1, 9), st.sampled_from(["", "ab"]),
                   st.lists(_MESSAGE, max_size=3), st.lists(st.integers(-1, 9), max_size=3))


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_an_edited_trace_file_is_rejected_or_checks_without_raising(rng, data):
    """Edit one table entry or field of a random run's dump, then load and check it: the load must raise a
    ValueError or give a trace that the checks report on without raising."""
    s = random_scenario(rng, nodes=rng.randint(1, 4), horizon=rng.randint(2, 24))
    lines = trace_to_jsonl(run_scenario(s)).splitlines()
    ticks = [json.loads(line) for line in lines[1:]]
    entries = data.draw(st.booleans(), label="edit a table entry") and any("new" in tick for tick in ticks)
    t = data.draw(st.sampled_from([t for t, tick in enumerate(ticks) if tick.get("new") or not entries]),
                  label="line")
    tick, table = ticks[t], unwritten_entries(lines) + sum(len(tick.get("new", ())) for tick in ticks[:t + 1])
    if entries:
        k = data.draw(st.integers(0, len(tick["new"]) - 1))
        entry = tick["new"][k]
        if isinstance(entry, dict):  # a buffer state, whose fields are references
            entry[data.draw(st.sampled_from(sorted(entry)))] = data.draw(_FIELD)
        elif type(entry) is int:  # a row
            tick["new"][k] = data.draw(_FIELD)
        else:  # a cell: elements of its kind, or any kind for an empty cell
            kind = "int" if entry and type(entry[0]) is int else "message" if entry and "id" in entry[0] else "symbol"
            tick["new"][k] = data.draw(_LISTS[kind] if entry else st.one_of(*_LISTS.values()))
    else:
        key = data.draw(st.sampled_from([*LINE_FAMILIES, "wr", "rows", *STATE_KEYS]), label="field")
        ref = st.integers(-1, table + 1)
        value = data.draw(st.one_of(ref, st.lists(st.tuples(st.integers(-1, s.node_count), ref).map(list),
                                                  max_size=s.node_count + 1)))
        (tick.setdefault("state", {}) if key in STATE_KEYS else tick)[key] = value
    lines[1 + t] = _dumps(tick)
    try:
        trace = trace_from_jsonl("\n".join(lines) + "\n")
    except ValueError:
        return
    assert isinstance(check_all(trace), Report)


def _objects(value):
    """Every JSON object within a JSON value, outermost first."""
    if type(value) is dict:
        yield value
        for inner in value.values():
            yield from _objects(inner)
    elif type(value) is list:
        for inner in value:
            yield from _objects(inner)


# Every key of every kind of object that a scenario document or a trace file holds.
_KNOWN_KEYS = {key for line in (GOLDENS / "single_node.v12.jsonl").read_text().splitlines()
               for obj in _objects(json.loads(line)) for key in obj}


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.data())
def test_a_renamed_key_is_named_by_the_error(rng, data):
    """Rename one key of one object of a random scenario document, or of its run's dump (the header, its scenario, a
    tick line, its state or a table entry): the load must raise an error that names the key, by its old name or by
    its new one."""
    s = random_scenario(rng, nodes=rng.randint(1, 4), horizon=rng.randint(2, 24))
    in_dump = data.draw(st.booleans(), label="rename in the dump")
    lines = trace_to_jsonl(run_scenario(s)).splitlines() if in_dump else [scenario_to_json(s)]
    values = [json.loads(line) for line in lines]
    objects = [(n, obj) for n, value in enumerate(values) for obj in _objects(value)]
    n, obj = objects[data.draw(st.integers(0, len(objects) - 1), label="object")]
    old = data.draw(st.sampled_from(sorted(obj)), label="key")
    new = data.draw(st.one_of(st.sampled_from([old[:-1], old + "s", old.upper(), "x" + old]),
                              st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=3))
                    .filter(lambda key: key and key not in _KNOWN_KEYS), label="new key")
    obj[new] = obj.pop(old)
    lines[n] = _dumps(values[n])
    with pytest.raises(ValueError if in_dump else ScenarioError) as info:
        (trace_from_jsonl if in_dump else scenario_from_json)("\n".join(lines) + "\n")
    assert any(re.search(rf"[.']{re.escape(key)}'", str(info.value)) for key in (old, new)), info.value


_SCENARIO_KEY_NAMES = ("nodeCount", "horizon", "injections", "options", "bootstrapRequestTick", "node", "tick", "id",
                       "data")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats() | st.sampled_from(["", "aa", "0g", "x"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(_SCENARIO_KEY_NAMES) | st.text(max_size=2), inner, max_size=5),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_scenario_document_of_any_json_value_loads_or_raises_a_scenario_error(data):
    """Any JSON value, or a valid document with one value replaced by any JSON value, loads as a scenario or raises a
    ScenarioError; no other exception leaves the loader."""
    document = json.loads(json.dumps(_DOCUMENT))
    if data.draw(st.booleans(), label="a whole value"):
        document = data.draw(_JSON, label="document")
    else:
        objects = list(_objects(document))
        obj = objects[data.draw(st.integers(0, len(objects) - 1), label="object")]
        obj[data.draw(st.sampled_from(sorted(obj)) | st.sampled_from(_SCENARIO_KEY_NAMES), label="key")] = data.draw(
            _JSON, label="value")
    try:
        scenario_from_json(json.dumps(document))
    except ScenarioError:
        pass
