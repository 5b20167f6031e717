from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from canstream import (
    AMessage,
    Injection,
    Scenario,
    ScenarioError,
    TimedStream,
    run_scenario,
    validate_scenario,
)
from canstream.core import MAX_PAYLOAD
from canstream.serialize import scenario_from_json, scenario_to_json
from .conftest import scenario


def test_constructor_selector_identity():
    m = AMessage(5, b"\xab")
    assert m == AMessage(5, b"\xab")
    assert m.id == 5
    assert m.data == b"\xab"


@given(st.integers(min_value=0), st.binary(max_size=MAX_PAYLOAD))
def test_construct_destruct_round_trip(ident, payload):
    s = scenario(1, 2, (1, 1, ident, payload))
    assert validate_scenario(s) == []
    (inj,) = scenario_from_json(scenario_to_json(s)).injections
    assert (inj.message.id, inj.message.data) == (ident, payload)


def test_oversized_payload_rejected():
    assert MAX_PAYLOAD == 8  # the CAN 2.0 data field
    assert validate_scenario(scenario(1, 4, (1, 1, 5, b"\x00" * 8))) == []
    found = validate_scenario(scenario(1, 4, (1, 1, 5, b"\x00" * 9)))
    assert [(v.rule, v.node, v.tick, v.detail) for v in found] == [
        ("payload", 1, 1, "payload of 9 octets exceeds 8")]


def test_negative_identifier_rejected():
    found = validate_scenario(scenario(1, 4, (1, 1, -1, b"")))
    assert [(v.rule, v.detail) for v in found] == [("identifier", "identifier -1 is negative")]


def test_timed_stream_cell_access():
    s = TimedStream((("x",), ()))
    assert s.cells[0] == ("x",)


def test_validate_empty_scenario():
    assert validate_scenario(scenario(2, 4)) == []


def test_validate_duplicate_injection():
    s = scenario(1, 8, (1, 3, 5, b""), (1, 3, 6, b""))
    found = validate_scenario(s)
    assert any(v.rule == "duplicate-injection" and v.tick == 3 for v in found)


def test_validate_identifier_sent_by_two_nodes():
    found = validate_scenario(scenario(3, 8, (1, 1, 3, b"a"), (1, 3, 3, b"b"), (3, 1, 3, b"c"), (2, 1, 4, b"")))
    assert [(v.rule, v.node, v.tick, v.detail) for v in found] == [
        ("duplicate-identifier", 3, 1, "identifier 3 is injected at nodes 1 and 3")]
    # one node may repeat an identifier, at any ticks
    assert validate_scenario(scenario(2, 8, (1, 1, 3, b"a"), (1, 3, 3, b"b"), (2, 1, 4, b""))) == []


def test_validate_out_of_horizon():
    found = validate_scenario(scenario(1, 4, (1, 9, 5, b"")))
    assert any(v.rule == "out-of-horizon" for v in found)


def test_validate_node_range():
    found = validate_scenario(scenario(2, 4, (3, 0, 5, b"")))
    assert any(v.rule == "node-range" and v.node == 3 for v in found)


def test_validate_degenerate_counts():
    assert any(v.rule == "node-count" for v in validate_scenario(Scenario(0, 4)))
    assert any(v.rule == "horizon" for v in validate_scenario(Scenario(1, -1)))


@pytest.mark.parametrize("s, expected", [
    (Scenario(None, 4), [("node-count", None, None, "nodeCount must be an integer, got None")]),
    (Scenario(True, 4), [("node-count", None, None, "nodeCount must be an integer, got True")]),
    (Scenario(1, "4"), [("horizon", None, None, "horizon must be an integer, got '4'")]),
    (Scenario(1, 4.0), [("horizon", None, None, "horizon must be an integer, got 4.0")]),
    (Scenario(2, 4, (Injection(1, None, AMessage(5, b"")),)),
     [("out-of-horizon", 1, None, "injection tick must be an integer, got None")]),
    (Scenario(2, 4, (Injection("1", 0, AMessage(5, b"")),)),
     [("node-range", "1", 0, "node must be an integer, got '1'")]),
    (Scenario(2, 4, (Injection(1, 0, AMessage(None, b"")),)),
     [("identifier", 1, 0, "identifier must be an integer, got None")]),
    (Scenario(1, 4, (Injection(1, 1, AMessage(1, "ab")),)), [("payload", 1, 1, "payload must be bytes, got 'ab'")]),
    (Scenario(1, 4, (Injection(1, 1, AMessage(1, bytearray(b"ab"))),)),
     [("payload", 1, 1, "payload must be bytes, got bytearray(b'ab')")]),
    # A count of the wrong type leaves the ranges that rest on it unchecked, and nothing else.
    (Scenario(None, "4", (Injection(9, 9, AMessage(-1, b"")),)),
     [("node-count", None, None, "nodeCount must be an integer, got None"),
      ("horizon", None, None, "horizon must be an integer, got '4'"),
      ("identifier", 9, 9, "identifier -1 is negative")]),
    # Injections that are not a tuple of records, which the loader never makes.
    (Scenario(1, 4, None), [("injections", None, None, "injections must be a tuple, got None")]),
    (Scenario(1, 4, (Injection(1, 0, None),)),
     [("injections", None, None,
       "injection must be an Injection of an AMessage, got Injection(node=1, tick=0, message=None)")]),
    (Scenario(1, 4, ((1, 0, AMessage(5, b"")),)),
     [("injections", None, None,
       "injection must be an Injection of an AMessage, got (1, 0, AMessage(id=5, data=b''))")]),
])
def test_a_value_of_the_wrong_type_is_a_violation_not_an_error(s, expected):
    """Counts, ticks, nodes and identifiers must be integers as the loader reads them, payloads bytes, and the
    injections a tuple of Injection records, each of an AMessage."""
    assert [(v.rule, v.node, v.tick, v.detail) for v in validate_scenario(s)] == expected
    with pytest.raises(ScenarioError, match=f"^{expected[0][0]}: "):
        run_scenario(s)


def test_validate_zero_horizon_is_fine():
    assert validate_scenario(Scenario(3, 0)) == []


@pytest.mark.parametrize("node", [0, 3])
def test_a_node_stream_outside_the_nodes_is_an_error(node):
    trace = run_scenario(scenario(2, 4))
    with pytest.raises(ValueError, match=rf"^node {node} outside \[1..2\]$"):
        trace.node_stream("a", node)
