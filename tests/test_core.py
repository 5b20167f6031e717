from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from canstream import (
    AMessage,
    Scenario,
    TimedStream,
    make_amessage,
    validate_scenario,
)
from .conftest import scenario


def test_constructor_selector_identity():
    m = make_amessage(5, b"\xab")
    assert m == AMessage(5, b"\xab")
    assert m.id == 5
    assert m.data == b"\xab"


@given(st.integers(min_value=0), st.binary(max_size=8))
def test_construct_destruct_round_trip(ident, payload):
    m = make_amessage(ident, payload)
    assert (m.id, m.data) == (ident, payload)


def test_oversized_payload_rejected():
    with pytest.raises(ValueError):
        make_amessage(1, b"\x00" * 9)
    make_amessage(1, b"\x00" * 9, max_payload=16)  # cap is configuration


def test_negative_identifier_rejected():
    with pytest.raises(ValueError):
        make_amessage(-1, b"")


def test_timed_stream_cell_access():
    s = TimedStream.of([["x"], []])
    assert s.horizon == 2
    assert s.cells[0] == ("x",)


def test_validate_empty_scenario():
    assert validate_scenario(scenario(2, 4)) == []


def test_validate_duplicate_injection():
    s = scenario(1, 8, (1, 3, 5, b""), (1, 3, 6, b""))
    found = validate_scenario(s)
    assert any(v.rule == "duplicate-injection" and v.tick == 3 for v in found)


def test_validate_out_of_horizon():
    found = validate_scenario(scenario(1, 4, (1, 9, 5, b"")))
    assert any(v.rule == "out-of-horizon" for v in found)


def test_validate_node_range():
    found = validate_scenario(scenario(2, 4, (3, 0, 5, b"")))
    assert any(v.rule == "node-range" and v.node == 3 for v in found)


def test_validate_degenerate_counts():
    assert any(v.rule == "node-count" for v in validate_scenario(Scenario(0, 4)))
    assert any(v.rule == "horizon" for v in validate_scenario(Scenario(1, -1)))


def test_validate_zero_horizon_is_fine():
    assert validate_scenario(Scenario(3, 0)) == []
