"""The bus's minimum-wins rule is what CAN's bitwise arbitration computes.

On a CAN bus every sender drives its identifier one bit at a time, most
significant bit first, onto a wired-AND line: a dominant 0 from any sender
overrides a recessive 1. A sender that sends a recessive 1 and reads back a
dominant 0 has lost and stops sending. `arbitrate` models that bit by bit, and
the tests compare what it leaves on the bus with `primitives.broadcast` and
`components.wire_emission` on rows of identifier offers.
"""
from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canstream import IdSym
from canstream.components import wire_emission
from canstream.primitives import broadcast


def arbitrate(ids: list[int], width: int) -> tuple[int, list[int]]:
    """Bitwise arbitration of `width`-bit identifiers: the identifier that the bus reads, and the indices of the
    senders still standing after its last bit."""
    standing, read = list(range(len(ids))), 0
    for bit in reversed(range(width)):
        sent = {i: ids[i] >> bit & 1 for i in standing}
        level = min(sent.values())  # wired AND: one dominant 0 pulls the line low
        standing = [i for i in standing if not (sent[i] == 1 and level == 0)]  # a recessive sender that reads 0 stops
        read = read << 1 | level
    return read, standing


def _agrees(ids: list[int], width: int, silent: int = 0) -> None:
    """The bit-level winner is the model's, through broadcast and through the wire with `silent` idle nodes first."""
    read, standing = arbitrate(ids, width)
    assert standing == [i for i, ident in enumerate(ids) if ident == min(ids)]
    assert broadcast(tuple(map(IdSym, ids))) == (IdSym(read),)
    offers = ((),) * silent + tuple((IdSym(ident),) for ident in ids)
    assert wire_emission(offers, 1) == (IdSym(read),)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_every_row_of_up_to_three_small_identifiers_arbitrates_to_its_minimum(width):
    for senders in (1, 2, 3):
        for ids in product(range(2 ** width), repeat=senders):
            _agrees(list(ids), width)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([11, 29]).flatmap(lambda width: st.tuples(
    st.just(width),
    st.lists(st.integers(0, 2 ** width - 1), min_size=1, max_size=64, unique=True),
    st.integers(0, 3),
)))
def test_standard_and_extended_identifiers_arbitrate_to_their_minimum(case):
    width, ids, silent = case
    _agrees(ids, width, silent)
    assert len(arbitrate(ids, width)[1]) == 1  # distinct identifiers leave one sender standing


def test_equal_minimal_identifiers_leave_two_senders_standing():
    # Both senders of 0x123 read back every bit they sent, so each believes it won and sends its data field at once.
    # The model cannot tell them apart either, which is why a scenario gives each identifier one sender (the
    # duplicate-identifier rule).
    ids = [0x456, 0x123, 0x7FF, 0x123]
    assert arbitrate(ids, 11) == (0x123, [1, 3])
    assert broadcast(tuple(map(IdSym, ids))) == (IdSym(0x123),)
