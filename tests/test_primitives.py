from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from canstream import AMessage, DataSym, IdSym, MixingViolation
from canstream.primitives import (
    broadcast,
    collect_elements,
    min_nat_list,
    pr_add,
)
from .conftest import amsg

amessages = st.builds(
    AMessage,
    st.integers(min_value=0, max_value=500),
    st.binary(max_size=8),
)


# -- collect_elements ----------------------------------------------------------

def test_collect_zero_arity():
    assert collect_elements(0, [("a",), ("b",)]) == ()


def test_collect_skips_empties():
    assert collect_elements(2, [(), ("m",)]) == ("m",)


def test_collect_descending_index_order():
    assert collect_elements(3, [("a",), (), ("c",)]) == ("c", "a")


def test_collect_arity_error():
    with pytest.raises(ValueError):
        collect_elements(3, [(), ()])


@given(st.lists(st.lists(st.integers(), max_size=3), max_size=6))
def test_collect_length_and_membership(cells):
    out = collect_elements(len(cells), cells)
    assert len(out) == sum(len(c) for c in cells)
    assert sorted(out) == sorted(x for c in cells for x in c)


# -- min_nat_list ----------------------------------------------------------------

def test_min_nat_list_empty():
    assert min_nat_list(5, ()) == 5


def test_min_nat_list_picks_smaller():
    assert min_nat_list(3, (5, 1)) == 1


def test_min_nat_list_zero_floor():
    assert min_nat_list(0, (7,)) == 0


@given(st.integers(min_value=0), st.lists(st.integers(min_value=0)))
def test_min_nat_list_is_min(a, values):
    result = min_nat_list(a, values)
    assert result in {a, *values}
    assert result <= a and all(result <= v for v in values)


# -- pr_add ----------------------------------------------------------------------

def test_pr_add_empty():
    m = amsg(1)
    assert pr_add((), m) == (m,)


def test_pr_add_inserts_by_priority():
    buf = (amsg(2), amsg(5))
    new = amsg(3, b"\x01")
    assert pr_add(buf, new) == (amsg(2), new, amsg(5))


def test_pr_add_equal_ids_keep_arrival_order():
    first = AMessage(3, b"p")
    second = AMessage(3, b"q")
    assert pr_add((first,), second) == (first, second)


def _sorted_by_id(msgs):
    return all(msgs[k].id <= msgs[k + 1].id for k in range(len(msgs) - 1))


@given(st.lists(amessages), amessages)
def test_pr_add_permutation_and_sortedness(msgs, new):
    buf = ()
    for m in msgs:
        buf = pr_add(buf, m)
    assert _sorted_by_id(buf)
    out = pr_add(buf, new)
    assert _sorted_by_id(out)
    assert sorted((m.id, m.data) for m in out) == sorted((m.id, m.data) for m in (*buf, new))


# -- broadcast -------------------------------------------------------------------

def test_broadcast_empty():
    assert broadcast(()) == ()


def test_broadcast_arbitrates_min_id():
    assert broadcast((IdSym(2), IdSym(7), IdSym(4))) == (IdSym(2),)


def test_broadcast_data_head_passes_through():
    assert broadcast((DataSym(b"p"), IdSym(9))) == (DataSym(b"p"),)


def test_broadcast_mixing_is_error():
    with pytest.raises(MixingViolation):
        broadcast((IdSym(2), DataSym(b"p")))


@given(st.lists(st.integers(min_value=0, max_value=100).map(IdSym)))
def test_broadcast_short_output(symbols):
    assert len(broadcast(tuple(symbols))) <= 1
