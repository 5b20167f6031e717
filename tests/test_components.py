from __future__ import annotations

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from canstream import (
    REQ,
    AssumptionViolation,
    DataSym,
    FormatViolation,
    IdSym,
    InputCollision,
    MixingViolation,
)
from canstream.components import (
    BufferState,
    DecoderState,
    EncoderState,
    LogicalLayerState,
    buffer_step,
    decoder_step,
    dispatch_row,
    encoder_step,
    logical_layer_step,
    wire_emission,
)
from canstream.primitives import broadcast, collect_elements
from canstream.system import initial_state
from .conftest import amsg
from .test_primitives import amessages


# -- buffer ---------------------------------------------------------------------

def test_buffer_silent_on_even_ticks():
    st_ = BufferState(b=(amsg(1),))
    out, _ = buffer_step(st_, (), (), 2)
    assert out == ()


def test_buffer_offers_slot_on_odd_ticks():
    m = amsg(1)
    out, nxt = buffer_step(BufferState(b=(m,)), (), (), 3)
    assert out == (m,)
    assert nxt.b == (m,)  # no request: slot is kept


def test_buffer_no_request_queues_arrival():
    m = amsg(4)
    _, nxt = buffer_step(BufferState(), (m,), (), 0)
    assert nxt == BufferState(buf=(m,), b=())


def test_buffer_request_with_empty_queue_bypasses():
    queued = amsg(4, b"p")
    new = amsg(2, b"q")
    _, nxt = buffer_step(BufferState(buf=(queued,), b=(amsg(9),)), (new,), (REQ,), 1)
    # The arrival joins the queue by priority; the request pops the head.
    assert nxt.b == (new,)
    assert nxt.buf == (queued,)


def test_buffer_request_empty_queue_takes_arrival_directly():
    new = amsg(2)
    _, nxt = buffer_step(BufferState(), (new,), (REQ,), 1)
    assert nxt == BufferState(buf=(), b=(new,))


def test_buffer_request_clears_slot_when_nothing_pending():
    _, nxt = buffer_step(BufferState(b=(amsg(5),)), (), (REQ,), 1)
    assert nxt.b == ()


def test_buffer_idle_request_keeps_the_state_object():
    # a standing request with nothing queued, offered or arriving changes nothing
    state = BufferState()
    _, nxt = buffer_step(state, (), (REQ,), 3)
    assert nxt is state


def test_buffer_rejects_wide_input():
    with pytest.raises(AssumptionViolation):
        buffer_step(BufferState(), (amsg(1), amsg(2)), (), 0)


@given(
    st.lists(st.tuples(st.one_of(st.none(), amessages), st.booleans()), max_size=40),
)
def test_buffer_invariants_under_any_input_sequence(inputs):
    state = BufferState()
    for t, (arrival, req) in enumerate(inputs):
        a = () if arrival is None else (arrival,)
        out, state = buffer_step(state, a, (REQ,) if req else (), t)
        assert len(out) <= 1
        assert len(state.b) <= 1
        ids = [m.id for m in state.buf]
        assert ids == sorted(ids)


# -- encoder --------------------------------------------------------------------

def test_encoder_idle():
    out, nxt = encoder_step(EncoderState(), (), 0)
    assert out == ()
    assert nxt == EncoderState()


def test_encoder_emits_identifier_then_caches_payload():
    out, nxt = encoder_step(EncoderState(), (amsg(5, b"\xab"),), 1)
    assert out == (IdSym(5),)
    assert nxt == EncoderState(e=True, pending=b"\xab")


def test_encoder_emits_cached_payload():
    out, nxt = encoder_step(EncoderState(e=True, pending=b"\xab"), (), 2)
    assert out == (DataSym(b"\xab"),)
    assert nxt == EncoderState()


def test_encoder_rejects_back_to_back_input():
    with pytest.raises(InputCollision):
        encoder_step(EncoderState(e=True, pending=b"p"), (amsg(1),), 2)


def test_encoder_then_decoder_round_trip():
    # Feed the encoder's two-symbol frame straight into a decoder.
    msg = amsg(5, b"\xab")
    ms1, enc = encoder_step(EncoderState(), (msg,), 1)
    ar1, dec = decoder_step(DecoderState(), ms1, 1)
    ms2, enc = encoder_step(enc, (), 2)
    ar2, dec = decoder_step(dec, ms2, 2)
    assert ar1 == ()
    assert ar2 == (msg,)
    assert enc == EncoderState() and dec == DecoderState()


# -- decoder --------------------------------------------------------------------

def test_decoder_idle():
    out, nxt = decoder_step(DecoderState(), (), 0)
    assert out == ()
    assert nxt == DecoderState()


def test_decoder_remembers_identifier():
    out, nxt = decoder_step(DecoderState(), (IdSym(5),), 1)
    assert out == ()
    assert nxt == DecoderState(d=True, last_id=5)


def test_decoder_builds_message_from_data():
    out, nxt = decoder_step(DecoderState(d=True, last_id=5), (DataSym(b"p"),), 2)
    assert out == (amsg(5, b"p"),)
    assert nxt == DecoderState()


def test_decoder_format_violations():
    with pytest.raises(FormatViolation):
        decoder_step(DecoderState(), (DataSym(b"p"),), 0)
    with pytest.raises(FormatViolation):
        decoder_step(DecoderState(d=True, last_id=1), (IdSym(2),), 1)


# -- bus-access layer -------------------------------------------------------------

def test_row1_idle_mirrors_bus():
    mr, ws, r, nxt = logical_layer_step(LogicalLayerState(), (), (IdSym(9),), 0)
    assert (mr, ws, r) == ((IdSym(9),), (), ())
    assert nxt.lid == 0


def test_row2_forwards_identifier_and_stores_it():
    mr, ws, r, nxt = logical_layer_step(LogicalLayerState(), (IdSym(5),), (), 1)
    assert (mr, ws, r) == ((), (IdSym(5),), ())
    assert nxt.lid == 5


def test_row3_data_with_empty_bus():
    mr, ws, r, nxt = logical_layer_step(LogicalLayerState(lid=5), (DataSym(b"p"),), (), 2)
    assert (mr, ws, r) == ((), (), ())
    assert nxt.lid == 5


def test_row4_won_arbitration_transmits_and_requests():
    mr, ws, r, nxt = logical_layer_step(LogicalLayerState(lid=5), (DataSym(b"p"),), (IdSym(5),), 2)
    assert mr == (IdSym(5),)
    assert ws == (DataSym(b"p"),)
    assert r == (REQ,)
    assert nxt.lid == 5


def test_row5_lost_arbitration_swallows():
    mr, ws, r, _ = logical_layer_step(LogicalLayerState(lid=7), (DataSym(b"p"),), (IdSym(5),), 2)
    assert mr == (IdSym(5),)
    assert (ws, r) == ((), ())


def test_row5_when_bus_carries_data():
    # A data symbol on the bus can never equal the stored identifier.
    row = dispatch_row((DataSym(b"p"),), (DataSym(b"q"),), 3)
    assert row == 5


def test_mr_always_mirrors_wr():
    for wr in ((), (IdSym(1),), (DataSym(b"x"),)):
        mr, _, _, _ = logical_layer_step(LogicalLayerState(), (), wr, 4)
        assert mr == wr


# -- wire -------------------------------------------------------------------------

def test_wire_silent_at_zero():
    assert wire_emission(initial_state(3).wire, 0) == ()


def test_wire_unit_delay_arbitration():
    assert wire_emission([(IdSym(5),), (IdSym(3),)], 2) == (IdSym(3),)


def test_wire_single_data_passes():
    assert wire_emission([(), (DataSym(b"p"),)], 2) == (DataSym(b"p"),)


def test_wire_mixing_names_tick_and_nodes():
    # collection is descending by node, so node 2's identifier heads the latch
    with pytest.raises(MixingViolation, match=r"from tick 3 .* \(nodes \[2, 1\]\)$"):
        wire_emission([(DataSym(b"p"),), (IdSym(5),)], 4)


def test_wire_data_head_hides_trailing_identifier():
    # with the identifier from the lower-indexed node, the data symbol heads
    # the latch and passes through; the stream-level checker catches this kind
    # of tick separately
    assert wire_emission([(IdSym(5),), (DataSym(b"p"),)], 4) == (DataSym(b"p"),)


@pytest.mark.parametrize("step,name", [
    (lambda wide: encoder_step(EncoderState(), wide, 3), "encoder input"),
    (lambda wide: decoder_step(DecoderState(), wide, 3), "decoder input"),
    (lambda wide: logical_layer_step(LogicalLayerState(), wide, (), 3), "bus-access input ms"),
    (lambda wide: logical_layer_step(LogicalLayerState(), (), wide, 3), "bus-access input wr"),
])
def test_each_component_rejects_two_messages_in_one_input_cell(step, name):
    with pytest.raises(AssumptionViolation, match=rf"^{name} carries 2 messages at tick 3$"):
        step((IdSym(1), IdSym(2)))


def test_wire_rejects_wide_cell():
    with pytest.raises(AssumptionViolation):
        wire_emission([(IdSym(1), IdSym(2))], 2)


def test_wire_names_the_lowest_node_with_a_wide_cell():
    wide = (IdSym(1), IdSym(2))
    with pytest.raises(AssumptionViolation, match=r"^ws_2 carries 2 messages at tick 5$"):
        wire_emission([(IdSym(3),), wide, (), wide + (IdSym(4),)], 6)


@given(st.lists(st.sampled_from([(), (IdSym(1),), (IdSym(7),), (DataSym(b"p"),)]), max_size=8))
def test_wire_latch_collects_offers_highest_node_first(ws_all):
    latch = collect_elements(len(ws_all), ws_all)
    nodes = [i for i in range(len(ws_all), 0, -1) if ws_all[i - 1]]
    try:
        expected = broadcast(latch)
    except MixingViolation:
        with pytest.raises(MixingViolation, match=re.escape(f"(nodes {nodes})")):
            wire_emission(ws_all, 1)
    else:
        assert wire_emission(ws_all, 1) == expected
