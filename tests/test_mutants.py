"""Which gate kills each mutant of a component step, on the saturated set.

A mutant is a monkeypatch of one step that canstream.system calls by name. The
encoder and decoder mutants below each break one of the state invariants that
`structural` judged while traces recorded those states ("pending present iff
e", "last_id present iff d"). A trace now records the buffer states only, so
each mutant must be killed by another gate: the run raises, or node 1's
deliveries differ from the oracle's. The checks must report on each mutant's
trace without raising.
"""
from __future__ import annotations

import pytest

import canstream.system as system
from canstream import ModelViolation, check_all, run_scenario
from canstream.components import DecoderState, EncoderState
from canstream.oracle import oracle_run
from canstream.system import delivery_log
from .conftest import saturated

SATURATED_SET = [saturated(s, nodes=4 + s % 8) for s in range(20)]


def _encoder_starting(make):
    """encoder_step, with the state it enters a frame with replaced by make(state)."""
    real = system.encoder_step

    def step(state, as_cell, t):
        out, nxt = real(state, as_cell, t)
        return out, make(nxt) if nxt.e else nxt
    return "encoder_step", step


def _decoder_starting(make):
    """decoder_step, with the state it reads an identifier into replaced by make(state)."""
    real = system.decoder_step

    def step(state, mr, t):
        out, nxt = real(state, mr, t)
        return out, make(nxt) if nxt.d else nxt
    return "decoder_step", step


MUTANTS = {
    "e without pending": _encoder_starting(lambda s: EncoderState(True, None)),
    "pending without e": _encoder_starting(lambda s: EncoderState(False, s.pending)),
    "d without last_id": _decoder_starting(lambda s: DecoderState(True, None)),
    "last_id without d": _decoder_starting(lambda s: DecoderState(False, s.last_id)),
}

# Per mutant, over the saturated set: the runs that raise, the runs whose node 1 deliveries differ from the oracle's,
# and the runs whose trace check_all flags.
MATRIX = {
    "e without pending": (0, 20, 20),  # a data symbol of no payload: transmission
    "pending without e": (0, 20, 20),  # no data symbol follows the identifier: format and transmission
    "d without last_id": (0, 20, 20),  # a delivery of no identifier: transmission
    "last_id without d": (20, 0, 0),  # the decoder rejects the data symbol: FormatViolation
}


@pytest.mark.parametrize("name", MUTANTS)
def test_each_encoder_and_decoder_mutant_is_killed_without_structural(name, monkeypatch):
    attr, step = MUTANTS[name]
    monkeypatch.setattr(system, attr, step)
    raised = differs = flagged = 0
    for s in SATURATED_SET:
        try:
            trace = run_scenario(s)
        except ModelViolation:
            raised += 1
            continue
        differs += delivery_log(trace, 1) != oracle_run(s)
        flagged += not check_all(trace).ok()
    assert raised + differs == len(SATURATED_SET)
    assert (raised, differs, flagged) == MATRIX[name]
