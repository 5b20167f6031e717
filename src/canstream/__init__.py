"""Executable synchronous model of CAN bus arbitration over timed streams.

Components (buffer, encoder, bus-access layer, decoder, wire) are pure state
machines composed into a full multi-node system, with trace checkers for the
protocol's assumption/guarantee predicates and a brute-force oracle for
equivalence testing.
"""
from .checkers import (
    Report,
    Violation,
    check_all,
    check_message_transmission,
    check_msg1,
    check_msg_can_format,
    check_row3_unreachable,
    check_structural,
    check_wire_assumptions,
)
from .core import (
    FRAME_LATENCY,
    REQ,
    AMessage,
    AssumptionViolation,
    DataSym,
    FormatViolation,
    IdSym,
    Injection,
    InputCollision,
    Message,
    MixingViolation,
    ModelViolation,
    Scenario,
    ScenarioError,
    TimedStream,
    Trace,
    assemble_trace,
    validate_scenario,
)
from .oracle import divergence, oracle_run
from .system import SystemState, delivery_log, run_scenario, tick_system

__version__ = "0.1.0"

__all__ = [
    "AMessage", "AssumptionViolation", "DataSym", "FRAME_LATENCY", "FormatViolation",
    "IdSym", "Injection", "InputCollision", "Message", "MixingViolation",
    "ModelViolation", "REQ", "Report", "Scenario", "ScenarioError", "SystemState", "TimedStream", "Trace",
    "Violation", "assemble_trace", "check_all", "check_message_transmission", "check_msg1",
    "check_msg_can_format", "check_row3_unreachable", "check_structural",
    "check_wire_assumptions", "delivery_log", "divergence", "oracle_run",
    "run_scenario", "tick_system", "validate_scenario",
]
