from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import canstream
from canstream.checkers import ALL_PREDICATES, check_all
from canstream.cli import main
from canstream.serialize import scenario_to_json, trace_from_jsonl
from .conftest import scenario

GOLDEN = {
    "nodeCount": 1,
    "horizon": 6,
    "injections": [{"node": 1, "tick": 0, "id": 5, "data": "ab"}],
    "options": {},
}


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(GOLDEN))
    return path


def test_run_writes_trace_with_delivery(golden_file, tmp_path, capsys):
    out = tmp_path / "golden.trace"
    assert main(["run", "--scenario", str(golden_file), "--trace", str(out)]) == 0
    trace = trace_from_jsonl(out.read_text())
    assert trace.node_stream("ar", 1).cells[3] == trace.node_stream("a", 1).cells[0]
    assert "1 deliveries" in capsys.readouterr().out


def test_run_then_check_passes(golden_file, tmp_path):
    out = tmp_path / "golden.trace"
    main(["run", "--scenario", str(golden_file), "--trace", str(out)])
    assert main(["check", "--trace", str(out)]) == 0


def test_check_has_no_latency_flag(golden_file, tmp_path, capsys):
    out = tmp_path / "golden.trace"
    main(["run", "--scenario", str(golden_file), "--trace", str(out)])
    with pytest.raises(SystemExit) as err:
        main(["check", "--trace", str(out), "--latency", "2"])
    assert err.value.code == 64
    assert "--latency" in capsys.readouterr().err


def test_check_has_no_strict_flag(golden_file, tmp_path, capsys):
    out = tmp_path / "golden.trace"
    main(["run", "--scenario", str(golden_file), "--trace", str(out)])
    with pytest.raises(SystemExit) as err:
        main(["check", "--trace", str(out), "--strict"])
    assert err.value.code == 64
    assert "--strict" in capsys.readouterr().err


# Two nodes send identifier 3: arbitration could not tell them apart.
SHARED_ID = {**GOLDEN, "nodeCount": 2, "horizon": 8, "injections": [
    {"node": 1, "tick": 1, "id": 3, "data": "aa"}, {"node": 2, "tick": 1, "id": 3, "data": "bb"}]}


@pytest.mark.parametrize("command", ["run", "oracle-diff"])
def test_a_shared_identifier_is_an_input_error_that_names_the_rule(tmp_path, capsys, command):
    bad = tmp_path / "shared.json"
    bad.write_text(json.dumps(SHARED_ID))
    out = tmp_path / "t"
    trace_args = ["--trace", str(out)] if command == "run" else []
    assert main([command, "--scenario", str(bad), *trace_args]) == 2
    captured = capsys.readouterr()
    assert "scenario error: duplicate-identifier: identifier 3 is injected at nodes 1 and 2" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_check_catches_corruption(golden_file, tmp_path):
    out = tmp_path / "golden.trace"
    main(["run", "--scenario", str(golden_file), "--trace", str(out)])
    lines = out.read_text().splitlines()
    tick3 = json.loads(lines[4])
    assert tick3["t"] == 3 and tick3["ar"]
    tick3["ar"] = []  # erase the delivery
    lines[4] = json.dumps(tick3, sort_keys=True, separators=(",", ":"))
    out.write_text("\n".join(lines) + "\n")
    assert main(["check", "--trace", str(out)]) == 1


def test_check_finds_two_messages_in_one_application_cell(tmp_path):
    lines = (Path(__file__).parent / "goldens" / "single_node.v2.jsonl").read_text().splitlines()
    tick0 = json.loads(lines[1])
    [[node, cell]] = tick0["a"]
    tick0["a"] = [[node, cell + [{"data": "cd", "id": 6}]]]
    lines[1] = json.dumps(tick0, sort_keys=True, separators=(",", ":"))
    out = tmp_path / "wide_a.trace"
    out.write_text("\n".join(lines) + "\n")
    report = check_all(trace_from_jsonl(out.read_text()))
    assert [(v.predicate, v.tick, v.streams) for v in report.violations] == [("msg1", 0, ("a_1",))]
    assert main(["check", "--trace", str(out), "--only", "msg1"]) == 1


def test_check_json_prints_the_report_with_the_same_exit_codes(golden_file, tmp_path, capsys):
    out = tmp_path / "golden.trace"
    main(["run", "--scenario", str(golden_file), "--trace", str(out)])
    capsys.readouterr()
    assert main(["check", "--trace", str(out), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert [e["predicate"] for e in report["predicates"]] == list(ALL_PREDICATES)
    assert len(ALL_PREDICATES) == 6

    lines = out.read_text().splitlines()
    tick3 = json.loads(lines[4])
    tick3["ar"] = []  # erase the delivery
    lines[4] = json.dumps(tick3, sort_keys=True, separators=(",", ":"))
    out.write_text("\n".join(lines) + "\n")
    assert main(["check", "--trace", str(out), "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_malformed_scenario_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--scenario", str(bad), "--trace", str(tmp_path / "t")]) == 2


def test_invalid_scenario_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nodeCount": 0, "horizon": 4, "injections": []}))
    assert main(["run", "--scenario", str(bad), "--trace", str(tmp_path / "t")]) == 2


@pytest.mark.parametrize("key,rule,value", [("reqDelay", "req-delay", 0), ("mtLatency", "mt-latency", 3)])
def test_run_rejects_a_fixed_option_at_another_value(tmp_path, capsys, key, rule, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**GOLDEN, "options": {key: value}}))
    assert main(["run", "--scenario", str(bad), "--trace", str(tmp_path / "t")]) == 2
    assert f"{rule}: {key} is fixed" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


def _with_option(key, value):
    return {**GOLDEN, "options": {key: value}}


def _with_injection_field(key, value):
    return {**GOLDEN, "injections": [{**GOLDEN["injections"][0], key: value}]}


# Scenario documents the loader rejects, by case: (document, what stderr names).
MISTYPED = {
    "fidelityMode string": (_with_option("fidelityMode", "false"), 'fidelityMode must be true or false, got "false"'),
    "fidelityMode int": (_with_option("fidelityMode", 0), "fidelityMode must be true or false, got 0"),
    "bootstrap string": (_with_option("bootstrapRequestTick", "0"),
                         'bootstrapRequestTick must be an integer or null, got "0"'),
    "bootstrap bool": (_with_option("bootstrapRequestTick", True),
                       "bootstrapRequestTick must be an integer or null, got true"),
    "reqDelay bool": (_with_option("reqDelay", True), "req-delay: reqDelay is fixed at 1, got true"),
    "nodeCount bool": ({**GOLDEN, "nodeCount": True}, "nodeCount must be an integer, got true"),
    "horizon string": ({**GOLDEN, "horizon": "6"}, 'horizon must be an integer, got "6"'),
    "tick float": (_with_injection_field("tick", 0.9), "injections[0].tick must be an integer, got 0.9"),
    "node float": (_with_injection_field("node", 1.0), "injections[0].node must be an integer, got 1.0"),
    "id string": (_with_injection_field("id", "5"), 'injections[0].id must be an integer, got "5"'),
    "data int": (_with_injection_field("data", 171), "injections[0].data must be a hex string, got 171"),
    "data spaced": (_with_injection_field("data", "a b"), 'injections[0].data must be a hex string, got "a b"'),
    "payload 9 octets": (_with_injection_field("data", "00" * 9), "payload: payload of 9 octets exceeds 8"),
}


@pytest.mark.parametrize("case", sorted(MISTYPED))
def test_run_rejects_a_field_of_the_wrong_type_or_size(tmp_path, capsys, case):
    document, message = MISTYPED[case]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    assert main(["run", "--scenario", str(bad), "--trace", str(tmp_path / "t")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("horizon", [0, 1, 2])
def test_short_horizon_runs_then_checks_clean(tmp_path, horizon):
    src = tmp_path / "short.json"
    src.write_text(json.dumps({"nodeCount": 1, "horizon": horizon}))
    out = tmp_path / "short.trace"
    assert main(["run", "--scenario", str(src), "--trace", str(out)]) == 0
    assert main(["check", "--trace", str(out)]) == 0


def test_zero_horizon_scenario_runs_clean(tmp_path):
    src = tmp_path / "empty.json"
    src.write_text(json.dumps({"nodeCount": 2, "horizon": 0, "injections": []}))
    out = tmp_path / "empty.trace"
    assert main(["run", "--scenario", str(src), "--trace", str(out)]) == 0
    assert trace_from_jsonl(out.read_text()).horizon == 0


def test_unknown_predicate_is_usage_error(golden_file, tmp_path):
    out = tmp_path / "t.trace"
    main(["run", "--scenario", str(golden_file), "--trace", str(out)])
    assert main(["check", "--trace", str(out), "--only", "bogus"]) == 64


def test_bad_flags_are_usage_errors(golden_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 64
    capsys.readouterr()
    # the literal variants are scenario options, not flags
    for command in (["run", "--trace", str(tmp_path / "t")], ["oracle-diff"]):
        with pytest.raises(SystemExit) as err:
            main([*command, "--scenario", str(golden_file), "--fidelity"])
        assert err.value.code == 64
        assert "unrecognized arguments: --fidelity" in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


def test_fuzz_passes_and_is_quietly_deterministic(tmp_path, capsys):
    args = ["fuzz", "--seed", "11", "--nodes", "2", "--horizon", "16",
            "--count", "4", "--outdir", str(tmp_path / "fails")]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert not (tmp_path / "fails").exists()  # nothing failed, nothing written


def test_fuzz_writes_failing_scenarios_for_replay(tmp_path, monkeypatch, capsys):
    import canstream.cli as cli

    real = cli.compare_with_simulator

    def always_diverges(scenario):
        result = real(scenario)
        return type(result)(
            equivalent=False, simulator_log=result.simulator_log,
            oracle_log=result.oracle_log, first_divergence=0, trace=result.trace,
        )

    monkeypatch.setattr(cli, "compare_with_simulator", always_diverges)
    outdir = tmp_path / "fails"
    args = ["fuzz", "--seed", "3", "--nodes", "2", "--horizon", "8",
            "--count", "2", "--outdir", str(outdir)]
    assert main(args) == 1
    capsys.readouterr()
    written = sorted(p.name for p in outdir.iterdir())
    assert written == ["fail_00000.json", "fail_00001.json"]
    first = [(p.name, p.read_text()) for p in sorted(outdir.iterdir())]
    assert main(args) == 1
    capsys.readouterr()
    assert [(p.name, p.read_text()) for p in sorted(outdir.iterdir())] == first


def test_fuzz_rejects_degenerate_parameters(tmp_path):
    assert main(["fuzz", "--nodes", "0", "--outdir", str(tmp_path)]) == 64
    assert main(["fuzz", "--nodes", "2", "--horizon", "2", "--outdir", str(tmp_path)]) == 64
    assert main(["fuzz", "--nodes", "2", "--count", "0", "--outdir", str(tmp_path)]) == 64


def test_component_failure_is_runtime_error(golden_file, tmp_path, monkeypatch):
    # unreachable from a validated scenario, so force it: the partial trace
    # must still be written and the exit code must be 3
    from canstream import run_scenario
    from canstream.system import RunError
    import canstream.cli as cli

    def explode(scenario):
        partial = run_scenario(scenario)
        raise RunError("tick 4: synthetic failure", partial)

    monkeypatch.setattr(cli, "run_scenario", explode)
    out = tmp_path / "partial.trace"
    assert main(["run", "--scenario", str(golden_file), "--trace", str(out)]) == 3
    assert out.exists()


def test_oracle_diff_equivalent(golden_file):
    assert main(["oracle-diff", "--scenario", str(golden_file)]) == 0


def test_oracle_diff_flags_fidelity_stall(tmp_path, capsys):
    # each of the two options that stall the golden scenario
    for key, value in (("fidelityMode", True), ("bootstrapRequestTick", None)):
        stalled = tmp_path / f"{key}.json"
        stalled.write_text(json.dumps(_with_option(key, value)))
        assert main(["oracle-diff", "--scenario", str(stalled)]) == 1, key
        assert "inequivalent" in capsys.readouterr().out


def test_run_fidelity_produces_no_deliveries(tmp_path, capsys):
    stalled = tmp_path / "stall.json"
    stalled.write_text(json.dumps(_with_option("fidelityMode", True)))
    out = tmp_path / "stall.trace"
    assert main(["run", "--scenario", str(stalled), "--trace", str(out)]) == 0
    assert "0 deliveries" in capsys.readouterr().out
    # the row-3 monitor diagnoses the literal row 2: identifiers never reach the bus
    assert main(["check", "--trace", str(out), "--only", "row3"]) == 1
    assert "FAIL row3: 2 violations" in capsys.readouterr().out


def test_the_cli_imports_every_module_of_the_package():
    package = Path(canstream.__file__).parent
    code = (f"import sys; sys.path.insert(0, {str(package.parent)!r}); import canstream.cli; "
            "print(*sorted(m for m in sys.modules if m.startswith('canstream.')))")
    loaded = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True, check=True)
    modules = {f"canstream.{p.stem}" for p in package.glob("*.py")} - {"canstream.__init__", "canstream.__main__"}
    assert modules - set(loaded.stdout.split()) == set()


def test_scenario_json_round_trips_via_cli_format(tmp_path):
    s = scenario(3, 10, (1, 1, 4, b"\x01"), (3, 5, 9, b"\x02\x03"))
    path = tmp_path / "s.json"
    path.write_text(scenario_to_json(s))
    out = tmp_path / "s.trace"
    assert main(["run", "--scenario", str(path), "--trace", str(out)]) == 0
    assert trace_from_jsonl(out.read_text()).scenario == s
