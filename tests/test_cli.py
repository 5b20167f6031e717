from __future__ import annotations

import ast
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import canstream
from canstream.checkers import ALL_PREDICATES, check_all
from canstream.cli import main
from canstream.serialize import scenario_to_json, trace_from_jsonl
from .conftest import add_entry, literal_row2, scenario, tick_line

GOLDEN = {
    "nodeCount": 1,
    "horizon": 6,
    "injections": [{"node": 1, "tick": 0, "id": 5, "data": "ab"}],
}


GOLDEN_TRACE = Path(__file__).parent / "goldens" / "single_node.v12.jsonl"


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
    assert tick3["t"] == 3 and trace_from_jsonl(out.read_text()).streams["ar"][0].cells[3]
    tick3["ar"] = []  # erase the delivery
    lines[4] = json.dumps(tick3, sort_keys=True, separators=(",", ":"))
    out.write_text("\n".join(lines) + "\n")
    assert main(["check", "--trace", str(out)]) == 1


def _golden_with_cell(t: int, family: str, cell: list) -> str:
    """The golden trace with tick t's `family` set to a fresh table entry holding `cell`, so that no other field
    changes; the golden has one node, so one reference gives its cell."""
    lines = GOLDEN_TRACE.read_text().splitlines()
    k = add_entry(lines, t, cell)
    at = tick_line(lines, t)
    tick = json.loads(lines[at])
    tick[family] = k
    lines[at] = json.dumps(tick, sort_keys=True, separators=(",", ":"))
    return "\n".join(lines) + "\n"


def test_check_finds_two_messages_in_one_application_cell(tmp_path):
    out = tmp_path / "wide_as.trace"
    out.write_text(_golden_with_cell(1, "as", [{"data": "ab", "id": 5}, {"data": "cd", "id": 6}]))
    report = check_all(trace_from_jsonl(out.read_text()))
    # a file gives each node's a as its header's injections only, so the two messages go into the buffer's offer,
    # whose delivery then differs from it as well
    assert [(v.predicate, v.tick, v.streams) for v in report.violations] == [
        ("msg1", 1, ("as_1",)), ("transmission", 1, ("as_1", "ar_1"))]
    assert main(["check", "--trace", str(out), "--only", "msg1"]) == 1


def test_check_reports_an_offer_whose_smallest_identifier_is_not_its_head(tmp_path, capsys):
    out = tmp_path / "two_offers.trace"
    out.write_text(_golden_with_cell(1, "as", [{"data": "ab", "id": 5}, {"data": "cd", "id": 2}]))
    report = check_all(trace_from_jsonl(out.read_text()))
    assert {(v.predicate, v.tick) for v in report.violations} == {("msg1", 1), ("transmission", 1)}
    assert main(["check", "--trace", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_check_names_the_line_of_a_truncated_tick(tmp_path, capsys):
    lines = GOLDEN_TRACE.read_text().splitlines()
    out = tmp_path / "truncated.trace"
    out.write_text("\n".join(lines[:3] + ['{"t":2,"as":[']) + "\n")
    assert main(["check", "--trace", str(out)]) == 2
    assert "malformed trace: line 4 (tick 2): Expecting value" in capsys.readouterr().err


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


def _with_option(key, value):
    return {**GOLDEN, "options": {key: value}}


def _with_injection_field(key, value):
    return {**GOLDEN, "injections": [{**GOLDEN["injections"][0], key: value}]}


# Scenario documents the loader rejects, by case: (document, what stderr names).
MISTYPED = {
    "fidelityMode string": (_with_option("fidelityMode", "false"), "unknown key 'options'"),
    "fidelityMode int": (_with_option("fidelityMode", 0), "unknown key 'options'"),
    "bootstrap string": (_with_option("bootstrapRequestTick", "0"), "unknown key 'options'"),
    "bootstrap bool": (_with_option("bootstrapRequestTick", True), "unknown key 'options'"),
    "bootstrap null": (_with_option("bootstrapRequestTick", None), "unknown key 'options'"),
    "reqDelay bool": (_with_option("reqDelay", True), "unknown key 'options'"),
    "bootstrap negative": (_with_option("bootstrapRequestTick", -1), "unknown key 'options'"),
    "nodeCount bool": ({**GOLDEN, "nodeCount": True}, "nodeCount must be an integer, got true"),
    "horizon string": ({**GOLDEN, "horizon": "6"}, 'horizon must be an integer, got "6"'),
    "tick float": (_with_injection_field("tick", 0.9), "injections[0].tick must be an integer, got 0.9"),
    "node float": (_with_injection_field("node", 1.0), "injections[0].node must be an integer, got 1.0"),
    "id string": (_with_injection_field("id", "5"), 'injections[0].id must be an integer, got "5"'),
    "data int": (_with_injection_field("data", 171), "injections[0].data must be a hex string, got 171"),
    "data spaced": (_with_injection_field("data", "a b"), 'injections[0].data must be a hex string, got "a b"'),
    "payload 9 octets": (_with_injection_field("data", "00" * 9), "payload: payload of 9 octets exceeds 8"),
    # Texts that do not decode, given as they are.
    "nested 100,000 deep": ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
    "horizon of 5,000 digits": ('{"nodeCount":1,"horizon":%s}' % ("1" * 5000), "Exceeds the limit (4300"),
}


# Scenario documents whose keys do not fit their object's key set, by case: (document, what stderr names). The request
# delay, the frame latency, the literal identifier row and the bootstrap tick were options once; a document that still
# carries its options is rejected, whatever they hold.
UNFIT = {
    "reqDelay": (_with_option("reqDelay", 1), "unknown key 'options'"),
    "mtLatency": (_with_option("mtLatency", 2), "unknown key 'options'"),
    "fidelityMode true": (_with_option("fidelityMode", True), "unknown key 'options'"),
    "fidelityMode false": (_with_option("fidelityMode", False), "unknown key 'options'"),
    "empty options": ({**GOLDEN, "options": {}}, "unknown key 'options'"),
    "injection for injections": ({"nodeCount": 1, "horizon": 6, "injection": GOLDEN["injections"]},
                                 "unknown key 'injection'"),
    "injection without a tick": ({**GOLDEN, "injections": [{"node": 1, "id": 5, "data": "ab"}]},
                                 "missing key 'injections[0].tick'"),
    # Texts with a key given twice, which JSON decoding would otherwise read as its last value.
    "repeated horizon": ('{"nodeCount":1,"horizon":6,"horizon":2}', "repeated key 'horizon'"),
    "repeated option": ('{"nodeCount":1,"horizon":6,"options":{"bootstrapRequestTick":0,"bootstrapRequestTick":1}}',
                        "unknown key 'options'"),
    "repeated injection data": ('{"nodeCount":1,"horizon":6,"injections":[{"node":1,"tick":0,"id":5,"data":"ab",'
                                '"data":"cd"}]}', "repeated key 'injections[0].data'"),
}


def _assert_run_rejects(document, message: str, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(document if isinstance(document, str) else json.dumps(document))
    assert main(["run", "--scenario", str(bad), "--trace", str(tmp_path / "t")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("case", sorted(MISTYPED))
def test_run_rejects_a_field_of_the_wrong_type_or_size(tmp_path, capsys, case):
    _assert_run_rejects(*MISTYPED[case], tmp_path, capsys)


@pytest.mark.parametrize("case", sorted(UNFIT))
def test_run_rejects_a_key_outside_its_objects_set_or_missing(tmp_path, capsys, case):
    _assert_run_rejects(*UNFIT[case], tmp_path, capsys)


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


@pytest.mark.parametrize("only, named", [("msg1,", "''"), ("bogus", "'bogus'"), ("bogus,,msg1", "'', 'bogus'")])
def test_check_only_names_each_unknown_predicate(tmp_path, capsys, only, named):
    # the names are checked before the trace is read
    assert main(["check", "--trace", str(tmp_path / "missing.trace"), "--only", only]) == 64
    assert capsys.readouterr().err == f"unknown predicate(s): {named} (choose from {', '.join(ALL_PREDICATES)})\n"


def test_bad_flags_are_usage_errors(golden_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 64
    capsys.readouterr()
    # the literal variants are neither flags nor scenario keys
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


@pytest.fixture
def diverging(monkeypatch):
    """Every scenario fuzz runs is reported as diverging from the oracle."""
    import canstream.cli as cli

    def always_diverges(trace):
        return 1, 0, None, None

    monkeypatch.setattr(cli, "divergence", always_diverges)


def test_fuzz_writes_failing_scenarios_for_replay(tmp_path, diverging, capsys):
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


def test_fuzz_that_cannot_write_a_failing_scenario_is_an_input_error(tmp_path, diverging, capsys):
    outdir = tmp_path / "taken"
    outdir.write_text("a file, not a directory")
    args = ["fuzz", "--seed", "3", "--nodes", "2", "--horizon", "8", "--count", "2", "--outdir", str(outdir)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write failing scenario: ") and str(outdir) in err and "Traceback" not in err
    assert outdir.read_text() == "a file, not a directory"


def test_fuzz_names_the_predicates_a_failing_check_broke(tmp_path, monkeypatch, capsys):
    import canstream.cli as cli

    real = cli.check_all
    rows_3 = lambda trace: ((3,) * trace.node_count,) * trace.horizon  # the row-3 monitor flags each of them
    monkeypatch.setattr(cli, "check_all", lambda trace: real(replace(trace, rows=rows_3(trace))))
    outdir = tmp_path / "fails"
    assert main(["fuzz", "--seed", "3", "--nodes", "2", "--horizon", "8", "--count", "1", "--outdir", str(outdir)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"scenario 0: FAIL (check violations: row3) -> {outdir / 'fail_00000.json'}",
        "0/1 pass (seed=3, nodes=2, horizon=8)"]


def test_fuzz_rejects_degenerate_parameters(tmp_path):
    assert main(["fuzz", "--nodes", "0", "--outdir", str(tmp_path)]) == 64
    assert main(["fuzz", "--nodes", "2", "--horizon", "2", "--outdir", str(tmp_path)]) == 64
    assert main(["fuzz", "--nodes", "2", "--count", "0", "--outdir", str(tmp_path)]) == 64


def _explode(*args):
    raise canstream.ModelViolation("synthetic failure at tick 4")


def test_component_failure_is_runtime_error(golden_file, tmp_path, monkeypatch, capsys):
    # a broken component contract, forced since no valid scenario breaks one: exit 3, and no trace is written
    import canstream.cli as cli

    monkeypatch.setattr(cli, "run_scenario", _explode)
    out = tmp_path / "failed.trace"
    assert main(["run", "--scenario", str(golden_file), "--trace", str(out)]) == 3
    assert capsys.readouterr() == ("", "component error: synthetic failure at tick 4\n")
    assert not out.exists()


def test_run_that_cannot_write_its_trace_is_an_input_error(golden_file, tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "x.jsonl"
    assert main(["run", "--scenario", str(golden_file), "--trace", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("cannot write trace: ") and str(out) in captured.err
    assert captured.out == "" and not out.parent.exists()


@pytest.mark.parametrize("command", ["run", "oracle-diff"])
def test_an_unreadable_scenario_is_an_input_error(tmp_path, capsys, command):
    """A missing file, and a file that is not UTF-8, which JSON text must be."""
    missing, not_utf8, out = tmp_path / "missing.json", tmp_path / "not_utf8.json", tmp_path / "t"
    not_utf8.write_bytes(b"\xff\xfe{}")
    trace_args = ["--trace", str(out)] if command == "run" else []
    for path, cause in ((missing, "[Errno 2]"), (not_utf8, "'utf-8' codec can't decode byte 0xff")):
        assert main([command, "--scenario", str(path), *trace_args]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"scenario error: cannot read scenario {path}: ") and cause in err, err
        assert not out.exists()


def test_an_unreadable_trace_is_an_input_error(tmp_path, capsys):
    assert main(["check", "--trace", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("cannot read trace: ") and str(tmp_path) in captured.err and captured.out == ""
    not_utf8 = tmp_path / "not_utf8.jsonl"
    not_utf8.write_bytes(GOLDEN_TRACE.read_bytes().replace(b'"ab"', b'"\xff"'))
    assert main(["check", "--trace", str(not_utf8)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("cannot read trace: 'utf-8' codec can't decode byte 0xff") and captured.out == ""


def test_oracle_diff_on_a_run_that_fails_is_a_runtime_error(golden_file, monkeypatch, capsys):
    import canstream.cli as cli

    monkeypatch.setattr(cli, "run_scenario", _explode)
    assert main(["oracle-diff", "--scenario", str(golden_file)]) == 3
    assert capsys.readouterr() == ("", "component error: synthetic failure at tick 4\n")


def test_oracle_diff_equivalent(golden_file):
    assert main(["oracle-diff", "--scenario", str(golden_file)]) == 0


def test_oracle_diff_flags_fidelity_stall(golden_file, monkeypatch, capsys):
    # the paper's literal row 2, patched into the kernel, stalls the golden scenario
    literal_row2(monkeypatch)
    assert main(["oracle-diff", "--scenario", str(golden_file)]) == 1
    assert "inequivalent" in capsys.readouterr().out


def test_run_fidelity_produces_no_deliveries(golden_file, tmp_path, monkeypatch, capsys):
    out = tmp_path / "stall.trace"
    with monkeypatch.context() as patch:
        literal_row2(patch)
        assert main(["run", "--scenario", str(golden_file), "--trace", str(out)]) == 0
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


def test_the_oracle_imports_nothing_of_the_package_but_core():
    tree = ast.parse((Path(canstream.__file__).parent / "oracle.py").read_text(encoding="utf-8"))
    relative = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level}
    absolute = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and not node.level}
    absolute |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    assert relative == {"core"}
    assert not {name for name in absolute if name.partition(".")[0] == "canstream"}


def test_scenario_json_round_trips_via_cli_format(tmp_path):
    s = scenario(3, 10, (1, 1, 4, b"\x01"), (3, 5, 9, b"\x02\x03"))
    path = tmp_path / "s.json"
    path.write_text(scenario_to_json(s))
    out = tmp_path / "s.trace"
    assert main(["run", "--scenario", str(path), "--trace", str(out)]) == 0
    assert trace_from_jsonl(out.read_text()).scenario == s
