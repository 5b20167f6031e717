"""Command-line front end: run, check, fuzz, oracle-diff.

Exit codes: 0 pass, 1 check violations or inequivalence, 2 input error,
3 runtime error (a component contract broke; no trace is written), 64 usage error.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .checkers import ALL_PREDICATES, Report, check_all
from .core import ModelViolation, ScenarioError
from .fuzzing import seeded_scenario
from .oracle import divergence
from .serialize import (
    report_to_json,
    scenario_from_json,
    scenario_to_json,
    trace_from_jsonl,
    trace_to_jsonl,
)
from .system import delivery_log, run_scenario

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_INPUT = 2
EXIT_RUNTIME = 3
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit code this tool promises."""

    def error(self, message):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_scenario(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")  # JSON text is UTF-8 (RFC 8259), whatever the locale
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    try:
        return scenario_from_json(text)
    except ValueError as exc:
        raise ScenarioError(f"malformed scenario {path}: {exc}") from exc


def _written(path: Path, text: str, what: str, parents: bool = False) -> bool:
    """Write `text` to `path`, making its directory first if `parents`; if the file system refuses, say so on stderr
    and return False."""
    try:
        if parents:
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:
        print(f"cannot write {what}: {exc}", file=sys.stderr)
        return False
    return True


def _print_report(report: Report) -> None:
    for entry in report.entries:
        status = "FAIL" if entry.violations else "PASS"
        print(f"{status} {entry.predicate}: {len(entry.violations)} violations")
        for v in entry.violations:
            where = f"tick {v.tick}" if v.tick is not None else "global"
            print(f"  {where} {','.join(v.streams)}: expected {v.expected}; observed {v.observed}")


def _cmd_run(args) -> int:
    try:
        scenario = _load_scenario(args.scenario)
        trace = run_scenario(scenario)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ModelViolation as exc:
        print(f"component error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    if not _written(Path(args.trace), trace_to_jsonl(trace), "trace"):
        return EXIT_INPUT
    deliveries = delivery_log(trace)
    print(f"ran {scenario.horizon} ticks, {len(deliveries)} deliveries, trace written to {args.trace}")
    return EXIT_OK


def _cmd_check(args) -> int:
    predicates = ALL_PREDICATES if args.only is None else tuple(args.only.split(","))
    unknown = set(predicates) - set(ALL_PREDICATES)
    if unknown:
        print(f"unknown predicate(s): {', '.join(map(repr, sorted(unknown)))} "
              f"(choose from {', '.join(ALL_PREDICATES)})", file=sys.stderr)
        return EXIT_USAGE
    try:
        trace = trace_from_jsonl(Path(args.trace).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, RecursionError) as exc:  # or a header value nested too deeply for its error to show it
        print(f"malformed trace: {exc}", file=sys.stderr)
        return EXIT_INPUT
    report = check_all(trace, predicates=predicates)
    if args.json:
        print(report_to_json(report), end="")
    else:
        _print_report(report)
    return EXIT_OK if report.ok() else EXIT_VIOLATIONS


def _cmd_fuzz(args) -> int:
    if args.nodes < 1:
        print("--nodes must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.horizon < 4:
        print("--horizon must be >= 4", file=sys.stderr)
        return EXIT_USAGE
    if args.count < 1:
        print("--count must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    outdir = Path(args.outdir)
    failures = 0
    for i in range(args.count):
        scenario = seeded_scenario(args.seed, i, args.nodes, args.horizon)
        trace = run_scenario(scenario)
        diverged, report = divergence(trace), check_all(trace)
        reasons = []
        if diverged:
            reasons.append(f"oracle divergence at node {diverged[0]}, entry {diverged[1]}")
        if not report.ok():
            broken = sorted({v.predicate for v in report.violations})
            reasons.append(f"check violations: {', '.join(broken)}")
        if reasons:
            failures += 1
            path = outdir / f"fail_{i:05d}.json"
            if not _written(path, scenario_to_json(scenario), "failing scenario", parents=True):
                return EXIT_INPUT
            print(f"scenario {i}: FAIL ({'; '.join(reasons)}) -> {path}")
    print(f"{args.count - failures}/{args.count} pass (seed={args.seed}, nodes={args.nodes}, horizon={args.horizon})")
    return EXIT_OK if failures == 0 else EXIT_VIOLATIONS


def _cmd_oracle_diff(args) -> int:
    try:
        trace = run_scenario(_load_scenario(args.scenario))
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ModelViolation as exc:
        print(f"component error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    diverged = divergence(trace)
    if diverged is None:
        print(f"equivalent: {len(delivery_log(trace))} deliveries match the oracle")
        return EXIT_OK
    node, k, sim, exp = diverged
    print(f"inequivalent at node {node}, delivery {k}: simulator={sim}, oracle={exp}")
    return EXIT_VIOLATIONS


def build_parser() -> _Parser:
    parser = _Parser(prog="canstream", description="Synchronous CAN bus model: simulate, check, fuzz.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write its trace")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--trace", required=True)
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check", help="check a trace against the protocol predicates")
    p_check.add_argument("--trace", required=True)
    p_check.add_argument("--only", default=None, help=f"comma-separated subset of {','.join(ALL_PREDICATES)}")
    p_check.add_argument("--json", action="store_true", help="print the report as one JSON object")
    p_check.set_defaults(func=_cmd_check)

    p_fuzz = sub.add_parser("fuzz", help="run seeded random scenarios against checkers and oracle")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--nodes", type=int, required=True)
    p_fuzz.add_argument("--horizon", type=int, default=64)
    p_fuzz.add_argument("--count", type=int, default=100)
    p_fuzz.add_argument("--outdir", default="fuzz-failures", help="where failing scenarios are written")
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_diff = sub.add_parser("oracle-diff", help="compare a scenario's run against the reference oracle")
    p_diff.add_argument("--scenario", required=True)
    p_diff.set_defaults(func=_cmd_oracle_diff)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
