#!/usr/bin/env python3
"""Large seeded sweep of random scenarios against every trace predicate.

Reports per-predicate violation counts and wall-clock timing. Exit status is
nonzero if anything failed, with offending seeds listed for replay.
"""
from __future__ import annotations

import argparse
import sys
import time

from canstream import check_all
from canstream.checkers import ALL_PREDICATES
from canstream.fuzzing import seeded_scenario
from canstream.system import run_scenario


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", default="accept3")
    parser.add_argument("--count", type=int, default=1000)
    parser.add_argument("--horizon", type=int, default=64)
    args = parser.parse_args()

    started = time.perf_counter()
    failures: list[int] = []
    totals: dict[str, int] = {}
    for i in range(args.count):
        scenario = seeded_scenario(args.seed, i, nodes=2 + (i % 4), horizon=args.horizon)
        trace = run_scenario(scenario)
        report = check_all(trace, predicates=ALL_PREDICATES)
        for entry in report.entries:
            totals[entry.predicate] = totals.get(entry.predicate, 0) + len(entry.violations)
        if not report.ok():
            failures.append(i)
    elapsed = time.perf_counter() - started

    for predicate, count in sorted(totals.items()):
        print(f"{predicate:14s} {count} violations")
    print(f"{args.count} scenarios in {elapsed:.2f}s "
          f"({1000 * elapsed / args.count:.2f} ms/scenario)")
    if failures:
        print(f"FAILED indices: {failures[:20]}{' ...' if len(failures) > 20 else ''}")
        return 1
    print("all pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
