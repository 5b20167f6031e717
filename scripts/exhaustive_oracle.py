#!/usr/bin/env python3
"""Exhaustive small-scale equivalence sweep: simulator versus reference oracle.

Enumerates every two-node scenario with up to two messages per node, distinct
identifiers drawn from a small pool, and injection ticks from a small window,
then demands exact delivery-log equality.
"""
from __future__ import annotations

import argparse
import sys
import time

from canstream.fuzzing import two_node_scenarios
from canstream.oracle import compare_with_simulator


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ids", type=int, nargs="+", default=[1, 2, 3, 4])
    parser.add_argument("--ticks", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--horizon", type=int, default=16)
    args = parser.parse_args()

    started = time.perf_counter()
    count = divergent = 0
    for scenario in two_node_scenarios(tuple(args.ids), tuple(args.ticks), args.horizon):
        count += 1
        result = compare_with_simulator(scenario)
        if not result.equivalent:
            divergent += 1
            if divergent <= 5:
                print(f"DIVERGENT: {scenario.injections}")
                print(f"  simulator: {[(t, m.id) for t, m in result.simulator_log]}")
                print(f"  oracle:    {[(t, m.id) for t, m in result.oracle_log]}")
    elapsed = time.perf_counter() - started
    print(f"{count} scenarios, {divergent} divergent, {elapsed:.2f}s")
    return 0 if divergent == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
