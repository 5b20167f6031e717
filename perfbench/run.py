#!/usr/bin/env python3
"""canstream benchmark: one workload, closed loop, single process and thread.

    python3 perfbench/run.py --workload corpus_roundtrip --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is imported from ./src. With
`--trace 0` the workload runs back to back for `--seconds` and the
end-to-end metrics are reported; with `--trace 1` a fixed prefix of the
workload runs once untraced and once with spans recorded around every call
into the package, and the per-layer metrics are reported. Metric names and
units come from BENCHMARK.json. Every line but the last is for people; the
last line is one JSON object. Full results, the environment and the spans go
to .perfbench_out/. See perfbench/README.md for what each number means.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

from tracing import Tracer
from workloads import (
    CURVE_HORIZON,
    CURVE_NODES,
    WORKLOADS,
    behaviour_digest,
    curve_scenario,
    sim_stats,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

PROGRAM_MODULES = ("core", "primitives", "components", "system", "checkers", "serialize", "oracle", "fuzzing")
TRACED_MODULES = ("system", "components", "checkers", "serialize", "oracle")
SETUP_REPEATS = 7
CURVE_REPEATS = 3
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10

COMPONENTS = ("buffer_step", "encoder_step", "logical_layer_step", "decoder_step",
              "dispatch_row", "buffer_emission", "wire_emission", "wire_latch")
CHECKERS = {
    "msg1": "check_msg1", "format": "check_msg_can_format", "wire": "check_wire_assumptions",
    "transmission": "check_message_transmission", "row3": "check_row3_unreachable",
    "structural": "check_structural",
}
SERIALIZE = ("trace_to_jsonl", "trace_from_jsonl", "snapshot_encode", "snapshot_decode")


class Program:
    """Namespace of canstream modules from one fresh import."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "canstream" or m.startswith("canstream.")]:
            del sys.modules[name]
        package = importlib.import_module("canstream")
        if Path(package.__file__).resolve().parent != (SRC / "canstream").resolve():
            raise ImportError(f"canstream imported from {package.__file__}, not from {SRC}")
        for name in PROGRAM_MODULES:
            setattr(self, name, importlib.import_module(f"canstream.{name}"))


def setup(workload, seed: int, smoke: bool):
    """Import the program afresh and generate the inputs; returns (seconds, program, inputs)."""
    start = perf_counter()
    cs = Program()
    inputs = workload.inputs(cs, seed, smoke)
    return perf_counter() - start, cs, inputs


def node_ticks(scenario) -> int:
    return scenario.node_count * scenario.horizon


def run_one(workload, cs, scenario, index: int, failures: list):
    """One scenario through the workload's path; a raise counts as a failure."""
    try:
        outcome = workload.pipeline(cs, scenario)
    except Exception:  # every raise is a failed scenario, reported and counted
        failures.append(f"scenario {index} raised:\n{traceback.format_exc()}")
        return None
    if not outcome.ok:
        failures.append(f"scenario {index} failed check_all or diverged from the oracle")
    return outcome


def tail(samples_sorted: list) -> tuple[float, float, int]:
    """The highest ladder percentile with at least TAIL_BEYOND samples beyond it.

    Returns (percentile, value, samples beyond). With too few samples for
    any rung the maximum is returned, with none beyond it.
    """
    n = len(samples_sorted)
    for p in TAIL_LADDER:
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= TAIL_BEYOND:
            return p, samples_sorted[rank - 1], n - rank
    return 100.0, samples_sorted[-1], 0


def trace_bytes_per_tick(workload, cs, inputs) -> float:
    total = ticks = 0
    for scenario in inputs[: workload.bytes_count]:
        total += len(cs.serialize.trace_to_jsonl(cs.system.run_scenario(scenario)).encode())
        ticks += scenario.horizon
    return total / ticks


def measure(workload, cs, inputs, seconds: float, seed: int, failures: list,
            between_passes) -> tuple[dict, dict]:
    """The untraced closed loop: whole passes over the inputs until `seconds` pass.

    Each pass visits the inputs in a fresh seeded order, so garbage
    collections and bursts of other load on the host land on different
    scenarios in different passes. A scenario's time is its mean over the
    passes, which moves smoothly with the share of the run the host spent
    busy, where a median or minimum jumps; the latency percentiles are taken
    across scenarios, and the rates over everything the loop did. `between_passes` runs after each pass,
    outside the loop's wall-clock time.
    """
    samples: list[list[int]] = [[] for _ in inputs]
    order = list(range(len(inputs)))
    rng = random.Random(seed)
    attempted = passes = run_ns = ticks = 0
    paused = 0.0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        rng.shuffle(order)
        for i in order:
            t0 = perf_counter_ns()
            outcome = run_one(workload, cs, inputs[i], i, failures)
            samples[i].append(perf_counter_ns() - t0)
            attempted += 1
            if outcome is not None:
                run_ns += outcome.run_ns
                ticks += node_ticks(inputs[i])
        passes += 1
        pause = perf_counter()
        between_passes()
        paused += perf_counter() - pause
    wall = perf_counter() - start - paused
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_scenario = sorted(statistics.fmean(s) for s in samples)
    percentile, tail_ns, beyond = tail(per_scenario)
    metrics = {
        "scenario_ms.p50": statistics.median(per_scenario) / 1e6,
        "scenario_ms.tail": tail_ns / 1e6,
        "scenarios_per_s": attempted / wall,
        "node_ticks_per_s": ticks / (run_ns / 1e9),
        "trace_bytes_per_tick": trace_bytes_per_tick(workload, cs, inputs),
        "peak_rss_mb": peak_rss_mb,
    }
    info = {"attempted": attempted, "passes": passes, "loop_s": wall, "tail_percentile": percentile,
            "tail_scenarios": len(per_scenario), "tail_scenarios_beyond": beyond}
    return metrics, info


def node_tick_curve(cs, seed: int, smoke: bool) -> dict:
    """Host µs per simulated node-tick on saturated traffic, untraced."""
    horizon = 32 if smoke else CURVE_HORIZON
    out = {}
    for nodes in CURVE_NODES:
        scenario = curve_scenario(cs, seed, nodes, horizon)
        times = []
        for _ in range(CURVE_REPEATS):
            start = perf_counter_ns()
            cs.system.run_scenario(scenario)
            times.append(perf_counter_ns() - start)
        out[f"system.node_tick_us.n{nodes}"] = statistics.median(times) / 1e3 / node_ticks(scenario)
    return out


def traced_run(workload, cs, inputs, seed: int, smoke: bool, failures: list, spans_path: Path):
    """Run a fixed prefix untraced, then traced, and derive the per-layer metrics."""
    count = max(1, workload.traced_count // 10) if smoke else workload.traced_count
    batch = inputs[:count]
    start = perf_counter_ns()
    for i, scenario in enumerate(batch):
        run_one(workload, cs, scenario, i, [])  # failures are counted in the traced pass
    untraced_ns = perf_counter_ns() - start

    tracer = Tracer([getattr(cs, name) for name in TRACED_MODULES])
    with tracer:
        start = perf_counter_ns()
        outcomes = [run_one(workload, cs, s, i, failures) for i, s in enumerate(batch)]
        traced_ns = perf_counter_ns() - start
        traces = [o.trace for o in outcomes if o is not None]
        side = traces[: max(1, workload.side_count // 10) if smoke else workload.side_count]
        for trace in side:
            if not workload.checks:
                cs.checkers.check_all(trace, predicates=cs.checkers.ALL_PREDICATES)
            if not workload.serializes:
                cs.serialize.trace_from_jsonl(cs.serialize.trace_to_jsonl(trace))
    tracer.write(spans_path)
    summary = tracer.summary()
    ticks = sum(node_ticks(s) for s in batch)

    def per_call(name: str, scale: float) -> float:
        entry = summary.get(name)
        if not entry or not entry["calls"]:
            print(f"warning: no traced calls to {name}", file=sys.stderr)
            return 0.0
        return entry["self_ns"] / entry["calls"] / scale

    metrics = {}
    for name in COMPONENTS:
        metrics[f"components.{name}.us_per_call"] = per_call(f"components.{name}", 1e3)
        metrics[f"components.{name}.calls_per_node_tick"] = summary.get(f"components.{name}", {"calls": 0})["calls"] / ticks
    for name in ("pr_add", "broadcast"):
        metrics[f"primitives.{name}.us_per_call"] = per_call(f"primitives.{name}", 1e3)
    metrics["system.tick_system.self_us"] = per_call("system.tick_system", 1e3)
    metrics["system.run_scenario.self_ms"] = per_call("system.run_scenario", 1e6)
    metrics.update(node_tick_curve(cs, seed, smoke))
    metrics["core.validate_scenario.us_per_call"] = per_call("core.validate_scenario", 1e3)
    metrics["oracle.oracle_run.ms_per_call"] = per_call("oracle.oracle_run", 1e6)
    for short, fn in CHECKERS.items():
        metrics[f"checkers.{short}.ms_per_call"] = per_call(f"checkers.{fn}", 1e6)
    for name in SERIALIZE:
        metrics[f"serialize.{name}.ms_per_call"] = per_call(f"serialize.{name}", 1e6)
    metrics.update(sim_stats(traces))
    metrics["trace.overhead_share"] = (traced_ns - untraced_ns) / untraced_ns
    info = {"traced_scenarios": len(batch), "side_traces": len(side), "spans": len(tracer),
            "wrapper_outside_ns": tracer.outside_ns, "spans_file": str(spans_path.relative_to(ROOT)),
            "self_ns": {name: e["self_ns"] for name, e in summary.items()},
            "calls": {name: e["calls"] for name, e in summary.items()}}
    return metrics, info, len(batch)


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload, seed: int, inputs, smoke: bool) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "workload": workload.name,
        "seed": seed,
        "scenarios": len(inputs),
        "node_ticks": sum(node_ticks(s) for s in inputs),
        "smoke": smoke,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "canstream" / "__init__.py").is_file():
        print(f"error: no canstream package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}

    workload = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    setup_s, cs, inputs = setup(workload, args.seed, args.smoke)
    env = environment(workload, args.seed, inputs, args.smoke)
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    failures: list[str] = []
    if args.trace:
        metrics, info, attempted = traced_run(workload, cs, inputs, args.seed, args.smoke,
                                              failures, OUT / f"{stem}.spans")
    else:
        setup_times = [setup_s]

        def repeat_setup():
            # Set-ups spread through the run see the same host conditions as the loop.
            setup_times.append(setup(workload, args.seed, args.smoke)[0])

        metrics, info = measure(workload, cs, inputs, args.seconds, args.seed, failures, repeat_setup)
        while len(setup_times) < SETUP_REPEATS:
            repeat_setup()
        metrics["setup_s"] = statistics.median(setup_times)
        info["setups"] = len(setup_times)
        attempted = info["attempted"]

    expected = json.loads(DIGESTS.read_text()).get(workload.name)
    digest = behaviour_digest(cs, workload.reference(cs))
    failed = len(failures)
    correct = failed == 0 and digest == expected
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    for line in failures[:3]:
        print(line, file=sys.stderr)
    if digest != expected:
        print(f"behaviour digest {digest} != expected {expected}", file=sys.stderr)
    for key, value in env.items():
        print(f"env.{key} {value}")
    for key, value in info.items():
        if not isinstance(value, dict):
            print(f"info.{key} {value}")
    print(f"failed_share {failed / attempted:.6g} share ({failed} of {attempted})")
    print(f"digest {'ok' if digest == expected else 'MISMATCH'} {digest}")
    for name in units:
        print(f"{name} {metrics[name]:.6g} {units[name]}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(
        {**result, "failed_share": failed / attempted, "digest": digest, "digest_expected": expected,
         "env": env, "info": info}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
