"""Benchmark for linebroadcast's schedule builders and exhaustive oracle.

    python3 perfbench/run.py --workload any-originator --seed 1 --seconds 35 --trace 0

Workloads: any-originator, large-trees, oracle, or all (the three in turn).
Run from the root of a checkout: the program is imported from its `src`
directory. One process, one thread. A run sets up several times and keeps
the median, then repeats whole passes over the same operations while the
next pass still fits in --seconds (at least one). Times are corrected for
the machine's drifting speed with `gauge`. The last line printed is
a JSON object with the keys correct, attempted, failed and metrics; with
--trace 1 the metrics are the per-layer ones, taken from spans recorded
around the program's public functions. Results and spans go to .perfbench/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 9
WORKLOADS = ("any-originator", "large-trees", "oracle")

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402
from gauge import NOMINAL_S, Gauge  # noqa: E402

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cost_per_vertex": "edges/vertex",
    "total_steps": "steps", "cost_over_optimum": "ratio", "peak_mem_mb": "MB",
}
# Printed and saved, but not gated. The percentiles are each one order
# statistic of 20-40 mixed operations on large-trees and oracle; raw_wall_s
# is wall_s without the drift correction; gauge_ms is the gauge kernel's
# median time.
UNGATED = {"build_ms_p50": "ms", "build_ms_p90": "ms", "raw_wall_s": "s",
           "gauge_ms": "ms"}
PER_LAYER = {
    "to_level.self_s": "s", "to_level.calls": "count",
    "to_level.cost_over_ceiling": "ratio",
    "merge_upcalls.self_s": "s", "merge_upcalls.calls": "count",
    "merge_upcalls.fold_ratio": "ratio", "merge_upcalls.deferred_calls": "count",
    "alg1.self_s": "s", "alg2.self_s": "s", "alg3.self_s": "s",
    "validate.self_s": "s", "optimal_cost.self_s": "s",
    "schedules.deviating": "count", "schedules.calls_placed": "count",
    "trace.overhead_s": "s",
}


class SetupError(Exception):
    pass


def import_program():
    """A fresh import of linebroadcast from this checkout's src."""
    for name in [m for m in sys.modules if m.split(".")[0] == "linebroadcast"]:
        del sys.modules[name]
    try:
        lb = importlib.import_module("linebroadcast")
    except ImportError as exc:
        raise SetupError(f"cannot import linebroadcast from {SRC}: {exc}") from exc
    if SRC not in Path(lb.__file__).resolve().parents:
        raise SetupError(f"linebroadcast came from {lb.__file__}, not {SRC}")
    return lb


def install_tracer(lb) -> tracing.Tracer:
    tracer = tracing.Tracer()
    algorithms = lb.algorithms
    tracer.wrap(algorithms, "to_level",
                lambda a, frag: [a[0].k, a[1], a[2].level == 0, frag.cost()])
    tracer.wrap(algorithms, "merge_upcalls", lambda a, res: len(res[1]))
    for name in ("alg1", "alg2", "alg3", "lbckt"):
        tracer.wrap(algorithms, name)
    tracer.wrap(lb.schedule, "validate")
    tracer.wrap(lb.oracle, "optimal_cost")
    return tracer


def run_pass(lb, ops, tracer, reference, gauge) -> dict:
    """One pass over ops; reference holds each operation's first (cost, steps, optimum)."""
    lo = len(tracer.spans) if tracer else 0
    outcomes = []
    deterministic = True
    for op in ops:
        gauge.tick()
        if tracer:
            tracer.op = op.index
        t0 = perf_counter()
        try:
            results = workloads.execute(lb, op)
        except Exception as exc:  # an operation that raises counts as failed
            outcome = workloads.Outcome(perf_counter() - t0, failure=f"raised {exc!r}")
        else:
            outcome = workloads.Outcome(perf_counter() - t0, results=results)
            # freed with outcome.results below, before the next operation
            # builds its own: peak_mem_mb must not depend on the order
            del results
        if tracer:
            tracer.op = None
        outcome.start = t0
        if outcome.results:
            workloads.check(lb, op, outcome)
            outcome.results = []
            key = (outcome.cost, outcome.steps, outcome.optimum)
            if reference.setdefault(op.index, key) != key:
                deterministic = False
        outcomes.append(outcome)
    gauge.tick()
    return {
        "outcomes": outcomes,
        "deterministic": deterministic,
        "spans": (lo, len(tracer.spans) if tracer else 0),
    }


def corrected_times(passes: list[dict], gauge: Gauge) -> list[float]:
    """Each operation's median drift-corrected time over the passes (see
    `gauge`)."""
    return [statistics.median(o.seconds * gauge.scale(o.start, o.seconds)
                              for o in outcomes)
            for outcomes in zip(*(p["outcomes"] for p in passes))]


def end_to_end(setup: list[float], passes: list[dict], gauge: Gauge) -> dict:
    first = passes[0]["outcomes"]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(corrected_times(passes, gauge)),
        "cost_per_vertex": sum(o.cost for o in first) / sum(o.n for o in first),
        "total_steps": sum(o.steps for o in first),
        "cost_over_optimum": float(sum(o.cost for o in first)
                                   / sum(o.reference for o in first)),
        "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def ungated(passes: list[dict], gauge: Gauge) -> dict:
    times = corrected_times(passes, gauge)
    return {
        "build_ms_p50": 1000 * statistics.median(times),
        "build_ms_p90": 1000 * statistics.quantiles(times, n=10)[8],
        "raw_wall_s": sum(statistics.median(o.seconds for o in outcomes)
                          for outcomes in zip(*(p["outcomes"] for p in passes))),
        "gauge_ms": 1000 * statistics.median(gauge.took),
    }


def per_layer(lb, tracer, traced: list[dict], untraced: list[dict], gauge: Gauge) -> dict:
    selfs = [tracer.self_times(*p["spans"]) for p in traced]
    lo, hi = traced[0]["spans"]
    spans = tracer.spans[lo:hi]
    to_level = [s[5] for s in spans if s[0] == "to_level"]
    root_to_level = [info for info in to_level if info[2]]
    ceiling = sum(math.floor(lb.bounds.tolevel_upper(k, j)) for k, j, _, _ in root_to_level)
    merges = [s[5] for s in spans if s[0] == "merge_upcalls"]
    first = traced[0]["outcomes"]

    def self_s(name):
        return statistics.median(s.get(name, 0.0) for s in selfs)

    return {
        "to_level.self_s": self_s("to_level"),
        "to_level.calls": len(to_level),
        "to_level.cost_over_ceiling":
            sum(info[3] for info in root_to_level) / ceiling if ceiling else 0.0,
        "merge_upcalls.self_s": self_s("merge_upcalls"),
        "merge_upcalls.calls": len(merges),
        "merge_upcalls.fold_ratio":
            sum(1 for d in merges if d == 0) / len(merges) if merges else 0.0,
        "merge_upcalls.deferred_calls": sum(merges),
        "alg1.self_s": self_s("alg1"),
        "alg2.self_s": self_s("alg2"),
        "alg3.self_s": self_s("alg3"),
        "validate.self_s": self_s("validate"),
        "optimal_cost.self_s": self_s("optimal_cost"),
        "schedules.deviating": sum(1 for o in first if o.deviating),
        "schedules.calls_placed": sum(o.calls for o in first),
        "trace.overhead_s": (sum(corrected_times(traced, gauge))
                             - sum(corrected_times(untraced, gauge))),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    gauge = Gauge()
    setup = []  # drift-corrected, with the gauge timed right before
    for _ in range(SETUP_REPEATS):
        speed = gauge.measure()
        t0 = perf_counter()
        lb = import_program()
        ops = workloads.plan(name, lb, random.Random(seed))
        workloads.warm_up(lb)
        setup.append((perf_counter() - t0) * NOMINAL_S / speed)

    # Whole passes over the same operations while the next one still fits.
    # A traced run alternates untraced and traced passes, at least one of
    # each, so the tracing overhead is measured in the run itself.
    tracer = install_tracer(lb) if trace else None
    reference: dict = {}
    passes: list[dict] = []
    started = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if tracer:
            tracer.attach(traced)
        t0 = perf_counter()
        passes.append(run_pass(lb, ops, tracer if traced else None, reference, gauge))
        took = perf_counter() - t0
        if len(passes) >= (2 if trace else 1) and perf_counter() - started + took > seconds:
            break

    outcomes = [o for p in passes for o in p["outcomes"]]
    failures = [o.failure for o in outcomes if o.failure]
    if trace:
        metrics, units = per_layer(lb, tracer, passes[1::2], passes[0::2], gauge), PER_LAYER
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{name}-seed{seed}.spans.jsonl", started)
    else:
        metrics = end_to_end(setup, passes, gauge) | ungated(passes, gauge)
        units = END_TO_END | UNGATED
    return {
        "correct": (not any(o.invalid for o in outcomes)
                    and all(p["deterministic"] for p in passes)),
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
        "failures": sorted(set(failures)),
        "passes": len(passes),
    }


def report(name: str, result: dict) -> None:
    print(f"{name}: {result['passes']} pass(es), attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for reason in result["failures"]:
        print(f"  failed: {reason}")
    for metric, entry in result["metrics"].items():
        note = " (not gated)" if metric in UNGATED else ""
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not SRC.is_dir():
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            report(name, results[name])
    except SetupError as exc:
        print(exc, file=sys.stderr)
        return 2

    # the printed JSON holds the metrics BENCHMARK.json gates on; the saved
    # result file holds everything
    gated = set(END_TO_END) | set(PER_LAYER)
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {(m if len(names) == 1 else f"{name}.{m}"): v
                    for name, r in results.items()
                    for m, v in r["metrics"].items() if m in gated},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(results, indent=1, default=str) + "\n")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
