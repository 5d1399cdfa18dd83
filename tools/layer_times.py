"""Print per-layer self times over one perfbench workload's operations.

    python tools/layer_times.py --workload large-trees --passes 7

The operations are perfbench's own (`perfbench/workloads.py`, imported
as is): one pass builds and validates each of them once, in the order
the seed draws. The passes run back to back in this one process. Per
layer the line gives the best and the median self time over the passes,
in ms: the time spent inside that function, less the time spent in the
traced functions it calls. The layers are the builders' phases,
`to_level`, `merge_upcalls`, `alg1` and `alg2` (less their star rounds),
`_star_rounds` (alg1's round loop and alg2's leaf stars) and `alg3`,
`validate`, and the exhaustive `optimal_cost` that the `oracle` workload
runs; `lbckt` is traced so that its own time is not charged to a caller. The last line is the whole
pass, best and median.

Nothing is checked here (perfbench checks the same operations), and the
program is imported from this checkout's `src`.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import linebroadcast as lb  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

LAYERS = ("to_level", "merge_upcalls", "alg1", "alg2", "_star_rounds", "alg3",
          "validate", "optimal_cost")


def install(tracer: tracing.Tracer) -> None:
    """Trace the layers under the module attributes their callers read."""
    for name in ("to_level", "merge_upcalls", "_star_rounds",
                 "alg1", "alg2", "alg3", "lbckt"):
        tracer.wrap(lb.algorithms, name)
    tracer.wrap(lb.schedule, "validate")
    tracer.wrap(lb.oracle, "optimal_cost")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="large-trees",
                        choices=("any-originator", "large-trees", "oracle"))
    parser.add_argument("--passes", type=int, default=7)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    ops = workloads.plan(args.workload, lb, random.Random(args.seed))
    workloads.warm_up(lb)
    tracer = tracing.Tracer()
    install(tracer)
    selfs: list[dict[str, float]] = []
    walls: list[float] = []
    for _ in range(args.passes):
        lo = len(tracer.spans)
        start = perf_counter()
        for op in ops:
            tracer.op = op.index
            workloads.execute(lb, op)
            tracer.op = None
        walls.append(perf_counter() - start)
        selfs.append(tracer.self_times(lo, len(tracer.spans)))

    print(f"{args.workload}: {len(ops)} operations, {args.passes} passes, "
          f"seed {args.seed}; self times in ms, best and median")
    for name in LAYERS:
        times = [1000 * s.get(name, 0.0) for s in selfs]
        print(f"{name:18} {min(times):9.1f} {statistics.median(times):9.1f}")
    pass_ms = [1000 * w for w in walls]
    print(f"{'pass':18} {min(pass_ms):9.1f} {statistics.median(pass_ms):9.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
