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

    python tools/layer_times.py --workload large-trees --passes 12 --against ../base

--against DIR runs the same operations on the program in DIR/src as
well, in the same process, alternating which side runs first from one
pass to the next, so that both sides see the same machine speed. Each
line then gives both sides' best and median, and the last line the
median over the passes of this checkout's pass time over DIR's.

Nothing is checked here (perfbench checks the same operations), and the
program is imported from this checkout's `src` (and DIR's).
"""

from __future__ import annotations

import argparse
import importlib.util
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


def load(src: Path, name: str):
    """The linebroadcast package under src, imported as module name."""
    spec = importlib.util.spec_from_file_location(
        name, src / "linebroadcast" / "__init__.py",
        submodule_search_locations=[str(src / "linebroadcast")])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Side:
    """One program's operations, traced, and its per-pass self and wall times."""

    def __init__(self, lb, workload: str, seed: int):
        self.lb = lb
        self.ops = workloads.plan(workload, lb, random.Random(seed))
        workloads.warm_up(lb)
        self.tracer = tracing.Tracer()
        # trace the layers under the module attributes their callers read
        for name in ("to_level", "merge_upcalls", "_star_rounds",
                     "alg1", "alg2", "alg3", "lbckt"):
            self.tracer.wrap(lb.algorithms, name)
        self.tracer.wrap(lb.schedule, "validate")
        self.tracer.wrap(lb.oracle, "optimal_cost")
        self.selfs: list[dict[str, float]] = []
        self.walls: list[float] = []

    def run_pass(self) -> None:
        tracer = self.tracer
        lo = len(tracer.spans)
        start = perf_counter()
        for op in self.ops:
            tracer.op = op.index
            workloads.execute(self.lb, op)
            tracer.op = None
        self.walls.append(perf_counter() - start)
        self.selfs.append(tracer.self_times(lo, len(tracer.spans)))

    def columns(self, name: str) -> str:
        """Best and median, in ms, of a layer's self time, or of the pass."""
        if name == "pass":
            times = [1000 * w for w in self.walls]
        else:
            times = [1000 * s.get(name, 0.0) for s in self.selfs]
        return f"{min(times):9.1f} {statistics.median(times):9.1f}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="large-trees",
                        choices=("any-originator", "large-trees", "oracle"))
    parser.add_argument("--passes", type=int, default=7)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="also time the program in DIR/src, alternating passes")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    if args.against is not None and not (args.against / "src" / "linebroadcast").is_dir():
        parser.error(f"--against: no package at {args.against / 'src' / 'linebroadcast'}")

    sides = [Side(lb, args.workload, args.seed)]
    if args.against is not None:
        other = load(args.against.resolve() / "src", "linebroadcast_against")
        sides.append(Side(other, args.workload, args.seed))
    for p in range(args.passes):
        for side in sides[::-1] if p % 2 else sides:
            side.run_pass()

    print(f"{args.workload}: {len(sides[0].ops)} operations, {args.passes} passes, "
          f"seed {args.seed}; self times in ms, best and median")
    if len(sides) > 1:
        print(f"{'':18} {'this':>19} {str(args.against):>19}")
    for name in (*LAYERS, "pass"):
        print(f"{name:18} " + " ".join(side.columns(name) for side in sides))
    if len(sides) > 1:
        ratios = [a / b for a, b in zip(sides[0].walls, sides[1].walls)]
        print(f"median paired pass ratio (this / against): {statistics.median(ratios):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
