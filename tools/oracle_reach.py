"""Measure how far the exhaustive oracle reaches: one solve per point.

    python tools/oracle_reach.py 4,2,0 4,2,1 4,2,2 5,2,0 --cap 300

A point k,r,level is one `optimal_cost` solve on the complete k-ary tree
of height r from the last vertex of that level, within ceil(log2 n) steps
and with the search cap lifted to n. Each point runs in a Python process
of its own, one at a time, and is killed after --cap seconds. Its address
space is held to MEM_CAP_MB, so that a solve that outgrows it stops with a
MemoryError instead of crowding the machine. Per point it
prints the optimum, the solve's wall time, the process's peak RSS (the
interpreter's ~20 MB included), the number of `_Searcher.best` and
`step_options` calls, the memo's entries and the final `_canon_cache`
size. The calls are counted by a subclass of the searcher, so the times
include the counting, about 2% of a solve.

Standard library only; the program is imported from this checkout's src.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"
MEM_CAP_MB = 2048
COLUMNS = ("optimum", "seconds", "peak_mb", "best_calls", "option_calls",
           "memo", "canon_cache")


def solve(k: int, r: int, level: int) -> dict:
    """One counted solve in this process, with its figures."""
    sys.path.insert(0, str(SRC))
    from linebroadcast import new, oracle

    searchers = []

    class Counting(oracle._Searcher):
        def __init__(self, tree):
            super().__init__(tree)
            self.best_calls = self.option_calls = 0
            searchers.append(self)

        def best(self, mask, steps_left):
            self.best_calls += 1
            return super().best(mask, steps_left)

        def step_options(self, mask):
            self.option_calls += 1
            return super().step_options(mask)

    oracle._Searcher = Counting
    tree = new(k, r)
    start = perf_counter()
    cost, _ = oracle.optimal_cost(tree, tree.vertex(level, tree.level_size(level)), cap=tree.n)
    seconds = perf_counter() - start
    (s,) = searchers
    return {"n": tree.n, "optimum": cost, "seconds": round(seconds, 3),
            "peak_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "best_calls": s.best_calls, "option_calls": s.option_calls,
            "memo": len(s._memo), "canon_cache": len(s._canon_cache)}


def point(text: str) -> tuple[int, int, int]:
    try:
        k, r, level = map(int, text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not k,r,level") from None
    if k < 2 or r < 1 or not 0 <= level <= r:
        raise argparse.ArgumentTypeError(f"{text!r}: need k >= 2, r >= 1, 0 <= level <= r")
    return k, r, level


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("points", nargs="+", type=point, metavar="k,r,level")
    parser.add_argument("--cap", type=float, default=120, help="seconds per point")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        limit = MEM_CAP_MB << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        print(json.dumps(solve(*args.points[0])))
        return 0

    print(f"{'point':10} {'n':>4} " + " ".join(f"{c:>12}" for c in COLUMNS))
    for k, r, level in args.points:
        label = f"{k},{r},{level}"
        command = [sys.executable, __file__, "--child", label]
        try:
            done = subprocess.run(command, capture_output=True, text=True, timeout=args.cap)
        except subprocess.TimeoutExpired:
            print(f"{label:10} not done after {args.cap:g} s")
            continue
        if done.returncode:
            last = (done.stderr.strip().splitlines() or ["no output"])[-1]
            print(f"{label:10} failed: {last}")
            continue
        row = json.loads(done.stdout)
        print(f"{label:10} {row['n']:>4} " + " ".join(f"{row[c]:>12}" for c in COLUMNS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
