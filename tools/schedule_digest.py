"""Print one SHA-256 digest per family of schedules.

Two checkouts that print the same digests build byte-identical schedules:
the same steps, the same calls in the same order, the same paths and the
same deviation flags. Run it from anywhere, with the standard library only:

    python tools/schedule_digest.py
    python tools/schedule_digest.py --family small-alg1 --family large-trees

With no --family it prints every family below (about a minute, half of it in
small-alg3); --family NAME, repeatable, prints only the families named.

The families:

  * small-alg1, small-alg2, small-alg3: each scheme from every originator
    on the 25 trees of the acceptance grid with n <= 400;
  * small-to_level, small-from_level: to_level, and from_level, for every
    level j from every originator on the same trees;
  * wide-to_level: the same at r = 2 and k = 9..16, past the grid's
    k <= 8;
  * wide-relays: to_level for j = 3..r from the root, the vertex (1, k),
    the middle vertex of levels 2 and r-1 and the middle leaf, at r = 3
    and k = 9..16 and at (9,4) and (10,4): cousin and wider relays past
    the grid;
  * large-trees: lbckt on the 37 schedules of perfbench's `large-trees`
    workload (the root of every tree with 400 < n <= 50,000, and below
    (8,5) the last vertex of level 1, the middle vertex of level r-1 and
    the middle leaf);
  * root-alg2, root-alg3, root-lbckt: each from the root at the 35 grid
    points;
  * oracle: the optimal_cost witness from every originator of every tree
    with n <= 13, within the default budget of ceil(log2 n) steps;
  * oracle-budgets: the same within ceil(log2 n) + 1 and + 2 steps, where
    the witness takes steps that the default budget never picks.

Each line gives the family, its digest, its schedule count and its time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from linebroadcast import CompleteKTree, alg1, alg2, alg3, lbckt, optimal_cost  # noqa: E402
from linebroadcast.bounds import ceil_log2  # noqa: E402
from linebroadcast.procedures import from_level, to_level  # noqa: E402


def _size(k: int, r: int) -> int:
    return (k ** (r + 1) - 1) // (k - 1)


GRID = sorted(((k, r) for k in range(2, 9) for r in range(1, 6)),
              key=lambda kr: _size(*kr))
SMALL = [(k, r) for k, r in GRID if _size(k, r) <= 400]
LARGE = [(k, r) for k, r in GRID if 400 < _size(k, r) <= 50_000]
WIDE = [(k, 2) for k in range(9, 17)]
WIDE_RELAYS = [(k, 3) for k in range(9, 17)] + [(9, 4), (10, 4)]
ORACLE = sorted(((k, r) for k in range(2, 13) for r in range(1, 3) if _size(k, r) <= 13),
                key=lambda kr: _size(*kr))


def _trace(steps, deviations=()) -> bytes:
    calls = [[[s, d, path] for s, d, path in step.id_calls()] for step in steps]
    return json.dumps([calls, list(deviations)]).encode()


def _schedule(sched) -> bytes:
    return _trace(sched.steps, sched.deviations)


def _large_originators(tree: CompleteKTree) -> list:
    k, r = tree.k, tree.r
    if (k, r) == (8, 5):
        return [tree.root]
    picked = [(0, 1), (1, k)]
    if r >= 3:
        picked.append((r - 1, (k ** (r - 1) + 1) // 2))
    picked.append((r, (k**r + 1) // 2))
    return [tree.vertex(level, off) for level, off in dict.fromkeys(picked)]


def families():
    """(name, iterable of (label, trace bytes)) for every family."""

    def small(builder):
        for k, r in SMALL:
            tree = CompleteKTree(k, r)
            for vid in range(1, tree.n + 1):
                yield (k, r, vid), _schedule(builder(tree, tree.vertex_by_id(vid)))

    def every_level(procedure, trees):
        for k, r in trees:
            tree = CompleteKTree(k, r)
            for vid in range(1, tree.n + 1):
                for j in range(1, r + 1):
                    frag = procedure(tree, j, tree.vertex_by_id(vid))
                    yield (k, r, vid, j), _trace(frag.steps)

    def wide_relays():
        for k, r in WIDE_RELAYS:
            tree = CompleteKTree(k, r)
            picked = [(0, 1), (1, k), (2, (k**2 + 1) // 2),
                      (r - 1, (k ** (r - 1) + 1) // 2), (r, (k**r + 1) // 2)]
            for level, off in dict.fromkeys(picked):
                u = tree.vertex(level, off)
                for j in range(3, r + 1):
                    yield (k, r, u.id, j), _trace(to_level(tree, j, u).steps)

    def large():
        for k, r in LARGE:
            tree = CompleteKTree(k, r)
            for u in _large_originators(tree):
                yield (k, r, u.id), _schedule(lbckt(tree, u)[0])

    def root(builder):
        for k, r in GRID:
            tree = CompleteKTree(k, r)
            sched = builder(tree, tree.root)
            if isinstance(sched, tuple):
                sched = sched[0]
            yield (k, r), _schedule(sched)

    def oracle():
        for k, r in ORACLE:
            tree = CompleteKTree(k, r)
            for vid in range(1, tree.n + 1):
                yield (k, r, vid), _schedule(optimal_cost(tree, tree.vertex_by_id(vid))[1])

    def oracle_budgets():
        for k, r in ORACLE:
            tree = CompleteKTree(k, r)
            for vid in range(1, tree.n + 1):
                for budget in (ceil_log2(tree.n) + 1, ceil_log2(tree.n) + 2):
                    witness = optimal_cost(tree, tree.vertex_by_id(vid), time_budget=budget)[1]
                    yield (k, r, vid, budget), _schedule(witness)

    yield "small-alg1", small(alg1)
    yield "small-alg2", small(alg2)
    yield "small-alg3", small(alg3)
    yield "small-to_level", every_level(to_level, SMALL)
    yield "small-from_level", every_level(from_level, SMALL)
    yield "wide-to_level", every_level(to_level, WIDE)
    yield "wide-relays", wide_relays()
    yield "large-trees", large()
    yield "root-alg2", root(alg2)
    yield "root-alg3", root(alg3)
    yield "root-lbckt", root(lbckt)
    yield "oracle", oracle()
    yield "oracle-budgets", oracle_budgets()


def digest(items) -> tuple[str, int]:
    """The SHA-256 digest of one family's (label, trace) items, and their count."""
    sha = hashlib.sha256()
    count = 0
    for label, trace in items:
        sha.update(json.dumps(label).encode())
        sha.update(trace)
        count += 1
    return sha.hexdigest(), count


def main(argv: list[str] | None = None) -> int:
    names = [name for name, _ in families()]
    parser = argparse.ArgumentParser(description="Print one digest per family of schedules.")
    parser.add_argument("--family", action="append", choices=names, metavar="NAME",
                        help="print only this family (repeatable); one of: %(choices)s")
    chosen = parser.parse_args(argv).family or names
    total = perf_counter()
    for name, items in families():
        if name not in chosen:
            continue
        start = perf_counter()
        hexdigest, count = digest(items)
        print(f"{name:16} {hexdigest} {count:6d} {perf_counter() - start:7.1f} s",
              flush=True)
    print(f"total {perf_counter() - total:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
