"""Exhaustive minimum-cost search over valid minimum-time schedules.

Ground truth for tiny trees: a depth-first enumeration over the call sets of
each step, memoised on a canonical form of the informed set (sibling
subtrees are interchangeable, so states are encoded as recursively sorted
subtree shapes). Distinct successor states are deduplicated per step with
their cheapest call set, and states that cannot finish within the remaining
steps (informed count can at most double per step) are cut immediately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algorithms import alg1, alg2, alg3
from .bounds import ceil_log2, lbckt_case, lower_bound, report
from .errors import OutOfRange, TooLarge
from .ktree import CompleteKTree, VertexRef
from .schedule import Call, Schedule, validate

ORACLE_CAP = 7
_INF = float("inf")


class _Searcher:
    def __init__(self, tree: CompleteKTree):
        self.tree = tree
        self.n = tree.n
        self.full = (1 << tree.n) - 1
        self.pair_cost: dict[tuple[int, int], int] = {}
        self.pair_edges: dict[tuple[int, int], int] = {}
        self.pair_path: dict[tuple[int, int], tuple[int, ...]] = {}
        for s in range(1, tree.n + 1):
            sv = tree.vertex_by_id(s)
            for d in range(1, tree.n + 1):
                if d == s:
                    continue
                path = tree.path(sv, tree.vertex_by_id(d))
                mask = 0
                for e in path:
                    mask |= 1 << e
                self.pair_cost[(s, d)] = len(path)
                self.pair_edges[(s, d)] = mask
                self.pair_path[(s, d)] = tuple(path)
        self._canon_cache: dict[int, tuple] = {}
        self._memo: dict[tuple, float] = {}

    def canon(self, mask: int) -> tuple:
        """Informed-set signature invariant under sibling-subtree swaps."""
        hit = self._canon_cache.get(mask)
        if hit is not None:
            return hit
        tree = self.tree

        def enc(vid: int, level: int) -> tuple:
            bit = (mask >> (vid - 1)) & 1
            if level == tree.r:
                return (bit,)
            _, off = tree.locate(vid)
            first = tree.vertex_id(level + 1, (off - 1) * tree.k + 1)
            kids = tuple(sorted(enc(c, level + 1) for c in range(first, first + tree.k)))
            return (bit, kids)

        sig = enc(1, 0)
        self._canon_cache[mask] = sig
        return sig

    def step_options(self, mask: int) -> dict[int, tuple[int, tuple]]:
        """All reachable next informed-sets with their cheapest call set."""
        n = self.n
        informed = [i for i in range(1, n + 1) if (mask >> (i - 1)) & 1]
        uninformed = [i for i in range(1, n + 1) if not (mask >> (i - 1)) & 1]
        cands = [(s, d) for s in informed for d in uninformed]
        options: dict[int, tuple[int, tuple]] = {}

        def gen(idx, smask, dmask, emask, cost, nmask, chosen):
            if idx == len(cands):
                if nmask != mask:
                    prev = options.get(nmask)
                    if prev is None or cost < prev[0]:
                        options[nmask] = (cost, chosen)
                return
            gen(idx + 1, smask, dmask, emask, cost, nmask, chosen)
            s, d = cands[idx]
            sbit = 1 << (s - 1)
            dbit = 1 << (d - 1)
            if smask & sbit or dmask & dbit:
                return
            em = self.pair_edges[(s, d)]
            if emask & em:
                return
            gen(idx + 1, smask | sbit, dmask | dbit, emask | em,
                cost + self.pair_cost[(s, d)], nmask | dbit, chosen + ((s, d),))

        gen(0, 0, 0, 0, 0, mask, ())
        return options

    def best(self, mask: int, steps_left: int) -> float:
        if mask == self.full:
            return 0
        if steps_left <= 0:
            return _INF
        if bin(mask).count("1") << steps_left < self.n:
            return _INF
        key = (self.canon(mask), steps_left)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        value = _INF
        for nmask, (cost, _) in self.step_options(mask).items():
            sub = self.best(nmask, steps_left - 1)
            if sub < _INF:
                value = min(value, cost + sub)
        self._memo[key] = value
        return value


def optimal_cost(
    tree: CompleteKTree,
    u: VertexRef,
    time_budget: int | None = None,
    cap: int = ORACLE_CAP,
) -> tuple[int, Schedule]:
    """Minimum total cost over every valid schedule within the step budget.

    Returns the cost and one witness schedule attaining it. The search is
    exhaustive; the cap guards against instances it cannot handle.
    """
    if tree.n > cap:
        raise TooLarge(f"n={tree.n} exceeds the search cap {cap}")
    budget = ceil_log2(tree.n) if time_budget is None else time_budget
    if budget < 0:
        raise OutOfRange("time budget must be >= 0")

    searcher = _Searcher(tree)
    start = 1 << (u.id - 1)
    total = searcher.best(start, budget)
    if total == _INF:
        raise OutOfRange(f"no valid schedule within {budget} steps")

    witness = Schedule(tree, u, "oracle")
    mask, steps_left, owed = start, budget, total
    while mask != searcher.full:
        pick = None
        for nmask, (cost, chosen) in sorted(searcher.step_options(mask).items()):
            sub = searcher.best(nmask, steps_left - 1)
            if sub < _INF and cost + sub == owed:
                pick = (nmask, cost, chosen)
                break
        assert pick is not None
        nmask, cost, chosen = pick
        witness.append_step(
            [Call(tree.vertex_by_id(s), tree.vertex_by_id(d), searcher.pair_path[(s, d)])
             for s, d in chosen]
        )
        mask, steps_left, owed = nmask, steps_left - 1, owed - cost
    return int(total), witness


@dataclass
class BracketReport:
    """Lower bound <= optimum <= every minimum-time schedule's cost.

    The optimum minimises over schedules within the step budget, so only
    schemes that themselves meet the budget are comparable against it;
    slower schemes may legally cost less and are listed but not compared.
    """

    k: int
    r: int
    n: int
    originator: int
    optimal: int
    lower: Fraction
    algorithm_costs: dict[str, int]
    algorithm_times: dict[str, int]
    dispatched_label: str
    dispatched_upper: Fraction
    ok: bool


def check_bracket(tree: CompleteKTree, u: VertexRef, cap: int = ORACLE_CAP) -> BracketReport:
    """Verify the bound bracket around the searched optimum for one instance."""
    budget = ceil_log2(tree.n)
    opt, witness = optimal_cost(tree, u, cap=cap)
    witness_ok = validate(witness).ok

    costs = {}
    times = {}
    for name, builder in (("alg1", alg1), ("alg2", alg2), ("alg3", alg3)):
        sched = builder(tree, u)
        costs[name] = sched.total_cost()
        times[name] = sched.total_time()

    case = lbckt_case(tree.k, tree.r)
    rep = report(tree.k, tree.r)
    upper = rep.dispatched_upper()
    low = lower_bound(tree.k, tree.r)

    ok = (
        witness_ok
        and low <= opt
        and all(opt <= costs[name] for name in costs if times[name] <= budget)
        and opt <= math.floor(upper)
    )
    return BracketReport(
        k=tree.k,
        r=tree.r,
        n=tree.n,
        originator=u.id,
        optimal=opt,
        lower=low,
        algorithm_costs=costs,
        algorithm_times=times,
        dispatched_label=case.label,
        dispatched_upper=upper,
        ok=ok,
    )
