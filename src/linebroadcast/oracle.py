"""Exhaustive minimum-cost search over valid minimum-time schedules.

Ground truth for small trees: a depth-first search over the informed sets
each step can reach, memoised on a canonical form of the informed set
(sibling subtrees are interchangeable, so each state is encoded as an
integer code interned from its recursively sorted subtree shapes). States
that cannot finish within the remaining steps (informed count can at most
double per step) are cut immediately.

A step's options come from one bottom-up pass over edge states, not from
listing call sets. Within a step each tree edge carries nothing, one path up
or one path down (unit-capacity routing on a tree), so the pass gives every
reachable next informed set with the fewest edges any call set reaching it
uses. The last step has one option, the full set, so it is priced by the
same pass with every uninformed vertex a destination, keeping one cost per
edge state. Each search node tries its options in the order of a lower
bound and stops once that bound reaches its best value. An option's bound
is its cost, plus one edge per vertex still uninformed, plus one more per
leaf that its parent cannot reach in time: a one-edge call into a leaf
comes from its parent, which sends at most once a step and only once
informed, so a parent with more uninformed leaf children than steps left
to send in leaves the rest to calls of two edges or more. The bound never
exceeds the true cost, so the memo holds exact minima. The witness re-runs
the pass with the step's destinations fixed, reads off every edge's state,
and pairs senders with receivers where their paths meet to realize one
call set at exactly that cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algorithms import alg1, alg2, alg3
from .bounds import ceil_log2, report
from .errors import OutOfRange, TooLarge
from .ktree import CompleteKTree, VertexRef
from .schedule import Schedule, Step, validate

ORACLE_CAP = 21
_INF = float("inf")


class _Searcher:
    def __init__(self, tree: CompleteKTree):
        self.n = tree.n
        self.full = (1 << tree.n) - 1
        k = tree.k
        # children of v in breadth-first ids; empty for a leaf
        self.kids = [range(0)] + [
            range((v - 1) * k + 2, min(v * k + 1, tree.n) + 1) for v in range(1, tree.n + 1)
        ]
        self._spans = [slice(r.start, r.stop) for r in self.kids]
        self._inner = [v for v in range(tree.n, 0, -1) if self.kids[v]]
        # the bits of each parent of leaves and of its children, all leaves
        self._families = [
            sum(1 << (v - 1) for v in (p, *self.kids[p]))
            for p in self._inner if not self.kids[self.kids[p][0]]
        ]
        self._interned: dict[tuple[int, ...], int] = {(0,): 0, (1,): 1}
        self._canon_cache: dict[int, int] = {}
        self._memo: dict[tuple[int, int], float] = {}

    def canon(self, mask: int) -> int:
        """Informed-set code invariant under sibling-subtree swaps.

        A vertex's code interns its bit followed by its children's codes,
        sorted, so two subtrees get one code exactly when they have the
        same shape; vertices of one level have equally many children, so
        the key is unambiguous. Codes are built bottom-up over the ids.
        """
        hit = self._canon_cache.get(mask)
        if hit is not None:
            return hit
        # a leaf's code is its bit: (0,) and (1,) are interned first
        codes = [0, *(mask >> i & 1 for i in range(self.n))]
        spans, interned = self._spans, self._interned
        for v in self._inner:
            key = (codes[v], *sorted(codes[spans[v]]))
            code = interned.get(key)
            if code is None:
                code = interned[key] = len(interned)
            codes[v] = code
        self._canon_cache[mask] = codes[1]
        return codes[1]

    def step_options(self, mask: int) -> dict[int, int]:
        """Every reachable next informed set with the cost of its cheapest call set.

        One bottom-up pass over edge states. The edge above v carries one
        path up (+1), one path down (-1) or nothing (0); tables[v] maps that
        state to {destinations inside v's subtree: fewest edges used}. Paths
        entering v (from children, from above, or v's own send) equal those
        leaving it, so pairing them gives edge-disjoint calls from informed
        senders to uninformed receivers costing one per edge used.
        """
        kids = self.kids
        tables: list[dict[int, dict[int, int]]] = [{}] * (self.n + 1)
        for v in range(self.n, 0, -1):
            # fold in the children: {sum of child states: {dests: cost}};
            # v's own choice and its parent edge each move the sum by at
            # most one, so a sum the remaining children cannot bring back
            # within 2 is dropped
            acc: dict[int, dict[int, int]] = {0: {0: 0}}
            left = len(kids[v])
            for c in kids[v]:
                left -= 1
                nxt: dict[int, dict[int, int]] = {}
                for bal, rows in acc.items():
                    for state, crows in tables[c].items():
                        if abs(bal + state) > left + 2:
                            continue
                        out = nxt.setdefault(bal + state, {})
                        for d1, c1 in rows.items():
                            for d2, c2 in crows.items():
                                dests, cost = d1 | d2, c1 + c2
                                if cost < out.get(dests, _INF):
                                    out[dests] = cost
                tables[c] = {}
                acc = nxt
            # v sends once (+1) if informed, else may receive once (-1)
            bit = 1 << (v - 1)
            table: dict[int, dict[int, int]] = {}
            for bal, rows in acc.items():
                for own in (0, 1) if mask & bit else (0, -1):
                    state = bal + own
                    if state not in (-1, 0, 1) or (v == 1 and state):
                        continue
                    out = table.setdefault(state, {})
                    gain = bit if own < 0 else 0
                    for dests, cost in rows.items():
                        dests |= gain
                        cost += state != 0
                        if cost < out.get(dests, _INF):
                            out[dests] = cost
            tables[v] = table
        return {mask | dests: cost for dests, cost in tables[1].get(0, {}).items() if dests}

    def realize(self, mask: int, nmask: int) -> list[tuple[int, int]]:
        """One cheapest edge-disjoint call set informing exactly nmask & ~mask.

        The same pass with the destinations fixed keeps, per vertex and
        parent-edge state, its children's states; read top-down, those give
        every edge's state. Then, bottom-up, each vertex pairs the senders
        and receivers whose paths meet there and passes the one left over,
        if any, across the edge above it.
        """
        n, kids = self.n, self.kids
        best: list[dict[int, tuple[int, tuple[int, ...], int]]] = [{} for _ in range(n + 1)]
        for v in range(n, 0, -1):
            acc: dict[int, tuple[int, tuple[int, ...]]] = {0: (0, ())}
            for c in kids[v]:
                nxt: dict[int, tuple[int, tuple[int, ...]]] = {}
                for bal, (cost, states) in acc.items():
                    for state, (ccost, _, _) in best[c].items():
                        total = cost + ccost
                        if total < nxt.get(bal + state, (_INF,))[0]:
                            nxt[bal + state] = (total, states + (state,))
                acc = nxt
            bit = 1 << (v - 1)
            choices = (0, 1) if mask & bit else (-1,) if nmask & bit else (0,)
            for bal, (cost, states) in acc.items():
                for o in choices:
                    state = bal + o
                    if state not in (-1, 0, 1) or (v == 1 and state):
                        continue
                    total = cost + (state != 0)
                    if total < best[v].get(state, (_INF,))[0]:
                        best[v][state] = (total, states, o)

        # top-down: every edge's state and every vertex's own choice
        edge = [0] * (n + 1)
        own = [0] * (n + 1)
        for v in range(1, n + 1):
            _, states, own[v] = best[v][edge[v]]
            for c, state in zip(kids[v], states):
                edge[c] = state
        # bottom-up: the end of the one path crossing the edge above v
        crossing = [0] * (n + 1)
        calls = []
        for v in range(n, 0, -1):
            senders = [crossing[c] for c in kids[v] if edge[c] > 0]
            receivers = [crossing[c] for c in kids[v] if edge[c] < 0]
            if own[v] > 0:
                senders.append(v)
            elif own[v] < 0:
                receivers.append(v)
            if edge[v] > 0:
                crossing[v] = senders.pop()
            elif edge[v] < 0:
                crossing[v] = receivers.pop()
            calls += zip(senders, receivers)
        return sorted(calls)

    def last_step(self, mask: int) -> float:
        """Fewest edges of one call set informing every vertex outside mask.

        The scalar form of `realize`'s pass with every uninformed vertex a
        destination: per vertex and parent-edge state, only the fewest edges
        used inside the subtree. Infinite when no call set informs them all.
        """
        kids = self.kids
        tables: list[dict[int, int]] = [{}] * (self.n + 1)
        for v in range(self.n, 0, -1):
            informed = mask >> (v - 1) & 1
            acc = {0: 0}
            left = len(kids[v])
            for c in kids[v]:
                left -= 1
                nxt: dict[int, int] = {}
                for bal, cost in acc.items():
                    for state, ccost in tables[c].items():
                        b = bal + state
                        if -left - 2 <= b <= left + 2 and cost + ccost < nxt.get(b, _INF):
                            nxt[b] = cost + ccost
                acc = nxt
            table: dict[int, int] = {}
            for bal, cost in acc.items():
                for own in (0, 1) if informed else (-1,):
                    state = bal + own
                    if state not in (-1, 0, 1) or (v == 1 and state):
                        continue
                    cost_here = cost + (state != 0)
                    if cost_here < table.get(state, _INF):
                        table[state] = cost_here
            tables[v] = table
        return tables[1].get(0, _INF)

    def floor(self, mask: int, steps_left: int) -> int:
        """A lower bound on `best(mask, steps_left)` that never exceeds it.

        Each uninformed vertex receives one call of at least one edge. A
        one-edge call into a leaf comes from its parent, which sends at
        most once a step and only once informed: in steps_left steps, one
        of them spent being informed if it is not yet. So of a family, a
        parent of leaves and its children, each uninformed member past
        steps_left is a leaf whose call costs at least one edge more.
        """
        low = self.n - mask.bit_count()
        free = ~mask
        for family in self._families:
            over = (family & free).bit_count() - steps_left
            if over > 0:
                low += over
        return low

    def best(self, mask: int, steps_left: int) -> float:
        """Fewest edges informing every vertex from mask within steps_left steps.

        One step from the end only the informed set `full` can follow, so
        `last_step` prices it directly. Otherwise the node tries its step
        options cheapest-bound first, where an option's bound is its cost
        plus `floor` of the informed set it reaches with one step fewer,
        and stops at the first bound that reaches the best value found.
        No option it skips could beat that value, so every memo entry is
        the exact minimum.
        """
        if mask == self.full:
            return 0
        if steps_left <= 0:
            return _INF
        if mask.bit_count() << steps_left < self.n:
            return _INF
        key = (self.canon(mask), steps_left)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if steps_left == 1:
            value = self.last_step(mask)
        else:
            floor, rest = self.floor, steps_left - 1
            ranked = sorted(
                (cost + floor(nmask, rest), cost, nmask)
                for nmask, cost in self.step_options(mask).items()
            )
            value = _INF
            for bound, cost, nmask in ranked:
                if bound >= value:
                    break
                value = min(value, cost + self.best(nmask, rest))
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
        if steps_left == 1:
            nmask, cost = searcher.full, owed
        else:
            nmask, cost = next(
                (nmask, cost)
                for nmask, cost in sorted(searcher.step_options(mask).items())
                if cost + searcher.best(nmask, steps_left - 1) == owed
            )
        step = Step(tree)
        for s, d in searcher.realize(mask, nmask):
            step.add(s, d, tree.climb(s, d))
        assert step.cost() == cost
        witness.append_step(step)
        mask, steps_left, owed = nmask, steps_left - 1, owed - cost
    return int(total), witness


@dataclass
class BracketReport:
    """Lower bound <= optimum <= every minimum-time schedule's cost.

    The optimum minimises over schedules within the step budget, so only
    schemes that themselves meet the budget are comparable against it;
    slower schemes may legally cost less and are listed but not compared.
    witness is the solve's schedule attaining the optimum.
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
    witness: Schedule


def check_bracket(
    tree: CompleteKTree,
    u: VertexRef,
    time_budget: int | None = None,
) -> BracketReport:
    """Verify the bound bracket around the searched optimum for one instance.

    The optimum is solved once, within time_budget steps (ceil(log2 n) by
    default), and the schemes are compared against it at that budget.
    """
    budget = ceil_log2(tree.n) if time_budget is None else time_budget
    opt, witness = optimal_cost(tree, u, time_budget=budget)
    witness_ok = validate(witness).ok

    costs = {}
    times = {}
    for name, builder in (("alg1", alg1), ("alg2", alg2), ("alg3", alg3)):
        sched = builder(tree, u)
        costs[name] = sched.total_cost()
        times[name] = sched.total_time()

    rep = report(tree.k, tree.r)
    upper = rep.dispatched_upper()

    ok = (
        witness_ok
        and rep.lower <= opt
        and all(opt <= costs[name] for name in costs if times[name] <= budget)
        and opt <= math.floor(upper)
    )
    return BracketReport(
        k=tree.k,
        r=tree.r,
        n=tree.n,
        originator=u.id,
        optimal=opt,
        lower=rep.lower,
        algorithm_costs=costs,
        algorithm_times=times,
        dispatched_label=rep.case.label,
        dispatched_upper=upper,
        ok=ok,
        witness=witness,
    )
