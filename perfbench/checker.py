"""The benchmark's own schedule checker, independent of `schedule.validate`.

Every call path is re-derived from breadth-first-id arithmetic alone: in a
complete k-ary tree with the root at id 1, the parent of vertex v > 1 is
(v - 2) // k + 1, and a deeper vertex always has a larger id than a
shallower one. An edge is named by the id of its deeper endpoint, the
same convention the program uses, so a path is compared with the call's
path as a tuple.
"""

from __future__ import annotations

from bisect import bisect_right


class Shape:
    """Sizes and id arithmetic of the complete k-ary tree of height r."""

    def __init__(self, k: int, r: int):
        self.k = k
        self.r = r
        self.n = (k ** (r + 1) - 1) // (k - 1)
        # first[j] is the id of the leftmost vertex of level j
        self.first = [(k**j - 1) // (k - 1) + 1 for j in range(r + 1)]

    def parent(self, v: int) -> int:
        return (v - 2) // self.k + 1

    def level(self, v: int) -> int:
        return bisect_right(self.first, v) - 1

    def offset(self, v: int) -> int:
        return v - self.first[self.level(v)] + 1

    def path(self, a: int, b: int) -> tuple[int, ...]:
        """Edges from a to b in travel order, each named by its child end.

        Climbing whichever end has the larger id always climbs the deeper
        one (or, at equal depth, either), so the two ends meet at their
        lowest common ancestor.
        """
        up: list[int] = []
        down: list[int] = []
        while a != b:
            if a > b:
                up.append(a)
                a = self.parent(a)
            else:
                down.append(b)
                b = self.parent(b)
        down.reverse()
        return tuple(up + down)


def check_schedule(shape: Shape, schedule) -> tuple[list[str], int, int]:
    """Check a schedule against the line-broadcast model.

    Returns (problems, cost, steps): every rule broken, the summed path
    lengths and the number of non-empty steps, all derived here.
    """
    n = shape.n
    problems: list[str] = []
    origin = schedule.originator.id
    if not 1 <= origin <= n:
        return [f"originator {origin} outside 1..{n}"], 0, 0
    informed = bytearray(n + 1)
    informed[origin] = 1
    count = 1
    cost = 0
    steps = 0
    for t, step in enumerate(schedule.steps, 1):
        if not step.calls:
            continue
        steps += 1
        senders: set[int] = set()
        receivers: set[int] = set()
        edges: set[int] = set()
        for call in step.calls:
            s, d = call.src.id, call.dst.id
            if not (1 <= s <= n and 1 <= d <= n) or s == d:
                problems.append(f"step {t}: bad call {s}->{d}")
                continue
            for ref in (call.src, call.dst):
                if (ref.level, ref.offset) != (shape.level(ref.id), shape.offset(ref.id)):
                    problems.append(f"step {t}: vertex {ref.id} has the wrong level/offset")
            if not informed[s]:
                problems.append(f"step {t}: source {s} not informed")
            if informed[d]:
                problems.append(f"step {t}: destination {d} already informed")
            if s in senders:
                problems.append(f"step {t}: {s} sends twice")
            if d in receivers:
                problems.append(f"step {t}: {d} receives twice")
            senders.add(s)
            receivers.add(d)
            path = shape.path(s, d)
            if tuple(call.path) != path:
                problems.append(f"step {t}: path of {s}->{d} is not the tree path")
            if not edges.isdisjoint(path):
                problems.append(f"step {t}: call {s}->{d} reuses an edge")
            edges.update(path)
            cost += len(path)
        for d in receivers:
            if not informed[d]:
                informed[d] = 1
                count += 1
    if count != n:
        problems.append(f"{n - count} of {n} vertices never informed")
    if schedule.total_cost() != cost:
        problems.append(f"reported cost {schedule.total_cost()} != path lengths {cost}")
    if schedule.total_time() != steps:
        problems.append(f"reported time {schedule.total_time()} != non-empty steps {steps}")
    return problems, cost, steps


def brute_force_minimum(shape: Shape, origin: int, budget: int) -> int | None:
    """Least cost of any valid broadcast from origin within budget steps.

    A plain exhaustive search over every call set of every step, memoised
    only on (informed set, steps left); no symmetry reduction, so it is a
    reference for tiny trees only. None when nothing fits the budget.
    """
    n = shape.n
    full = (1 << (n + 1)) - 2
    paths = {
        (s, d): shape.path(s, d)
        for s in range(1, n + 1) for d in range(1, n + 1) if s != d
    }
    memo: dict[tuple[int, int], float] = {}
    inf = float("inf")

    def best(mask: int, left: int) -> float:
        if mask == full:
            return 0
        if left == 0:
            return inf
        key = (mask, left)
        if key in memo:
            return memo[key]
        sources = [v for v in range(1, n + 1) if mask >> v & 1]
        targets = [v for v in range(1, n + 1) if not mask >> v & 1]
        value = inf

        def assign(i: int, used: frozenset, edges: frozenset, cost: int, new: int):
            nonlocal value
            if i == len(targets):
                if new:
                    value = min(value, cost + best(mask | new, left - 1))
                return
            assign(i + 1, used, edges, cost, new)
            d = targets[i]
            for s in sources:
                if s in used:
                    continue
                path = paths[(s, d)]
                if edges.isdisjoint(path):
                    assign(i + 1, used | {s}, edges | set(path), cost + len(path),
                           new | 1 << d)

        assign(0, frozenset(), frozenset(), 0, 0)
        memo[key] = value
        return value

    result = best(1 << origin, budget)
    return None if result == inf else int(result)
