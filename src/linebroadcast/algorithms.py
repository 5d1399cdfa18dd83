"""End-to-end broadcast schedule builders and the cost dispatcher.

Three schemes cover the (k, r) plane:

  * alg1 fills the tree level by level: r rounds of ceil(log2(k+1)) steps in
    which every informed parent feeds a child (cost 1) while freshly informed
    children relay to siblings through their parent (cost 2).
  * alg2 first spreads to level r-1, folds the fan-up to the inner levels
    into that phase's last step, then runs all leaf stars in parallel.
  * alg3 spreads to the leaves and folds the whole fan-up into the final
    spreading step.

lbckt picks per (k, r) the cheapest scheme that still meets the global
ceil(log2 n) step budget; the two guard comparisons use integer arithmetic
only.
"""

from __future__ import annotations

from bisect import insort

from .bounds import DispatchCase, ceil_log2, lbckt_case
from .ktree import CompleteKTree, VertexRef
from .schedule import Call, Schedule, make_call
from .procedures import merge_upcalls, to_level


# ---------------------------------------------------------------------------
# alg1: level-by-level stars
# ---------------------------------------------------------------------------

def alg1(tree: CompleteKTree, u: VertexRef) -> Schedule:
    k, r = tree.k, tree.r
    n = tree.n
    lam = ceil_log2(k + 1)
    root = tree.root
    power_of_two = (k & (k - 1)) == 0
    sched = Schedule(tree, u, "alg1")

    informed = bytearray(n + 1)
    informed[u.id] = 1
    informed_count = 1

    # informed ids per level; kept sorted lazily (sort once per use)
    by_level: list[list[int]] = [[] for _ in range(r + 1)]
    dirty = [False] * (r + 1)
    by_level[u.level].append(u.id)

    # uninformed-children count per internal vertex id (lazy default k)
    rem_children: dict[int, int] = {}

    def parent_id(v: VertexRef) -> int:
        return tree.vertex_id(v.level - 1, (v.offset + k - 1) // k)

    def first_child_id(vid: int, level: int) -> int:
        _, off = tree.locate(vid)
        return tree.vertex_id(level + 1, (off - 1) * k + 1)

    def level_ids(level: int) -> list[int]:
        if dirty[level]:
            by_level[level].sort()
            dirty[level] = False
        return by_level[level]

    steps: list[list[Call]] = []

    # a deep originator opens by relaying to the root, unless k is a power of
    # two (then the root is picked up by the closing call instead)
    deep = u.level >= 2
    if deep and not power_of_two:
        call = make_call(tree, u, root)
        steps.append([call])
        informed[1] = 1
        informed_count += 1
        by_level[0].append(1)
        sched.deviations.append(f"alg1:originator-relay-cost={call.cost}")

    late: list[int] = []          # vertices whose round has already passed
    swept_through = 0             # levels 0..swept_through already swept into late
    t = len(steps)
    hard_stop = 4 * r * lam + 64

    while informed_count < n:
        t += 1
        if t > hard_stop:  # pragma: no cover
            raise RuntimeError("alg1 failed to converge")
        jj = min(r, (t - 1) // lam + 1)
        overtime = t > r * lam

        calls: list[Call] = []
        used_src: set[int] = set()
        used_edges: set[int] = set()
        serving: set[int] = set()

        def place(src: VertexRef, dst: VertexRef) -> bool:
            path = tree.path(src, dst)
            if any(e in used_edges for e in path):
                return False
            calls.append(Call(src, dst, tuple(path)))
            used_src.add(src.id)
            used_edges.update(path)
            serving.add(dst.id)
            return True

        # deep-originator assist: keep feeding level 1 while it is incomplete
        if deep and u.id not in used_src:
            lvl1 = level_ids(1)
            if len(lvl1) < k:
                anc = tree.ancestor_at_level(u, 1)
                if not informed[anc.id] and anc.id not in serving:
                    place(u, anc)
                if u.id not in used_src:
                    base = tree.vertex_id(1, 1)
                    for vid in range(base, base + k):
                        if not informed[vid] and vid not in serving:
                            if place(u, tree.vertex_by_id(vid)):
                                break

        # stragglers: vertices shallower than the current round, root excluded
        sweep_to = (r if overtime else jj) - 1
        while swept_through < sweep_to:
            swept_through += 1
            base = tree.vertex_id(swept_through, 1)
            for vid in range(base, base + k**swept_through):
                if not informed[vid]:
                    late.append(vid)
        if late:
            still_late = []
            for vid in late:
                if informed[vid]:
                    continue
                if vid in serving:
                    still_late.append(vid)
                    continue
                v = tree.vertex_by_id(vid)
                placed = False
                anc = v
                while anc.level > 0:
                    anc = tree.parent(anc)
                    if informed[anc.id] and anc.id not in used_src and place(anc, v):
                        placed = True
                        break
                if not placed:
                    still_late.append(vid)
            late = still_late

        # parents feed children (cost 1)
        parent_levels = range(0, r) if overtime else (jj - 1,)
        for lvl in parent_levels:
            for pid in level_ids(lvl):
                if rem_children.get(pid, k) == 0 or pid in used_src:
                    continue
                first = first_child_id(pid, lvl)
                for cid in range(first, first + k):
                    if not informed[cid] and cid not in serving:
                        place(tree.vertex_by_id(pid), tree.vertex_by_id(cid))
                        break

        # informed children relay to siblings through the parent (cost 2)
        sibling_levels = range(1, r + 1) if overtime else (jj,)
        for lvl in sibling_levels:
            for wid in level_ids(lvl):
                if wid in used_src:
                    continue
                w = tree.vertex_by_id(wid)
                pid = parent_id(w)
                if rem_children.get(pid, k) == 0:
                    continue
                if not informed[pid] and lvl != 1:
                    continue
                first = first_child_id(pid, lvl - 1)
                for sid in range(first, first + k):
                    if not informed[sid] and sid not in serving:
                        place(w, tree.vertex_by_id(sid))
                        break

        # closing call: once only the root is missing, a level-1 vertex
        # (or the originator) hands it the message at cost 1
        if not informed[1] and 1 not in serving:
            if n - informed_count == len(serving) + 1:
                done = False
                for vid in level_ids(1):
                    if vid not in used_src and place(tree.vertex_by_id(vid), root):
                        done = True
                        break
                if not done and u.id not in used_src:
                    place(u, root)

        if not calls:
            # safety net: any informed vertex can reach any uninformed one
            target = next(vid for vid in range(1, n + 1) if not informed[vid])
            src = u if u.id not in used_src else tree.vertex_by_id(
                next(vid for vid in range(1, n + 1) if informed[vid])
            )
            place(src, tree.vertex_by_id(target))

        for c in calls:
            vid = c.dst.id
            informed[vid] = 1
            informed_count += 1
            by_level[c.dst.level].append(vid)
            dirty[c.dst.level] = True
            if c.dst.level >= 1:
                pid = parent_id(c.dst)
                rem_children[pid] = rem_children.get(pid, k) - 1
        steps.append(calls)

    for calls in steps:
        sched.append_step(calls)
    overrun = sched.total_time() - r * lam
    if overrun > 0:
        sched.deviations.append(f"alg1:time-over-rounds=+{overrun}")
    return sched


# ---------------------------------------------------------------------------
# alg2: spread to level r-1, fan up, fill the leaf stars
# ---------------------------------------------------------------------------

def _leaf_star_steps(tree: CompleteKTree, pre_informed: set[int]) -> list[list[Call]]:
    """Parallel stars: every level-(r-1) vertex feeds its k leaf children."""
    k, r = tree.k, tree.r
    parents = tree.level_vertices(r - 1)
    informed_children: dict[int, list[int]] = {p.id: [] for p in parents}
    informed: set[int] = set(pre_informed)
    for lid in sorted(pre_informed):
        leaf = tree.vertex_by_id(lid)
        informed_children[tree.parent(leaf).id].append(lid)
    remaining = tree.level_size(r) - len(pre_informed)

    steps: list[list[Call]] = []
    while remaining > 0:
        calls: list[Call] = []
        for p in parents:
            first = tree.vertex_id(r, (p.offset - 1) * k + 1)
            targets = [cid for cid in range(first, first + k) if cid not in informed]
            callers: list[VertexRef] = [p]
            callers += [tree.vertex_by_id(c) for c in informed_children[p.id]]
            for src, cid in zip(callers, targets):
                dst = tree.vertex_by_id(cid)
                calls.append(Call(src, dst, tuple(tree.path(src, dst))))
        for c in calls:
            informed.add(c.dst.id)
            insort(informed_children[tree.parent(c.dst).id], c.dst.id)
            remaining -= 1
        steps.append(calls)
    return steps


def alg2(tree: CompleteKTree, u: VertexRef) -> Schedule:
    k, r = tree.k, tree.r
    sched = Schedule(tree, u, "alg2")
    pre = {u.id} if u.level == r else set()
    if r == 1:
        # degenerate inner phase: the root is the only inner vertex
        if u.id != 1:
            sched.append_step([make_call(tree, u, tree.root)])
        for calls in _leaf_star_steps(tree, pre):
            sched.append_step(calls)
        return sched

    spread = to_level(tree, r - 1, u)
    merged, deferred = merge_upcalls(tree, r - 1, u, spread.steps)
    for calls in merged:
        sched.append_step(calls)
    if deferred:
        sched.append_step(deferred)
        sched.deviations.append("alg2:fromlevel-deferred-step")
    for calls in _leaf_star_steps(tree, pre):
        sched.append_step(calls)
    return sched


# ---------------------------------------------------------------------------
# alg3: spread to the leaves, fan up inside the last step
# ---------------------------------------------------------------------------

def alg3(tree: CompleteKTree, u: VertexRef) -> Schedule:
    r = tree.r
    sched = Schedule(tree, u, "alg3")
    spread = to_level(tree, r, u)
    merged, deferred = merge_upcalls(tree, r, u, spread.steps)
    for calls in merged:
        sched.append_step(calls)
    if deferred:
        sched.append_step(deferred)
    limit = ceil_log2(tree.n)
    overrun = sched.total_time() - limit
    if overrun > 0:
        sched.deviations.append(f"alg3:time-over-limit=+{overrun}")
    return sched


def lbckt(tree: CompleteKTree, u: VertexRef) -> tuple[Schedule, DispatchCase]:
    """Dispatch to the cheapest scheme that meets the global step budget."""
    case = lbckt_case(tree.k, tree.r)
    builder = {1: alg1, 2: alg2, 3: alg3}[case.number]
    return builder(tree, u), case
