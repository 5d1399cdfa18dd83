"""End-to-end broadcast schedule builders and the cost dispatcher.

Three schemes cover the (k, r) plane:

  * alg1 fills the tree level by level: r rounds of ceil(log2(k+1)) steps in
    which every informed parent feeds a child (cost 1) while freshly informed
    children relay to siblings through their parent (cost 2).
  * alg2 first spreads to level r-1, folds the fan-up to the inner levels
    into that phase's last step, then runs all leaf stars in parallel.
  * alg3 spreads to the leaves and folds the whole fan-up into the final
    spreading step.

The one- and two-edge calls that make up most of a schedule are written
down in closed form rather than climbed for: a parent feeding its child
crosses (child,), and a vertex relaying to its sibling crosses (caller,
sibling). alg1 tests those edges against the step inline, and the leaf
stars need no test at all. Only alg1's longer calls (the deep
originator's assist, the stragglers, the closing call, the safety net)
climb. Every builder writes its calls' ids and paths straight into
array-backed steps (schedule.Step) and makes no Call or VertexRef.

lbckt picks per (k, r) the cheapest scheme that still meets the global
ceil(log2 n) step budget; the two guard comparisons use integer arithmetic
only.
"""

from __future__ import annotations

from bisect import insort
from itertools import compress

from .bounds import DispatchCase, ceil_log2, lbckt_case
from .ktree import CompleteKTree, VertexRef
from .schedule import Schedule, Step
from .procedures import merge_upcalls, to_level


# ---------------------------------------------------------------------------
# alg1: level-by-level stars
# ---------------------------------------------------------------------------

def alg1(tree: CompleteKTree, u: VertexRef) -> Schedule:
    k, r = tree.k, tree.r
    n = tree.n
    lam = ceil_log2(k + 1)
    power_of_two = (k & (k - 1)) == 0
    climb = tree.climb
    sched = Schedule(tree, u, "alg1")

    # the loops below work on breadth-first ids: the parent of v is
    # (v-2)//k+1, its children are k(v-1)+2 .. kv+1, and base[j] + offset is
    # the id of the vertex (j, offset)
    base = [tree.vertex_id(j, 1) - 1 for j in range(r + 1)]
    informed = bytearray(n + 1)   # informed before the current step
    claimed = bytearray(n + 1)    # informed, or called in the current step
    informed[u.id] = claimed[u.id] = 1
    informed_count = 1

    # per inner vertex p, its first child that may still be unclaimed: a
    # vertex once claimed stays claimed, so the cursor only moves forward
    cursor = [0, *range(2, k * base[r] + 2, k)]

    def first_open(pid: int) -> int:
        """pid's first unclaimed child, or k * pid + 2 when it has none."""
        c, end = cursor[pid], k * pid + 2
        while c < end and claimed[c]:
            c += 1
        cursor[pid] = c
        return c

    def level_ids(level: int) -> list[int]:
        """The informed ids of a level, ascending: its ids are contiguous."""
        lo, hi = base[level] + 1, base[level] + k**level + 1
        return list(compress(range(lo, hi), informed[lo:hi]))

    steps: list[Step] = []

    # a deep originator opens by relaying to the root, unless k is a power of
    # two (then the root is picked up by the closing call instead)
    deep = u.level >= 2
    if deep and not power_of_two:
        step = Step(tree)
        step.add(u.id, 1, climb(u.id, 1))
        steps.append(step)
        informed[1] = claimed[1] = 1
        informed_count += 1
        sched.deviations.append(f"alg1:originator-relay-cost={step.cost()}")
    # the originator's level-1 ancestor (the level-1 ids are 2 .. k + 1),
    # which only a deep originator's assist reads
    u_anc = u.id
    while u_anc > k + 1:
        u_anc = (u_anc - 2) // k + 1

    late: list[int] = []          # vertices whose round has already passed
    swept_through = 0             # levels 0..swept_through already swept into late
    # the inner vertices with an uninformed child, ascending, which the
    # overtime steps walk instead of whole levels; None before overtime
    open_parents: list[int] | None = None
    t = len(steps)
    hard_stop = 4 * r * lam + 64

    while informed_count < n:
        t += 1
        if t > hard_stop:  # pragma: no cover
            raise RuntimeError("alg1 failed to converge")
        jj = min(r, (t - 1) // lam + 1)
        overtime = t > r * lam

        step = Step(tree)
        src_ids, dst_ids, ends, edges = step.src, step.dst, step.ends, step.edges
        used_src: set[int] = set()
        used_edges: set[int] = set()

        def add(src: int, dst: int, path) -> None:
            """Step.add, written out, for the calls placed by climbing."""
            src_ids.append(src)
            dst_ids.append(dst)
            edges.extend(path)
            ends.append(len(edges))
            used_src.add(src)
            used_edges.update(path)
            claimed[dst] = 1

        def place(src: int, dst: int) -> bool:
            path = climb(src, dst, used_edges)
            if path is not None:
                add(src, dst, path)
            return path is not None

        # deep-originator assist: keep feeding level 1 while it is incomplete
        if deep and u.id not in used_src:
            lvl1 = level_ids(1)
            if len(lvl1) < k:
                if not claimed[u_anc]:
                    place(u.id, u_anc)
                if u.id not in used_src:
                    for vid in range(2, k + 2):
                        if not claimed[vid]:
                            if place(u.id, vid):
                                break

        # stragglers: vertices shallower than the current round, root excluded
        sweep_to = (r if overtime else jj) - 1
        while swept_through < sweep_to:
            swept_through += 1
            first = base[swept_through] + 1
            for vid in range(first, first + k**swept_through):
                if not informed[vid]:
                    late.append(vid)
        if late:
            still_late = []
            for vid in late:
                if informed[vid]:
                    continue
                if claimed[vid]:
                    still_late.append(vid)
                    continue
                placed = False
                anc = vid
                while anc > 1:
                    anc = (anc - 2) // k + 1
                    if informed[anc] and anc not in used_src and place(anc, vid):
                        placed = True
                        break
                if not placed:
                    still_late.append(vid)
            late = still_late

        # the callers of the two passes below: in a round, the informed
        # vertices of its parent and child levels; in overtime, those of the
        # open parents and their children, the list pruned of every parent
        # whose children are all claimed. Both walks are in ascending ids
        if overtime:
            if open_parents is None:
                open_parents = list(range(1, base[r] + 1))
            open_parents = [p for p in open_parents if first_open(p) < k * p + 2]
            feeders = [p for p in open_parents if informed[p]]
            relayers = [w for p in open_parents
                        for w in range(k * p - k + 2, k * p + 2) if informed[w]]
        else:
            feeders, relayers = level_ids(jj - 1), level_ids(jj)

        # parents feed their first unclaimed child (cost 1): the path is the
        # child's edge. No feed can block another, so each pass is checked
        # against the calls before it and written whole
        feed_src, feed_dst = [], []
        for pid in feeders:
            if pid not in used_src:
                cid = first_open(pid)
                if cid < k * pid + 2 and cid not in used_edges:
                    feed_src.append(pid)
                    feed_dst.append(cid)
                    claimed[cid] = 1
        step.add_child_calls(feed_src, feed_dst)
        used_src.update(feed_src)
        used_edges.update(feed_dst)

        # informed children relay to their parent's first unclaimed child
        # (cost 2): the path is the caller's edge, then the sibling's. The
        # parent need not be informed, as only edges are exclusive
        relay_src, relay_dst = [], []
        for wid in relayers:
            if wid not in used_src and wid not in used_edges:
                pid = (wid - 2) // k + 1
                sid = first_open(pid)
                if sid < k * pid + 2 and sid not in used_edges:
                    relay_src.append(wid)
                    relay_dst.append(sid)
                    claimed[sid] = 1
        step.add_sibling_calls(relay_src, relay_dst)
        used_src.update(relay_src)
        used_edges.update(relay_src)
        used_edges.update(relay_dst)

        # closing call: once only the root is missing, a level-1 vertex
        # hands it the message at cost 1 (if none can, a later step does)
        if not claimed[1] and n - informed_count == len(step) + 1:
            for vid in level_ids(1):
                if vid not in used_src and place(vid, 1):
                    break

        if not len(step):
            # safety net: any informed vertex can reach any uninformed one
            target = next(vid for vid in range(1, n + 1) if not informed[vid])
            src = u.id if u.id not in used_src else next(
                vid for vid in range(1, n + 1) if informed[vid])
            place(src, target)

        for vid in step.dst:
            informed[vid] = 1
        informed_count += len(step)
        steps.append(step)

    for step in steps:
        sched.append_step(step)
    overrun = sched.total_time() - r * lam
    if overrun > 0:
        sched.deviations.append(f"alg1:time-over-rounds=+{overrun}")
    return sched


# ---------------------------------------------------------------------------
# alg2: spread to level r-1, fan up, fill the leaf stars
# ---------------------------------------------------------------------------

def _leaf_star_steps(tree: CompleteKTree, pre_informed: set[int]) -> list[Step]:
    """Parallel stars: every level-(r-1) vertex feeds its k leaf children."""
    k, r = tree.k, tree.r
    first_parent = tree.vertex_id(r - 1, 1)
    parents = range(first_parent, first_parent + k ** (r - 1))
    # the informed leaf ids under each parent id, sorted. The children of p
    # are k(p-1)+2 .. k(p-1)+k+1
    informed_children: dict[int, list[int]] = {p: [] for p in parents}
    informed: set[int] = set(pre_informed)
    for lid in sorted(pre_informed):
        informed_children[(lid - 2) // k + 1].append(lid)
    remaining = k**r - len(pre_informed)

    steps: list[Step] = []
    while remaining > 0:
        step = Step(tree)
        add = step.add
        for p in parents:
            first = k * (p - 1) + 2
            targets = [cid for cid in range(first, first + k) if cid not in informed]
            if not targets:
                continue
            # the parent's call is the first target's edge; each informed
            # leaf relays through the parent, its own edge then the target's
            cid = targets[0]
            add(p, cid, (cid,))
            for sid, cid in zip(informed_children[p], targets[1:]):
                add(sid, cid, (sid, cid))
        for lid in step.dst:
            informed.add(lid)
            insort(informed_children[(lid - 2) // k + 1], lid)
        remaining -= len(step)
        steps.append(step)
    return steps


def alg2(tree: CompleteKTree, u: VertexRef) -> Schedule:
    k, r = tree.k, tree.r
    sched = Schedule(tree, u, "alg2")
    pre = {u.id} if u.level == r else set()
    if r == 1:
        # degenerate inner phase: the root is the only inner vertex
        if u.id != 1:
            step = Step(tree)
            step.add(u.id, 1, tree.climb(u.id, 1))
            sched.append_step(step)
        for step in _leaf_star_steps(tree, pre):
            sched.append_step(step)
        return sched

    spread = to_level(tree, r - 1, u)
    merged, deferred = merge_upcalls(tree, r - 1, u, spread.steps)
    for step in merged:
        sched.append_step(step)
    if len(deferred):
        sched.append_step(deferred)
        sched.deviations.append("alg2:fromlevel-deferred-step")
    for step in _leaf_star_steps(tree, pre):
        sched.append_step(step)
    return sched


# ---------------------------------------------------------------------------
# alg3: spread to the leaves, fan up inside the last step
# ---------------------------------------------------------------------------

def alg3(tree: CompleteKTree, u: VertexRef) -> Schedule:
    r = tree.r
    sched = Schedule(tree, u, "alg3")
    spread = to_level(tree, r, u)
    merged, deferred = merge_upcalls(tree, r, u, spread.steps)
    for step in merged:
        sched.append_step(step)
    if len(deferred):
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
