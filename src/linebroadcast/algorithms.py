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

Most of those calls fall in stars of one shape repeated across a level,
and these are written a run of families at a time, one strided range per
child place: alg1's rounds take every family that started the round
with its parent informed and no child claimed and that no climbing call
has touched since (the rest, and every overtime step, go call by call),
and the leaf stars take every parent with no pre-informed leaf (a parent
with one goes call by call, in its turn). Runs and single calls land in
the order the call-by-call rule gives them.

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
    # a round's families are the inner vertices of its parent level. A
    # family is dirty when it did not start the round with its parent
    # informed and no child claimed, or a climbing call has since used its
    # parent, a child or a child's edge; every other family is clean and
    # has exactly its first `phase` children informed
    round_level = 0
    dirty: set[int] = set()
    phase = 0
    t = len(steps)
    hard_stop = 4 * r * lam + 64

    while informed_count < n:
        t += 1
        if t > hard_stop:  # pragma: no cover
            raise RuntimeError("alg1 failed to converge")
        jj = min(r, (t - 1) // lam + 1)
        overtime = t > r * lam
        if not overtime and jj != round_level:
            round_level, phase = jj, 0
            plo = base[jj - 1] + 1
            phi = plo + k ** (jj - 1)
            dirty = set()
            p = informed.find(0, plo, phi)
            while p >= 0:
                dirty.add(p)
                p = informed.find(0, p + 1, phi)
            c = informed.find(1, k * plo - k + 2, k * phi - k + 2)
            while c >= 0:
                dirty.add((c - 2) // k + 1)
                c = informed.find(1, c + 1, k * phi - k + 2)

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
            dirty.update((src, dst, (src - 2) // k + 1, (dst - 2) // k + 1))
            dirty.update([(e - 2) // k + 1 for e in path])

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

        # parents feed their first unclaimed child (cost 1): the path is the
        # child's edge. Then informed children relay to their parent's first
        # unclaimed child (cost 2): the path is the caller's edge, then the
        # sibling's, and the parent need not be informed, as only edges are
        # exclusive. No feed or relay can block another in its pass, so
        # each pass is checked against the calls before it and written whole
        feed_src: list[int] = []
        feed_dst: list[int] = []
        relay_src: list[int] = []
        relay_dst: list[int] = []

        def feed(pid: int) -> None:
            if informed[pid] and pid not in used_src:
                cid = first_open(pid)
                if cid < k * pid + 2 and cid not in used_edges:
                    feed_src.append(pid)
                    feed_dst.append(cid)
                    claimed[cid] = 1

        def relay(wid: int) -> None:
            if wid not in used_src and wid not in used_edges:
                pid = (wid - 2) // k + 1
                sid = first_open(pid)
                if sid < k * pid + 2 and sid not in used_edges:
                    relay_src.append(wid)
                    relay_dst.append(sid)
                    claimed[sid] = 1

        if overtime:
            # the open parents and their informed children, in ascending
            # ids, the list pruned of every parent whose children are all
            # claimed. A parent may be a child of another, so the relays
            # see the feeds' sources
            if open_parents is None:
                open_parents = list(range(1, base[r] + 1))
            open_parents = [p for p in open_parents if first_open(p) < k * p + 2]
            for pid in open_parents:
                feed(pid)
            used_src.update(feed_src)
            for pid in open_parents:
                for wid in range(k * pid - k + 2, k * pid + 2):
                    if informed[wid]:
                        relay(wid)
        else:
            # in a round no family's calls depend on another's. A run of
            # clean families lo..p-1 feeds child `phase` of each and relays
            # child i to child fed + i, where fed counts the claimed children
            # after the feed: one range per child place. A dirty family is
            # placed call by call, in its turn
            plo = base[jj - 1] + 1
            phi = plo + k ** (jj - 1)
            fed = phase + (phase < k)
            reps = min(phase, k - fed)
            lo = plo
            for p in sorted(p for p in dirty if plo <= p < phi) + [phi]:
                if lo < p:
                    first, stop = k * lo - k + 2, k * p - k + 2
                    if phase < k:
                        feed_src += range(lo, p)
                        feed_dst += range(first + phase, stop, k)
                        claimed[first + phase:stop:k] = b"\x01" * (p - lo)
                    if reps:
                        src = [0] * ((p - lo) * reps)
                        dst = [0] * ((p - lo) * reps)
                        for i in range(reps):
                            src[i::reps] = range(first + i, stop, k)
                            dst[i::reps] = range(first + fed + i, stop, k)
                            claimed[first + fed + i:stop:k] = b"\x01" * (p - lo)
                        relay_src += src
                        relay_dst += dst
                if p < phi:
                    feed(p)
                    for wid in range(k * p - k + 2, k * p + 2):
                        if informed[wid]:
                            relay(wid)
                lo = p + 1
            phase = fed + reps
        step.add_child_calls(feed_src, feed_dst)
        step.add_sibling_calls(relay_src, relay_dst)

        # closing call: once only the root is missing, a level-1 vertex
        # hands it the message at cost 1 (if none can, a later step does)
        if not claimed[1] and n - informed_count == len(step) + 1:
            used_src.update(feed_src, relay_src)
            used_edges.update(feed_dst, relay_src, relay_dst)
            for vid in level_ids(1):
                if vid not in used_src and place(vid, 1):
                    break

        if not len(step):
            # safety net: any informed vertex can reach any uninformed one
            target = next(vid for vid in range(1, n + 1) if not informed[vid])
            src = u.id if u.id not in used_src else next(
                vid for vid in range(1, n + 1) if informed[vid])
            place(src, target)

        # every vertex claimed in the step is informed from the next on
        informed[:] = claimed
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

def _add_star_run(step: Step, k: int, lo: int, hi: int, m: int, calls: int) -> None:
    """Record the stars of the parents lo..hi-1, each with exactly its
    first m children informed, parent by parent: the parent calls child m
    along (child m,), then child i relays to child m + 1 + i along (child
    i, child m + 1 + i), for i < calls - 1. One strided range per child
    place fills each of the step's arrays."""
    count = hi - lo
    first, stop = k * lo - k + 2, k * hi - k + 2  # child 0 of lo, of hi
    width = 2 * calls - 1  # edges per star
    at = len(step.edges)
    src = [0] * (count * calls)
    dst = [0] * (count * calls)
    ends = [0] * (count * calls)
    edges = [0] * (count * width)
    src[0::calls] = range(lo, hi)
    for i in range(calls):
        dst[i::calls] = edges[2 * i::width] = range(first + m + i, stop, k)
        ends[i::calls] = range(at + 2 * i + 1, at + count * width + 1, width)
        if i:
            src[i::calls] = edges[2 * i - 1::width] = range(first + i - 1, stop, k)
    step.src.fromlist(src)
    step.dst.fromlist(dst)
    step.ends.fromlist(ends)
    step.edges.fromlist(edges)


def _leaf_star_steps(tree: CompleteKTree, pre_informed: set[int]) -> list[Step]:
    """Parallel stars: every level-(r-1) vertex feeds its k leaf children.

    In each step a parent calls its first uninformed child, and its
    informed children, in order, relay through it to the uninformed ones
    after that. A parent with no pre-informed leaf has exactly its first m
    children informed, the same m for every such parent, so a run of them
    between two parents with a pre-informed leaf is written a step at a
    time by _add_star_run; those parents keep the call-by-call rule, in
    their turn.
    """
    k, r = tree.k, tree.r
    first_parent = tree.vertex_id(r - 1, 1)
    end_parent = first_parent + k ** (r - 1)
    # the informed leaf ids under each parent with a pre-informed leaf,
    # sorted. The children of p are k(p-1)+2 .. k(p-1)+k+1
    informed_children: dict[int, list[int]] = {}
    for lid in sorted(pre_informed):
        informed_children.setdefault((lid - 2) // k + 1, []).append(lid)
    informed: set[int] = set(pre_informed)
    cuts = sorted(informed_children) + [end_parent]
    m = 0  # the informed children of every other parent
    remaining = k**r - len(pre_informed)

    steps: list[Step] = []
    while remaining > 0:
        step = Step(tree)
        calls = min(m + 1, k - m)
        fresh: list[int] = []  # leaves called call by call
        lo = first_parent
        for p in cuts:
            if lo < p and calls:
                _add_star_run(step, k, lo, p, m, calls)
            lo = p + 1
            if p == end_parent:
                break
            first = k * (p - 1) + 2
            targets = [cid for cid in range(first, first + k) if cid not in informed]
            if not targets:
                continue
            # the parent's call is the first target's edge; each informed
            # leaf relays through the parent, its own edge then the target's
            cid = targets[0]
            step.add(p, cid, (cid,))
            fresh.append(cid)
            for sid, cid in zip(informed_children[p], targets[1:]):
                step.add(sid, cid, (sid, cid))
                fresh.append(cid)
        for lid in fresh:
            informed.add(lid)
            insort(informed_children[(lid - 2) // k + 1], lid)
        m += calls
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
