"""End-to-end broadcast schedule builders and the cost dispatcher.

Three schemes cover the (k, r) plane:

  * alg1 fills the tree level by level: r rounds of ceil(log2(k+1)) steps in
    which every informed parent feeds a child (cost 1) while freshly informed
    children relay to siblings through their parent (cost 2).
  * alg2 first spreads to level r-1, folds the fan-up to the inner levels
    into that phase's last step, then runs all leaf stars in parallel:
    alg1's last round, started with every inner vertex informed.
  * alg3 spreads to the leaves and folds the whole fan-up into the final
    spreading step.

One writer, _star_rounds, places the star calls of both alg1 and alg2.
The one- and two-edge calls that make up most of a schedule are written
down in closed form rather than climbed for: a parent feeding its child
crosses (child,), and a vertex relaying to its sibling crosses (caller,
sibling), with those edges tested against the step inline. Only the
longer calls (the deep originator's assist, the stragglers, the closing
call, the safety net) climb. Every builder writes its calls' ids and
paths into array-backed steps (schedule.Step) through Step's two writers,
a pass of feeds or relays at a time (Step.add_pass) or one call at a time
(Step.add), and makes no Call or VertexRef.

Most of those calls fall in stars of one shape repeated across a level,
and these are written a run of families at a time, one strided range per
child place: a round takes every family that started the round with its
parent informed and no child claimed and that no climbing call has
touched since (the rest, and every overtime step, go call by call). In
alg2's leaf round that is every parent with no pre-informed leaf. Runs
and single calls land in the order the call-by-call rule gives them: a
step lists its feeds, then its relays, each family by family.

lbckt picks per (k, r) the cheapest scheme that still meets the global
ceil(log2 n) step budget; the two guard comparisons use integer arithmetic
only.
"""

from __future__ import annotations

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
    sched = Schedule(tree, u, "alg1")
    informed = bytearray(tree.n + 1)
    informed[u.id] = 1
    # a deep originator opens by relaying to the root, unless k is a power of
    # two (then the root is picked up by the closing call instead)
    if u.level >= 2 and k & (k - 1):
        step = Step(tree)
        step.add(u.id, 1, tree.climb(u.id, 1))
        sched.append_step(step)
        informed[1] = 1
        sched.deviations.append(f"alg1:originator-relay-cost={step.cost()}")
    sched.steps += _star_rounds(tree, u, informed, len(sched.steps))
    overrun = sched.total_time() - r * ceil_log2(k + 1)
    if overrun > 0:
        sched.deviations.append(f"alg1:time-over-rounds=+{overrun}")
    return sched


def _star_rounds(tree: CompleteKTree, u: VertexRef, informed: bytearray,
                 t: int) -> list[Step]:
    """alg1's rounds from the state after step t: the steps that inform
    every vertex whose flag in informed (indexed by id) is 0. informed is
    updated as they go, and ends with every flag set.

    Step s belongs to round min(r, ceil(s / lambda)), whose families are
    the inner vertices one level above it; past r rounds, every parent with
    an uninformed child takes part. A step lists the deep originator's
    assist and the stragglers above its round, then the feeds and the
    relays, then the closing call once only the root is missing.
    """
    k, r = tree.k, tree.r
    n = tree.n
    lam = ceil_log2(k + 1)
    climb = tree.climb

    # the loops below work on breadth-first ids: the parent of v is
    # (v-2)//k+1, its children are k(v-1)+2 .. kv+1, and base[j] + offset is
    # the id of the vertex (j, offset). informed holds the state before the
    # current step
    base = [tree.vertex_id(j, 1) - 1 for j in range(r + 1)]
    claimed = bytearray(informed)  # informed, or called in the current step
    informed_count = informed.count(1)

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
    deep = u.level >= 2
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
        used_src: set[int] = set()
        used_edges: set[int] = set()

        def place(src: int, dst: int) -> bool:
            """Place the call src -> dst by climbing, if its path is clear."""
            path = climb(src, dst, used_edges)
            if path is None:
                return False
            step.add(src, dst, path)
            used_src.add(src)
            used_edges.update(path)
            claimed[dst] = 1
            dirty.update((src, dst, (src - 2) // k + 1, (dst - 2) // k + 1))
            dirty.update([(e - 2) // k + 1 for e in path])
            return True

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
        step.add_pass(feed_src, [feed_dst])
        step.add_pass(relay_src, [relay_src, relay_dst])

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
    return steps


# ---------------------------------------------------------------------------
# alg2: spread to level r-1, fan up, fill the leaf stars
# ---------------------------------------------------------------------------

def _spread_and_fold(sched: Schedule, j: int) -> bool:
    """Append to_level(j) from the originator with the fan-up to levels
    0..j-1 folded into its last step, then the step of the fan-up calls
    the fold deferred, if any; True when there is one."""
    tree, u = sched.tree, sched.originator
    spread = to_level(tree, j, u)
    merged, deferred = merge_upcalls(tree, j, u, spread.steps)
    sched.steps += merged
    if len(deferred):
        sched.append_step(deferred)
    return len(deferred) > 0


def alg2(tree: CompleteKTree, u: VertexRef) -> Schedule:
    k, r = tree.k, tree.r
    sched = Schedule(tree, u, "alg2")
    if r == 1:
        # degenerate inner phase: the root is the only inner vertex
        if u.id != 1:
            step = Step(tree)
            step.add(u.id, 1, tree.climb(u.id, 1))
            sched.append_step(step)
    elif _spread_and_fold(sched, r - 1):
        sched.deviations.append("alg2:fromlevel-deferred-step")
    # the leaf stars are alg1's last round, with every inner vertex informed
    first_leaf = tree.vertex_id(r, 1)
    informed = bytearray(tree.n + 1)
    informed[1:first_leaf] = bytes([1]) * (first_leaf - 1)
    informed[u.id] = 1
    sched.steps += _star_rounds(tree, u, informed, (r - 1) * ceil_log2(k + 1))
    return sched


# ---------------------------------------------------------------------------
# alg3: spread to the leaves, fan up inside the last step
# ---------------------------------------------------------------------------

def alg3(tree: CompleteKTree, u: VertexRef) -> Schedule:
    r = tree.r
    sched = Schedule(tree, u, "alg3")
    _spread_and_fold(sched, r)
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
