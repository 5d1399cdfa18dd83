"""Partial-broadcast building blocks.

Two procedures are built here:

  * to_level(tree, j, u): starting from the single informed vertex u, inform
    exactly the k**j vertices of level j (and nothing else). Targets are
    organised as a nested family of anchor grids over the level offsets: the
    round-m grid has stride k**(j-m), and each grid point anchors a window
    of the k-1 points above it at the next finer stride. Deliveries follow
    a fixed order (rounds, then stripes, windows interleaved), one doubling
    batch per step, with callers matched tightest relay scale first, so from
    the root the informed count doubles exactly every step.

  * from_level(tree, j, u): with all of level j informed, one single step of
    fan-up calls informs every vertex of levels 0..j-1. Each target at level
    j-i receives from a designated descendant at level j chosen so that the
    upward paths are pairwise edge-disjoint; the call aimed at u itself is
    dropped.

merge_upcalls folds the from_level step into the last to_level step when the
step budget requires it. Where from_level's own step fits the final
step, its calls are appended as they are. Otherwise it searches,
substituting same-subtree sources (or the originator, or a detour) when
the designated source is busy or too fresh, and trading calls with the
previous step when the first solve leaves calls unplaced: a fan-up call
moves up a step, and the level delivery it displaces moves down to a
window sibling. One greedy loop tries one such pull per open fan-up
call, highest target first, keeps the first whose re-solved fold ranks
better, and starts over from it. Each pull is tried
on a fold state of its own, built from the kept one, so no trial depends
on the trials before it. Whatever still cannot be placed is returned for a
dedicated follow-up step. Each fan-up target's source options are produced
as the search asks for them, so the path of an option the search never
reaches is never built.

to_level writes its relays a stretch at a time, at every scale. Its
delivery order is Farley's doubling repeated one scale up per round:
round m is k - 1 stripes over the level-(m-1) vertices, its groups, each
stripe delivering one more place of every group, where a group's places
are the first leaves below its k children. Outside the originator's
groups and the groups of carried targets a group's informed places are a
prefix that the batch's start fixes, and a stretch of one stripe's groups
has its callers at one place, 2g + 1 below the targets, where g counts
the batch's earlier stripes over them. A stretch is written with one
comprehension per edge, its paths by arithmetic, and no per-group state
is kept. The sibling relays (round j) need no edge test; a wider
stretch tests its callers against the step's sources, as an idle caller's
path is clear, and from the first stretch with a busy caller its scale
falls back to the per-target rule. That rule is one at every scale: the
nearest idle informed vertex of the target's level-lvl subtree, outside
its level-(lvl+1) subtree, whose path is clear, read off the sorted
informed ids. It serves the targets the runs leave, carried or in those
groups or in a run that fell back, and the mop-up through the root.
Cousin paths, (caller, its parent, the target's parent, target), are
tested by arithmetic, and the other paths and the originator's call
while climbing ids (CompleteKTree.climb). The originator's swap
reads its distance to a destination off the two ids, so it climbs only
for a call it would shorten by more than its best gain so far.
A call is recorded only for a placement that fits. The fan-up table
holds, per distance, the designated sources, the targets and the upward
paths as strided ranges, so no path is climbed.

Steps are schedule.Step arrays throughout: each procedure writes its calls'
ids and paths straight into them, merge_upcalls reads the given steps'
source, destination and edge arrays, and a trial pull works on copies of
the last two steps (Step.copy, then Step.replace_call or Step.add). No
Call or VertexRef is made here.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import itemgetter

from .errors import OutOfRange
from .ktree import CompleteKTree, VertexRef
from .schedule import Step


@dataclass
class Fragment:
    """A run of consecutive steps meant to be spliced into a schedule."""

    steps: list[Step]

    def cost(self) -> int:
        return sum(step.cost() for step in self.steps)


def _nearest_first(pool: list[int], q: int, lo: int = 0, hi: int | None = None,
                   hole: tuple[int, int] | None = None):
    """The values of the sorted pool[lo:hi], nearest to q first, a tie
    going to the lower value, less those from hole[0] to hole[1], a range
    around q, if given."""
    if hi is None:
        hi = len(pool)
    if hole is None:
        below = bisect_left(pool, q, lo, hi) - 1
        above = below + 1
    else:
        below = bisect_left(pool, hole[0], lo, hi) - 1
        above = bisect_right(pool, hole[1], below + 1, hi)
    while below >= lo or above < hi:
        if above >= hi or (below >= lo and q - pool[below] <= pool[above] - q):
            yield pool[below]
            below -= 1
        else:
            yield pool[above]
            above += 1


# ---------------------------------------------------------------------------
# anchor grids over the offsets of level j
# ---------------------------------------------------------------------------

def _digit_reversals(k: int, p: int) -> list[list[int]]:
    """For i = 0..p, the list of 0..k**i - 1 ordered by reversed base-k
    digits, i digits each."""
    # with one digit more, w = d * k**i + w' reverses to rev(w') * k + d
    out = [[0]]
    for _ in range(p):
        out.append([rev * k + d for d in range(k) for rev in out[-1]])
    return out


def to_level(tree: CompleteKTree, j: int, u: VertexRef) -> Fragment:
    """Broadcast from u to exactly the vertices of level j.

    The delivery order is fixed up front: rounds ascending, stripes within
    a round ascending, windows within a stripe in digit-reversed order, so
    every window's fill stays within one stripe of every other's, and each
    stripe spreads across the top-level subtrees, leaving any imbalance
    between near neighbours instead of across the root. Step t
    delivers the next batch of that order, sized so the informed population
    doubles exactly (capped by what is left); a batch target left
    undelivered leads the next batch. Within a step, targets are matched to
    callers by relay scale, tightest first: sibling pairs, then pairs
    meeting one level higher, and so on; the originator picks up the first
    target local relays missed, and through-the-root relays mop up.

    That order is k stripes over the level's k**(j-1) k-blocks: entry
    s * k**(j-1) + x is place s (0-based) of block window[x], where window
    lists the blocks in digit-reversed order and, as reversing digits twice
    is the identity, window[b] is block b's window position. Stripe 0 is
    the anchor grid of rounds 1..j-1, stripes 1..k-1 the last round's. A
    batch is the targets carried over, then a range of entries with the
    originator's own offset skipped.

    Each round is Farley's doubling one scale up. Round m holds the entries
    k**(m-1) .. k**m - 1, and entry s * k**(m-1) + x, s >= 1, is place s of
    the group at window position x: the group is the level-(m-1) vertex at
    offset G + 1, G = orders[m-1][x], its places are the first leaves below
    its k children, and place s is offset 1 + (G * k + s) * k**(j-m). So
    round m is stripes 1..k-1 over the groups of scale m as the last round
    is over the k-blocks, and stripe 0 is the rounds before. A relay
    within a group meets its target at the group, lvl = m - 1, along
    2 * (j - lvl) edges: the caller's ancestors up to the group, then the
    target's down.

    No per-group state is kept, because before each step the informed
    places of level j are the order entries before the batch's start,
    less the carried targets, plus the originator's: every entry handed
    to a batch is delivered in its step or carried into the next batch.
    A round-m target is the first leaf of its level-m subtree, and the
    finer rounds' entries come later in the order, so that subtree holds
    no informed vertex but the originator: a finer scale finds no caller
    for the target, which is first tried at its own scale (at every scale
    when the originator is on level j). Every group but the carried
    targets' and the originator's holds a prefix, as the order hands out
    a group's places lowest first: its informed vertices are its first h
    places, the entries before the batch's start. Its target in stripe s, after g
    earlier visits in this batch (one per earlier stripe of the batch that
    covers the group), is place s = h + g, above every informed place, and
    those g targets took places h - 1 .. h - g, so the nearest idle caller
    is place h - 1 - g = s - 1 - 2g, and there is none once g >= h. g
    changes only at the window position where the batch began, so the run
    rule writes a stripe's stretch of prefix groups on either side of it
    with one comprehension per edge, each caller 2g + 1 places below its
    target.

    The sibling pass, round j's runs at lvl = j - 1, opens the step, so
    its callers are idle (a call before one lies in another block or took
    another place of its block) and the only edges in use are those above
    its earlier callers and targets. At a wider scale a run's caller may
    have called at a finer one, so a run's callers are tested against the
    step's sources with one isdisjoint. Where one is busy, that run's
    groups and those of the scale's later runs take the per-target rule,
    which loses nothing: in a prefix group the nearest idle caller is the
    run's, as above, and there is none once g >= h. An idle
    caller's path is clear. A path uses an edge only if one of its ends
    lies below it; below the caller's place (the level-m subtree it is
    the first leaf of) no vertex but the caller is informed and the
    batch's finer targets there come later in the order, and below the
    target's place no call so far has an end. Every path of the passes
    joins two level-j vertices, each the end of at most one call, so no
    test in the passes can find a level-j edge in use, and the passes
    keep only the edges above level j. Only the originator's path, and
    the one its swap would take, can cross one more, the edge of u's
    level-j ancestor when u lies below level j; it is added before them
    if that ancestor called or was called.

    The per-target rule is one rule at every scale, the mop-up through
    the root included: q's caller is the nearest idle informed vertex of
    its level-lvl subtree outside its level-(lvl+1) subtree, the lower on
    a tie, whose path is clear. The informed vertices are read off the
    level-j ids informed before the step (the invariant above), sorted
    the first time a step needs them. The rule serves the carried
    targets, the targets in their groups or the originator's, the runs
    that fell back, and whatever a scale leaves for the next, wider one.
    A sibling match (lvl = j - 1) walks q's k-block outward from q, and
    its path, (caller, q), crosses no edge the passes keep; a cousin match
    (lvl = j - 2) tests its four edges, caller, caller's parent, target's
    parent and target, by arithmetic; a wider one tests while it climbs,
    the way down from the meeting vertex once per target and each caller
    only up to it.

    The swap hands an idle originator the call it shortens most. The
    step's calls came from the passes, shortest first, so only the last
    can be longer than u's distance to level j; u's distance to their
    targets is read off the ids, and a path is climbed only for a call it
    would shorten by more than the best gain so far.
    """
    if not 1 <= j <= tree.r:
        raise OutOfRange(f"level {j} not in [1, {tree.r}]")
    k = tree.k
    size = k**j
    blocks = size // k
    climb = tree.climb
    # level_base[i] + offset is the id of the vertex (i, offset)
    level_base = [(k**i - 1) // (k - 1) for i in range(j + 1)]
    base = level_base[j]
    # orders[i] lists the level-i offsets, less one, digits reversed:
    # round m's groups by window position are orders[m - 1], and the
    # blocks' order is window
    orders = _digit_reversals(k, j - 1)
    window = orders[-1]
    # the group at level lvl, offset G + 1, has its place p's level-l
    # ancestor at offset G * k**(l - lvl) + p * k**(l - lvl - 1) + 1:
    # rungs[lvl] holds those two factors and level l's first id, for l
    # from j up to lvl + 1
    rungs = [[(k ** (level - lvl), level_base[level] + 1, k ** (level - lvl - 1))
              for level in range(j, lvl, -1)] for lvl in range(j)]

    pool: list[int] = []  # the informed level-j ids, sorted when a wide match reads them
    gap = -1  # the order entry of the originator's offset, which no batch holds
    u_off: list[int] = []  # the originator's offset, if on level j
    if u.level == j:
        b, p = divmod(u.offset - 1, k)
        pool.append(u.id)
        gap = p * blocks + window[b]
        u_off.append(u.offset)
    taken = 1 if gap == 0 else 0  # entries before taken have been handed to a batch
    carried: list[int] = []  # the last batch's undelivered targets

    steps: list[Step] = []

    while carried or taken < size:
        # carried is shorter than capacity: it is what the last batch, no
        # larger than the last capacity, did not deliver
        capacity = len(pool) + (1 if u.level != j else 0)
        start = taken
        stop = start + capacity - len(carried)
        if start < gap < stop:
            stop += 1
        stop = min(stop, size)
        taken = stop + 1 if stop == gap else stop
        pool_sorted = False

        step = Step(tree)
        src_ids, dst_ids, ends, edges = step.src, step.dst, step.ends, step.edges
        used_sources: set[int] = set()
        used_edges: set[int] = set()

        def match_in_range(q_off: int, lvl: int) -> tuple[int, ...] | None:
            """The path to q from the idle informed caller among the
            level-lvl subtree's vertices outside q's level-(lvl+1) subtree,
            nearest first, the lower on a tie, whose path is clear; it
            starts with the caller's id."""
            nonlocal pool_sorted
            qid = base + q_off
            if not pool_sorted:
                pool.sort()
                pool_sorted = True
            span = k ** (j - lvl)
            lo_id = base + q_off - (q_off - 1) % span
            inner = span // k
            inner_lo = base + q_off - (q_off - 1) % inner
            inner_hi = inner_lo + inner - 1
            # q's level-(lvl+1) subtree was tried at a tighter radius
            callers = _nearest_first(pool, qid, bisect_left(pool, lo_id),
                                     bisect_left(pool, lo_id + span), (inner_lo, inner_hi))
            if lvl == j - 2:
                # a cousin: the path is (caller, its parent, q's parent, q)
                q_up = (qid - 2) // k + 1
                if qid in used_edges or q_up in used_edges:
                    return None
                for sid in callers:
                    if sid in used_sources or sid in used_edges:
                        continue
                    s_up = (sid - 2) // k + 1
                    if s_up not in used_edges:
                        return sid, s_up, q_up, qid
                return None
            # every caller left meets q at their level-lvl ancestor, so all
            # their calls share its way down to q: climb that once, and
            # each caller only up to it
            top = level_base[lvl] + (q_off - 1) // span + 1
            down = climb(top, qid, used_edges)
            if down is None:
                return None
            for sid in callers:
                if sid in used_sources:
                    continue
                up = climb(sid, top, used_edges)
                if up is not None:
                    return (*up, *down)
            return None

        def match(q_off: int, lvl: int) -> bool:
            """The per-target rule at scale lvl: record the call along
            match_in_range's path, if there is one, up from the caller's
            edge and down to q's. That is Step.add, written out, as this
            runs once per call; those two edges need not be kept in use
            (see the docstring)."""
            path = match_in_range(q_off, lvl)
            if path is None:
                return False
            src_ids.append(path[0])
            dst_ids.append(path[-1])
            edges.extend(path)
            ends.append(len(edges))
            used_sources.add(path[0])
            used_edges.update(path[1:-1])
            return True

        # the batch in order: targets of the per-target rule, (lvl, q_off),
        # tried from scale lvl on, and the run rule's stretches, (lvl, s,
        # g, x0, x1): round m's stripe s over the groups at window
        # positions x0..x1-1, each visited g times before in the batch,
        # written at lvl = m - 1. The first k entries, the root's group,
        # take the per-target rule
        todo = [(j - 1, q_off) for q_off in carried]
        if start < k:
            todo += [(j - 1 if u_off else 0, q_off) for q_off in
                     (1 + e * k ** (j - 1) for e in range(start, min(stop, k)) if e != gap)]
        width = 1
        for m in range(2, j + 1):
            width *= k  # round m's entries are s * width + x, width..k * width - 1
            lo_e, hi_e = max(start, width), min(stop, k * width)
            if lo_e >= hi_e:
                continue
            groups = orders[m - 1]
            unit = k ** (j - m)  # the offsets between two places of a group
            # the groups that may hold no prefix: the carried targets' and
            # the originator's
            odd = {groups[(q_off - 1) // (unit * k)] for q_off in chain(carried, u_off)}
            # stripe s covers window positions lo..hi-1. A group at x was
            # visited once by each earlier stripe of this batch, except by
            # the first if that began after x
            first_stripe, x_first = divmod(start, width)
            for s in range(lo_e // width, (hi_e - 1) // width + 1):
                lo = max(lo_e - s * width, 0)
                hi = min(hi_e - s * width, width)
                i = s - first_stripe
                cuts = {x for x in odd if lo <= x < hi}
                if i and lo < x_first < hi:
                    cuts.add(x_first)
                at = lo
                for x in sorted(cuts) + [hi]:
                    if at < x:
                        # prefix groups visited g times before: s - g deep
                        todo.append((m - 1, s, i - (at < x_first), at, x))
                    at = x
                    if x in odd and x < hi:
                        if s * width + x != gap:
                            q_off = 1 + (groups[x] * k + s) * unit
                            todo.append((j - 1 if u_off else m - 1, q_off))
                        at = x + 1

        # by relay scale, tightest first: sibling pairs, then pairs meeting
        # two levels up, and so on. A caller only leaves its subtree after
        # every target inside it is spoken for, so no call burns an edge a
        # deeper obligation still needs. A run is written as it is met, so
        # the ids of one stretch at a time are alive
        for lvl in range(j - 1, 0, -1):
            if not todo:
                break
            unit = k ** (j - 1 - lvl)
            left = []
            # whether a run at this scale met a busy caller: from that run
            # on, every group takes the per-target rule
            spoiled = False
            for item in todo:
                if item[0] < lvl:
                    left.append(item)  # for a coarser scale
                    continue
                if len(item) == 2:
                    if not match(item[1], lvl):
                        left.append(item)
                    continue
                _, s, g, x0, x1 = item
                groups = orders[lvl][x0:x1]
                if not spoiled:
                    if s <= 2 * g:  # every place of their groups calls already
                        left += [(lvl - 1, 1 + (G * k + s) * unit) for G in groups]
                        continue
                    # each caller 2g + 1 places below its target: its
                    # ancestors up to the group, then the target's down
                    c = s - 1 - 2 * g
                    ways = [(mul, first + c * per) for mul, first, per in rungs[lvl]]
                    ways += [(mul, first + s * per) for mul, first, per in reversed(rungs[lvl])]
                    run = [[G * mul + add for G in groups] for mul, add in ways]
                    if lvl == j - 1 or used_sources.isdisjoint(run[0]):
                        used_sources.update(run[0])
                        used_edges.update(*run[1:-1])
                        step.add_relays(run)
                        continue
                    spoiled = True
                for G in groups:
                    q_off = 1 + (G * k + s) * unit
                    if not match(q_off, lvl):
                        left.append((lvl - 1, q_off))
            todo = left
        unserved = [q_off for _, q_off in todo]

        # the passes kept only the edges above level j; below it u's path
        # also crosses its level-j ancestor's, in use if that one called or
        # was called
        if u.level > j:
            above_u = base + 1 + (u.offset - 1) // k ** (u.level - j)
            if above_u in used_sources or above_u in dst_ids:
                used_edges.add(above_u)

        # the originator picks up the first target local relays missed (its
        # one-way path has the smallest edge footprint), and only then do
        # through-the-root relays mop up
        if unserved and u.id not in used_sources:
            path = climb(u.id, base + unserved[0], used_edges)
            if path is not None:
                step.add(u.id, base + unserved[0], path)
                used_sources.add(u.id)
                used_edges.update(path)
                unserved = unserved[1:]
        unserved = [q_off for q_off in unserved if not match(q_off, 0)]

        # swap: if the originator idled, let it absorb the priciest call
        # it can run cheaper, edge-checked against the rest of the step.
        # Its distance to a destination comes from the two ids, so a
        # path is climbed only for a call it would shorten by more than
        # the best gain so far
        if u.id not in used_sources and len(step):
            least = abs(u.level - j)
            # u's offset and the destination's, less one, divided down to
            # the shallower of their levels, climb together until they agree
            u_low = (u.offset - 1) // k ** max(u.level - j, 0)
            below = k ** max(j - u.level, 0)
            best_gain, best = 0, None
            # with u idle every call came from a pass, the shorter passes
            # first and the mop-up last, so the calls longer than least end
            # the step
            first = bisect_right(range(len(ends)), least,
                                 key=lambda i: ends[i] - (ends[i - 1] if i else 0))
            prev = ends[first - 1] if first else 0
            for i in range(first, len(ends)):
                end = ends[i]
                if end - prev - least > best_gain:
                    did = dst_ids[i]
                    a, b, apart = u_low, (did - base - 1) // below, least
                    while a != b:
                        a, b, apart = a // k, b // k, apart + 2
                    gain = end - prev - apart
                    if gain > best_gain:
                        path = edges[prev:end]
                        upath = climb(u.id, did)
                        if all(e not in used_edges or e in path for e in upath):
                            best_gain, best = gain, (i, did, path, upath)
                prev = end
            if best is not None:
                i, did, path, upath = best
                step.replace_call(i, u.id, did, upath)

        if not len(step):
            raise RuntimeError("to_level made no progress")  # pragma: no cover

        pool.extend(step.dst)
        carried = unserved
        steps.append(step)

    return Fragment(steps)


# ---------------------------------------------------------------------------
# from_level
# ---------------------------------------------------------------------------

def _upcall_table(k: int, j: int) -> list[tuple[range, range, list[tuple[int, ...]]]]:
    """from_level's designated calls a distance at a time: for i = 1..j,
    the sources' leaf offsets, the target ids and the upward paths of the
    calls to the targets at offsets t = 1..k**(j-i) of level j - i, t
    ascending.

    With f = (k**(i-1) - 1)/(k - 1), the source grid for distance i starts
    at offset f + 1 and advances by k**i, which keeps all source offsets
    distinct and the upward paths pairwise edge-disjoint; the distance-j
    call is the single call to the root. The level-(j-i) ids follow the
    (k**(j-i) - 1)/(k - 1) ids above them. A path is the source's
    ancestors' ids from level j up to level j - i + 1: the source of
    target t has its level-(j - m) ancestor at offset
    f // k**m + 1 + (t - 1) * k**(i - m), so at each level the ancestors
    are one strided range, and so are the sources and the targets."""
    level_base = [(k**m - 1) // (k - 1) for m in range(j + 1)]
    table = []
    for i in range(1, j + 1):
        f = (k ** (i - 1) - 1) // (k - 1)
        count = k ** (j - i)
        levels = []
        for m in range(i):
            first = level_base[j - m] + f // k**m + 1
            stride = k ** (i - m)
            levels.append(range(first, first + count * stride, stride))
        table.append((range(f + 1, f + 1 + count * k**i, k**i),
                      range(level_base[j - i] + 1, level_base[j - i] + count + 1),
                      list(zip(*levels))))
    return table


def from_level(tree: CompleteKTree, j: int, u: VertexRef) -> Fragment:
    """One step of fan-up calls from level j, j in [1, r], informing all of
    levels 0..j-1. Its sources need all of level j informed before it,
    which validate checks, given level j as assume_informed; the call
    aimed at u's own vertex is omitted."""
    if not 1 <= j <= tree.r:
        raise OutOfRange(f"level {j} not in [1, {tree.r}]")
    base = tree.vertex_id(j, 1) - 1
    step = Step(tree)
    for i, (leaves, tids, paths) in enumerate(_upcall_table(tree.k, j), 1):
        calls = list(zip(leaves, tids, paths))
        if u.level == j - i:
            del calls[u.offset - 1]  # no call to the originator
        step.add_calls([base + leaf for leaf, _, _ in calls],
                       [tid for _, tid, _ in calls], [path for _, _, path in calls])
    return Fragment([step])


def _cbj_assign(
    var_options: list[Iterable[tuple[int, tuple[int, ...]]]],
    fixed_edges: set[int],
    budget: int = 500_000,
) -> list[tuple[int, tuple[int, ...]] | None]:
    """Pick one (source id, path) per variable, sources unique and paths
    pairwise edge-disjoint (and disjoint from fixed_edges), by backjumping.

    Each variable's options are read from its iterable only as far as the
    search gets. They are tried in order, one budget unit each, as
    bitmasks encoded on first try: a source or edge gets the next bit when
    first touched, and the edges of fixed_edges share bit 0, which is
    always occupied.
    Backjumps are conflict-directed (Prosser's CBJ): a dead end's blockers
    are the committed variables whose pick meets the union of its options,
    plus its inherited conflict set (a bitmask over variable indices); the
    search returns to the latest blocker and hands it the rest. A variable
    with no blocker, only fixed_edges in its way, is left unassigned. When
    the budget runs out the answer is, without any flag, the first-fit
    assignment: each variable takes its first option that fits.
    """
    n = len(var_options)
    bit: dict[int, int] = {}  # keyed by edge id, or by -id for a source
    owner: dict[int, int] = {}  # bit -> the variable that last committed it

    def encode(sid: int, path: tuple[int, ...]) -> int:
        mask = 0
        for key in (-sid, *path):
            b = bit.get(key)
            if b is None:
                b = bit[key] = 0 if key in fixed_edges else len(bit) + 1
            mask |= 1 << b
        return mask

    streams = [iter(options) for options in var_options]
    listed: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(n)]
    encoded: list[list[int]] = [[] for _ in range(n)]
    union = [0] * n  # of the options encoded so far

    def pull(i: int) -> bool:
        """List and encode variable i's next option; False when it has none."""
        option = next(streams[i], None)
        if option is None:
            return False
        listed[i].append(option)
        encoded[i].append(mask := encode(*option))
        union[i] |= mask
        return True

    picked: list[tuple[int, tuple[int, ...]] | None] = [None] * n
    held = [0] * n  # the mask of picked
    cursor = [0] * n
    conflict = [0] * n
    occupied = 1

    idx = 0
    while idx < n and budget > 0:
        masks = encoded[idx]
        c = cursor[idx]
        while c < len(masks) or pull(idx):
            budget -= 1
            if not masks[c] & occupied:
                break
            c += 1
        else:
            # a dead end; bit 0, the fixed edges, has no owner
            blockers = conflict[idx]
            hits = union[idx] & (occupied ^ 1)
            while hits:
                v = owner[hits.bit_length() - 1]
                blockers |= 1 << v
                hits &= ~held[v]
            cursor[idx], conflict[idx] = 0, 0
            if not blockers:
                idx += 1  # nothing movable is in the way: leave it unassigned
                continue
            back = blockers.bit_length() - 1
            conflict[back] |= blockers ^ (1 << back)
            for v in range(back, idx):
                occupied ^= held[v]
                held[v], picked[v] = 0, None
            for v in range(back + 1, idx):
                cursor[v], conflict[v] = 0, 0
            idx = back
            continue
        cursor[idx] = c + 1
        sid, path = picked[idx] = listed[idx][c]
        held[idx] = masks[c]
        occupied |= masks[c]
        for key in (-sid, *path):
            owner[bit[key]] = idx
        idx += 1

    if budget <= 0:
        # settle for the first-fit assignment
        picked = [None] * n
        occupied = 1
        for i, masks in enumerate(encoded):
            c = 0
            while c < len(masks) or pull(i):
                if not masks[c] & occupied:
                    picked[i] = listed[i][c]
                    occupied |= masks[c]
                    break
                c += 1
    return picked


def merge_upcalls(
    tree: CompleteKTree,
    j: int,
    u: VertexRef,
    steps: list[Step],
) -> tuple[list[Step], Step]:
    """Fold the fan-up step into the final step of a to_level run.

    Every fan-up source must have been informed before the final step and be
    port- and edge-free within it. from_level's own step is tried first:
    when each designated source qualifies, no designated path meets the
    final step's edges and the previous step informs nothing above level j,
    its calls are appended, scarcest target first, then by distance and
    offset, which is the order and the choice the search would make.
    Otherwise the search runs. Sources come from the target's own
    subtree when possible (matching the designated pattern's path length),
    with the originator and detour sources as fallbacks; the joint
    assignment is found by conflict-directed backjumping. When the first
    solve leaves calls unplaced, fan-up calls are pulled into the previous
    step in exchange for level deliveries moved the other way; a pulled
    target is informed in time to source a final-step call itself or to a
    neighbouring target. The open fan-up calls are tried highest target
    first, one pull each, each on a new fold state built from the kept one,
    so a rejected trial leaves nothing to undo. The first pull whose fold
    leaves fewer calls unplaced, or as many at a lower cost, is kept, and
    the loop starts over from it until no pull helps. When no pull reaches
    a full fold, the first solve stands.
    Anything still unplaced is returned as the step for a dedicated extra
    step (empty when everything folds). The steps given are not changed:
    the final step, and a previous step that a pull changes, come back as
    new steps.
    """
    hard = u.level == 0  # the step budget is only asserted from the root
    k = tree.k
    climb = tree.climb
    last = steps[-1]
    informed_before = {u.id}
    for step in steps[:-1]:
        informed_before.update(step.dst)
    batch_busy = set(last.src)
    level_base = tree.vertex_id(j, 1) - 1
    top = level_base + k**j  # the level-j ids are level_base + 1 .. top
    prev = steps[-2] if len(steps) >= 2 and hard else None

    # idle[x]: the level-j offset x + 1 was informed before the final step
    # and does not send in it
    idle = bytearray(map(informed_before.__contains__, range(level_base + 1, top + 1)))
    for sid in batch_busy:
        if level_base < sid <= top:
            idle[sid - level_base - 1] = 0

    # each fan-up call as a row (idle offsets under its target, i, t, leaf
    # offset, target id, designated path), scarcest first, then by i and
    # t (the table's order, which the stable sort keeps), so flexible
    # calls route around committed ones. The k targets of distance i - 1
    # under a target of distance i hold all its idle offsets.
    rows = []
    idle_under = idle
    for i, (leaves, tids, paths) in enumerate(_upcall_table(k, j), 1):
        idle_under = list(map(sum, zip(*[idle_under[p::k] for p in range(k)])))
        block = list(zip(idle_under, repeat(i), range(1, len(tids) + 1), leaves, tids, paths))
        if u.level == j - i:
            del block[u.offset - 1]  # no call to the originator
        rows += block
    rows.sort(key=itemgetter(0))

    # from_level's own step fits when every designated source was informed
    # before the final step and is idle in it, no designated path meets
    # its edges, and the previous step informs nothing above level j that
    # the search would offer first: then the search picks exactly these
    # calls, and they go in as they are
    sources = [level_base + row[3] for row in rows]
    paths = [row[5] for row in rows]
    if (informed_before.issuperset(sources) and batch_busy.isdisjoint(sources)
            and set(last.edges).isdisjoint(chain.from_iterable(paths))
            and (prev is None or not len(prev)
                 or level_base < min(prev.dst) and max(prev.dst) <= top)):
        final = last.copy()
        final.add_calls(sources, [row[4] for row in rows], paths)
        return steps[:-1] + [final], Step(tree)

    def subtree_span(i: int, t: int) -> tuple[int, int]:
        """The level-j offsets under the target t of distance i."""
        lo = (t - 1) * k**i + 1
        return lo, lo + k**i - 1

    # the informed level-j offsets, sorted, and the open fan-up calls
    informed_offsets = sorted(vid - level_base for vid in informed_before
                              if level_base < vid <= top)
    assignments = [row[1:5] for row in rows]

    def upcall_options(entry: tuple[int, int, int, int], skip_busy: set[int],
                       pool: list[int], raised: list[int]):
        """entry's (source id, path) options toward its target, best first,
        each path built when the search asks for the option. pool is the
        informed level-j offsets, sorted; skip_busy holds the ids that
        already send; raised holds the ids above level j that the previous
        step informs."""
        i, t, leaf, tid = entry
        lo, hi = subtree_span(i, t)
        # targets a pulled fan-up call informed a step early, nearest first
        for vid in sorted(raised, key=lambda vid: (len(climb(vid, tid)), vid)):
            if vid not in skip_busy:
                yield vid, tuple(climb(vid, tid))
        for off in _nearest_first(pool, leaf, bisect_left(pool, lo),
                                  bisect_left(pool, hi + 1)):
            sid = level_base + off
            if sid not in skip_busy:
                yield sid, tuple(climb(sid, tid))
        if u.id not in skip_busy:
            yield u.id, tuple(climb(u.id, tid))
        # detour sources outside the target's own subtree: pricier paths,
        # but they can dodge a saturated subtree
        extras = 0
        for off in islice(_nearest_first(pool, lo), 96):
            if lo <= off <= hi:
                continue
            sid = level_base + off
            if sid in skip_busy:
                continue
            yield sid, tuple(climb(sid, tid))
            extras += 1
            if extras >= 32:
                break

    # A fold state is a value: (the previous step or None, the final step's
    # deliveries, the ids informed before the final step, the informed
    # level-j offsets among them, sorted, and the open fan-up calls).
    # Nothing below changes a state once it is built, and the first one
    # holds the steps given.
    def solve_fixed_batch(prev, batch, informed, pool, assigns):
        """Upcalls only: one pick per entry of assigns (None where
        unplaced), against the fold state as given."""
        pre_busy = set(batch.src)
        pre_edges = set(batch.edges)
        pre: dict[int, tuple[int, tuple[int, ...]]] = {}
        rest_pos = []
        for pos, (i, t, _, _) in enumerate(assigns):
            if i == 1:
                lo, hi = subtree_span(i, t)
                hit = None
                for off in range(lo, hi + 1):
                    sid = level_base + off
                    if (sid in informed and sid not in pre_busy
                            and sid not in pre_edges):
                        hit = sid
                        break
                if hit is not None:
                    pre[pos] = (hit, (hit,))
                    pre_busy.add(hit)
                    pre_edges.add(hit)
                    continue
            rest_pos.append(pos)
        raised = [] if prev is None else [
            vid for vid in prev.dst if not level_base < vid <= top]
        # generators, read no further than _cbj_assign asks, in this call
        opts = [upcall_options(assigns[p], pre_busy, pool, raised)
                for p in rest_pos]
        rest_picks = _cbj_assign(opts, pre_edges)
        picks = [None] * len(assigns)
        for pos, p in pre.items():
            picks[pos] = p
        for pos, p in zip(rest_pos, rest_picks):
            picks[pos] = p
        return picks

    state = (prev, last, informed_before, informed_offsets, assignments)
    picks = solve_fixed_batch(*state)

    if any(p is None for p in picks) and prev is not None:
        # The first solve leaves calls unplaced. Move fan-up calls into the
        # previous step: a previous-step delivery whose caller sits under
        # (or routes through) the fan-up target hands its slot over, and the
        # displaced delivery runs in the final step off a window sibling. A
        # pulled target can itself source a final-step fan-up call over its
        # own edges, which relieves the scarce entry edges above the level-j
        # windows.

        def pull(state, entry):
            """The fold state that pulls entry's call into the previous
            step, off the first caller whose old call's released edges
            cover the new path (its own call usually does most of the
            covering) and whose level-j delivery an idle window sibling can
            run in the final step; None when no caller can. A caller whose
            delivery sources a final-step call keeps it."""
            prev, batch, informed, pool, assigns = state
            tid = entry[3]
            prev_edges = set(prev.edges)
            busy = set(batch.src)
            batch_edges = set(batch.edges)
            for ci, (sid, did, path) in enumerate(prev.id_calls()):
                if not level_base < did <= top or did in busy or did in batch_edges:
                    continue
                up_path = climb(sid, tid)
                if any(e in prev_edges and e not in path for e in up_path):
                    continue
                w_lo = level_base + (did - level_base - 1) // k * k + 1
                for mover in range(w_lo, w_lo + k):
                    if (mover != did and mover in informed
                            and mover not in busy and mover not in batch_edges):
                        pulled = prev.copy()
                        pulled.replace_call(ci, sid, tid, up_path)
                        moved = batch.copy()
                        moved.add(mover, did, (mover, did))
                        # did is informed a step later now, tid a step earlier
                        at = bisect_left(pool, did - level_base)
                        return (pulled, moved, (informed - {did}) | {tid},
                                pool[:at] + pool[at + 1:],
                                [e for e in assigns if e is not entry])
            return None

        def rank(state, picks) -> tuple[int, int]:
            """(calls unplaced, fold cost): lower is better."""
            prev, batch = state[:2]
            return (sum(p is None for p in picks),
                    prev.cost() + batch.cost()
                    + sum(len(p[1]) for p in picks if p is not None))

        # Try the open assignments highest target first (the sort is
        # stable, so a tie keeps the scarcest first), keep the first pull
        # whose re-solved fold ranks better, and start over from it. Each
        # kept pull takes an assignment off the open list, so this ends.
        kept = state, picks, rank(state, picks)
        while True:
            for entry in sorted(kept[0][-1], key=lambda e: -e[0]):
                trial = pull(kept[0], entry)
                if trial is None:
                    continue
                trial_picks = solve_fixed_batch(*trial)
                trial_rank = rank(trial, trial_picks)
                if trial_rank < kept[2]:
                    kept = trial, trial_picks, trial_rank
                    break
            else:
                break
        if kept[2][0] == 0:
            state, picks, _ = kept
        # otherwise no full fold: the first solve's picks stand

    prev, batch, _, _, assigns = state
    final = batch.copy()
    deferred = Step(tree)
    for (_, _, leaf, tid), p in zip(assigns, picks):
        if p is not None:
            sid, path = p
            final.add(sid, tid, path)
        else:
            sid = level_base + leaf
            deferred.add(sid, tid, climb(sid, tid))

    out_steps = steps[:-1] + [final]
    if prev is not None:
        out_steps[-2] = prev
    return out_steps, deferred
