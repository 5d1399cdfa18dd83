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
step budget requires it, substituting same-subtree sources (or the
originator, or a detour) when the designated source is busy or too fresh,
and trading calls with the previous step when the final step alone cannot
hold everything: a fan-up call moves up a step, and the level delivery it
displaces moves down to a window sibling. Whatever still cannot be placed
is returned for a dedicated follow-up step.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice

from .errors import OutOfRange, PreconditionViolated
from .ktree import CompleteKTree, VertexRef
from .schedule import Call


@dataclass
class Fragment:
    """A run of consecutive steps meant to be spliced into a schedule."""

    steps: list[list[Call]]

    def duration(self) -> int:
        return len(self.steps)

    def cost(self) -> int:
        return sum(c.cost for step in self.steps for c in step)


def _nearest_first(pool: list[int], q: int, lo: int = 0, hi: int | None = None):
    """The values of the sorted pool[lo:hi], nearest to q first, a tie
    going to the lower value."""
    if hi is None:
        hi = len(pool)
    below = bisect_left(pool, q, lo, hi) - 1
    above = below + 1
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

def wave_offsets(k: int, j: int, m: int) -> set[int]:
    """Offsets of level j informed once round m completes: stride k**(j-m)."""
    if k < 2 or j < 1 or not 1 <= m <= j:
        raise OutOfRange(f"need k >= 2, 1 <= m <= j, got k={k}, j={j}, m={m}")
    stride = k ** (j - m)
    return {1 + i * stride for i in range(k**m)}


def round_targets(k: int, j: int, m: int) -> set[int]:
    """Offsets newly informed in round m (round-1 targets are the whole grid)."""
    if m == 1:
        return wave_offsets(k, j, 1)
    return wave_offsets(k, j, m) - wave_offsets(k, j, m - 1)


def _digit_reversed(k: int, count: int) -> list[int]:
    """0..count-1 (count a power of k) ordered by reversed base-k digits."""
    p = 0
    c = count
    while c > 1:
        c //= k
        p += 1
    out = []
    for w in range(count):
        x, rev = w, 0
        for _ in range(p):
            rev = rev * k + x % k
            x //= k
        out.append(rev)
    return out


def _round_target_list(k: int, j: int, m: int) -> list[int]:
    """Round-m targets in stripe order, windows interleaved across subtrees.

    Serving surplus capacity stripe by stripe keeps every window's informed
    count even, and walking each stripe in digit-reversed window order
    spreads the fill across the top-level subtrees, so any leftover
    imbalance sits between near neighbours instead of across the root.
    """
    stride = k ** (j - m)
    if m == 1:
        return [1 + i * stride for i in range(k)]
    window_order = _digit_reversed(k, k ** (m - 1))
    return [
        1 + (w * k + s) * stride
        for s in range(1, k)
        for w in window_order
    ]


def to_level(tree: CompleteKTree, j: int, u: VertexRef) -> Fragment:
    """Broadcast from u to exactly the vertices of level j.

    The delivery order is fixed up front: rounds ascending, stripes within
    a round ascending, windows within a stripe in digit-reversed order, so
    every window's fill stays within one stripe of every other's. Step t
    delivers the next batch of that order, sized so the informed population
    doubles exactly (capped by what is left). Within a step, targets are
    matched to callers by relay scale, tightest first: sibling pairs, then
    pairs meeting one level higher, and so on; the originator picks up the
    first target local relays missed, and through-the-root relays mop up.
    Every placement re-checks edge-disjointness against the step so far.
    """
    if not 1 <= j <= tree.r:
        raise OutOfRange(f"level {j} not in [1, {tree.r}]")
    k = tree.k
    size = k**j
    vertex = tree.vertex
    base = [tree.vertex_id(lvl, 1) - 1 for lvl in range(j + 1)]
    u_is_root = u.level == 0

    def level_path(a_off: int, b_off: int) -> list[int]:
        """Edge ids between two level-j vertices, in travel order."""
        up: list[int] = []
        down: list[int] = []
        lvl = j
        ao, bo = a_off, b_off
        while ao != bo:
            up.append(base[lvl] + ao)
            down.append(base[lvl] + bo)
            ao = (ao + k - 1) // k
            bo = (bo + k - 1) // k
            lvl -= 1
        down.reverse()
        return up + down

    def path_from_u(q_off: int) -> list[int]:
        if u_is_root:
            chain: list[int] = []
            o = q_off
            for lvl in range(j, 0, -1):
                chain.append(base[lvl] + o)
                o = (o + k - 1) // k
            chain.reverse()
            return chain
        if u.level == j:
            return level_path(u.offset, q_off)
        return tree.path(u, vertex(j, q_off))

    u_off = u.offset if u.level == j else None
    informed = bytearray(size + 1)
    pool: list[int] = []  # sorted informed offsets
    if u_off is not None:
        informed[u_off] = 1
        pool.append(u_off)

    order: list[int] = []
    for m in range(1, j + 1):
        order.extend(_round_target_list(k, j, m))
    pending = [off for off in order if not informed[off]]

    steps: list[list[Call]] = []

    while pending:
        capacity = len(pool) + (1 if u.level != j else 0)
        batch = pending[: min(capacity, len(pending))]

        calls: list[Call] = []
        used_sources: set[int] = set()
        used_edges: set[int] = set()

        def place(path, src_vertex, q_off: int) -> bool:
            for e in path:
                if e in used_edges:
                    return False
            calls.append(Call(src_vertex, vertex(j, q_off), tuple(path)))
            used_sources.add(src_vertex.id)
            used_edges.update(path)
            return True

        def match_in_range(q_off: int, lvl: int) -> bool:
            """Idle informed caller for q among the level-lvl subtree's
            vertices not already reachable one level deeper, nearest first."""
            span = k ** (j - lvl)
            lo_off = ((q_off - 1) // span) * span + 1
            hi_off = lo_off + span - 1
            inner = span // k
            inner_lo = ((q_off - 1) // inner) * inner + 1 if inner else q_off
            inner_hi = inner_lo + inner - 1 if inner else q_off
            for c_off in _nearest_first(pool, q_off, bisect_left(pool, lo_off),
                                        bisect_left(pool, hi_off + 1)):
                if inner_lo <= c_off <= inner_hi:
                    continue  # tried at a tighter radius already
                if base[j] + c_off in used_sources:
                    continue
                if place(level_path(c_off, q_off), vertex(j, c_off), q_off):
                    return True
            return False

        # match by relay scale, tightest first: all sibling pairs, then all
        # pairs meeting one level higher, and so on. A caller only leaves
        # its subtree after every target inside it is spoken for, so no call
        # burns an edge a deeper obligation still needs.
        unserved = list(batch)
        for lvl in range(j - 1, 0, -1):
            if not unserved:
                break
            still = []
            for q_off in unserved:
                if not match_in_range(q_off, lvl):
                    still.append(q_off)
            unserved = still

        # the originator picks up the first target local relays missed (its
        # one-way path has the smallest edge footprint), and only then do
        # through-the-root relays mop up
        if unserved and u.id not in used_sources:
            if place(path_from_u(unserved[0]), u, unserved[0]):
                unserved = unserved[1:]
        for q_off in unserved:
            match_in_range(q_off, 0)

        # swap: if the originator idled, let it absorb the priciest call
        # it can run cheaper, edge-checked against the rest of the step
        if u.id not in used_sources and calls:
            best_gain, best = 0, None
            for i, c in enumerate(calls):
                upath = path_from_u(c.dst.offset)
                gain = c.cost - len(upath)
                if gain > best_gain and all(
                        e not in used_edges or e in c.path for e in upath):
                    best_gain, best = gain, (i, upath)
            if best is not None:
                i, upath = best
                old = calls[i]
                calls[i] = Call(u, old.dst, tuple(upath))
                used_edges.difference_update(old.path)
                used_edges.update(upath)
                used_sources.add(u.id)

        if not calls:
            raise RuntimeError("to_level made no progress")  # pragma: no cover

        for c in calls:
            off = c.dst.offset
            informed[off] = 1
            pool.append(off)
        pool.sort()
        pending = [off for off in pending if not informed[off]]
        steps.append(calls)

    return Fragment(steps)


# ---------------------------------------------------------------------------
# from_level
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UpcallAssignment:
    """One fan-up call: a level-j source and its ancestor target."""

    i: int            # levels climbed
    t: int            # target offset within level j - i
    leaf_offset: int  # designated source offset within level j
    target_level: int
    target_offset: int


def upcall_assignments(k: int, j: int) -> list[UpcallAssignment]:
    """The designated fan-up sources for every target above level j.

    The source grid for distance i starts at offset 1 + (k**(i-1) - 1)/(k-1)
    and advances by k**i, which keeps all source offsets distinct and the
    upward paths pairwise edge-disjoint. The distance-j entry is the single
    call to the root.
    """
    if k < 2 or j < 1:
        raise OutOfRange(f"need k >= 2 and j >= 1, got k={k}, j={j}")
    out = []
    for i in range(1, j + 1):
        first = 1 + (k ** (i - 1) - 1) // (k - 1)
        stride = k**i
        for t in range(1, k ** (j - i) + 1):
            out.append(UpcallAssignment(i, t, first + (t - 1) * stride, j - i, t))
    return out


def from_level(
    tree: CompleteKTree,
    j: int,
    u: VertexRef,
    informed: set[int] | None = None,
) -> Fragment:
    """One step of fan-up calls informing all of levels 0..j-1.

    When an informed set is supplied, all of level j must already be in it.
    The call aimed at u's own vertex is omitted.
    """
    if not 1 <= j <= tree.r:
        raise OutOfRange(f"level {j} not in [1, {tree.r}]")
    if informed is not None:
        missing = [v.id for v in tree.level_vertices(j) if v.id not in informed]
        if missing:
            raise PreconditionViolated(
                f"{len(missing)} level-{j} vertices uninformed (first: {missing[:5]})"
            )
    calls = []
    for a in upcall_assignments(tree.k, j):
        target = tree.vertex(a.target_level, a.target_offset)
        if target.id == u.id:
            continue
        src = tree.vertex(j, a.leaf_offset)
        calls.append(Call(src, target, tuple(tree.path(src, target))))
    return Fragment([calls])


def _cbj_assign(
    var_options: list[list[tuple[int, tuple[int, ...]]]],
    fixed_edges: set[int],
    budget: int = 500_000,
) -> list[tuple[int, tuple[int, ...]] | None]:
    """Pick one (source id, path) per variable, sources unique and paths
    pairwise edge-disjoint (and disjoint from fixed_edges), by backjumping.

    Options are tried in order, one budget unit each, as bitmasks encoded
    on first try: a source or edge gets the next bit when first touched,
    and the edges of fixed_edges share bit 0, which is always occupied.
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

    encoded: list[list[int]] = [[] for _ in range(n)]
    union = [0] * n  # of the options encoded so far
    picked: list[tuple[int, tuple[int, ...]] | None] = [None] * n
    held = [0] * n  # the mask of picked
    cursor = [0] * n
    given_up = [False] * n
    conflict = [0] * n
    occupied = 1

    idx = 0
    while idx < n and budget > 0:
        if picked[idx] is not None or given_up[idx]:
            idx += 1
            continue
        options, masks = var_options[idx], encoded[idx]
        for c in range(cursor[idx], len(options)):
            if c == len(masks):
                masks.append(encode(*options[c]))
                union[idx] |= masks[c]
            budget -= 1
            if not masks[c] & occupied:
                break
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
                given_up[idx] = True  # nothing movable is in the way
                idx += 1
                continue
            back = blockers.bit_length() - 1
            conflict[back] |= blockers ^ (1 << back)
            for v in range(back, idx):
                occupied ^= held[v]
                held[v], picked[v] = 0, None
            for v in range(back + 1, idx):
                cursor[v], given_up[v], conflict[v] = 0, False, 0
            idx = back
            continue
        cursor[idx] = c + 1
        sid, path = picked[idx] = options[c]
        held[idx] = masks[c]
        occupied |= masks[c]
        for key in (-sid, *path):
            owner[bit[key]] = idx
        idx += 1

    if budget <= 0:
        # settle for the first-fit assignment
        picked = [None] * n
        occupied = 1
        for i, options in enumerate(var_options):
            masks = encoded[i]
            for c, option in enumerate(options):
                mask = masks[c] if c < len(masks) else encode(*option)
                if not mask & occupied:
                    picked[i] = option
                    occupied |= mask
                    break
    return picked


def merge_upcalls(
    tree: CompleteKTree,
    j: int,
    u: VertexRef,
    steps: list[list[Call]],
) -> tuple[list[list[Call]], list[Call]]:
    """Fold the fan-up step into the final step of a to_level run.

    Every fan-up source must have been informed before the final step and be
    port- and edge-free within it. Sources come from the target's own
    subtree when possible (matching the designated pattern's path length),
    with the originator and detour sources as fallbacks; the joint
    assignment is found by conflict-directed backjumping. When the final
    step provably cannot hold every call, fan-up calls are pulled into the
    previous step in exchange for level deliveries moved the other way; a
    pulled target is informed in time to source a final-step call itself
    or to a neighbouring target. Once everything fits, further pulls are
    kept only while they make the fold cheaper. Anything still unplaced is
    returned for a dedicated extra step.
    """
    hard = u.level == 0  # the step budget is only asserted from the root
    k = tree.k
    last = steps[-1]
    prev = list(steps[-2]) if len(steps) >= 2 and hard else None
    informed_before = {u.id}
    for step in steps[:-1]:
        informed_before.update(c.dst.id for c in step)
    batch_busy = {c.src.id for c in last}
    level_base = tree.vertex_id(j, 1) - 1

    def subtree_span(a: UpcallAssignment) -> tuple[int, int]:
        lo = (a.t - 1) * k**a.i + 1
        return lo, lo + k**a.i - 1

    assignments = [
        a for a in upcall_assignments(k, j)
        if tree.vertex_id(a.target_level, a.target_offset) != u.id
    ]

    def free_in_span(a: UpcallAssignment) -> int:
        lo, hi = subtree_span(a)
        return sum(
            1 for o in range(lo, hi + 1)
            if level_base + o in informed_before and level_base + o not in batch_busy
        )

    # scarcest first, so flexible assignments route around committed ones
    assignments.sort(key=lambda a: (free_in_span(a), a.i, a.t))

    def sorted_informed() -> list[int]:
        return sorted(
            off for off in range(1, k**j + 1)
            if level_base + off in informed_before
        )

    def upcall_options(a: UpcallAssignment, skip_busy: set[int], pool: list[int],
                       raised: list[VertexRef]):
        lo, hi = subtree_span(a)
        target = tree.vertex(a.target_level, a.target_offset)
        out = []
        # targets a pulled fan-up call informed a step early, nearest first
        for v in sorted(raised, key=lambda v: (len(tree.path(v, target)), v.id)):
            if v.id not in skip_busy:
                out.append((v.id, tuple(tree.path(v, target))))
        offs = [a.leaf_offset] + sorted(
            (o for o in range(lo, hi + 1) if o != a.leaf_offset),
            key=lambda o: (abs(o - a.leaf_offset), o),
        )
        for off in offs:
            sid = level_base + off
            if sid in informed_before and sid not in skip_busy:
                out.append((sid, tuple(tree.path(tree.vertex(j, off), target))))
        if u.id not in skip_busy:
            out.append((u.id, tuple(tree.path(u, target))))
        # detour sources outside the target's own subtree: pricier paths,
        # but they can dodge a saturated subtree
        extras = 0
        for off in islice(_nearest_first(pool, lo), 96):
            if lo <= off <= hi:
                continue
            sid = level_base + off
            if sid in skip_busy:
                continue
            out.append((sid, tuple(tree.path(tree.vertex(j, off), target))))
            extras += 1
            if extras >= 32:
                break
        return out

    def solve_fixed_batch(assigns, batch):
        """Upcalls only, against the delivery batch as given."""
        pool = sorted_informed()
        busy = {c.src.id for c in batch}
        edges: set[int] = set()
        for c in batch:
            edges.update(c.path)
        pre: dict[int, tuple[int, tuple[int, ...]]] = {}
        pre_busy = set(busy)
        pre_edges = set(edges)
        rest_pos = []
        for pos, a in enumerate(assigns):
            if a.i == 1:
                lo, hi = subtree_span(a)
                hit = None
                for off in range(lo, hi + 1):
                    sid = level_base + off
                    if (sid in informed_before and sid not in pre_busy
                            and sid not in pre_edges):
                        hit = sid
                        break
                if hit is not None:
                    pre[pos] = (hit, (hit,))
                    pre_busy.add(hit)
                    pre_edges.add(hit)
                    continue
            rest_pos.append(pos)
        raised = [c.dst for c in prev or () if c.dst.level != j]
        opts = [upcall_options(assigns[p], pre_busy, pool, raised)
                for p in rest_pos]
        rest_picks = _cbj_assign(opts, pre_edges)
        picks = [None] * len(assigns)
        for pos, p in pre.items():
            picks[pos] = p
        for pos, p in zip(rest_pos, rest_picks):
            picks[pos] = p
        return picks

    picks = solve_fixed_batch(assignments, last)
    final = list(last)
    open_assignments = list(assignments)

    if any(p is None for p in picks) and prev is not None:
        # The final step cannot hold everything. Move fan-up calls into the
        # previous step: a previous-step delivery whose caller sits under
        # (or routes through) the fan-up target hands its slot over, and the
        # displaced delivery runs in the final step off a window sibling. A
        # pulled target can itself source a final-step fan-up call over its
        # own edges, which relieves the scarce entry edges above the level-j
        # windows. Each trial swap is kept only when the re-solved fold
        # leaves fewer calls unplaced, or as many at a lower cost.
        batch = list(last)
        prev_backup = list(prev)
        first_picks = picks

        def displaced_delivery(dst: VertexRef) -> Call | None:
            """Serve dst in the final step from an idle window sibling."""
            busy_now = {c.src.id for c in batch}
            edges_now: set[int] = set()
            for c in batch:
                edges_now.update(c.path)
            if dst.id in edges_now:
                return None
            w_lo = ((dst.offset - 1) // k) * k + 1
            for off in range(w_lo, w_lo + k):
                sid = level_base + off
                if (sid != dst.id and sid in informed_before
                        and sid not in busy_now and sid not in edges_now):
                    return Call(tree.vertex(j, off), dst, (sid, dst.id))
            return None

        def pull_choices(b: UpcallAssignment):
            """Previous-step swaps that could carry b: any caller whose old
            call's released edges cover the new path (its own call usually
            does most of the covering). A caller whose delivery sources a
            final-step call keeps it."""
            target = tree.vertex(b.target_level, b.target_offset)
            prev_edges = {e for c in prev for e in c.path}
            busy_now = {c.src.id for c in batch}
            for ci, c in enumerate(prev):
                if c.dst.level != j or c.dst.id in busy_now:
                    continue
                up_path = tree.path(c.src, target)
                if any(e in prev_edges and e not in c.path for e in up_path):
                    continue
                moved = displaced_delivery(c.dst)
                if moved is not None:
                    yield b, ci, c, up_path, moved

        def apply_pull(choice) -> None:
            b, ci, c, up_path, moved = choice
            target = tree.vertex(b.target_level, b.target_offset)
            prev[ci] = Call(c.src, target, tuple(up_path))
            informed_before.discard(c.dst.id)
            informed_before.add(target.id)
            batch.append(moved)
            open_assignments.remove(b)

        def revert_pull(choice) -> None:
            b, ci, c, _, _ = choice
            informed_before.discard(prev[ci].dst.id)
            prev[ci] = c
            informed_before.add(c.dst.id)
            batch.pop()
            open_assignments.append(b)

        def fold_cost(picks_now) -> int:
            return (sum(c.cost for c in prev) + sum(c.cost for c in batch)
                    + sum(len(p[1]) for p in picks_now if p is not None))

        def pull_pool(a: UpcallAssignment) -> list[UpcallAssignment]:
            """Pulls that may unblock a: its enclosing targets, nearest
            first (one informed a step early can serve a itself), then a
            itself, then the targets nested inside it."""
            lo, hi = subtree_span(a)
            pool_b = sorted(
                (b for b in open_assignments
                 if b.i > a.i and (b.t - 1) * k**b.i + 1 <= lo
                 and hi <= b.t * k**b.i),
                key=lambda b: b.i,
            )
            pool_b += [b for b in open_assignments if b is a]
            pool_b += [
                b for b in open_assignments
                if b is not a and b.i < a.i
                and lo <= (b.t - 1) * k**b.i + 1 and b.t * k**b.i <= hi
            ]
            return pool_b

        score = sum(p is None for p in picks)
        cost = fold_cost(picks)

        def keep_a_pull() -> bool:
            """Keep the first pull whose re-solved fold beats (score,
            cost); False when none does."""
            nonlocal picks, score, cost
            stuck = [a for a, p in zip(open_assignments, picks) if p is None]
            if stuck:
                pools = [pull_pool(a) for a in stuck]
            else:
                # everything fits: look for pulls that make the fold cheaper
                pools = [sorted(open_assignments, key=lambda b: -b.i)]
            for pool_b in pools:
                for b in pool_b:
                    for choice in pull_choices(b):
                        apply_pull(choice)
                        trial_picks = solve_fixed_batch(open_assignments, batch)
                        trial = (sum(p is None for p in trial_picks),
                                 fold_cost(trial_picks))
                        if trial < (score, cost):
                            picks = trial_picks
                            score, cost = trial
                            return True
                        revert_pull(choice)
            return False

        # each kept pull takes a target off open_assignments, so this ends
        while keep_a_pull():
            pass

        if score == 0:
            final = list(batch)
        else:
            # no full fold: undo the pulls and keep the first solve's picks
            prev[:] = prev_backup
            open_assignments = list(assignments)
            picks = first_picks

    deferred: list[Call] = []
    for a, p in zip(open_assignments, picks):
        target = tree.vertex(a.target_level, a.target_offset)
        if p is not None:
            sid, path = p
            final.append(Call(tree.vertex_by_id(sid), target, path))
        else:
            src = tree.vertex(j, a.leaf_offset)
            deferred.append(Call(src, target, tuple(tree.path(src, target))))

    out_steps = steps[:-1] + [final]
    if prev is not None:
        out_steps[-2] = prev
    return out_steps, deferred
