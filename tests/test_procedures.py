"""Partial-broadcast procedures: grids, spreading, fan-up."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from linebroadcast import Schedule, from_level, merge_upcalls, new, to_level, validate
from linebroadcast.bounds import ceil_log2, fromlevel_cost, tolevel_upper
from linebroadcast.errors import OutOfRange
from linebroadcast import procedures
from linebroadcast.procedures import _cbj_assign, _digit_reversals, _upcall_table


def as_schedule(tree, u, frag, tag="frag"):
    s = Schedule(tree, u, tag)
    for calls in frag.steps:
        s.append_step(calls)
    return s


def level_ids(tree, j):
    return {v.id for v in tree.level_vertices(j)}


# -- anchor grids ------------------------------------------------------------
# to_level's rounds by their definition: round m informs the offsets of
# level j on the grid of stride k**(j-m) that the coarser grids leave out

def wave_offsets(k, j, m):
    """Offsets of level j informed once round m completes."""
    stride = k ** (j - m)
    return {1 + i * stride for i in range(k**m)}


def round_targets(k, j, m):
    """Offsets newly informed in round m (round-1 targets are the whole grid)."""
    if m == 1:
        return wave_offsets(k, j, 1)
    return wave_offsets(k, j, m) - wave_offsets(k, j, m - 1)


def test_wave_offsets_values():
    assert wave_offsets(3, 2, 1) == {1, 4, 7}
    assert wave_offsets(2, 2, 1) == {1, 3}
    assert wave_offsets(2, 2, 2) == {1, 2, 3, 4}


def test_round_targets_values():
    assert round_targets(2, 2, 2) == {2, 4}
    assert round_targets(3, 2, 1) == {1, 4, 7}
    assert round_targets(3, 2, 2) == {2, 3, 5, 6, 8, 9}


def test_grid_partition():
    for k in range(2, 9):
        for j in range(1, 6):
            sizes = [len(wave_offsets(k, j, m)) for m in range(1, j + 1)]
            assert sizes == [k**m for m in range(1, j + 1)]
            union = set()
            for m in range(1, j + 1):
                newly = round_targets(k, j, m)
                assert not (union & newly)
                union |= newly
            assert union == set(range(1, k**j + 1))


@pytest.mark.parametrize("k", range(2, 9))
def test_digit_reversed_matches_definition(k):
    """_digit_reversals(k, 5)[p] lists w = 0..k**p - 1, each with its p
    base-k digits read in reverse."""
    reversals = _digit_reversals(k, 5)
    assert len(reversals) == 6
    for p in range(6):
        expected = []
        for w in range(k**p):
            digits = [(w // k**i) % k for i in range(p)]  # least significant first
            expected.append(sum(d * k ** (p - 1 - i) for i, d in enumerate(digits)))
        assert reversals[p] == expected, (k, p)


@pytest.mark.parametrize("k", range(2, 9))
def test_delivery_order_is_k_stripes_of_window_positions(k):
    """to_level's delivery order, round by round, stripe by stripe and the
    windows of a stripe in digit-reversed order, is k stripes over the
    level's k-blocks in window order: entry s * k**(j-1) + x is place s of
    block window[x]. Reversing digits twice is the identity, so window[b]
    is block b's position."""
    for j in range(1, 5):
        order = []
        for m in range(1, j + 1):
            stride = k ** (j - m)
            windows = _digit_reversals(k, m - 1)[-1]
            stripes = range(k) if m == 1 else range(1, k)
            this_round = [1 + (w * k + s) * stride for s in stripes for w in windows]
            assert set(this_round) == round_targets(k, j, m)
            order += this_round
        window = _digit_reversals(k, j - 1)[-1]
        assert order == [1 + window[x] * k + s for s in range(k) for x in range(k ** (j - 1))]
        assert [window[b] for b in window] == list(range(k ** (j - 1)))


# -- to_level ----------------------------------------------------------------

def test_to_level_k2_j1_exact_trace():
    t = new(2, 1)
    frag = to_level(t, 1, t.root)
    trace = [[(c.src.id, c.dst.id) for c in step] for step in frag.steps]
    assert trace == [[(1, 2)], [(1, 3)]]
    assert frag.cost() == 2  # meets the closed-form ceiling with equality


def test_to_level_k3_j1():
    t = new(3, 1)
    frag = to_level(t, 1, t.root)
    assert len(frag.steps) == 2
    assert frag.cost() == 4
    rep = validate(as_schedule(t, t.root, frag),
                   expected_informed={1} | level_ids(t, 1))
    assert rep.ok


def test_to_level_k2_j2():
    t = new(2, 2)
    frag = to_level(t, 2, t.root)
    assert len(frag.steps) == 3
    assert frag.cost() <= 12


def test_to_level_rejects_bad_args():
    t = new(2, 2)
    with pytest.raises(OutOfRange):
        to_level(t, 0, t.root)
    with pytest.raises(OutOfRange):
        to_level(t, 3, t.root)


@pytest.mark.parametrize("k,j", [(k, j) for k in range(2, 9) for j in range(1, 5)])
def test_to_level_doubling_duration_cost(k, j):
    t = new(k, j)
    frag = to_level(t, j, t.root)
    assert len(frag.steps) == ceil_log2(k**j + 1)
    informed = 1
    for step_index, calls in enumerate(frag.steps, 1):
        informed += len(calls)
        assert informed == min(2**step_index, k**j + 1)
    sched = as_schedule(t, t.root, frag)
    assert validate(sched, expected_informed={1} | level_ids(t, j)).ok


@pytest.mark.parametrize("k,j", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
def test_to_level_other_originators_valid(k, j):
    t = new(k, j)
    for uid in (2, t.n, t.n // 2 + 1):
        u = t.vertex_by_id(uid)
        frag = to_level(t, j, u)
        expected = {u.id} | level_ids(t, j)
        rep = validate(as_schedule(t, u, frag), expected_informed=expected,
                       assume_informed={u.id})
        assert rep.ok, (k, j, uid, rep.violations[:3])


@pytest.mark.parametrize("uid", [1, 300], ids=["root", "leaf"])
def test_to_level_counts_a_block_wider_than_a_byte(uid):
    """At k = 300 one k-block holds 300 informed offsets, more than a byte
    can count."""
    t = new(300, 1)
    u = t.vertex_by_id(uid)
    frag = to_level(t, 1, u)
    rep = validate(as_schedule(t, u, frag), expected_informed={u.id} | level_ids(t, 1),
                   assume_informed={u.id})
    assert rep.ok and len(frag.steps) == 9


@st.composite
def spreads(draw):
    """(k, r, j, originator id) with k up to 16 and n <= 1,500."""
    k = draw(st.integers(2, 16))
    r = draw(st.integers(1, max(r for r in range(1, 11)
                                if (k ** (r + 1) - 1) // (k - 1) <= 1500)))
    t = new(k, r)
    return k, r, draw(st.integers(1, r)), draw(st.integers(1, t.n))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(spreads())
def test_sibling_relays_come_from_the_nearest_idle_informed_place(spread):
    """Each step of to_level opens with its sibling relays. Replayed from
    the step arrays, each comes from the place of its k-block that was
    informed before the step and is not an earlier caller in the step,
    nearest to the target with the lower place on a tie, along (caller,
    target). The fragment informs exactly level j besides the originator."""
    k, r, j, uid = spread
    t = new(k, r)
    u = t.vertex_by_id(uid)
    frag = to_level(t, j, u)
    rep = validate(as_schedule(t, u, frag), expected_informed={uid} | level_ids(t, j),
                   assume_informed={uid})
    assert rep.ok, rep.violations[:3]
    base = (k**j - 1) // (k - 1)  # base + offset is the id of (j, offset)
    first, last = base + 1, base + k**j
    informed = {uid}
    for step in frag.steps:
        callers = set()
        for src, dst, path in step.id_calls():
            if not (j >= 2 and first <= src <= last
                    and (src - 2) // k == (dst - 2) // k):
                break  # the leading run of same-block calls ends here
            lo = first + (dst - first) // k * k
            idle = [c for c in range(lo, lo + k) if c in informed and c not in callers]
            assert src == min(idle, key=lambda c: (abs(c - dst), c)), (dst, idle)
            assert path == [src, dst]
            callers.add(src)
        informed.update(step.dst)
    assert informed == {uid} | level_ids(t, j)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(spreads())
def test_relays_come_from_the_nearest_qualifying_place(spread):
    """Replayed call by call, each relay between two level-j places whose
    path has 2(x+1) edges comes from the place nearest its target, the
    lower on a tie, that qualifies: it lies in the target's level-(j-1-x)
    subtree and outside its level-(j-x) subtree, was informed before the
    step, is not an earlier caller in the step, and has a path clear of
    every earlier call's edges. A step is replayed up to the originator's
    call: a swap hands u a call placed earlier, whose first caller, busy
    while the later calls were matched, the arrays no longer show. The
    swap's search reads the calls other than u's in non-decreasing path
    length, so they come in that order."""
    k, r, j, uid = spread
    t = new(k, r)
    u = t.vertex_by_id(uid)
    frag = to_level(t, j, u)
    rep = validate(as_schedule(t, u, frag), expected_informed={uid} | level_ids(t, j),
                   assume_informed={uid})
    assert rep.ok, rep.violations[:3]
    base = (k**j - 1) // (k - 1)  # base + offset is the id of (j, offset)
    informed = {uid}
    for step in frag.steps:
        lengths = [len(path) for src, _, path in step.id_calls() if src != uid]
        assert lengths == sorted(lengths), lengths
        callers, used = set(), set()
        for src, dst, path in step.id_calls():
            if src == uid:
                break
            span = k ** (len(path) // 2)  # the meeting vertex's leaves
            lo = base + 1 + (dst - base - 1) // span * span
            inner = base + 1 + (dst - base - 1) // (span // k) * (span // k)

            def qualifies(v):
                return (lo <= v < lo + span and not inner <= v < inner + span // k
                        and v in informed and v not in callers
                        and t.climb(v, dst, used) is not None)

            d = abs(src - dst)
            nearer = [v for v in range(dst - d, dst + d) if abs(v - dst) < d or v < src]
            assert qualifies(src) and not any(map(qualifies, nearer)), (src, dst)
            callers.add(src)
            used.update(path)
        informed.update(step.dst)


# -- from_level --------------------------------------------------------------

def upcall_rows(k, j):
    """(i, t, leaf offset, target id) per designated fan-up call, read off
    _upcall_table: distances ascending, then offsets."""
    return [(i, t, leaf, tid)
            for i, (leaves, tids, _) in enumerate(_upcall_table(k, j), 1)
            for t, (leaf, tid) in enumerate(zip(leaves, tids), 1)]


def test_upcall_table_paths_are_tree_paths():
    """Each designated path, built from strided ranges, is the climbed path
    from its source up to its target."""
    for k in range(2, 9):
        for j in range(1, 5):
            t = new(k, j)
            base = t.vertex_id(j, 1) - 1
            for leaves, tids, paths in _upcall_table(k, j):
                assert len(leaves) == len(tids) == len(paths)
                for leaf, tid, path in zip(leaves, tids, paths):
                    assert list(path) == t.climb(base + leaf, tid)

def test_upcall_assignments_fixtures():
    assert upcall_rows(2, 2) == [(1, 1, 1, 2), (1, 2, 3, 3), (2, 1, 2, 1)]

    assert [row[:3] for row in upcall_rows(3, 1)] == [(1, 1, 1)]

    rows = upcall_rows(3, 2)
    i1 = [leaf for i, _, leaf, _ in rows if i == 1]
    i2 = [leaf for i, _, leaf, _ in rows if i == 2]
    assert i1 == [1, 4, 7] and i2 == [2]


def test_upcall_assignments_distinct():
    for k in range(2, 9):
        for j in range(1, 5):
            rows = upcall_rows(k, j)
            offs = [leaf for _, _, leaf, _ in rows]
            tgts = [tid for _, _, _, tid in rows]
            assert len(set(offs)) == len(offs)
            assert len(set(tgts)) == len(tgts)
            for i, t, leaf, _ in rows:
                anc = (leaf - 1) // k**i + 1
                assert anc == t


def test_upcall_rows_name_each_target_by_its_id():
    """The fan-up table has one row per target above level j, distances
    ascending, then offsets, and carries each target's id in closed form,
    the id vertex_id gives its (level, offset)."""
    for k in range(2, 9):
        for j in range(1, 5):
            t = new(k, j)
            rows = upcall_rows(k, j)
            assert [row[:2] for row in rows] == [
                (i, off) for i in range(1, j + 1) for off in range(1, k ** (j - i) + 1)]
            assert [row[3] for row in rows] == [
                t.vertex_id(j - i, off) for i, off, _, _ in rows]


def test_from_level_exact_costs():
    t = new(2, 2)
    frag = from_level(t, 2, t.root)
    pairs = {(c.src.id, c.dst.id) for c in frag.steps[0]}
    assert pairs == {(4, 2), (6, 3)}
    assert frag.cost() == 2

    assert from_level(new(3, 2), 2, new(3, 2).root).cost() == 3

    t24 = new(2, 2)
    u = t24.vertex(2, 4)
    assert from_level(t24, 2, u).cost() == 4  # the root call stays in


@pytest.mark.parametrize("k,j", [(k, j) for k in range(2, 9) for j in range(1, 5)])
def test_from_level_matches_formula_and_validates(k, j):
    t = new(k, j)
    frag = from_level(t, j, t.root)
    assert len(frag.steps) == 1
    assert frag.cost() == fromlevel_cost(k, j, True)
    expected = set(range(1, t.n + 1)) - (level_ids(t, j) - set())
    expected = {1} | {v.id for lvl in range(j) for v in t.level_vertices(lvl)}
    rep = validate(
        as_schedule(t, t.root, frag),
        expected_informed=expected | level_ids(t, j) | {1},
        assume_informed=level_ids(t, j),
    )
    assert rep.ok, (k, j, rep.violations[:3])


# -- merge -------------------------------------------------------------------

@pytest.mark.parametrize("k,r", [(2, 2), (3, 2), (4, 2), (2, 4), (3, 4), (4, 3),
                                 (5, 2)])
def test_merge_upcalls_fits_final_step(k, r):
    # points where the spreading phase already runs a full step budget, so
    # the fan-up has to fold into the final step completely
    t = new(k, r)
    assert ceil_log2(k**r + 1) == ceil_log2(t.n)
    frag = to_level(t, r, t.root)
    steps, deferred = merge_upcalls(t, r, t.root, frag.steps)
    assert len(deferred) == 0
    assert len(steps) == len(frag.steps)
    s = Schedule(t, t.root, "merged")
    for calls in steps:
        s.append_step(calls)
    assert validate(s).ok


def test_merge_upcalls_defers_when_budget_allows():
    # here the spread ends one step before the budget, so leftover fan-up
    # calls may take a step of their own without costing any time
    t = new(5, 3)
    frag = to_level(t, 3, t.root)
    assert ceil_log2(5**3 + 1) < ceil_log2(t.n)
    steps, deferred = merge_upcalls(t, 3, t.root, frag.steps)
    assert len(steps) == len(frag.steps)
    total = sum(len(s) for s in steps) + len(deferred)
    assert total == sum(len(s) for s in frag.steps) + len(
        [row for row in upcall_rows(5, 3) if row[3] != 1]
    )


def test_merge_upcalls_leaves_its_input_unchanged():
    # at (3,4) from the root the final step alone cannot hold the fan-up, so
    # the previous-step exchange runs and keeps 6 pulls; each trial builds
    # its own fold state, so the steps passed in stay as they were
    t = new(3, 4)
    frag = to_level(t, 4, t.root)
    given = [list(step) for step in frag.steps]
    steps, deferred = merge_upcalls(t, 4, t.root, frag.steps)
    assert [list(step) for step in frag.steps] == given
    assert len(deferred) == 0
    assert sum(c.dst.level != 4 for c in steps[-2]) == 6
    assert [list(step) for step in steps[:-2]] == given[:-2]


def test_merge_cost_is_tolevel_plus_fanup():
    k, r = 3, 2
    t = new(k, r)
    frag = to_level(t, r, t.root)
    steps, deferred = merge_upcalls(t, r, t.root, frag.steps)
    merged_cost = sum(c.cost for calls in steps for c in calls)
    assert len(deferred) == 0
    assert merged_cost <= math.floor(tolevel_upper(k, r)) + fromlevel_cost(k, r, True)


# -- the fold's shortcut ------------------------------------------------------
# merge_upcalls appends from_level's step as it is when it fits the final
# step, and searches otherwise. The fit and the order are written out here
# from their definitions.

def designated_calls(tree, j, u):
    """(i, t, source id, target id, path) of from_level's calls: the target
    at offset t of level j - i hears from offset
    (k**(i-1) - 1)/(k - 1) + 1 + (t - 1) * k**i of level j; none goes to u."""
    k = tree.k
    out = []
    for i in range(1, j + 1):
        for t in range(1, k ** (j - i) + 1):
            tid = tree.vertex_id(j - i, t)
            if tid != u.id:
                sid = tree.vertex_id(j, (k ** (i - 1) - 1) // (k - 1) + 1 + (t - 1) * k**i)
                out.append((i, t, sid, tid, tree.climb(sid, tid)))
    return out


def fold_inputs():
    """(tree, j, u, steps): to_level's steps for alg2 (j = r - 1) and alg3
    (j = r), from the root at the 35 grid points, and from the last vertex
    of level 1 and the middle leaf on the 25 trees with n <= 400."""
    for k in range(2, 9):
        for r in range(1, 6):
            t = new(k, r)
            us = [t.root]
            if t.n <= 400:
                us += [t.vertex(1, k), t.vertex(r, (k**r + 1) // 2)]
            for u in dict.fromkeys(us):
                for j in sorted({r - 1, r} - {0}):
                    yield t, j, u, to_level(t, j, u).steps


class Searched(Exception):
    """The fold went to the search."""


def search_stops(monkeypatch):
    """Make the fold search raise Searched when it starts."""
    def stop(*args, **kwargs):
        raise Searched

    monkeypatch.setattr(procedures, "_cbj_assign", stop)


def test_fold_appends_from_levels_step_where_it_fits(monkeypatch):
    search_stops(monkeypatch)
    fitted = searched = 0
    for tree, j, u, steps in fold_inputs():
        last = steps[-1]
        informed = {u.id}.union(*(step.dst for step in steps[:-1]))
        idle = informed - set(last.src)
        used = set(last.edges)
        calls = designated_calls(tree, j, u)
        fits = all(sid in idle and used.isdisjoint(path) for _, _, sid, _, path in calls)
        try:
            merged, deferred = merge_upcalls(tree, j, u, steps)
        except Searched:
            assert not fits, (tree, j, u)
            searched += 1
            continue
        assert fits, (tree, j, u)
        fitted += 1
        # scarcest first: the fewest idle informed level-j offsets under
        # the target, then i, then t
        base = tree.vertex_id(j, 1) - 1

        def scarcity(call):
            i, t = call[:2]
            return sum(base + off in idle
                       for off in range((t - 1) * tree.k**i + 1, t * tree.k**i + 1))

        calls.sort(key=lambda call: (scarcity(call), call[0], call[1]))
        assert len(deferred) == 0
        assert merged[:-1] == steps[:-1]
        assert list(merged[-1].id_calls()) == list(last.id_calls()) + [
            (sid, tid, path) for _, _, sid, tid, path in calls]
        s = Schedule(tree, u, "fold")
        for step in merged:
            s.append_step(step)
        assert validate(s, expected_informed=set(range(1, base + tree.k**j + 1)) | {u.id}).ok
    assert (fitted, searched) == (88, 61)


@pytest.mark.parametrize("spoil", ["busy-source", "used-edge"])
def test_fold_searches_when_the_step_does_not_fit(monkeypatch, spoil):
    """One designated source that sends in the final step, or one designated
    path edge the final step uses, sends the fold to the search."""
    search_stops(monkeypatch)
    t = new(2, 3)
    u = t.vertex(1, 2)
    steps = to_level(t, 2, u).steps
    merge_upcalls(t, 2, u, steps)  # the step fits as it is
    last = steps[-1].copy()
    _, _, sid, tid, path = designated_calls(t, 2, u)[-1]  # 5 -> 1 along (5, 2)
    if spoil == "busy-source":
        last.add(sid, 2 * sid, [2 * sid])  # to its first child, one level down
    else:
        last.add(path[1], tid, [path[1]])  # up the path's second edge
    with pytest.raises(Searched):
        merge_upcalls(t, 2, u, steps[:-1] + [last])


# -- fold search -------------------------------------------------------------
# Each variable's options are (source id, path) pairs, tried in order. The
# expected picks were recorded before the search's bookkeeping was rewritten.

# v2's only option needs v0's first edge; v1 shares nothing with either
SKIP = [
    [(10, (1,)), (11, (2,))],
    [(20, (5,)), (21, (6,)), (22, (7,))],
    [(30, (1,))],
]


def test_cbj_backjump_skips_unrelated_variable():
    solved = [(11, (2,)), (20, (5,)), (30, (1,))]
    assert _cbj_assign(SKIP, set()) == solved
    # six options tried: v0, v1, v2 (dead end), back over v1 to v0's second
    # option, then v1 and v2; backtracking through v1's other options first
    # would try ten
    assert _cbj_assign(SKIP, set(), budget=7) == solved


def test_cbj_budget_out_returns_first_fit():
    # the budget runs out on the option that completes the search, so its
    # answer is dropped for first fit
    assert _cbj_assign(SKIP, set(), budget=6) == [(10, (1,)), (20, (5,)), None]


def test_cbj_gives_up_on_fixed_edges_only():
    options = [
        [(10, (1,))],
        [(11, (9,)), (12, (8, 9))],
        [(13, (2,))],
    ]
    assert _cbj_assign(options, {9}) == [(10, (1,)), None, (13, (2,))]
