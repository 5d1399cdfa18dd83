"""Partial-broadcast procedures: grids, spreading, fan-up."""

import math

import pytest

from linebroadcast import (
    Schedule,
    from_level,
    merge_upcalls,
    new,
    round_targets,
    to_level,
    upcall_assignments,
    validate,
    wave_offsets,
)
from linebroadcast.bounds import ceil_log2, fromlevel_cost, tolevel_upper
from linebroadcast.errors import OutOfRange, PreconditionViolated
from linebroadcast.procedures import _cbj_assign


def as_schedule(tree, u, frag, tag="frag"):
    s = Schedule(tree, u, tag)
    for calls in frag.steps:
        s.append_step(calls)
    return s


def level_ids(tree, j):
    return {v.id for v in tree.level_vertices(j)}


# -- anchor grids ------------------------------------------------------------

def test_wave_offsets_values():
    assert wave_offsets(3, 2, 1) == {1, 4, 7}
    assert wave_offsets(2, 2, 1) == {1, 3}
    assert wave_offsets(2, 2, 2) == {1, 2, 3, 4}
    with pytest.raises(OutOfRange):
        wave_offsets(2, 2, 3)


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
    assert frag.duration() == 2
    assert frag.cost() == 4
    rep = validate(as_schedule(t, t.root, frag),
                   expected_informed={1} | level_ids(t, 1))
    assert rep.ok


def test_to_level_k2_j2():
    t = new(2, 2)
    frag = to_level(t, 2, t.root)
    assert frag.duration() == 3
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
    assert frag.duration() == ceil_log2(k**j + 1)
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


# -- from_level --------------------------------------------------------------

def test_upcall_assignments_fixtures():
    plan = upcall_assignments(2, 2)
    rows = [(a.i, a.t, a.leaf_offset, a.target_level, a.target_offset) for a in plan]
    assert rows == [(1, 1, 1, 1, 1), (1, 2, 3, 1, 2), (2, 1, 2, 0, 1)]

    plan = upcall_assignments(3, 1)
    assert [(a.i, a.t, a.leaf_offset) for a in plan] == [(1, 1, 1)]

    plan = upcall_assignments(3, 2)
    i1 = [a.leaf_offset for a in plan if a.i == 1]
    i2 = [a.leaf_offset for a in plan if a.i == 2]
    assert i1 == [1, 4, 7] and i2 == [2]


def test_upcall_assignments_distinct():
    for k in range(2, 9):
        for j in range(1, 5):
            plan = upcall_assignments(k, j)
            offs = [a.leaf_offset for a in plan]
            tgts = [(a.target_level, a.target_offset) for a in plan]
            assert len(set(offs)) == len(offs)
            assert len(set(tgts)) == len(tgts)
            for a in plan:
                anc = (a.leaf_offset - 1) // k**a.i + 1
                assert anc == a.target_offset


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
    assert frag.duration() == 1
    assert frag.cost() == fromlevel_cost(k, j, True)
    expected = set(range(1, t.n + 1)) - (level_ids(t, j) - set())
    expected = {1} | {v.id for lvl in range(j) for v in t.level_vertices(lvl)}
    rep = validate(
        as_schedule(t, t.root, frag),
        expected_informed=expected | level_ids(t, j) | {1},
        assume_informed=level_ids(t, j),
    )
    assert rep.ok, (k, j, rep.violations[:3])


def test_from_level_precondition():
    t = new(2, 2)
    with pytest.raises(PreconditionViolated):
        from_level(t, 2, t.root, informed={1, 4})


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
    assert deferred == []
    assert len(steps) == frag.duration()
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
    assert len(steps) == frag.duration()
    total = sum(len(s) for s in steps) + len(deferred)
    assert total == sum(len(s) for s in frag.steps) + len(
        [a for a in upcall_assignments(5, 3) if (a.target_level, a.target_offset) != (0, 1)]
    )


def test_merge_cost_is_tolevel_plus_fanup():
    k, r = 3, 2
    t = new(k, r)
    frag = to_level(t, r, t.root)
    steps, deferred = merge_upcalls(t, r, t.root, frag.steps)
    merged_cost = sum(c.cost for calls in steps for c in calls)
    assert deferred == []
    assert merged_cost <= math.floor(tolevel_upper(k, r)) + fromlevel_cost(k, r, True)


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
