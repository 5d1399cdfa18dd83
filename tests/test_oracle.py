"""Exhaustive minimum-cost search on small trees."""

import functools
import math

import pytest
from hypothesis import given, seed, settings, strategies as st

from linebroadcast import alg1, alg2, alg3, check_bracket, lbckt, new, optimal_cost, validate
from linebroadcast.bounds import ceil_log2
from linebroadcast.errors import TooLarge
from linebroadcast.oracle import _Searcher


def enumerated_options(tree, mask):
    """Reference for `_Searcher.step_options`: list every edge-disjoint call
    set one (sender, receiver) pair at a time, keeping the cheapest per
    next informed set."""
    n = tree.n
    pairs = {}
    for s in range(1, n + 1):
        for d in range(1, n + 1):
            if s != d:
                path = tree.path(tree.vertex_by_id(s), tree.vertex_by_id(d))
                pairs[(s, d)] = (sum(1 << e for e in path), len(path))
    informed = [i for i in range(1, n + 1) if (mask >> (i - 1)) & 1]
    uninformed = [i for i in range(1, n + 1) if not (mask >> (i - 1)) & 1]
    cands = [(s, d) for s in informed for d in uninformed]
    options = {}

    def gen(idx, smask, dmask, emask, cost, nmask):
        if idx == len(cands):
            if nmask != mask and cost < options.get(nmask, cost + 1):
                options[nmask] = cost
            return
        gen(idx + 1, smask, dmask, emask, cost, nmask)
        s, d = cands[idx]
        sbit, dbit = 1 << (s - 1), 1 << (d - 1)
        edges, length = pairs[(s, d)]
        if smask & sbit or dmask & dbit or emask & edges:
            return
        gen(idx + 1, smask | sbit, dmask | dbit, emask | edges, cost + length, nmask | dbit)

    gen(0, 0, 0, 0, 0, mask)
    return options


@pytest.mark.parametrize("k,r", [(2, 1), (3, 1), (4, 1), (2, 2)])
def test_step_options_match_enumeration_on_every_mask(k, r):
    t = new(k, r)
    searcher = _Searcher(t)
    for mask in range(1, 1 << t.n):
        assert searcher.step_options(mask) == enumerated_options(t, mask), mask


_T32 = new(3, 2)


@seed(6)
@settings(max_examples=100, deadline=None)
@given(st.integers(1, (1 << _T32.n) - 1))
def test_step_options_match_enumeration_on_random_masks(mask):
    assert _Searcher(_T32).step_options(mask) == enumerated_options(_T32, mask)


@pytest.mark.parametrize("k,r", [(2, 1), (3, 1), (4, 1), (2, 2)])
def test_last_step_matches_step_options_on_every_mask(k, r):
    t = new(k, r)
    searcher = _Searcher(t)
    for mask in range(1, searcher.full):
        assert searcher.last_step(mask) == searcher.step_options(mask).get(searcher.full, math.inf), mask
    assert searcher.last_step(searcher.full) == 0  # the empty call set


@seed(16)
@settings(max_examples=100, deadline=None)
@given(st.integers(1, (1 << _T32.n) - 2))
def test_last_step_matches_step_options_on_random_masks(mask):
    searcher = _Searcher(_T32)
    assert searcher.last_step(mask) == searcher.step_options(mask).get(searcher.full, math.inf)


def unbounded_search(tree):
    """Reference for `optimal_cost`: a memoised search over every step option,
    keyed on the informed set itself, with no bound and no last-step pass."""
    searcher = _Searcher(tree)

    @functools.cache
    def search(mask, steps_left):
        if mask == searcher.full:
            return 0
        if steps_left == 0:
            return math.inf
        return min((cost + search(nmask, steps_left - 1)
                    for nmask, cost in searcher.step_options(mask).items()), default=math.inf)

    return search


SMALL_TREES = [(k, 1) for k in range(2, 10)] + [(2, 2)]  # every tree with n <= 10


@pytest.mark.parametrize("k,r", SMALL_TREES)
def test_bounded_search_matches_the_unbounded_one(k, r):
    t = new(k, r)
    search = unbounded_search(t)
    low = ceil_log2(t.n)
    for budget in range(low, low + 3):
        for uid in range(1, t.n + 1):
            cost, witness = optimal_cost(t, t.vertex_by_id(uid), time_budget=budget)
            assert cost == search(1 << (uid - 1), budget) == witness.total_cost(), (uid, budget)


@pytest.mark.parametrize("k,r", SMALL_TREES)
def test_floor_never_exceeds_the_optimum_on_every_mask(k, r):
    t = new(k, r)
    searcher, search = _Searcher(t), unbounded_search(t)
    for mask in range(1, 1 << t.n):
        for steps in range(1, 5):
            assert searcher.floor(mask, steps) <= search(mask, steps), (mask, steps)


_SEARCH32 = unbounded_search(_T32)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.integers(1, (1 << _T32.n) - 1), st.integers(1, 4))
def test_floor_never_exceeds_the_optimum_on_random_masks(mask, steps):
    assert _Searcher(_T32).floor(mask, steps) <= _SEARCH32(mask, steps)


UP_TO_15 = [(k, 1) for k in range(2, 15)] + [(2, 2), (3, 2), (2, 3)]  # every tree with n <= 15


@pytest.mark.parametrize("k,r", UP_TO_15)
def test_no_minimum_time_schedule_beats_the_optimum(k, r):
    t = new(k, r)
    budget = ceil_log2(t.n)
    for uid in range(1, t.n + 1):
        u = t.vertex_by_id(uid)
        opt, _ = optimal_cost(t, u)
        for name, sched in (("alg1", alg1(t, u)), ("alg2", alg2(t, u)),
                            ("alg3", alg3(t, u)), ("lbckt", lbckt(t, u)[0])):
            if sched.total_time() <= budget:
                assert sched.total_cost() >= opt, (name, uid)


def test_k4_r2_within_the_default_cap():
    t = new(4, 2)  # n = 21
    cost, witness = optimal_cost(t, t.root)
    assert cost == 26
    assert validate(witness).ok
    assert witness.total_cost() == cost and witness.total_time() <= ceil_log2(t.n)


@pytest.mark.parametrize("k,r", [(2, 2), (3, 1), (3, 2)])
def test_witness_steps_realize_their_options(k, r):
    t = new(k, r)
    searcher = _Searcher(t)
    for uid in range(1, t.n + 1):
        _, witness = optimal_cost(t, t.vertex_by_id(uid))
        mask = 1 << (uid - 1)
        for step in witness.steps:
            gained = sum(1 << (c.dst.id - 1) for c in step.calls)
            assert gained & mask == 0 and len(step.calls) == bin(gained).count("1")
            nmask = mask | gained
            assert sum(c.cost for c in step.calls) == searcher.step_options(mask)[nmask]
            mask = nmask
        assert validate(witness).ok


@pytest.mark.parametrize("k,r,per_level", [(3, 2, [16, 16, 18]), (2, 3, [19, 19, 20, 22])])
def test_optimum_per_originator_level(k, r, per_level):
    t = new(k, r)
    for level, want in enumerate(per_level):
        cost, witness = optimal_cost(t, t.vertex(level, t.level_size(level)), cap=15)
        assert cost == want
        assert validate(witness).ok
        assert witness.total_cost() == cost
        assert witness.total_time() <= ceil_log2(t.n)


def test_optimal_small_fixtures():
    t = new(2, 1)
    cost, witness = optimal_cost(t, t.root)
    assert cost == 2
    assert validate(witness).ok

    cost, witness = optimal_cost(t, t.vertex_by_id(2))
    assert cost == 2
    assert validate(witness).ok

    t = new(3, 1)
    cost, witness = optimal_cost(t, t.root)
    assert cost == 4
    assert validate(witness).ok


def test_optimal_n7_bracket():
    t = new(2, 2)
    cost, witness = optimal_cost(t, t.root)
    assert 6 <= cost <= 14
    assert cost == 7  # one relay call is unavoidable inside three steps
    assert validate(witness).ok
    budget = 3
    for fn in (alg1, alg2, alg3):
        sched = fn(t, t.root)
        if sched.total_time() <= budget:
            assert sched.total_cost() >= cost
        else:
            # a slower scheme may cost less than the minimum-time optimum
            assert sched.total_cost() >= t.n - 1


def test_budget_monotonicity():
    t = new(2, 2)
    costs = [optimal_cost(t, t.root, time_budget=b)[0] for b in (3, 4, 5, 7)]
    assert costs == sorted(costs, reverse=True)
    assert costs[-1] == t.n - 1  # enough time for a chain of unit calls


def test_unit_chain_with_unbounded_time():
    t = new(2, 1)
    cost, _ = optimal_cost(t, t.root, time_budget=t.n)
    assert cost == t.n - 1


def test_cap():
    t = new(2, 4)  # n = 31, above the default cap of 21
    with pytest.raises(TooLarge):
        optimal_cost(t, t.root)
    # raising the cap is the caller's own risk
    cost, witness = optimal_cost(new(2, 1), new(2, 1).root, cap=3)
    assert cost == 2


def test_budget_too_small():
    from linebroadcast.errors import OutOfRange

    t = new(2, 2)
    with pytest.raises(OutOfRange):
        optimal_cost(t, t.root, time_budget=2)  # seven vertices need 3 steps


def test_check_bracket():
    t = new(2, 1)
    rep = check_bracket(t, t.root)
    assert rep.ok and rep.optimal == 2

    rep = check_bracket(t, t.vertex_by_id(2))
    assert rep.ok and rep.optimal == 2

    t = new(3, 1)
    rep = check_bracket(t, t.root)
    assert rep.ok and rep.optimal == 4
    assert rep.lower <= rep.optimal

    t = new(2, 2)
    rep = check_bracket(t, t.root)
    assert rep.ok
    assert 6 <= rep.optimal <= 14
