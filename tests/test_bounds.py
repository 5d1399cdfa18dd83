"""Closed-form bound values, all exact rationals."""

import math
from fractions import Fraction

import pytest

from linebroadcast import bounds
from linebroadcast.algorithms import lbckt_case
from linebroadcast.errors import OutOfRange

GRID = [(k, r) for k in range(2, 9) for r in range(1, 6)]


def test_ceil_log2():
    assert bounds.ceil_log2(1) == 0
    assert bounds.ceil_log2(2) == 1
    assert bounds.ceil_log2(7) == 3
    assert bounds.ceil_log2(8) == 3
    assert bounds.ceil_log2(9) == 4
    with pytest.raises(OutOfRange):
        bounds.ceil_log2(0)


def test_tree_size():
    assert bounds.tree_size(2, 2) == 7
    assert bounds.tree_size(3, 1) == 4
    with pytest.raises(OutOfRange, match="k=1"):
        bounds.tree_size(1, 2)


def test_farley():
    assert bounds.farley_bound(7) == 18
    assert bounds.farley_bound(2) == 1
    assert bounds.farley_bound(13) == 48
    with pytest.raises(OutOfRange):
        bounds.farley_bound(1)


def test_lower_bound_values():
    assert bounds.lower_bound(3, 2) == 11
    assert bounds.lower_bound(2, 2) == 6
    assert bounds.lower_bound(2, 1) == 2
    assert bounds.lower_bound(2, 1, leaf_originator=True) == 1
    assert isinstance(bounds.lower_bound(5, 3), Fraction)


def test_alg1_upper_values():
    assert bounds.alg1_upper(3, 2) == 16
    assert bounds.alg1_upper(2, 1) == 2
    assert bounds.alg1_upper(7, 2) == 88


def test_alg2_upper_values():
    assert bounds.alg2_upper(5, 3) == Fraction(3861, 16)
    assert float(bounds.alg2_upper(5, 3)) == 241.3125
    assert bounds.alg2_upper(2, 2) > bounds.lower_bound(2, 2)
    with pytest.raises(OutOfRange):
        bounds.alg2_upper(3, 1)


def test_alg3_upper_values():
    assert bounds.alg3_upper(2, 2) == 14
    assert bounds.alg3_upper(3, 2) == 33
    assert bounds.alg3_upper(2, 1) == 2


def test_tolevel_upper_values():
    assert bounds.tolevel_upper(2, 2) == 12
    assert bounds.tolevel_upper(2, 1) == 2
    assert bounds.tolevel_upper(3, 1) == 6


def test_fromlevel_cost_values():
    assert bounds.fromlevel_cost(2, 2, True) == 2
    assert bounds.fromlevel_cost(3, 2, True) == 3
    assert bounds.fromlevel_cost(2, 3, True) == 8
    assert bounds.fromlevel_cost(2, 2, False) == 4


def test_fromlevel_closed_form_matches_sum():
    for k in range(2, 9):
        for j in range(1, 6):
            total = sum(i * k ** (j - i) for i in range(1, j + 1))
            closed = Fraction(k ** (j + 1) - k * j - k + j, (k - 1) ** 2) - j
            assert bounds.fromlevel_cost(k, j, True) == closed == total - j


def test_tolevel_round_cost_values():
    assert bounds.tolevel_round_cost(2, 2, 1) == 0
    assert bounds.tolevel_round_cost(2, 2, 2) == 2
    with pytest.raises(OutOfRange):
        bounds.tolevel_round_cost(2, 2, 3)


def test_round_costs_sum_below_tolevel_upper():
    for k in range(2, 9):
        for j in range(1, 6):
            total = (2 * j * bounds.ceil_log2(k**j)
                     + sum(bounds.tolevel_round_cost(k, j, m)
                           for m in range(1, j + 1)))
            assert total <= bounds.tolevel_upper(k, j)


def test_alg3_upper_is_tolevel_plus_fromlevel():
    for k in range(2, 9):
        for r in range(1, 6):
            assert bounds.alg3_upper(k, r) == (
                bounds.tolevel_upper(k, r) + bounds.fromlevel_cost(k, r, True)
            )


def test_report_fixtures():
    rep = bounds.report(2, 2)
    assert (rep.n, rep.time_limit, rep.farley) == (7, 3, 18)
    assert rep.lower == 6 and rep.case.label == "alg3"
    assert rep.upper_alg3 == 14

    rep = bounds.report(3, 2)
    assert rep.lower == 11 and rep.case.label == "alg1" and rep.upper_alg1 == 16

    rep = bounds.report(5, 3)
    assert rep.case.label == "alg2" and float(rep.upper_alg2) == 241.3125

    rep1 = bounds.report(2, 1)
    assert rep1.upper_alg2 is None and rep1.tolevel_upper.keys() == {1}


def test_grid_bracket_and_baseline():
    for k, r in GRID:
        rep = bounds.report(k, r)
        dispatched = rep.dispatched_upper()
        assert rep.lower <= dispatched
        if rep.n >= 3:
            assert dispatched < rep.farley


def test_linear_envelope():
    # lower/n stays in (0, 2]. upper/n stays in [1, 3] except at the three
    # documented outliers: the smallest instance sits below n, and the two
    # deepest binary trees push the leaves-first bound slightly past 3n
    # (its 1/(k-1) term is largest at k = 2)
    outliers = {(2, 1), (2, 4), (2, 5)}
    seen = set()
    for k, r in GRID:
        rep = bounds.report(k, r)
        assert 0 < rep.lower / rep.n <= 2
        ratio = rep.dispatched_upper() / rep.n
        if 1 <= ratio <= 3:
            continue
        seen.add((k, r))
        assert Fraction(1, 2) < ratio < Fraction(7, 2)
    assert seen == outliers


def test_exactness_no_floats():
    rep = bounds.report(6, 4)
    for value in (rep.lower, rep.upper_alg1, rep.upper_alg2, rep.upper_alg3):
        assert isinstance(value, Fraction)
    assert isinstance(rep.farley, int) and isinstance(rep.time_limit, int)


def test_case_matches_dispatcher():
    for k, r in GRID:
        assert bounds.report(k, r).case == lbckt_case(k, r)
