"""End-to-end schedule builders and the dispatcher."""

import hashlib
import json
import math

import pytest

from linebroadcast import alg1, alg2, alg3, lbckt, lbckt_case, new, validate
from linebroadcast.bounds import (
    alg1_upper,
    alg2_upper,
    alg3_upper,
    ceil_log2,
    tree_size,
)


def test_dispatch_fixtures():
    assert lbckt_case(3, 2).label == "alg1"
    assert lbckt_case(5, 3).label == "alg2"
    assert lbckt_case(2, 2).label == "alg3"


def test_dispatch_condition_values():
    case = lbckt_case(3, 2)
    assert case.condition_values == (4, 4, 4)
    case = lbckt_case(5, 3)
    assert case.condition_values == (8, 9, 8)
    case = lbckt_case(2, 2)
    assert case.condition_values == (3, 4, 4)


def test_alg1_small_fixtures():
    t = new(2, 1)
    s = alg1(t, t.root)
    assert validate(s).ok
    assert s.total_time() == 2 and s.total_cost() == 2

    t = new(3, 2)
    s = alg1(t, t.root)
    assert validate(s).ok
    assert s.total_time() == 4
    assert s.total_cost() <= 16

    t = new(7, 2)
    s = alg1(t, t.root)
    assert validate(s).ok
    assert s.total_time() == 6 == ceil_log2(t.n)
    assert s.total_cost() <= 88


def test_alg1_root_time_and_cost_exact():
    for k in (2, 3, 4, 5, 6, 7, 8):
        for r in (1, 2, 3):
            t = new(k, r)
            s = alg1(t, t.root)
            lam = ceil_log2(k + 1)
            assert validate(s).ok
            assert s.total_time() == r * lam
            assert s.total_cost() == math.floor(alg1_upper(k, r))


def test_alg1_deep_originator():
    t = new(3, 2)
    u = t.vertex_by_id(6)  # a leaf, k not a power of two
    s = alg1(t, u)
    assert validate(s).ok
    lam = ceil_log2(4)
    assert s.total_time() <= 2 * lam + 1
    assert any(d.startswith("alg1:originator-relay") for d in s.deviations)


def test_alg1_level1_originator():
    t = new(2, 2)
    u = t.vertex_by_id(2)
    s = alg1(t, u)
    assert validate(s).ok


def test_alg1_power_of_two_deep_originator():
    # k a power of two: no opening relay to the root; the root is picked up
    # by the closing call instead
    t = new(4, 2)
    u = t.vertex_by_id(21)  # a leaf
    s = alg1(t, u)
    rep = validate(s)
    assert rep.ok
    assert not any(d.startswith("alg1:originator-relay") for d in s.deviations)
    root_calls = [c for st in s.steps for c in st.calls if c.dst.id == 1]
    assert len(root_calls) == 1 and root_calls[0].cost >= 1


def test_alg2_fixtures():
    t = new(5, 3)
    s = alg2(t, t.root)
    assert validate(s).ok
    assert s.total_time() <= 8 == ceil_log2(t.n)

    t = new(3, 5)  # the inner phase's fan-up must fold into its last step
    s = alg2(t, t.root)
    assert validate(s).ok
    assert s.total_time() <= 9 == ceil_log2(t.n)
    assert s.deviations == []
    assert s.total_cost() <= math.floor(alg2_upper(3, 5))

    t = new(2, 2)  # runnable even though the dispatcher would not pick it
    s = alg2(t, t.root)
    assert validate(s).ok

    t = new(2, 1)  # degenerate inner phase
    s = alg2(t, t.root)
    assert validate(s).ok
    s = alg2(t, t.vertex_by_id(3))
    assert validate(s).ok


def test_alg2_star_round_cost_component():
    k, r = 3, 2
    t = new(k, r)
    s = alg2(t, t.root)
    assert validate(s).ok
    lam = ceil_log2(k + 1)
    star_steps = s.steps[-lam:]
    star_cost = sum(c.cost for st in star_steps for c in st.calls)
    assert star_cost == k ** (r - 1) * (2 * k - lam) == 12


def test_alg3_fixtures():
    t = new(2, 2)
    s = alg3(t, t.root)
    assert validate(s).ok
    assert s.total_time() == 3 and s.total_cost() <= 14

    t = new(3, 2)
    s = alg3(t, t.root)
    assert validate(s).ok
    assert s.total_time() == 4 and s.total_cost() <= 33

    t = new(2, 1)
    s = alg3(t, t.root)
    assert validate(s).ok
    assert s.total_time() == 2 and s.total_cost() <= 2


def test_alg3_root_time_is_limit():
    for k, r in [(2, 2), (2, 3), (2, 4), (3, 4), (4, 2), (4, 3), (5, 2), (8, 2)]:
        t = new(k, r)
        s = alg3(t, t.root)
        assert validate(s).ok
        assert s.total_time() == ceil_log2(t.n), (k, r)
        assert s.total_cost() <= math.floor(alg3_upper(k, r))


# Fan-up fold paths pinned byte for byte: SHA-256 of the JSON list of
# steps, each a list of [source id, destination id, path], with the cost
# and the step count. The first six are the operations whose fold search
# ran longest when the search's bookkeeping was rewritten (five run its
# 500k-node budget out; the (3,4) leaf stops at about 172k nodes), and
# the (3,4) alg3 and (3,5) alg2 roots fold through the previous-step
# exchange. The (3,3), (3,5) and (5,3) alg3 roots enter that exchange and
# give it up. The (6,3) alg2 run from vertex 151 keeps its step only
# through a detour source outside the target's subtree. The (3,3) alg2 run
# from vertex 10 changes if the nearest-first walk breaks a tie toward the
# higher offset instead of the lower one.
SLOW_FOLDS = [
    ("alg3", 3, 4, 1, 284, 7,
     "27f6f3a48307d8918a377fb1a547a0e29fb1bba8894a28222d25fe7400f49f7d"),
    ("alg2", 3, 5, 1, 608, 9,
     "09078c7f28e19411b0772635167b3c60e137b92adb9ad5390b98acf37ff1f412"),
    ("alg3", 6, 3, 1, 614, 9,
     "a9e6b7bcc47c7cbdab71b322f020e79feda8c6250fce7d70660ab9fb949b14c2"),
    ("alg3", 2, 5, 47, 191, 7,
     "4970dcc755cdfc08a8d8942d21c9ee93e81a2eadfeb3708a07cb076c3b8e32e1"),
    ("alg3", 3, 4, 81, 314, 8,
     "6d3d9533a6a93343348212297162fbba4cdc3badd1097a70c86b1d64223bed49"),
    ("alg3", 3, 5, 4, 969, 10,
     "a0c027dd7a5193d5047af4a4297987554eccf4ff0920a3ff32a82ff9a60c907e"),
    ("alg3", 3, 3, 1, 92, 6,
     "871a9f9146d1605a2e2c4fe25cc6baed0af71d35e80088ab746d9beaed7d6811"),
    ("alg3", 3, 5, 1, 1012, 9,
     "aaacf54de33109c68eacee9f05deb6174e2eec60cd4314f01abc41dda35ad48f"),
    ("alg3", 5, 3, 1, 378, 8,
     "b501a77fa5934f6b338097a59a4fedce47ee058c2106802be5132cb6f288b7e9"),
    ("alg2", 6, 3, 151, 421, 9,
     "9cf13cc1674c5309ee38045d3270d503d0d6ef3fd02e3284f8dea12860ac95da"),
    ("alg2", 3, 3, 10, 63, 6,
     "8f23fb268f741c5f2a6a887cb4978560a693d22cd44efdc3011943555bbaad81"),
]


@pytest.mark.parametrize("name,k,r,uid,cost,steps,digest", SLOW_FOLDS)
def test_slow_fold_schedules_unchanged(name, k, r, uid, cost, steps, digest):
    t = new(k, r)
    s = {"alg2": alg2, "alg3": alg3}[name](t, t.vertex_by_id(uid))
    trace = [[[c.src.id, c.dst.id, list(c.path)] for c in st.calls] for st in s.steps]
    assert hashlib.sha256(json.dumps(trace).encode()).hexdigest() == digest
    assert (s.total_cost(), len(s.steps)) == (cost, steps)


def test_lbckt_dispatch():
    t = new(3, 2)
    s, case = lbckt(t, t.root)
    assert case.label == "alg1" and s.algorithm_tag == "alg1"

    t = new(2, 2)
    s, case = lbckt(t, t.root)
    assert case.label == "alg3" and s.algorithm_tag == "alg3"

    t = new(5, 3)
    s, case = lbckt(t, t.root)
    assert case.label == "alg2" and s.algorithm_tag == "alg2"
    assert validate(s).ok


def test_all_algorithms_all_originators_tiny():
    for k, r in [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1)]:
        t = new(k, r)
        for uid in range(1, t.n + 1):
            u = t.vertex_by_id(uid)
            for fn in (alg1, alg2, alg3):
                s = fn(t, u)
                rep = validate(s)
                assert rep.ok, (k, r, uid, fn.__name__, rep.violations[:3])


def test_doubling_cap_on_valid_schedules():
    for k, r in [(2, 2), (3, 2), (4, 2)]:
        t = new(k, r)
        s, _ = lbckt(t, t.root)
        assert validate(s, time_budget=ceil_log2(t.n)).ok
        for step in range(len(s.steps) + 1):
            assert len(s.informed_after(step)) <= 2**step


def test_total_cost_floor():
    for k, r in [(2, 1), (2, 2), (3, 2), (5, 2)]:
        t = new(k, r)
        for fn in (alg1, alg2, alg3):
            s = fn(t, t.root)
            assert s.total_cost() >= t.n - 1


def test_guards_are_integer_only():
    case = lbckt_case(6, 5)
    n = tree_size(6, 5)
    assert case.condition_values[0] == ceil_log2(n)
    for value in case.condition_values:
        assert isinstance(value, int)
