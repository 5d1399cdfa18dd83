"""End-to-end schedule builders and the dispatcher."""

import hashlib
import importlib.util
import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from linebroadcast import alg1, alg2, alg3, lbckt, lbckt_case, new, validate
from linebroadcast.bounds import (
    alg1_upper,
    alg2_upper,
    alg3_upper,
    ceil_log2,
    tree_size,
)
from linebroadcast.algorithms import _star_rounds
from linebroadcast.procedures import to_level


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


def _leaf_stars_call_by_call(tree, pre_informed):
    """The leaf stars by their per-call rule: in each step every level-(r-1)
    parent, in id order, calls its first uninformed child along that
    child's edge, and then its informed children, ascending, relay through
    it to the uninformed ones after that, one each. A step lists all its
    parents' feeds, then all their relays."""
    k, r = tree.k, tree.r
    first_parent = tree.vertex_id(r - 1, 1)
    informed = set(pre_informed)
    steps = []
    while len(informed) < k**r:
        feeds, relays = [], []
        for p in range(first_parent, first_parent + k ** (r - 1)):
            children = range(k * (p - 1) + 2, k * p + 2)
            targets = [c for c in children if c not in informed]
            if targets:
                feeds.append((p, targets[0], [targets[0]]))
                have = [c for c in children if c in informed]
                relays += [(s, c, [s, c]) for s, c in zip(have, targets[1:])]
        informed.update(d for _, d, _ in feeds + relays)
        steps.append(feeds + relays)
    return steps


@pytest.mark.parametrize("k", range(2, 9))
def test_leaf_stars_match_the_call_by_call_rule(k):
    """alg1's last round, started as alg2 starts its leaf stars (every
    inner vertex informed), places the same calls, in the same order, as
    the per-call rule: with no leaf pre-informed, with each single leaf,
    and with three seeded sets of several leaves."""
    lam = ceil_log2(k + 1)
    for r in range(1, 4):
        t = new(k, r)
        first_leaf = t.vertex_id(r, 1)
        leaves = [v.id for v in t.level_vertices(r)]
        rng = random.Random(100 * k + r)
        pre_sets = [set()] + [{lid} for lid in leaves] + [
            set(rng.sample(leaves, min(size, len(leaves))))
            for size in (2, len(leaves) // 2, len(leaves) - 1)]
        for pre in pre_sets:
            informed = bytearray(t.n + 1)
            informed[1:first_leaf] = bytes([1]) * (first_leaf - 1)
            for lid in pre:
                informed[lid] = 1
            steps = _star_rounds(t, t.root, informed, (r - 1) * lam)
            got = [list(step.id_calls()) for step in steps]
            assert got == _leaf_stars_call_by_call(t, pre), (k, r, sorted(pre))
            assert informed == bytes([0]) + bytes([1]) * t.n


@st.composite
def leaf_star_starts(draw):
    """(k, r, the pre-informed leaf ids) with k up to 16 and n <= 1,500."""
    k = draw(st.integers(2, 16))
    r = draw(st.integers(1, max(r for r in range(1, 11) if tree_size(k, r) <= 1500)))
    first_leaf = (k**r - 1) // (k - 1) + 1
    rnd = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 0.7, 0.95, 1.0]))
    return k, r, {lid for lid in range(first_leaf, first_leaf + k**r) if rnd.random() < density}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(leaf_star_starts())
def test_leaf_stars_match_the_call_by_call_rule_on_drawn_trees(start):
    """alg1's last round started as alg2 starts its leaf stars, every inner
    vertex informed and a drawn set of leaves, places the calls of the
    per-call rule, in the same order (a step's feeds, then its relays),
    for k up to 16."""
    k, r, pre = start
    t = new(k, r)
    first_leaf = t.vertex_id(r, 1)
    informed = bytearray(t.n + 1)
    informed[1:first_leaf] = bytes([1]) * (first_leaf - 1)
    for lid in pre:
        informed[lid] = 1
    steps = _star_rounds(t, t.root, informed, (r - 1) * ceil_log2(k + 1))
    assert [list(step.id_calls()) for step in steps] == _leaf_stars_call_by_call(t, pre)
    assert informed == bytes([0]) + bytes([1]) * t.n


@st.composite
def alg1_starts(draw):
    """(k, r, an originator id) with k up to 16 and n <= 1,500."""
    k = draw(st.integers(2, 16))
    r = draw(st.integers(1, max(r for r in range(1, 11) if tree_size(k, r) <= 1500)))
    return k, r, draw(st.integers(1, tree_size(k, r)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(alg1_starts())
def test_alg1_feeds_go_to_the_lowest_open_child(start):
    """In an alg1 step every one-edge call from a parent to its child goes
    to the parent's lowest-id child that was not informed before the step
    and not received earlier in it, read off the step arrays."""
    k, r, uid = start
    t = new(k, r)
    taken = bytearray(t.n + 1)  # informed, or received earlier in the step
    taken[uid] = 1
    for step in alg1(t, t.vertex_by_id(uid)).steps:
        at = 0
        for src, dst, end in zip(step.src, step.dst, step.ends):
            if end - at == 1 and (dst - 2) // k + 1 == src:
                first = k * (src - 1) + 2
                assert dst == taken.find(0, first, first + k), (k, r, uid, src, dst)
            taken[dst] = 1
            at = end


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


def pin_ids(pins):
    """name-k-r-uid per pin, so that a re-pinned digest keeps its test's id."""
    return ["-".join(map(str, pin[:4])) for pin in pins]


# Fan-up fold paths pinned byte for byte: SHA-256 of the JSON list of
# steps, each a list of [source id, destination id, path], with the cost
# and the step count. The first six are the operations whose fold search
# ran longest when the search's bookkeeping was rewritten (five run its
# 500k-node budget out; the (3,4) leaf stops at about 172k nodes), and
# the (3,4) alg3 and (3,5) alg2 roots fold through the previous-step
# exchange, 6 pulls in 14 solves each. Their digests move with the order
# in which the exchange tries its pulls, and if a rejected trial pull
# leaves any trace on the solves after it; their costs and step counts do
# not. The (3,3), (3,5) and (5,3) alg3 roots enter that exchange and give
# it up: no previous-step caller can take a pull.
# The (6,3) alg2 run from vertex 151 keeps its step only through a detour
# source outside the target's subtree. The (3,3) alg2 run from vertex 10
# changes if the nearest-first walk breaks a tie toward the higher offset
# instead of the lower one.
SLOW_FOLDS = [
    ("alg3", 3, 4, 1, 284, 7,
     "d79aa1782e1e0b5a6e1b926732d8b8e2819a7e66bd0ec7257f3b40a569af10f5"),
    ("alg2", 3, 5, 1, 608, 9,
     "c73ed78d5272656ca79c6fac8c9a7b015bb1437b80cbe6b3b683aa3309def94c"),
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
     "b697b3874b4ffa3994ad266b23f4ff597f2e6d42929e6535f986020680ed117b"),
    ("alg2", 3, 3, 10, 63, 6,
     "c3d343f52ee602cd3677fb6b0fc8716046d9f10c86ab1269d529a44eb63666bb"),
]


@pytest.mark.parametrize("name,k,r,uid,cost,steps,digest", SLOW_FOLDS,
                         ids=pin_ids(SLOW_FOLDS))
def test_slow_fold_schedules_unchanged(name, k, r, uid, cost, steps, digest):
    t = new(k, r)
    s = {"alg2": alg2, "alg3": alg3}[name](t, t.vertex_by_id(uid))
    trace = [[[c.src.id, c.dst.id, list(c.path)] for c in st.calls] for st in s.steps]
    assert hashlib.sha256(json.dumps(trace).encode()).hexdigest() == digest
    assert (s.total_cost(), len(s.steps)) == (cost, steps)


# The builders that place calls by climbing ids, pinned the same way from
# originators below the root: alg1 from a leaf at (7,3) (it opens with a
# relay to the root and overruns its rounds) and from level 2 at (4,4) (k a
# power of two, so the root comes last), to_level(j=4) from a leaf at
# (5,4), and lbckt (alg3 there) from a leaf at (8,3). The last two are the
# heaviest large-tree builds: lbckt from the root at (8,5) and alg1 from a
# leaf at (7,5). alg1 from the root at (7,5) pins the feeds and sibling
# relays with no opening relay, and alg2 at (6,5) from the root and from
# leaf 5443 pins the leaf stars (the second with one leaf informed).
BUILDER_PINS = [
    ("alg1", 7, 3, 229, 630, 12,
     "4dfcf00eef413fa3ab545111803e6d464e15bf8fd6631cb6a79cfc4c396c1a75"),
    ("alg1", 4, 4, 13, 429, 12,
     "03e6b11455b26fda23db1067c2f6209d0237785b2454e5d8ad3b0bf976218a29"),
    ("to_level:4", 5, 4, 469, 1734, 12,
     "a757b21008dc865e857caeabe5070e9d2920251ee42c3152f656b165331c0844"),
    ("lbckt", 8, 3, 329, 1259, 10,
     "a4632ad97d00780135c90f32390819a6136f747e0223a0bb5d8c4b0d2a84c162"),
    ("lbckt", 8, 5, 1, 80217, 16,
     "3d1f7202a47050effff517a1080d8df854757591cdfb3915ea3361f7f88d029e"),
    ("alg1", 7, 5, 11205, 30745, 23,
     "b7ceda8739ddf77fed59d0551b43d113e839cb84a01ca07639ac4841c19c7d76"),
    ("alg1", 7, 5, 1, 30811, 15,
     "eef43f68435c79a06f7dd585aa733dc468e0062060561f0f944f3b4d0d69e5bb"),
    ("alg2", 6, 5, 1, 15388, 14,
     "7a01ed52e1ce3016e07517a94b554e47e2d1091cd456cdcb06c5326848f8728e"),
    ("alg2", 6, 5, 5443, 15300, 15,
     "6eb6f6aa327fe08fbd079c359d1cf858eb1e4b57963c7f45ed266f77d0820fb9"),
]


@pytest.mark.parametrize("name,k,r,uid,cost,steps,digest", BUILDER_PINS,
                         ids=pin_ids(BUILDER_PINS))
def test_builder_schedules_unchanged(name, k, r, uid, cost, steps, digest):
    t = new(k, r)
    u = t.vertex_by_id(uid)
    if name == "to_level:4":
        calls = to_level(t, 4, u).steps
    else:
        s = {"alg1": alg1, "alg2": alg2,
             "lbckt": lambda t, u: lbckt(t, u)[0]}[name](t, u)
        calls = [st.calls for st in s.steps]
    trace = [[[c.src.id, c.dst.id, list(c.path)] for c in st] for st in calls]
    assert hashlib.sha256(json.dumps(trace).encode()).hexdigest() == digest
    assert (sum(c.cost for st in calls for c in st), len(calls)) == (cost, steps)


DIGEST_TOOL = Path(__file__).resolve().parent.parent / "tools" / "schedule_digest.py"


def _sorted_trace(steps, deviations=()):
    """schedule_digest's trace with each step's calls sorted."""
    calls = [sorted([s, d, path] for s, d, path in step.id_calls()) for step in steps]
    return json.dumps([calls, list(deviations)]).encode()


def _family_digest(name, order_free=False):
    """One family's (digest, count), computed as tools/schedule_digest.py
    does, or with each step's calls sorted when order_free is set."""
    spec = importlib.util.spec_from_file_location("schedule_digest", DIGEST_TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    if order_free:
        tool._trace = _sorted_trace
    return tool.digest(dict(tool.families())[name])


def test_large_trees_family_unchanged():
    """The 37 lbckt schedules of perfbench's large-trees workload."""
    assert _family_digest("large-trees") == (
        "9efa63cb3a86c81a73cfa4fa7534c175a18996b849075f1e93a7d8e7836fe8ed", 37)


def test_alg2_families_hold_the_same_calls_per_step():
    """alg2 from the root at the 35 grid points and the 37 large-trees
    schedules, with each step's calls sorted: the calls each step holds,
    whatever their order within the step."""
    assert _family_digest("root-alg2", order_free=True) == (
        "b5329eb5751c9f5f1e789fe7dbaeaf671ba7756169803c5d406e71aa77e609ec", 35)
    assert _family_digest("large-trees", order_free=True) == (
        "4ed5803543f80247d5fbbee30705013ffff73c253abd2fdb1445aec11e142a04", 37)


def test_small_alg1_family_unchanged():
    """alg1 from every originator of the 25 trees with n <= 400: this pins
    its overtime steps, which only originators below the root reach."""
    assert _family_digest("small-alg1") == (
        "4d3e9fafc31252348ab62ccee8080f13cb107a7fb97798744b354aae230b1d50", 2162)


def test_small_to_level_family_unchanged():
    """to_level to every level from every originator of the same trees:
    this pins the sibling pass's per-target scan in the originator's block
    and the blocks of carried targets, and its run rule everywhere else."""
    assert _family_digest("small-to_level") == (
        "1822c7d8ed87573ff140a89ef31d199a9382be0309446cc115b174f0f81be744", 7504)


def test_small_from_level_family_unchanged():
    """from_level from every level j and every originator of the same
    trees: the one procedure no other family covers whole."""
    assert _family_digest("small-from_level") == (
        "5e81c4a3a0ecc5a297a3e72d8bd945189709bd0213a18db6655e2b75870e85ef", 7504)


def test_wide_to_level_family_unchanged():
    """to_level to levels 1 and 2 from every originator at r = 2 and
    k = 9..16: the same pin past the grid's k <= 8."""
    assert _family_digest("wide-to_level") == (
        "a2ac51c5b4def6538b1229ac7c894838a3264a7ddc084eff4b06cee180d6c9e2", 2800)


def test_wide_relays_family_unchanged():
    """to_level to levels 3..r from the root, the vertex (1, k), the middle
    vertices of levels 2 and r-1 and the middle leaf, at r = 3 and
    k = 9..16 and at (9,4) and (10,4): the cousin and wider relays past
    the grid, where the run rule writes them a stretch at a time."""
    assert _family_digest("wide-relays") == (
        "257ecf36834bff71dabb7a4d026349c16c16d7558b8d3c2a4605181f65f2f3df", 52)


def test_schedule_digest_rejects_unknown_family():
    result = subprocess.run(
        [sys.executable, str(DIGEST_TOOL), "--family", "no-such-family"],
        capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert "no-such-family" in result.stderr


LAYER_TOOL = Path(__file__).resolve().parent.parent / "tools" / "layer_times.py"


def test_layer_times_traces_every_layer():
    """tools/layer_times.py wraps its layers by name, so it fails on a
    layer that is renamed or gone."""
    result = subprocess.run(
        [sys.executable, str(LAYER_TOOL), "--workload", "oracle", "--passes", "1"],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "_star_rounds" in result.stdout


def test_layer_times_pairs_two_checkouts():
    """--against DIR times DIR's program as well, on the same operations
    and alternating passes, and prints the median paired pass ratio."""
    result = subprocess.run(
        [sys.executable, str(LAYER_TOOL), "--workload", "oracle", "--passes", "1",
         "--against", "."],
        cwd=LAYER_TOOL.parent.parent, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "_star_rounds" in result.stdout
    assert "median paired pass ratio" in result.stdout


def test_root_lbckt_family_unchanged():
    """lbckt from the root at the 35 points of the acceptance grid."""
    assert _family_digest("root-lbckt") == (
        "9b8d08cf850d8da8eab71c306afbe9b615bafd820abff21a8398268261649590", 35)


def test_oracle_family_unchanged():
    """The optimal_cost witness from every originator of every tree with
    n <= 13, within ceil(log2 n) steps and within one and two more: the
    search's bound, fixed-destination pass and canonical codes must keep
    both the optima and the witnesses chosen."""
    assert _family_digest("oracle") == (
        "dc87d0032f698aad9e4cf80a3fb635f43c96014660d36d6d3b8cd62985ab6d0d", 108)
    assert _family_digest("oracle-budgets") == (
        "8bdb5dd2d6454d7975bf5f064d9479c1a3f9b7a7f8fdf3d59c83189ed461269d", 216)


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
        rep = validate(s, time_budget=ceil_log2(t.n))
        assert rep.ok
        assert [step for step, _ in rep.informed_timeline] == list(range(1, len(s.steps) + 1))
        for step, informed in rep.informed_timeline:
            assert informed <= 2**step


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
