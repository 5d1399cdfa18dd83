"""Schedule model and validator behaviour."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from linebroadcast import (Call, Schedule, Step, ViolationKind, alg1, alg2, alg3,
                           lbckt, new, validate)


def star3():
    return new(2, 1)


def call(tree, a, b):
    return Call(tree.vertex_by_id(a), tree.vertex_by_id(b), tuple(tree.climb(a, b)))


def test_builder():
    t = star3()
    s = Schedule(t, t.root, "demo")
    s.append_step([call(t, 1, 2)])
    assert len(s.steps) == 1
    s.append_step([])
    assert len(s.steps) == 2 and s.steps[1].calls == []
    s.append_step([call(t, 2, 3)])
    assert len(s.steps) == 3
    assert s.steps[2].calls[0].cost == 2  # 2 -> 3 relays through the root


def test_validate_ok_and_timeline():
    t = star3()
    s = Schedule(t, t.root, "demo")
    s.append_step([call(t, 1, 2)])
    s.append_step([call(t, 1, 3)])
    rep = validate(s)
    assert rep.ok
    assert rep.informed_timeline == [(1, 2), (2, 3)]


def test_validate_double_receive_and_edge_conflict():
    t = star3()
    s = Schedule(t, t.root, "demo")
    s.append_step([call(t, 1, 2)])
    s.append_step([call(t, 2, 3), call(t, 1, 3)])
    rep = validate(s)
    assert not rep.ok
    kinds = {(v.step, v.kind) for v in rep.violations}
    assert (2, ViolationKind.DOUBLE_RECEIVE) in kinds
    assert (2, ViolationKind.EDGE_CONFLICT) in kinds
    assert len(rep.violations) == 2


@pytest.mark.parametrize("path2,path3", [((), ()), ((3,), (2,))])
def test_validate_path_mismatch(path2, path3):
    # empty paths, or single-edge paths swapped between the two calls
    t = star3()
    s = Schedule(t, t.root, "demo")
    s.append_step([Call(t.root, t.vertex_by_id(2), path2)])
    s.append_step([Call(t.root, t.vertex_by_id(3), path3)])
    rep = validate(s)
    assert [(v.step, v.kind) for v in rep.violations] == [
        (1, ViolationKind.PATH_MISMATCH), (2, ViolationKind.PATH_MISMATCH)]


def test_validate_uninformed_source():
    t = star3()
    s = Schedule(t, t.root, "demo")
    s.append_step([call(t, 2, 3)])
    rep = validate(s)
    kinds = {v.kind for v in rep.violations}
    assert ViolationKind.UNINFORMED_SOURCE in kinds
    assert ViolationKind.INCOMPLETE_COVERAGE in kinds  # vertex 2 never informed


def test_validate_multi_send_and_budget():
    t = new(2, 2)
    s = Schedule(t, t.root, "demo")
    s.append_step([call(t, 1, 2), call(t, 1, 3)])
    rep = validate(s)
    assert ViolationKind.MULTI_SEND in {v.kind for v in rep.violations}

    s2 = Schedule(t, t.root, "demo")
    for dst in (2, 3, 4, 5, 6, 7):
        s2.append_step([call(t, 1, dst)])
    rep2 = validate(s2, time_budget=3)
    assert ViolationKind.TIME_BUDGET_EXCEEDED in {v.kind for v in rep2.violations}


def test_total_cost_and_time():
    t = star3()
    s = Schedule(t, t.root, "demo")
    s.append_step([call(t, 1, 2)])
    s.append_step([call(t, 1, 3)])
    assert s.total_cost() == 2
    assert s.total_time() == 2

    empty = Schedule(t, t.root, "demo")
    assert empty.total_cost() == 0
    assert empty.total_time() == 0

    leaf = Schedule(t, t.vertex_by_id(2), "demo")
    leaf.append_step([call(t, 2, 1)])
    leaf.append_step([call(t, 1, 3)])
    assert leaf.total_cost() == 2
    assert validate(leaf).ok


def test_validator_is_pure():
    t = star3()
    s = Schedule(t, t.root, "demo")
    s.append_step([call(t, 1, 2)])
    s.append_step([call(t, 2, 3), call(t, 1, 3)])
    first = validate(s)
    second = validate(s)
    assert first == second


def test_unit_cost_edge_naming_consistency():
    # every unit-cost call's single edge is named by its destination, so a
    # step of unit calls is edge-disjoint exactly when destinations differ
    t = new(3, 1)
    s = Schedule(t, t.root, "demo")
    s.append_step([call(t, 1, 2)])
    s.append_step([call(t, 1, 3), call(t, 2, 4)])
    rep = validate(s)
    assert rep.ok
    for step in s.steps:
        for c in step.calls:
            if c.cost == 1:
                assert c.path == (c.dst.id,)


def test_call_is_an_immutable_value():
    t = new(2, 2)
    c = call(t, 4, 7)
    with pytest.raises(AttributeError):
        c.path = (4,)
    with pytest.raises(AttributeError):
        c.src = t.root
    same = Call(t.vertex_by_id(4), t.vertex_by_id(7), (4, 2, 3, 7))
    assert c == same and hash(c) == hash(same)
    assert len({c, same}) == 1
    assert c != call(t, 4, 6)


def test_call_text_and_cost():
    t = new(2, 2)
    c = call(t, 4, 7)
    assert c.cost == 4
    assert str(c) == "4->7"
    assert repr(c) == (
        "Call(src=VertexRef(level=2, offset=1, id=4), "
        "dst=VertexRef(level=2, offset=4, id=7), path=(4, 2, 3, 7))")
    assert Call(t.root, t.vertex_by_id(2), ()).cost == 0


def test_validate_accepts_a_list_path():
    t = new(2, 2)
    s = Schedule(t, t.vertex_by_id(4), "demo")
    s.append_step([Call(t.vertex_by_id(4), t.vertex_by_id(7), [4, 2, 3, 7])])
    s.append_step([Call(t.vertex_by_id(4), t.vertex_by_id(5), [4, 5]),
                   Call(t.vertex_by_id(7), t.vertex_by_id(6), [7, 6])])
    s.append_step([Call(t.vertex_by_id(4), t.vertex_by_id(2), [4]),
                   Call(t.vertex_by_id(7), t.vertex_by_id(3), [7]),
                   Call(t.vertex_by_id(5), t.vertex_by_id(1), [5, 2])])
    rep = validate(s)
    assert rep.ok, rep.violations
    assert rep.informed_timeline == [(1, 2), (2, 4), (3, 7)]


def test_validate_reports_each_shared_edge():
    # 4 -> 7 and 5 -> 6 both cross edges 2 and 3
    t = new(2, 2)
    s = Schedule(t, t.root, "demo")
    s.append_step([call(t, 4, 7), call(t, 5, 6)])
    rep = validate(s, assume_informed={4, 5})
    assert [(v.step, v.kind, v.detail) for v in rep.violations] == [
        (1, ViolationKind.EDGE_CONFLICT, "edge child-2 used twice"),
        (1, ViolationKind.EDGE_CONFLICT, "edge child-3 used twice"),
        (None, ViolationKind.INCOMPLETE_COVERAGE,
         "2 vertices never informed (first: [2, 3])"),
    ]


def test_validate_names_the_first_five_missing_ids():
    t = new(2, 3)
    s = Schedule(t, t.root, "demo")
    s.append_step([call(t, 1, 3)])
    s.append_step([call(t, 3, 7), call(t, 1, 2)])
    rep = validate(s)
    assert [(v.step, v.kind, v.detail) for v in rep.violations] == [
        (None, ViolationKind.INCOMPLETE_COVERAGE,
         "11 vertices never informed (first: [4, 5, 6, 8, 9])")]


# -- array-backed steps --------------------------------------------------------

def test_step_packs_calls_and_reads_them_back():
    t = new(2, 2)
    calls = [call(t, 1, 2), Call(t.vertex_by_id(4), t.vertex_by_id(7), [4, 2, 3, 7])]
    s = Schedule(t, t.root, "demo")
    s.append_step(calls)
    step = s.steps[0]
    assert (len(step), step.cost()) == (2, 5)
    assert list(step.src) == [1, 4] and list(step.dst) == [2, 7]
    assert list(step.ends) == [1, 5] and list(step.edges) == [2, 4, 2, 3, 7]
    assert list(step.id_calls()) == [(1, 2, [2]), (4, 7, [4, 2, 3, 7])]
    # the views give every path as a tuple
    assert step.calls == list(step) == [calls[0], calls[1]._replace(path=(4, 2, 3, 7))]


def test_append_step_shares_a_built_step():
    t = new(2, 1)
    built = Step(t)
    built.add(1, 2, (2,))
    s = Schedule(t, t.root, "demo")
    s.append_step(built).append_step(built)
    assert s.steps == [built, built] and s.steps[0] is built
    assert s.total_cost() == 2 and s.total_time() == 2


# three sibling relays at (3,2), two edges each
RELAYS = [(5, 6, [5, 6]), (8, 9, [8, 9]), (11, 12, [11, 12])]


def relay_step():
    step = Step(new(3, 2))
    for src, dst, path in RELAYS:
        step.add(src, dst, path)
    return step


def test_step_copy_leaves_the_original_unchanged():
    step = relay_step()
    copy = step.copy()
    assert copy == step and copy.tree is step.tree
    copy.add(2, 7, [7])
    copy.replace_call(0, 3, 10, [10])
    copy.replace_call(2, 7, 13, [7, 2, 4, 13])
    assert list(copy.id_calls()) == [
        (3, 10, [10]), RELAYS[1], (7, 13, [7, 2, 4, 13]), (2, 7, [7])]
    assert list(step.id_calls()) == RELAYS
    assert (len(step), step.cost(), list(step.ends)) == (3, 6, [2, 4, 6])


@pytest.mark.parametrize("at", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("new_call", [
    (3, 10, [10]), (12, 13, [12, 13]), (7, 13, [7, 2, 4, 13]),
], ids=["shorter", "equal", "longer"])
def test_replace_call_shifts_only_later_ends(at, new_call):
    step = relay_step()
    step.replace_call(at, *new_call)
    assert list(step.id_calls()) == RELAYS[:at] + [new_call] + RELAYS[at + 1:]
    shift = len(new_call[2]) - 2
    assert list(step.ends) == [2, 4, 6][:at] + [e + shift for e in [2, 4, 6][at:]]
    assert (len(step), step.cost()) == (3, 6 + shift)


def test_pass_writes_match_call_by_call_adds():
    """A pass written whole lands after the calls already in the step, as
    the same calls added one by one would."""
    whole, single = relay_step(), relay_step()
    whole.add_child_calls([1, 2], [3, 6])
    whole.add_relays([[5, 8], [6, 10]])
    whole.add_child_calls([], [])
    whole.add_relays([[], []])
    whole.add_relays([[5, 9], [2, 3], [4, 2], [11, 6]])
    for src, dst, path in [(1, 3, [3]), (2, 6, [6]), (5, 6, [5, 6]), (8, 10, [8, 10]),
                           (5, 11, [5, 2, 4, 11]), (9, 6, [9, 3, 2, 6])]:
        single.add(src, dst, path)
    assert whole == single
    assert list(whole.ends) == [2, 4, 6, 7, 8, 10, 12, 16, 20]


def test_schedules_compare_by_value():
    t = new(3, 2)
    u = t.vertex_by_id(5)
    assert alg3(t, u) == alg3(t, u)
    assert alg3(t, u) != alg1(t, u)
    hand = Schedule(t, t.root, "demo").append_step([call(t, 1, 2)])
    assert hand == Schedule(t, t.root, "demo").append_step([call(t, 1, 2)])
    assert hand != Schedule(t, t.root, "demo").append_step([call(t, 1, 3)])


@pytest.mark.parametrize("builder", [alg1, alg2, alg3], ids=["alg1", "alg2", "alg3"])
def test_step_views_carry_levels_and_offsets(builder):
    # every vertex but the originator is some call's destination, and the
    # originator is a source: each view's level and offset are checked
    # against the level's leftmost id, derived here
    t = new(3, 3)
    first = [(3**j - 1) // 2 + 1 for j in range(4)]
    u = t.vertex_by_id(7)
    s = builder(t, u)
    refs = []
    for step in s.steps:
        views = step.calls
        assert [(c.src.id, c.dst.id, list(c.path)) for c in views] == list(step.id_calls())
        refs += [ref for c in views for ref in (c.src, c.dst)]
    assert {ref.id for ref in refs} == set(range(1, t.n + 1))
    for ref in refs:
        level = max(j for j in range(4) if first[j] <= ref.id)
        assert (ref.level, ref.offset) == (level, ref.id - first[level] + 1)


def one_violation(t, origin, steps):
    s = Schedule(t, t.vertex_by_id(origin), "demo")
    for step in steps:
        s.append_step([Call(t.vertex_by_id(a), t.vertex_by_id(d), path)
                       for a, d, path in step])
    return [(v.step, v.kind, v.detail) for v in validate(s).violations]


@pytest.mark.parametrize("k,r,origin,steps,bad", [
    # the edge 1 -> 2 named by its upper end
    (2, 1, 1, [[(1, 2, (1,))], [(1, 3, (3,))]], (1, "1->2")),
    # the edge 4 -> 2, crossed upward, named by its upper end
    (2, 2, 4, [[(4, 2, (2,))], [(4, 5, (4, 5)), (2, 1, (2,))], [(1, 6, (3, 6))],
               [(6, 3, (6,)), (1, 7, (3, 7))]], (1, "4->2")),
    # the sibling relay 2 -> 3 written from the far end
    (2, 1, 1, [[(1, 2, (2,))], [(2, 3, (3, 2))]], (2, "2->3")),
    # 4 and 6 are cousins, not siblings: their path is 4, 2, 3, 6
    (2, 2, 4, [[(4, 6, (4, 6))], [(4, 2, (4,)), (6, 3, (6,))],
               [(2, 1, (2,)), (3, 7, (7,)), (4, 5, (4, 5))]], (1, "4->6")),
    # a call to the root crosses the caller's edge
    (2, 1, 2, [[(2, 1, (1,))], [(1, 3, (3,))]], (1, "2->1")),
    # the last two edges of 4 -> 6, as if 4 were 6's grandparent
    (2, 2, 4, [[(4, 6, (3, 6))], [(4, 2, (4,)), (6, 3, (6,))],
               [(2, 1, (2,)), (3, 7, (7,)), (4, 5, (4, 5))]], (1, "4->6")),
    # the first two edges of 4 -> 3, as if 3 were 4's grandparent
    (2, 2, 4, [[(4, 3, (4, 2))], [(4, 2, (4,)), (3, 6, (6,))],
               [(2, 1, (2,)), (3, 7, (7,)), (4, 5, (4, 5))]], (1, "4->3")),
], ids=["one-edge-upper-end", "one-edge-up-upper-end", "sibling-reversed", "cousins",
        "root-call",
        "not-a-grandchild", "not-a-grandparent"])
def test_validate_flags_a_wrong_short_path(k, r, origin, steps, bad):
    step, label = bad
    assert one_violation(new(k, r), origin, steps) == [
        (step, ViolationKind.PATH_MISMATCH, f"call {label} does not travel the tree path")]


def test_validate_accepts_every_short_path_shape():
    # up one edge, up two (4 -> 1), down two (1 -> 6), a sibling relay, and
    # a four-edge path that is climbed
    t = new(2, 2)
    assert one_violation(t, 4, [
        [(4, 1, (4, 2))],
        [(1, 6, (3, 6)), (4, 5, (4, 5))],
        [(4, 2, (4,)), (6, 3, (6,)), (5, 7, (5, 2, 3, 7))],
    ]) == []


@pytest.mark.parametrize("origin,steps,kinds", [
    # 4 -> 2 down to 8 and back up the same edge, and 8 -> 9 then needs
    # edge 8 too
    (4, [[(4, 8, (8,))], [(4, 2, (8, 8, 4)), (8, 9, (8, 9))]],
     [ViolationKind.PATH_MISMATCH, ViolationKind.EDGE_CONFLICT]),
    # down past the leaves, to 16 of a 15-vertex tree, and back
    (8, [[(8, 2, (16, 16, 8, 4))]], [ViolationKind.PATH_MISMATCH]),
    # up to 4, down to 9, then on to 18, outside the tree
    (8, [[(8, 9, (8, 9, 18))]], [ViolationKind.PATH_MISMATCH]),
    # the tree path 8 -> 10 with its middle edges swapped
    (8, [[(8, 10, (8, 5, 4, 10))]], [ViolationKind.PATH_MISMATCH]),
    # up from the root along an edge 1 it does not have, and back
    (1, [[(1, 2, (1, 0, 1, 2))]], [ViolationKind.PATH_MISMATCH]),
], ids=["doubles-back", "leaves-and-returns", "leaves-the-tree", "swapped-edges",
        "above-the-root"])
def test_validate_walks_a_long_path(origin, steps, kinds):
    """At (2,3) a path of three or more edges is walked from its source;
    one that turns back on an edge, leaves the tree or ends elsewhere is
    not the tree path."""
    found = one_violation(new(2, 3), origin, steps)
    assert [kind for step, kind, _ in found if step == len(steps)] == kinds


def reference_path(k, a, b):
    """The a -> b path from both ends' ancestor lists, edges named by child."""
    def ancestors(v):
        out = [v]
        while v > 1:
            v = (v - 2) // k + 1
            out.append(v)
        return out
    up, down = ancestors(a), ancestors(b)
    meet = next(v for v in up if v in down)
    return up[:up.index(meet)] + down[:down.index(meet)][::-1]


def reference_violations(k, n, origin, steps):
    """(step, kind) of every violation, the model's rules applied one call
    at a time, in validate's order."""
    out = []
    informed = {origin}
    for t, step in enumerate(steps, 1):
        senders, receivers, edges = set(), set(), set()
        for s, d, path in step:
            if s not in informed:
                out.append((t, ViolationKind.UNINFORMED_SOURCE))
            if d in informed:
                out.append((t, ViolationKind.DOUBLE_RECEIVE))
            if s in senders:
                out.append((t, ViolationKind.MULTI_SEND))
            if d in receivers:
                out.append((t, ViolationKind.DOUBLE_RECEIVE))
            senders.add(s)
            receivers.add(d)
            if s != d and list(path) != reference_path(k, s, d):
                out.append((t, ViolationKind.PATH_MISMATCH))
            out += [(t, ViolationKind.EDGE_CONFLICT) for e in path if e in edges]
            edges.update(path)
        informed |= receivers
    if not informed >= set(range(1, n + 1)):
        out.append((None, ViolationKind.INCOMPLETE_COVERAGE))
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_validate_matches_a_reference_check(data):
    k = data.draw(st.integers(2, 4), label="k")
    r = data.draw(st.integers(1, 3 if k < 4 else 2), label="r")
    t = new(k, r)
    origin = data.draw(st.integers(1, t.n), label="originator")
    builder = data.draw(st.sampled_from([alg1, alg2, alg3]), label="builder")
    sched = builder(t, t.vertex_by_id(origin))
    assert validate(sched).ok
    steps = [list(step.id_calls()) for step in sched.steps]

    # change one call's path, destination or source
    ti = data.draw(st.sampled_from([i for i, step in enumerate(steps) if step]))
    ci = data.draw(st.integers(0, len(steps[ti]) - 1))
    s, d, path = steps[ti][ci]
    what = data.draw(st.sampled_from(["path", "dst", "src"]), label="change")
    if what == "path":
        # short wrong paths of the right shape come from the tree path to
        # another destination or from another source
        path = data.draw(st.one_of(
            st.just(path[::-1]), st.just(path[:-1]), st.just(path + [path[0]]),
            st.lists(st.integers(1, t.n), max_size=4),
            st.integers(1, t.n).map(lambda v: reference_path(k, s, v)),
            st.integers(1, t.n).map(lambda v: reference_path(k, v, d))), label="path")
    elif what == "dst":
        d = data.draw(st.integers(1, t.n).filter(lambda v: v != d), label="dst")
    else:
        s = data.draw(st.integers(1, t.n).filter(lambda v: v != s), label="src")
    steps[ti][ci] = (s, d, path)

    changed = Schedule(t, t.vertex_by_id(origin), "changed")
    for step in steps:
        changed.append_step([Call(t.vertex_by_id(a), t.vertex_by_id(b), tuple(p))
                             for a, b, p in step])
    got = [(v.step, v.kind) for v in validate(changed).violations]
    assert got == reference_violations(k, t.n, origin, steps)


def test_root_schedule_holds_at_most_100_bytes_per_call():
    # the memory freed by deleting the schedule, as tracemalloc counts it:
    # the arrays hold ~50 bytes a call, where a Call with two VertexRefs
    # and a path tuple per call takes ~430
    t = new(2, 12)
    tracemalloc.start()
    try:
        sched = lbckt(t, t.root)[0]
        calls = sum(len(step) for step in sched.steps)
        held = tracemalloc.get_traced_memory()[0]
        del sched
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert calls == t.n - 1
    assert held / calls <= 100
