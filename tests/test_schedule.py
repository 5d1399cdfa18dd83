"""Schedule model and validator behaviour."""

import pytest

from linebroadcast import Call, Schedule, ViolationKind, make_call, new, validate
from linebroadcast.errors import OutOfRange


def star3():
    return new(2, 1)


def call(tree, a, b):
    return make_call(tree, tree.vertex_by_id(a), tree.vertex_by_id(b))


def test_builder():
    t = star3()
    s = Schedule(t, t.root, "demo")
    s.append_step([call(t, 1, 2)])
    assert len(s.steps) == 1
    s.append_step([])
    assert len(s.steps) == 2 and s.steps[1].calls == []
    s.append_step([call(t, 2, 3)])
    assert s.steps[2].t == 3
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


def test_informed_after():
    t = star3()
    s = Schedule(t, t.root, "demo")
    s.append_step([call(t, 1, 2)])
    s.append_step([call(t, 1, 3)])
    assert s.informed_after(0) == {1}
    assert s.informed_after(1) == {1, 2}
    assert s.informed_after(2) == {1, 2, 3}
    with pytest.raises(OutOfRange):
        s.informed_after(3)


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
