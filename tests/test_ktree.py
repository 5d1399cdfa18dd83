"""Index arithmetic: identities, structure queries, paths."""

import pytest
from hypothesis import given, settings, strategies as st

from linebroadcast import CompleteKTree, VertexRef, new
from linebroadcast.errors import (
    InvalidParams,
    OutOfRange,
    Overflow,
    SameVertex,
)


def test_sizes():
    assert new(2, 2).n == 7
    assert new(3, 2).n == 13
    assert new(2, 1).n == 3


@pytest.mark.parametrize("k,r", [(1, 2), (0, 1), (2, 0), (5, -1)])
def test_invalid_params(k, r):
    with pytest.raises(InvalidParams):
        new(k, r)


@pytest.mark.parametrize("k,r", [(2.0, 1), (3, True), (True, 2), ("2", 1), (2, 1.0)],
                         ids=["float-k", "bool-r", "bool-k", "text-k", "float-r"])
def test_params_must_be_ints(k, r):
    # a float k would give a float n, and r = True a tree of height 1
    with pytest.raises(InvalidParams, match="must be an int"):
        CompleteKTree(k, r)


def test_overflow_guard():
    with pytest.raises(Overflow):
        new(2, 63)  # 2**64 - 1 vertices


def test_vertex_id():
    t2 = new(2, 2)
    assert t2.vertex_id(2, 3) == 6
    assert t2.vertex_id(0, 1) == 1
    t3 = new(3, 2)
    assert t3.vertex_id(1, 2) == 3
    with pytest.raises(OutOfRange):
        t2.vertex_id(3, 1)
    with pytest.raises(OutOfRange):
        t2.vertex_id(2, 5)


def test_locate():
    t = new(2, 2)
    assert t.locate(6) == (2, 3)
    assert t.locate(1) == (0, 1)
    assert t.locate(7) == (2, 4)
    with pytest.raises(OutOfRange):
        t.locate(8)
    with pytest.raises(OutOfRange):
        t.locate(0)
    for k, r in [(2, 4), (3, 3), (7, 2)]:
        t = new(k, r)
        ids = []
        for j in range(r + 1):
            for v in t.level_vertices(j):
                assert t.locate(v.id) == (v.level, v.offset)
                ids.append(v.id)
        assert ids == list(range(1, t.n + 1))


def test_path_examples():
    t = new(2, 2)
    v = t.vertex_by_id
    assert t.path(v(4), v(5)) == [4, 5]
    assert t.path(v(1), v(7)) == [3, 7]
    assert t.path(v(4), v(7)) == [4, 2, 3, 7]
    t3 = new(3, 2)
    v3 = t3.vertex_by_id
    assert t3.path(v3(5), v3(4)) == [5, 2, 4]
    assert t3.path(v3(13), v3(1)) == [13, 4]
    assert t3.path(v3(7), v3(8)) == [7, 2, 3, 8]
    with pytest.raises(SameVertex):
        t.path(v(4), v(4))


def test_path_rejects_out_of_range_ids():
    # id 0 is its own parent under the id climb, so an unchecked id never meets
    t = new(2, 2)
    for bad in (-1, 0, t.n + 1):
        stray = VertexRef(0, 1, bad)
        with pytest.raises(OutOfRange):
            t.path(stray, t.vertex_by_id(4))
        with pytest.raises(OutOfRange):
            t.path(t.vertex_by_id(4), stray)


def test_level_vertices():
    t2 = new(2, 2)
    assert [v.id for v in t2.level_vertices(2)] == [4, 5, 6, 7]
    assert [v.id for v in t2.level_vertices(0)] == [1]
    t3 = new(3, 2)
    assert [v.id for v in t3.level_vertices(1)] == [2, 3, 4]


def test_vertex_ref_is_an_immutable_value():
    t = new(2, 3)
    v = t.vertex_by_id(7)
    with pytest.raises(AttributeError):
        v.id = 8
    with pytest.raises(AttributeError):
        v.level = 0
    same = VertexRef(2, 4, 7)
    assert v == same and hash(v) == hash(same)
    assert v != VertexRef(2, 3, 6)
    assert len({v, same, t.vertex(2, 4)}) == 1


def test_vertex_ref_text():
    v = VertexRef(2, 3, 7)
    assert str(v) == "v(2,3)#7"
    assert repr(v) == "VertexRef(level=2, offset=3, id=7)"


# -- properties --------------------------------------------------------------

tree_params = st.tuples(st.integers(2, 6), st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(tree_params, st.data())
def test_roundtrip_bijection(params, data):
    k, r = params
    t = CompleteKTree(k, r)
    level = data.draw(st.integers(0, r))
    offset = data.draw(st.integers(1, k**level))
    vid = t.vertex_id(level, offset)
    assert t.locate(vid) == (level, offset)
    assert 1 <= vid <= t.n


def parent(t, v):
    """The parent of v by (level, offset) arithmetic."""
    return t.vertex(v.level - 1, (v.offset + t.k - 1) // t.k)


@settings(max_examples=60, deadline=None)
@given(tree_params, st.data())
def test_parent_child_consistency(params, data):
    # the (level, offset) parent and children agree with the ids: the path
    # from a vertex to its parent is the vertex's own edge
    k, r = params
    t = CompleteKTree(k, r)
    vid = data.draw(st.integers(2, t.n))
    v = t.vertex_by_id(vid)
    p = parent(t, v)
    assert p.level == v.level - 1
    assert t.path(v, p) == [v.id]
    first = (p.offset - 1) * k + 1
    assert v.id in [t.vertex_id(p.level + 1, first + s) for s in range(k)]


@settings(max_examples=60, deadline=None)
@given(tree_params, st.data())
def test_path_symmetry_and_length(params, data):
    k, r = params
    t = CompleteKTree(k, r)
    a = t.vertex_by_id(data.draw(st.integers(1, t.n)))
    b = t.vertex_by_id(data.draw(st.integers(1, t.n)))
    if a.id == b.id:
        return
    fwd = t.path(a, b)
    rev = t.path(b, a)
    assert fwd == rev[::-1]
    # reference: walk both ends up with parent to the lowest common
    # ancestor, collecting the edges on the way
    up, down = [], []
    x, y = a, b
    while x.level > y.level:
        up.append(x.id)
        x = parent(t, x)
    while y.level > x.level:
        down.append(y.id)
        y = parent(t, y)
    while x.id != y.id:
        up.append(x.id)
        down.append(y.id)
        x, y = parent(t, x), parent(t, y)
    assert fwd == up + down[::-1]
    # length equals level(a) + level(b) - 2 * level(lca)
    assert len(fwd) == a.level + b.level - 2 * x.level


@settings(max_examples=100, deadline=None)
@given(tree_params, st.data())
def test_climb_is_path_unless_it_meets_avoid(params, data):
    k, r = params
    t = CompleteKTree(k, r)
    a = data.draw(st.integers(1, t.n))
    b = data.draw(st.integers(1, t.n).filter(lambda y: y != a))
    path = t.path(t.vertex_by_id(a), t.vertex_by_id(b))
    # random edges, and sometimes edges of the path itself
    avoid = data.draw(st.sets(st.integers(2, t.n), max_size=6))
    avoid |= set(data.draw(st.lists(st.sampled_from(path), max_size=2)))
    got = t.climb(a, b, avoid)
    if avoid.isdisjoint(path):
        assert got == path
    else:
        assert got is None


@settings(max_examples=60, deadline=None)
@given(tree_params, st.data())
def test_climb_raises_as_path_does(params, data):
    k, r = params
    t = CompleteKTree(k, r)
    x = data.draw(st.integers(-1, t.n + 1))
    y = data.draw(st.sampled_from([x, 1, t.n, t.n + 1, data.draw(st.integers(-1, t.n + 1))]))
    avoid = data.draw(st.sets(st.integers(2, t.n), max_size=4))

    def outcome(fn):
        try:
            fn()
        except (OutOfRange, SameVertex) as exc:
            return type(exc)
        return None

    expected = outcome(lambda: t.path(VertexRef(0, 1, x), VertexRef(0, 1, y)))
    if not (0 < x <= t.n and 0 < y <= t.n):
        assert expected is OutOfRange
    elif x == y:
        assert expected is SameVertex
    assert outcome(lambda: t.climb(x, y, avoid)) is expected
    assert outcome(lambda: t.climb(x, y)) is expected


@settings(max_examples=30, deadline=None)
@given(tree_params)
def test_levels_partition(params):
    k, r = params
    t = CompleteKTree(k, r)
    assert sum(len(t.level_vertices(j)) for j in range(r + 1)) == t.n
