"""Arithmetic model of a complete k-ary tree with breadth-first vertex ids.

No adjacency is stored: vertex_id and locate map (level, offset) pairs to
ids and back by index arithmetic, and climb walks breadth-first ids (the
parent of v is (v - 2) // k + 1), so a tree with tens of thousands of
vertices costs a few integers. Vertices are numbered 1..n in breadth-first order with the root at
id 1; offsets are 1-based inside each level. An edge is canonically
identified by the id of its deeper endpoint, which makes a path a plain list
of ints and per-step edge-disjointness a set intersection.

climb takes the step's used edges as well and gives up at the first one it
meets, so a schedule builder tests a candidate call while it climbs and
builds the path only of a call it can place; path is the same climb with
nothing to avoid.

A vertex is handed around as a VertexRef, a NamedTuple (level, offset, id)
that compares and hashes by value. Schedules store bare ids, and a
VertexRef is made on demand, by vertex_by_id, which searches the level of
an arbitrary id and checks its range, when a step's calls are read as
Call views.

k and r must be ints (a bool is not one): a float k would give a float n.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Container
from typing import NamedTuple

from .errors import (
    InvalidParams,
    OutOfRange,
    Overflow,
    SameVertex,
)

# ids are kept inside the signed 64-bit range so that JSON/CSV consumers in
# other runtimes can hold them losslessly
MAX_VERTICES = 2**63 - 1


class VertexRef(NamedTuple):
    """A vertex as (level, offset) plus its breadth-first id.

    It equals, and hashes as, the plain tuple (level, offset, id).
    """

    level: int
    offset: int
    id: int

    def __str__(self):
        return f"v({self.level},{self.offset})#{self.id}"


class CompleteKTree:
    """Complete k-ary tree of height r (root at level 0, leaves at level r)."""

    __slots__ = ("k", "r", "n", "_level_base")

    def __init__(self, k: int, r: int):
        for name, value in (("k", k), ("r", r)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidParams(f"{name} must be an int, got {value!r}")
        if k < 2 or r < 1:
            raise InvalidParams(f"need k >= 2 and r >= 1, got k={k}, r={r}")
        n = (k ** (r + 1) - 1) // (k - 1)
        if n > MAX_VERTICES:
            raise Overflow(f"n={n} exceeds the 64-bit id range")
        self.k = k
        self.r = r
        self.n = n
        # _level_base[j] + offset == id of the vertex (j, offset)
        self._level_base = [(k**j - 1) // (k - 1) for j in range(r + 1)]

    def __repr__(self):
        return f"CompleteKTree(k={self.k}, r={self.r}, n={self.n})"

    # -- identity ----------------------------------------------------------

    def level_size(self, level: int) -> int:
        if not 0 <= level <= self.r:
            raise OutOfRange(f"level {level} not in [0, {self.r}]")
        return self.k**level

    def vertex_id(self, level: int, offset: int) -> int:
        if not 0 <= level <= self.r:
            raise OutOfRange(f"level {level} not in [0, {self.r}]")
        if not 1 <= offset <= self.k**level:
            raise OutOfRange(f"offset {offset} not in [1, {self.k ** level}]")
        return self._level_base[level] + offset

    def locate(self, vid: int) -> tuple[int, int]:
        """Inverse of vertex_id: id -> (level, offset)."""
        if not 1 <= vid <= self.n:
            raise OutOfRange(f"id {vid} not in [1, {self.n}]")
        # the vertices above level j number _level_base[j]
        level = bisect_left(self._level_base, vid) - 1
        return level, vid - self._level_base[level]

    def vertex(self, level: int, offset: int) -> VertexRef:
        return VertexRef(level, offset, self.vertex_id(level, offset))

    def vertex_by_id(self, vid: int) -> VertexRef:
        level, offset = self.locate(vid)
        return VertexRef(level, offset, vid)

    @property
    def root(self) -> VertexRef:
        return VertexRef(0, 1, 1)

    # -- structure ---------------------------------------------------------

    def path(self, a: VertexRef, b: VertexRef) -> list[int]:
        """Edges of the unique simple path a -> b, as child ids in travel order."""
        return self.climb(a.id, b.id)

    def climb(self, x: int, y: int, avoid: Container[int] = ()) -> list[int] | None:
        """The path from id x to id y, or None if it uses an edge in avoid.

        A vertex's ancestors all have smaller ids, so while the two ids
        differ the larger one lies below the lowest common ancestor and
        climbs to its parent, (v - 2) // k + 1. The climb stops at the
        first edge it meets in avoid.
        """
        if not (0 < x <= self.n and 0 < y <= self.n):
            raise OutOfRange(f"path({x}, {y}): ids must be in [1, {self.n}]")
        if x == y:
            raise SameVertex(f"path({x}, {y}) is empty")
        k = self.k
        up: list[int] = []
        down: list[int] = []
        while x != y:
            if x > y:
                if x in avoid:
                    return None
                up.append(x)
                x = (x - 2) // k + 1
            else:
                if y in avoid:
                    return None
                down.append(y)
                y = (y - 2) // k + 1
        down.reverse()
        return up + down

    def level_vertices(self, j: int) -> list[VertexRef]:
        if not 0 <= j <= self.r:
            raise OutOfRange(f"level {j} not in [0, {self.r}]")
        base = self._level_base[j]
        return [VertexRef(j, off, base + off) for off in range(1, self.k**j + 1)]


def new(k: int, r: int) -> CompleteKTree:
    """Construct a complete k-ary tree of height r."""
    return CompleteKTree(k, r)
