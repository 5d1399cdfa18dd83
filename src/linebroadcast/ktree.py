"""Arithmetic model of a complete k-ary tree with breadth-first vertex ids.

No adjacency is stored: every structural query (parent, children, ancestor,
path) is pure index arithmetic on (level, offset) pairs, so a tree with tens
of thousands of vertices costs a few integers. Vertices are numbered 1..n in
breadth-first order with the root at id 1; offsets are 1-based inside each
level. An edge is canonically identified by the id of its deeper endpoint,
which makes a path a plain list of ints and per-step edge-disjointness a set
intersection.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InvalidParams,
    LeafHasNoChildren,
    OutOfRange,
    Overflow,
    RootHasNoParent,
    SameVertex,
)

# ids are kept inside the signed 64-bit range so that JSON/CSV consumers in
# other runtimes can hold them losslessly
MAX_VERTICES = 2**63 - 1


@dataclass(frozen=True)
class VertexRef:
    """A vertex as (level, offset) plus its breadth-first id."""

    level: int
    offset: int
    id: int

    def __str__(self):
        return f"v({self.level},{self.offset})#{self.id}"


class CompleteKTree:
    """Complete k-ary tree of height r (root at level 0, leaves at level r)."""

    __slots__ = ("k", "r", "n", "_level_base")

    def __init__(self, k: int, r: int):
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
        level = self.r
        for j in range(self.r + 1):
            if vid <= self._level_base[j] + self.k**j:
                level = j
                break
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

    def parent(self, v: VertexRef) -> VertexRef:
        if v.level == 0:
            raise RootHasNoParent("the root has no parent")
        return self.vertex(v.level - 1, (v.offset + self.k - 1) // self.k)

    def children(self, v: VertexRef) -> list[VertexRef]:
        if v.level >= self.r:
            raise LeafHasNoChildren(f"{v} is a leaf")
        first = (v.offset - 1) * self.k + 1
        return [self.vertex(v.level + 1, first + s) for s in range(self.k)]

    def ancestor_at_level(self, v: VertexRef, target_level: int) -> VertexRef:
        if not 0 <= target_level <= v.level:
            raise OutOfRange(f"target level {target_level} not in [0, {v.level}]")
        if target_level == v.level:
            return v
        span = self.k ** (v.level - target_level)
        return self.vertex(target_level, (v.offset - 1) // span + 1)

    def path(self, a: VertexRef, b: VertexRef) -> list[int]:
        """Edges of the unique simple path a -> b, as child ids in travel order."""
        if a.id == b.id:
            raise SameVertex(f"path({a}, {b}) is empty")
        up: list[int] = []
        down: list[int] = []
        x, y = a, b
        while x.level > y.level:
            up.append(x.id)
            x = self.parent(x)
        while y.level > x.level:
            down.append(y.id)
            y = self.parent(y)
        while x.id != y.id:
            up.append(x.id)
            x = self.parent(x)
            down.append(y.id)
            y = self.parent(y)
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
