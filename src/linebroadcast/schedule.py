"""Line-broadcast schedules and the constraint validator.

A schedule is an ordered list of steps; each step holds the calls placed in
one time unit. A call travels the unique tree path between its source and
destination and costs one unit per edge. In any single step the paths of all
calls must be pairwise edge-disjoint, every source must already hold the
message, and every destination must not.

Model conventions:
  * A destination becomes informed at the END of its step, so it may not
    source or re-receive inside that step. It may still serve as a relay
    vertex on another call's path: only edges are exclusive, vertices are
    not.
  * Re-informing an already informed vertex is a violation, not a warning.
  * Empty steps are retained but do not count toward total_time.

A step is stored as four parallel arrays of signed 64-bit ints: the calls'
source ids, their destination ids, the offset where each call's path ends
in a flat edge buffer, and that buffer. A schedule of n vertices holds
n - 1 calls, and this way it keeps no object per call. The builders append
ids straight to a step (Step.add, or the same appends written out), and
write a whole pass of one-edge calls to children, relays between
vertices of one level, an edge at a time, or calls along given paths at
once (Step.add_child_calls, Step.add_relays, Step.add_calls); a call
already placed changes only through Step.replace_call, on the step itself
or on a Step.copy. A Call, the NamedTuple (src, dst, path) of two
VertexRefs and the edge ids in travel order, is a view: iterating a step,
or Step.calls, builds one per call on demand, and Schedule.append_step
packs a list of hand-made Calls into the arrays.

The validator is a total pass: it reports every violation it finds instead
of stopping at the first one. It checks a step whole, with set operations
on its id arrays: its sources are informed, its destinations are not, and
no source, destination or edge appears twice. It checks each path against
the tree by arithmetic where the path is short, a one-edge path (child,)
between a vertex and its parent and a two-edge path (caller, sibling) under
a shared parent or a climb through a grandparent, and walks a path of
three or more edges from its source, edge by edge, to its destination
(_off_path). Only a step that fails a check is walked call by call, to
report each violation in order.
"""

from __future__ import annotations

import enum
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice
from typing import NamedTuple

from .ktree import CompleteKTree, VertexRef


class Call(NamedTuple):
    """One transmission: source, destination and the edge path between them."""

    src: VertexRef
    dst: VertexRef
    path: tuple[int, ...]

    @property
    def cost(self) -> int:
        return len(self.path)

    def __str__(self):
        return f"{self.src.id}->{self.dst.id}"


class Step:
    """The calls of one time unit, as parallel arrays.

    src[i] and dst[i] are call i's end ids, and its path is
    edges[ends[i - 1]:ends[i]] (from 0 for the first call). Its number is
    its position in its schedule, from 1. Iterating a step gives its calls
    as Call views, made with the tree's levels and offsets.
    """

    __slots__ = ("tree", "src", "dst", "ends", "edges")

    def __init__(self, tree: CompleteKTree):
        self.tree = tree
        self.src = array("q")
        self.dst = array("q")
        self.ends = array("q")
        self.edges = array("q")

    def add(self, src: int, dst: int, path: Iterable[int]) -> None:
        """Record the call from id src to id dst along path."""
        self.src.append(src)
        self.dst.append(dst)
        self.edges.extend(path)
        self.ends.append(len(self.edges))

    def add_child_calls(self, parents: list[int], children: list[int]) -> None:
        """Record the calls parents[i] -> children[i], each along the child's
        own edge, (children[i],)."""
        at = len(self.edges)
        self.src.fromlist(parents)
        self.dst.fromlist(children)
        self.ends.fromlist(list(range(at + 1, at + len(children) + 1)))
        self.edges.fromlist(children)

    def add_relays(self, paths: list[list[int]]) -> None:
        """Record the calls along paths of one length, given an edge at a
        time: call i runs along (paths[0][i], ..., paths[-1][i]), from
        paths[0][i] to paths[-1][i], as a relay between two vertices of
        one level does, up from the caller's edge and down to the
        target's. With two lists the calls are sibling relays through
        their common parent."""
        width = len(paths)
        flat = [0] * (width * len(paths[0]))
        for i, column in enumerate(paths):
            flat[i::width] = column
        at = len(self.edges)
        self.src.fromlist(paths[0])
        self.dst.fromlist(paths[-1])
        self.ends.fromlist(list(range(at + width, at + len(flat) + 1, width)))
        self.edges.fromlist(flat)

    def add_calls(self, srcs: list[int], dsts: list[int],
                  paths: list[tuple[int, ...]]) -> None:
        """Record the calls srcs[i] -> dsts[i] along paths[i]."""
        self.src.fromlist(srcs)
        self.dst.fromlist(dsts)
        self.ends.extend(islice(accumulate(map(len, paths), initial=len(self.edges)), 1, None))
        self.edges.extend(chain.from_iterable(paths))

    def copy(self) -> "Step":
        """A step with copies of the arrays, to change without changing this one."""
        out = Step(self.tree)
        out.src, out.dst, out.ends, out.edges = (
            self.src[:], self.dst[:], self.ends[:], self.edges[:])
        return out

    def replace_call(self, at: int, src: int, dst: int, path: Iterable[int]) -> None:
        """Make call number at the call from id src to id dst along path; the
        path ends of the calls after it shift by the change in length."""
        start = self.ends[at - 1] if at else 0
        end = self.ends[at]
        self.src[at], self.dst[at] = src, dst
        self.edges[start:end] = array("q", path)
        shift = len(self.edges) - self.ends[-1]
        if shift:
            self.ends[at:] = array("q", [e + shift for e in self.ends[at:]])

    def __len__(self) -> int:
        return len(self.src)

    def cost(self) -> int:
        return len(self.edges)

    def id_calls(self) -> Iterator[tuple[int, int, list[int]]]:
        """(source id, destination id, path) per call, read from the arrays."""
        flat = self.edges.tolist()
        start = 0
        for s, d, end in zip(self.src, self.dst, self.ends):
            yield s, d, flat[start:end]
            start = end

    def __iter__(self) -> Iterator[Call]:
        ref = self.tree.vertex_by_id
        for s, d, path in self.id_calls():
            yield Call(ref(s), ref(d), tuple(path))

    @property
    def calls(self) -> list[Call]:
        return list(self)

    def __eq__(self, other):
        if not isinstance(other, Step):
            return NotImplemented
        return ((self.src, self.dst, self.ends, self.edges)
                == (other.src, other.dst, other.ends, other.edges))

    __hash__ = None  # the arrays can change

    def __repr__(self):
        return f"Step(calls={len(self)}, cost={self.cost()})"


class ViolationKind(str, enum.Enum):
    EDGE_CONFLICT = "EdgeConflict"
    UNINFORMED_SOURCE = "UninformedSource"
    DOUBLE_RECEIVE = "DoubleReceive"
    MULTI_SEND = "MultiSend"
    INCOMPLETE_COVERAGE = "IncompleteCoverage"
    TIME_BUDGET_EXCEEDED = "TimeBudgetExceeded"
    PATH_MISMATCH = "PathMismatch"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class Violation:
    step: int | None
    kind: ViolationKind
    detail: str


@dataclass
class ValidationReport:
    ok: bool
    violations: list[Violation]
    informed_timeline: list[tuple[int, int]]


@dataclass
class Schedule:
    """An ordered sequence of call steps from a single originator."""

    tree: CompleteKTree
    originator: VertexRef
    algorithm_tag: str = ""
    steps: list[Step] = field(default_factory=list)
    deviations: list[str] = field(default_factory=list)

    def append_step(self, calls: Step | Iterable[Call]) -> "Schedule":
        """Append one step (no validation happens here; see validate).

        A Step built elsewhere is appended itself, not copied; hand-made
        Calls are packed into a new one.
        """
        step = calls
        if not isinstance(step, Step):
            step = Step(self.tree)
            for c in calls:
                step.add(c.src.id, c.dst.id, c.path)
        self.steps.append(step)
        return self

    def total_cost(self) -> int:
        return sum(len(s.edges) for s in self.steps)

    def total_time(self) -> int:
        """Number of non-empty steps."""
        return sum(1 for s in self.steps if len(s))


def _off_path(tree: CompleteKTree, src: list[int], dst: list[int],
              ends: list[int], flat: list[int]) -> Iterator[int]:
    """The index of each call whose path is not the tree path between its
    ends; a call to itself has no path and is not listed.

    Ids are parents by arithmetic, (v - 2) // k + 1: a one-edge path is the
    deeper end's edge, and a two-edge path joins two siblings under their
    parent or climbs through a grandparent. A longer path is walked from
    the source: up along edge e when e is the current vertex, down along e
    when e's parent is, never along the edge just taken, and it must end
    at the destination. A walk in a tree that never turns back on itself
    is the simple path between its ends, so this accepts exactly the tree
    path. The root has no edge above it; a walk that leaves the tree
    downward cannot come back without turning back. Empty paths are
    climbed, and so is a call with an id outside the tree, for the climb
    to raise OutOfRange.
    """
    k, n, climb = tree.k, tree.n, tree.climb
    start = 0
    for i, (s, d, end) in enumerate(zip(src, dst, ends)):
        size = end - start
        if s == d:
            ok = True
        elif size == 0 or not (0 < s <= n and 0 < d <= n):
            ok = climb(s, d) == flat[start:end]
        elif size > 2:
            at, came, ok = s, 0, False
            for e in flat[start:end]:
                if e == came:
                    break
                if e == at and e > 1:
                    at = (e - 2) // k + 1
                elif (e - 2) // k + 1 == at:
                    at = e
                else:
                    break
                came = e
            else:
                ok = at == d
        elif size == 1:
            e = flat[start]
            ok = (e == d and (d - 2) // k + 1 == s
                  or e == s and (s - 2) // k + 1 == d)
        else:
            a, b = flat[start], flat[start + 1]
            if a == s:
                ok = ((s - 2) // k == (d - 2) // k if b == d
                      else (s - 2) // k + 1 == b and (b - 2) // k + 1 == d)
            else:
                ok = b == d and (d - 2) // k + 1 == a and (a - 2) // k + 1 == s
        if not ok:
            yield i
        start = end


def _step_violations(tree: CompleteKTree, t: int, informed: set[int], src: list[int],
                     dst: list[int], ends: list[int], flat: list[int]) -> list[Violation]:
    """Every violation of one step, call by call and in order."""
    off_path = set(_off_path(tree, src, dst, ends, flat))
    out: list[Violation] = []
    sources_seen: set[int] = set()
    dests_seen: set[int] = set()
    edges_used: set[int] = set()
    start = 0
    for i, (s, d, end) in enumerate(zip(src, dst, ends)):
        path = flat[start:end]
        start = end
        if s not in informed:
            out.append(Violation(t, ViolationKind.UNINFORMED_SOURCE,
                                 f"source {s} not informed"))
        if d in informed:
            out.append(Violation(t, ViolationKind.DOUBLE_RECEIVE,
                                 f"destination {d} already informed"))
        if s in sources_seen:
            out.append(Violation(t, ViolationKind.MULTI_SEND,
                                 f"vertex {s} sends twice"))
        sources_seen.add(s)
        if d in dests_seen:
            out.append(Violation(t, ViolationKind.DOUBLE_RECEIVE,
                                 f"vertex {d} receives twice"))
        dests_seen.add(d)
        if i in off_path:
            out.append(Violation(t, ViolationKind.PATH_MISMATCH,
                                 f"call {s}->{d} does not travel the tree path"))
        for edge in path:
            if edge in edges_used:
                out.append(Violation(t, ViolationKind.EDGE_CONFLICT,
                                     f"edge child-{edge} used twice"))
        edges_used.update(path)
    return out


def validate(
    schedule: Schedule,
    time_budget: int | None = None,
    *,
    assume_informed: set[int] | None = None,
    expected_informed: set[int] | None = None,
) -> ValidationReport:
    """Check every model constraint and list all violations.

    assume_informed seeds the informed set beyond the originator (used to
    validate partial-broadcast fragments whose sources were informed by an
    earlier phase). expected_informed overrides the coverage target, which
    defaults to all n vertices.
    """
    tree = schedule.tree
    n = tree.n
    informed: set[int] = {schedule.originator.id}
    if assume_informed:
        informed.update(assume_informed)
    violations: list[Violation] = []
    timeline: list[tuple[int, int]] = []

    for t, step in enumerate(schedule.steps, 1):
        src, dst = step.src.tolist(), step.dst.tolist()
        ends, flat = step.ends.tolist(), step.edges.tolist()
        received = set(dst)
        # the whole step at once; a step that fails any check is walked
        # call by call to report what it breaks
        if not (len(received) == len(dst)
                and informed.isdisjoint(received)
                and informed.issuperset(src)
                and len(set(src)) == len(src)
                and len(set(flat)) == len(flat)
                and next(_off_path(tree, src, dst, ends, flat), None) is None):
            violations += _step_violations(tree, t, informed, src, dst, ends, flat)
        informed |= received
        timeline.append((t, len(informed)))

    if expected_informed is None:
        # every id in [1, n] is expected; the missing ones are listed only
        # to report them
        expected = range(1, n + 1)
        missing = set() if informed.issuperset(expected) else set(expected) - informed
    else:
        missing = expected_informed - informed
    if missing:
        sample = sorted(missing)[:5]
        violations.append(
            Violation(None, ViolationKind.INCOMPLETE_COVERAGE,
                      f"{len(missing)} vertices never informed (first: {sample})")
        )

    if time_budget is not None and schedule.total_time() > time_budget:
        violations.append(
            Violation(None, ViolationKind.TIME_BUDGET_EXCEEDED,
                      f"total_time {schedule.total_time()} > budget {time_budget}")
        )

    return ValidationReport(not violations, violations, timeline)
