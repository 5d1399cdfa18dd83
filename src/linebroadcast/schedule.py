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

A Call is a NamedTuple (src, dst, path) of two VertexRefs and the edge ids
in travel order: an immutable record without a per-instance dict that
compares and hashes by value, since a schedule of n vertices holds n - 1 of
them.

The validator is a total pass: it reports every violation it finds instead
of stopping at the first one. It re-derives each call's path by climbing
ids and compares it with the call's path, list or tuple alike, and walks a
path edge by edge only to name the edges it shares with earlier calls of
its step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import OutOfRange
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


def make_call(tree: CompleteKTree, src: VertexRef, dst: VertexRef) -> Call:
    return Call(src, dst, tuple(tree.path(src, dst)))


@dataclass
class Step:
    t: int
    calls: list[Call]


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

    def append_step(self, calls: list[Call]) -> "Schedule":
        """Append one step (no validation happens here; see validate)."""
        self.steps.append(Step(len(self.steps) + 1, list(calls)))
        return self

    def total_cost(self) -> int:
        return sum(c.cost for s in self.steps for c in s.calls)

    def total_time(self) -> int:
        """Number of non-empty steps."""
        return sum(1 for s in self.steps if s.calls)

    def informed_after(self, t: int) -> set[int]:
        """Ids informed once steps 1..t have run (t = 0 gives the originator)."""
        if not 0 <= t <= len(self.steps):
            raise OutOfRange(f"t={t} not in [0, {len(self.steps)}]")
        informed = {self.originator.id}
        for s in self.steps[:t]:
            informed.update(c.dst.id for c in s.calls)
        return informed


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
    n, climb = schedule.tree.n, schedule.tree.climb
    informed: set[int] = {schedule.originator.id}
    if assume_informed:
        informed.update(assume_informed)
    violations: list[Violation] = []
    timeline: list[tuple[int, int]] = []

    for step in schedule.steps:
        sources_seen: set[int] = set()
        dests_seen: set[int] = set()
        edges_used: set[int] = set()
        for call in step.calls:
            src, dst, path = call.src.id, call.dst.id, call.path
            if src not in informed:
                violations.append(
                    Violation(step.t, ViolationKind.UNINFORMED_SOURCE,
                              f"source {src} not informed")
                )
            if dst in informed:
                violations.append(
                    Violation(step.t, ViolationKind.DOUBLE_RECEIVE,
                              f"destination {dst} already informed")
                )
            if src in sources_seen:
                violations.append(
                    Violation(step.t, ViolationKind.MULTI_SEND,
                              f"vertex {src} sends twice")
                )
            sources_seen.add(src)
            if dst in dests_seen:
                violations.append(
                    Violation(step.t, ViolationKind.DOUBLE_RECEIVE,
                              f"vertex {dst} receives twice")
                )
            dests_seen.add(dst)
            # a call to itself has no path, and is flagged above already;
            # tuple() of a tuple path is the path itself, so only a path
            # given as a list is copied
            if src != dst and tuple(climb(src, dst)) != tuple(path):
                violations.append(
                    Violation(step.t, ViolationKind.PATH_MISMATCH,
                              f"call {call} does not travel the tree path")
                )
            if not edges_used.isdisjoint(path):
                for edge in path:
                    if edge in edges_used:
                        violations.append(
                            Violation(step.t, ViolationKind.EDGE_CONFLICT,
                                      f"edge child-{edge} used twice")
                        )
            edges_used.update(path)
        informed.update(dests_seen)
        timeline.append((step.t, len(informed)))

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
