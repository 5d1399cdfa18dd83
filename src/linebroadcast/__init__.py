"""Minimum-time line-broadcast scheduling on complete k-ary trees.

Builders for the three broadcast schemes and their dispatcher, the two
partial-broadcast procedures they compose, a constraint validator, exact
rational evaluation of every closed-form cost bound, and an exhaustive
optimal-cost search for tiny instances.
"""

from .ktree import CompleteKTree, VertexRef, new
from .schedule import (
    Call,
    Schedule,
    Step,
    ValidationReport,
    Violation,
    ViolationKind,
    validate,
)
from .procedures import Fragment, from_level, merge_upcalls, to_level
from .algorithms import DispatchCase, alg1, alg2, alg3, lbckt, lbckt_case
from .oracle import BracketReport, check_bracket, optimal_cost
from . import bounds, errors

__all__ = [
    "CompleteKTree",
    "VertexRef",
    "new",
    "Call",
    "Schedule",
    "Step",
    "ValidationReport",
    "Violation",
    "ViolationKind",
    "validate",
    "Fragment",
    "from_level",
    "merge_upcalls",
    "to_level",
    "DispatchCase",
    "alg1",
    "alg2",
    "alg3",
    "lbckt",
    "lbckt_case",
    "BracketReport",
    "check_bracket",
    "optimal_cost",
    "bounds",
    "errors",
]
