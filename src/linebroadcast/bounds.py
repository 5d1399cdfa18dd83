"""Closed-form cost bounds, all evaluated in exact rational arithmetic.

Every formula lives in Fraction space; ceilings of base-2 logarithms come
from integer bit length, so nothing in this module touches floating point.
Schedule costs are integers, so callers compare them against floor(bound).
The dispatcher's guards (lbckt_case) live here too: they need only the
step budget and the scheme times, and the report names the scheme they
pick.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import OutOfRange


def ceil_log2(x: int) -> int:
    """Smallest t with 2**t >= x, for x >= 1."""
    if x < 1:
        raise OutOfRange(f"ceil_log2 needs x >= 1, got {x}")
    return (x - 1).bit_length()


def tree_size(k: int, r: int) -> int:
    return (k ** (r + 1) - 1) // (k - 1)


@dataclass(frozen=True)
class DispatchCase:
    """Which scheme the dispatcher picks, with the guard values it compared."""

    label: str
    number: int
    # (step budget ceil(log2 n), alg1 time, alg2 time)
    condition_values: tuple[int, int, int]


def lbckt_case(k: int, r: int) -> DispatchCase:
    """Evaluate the two dispatch guards with exact integer arithmetic."""
    n = tree_size(k, r)
    limit = ceil_log2(n)
    lam = ceil_log2(k + 1)
    alg1_time = r * lam
    alg2_time = ceil_log2(n - k**r) + lam
    if alg1_time <= limit:
        number = 1
    elif alg2_time <= limit:
        number = 2
    else:
        number = 3
    return DispatchCase(f"alg{number}", number, (limit, alg1_time, alg2_time))


def time_limit(n: int) -> int:
    """Step budget of a minimum-time broadcast on n vertices."""
    return ceil_log2(n)


def farley_bound(n: int) -> int:
    """Cost ceiling of the generic minimum-time scheme: (n-1) * ceil(log2 n)."""
    if n < 2:
        raise OutOfRange(f"need n >= 2, got {n}")
    return (n - 1) * ceil_log2(n)


def lower_bound(k: int, r: int, leaf_originator: bool = False) -> Fraction:
    """Lower bound on the minimum broadcast cost from any vertex.

    With leaf_originator the bound drops by one (the originating leaf never
    needs its own parent edge re-used for a first delivery).
    """
    if k < 2 or r < 1:
        raise OutOfRange(f"need k >= 2 and r >= 1, got k={k}, r={r}")
    n = tree_size(k, r)
    lg = ceil_log2(k)
    value = (
        n * (2 - Fraction(2 * (k - 1), k * k) - Fraction(lg, k))
        - Fraction(2, k * k)
        + Fraction(lg, k)
        - 1
    )
    if leaf_originator:
        value -= 1
    return value


def alg1_upper(k: int, r: int) -> Fraction:
    """Cost ceiling of the level-by-level star scheme (alg1)."""
    if k < 2 or r < 1:
        raise OutOfRange(f"need k >= 2 and r >= 1, got k={k}, r={r}")
    n = tree_size(k, r)
    lam = Fraction(ceil_log2(k + 1), k)
    return (2 - lam) * n + lam - 2


def alg2_upper(k: int, r: int) -> Fraction:
    """Cost ceiling of the spread-then-fill scheme (alg2); needs r >= 2."""
    if k < 2 or r < 2:
        raise OutOfRange(f"alg2 bound needs k >= 2 and r >= 2, got k={k}, r={r}")
    n = tree_size(k, r)
    lam = ceil_log2(k + 1)
    coeff = 2 - Fraction(k - 1, k * k) * lam + Fraction(1, k * (k - 1))
    return (
        coeff * n
        - 2 * (r - 1)
        + Fraction(k, (k - 1) ** 2)
        + Fraction(1, k)
        - Fraction(lam, k * k)
    )


def alg3_upper(k: int, r: int) -> Fraction:
    """Cost ceiling of the leaves-first scheme (alg3)."""
    if k < 2 or r < 1:
        raise OutOfRange(f"need k >= 2 and r >= 1, got k={k}, r={r}")
    n = tree_size(k, r)
    return (
        (2 + Fraction(1, k - 1)) * n
        + 2 * r * ceil_log2(k**r)
        - 2 * ceil_log2(k**r + 1)
        - 3 * r
        - Fraction(r + 1, k - 1)
    )


def tolevel_upper(k: int, j: int) -> Fraction:
    """Cost ceiling of broadcasting from one vertex to all of level j."""
    if k < 2 or j < 1:
        raise OutOfRange(f"need k >= 2 and j >= 1, got k={k}, j={j}")
    return (
        Fraction(2 * k * (k**j - 1), k - 1)
        + 2 * j * ceil_log2(k**j)
        - 2 * ceil_log2(k**j + 1)
        - 2 * j
        + 2
    )


def tolevel_round_cost(k: int, j: int, m: int) -> Fraction:
    """In-level relay cost of round m of the to-level procedure."""
    if k < 2 or j < 1 or not 1 <= m <= j:
        raise OutOfRange(f"need k >= 2, j >= 1 and 1 <= m <= j, got {k}, {j}, {m}")
    saved = ceil_log2(k**m + 1) - ceil_log2(k ** (m - 1) + 1)
    return Fraction(2 * (j - m + 1) * (k**m - k ** (m - 1) - saved))


def fromlevel_cost(k: int, j: int, originator_is_root: bool = True) -> int:
    """Exact cost of the one-step fan-up from level j to all shallower levels.

    The call targeting the root is omitted when the originator is the root,
    which removes one length-j path.
    """
    if k < 2 or j < 1:
        raise OutOfRange(f"need k >= 2 and j >= 1, got k={k}, j={j}")
    total = sum(i * k ** (j - i) for i in range(1, j + 1))
    return total - j if originator_is_root else total


@dataclass
class BoundsReport:
    """All closed forms for a given (k, r), with the dispatcher's pick."""

    k: int
    r: int
    n: int
    time_limit: int
    farley: int
    lower: Fraction
    case: DispatchCase
    upper_alg1: Fraction
    upper_alg2: Optional[Fraction]
    upper_alg3: Fraction
    tolevel_upper: dict[int, Fraction]
    fromlevel_cost: dict[int, int]

    def dispatched_upper(self) -> Fraction:
        if self.case.number == 1:
            return self.upper_alg1
        if self.case.number == 2:
            assert self.upper_alg2 is not None
            return self.upper_alg2
        return self.upper_alg3


def report(k: int, r: int, leaf_originator: bool = False) -> BoundsReport:
    n = tree_size(k, r)
    tol = {r: tolevel_upper(k, r)}
    fromc = {r: fromlevel_cost(k, r, True)}
    if r >= 2:
        tol[r - 1] = tolevel_upper(k, r - 1)
        fromc[r - 1] = fromlevel_cost(k, r - 1, True)
    return BoundsReport(
        k=k,
        r=r,
        n=n,
        time_limit=time_limit(n),
        farley=farley_bound(n),
        lower=lower_bound(k, r, leaf_originator),
        case=lbckt_case(k, r),
        upper_alg1=alg1_upper(k, r),
        upper_alg2=alg2_upper(k, r) if r >= 2 else None,
        upper_alg3=alg3_upper(k, r),
        tolevel_upper=tol,
        fromlevel_cost=fromc,
    )
