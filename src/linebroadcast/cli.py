"""Command-line front end: build schedules, print bounds, sweep grids, search.

Exit codes partition the outcomes so scripts need not parse text:
  0  success (valid schedule within the step budget / all rows valid)
  1  usage or parameter error
  2  the constructed schedule failed validation (or a bracket check failed)
  3  the schedule is valid but carries deviation flags or misses the budget
  4  output I/O error
  5  instance exceeds the exhaustive-search cap
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import bounds
from .algorithms import alg1, alg2, alg3, lbckt, lbckt_case
from .errors import (InvalidParams, LineBroadcastError, OutOfRange, Overflow,
                     SameVertex, ScheduleFormatError, TooLarge)
from .ktree import CompleteKTree, VertexRef
from .oracle import check_bracket
from .procedures import from_level, to_level
from .schedule import Call, Schedule, validate

SWEEP_MEMORY_GUARD = 200_000

CSV_HEADER = ("k,r,n,originator,algorithm,case,total_time,time_limit,"
              "total_cost,lower_bound,upper_bound,farley_bound,valid,deviations")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# schedule serialization (fixed JSON schema)
# ---------------------------------------------------------------------------

def schedule_to_dict(schedule: Schedule, valid: bool) -> dict:
    return {
        "k": schedule.tree.k,
        "r": schedule.tree.r,
        "n": schedule.tree.n,
        "originator": schedule.originator.id,
        "algorithm": schedule.algorithm_tag,
        "steps": [
            {
                "t": t,
                "calls": [
                    {"src": s, "dst": d, "path": path, "cost": len(path)}
                    for s, d, path in step.id_calls()
                ],
            }
            for t, step in enumerate(schedule.steps, 1)
        ],
        "total_time": schedule.total_time(),
        "total_cost": schedule.total_cost(),
        "valid": valid,
        "deviations": list(schedule.deviations),
    }


def _integer(where: str, record: dict, field: str, what: str = "integer") -> int:
    """record[field] as an int, and not a bool."""
    value = record[field]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScheduleFormatError(f"{where}: {field!r} is not an {what}: {value!r}")
    return value


def _vertex(tree: CompleteKTree, where: str, record: dict, field: str) -> VertexRef:
    """The vertex whose id is record[field]."""
    vid = _integer(where, record, field, "integer id")
    try:
        return tree.vertex_by_id(vid)
    except OutOfRange as exc:
        raise ScheduleFormatError(f"{where}: {field!r}: {exc}") from exc


def _listed(where: str, record: dict, field: str) -> list:
    """record[field], which must be a JSON array."""
    if field not in record:
        raise ScheduleFormatError(f"{where} has no {field!r}")
    value = record[field]
    if not isinstance(value, list):
        raise ScheduleFormatError(f"{where}: {field!r} is not a list: {value!r}")
    return value


def schedule_from_dict(data: dict) -> Schedule:
    """Rebuild a schedule from its JSON form, re-deriving and checking paths."""
    for field in ("k", "r", "originator", "steps"):
        if field not in data:
            raise ScheduleFormatError(f"schedule has no {field!r}")
    k, r = _integer("schedule", data, "k"), _integer("schedule", data, "r")
    try:
        tree = CompleteKTree(k, r)
    except (InvalidParams, Overflow) as exc:
        raise ScheduleFormatError(f"schedule: 'k' {k} and 'r' {r} make no tree: {exc}") from exc
    algorithm, deviations = data.get("algorithm", ""), data.get("deviations", [])
    if not isinstance(algorithm, str):
        raise ScheduleFormatError(f"schedule: 'algorithm' is not a string: {algorithm!r}")
    if not isinstance(deviations, list) or not all(isinstance(d, str) for d in deviations):
        raise ScheduleFormatError(
            f"schedule: 'deviations' is not a list of strings: {deviations!r}")
    sched = Schedule(tree, _vertex(tree, "schedule", data, "originator"), algorithm,
                     deviations=list(deviations))
    for t, step in enumerate(_listed("schedule", data, "steps"), 1):
        if not isinstance(step, dict):
            raise ScheduleFormatError(f"step {t} is not an object: {step!r}")
        calls = []
        for c in _listed(f"step {t}", step, "calls"):
            if not isinstance(c, dict):
                raise ScheduleFormatError(f"call {c!r} of step {t} is not an object")
            try:
                src = _vertex(tree, f"call {c}", c, "src")
                dst = _vertex(tree, f"call {c}", c, "dst")
                given = _listed(f"call {c}", c, "path")
                path = tree.path(src, dst)
            except KeyError as exc:
                raise ScheduleFormatError(f"call {c} has no {exc}") from exc
            except SameVertex as exc:
                raise ScheduleFormatError(f"call {c}: {exc}") from exc
            if path != given:
                raise ScheduleFormatError(
                    f"path of {c['src']}->{c['dst']} is not the tree path")
            calls.append(Call(src, dst, tuple(path)))
        sched.append_step(calls)
    return sched


def _frac_decimal(x) -> str:
    return f"{float(x):.10g}"


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _build_run_schedule(tree, u, alg: str):
    """Returns (schedule, case_number, assume, expected)."""
    case = lbckt_case(tree.k, tree.r)
    if alg == "auto":
        sched, case = lbckt(tree, u)
        return sched, case.number, None, None
    if alg in ("alg1", "alg2", "alg3"):
        sched = {"alg1": alg1, "alg2": alg2, "alg3": alg3}[alg](tree, u)
        return sched, case.number, None, None
    kind, _, arg = alg.partition(":")
    if kind not in ("tolevel", "fromlevel"):
        raise UsageError(f"unknown algorithm {alg!r}")
    j = _parse_int(arg, "level")
    # each procedure checks j against its range before the level is listed
    frag = (to_level if kind == "tolevel" else from_level)(tree, j, u)
    sched = Schedule(tree, u, f"{kind}:{j}", frag.steps)
    level_ids = {v.id for v in tree.level_vertices(j)}
    expected = {u.id} | level_ids
    if kind == "tolevel":
        return sched, case.number, None, expected
    for lvl in range(j):
        expected |= {v.id for v in tree.level_vertices(lvl)}
    return sched, case.number, level_ids, expected


def _print_steps(schedule: Schedule) -> None:
    """One trace line per step, numbered from 1."""
    for t, step in enumerate(schedule.steps, 1):
        line = ", ".join(f"{s}->{d} path={path} cost={len(path)}"
                         for s, d, path in step.id_calls())
        print(f"t={t}: {line}")


def cmd_run(args) -> int:
    tree = CompleteKTree(args.k, args.r)
    u = tree.vertex_by_id(args.originator)
    sched, case_number, assume, expected = _build_run_schedule(tree, u, args.alg)
    report = validate(sched, assume_informed=assume, expected_informed=expected)
    limit = bounds.ceil_log2(tree.n)
    within = expected is not None or sched.total_time() <= limit

    if args.format == "json":
        print(json.dumps(schedule_to_dict(sched, report.ok), indent=2))
    else:
        print(f"k={tree.k} r={tree.r} n={tree.n} originator={u.id} "
              f"algorithm={sched.algorithm_tag} case={case_number}")
        _print_steps(sched)
        print(f"total_time={sched.total_time()} time_limit={limit} "
              f"total_cost={sched.total_cost()} valid={str(report.ok).lower()} "
              f"deviations=[{';'.join(sched.deviations)}]")
        for v in report.violations:
            print(f"violation: step={v.step} kind={v.kind} {v.detail}")

    if not report.ok:
        return 2
    if sched.deviations or not within:
        return 3
    return 0


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def cmd_bounds(args) -> int:
    rep = bounds.report(args.k, args.r, leaf_originator=args.leaf_adjust)
    print(f"k={rep.k} r={rep.r} n={rep.n}")
    print(f"time_limit      {rep.time_limit}")
    print(f"farley_bound    {rep.farley}")
    print(f"lower_bound     {str(rep.lower)} ({_frac_decimal(rep.lower)})")
    print(f"case            {rep.case.label}")
    print(f"alg1_upper      {str(rep.upper_alg1)} ({_frac_decimal(rep.upper_alg1)})")
    if rep.upper_alg2 is not None:
        print(f"alg2_upper      {str(rep.upper_alg2)} ({_frac_decimal(rep.upper_alg2)})")
    else:
        print("alg2_upper      n/a (needs r >= 2)")
    print(f"alg3_upper      {str(rep.upper_alg3)} ({_frac_decimal(rep.upper_alg3)})")
    for j in sorted(rep.tolevel_upper):
        v = rep.tolevel_upper[j]
        print(f"tolevel_upper(j={j})   {str(v)} ({_frac_decimal(v)})")
    for j in sorted(rep.fromlevel_cost):
        print(f"fromlevel_cost(j={j})  {rep.fromlevel_cost[j]}")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{what} {text!r} is not an integer") from None


def _parse_range(text: str) -> tuple[int, int]:
    lo, dots, hi = text.partition("..")
    return _parse_int(lo, "range bound"), _parse_int(hi if dots else lo, "range bound")


def _sweep_cell(cell: tuple[int, int, int]) -> tuple[tuple[int, int, int], str, bool]:
    k, r, uid = cell
    tree = CompleteKTree(k, r)
    u = tree.vertex_by_id(uid)
    sched, case = lbckt(tree, u)
    report = validate(sched)
    rep = bounds.report(k, r)
    row = ",".join([
        str(k), str(r), str(tree.n), str(uid),
        sched.algorithm_tag, str(case.number),
        str(sched.total_time()), str(rep.time_limit),
        str(sched.total_cost()),
        str(rep.lower), str(rep.dispatched_upper()),
        str(rep.farley),
        str(report.ok).lower(),
        ";".join(sched.deviations),
    ])
    return cell, row, report.ok


def cmd_sweep(args) -> int:
    k_lo, k_hi = _parse_range(args.k)
    r_lo, r_hi = _parse_range(args.r)
    if k_lo < 2 or r_lo < 1 or k_hi < k_lo or r_hi < r_lo:
        raise UsageError("invalid k/r ranges")
    if args.parallel < 0:
        raise UsageError(f"--parallel {args.parallel} is negative")

    cells: list[tuple[int, int, int]] = []
    for k in range(k_lo, k_hi + 1):
        for r in range(r_lo, r_hi + 1):
            n = bounds.tree_size(k, r)
            if n > SWEEP_MEMORY_GUARD:
                raise UsageError(f"(k={k}, r={r}) has n={n} above the sweep guard")
            if args.originators == "root":
                uids = [1]
            elif args.originators == "all":
                uids = list(range(1, n + 1))
            else:
                uids = sorted({_parse_int(x, "originator")
                               for x in args.originators.split(",")})
                for uid in uids:
                    if not 1 <= uid <= n:
                        raise UsageError(f"originator {uid} not in [1, {n}]")
            cells.extend((k, r, uid) for uid in uids)

    # the executor may start every worker at once, so ask for no more than
    # there are cells and cores
    workers = min(args.parallel, len(cells), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_cell, cells))
    else:
        results = [_sweep_cell(c) for c in cells]
    results.sort(key=lambda item: item[0])

    lines = [CSV_HEADER] + [row for _, row, _ in results]
    text = "\n".join(lines) + "\n"
    try:
        if args.out == "-":
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 4
    return 0 if all(ok for _, _, ok in results) else 2


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def cmd_oracle(args) -> int:
    tree = CompleteKTree(args.k, args.r)
    u = tree.vertex_by_id(args.originator)
    bracket = check_bracket(tree, u, time_budget=args.budget)
    opt, witness = bracket.optimal, bracket.witness
    print(f"k={tree.k} r={tree.r} n={tree.n} originator={u.id}")
    print(f"optimal_cost={opt} time={witness.total_time()}")
    _print_steps(witness)
    print(f"lower_bound={str(bracket.lower)} ({_frac_decimal(bracket.lower)})")
    print(f"algorithm_costs=" + ",".join(
        f"{name}:{cost}" for name, cost in sorted(bracket.algorithm_costs.items())))
    print(f"dispatched={bracket.dispatched_label} "
          f"upper={str(bracket.dispatched_upper)}")
    print(f"bracket_ok={str(bracket.ok).lower()}")
    return 0 if bracket.ok else 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="linebroadcast",
                     description="Minimum-time line-broadcast schedules on "
                                 "complete k-ary trees")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="construct and validate one schedule")
    run.add_argument("--k", type=int, required=True)
    run.add_argument("--r", type=int, required=True)
    run.add_argument("--originator", type=int, default=1)
    run.add_argument("--alg", default="auto",
                     help="auto | alg1 | alg2 | alg3 | tolevel:J | fromlevel:J")
    run.add_argument("--format", choices=("trace", "json"), default="trace")
    run.set_defaults(func=cmd_run)

    bnd = sub.add_parser("bounds", help="print every closed-form bound")
    bnd.add_argument("--k", type=int, required=True)
    bnd.add_argument("--r", type=int, required=True)
    bnd.add_argument("--leaf-adjust", action="store_true",
                     help="apply the leaf-originator adjustment to the lower bound")
    bnd.set_defaults(func=cmd_bounds)

    sweep = sub.add_parser("sweep", help="run a (k, r, originator) grid to CSV")
    sweep.add_argument("--k", required=True, help="range, e.g. 2..4 or 3")
    sweep.add_argument("--r", required=True, help="range, e.g. 1..3 or 2")
    sweep.add_argument("--originators", default="root",
                       help="root | all | comma-separated ids")
    sweep.add_argument("--out", default="-", help="CSV path ('-' for stdout)")
    sweep.add_argument("--parallel", type=int, default=0,
                       help="number of worker processes (0 or 1: in process)")
    sweep.set_defaults(func=cmd_sweep)

    orc = sub.add_parser("oracle", help="exhaustive optimum on a tiny tree")
    orc.add_argument("--k", type=int, required=True)
    orc.add_argument("--r", type=int, required=True)
    orc.add_argument("--originator", type=int, default=1)
    orc.add_argument("--budget", type=int, default=None)
    orc.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except TooLarge as exc:
        print(f"too large: {exc}", file=sys.stderr)
        return 5
    except LineBroadcastError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
