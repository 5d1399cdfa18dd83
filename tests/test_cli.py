"""Command-line surface: exit codes, JSON schema, CSV output."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from linebroadcast import alg1, alg2, alg3, lbckt, new, validate
from linebroadcast.errors import LineBroadcastError, ScheduleFormatError
from linebroadcast.cli import (
    CSV_HEADER,
    main,
    schedule_from_dict,
    schedule_to_dict,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_auto_ok(capsys):
    code, out, _ = run_cli(capsys, "run", "--k", "2", "--r", "2", "--alg", "auto")
    assert code == 0
    assert "algorithm=alg3" in out and "total_time=3" in out


def test_run_json_schema(capsys):
    code, out, _ = run_cli(capsys, "run", "--k", "3", "--r", "2",
                           "--alg", "alg1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["algorithm"] == "alg1"
    assert data["k"] == 3 and data["r"] == 2 and data["n"] == 13
    assert data["total_time"] <= 4
    assert data["valid"] is True
    first = data["steps"][0]["calls"][0]
    assert set(first) == {"src", "dst", "path", "cost"}


def test_run_usage_error(capsys):
    code, _, err = run_cli(capsys, "run", "--k", "1", "--r", "2")
    assert code == 1
    assert "InvalidParams" in err


def test_run_unknown_alg(capsys):
    code, _, err = run_cli(capsys, "run", "--k", "2", "--r", "2",
                           "--alg", "mystery")
    assert code == 1


def test_run_fragments(capsys):
    code, out, _ = run_cli(capsys, "run", "--k", "2", "--r", "2",
                           "--alg", "tolevel:2")
    assert code == 0 and "valid=true" in out
    code, out, _ = run_cli(capsys, "run", "--k", "2", "--r", "2",
                           "--alg", "fromlevel:2")
    assert code == 0 and "valid=true" in out


def test_run_deviation_exit(capsys):
    # a deep originator makes alg1 open with a relay call, which is flagged
    code, out, _ = run_cli(capsys, "run", "--k", "3", "--r", "2",
                           "--originator", "6", "--alg", "alg1")
    assert code == 3
    assert "valid=true" in out


BUILDERS = {"alg1": alg1, "alg2": alg2, "alg3": alg3, "lbckt": lambda t, u: lbckt(t, u)[0]}


@st.composite
def built(draw):
    """(builder name, k, r, originator id) with n <= 400."""
    k = draw(st.integers(2, 16))
    r = draw(st.integers(1, max(r for r in range(1, 9) if (k ** (r + 1) - 1) // (k - 1) <= 400)))
    return (draw(st.sampled_from(sorted(BUILDERS))), k, r,
            draw(st.integers(1, (k ** (r + 1) - 1) // (k - 1))))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(built())
@example(("alg1", 3, 2, 5))  # flagged: the deep originator opens with a relay
@example(("alg2", 2, 2, 2))  # flagged, with a deferred fan-up step
def test_json_roundtrip_revalidates_identically(drawn):
    """A schedule read back from its JSON text has the same steps, tag and
    deviations, writes the same JSON and re-validates the same."""
    name, k, r, uid = drawn
    tree = new(k, r)
    sched = BUILDERS[name](tree, tree.vertex_by_id(uid))
    rep = validate(sched)
    data = json.loads(json.dumps(schedule_to_dict(sched, rep.ok)))
    back = schedule_from_dict(data)
    assert back.steps == sched.steps
    assert (back.algorithm_tag, back.deviations) == (sched.algorithm_tag, sched.deviations)
    assert schedule_to_dict(back, rep.ok) == data
    assert validate(back) == rep


def test_from_dict_rejects_wrong_path():
    broken = {
        "k": 2, "r": 1, "n": 3, "originator": 1, "algorithm": "x",
        "steps": [{"t": 1, "calls": [
            {"src": 1, "dst": 2, "path": [3], "cost": 1}]}],
        "total_time": 1, "total_cost": 1, "valid": True, "deviations": [],
    }
    with pytest.raises(ValueError):
        schedule_from_dict(broken)


def test_from_dict_error_is_typed():
    broken = {
        "k": 2, "r": 2, "n": 7, "originator": 4, "algorithm": "x",
        "steps": [{"t": 1, "calls": [
            {"src": 4, "dst": 7, "path": [4, 2, 7], "cost": 3}]}],
        "total_time": 1, "total_cost": 3, "valid": True, "deviations": [],
    }
    with pytest.raises(ScheduleFormatError, match="4->7 is not the tree path") as info:
        schedule_from_dict(broken)
    assert isinstance(info.value, LineBroadcastError)


@pytest.mark.parametrize("call,message", [
    ({"src": 1, "path": [2], "cost": 1}, "has no 'dst'"),
    ({"src": 2, "dst": 2, "path": [], "cost": 0}, "'dst': 2.*is empty"),
    ({"src": 1, "dst": 8, "path": [8], "cost": 1}, "'dst': 8.*not in"),
    ({"src": "a", "dst": 2, "path": [2], "cost": 1}, "'src' is not an integer id: 'a'"),
    ({"src": 1.0, "dst": 2, "path": [2], "cost": 1}, "'src' is not an integer id: 1.0"),
    ({"src": 2, "dst": True, "path": [2], "cost": 1}, "'dst' is not an integer id: True"),
    ([1, 2, [2]], r"call \[1, 2, \[2\]\] of step 1 is not an object"),
    ({"src": 1, "dst": 2, "path": 5, "cost": 1}, "'path' is not a list: 5"),
], ids=["no-dst", "to-itself", "outside-the-tree", "text-src", "float-src", "bool-dst",
        "call-as-list", "number-path"])
def test_from_dict_rejects_a_bad_call(call, message):
    data = {
        "k": 2, "r": 2, "n": 7, "originator": 1, "algorithm": "x",
        "steps": [{"t": 1, "calls": [call]}],
        "total_time": 1, "total_cost": 1, "valid": True, "deviations": [],
    }
    with pytest.raises(ScheduleFormatError, match=message):
        schedule_from_dict(data)


@pytest.mark.parametrize("data,message", [
    ({"k": 2, "r": 2, "originator": 1}, "has no 'steps'"),
    ({"k": 2, "r": 2, "originator": True, "steps": []},
     "'originator' is not an integer id: True"),
    ({"k": 2, "r": 1, "originator": 1, "steps": [{"t": 1}]}, "step 1 has no 'calls'"),
    ({"k": "2", "r": 1, "originator": 1, "steps": []}, "'k' is not an integer: '2'"),
    ({"k": 2.0, "r": 1, "originator": 1, "steps": []}, "'k' is not an integer: 2.0"),
    ({"k": 2, "r": 1, "originator": 9, "steps": []},
     r"'originator': id 9 not in \[1, 3\]"),
    ({"k": 1, "r": 2, "originator": 1, "steps": []},
     "'k' 1 and 'r' 2 make no tree: need k >= 2 and r >= 1"),
    ({"k": 2, "r": 0, "originator": 1, "steps": []},
     "'k' 2 and 'r' 0 make no tree: need k >= 2 and r >= 1"),
    ({"k": 2, "r": 63, "originator": 1, "steps": []},
     "'k' 2 and 'r' 63 make no tree: n=.* exceeds the 64-bit id range"),
    ({"k": 2, "r": 1, "originator": 1, "steps": [], "deviations": "abc"},
     "'deviations' is not a list of strings: 'abc'"),
    ({"k": 2, "r": 1, "originator": 1, "steps": [], "deviations": 5},
     "'deviations' is not a list of strings: 5"),
    ({"k": 2, "r": 1, "originator": 1, "steps": [], "deviations": None},
     "'deviations' is not a list of strings: None"),
    ({"k": 2, "r": 1, "originator": 1, "steps": [], "deviations": ["a", 1]},
     r"'deviations' is not a list of strings: \['a', 1\]"),
    ({"k": 2, "r": 1, "originator": 1, "steps": [], "algorithm": 5},
     "'algorithm' is not a string: 5"),
    ({"k": 2, "r": 1, "originator": 1, "steps": [], "algorithm": ["alg1"]},
     r"'algorithm' is not a string: \['alg1'\]"),
], ids=["no-steps", "bool-originator", "no-calls", "text-k", "float-k", "outside-originator",
        "k-1", "r-0", "overflow", "text-deviations", "number-deviations", "null-deviations",
        "number-in-deviations", "number-algorithm", "list-algorithm"])
def test_from_dict_rejects_a_bad_document(data, message):
    with pytest.raises(ScheduleFormatError, match=message):
        schedule_from_dict(data)


def test_bounds_output(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--k", "2", "--r", "2")
    assert code == 0
    assert "lower_bound     6" in out
    assert "case            alg3" in out
    assert "farley_bound    18" in out

    code, out, _ = run_cli(capsys, "bounds", "--k", "5", "--r", "3")
    assert code == 0
    assert "241.3125" in out


@pytest.mark.parametrize("k,r", [("1", "2"), ("0", "2"), ("2", "0")])
def test_bounds_rejects_k_or_r_out_of_range(capsys, k, r):
    code, out, err = run_cli(capsys, "bounds", "--k", k, "--r", r)
    assert code == 1 and out == ""
    assert err == f"error: OutOfRange: need k >= 2 and r >= 1, got k={k}, r={r}\n"


def test_sweep_csv(tmp_path, capsys):
    out_path = tmp_path / "grid.csv"
    code, _, _ = run_cli(capsys, "sweep", "--k", "2..4", "--r", "1..3",
                         "--originators", "root", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 10  # header + 9 rows
    row = next(l for l in lines if l.startswith("2,2,"))
    cells = row.split(",")
    assert cells[:6] == ["2", "2", "7", "1", "alg3", "3"]
    assert cells[9] == "6" and cells[10] == "14" and cells[11] == "18"
    assert cells[12] == "true"
    cost = int(cells[8])
    assert 6 <= cost <= 14


def test_sweep_all_originators(tmp_path, capsys):
    out_path = tmp_path / "all.csv"
    code, _, _ = run_cli(capsys, "sweep", "--k", "2..2", "--r", "1..1",
                         "--originators", "all", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 4  # header + u in {1, 2, 3}


def test_sweep_deterministic(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli(capsys, "sweep", "--k", "2..3", "--r", "1..2", "--out", str(a))
    run_cli(capsys, "sweep", "--k", "2..3", "--r", "1..2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_sweep_bad_range(capsys):
    code, _, err = run_cli(capsys, "sweep", "--k", "4..2", "--r", "1..1")
    assert code == 1


@pytest.mark.parametrize("argv,word", [
    (("--k", "x", "--r", "1"), "range bound 'x'"),
    (("--k", "2", "--r", "1", "--originators", "1,a"), "originator 'a'"),
], ids=["range", "originators"])
def test_sweep_bad_integer_is_usage_error(capsys, argv, word):
    code, _, err = run_cli(capsys, "sweep", *argv)
    assert code == 1
    assert err.startswith("usage error: ") and word in err


def test_sweep_negative_parallel_is_usage_error(capsys, monkeypatch):
    """--parallel -1 is refused before any cell runs, and no worker starts."""
    import linebroadcast.cli as cli

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(cli, "_sweep_cell", no_pool)
    code, out, err = run_cli(capsys, "sweep", "--k", "2..3", "--r", "1..2",
                             "--parallel", "-1")
    assert code == 1
    assert err.startswith("usage error: ") and "--parallel -1" in err
    assert out == ""


def test_sweep_parallel_caps_workers(tmp_path, capsys, monkeypatch):
    import linebroadcast.cli as cli

    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    serial = tmp_path / "serial.csv"
    out = tmp_path / "out.csv"
    run_cli(capsys, "sweep", "--k", "2..3", "--r", "1..2", "--out", str(serial))
    # 4 cells on 3 cores, then 2 cells: never more workers than either
    run_cli(capsys, "sweep", "--k", "2..3", "--r", "1..2",
            "--parallel", "1000", "--out", str(out))
    assert out.read_bytes() == serial.read_bytes()
    run_cli(capsys, "sweep", "--k", "2", "--r", "1..2",
            "--parallel", "1000", "--out", str(out))
    assert asked == [3, 2]
    # with the core count unknown, one worker: the sweep runs in process
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    run_cli(capsys, "sweep", "--k", "2..3", "--r", "1..2",
            "--parallel", "1000", "--out", str(out))
    assert asked == [3, 2]
    assert out.read_bytes() == serial.read_bytes()


def test_sweep_parallel_matches_serial(tmp_path, capsys):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    run_cli(capsys, "sweep", "--k", "2..3", "--r", "1..2", "--out", str(serial))
    run_cli(capsys, "sweep", "--k", "2..3", "--r", "1..2",
            "--parallel", "2", "--out", str(parallel))
    assert serial.read_bytes() == parallel.read_bytes()


def test_run_fragment_bad_level(capsys):
    code, _, err = run_cli(capsys, "run", "--k", "2", "--r", "2",
                           "--alg", "tolevel:0")
    assert code == 1


@pytest.mark.parametrize("alg", ["tolevel:--1", "fromlevel:²", "tolevel:x", "fromlevel:"])
def test_run_fragment_level_must_be_an_integer(capsys, alg):
    code, out, err = run_cli(capsys, "run", "--k", "2", "--r", "2", "--alg", alg)
    assert code == 1 and out == ""
    assert err == f"usage error: level {alg.partition(':')[2]!r} is not an integer\n"


@pytest.mark.parametrize("alg", ["fromlevel:3", "fromlevel:-1"])
def test_run_fromlevel_bad_level_names_its_range(capsys, alg):
    """from_level takes levels 1..r, not the 0..r of a level listing."""
    code, out, err = run_cli(capsys, "run", "--k", "2", "--r", "2", "--alg", alg)
    assert code == 1 and out == ""
    assert err.strip() == f"error: OutOfRange: level {alg[10:]} not in [1, 2]"


def test_oracle_cli(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--k", "2", "--r", "1")
    assert code == 0
    assert "optimal_cost=2" in out and "bracket_ok=true" in out

    code, out, _ = run_cli(capsys, "oracle", "--k", "3", "--r", "1")
    assert code == 0
    assert "optimal_cost=4" in out

    code, out, _ = run_cli(capsys, "oracle", "--k", "3", "--r", "2")
    assert code == 0
    assert "optimal_cost=16" in out

    code, _, err = run_cli(capsys, "oracle", "--k", "2", "--r", "4")
    assert code == 5


def test_oracle_cli_solves_once(capsys, monkeypatch):
    import linebroadcast.cli as cli
    import linebroadcast.oracle as oracle

    solves = []
    real = oracle.optimal_cost

    def counted(*args, **kwargs):
        solves.append(kwargs.get("time_budget"))
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "optimal_cost", counted)
    monkeypatch.setattr(cli, "optimal_cost", counted, raising=False)
    code, out, _ = run_cli(capsys, "oracle", "--k", "2", "--r", "2", "--budget", "5")
    # the printed optimum and the bracket come from one solve at budget 5
    assert solves == [5]
    assert code == 0
    assert "optimal_cost=6 time=5" in out
    assert "algorithm_costs=alg1:6,alg2:6,alg3:10" in out
    assert "bracket_ok=true" in out

    solves.clear()
    code, out, _ = run_cli(capsys, "oracle", "--k", "2", "--r", "2")
    assert len(solves) == 1
    assert "optimal_cost=7 time=3" in out and "bracket_ok=true" in out
