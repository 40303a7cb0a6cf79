"""End-to-end checks of the command line front end, driven through main()."""

from __future__ import annotations

import collections
import contextlib
import enum
import io
import json
import os
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lvcops import cli
from lvcops.cli import main
from lvcops.engine import dump_script, load_script
from lvcops.families import generate, parse_recipe
from lvcops.graphs import MAX_ORDER, InputError, load
from lvcops.strategies import tree_one_visibility_script


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--format", "structured"])
    assert err == ""
    return code, json.loads(out)


# -- the documented examples ------------------------------------------------------


def test_solve_cycle_four_reports_two_cops(capsys):
    code, out, err = run(capsys, ["solve", "--recipe", "cycle:4", "--ell", "1", "--variant", "capture"])
    assert code == 0
    assert "cop number 2" in out


def test_rank_level_two_member_with_certificate(capsys):
    code, env = run_json(capsys, ["rank", "--recipe", "tfamily:k=2,ell=1"])
    assert code == 0
    assert env["results"]["rank"] == 2
    assert env["results"]["verified"] is True
    assert env["results"]["certificate"]["k"] == 2


def test_verify_builtin_two_cop_script(capsys):
    code, env = run_json(
        capsys, ["verify", "--recipe", "subdivided:3,3", "--script", "tell_2cop", "--ell", "1"]
    )
    assert code == 0
    rep = env["results"]["report"]
    assert rep["cleaned_at"] is not None
    assert rep["monotone"] is False
    assert any(e["type"] == "recontaminated" for e in env["events"])


def test_verify_builtin_three_cop_script_is_monotone(capsys):
    code, env = run_json(
        capsys, ["verify", "--recipe", "subdivided:3,3", "--script", "tell_3cop", "--ell", "1"]
    )
    assert code == 0
    rep = env["results"]["report"]
    assert rep["cleaned_at"] is not None
    assert rep["monotone"] is True


# -- envelope and determinism -------------------------------------------------------


def test_structured_envelope_shape(capsys):
    code, env = run_json(capsys, ["solve", "--recipe", "cycle:6", "--ell", "1"])
    assert code == 0
    assert sorted(env) == ["command", "events", "graph", "results", "spec"]
    assert env["command"] == "solve"
    assert env["graph"]["n"] == 6
    assert env["spec"] == {"cops": 2, "ell": 1, "variant": "capture"}
    assert env["results"]["winner"] == "cops"


def test_structured_output_is_byte_stable(capsys):
    argv = ["solve", "--recipe", "cycle:6", "--ell", "1", "--format", "structured"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    _, wide, _ = run(capsys, argv + ["--workers", "2"])
    assert first == second == wide


def test_profile_structured_stable_across_workers(capsys):
    argv = ["profile", "--recipe", "randomtree:n=7,seed=2", "--format", "structured"]
    _, one, _ = run(capsys, argv + ["--workers", "1"])
    _, two, _ = run(capsys, argv + ["--workers", "3"])
    assert one == two


# -- the envelope encoder -------------------------------------------------------------


def _json_reference(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)  # surrogates too
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(allow_nan=True, allow_infinity=True),
    _TEXT,
)
_NUMBER_KEYS = st.one_of(st.integers(), st.floats(allow_nan=True), st.booleans())
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=5),
        # keys sort by value before they become strings: 10 after 2
        st.dictionaries(_NUMBER_KEYS, inner, max_size=5),
    ),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_VALUES)
def test_envelope_encoder_matches_json_dumps(value):
    assert cli._encode_json(value) == _json_reference(value)


def test_envelope_encoder_edge_values():
    nan, inf = float("nan"), float("inf")
    value = {
        "floats": [nan, inf, -inf, 0.1, -0.0, 1e300],
        "text": ["\x00\x1f\"\\/", "\u00e9\u2603", "\U0001f600", "\ud800"],
        "empty": [[], {}, (), ""],
        "tuple": (1, (2, 3)),
        "keys": {10: 1, 2: 2, 1.5: 3, True: 4, -3: 5},
        "flags": {False: None},
        "big": 10**30,
    }
    assert cli._encode_json(value) == _json_reference(value)

    # subclasses take json's own order of checks
    class Level(enum.IntEnum):
        HIGH = 3

    class Name(str):
        pass

    pair = collections.namedtuple("pair", "u v")
    value = {
        Name("level"): Level.HIGH,
        "pair": pair(1, [2.5, Level.HIGH]),
        "ordered": collections.OrderedDict([("b", 1), ("a", [])]),
        "by_level": {Level.HIGH: Name("\u00e9"), 2: True},
    }
    assert cli._encode_json(value) == _json_reference(value)

    # lists the shape fast paths take, and near misses they must hand back
    shapes = {
        "ints": [[True, 1], [1, Level.HIGH], [0, -7, 10**30], list(range(300))],
        "rows": [[[1, 2], [3]], [[], []], [(1, 2), [3, 4]], [[1, True]], [[1, 2], []], [[1.0, 2]]],
        "tuples": ((1, 2), (3, 4)),
        "dicts": [
            [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}],
            [{"b": 1, "a": True}, {"b": 2, "a": False}],
            [{"a": 1, "b": None}, {"a": 2, "b": 3}],
            [{"a": 1, "b": 0.5}, {"a": 2, "b": 3}],
            [{"a": 1, "b": 2}, {"a": 3, "b": True}],
            [{"a": 1, "b": 2}, {"a": 3, "b": None}],
            [{"a": 1, "b": 2}, {"a": 3, "b": 0.5}],
            [{"a": "x", "b": 2}, {"a": Name("y"), "b": 3}],
            [{"a": "\"\\\n\u00e9%s", "b": 1}, {"a": "\ud800", "b": 2}],
            [{"a": 1, "b": 2}, {"a": 3, "c": 4}],
            [{"a": 1, "b": 2}, {"a": 3}],
            [{"a": 1, "b": 2}, {"a": 3, "b": "x"}],
            [{"%d": 1, "%%": 2}, {"%d": 3, "%%": 4}],
            [{"a": 1}, {"a": 2}],
            [{10: 1, 2: 2}, {10: 3, 2: 4}],
            [{1.5: "x", 2: "y"}, {1.5: "z", 2: "w"}],
            [{Name("b"): 1, "a": 2}, {"b": 3, "a": 4}],
            [{"a": [1, 2], "b": 1}, {"a": [3, 4], "b": 2}],
            # bool and int-list columns, and a shorter last dict
            [{"a": [1, 2], "b": True}, {"a": [], "b": False}, {"a": [3]}],
            [{"a": [1, 2], "b": True}, {"a": [3], "b": False}],
            [{"a": [1, True], "b": 1}, {"a": [2], "b": 2}],
            [{"a": [1.5], "b": 1}, {"a": [2], "b": 2}],
            [{"a": [[1]], "b": 1}, {"a": [[2]], "b": 2}],
            [{"a": (1, 2), "b": 1}, {"a": (3,), "b": 2}],
            [{"a": [1], "b": 1}, {"a": 2, "b": 2}],
            [{"a": 1, "b": True}, {"a": 2, "b": 1}],
            [{"a": 1, "b": 2}, {"a": 3}, {"a": 4, "b": 5}],
            [{"a": 1, "b": 2}, {"a": 3, "b": 4, "c": 5}],
            [{"a": 1, "b": 2}, {"c": None}],
            [{"a": 1, "b": 2}, {}],
            [{"a": 1, "b": 2, "c": [3]}, {"a": 4, "b": 5, "c": [6]}, {"b": 0.5}],
        ],
    }
    assert cli._encode_json(shapes) == _json_reference(shapes)
    with pytest.raises(TypeError):
        cli._encode_json({"x": {1, 2}})
    with pytest.raises(TypeError):
        cli._encode_json({(1, 2): 0})


_README_EXAMPLES = [
    "solve --recipe cycle:4 --ell 1 --variant capture",
    "rank --recipe tfamily:k=2,ell=1",
    "verify --recipe subdivided:3,3 --script tell_2cop --ell 1",
    "solve --recipe cycle:7 --ell 2 --variant see",
    "solve --recipe complete:6 --ell 0",
    "solve --recipe tfamily:k=2,ell=1 --ell 1",
    "verify --recipe tfamily:k=2,ell=1 --script tfamily --ell 1",
    "rank --recipe randomtree:n=12,seed=7 --ell 1",
    "solve --recipe randomtree:n=12,seed=7 --ell 1",
    "profile --recipe randomchordal:n=9,seed=3 --ell 1 --ell 2",
    "verify --recipe subdivided:3,3 --script tell_3cop --ell 1",
    "profile --recipe randomtree:n=8,seed=1 --parts classical,capture,see --ell 2",
    "profile --recipe path:5 --parts classical,delayed",
    "solve --recipe cycle:6 --ell 1 --workers 2",
    # radius keys are ints in the profile and sort as numbers: 2 before 10
    "profile --recipe path:5 --ell 2 --ell 10",
    "analyze --recipe spider:3,2 --ell 1 --ell 2",
    "generate --recipe tfamily:k=2,ell=1",
    "simulate --recipe path:5 --ell 1 --script tree1vis --variant see --seed 3",
    "witness --graph GAP --ell 1",
]


@pytest.mark.parametrize("line", _README_EXAMPLES)
def test_structured_envelope_is_the_json_dumps_bytes(capsys, monkeypatch, line):
    """The README's command line examples, a profile with radii 2 and 10,
    and the commands the README shows no example of: stdout is exactly
    json.dumps of the payload.  The long monotone solve and the criterion-9
    witness search are left out for time; the witness envelope is checked
    on the known gap graph instead."""
    payloads = []
    real = cli._emit

    def grab(args, payload, text):
        payloads.append(payload)
        real(args, payload, text)

    monkeypatch.setattr(cli, "_emit", grab)
    gap = str(Path(__file__).parent / "data" / "gap_witness.txt")
    argv = [gap if word == "GAP" else word for word in line.split()]
    code, out, err = run(capsys, argv + ["--format", "structured"])
    assert code == 0 and err == ""
    assert out == _json_reference(payloads[0]) + "\n"
    if "--ell 10" in line:
        assert list(payloads[0]["results"]["see_at"]) == [2, 10]
        assert out.index('"2":') < out.index('"10":')


# -- generate and file round trips ---------------------------------------------------


def test_generate_text_feeds_back_as_graph_file(capsys, tmp_path):
    path = tmp_path / "g.txt"
    code, out, _ = run(capsys, ["generate", "--recipe", "spider:3,2", "--out", str(path)])
    assert code == 0 and out == ""
    g = load(path.read_text())
    assert g.n == 7
    code, env = run_json(capsys, ["analyze", "--graph", str(path)])
    assert code == 0
    assert env["results"]["is_tree"] is True


def test_generate_structured_carries_recipe_and_annotations(capsys):
    code, env = run_json(capsys, ["generate", "--recipe", "tfamily:k=2,ell=1"])
    assert code == 0
    assert env["results"]["recipe"] == "tfamily:ell=1,k=2"  # canonical param order
    assert env["results"]["annotations"]
    assert len(env["results"]["edges"]) == env["graph"]["n"] - 1


def test_out_flag_writes_identical_bytes(capsys, tmp_path):
    path = tmp_path / "r.json"
    argv = ["analyze", "--recipe", "cycle:5", "--format", "structured"]
    _, stdout_body, _ = run(capsys, argv)
    code, out, _ = run(capsys, argv + ["--out", str(path)])
    assert code == 0 and out == ""
    assert path.read_text() == stdout_body


def test_verify_accepts_script_file(capsys, tmp_path):
    member = generate(parse_recipe("randomtree:n=9,seed=4"))
    script = tree_one_visibility_script(member.graph)
    gpath = tmp_path / "g.txt"
    spath = tmp_path / "s.txt"
    run(capsys, ["generate", "--recipe", "randomtree:n=9,seed=4", "--out", str(gpath)])
    spath.write_text("# walks\n" + dump_script(script))
    code, env = run_json(
        capsys, ["verify", "--graph", str(gpath), "--script", str(spath), "--ell", "1"]
    )
    assert code == 0
    assert env["results"]["report"]["cleaned_at"] is not None


# -- other commands -------------------------------------------------------------------


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_script_file_off_the_graph_exits_one(capsys, tmp_path, command):
    path = tmp_path / "walks.txt"
    path.write_text("0 1\n5 6\n")
    argv = [command, "--recipe", "path:6", "--ell", "1", "--variant", "see", "--script", str(path)]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: vertex 6 out of range"]


def test_analyze_reports_ball_domination_per_radius(capsys):
    code, env = run_json(capsys, ["analyze", "--recipe", "cycle:6", "--ell", "1", "--ell", "2"])
    assert code == 0
    assert env["results"]["ball_domination"] == {"1": 2, "2": 2}
    assert env["results"]["is_chordal"] is False


def test_solve_fixed_cop_count_reports_robber_win(capsys):
    code, env = run_json(capsys, ["solve", "--recipe", "cycle:6", "--ell", "1", "--cops", "1"])
    assert code == 0
    assert env["results"]["winner"] == "robber"
    assert "number" not in env["results"]


def test_profile_selected_parts_only(capsys):
    code, env = run_json(
        capsys, ["profile", "--recipe", "path:5", "--parts", "classical,see"]
    )
    assert code == 0
    assert env["results"]["classical"] == 1
    assert env["results"]["see_at"] == {"1": 1}
    assert env["results"]["capture_at"] == {}


def test_simulate_scripted_cops_random_robber(capsys):
    code, env = run_json(
        capsys,
        [
            "simulate", "--recipe", "randomtree:n=8,seed=3", "--ell", "1",
            "--script", "tree1vis", "--variant", "see", "--seed", "7",
        ],
    )
    assert code == 0
    assert env["results"]["outcome"] in ("captured", "seen")
    assert env["events"][0]["round"] == 1


def test_simulate_solved_cops_solved_robber(capsys):
    code, env = run_json(
        capsys,
        ["simulate", "--recipe", "cycle:5", "--ell", "0", "--cops", "3", "--robber", "solved"],
    )
    assert code == 0
    assert env["results"]["outcome"] == "captured"


def test_simulate_seed_changes_trace_but_not_schema(capsys):
    argv = ["simulate", "--recipe", "cycle:7", "--ell", "2", "--cops", "2"]
    _, a = run_json(capsys, argv + ["--seed", "1"])
    _, b = run_json(capsys, argv + ["--seed", "1"])
    assert a == b
    _, c = run_json(capsys, argv + ["--seed", "2"])
    assert sorted(c) == sorted(a)


def test_witness_single_candidate_miss_exits_two(capsys):
    code, env = run_json(capsys, ["witness", "--recipe", "path:2", "--ell", "1"])
    assert code == 2
    assert env["results"]["found"] is False
    assert env["results"]["tried"] == 1


def test_witness_single_candidate_hit(capsys):
    # the known gap graph: one cop always gets sight, two are needed to land
    path = Path(__file__).parent / "data" / "gap_witness.txt"
    code, env = run_json(capsys, ["witness", "--graph", str(path), "--ell", "1"])
    assert code == 0
    assert env["results"]["found"] is True
    assert env["results"]["profile"]["classical"] == 1
    assert env["results"]["profile"]["capture_at"] == {"1": 2}


@pytest.mark.parametrize("max_n, code", [(MAX_ORDER + 1, 1), (MAX_ORDER, 2)])
def test_witness_max_n_is_capped_at_the_order_cap(capsys, monkeypatch, max_n, code):
    # the search is stubbed: it draws one candidate and finds nothing, so
    # no solve runs; an order over the cap is refused before any draw
    from lvcops.solver import WitnessResult

    drawn = []

    def search(hit, candidates, *, limit, profiler, workers):
        drawn.append(candidates(0).n)
        return WitnessResult(None, None, 1, 0)

    monkeypatch.setattr(cli, "search_witness", search)
    got, out, err = run(capsys, ["witness", "--ell", "1", "--max-n", str(max_n), "--limit", "1"])
    assert got == code
    if code == 1:
        assert out == "" and drawn == []
        assert err.splitlines() == [
            f"lvcops witness: error: argument --max-n: must be at most {MAX_ORDER}, got {max_n}"
        ]
    else:
        assert drawn == [MAX_ORDER] and err == ""


# -- witness worker processes ------------------------------------------------------


def _cpus(monkeypatch, count: int) -> None:
    """Make `count` CPUs usable, so --workers up to count starts that many
    processes on any machine."""
    from lvcops import solver

    monkeypatch.setattr(solver, "_usable_cpus", lambda: count)


WITNESS_STREAMS = {
    # (argv, exit code, tried, skipped)
    "miss": (["--seed", "0", "--limit", "300"], 2, 300, 0),
    "hit": (["--seed", "14000", "--limit", "400"], 0, 269, 0),  # the criterion-9 witness
    "budget skips": (["--seed", "0", "--limit", "200", "--budget", "60"], 2, 200, 27),
}


@pytest.mark.parametrize("case", sorted(WITNESS_STREAMS))
def test_witness_workers_are_byte_identical(capsys, monkeypatch, case):
    extra, want_code, tried, skipped = WITNESS_STREAMS[case]
    _cpus(monkeypatch, 3)
    argv = ["witness", "--ell", "1", "--max-n", "8", "--format", "structured"] + extra
    outs = []
    for workers in (1, 2, 3):
        code, out, err = run(capsys, argv + ["--workers", str(workers)])
        assert (code, err) == (want_code, ""), workers
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    res = json.loads(outs[0])["results"]
    assert (res["found"], res["tried"], res["skipped"]) == (want_code == 0, tried, skipped)


def _no_fork():
    raise AssertionError("forked")


def test_workers_above_the_cap_exit_before_any_fork(capsys, monkeypatch):
    monkeypatch.setattr(os, "fork", _no_fork)
    code, out, err = run(capsys, ["witness", "--ell", "1", "--limit", "5", "--workers", "100000"])
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"lvcops witness: error: argument --workers: must be at most {cli.MAX_WORKERS}, got 100000"
    ]


def test_witness_stays_serial_while_another_thread_runs(capsys, monkeypatch):
    # a forked child would inherit any lock the other thread holds
    import threading

    monkeypatch.setattr(os, "fork", _no_fork)
    _cpus(monkeypatch, 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        code, env = run_json(capsys, ["witness", "--ell", "1", "--seed", "14000", "--limit", "400",
                                      "--workers", "2"])
    finally:
        release.set()
        other.join(30)
    assert not other.is_alive()
    assert code == 0 and env["results"]["tried"] == 269


def test_worker_processes_are_capped_by_cpus_and_candidates(capsys, monkeypatch):
    forks = []
    real = os.fork

    def fork():
        forks.append(1)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    argv = ["witness", "--ell", "1", "--max-n", "8", "--format", "structured"]
    _cpus(monkeypatch, 64)
    assert run(capsys, argv + ["--limit", "2", "--workers", str(cli.MAX_WORKERS)])[0] == 2
    assert len(forks) == 1  # two candidates: the parent and one child
    _cpus(monkeypatch, 2)
    forks.clear()
    assert run(capsys, argv + ["--limit", "40", "--workers", "3"])[0] == 2
    assert len(forks) == 1  # two usable CPUs


def test_witness_hit_stops_the_workers(capsys, monkeypatch):
    # criterion 9's witness is candidate 268 of stream seed 14000, screened
    # by the parent at two workers; the child stalls from the next round on,
    # and the parent must stop it, not wait for it
    from lvcops import solver

    _cpus(monkeypatch, 2)
    parent = os.getpid()
    span = 2 * solver._BLOCK
    stall_from = 14000 + -(-269 // span) * span
    real = cli.random_copwin_graph

    def draw(max_n, seed):
        if os.getpid() != parent and seed >= stall_from:
            time.sleep(20)
            os._exit(0)  # a parent that waits for the child is slow, not stuck
        return real(max_n, seed=seed)

    monkeypatch.setattr(cli, "random_copwin_graph", draw)
    t0 = time.perf_counter()
    code, env = run_json(capsys, ["witness", "--ell", "1", "--seed", "14000", "--limit", "100000",
                                  "--workers", "2"])
    assert code == 0 and env["results"]["tried"] == 269
    assert time.perf_counter() - t0 < 10
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("failure", ["everywhere", "in the child", "child exits"])
def test_witness_workers_leave_no_process(capsys, monkeypatch, failure):
    from lvcops.families import random_copwin_graph

    _cpus(monkeypatch, 2)
    argv = ["witness", "--ell", "1", "--max-n", "8", "--seed", "0", "--limit", "40", "--workers", "2"]
    assert run(capsys, argv)[0] == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    # candidate 5 reaches the capture screen, and at two workers the child
    # screens the odd candidates
    target = random_copwin_graph(8, seed=5).key()
    parent = os.getpid()
    real = cli.profile

    def screen(h, radii, **kw):
        if kw.get("parts") == ("capture",) and h.key() == target:
            if failure == "everywhere":
                raise ValueError("screen failed on candidate 5")
            if os.getpid() != parent:
                if failure == "child exits":
                    os._exit(3)
                raise ValueError("screen failed in the child")
        return real(h, radii, **kw)

    monkeypatch.setattr(cli, "profile", screen)
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    assert re.fullmatch({
        "everywhere": r"error: screen failed on candidate 5",
        "in the child": r"error: witness candidate 5 screened differently in a worker",
        "child exits": r"error: witness worker \d+ ended before it screened its candidates",
    }[failure], line)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _count_solves(monkeypatch) -> list[tuple]:
    """Record (variant, ell, cops) of every game the solver module solves
    or decides.  A solve answers by decide, and that call is part of the
    solve, not a game of its own."""
    from lvcops import solver

    specs = []
    inside = []
    for name in ("solve", "_decide"):
        real = getattr(solver, name)

        def counting(g, spec, *args, real=real, **kw):
            if not inside:
                specs.append((spec.variant.value, spec.ell, spec.cops))
            inside.append(spec)
            try:
                return real(g, spec, *args, **kw)
            finally:
                inside.pop()

        monkeypatch.setattr(solver, name, counting)
    return specs


def test_witness_hit_solves_capture_number_once(capsys, monkeypatch):
    specs = _count_solves(monkeypatch)
    path = Path(__file__).parent / "data" / "gap_witness.txt"
    code, env = run_json(capsys, ["witness", "--graph", str(path), "--ell", "1"])
    assert code == 0 and env["results"]["found"] is True
    assert [s for s in specs if s[0] == "capture"] == [("capture", 1, 1), ("capture", 1, 2)]
    assert len(specs) == len(set(specs))


def test_solve_number_solves_final_count_once(capsys, monkeypatch):
    specs = _count_solves(monkeypatch)
    code, env = run_json(capsys, ["solve", "--recipe", "cycle:4", "--ell", "1"])
    assert code == 0 and env["results"]["number"] == 2
    assert env["results"]["winner"] == "cops" and env["results"]["placement"]
    assert specs == [("capture", 1, 1), ("capture", 1, 2)]


def test_domination_solves_each_radius_once(capsys, monkeypatch):
    from lvcops import graphs

    radii = []
    real = graphs.k_domination_number

    def counting(g, r):
        radii.append(r)
        return real(g, r)

    monkeypatch.setattr(cli, "k_domination_number", counting)
    monkeypatch.setattr(graphs, "k_domination_number", counting)
    code, env = run_json(capsys, ["analyze", "--recipe", "path:7", "--ell", "1", "--ell", "2"])
    assert code == 0 and env["results"]["ball_domination"] == {"1": 3, "2": 2}
    assert sorted(radii) == [1, 2]
    radii.clear()
    argv = ["profile", "--recipe", "path:7", "--ell", "1", "--ell", "2", "--parts", "domination"]
    code, env = run_json(capsys, argv)
    assert code == 0 and env["results"]["domination"] == 3
    assert sorted(radii) == [1, 2]


# -- exit codes ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--recipe", "cycle:4", "--ell", "1", "--workers", "0"],
        ["solve", "--recipe", "cycle:4", "--ell", "1", "--budget", "0"],
        ["profile", "--recipe", "cycle:4", "--budget", "-3"],
        ["witness", "--ell", "1", "--limit", "1", "--workers", "two"],
        ["witness", "--ell", "1", "--limit", "1", "--workers", "65"],
        ["simulate", "--recipe", "path:4", "--ell", "1", "--cops", "1", "--rounds", "-1"],
        ["witness", "--ell", "1", "--limit", "-5"],
    ],
)
def test_bad_solver_flag_value_exits_one(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    flags = ("--workers", "--budget", "--rounds", "--limit")
    assert any(f in err for f in flags) and "Traceback" not in err



def test_unknown_recipe_exits_one(capsys):
    code, _, err = run(capsys, ["solve", "--recipe", "nope:3", "--ell", "1"])
    assert code == 1
    assert "unknown family" in err


@pytest.mark.parametrize(
    "recipe, message",
    [
        ("path:4,seed=3", "unknown parameter 'seed'; path takes n"),
        ("cycle:6,x=3", "unknown parameter 'x'; cycle takes n"),
        ("randomtree:n=6,seed=1,bias=9", "unknown parameter 'bias'; randomtree takes n, seed"),
        ("cycle:6,n=7", "parameter 'n' given twice; cycle takes n"),
        ("tfamily:2,ell=1", "too many positional arguments for tfamily; tfamily takes k, ell, attach"),
    ],
)
def test_bad_recipe_parameter_exits_one(capsys, recipe, message):
    code, out, err = run(capsys, ["generate", "--recipe", recipe])
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: {message}"]


# graph files, each with the error line it must give
_BAD_TEXT_GRAPHS = {
    "3 2\n0 1\n1 2 0": "error: line 3: expected 'u v', got '1 2 0'",
    "# comment\n3 2\n0 1\n\n1": "error: line 5: expected 'u v', got '1'",
    "3 2\n0 1\n1 x": "error: line 3: expected 'u v', got '1 x'",
    "3 x\n0 1\n1 2": "error: line 1: expected 'n m', got '3 x'",
    # over the order cap: refused before the n x n distance table is built
    "257 0": "error: graph has 257 vertices, more than 256",
    '{"n": 257, "edges": []}': "error: graph has 257 vertices, more than 256",
}


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 3}',
        '{"edges": []}',
        '{"n": null, "edges": []}',
        '{"n": 3, "edges": 5}',
        '{"n": 3, "edges": [["a", 1]]}',
        '{"n": 3, "edges": [[0, 1.5]]}',
        '{"n": 2.9, "edges": [[0, 1]]}',
        '{"n": true, "edges": []}',
        *_BAD_TEXT_GRAPHS,
    ],
)
def test_malformed_graph_file_exits_one(capsys, tmp_path, text):
    path = tmp_path / "g.json"
    path.write_text(text)
    code, out, err = run(capsys, ["analyze", "--graph", str(path)])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    if text in _BAD_TEXT_GRAPHS:
        assert err.strip() == _BAD_TEXT_GRAPHS[text]
    else:
        assert '"n": <int>' in err


@pytest.mark.parametrize(
    "parse, text",
    [
        (load, "3 x\n0 1\n1 2"),
        (load, "257 0"),
        (load, "2 1\n0 5"),  # Graph's own edge check
        (load, '{"n": 3}'),
        (load, "{"),  # JSON syntax
        (load, ""),
        (parse_recipe, "mysterygraph:3"),
        (parse_recipe, "cycle:6,x=3"),
        (parse_recipe, "cycle:six"),
        (parse_recipe, "path:1,2"),
        (load_script, "0 x 2\n"),
        (load_script, "   "),
    ],
)
def test_loaders_raise_input_error(parse, text):
    with pytest.raises(InputError):
        parse(text)


def test_oversized_recipe_exits_one(capsys):
    # refused from the parameters alone, before anything is built
    code, out, err = run(capsys, ["solve", "--recipe", "tfamily:k=12,ell=1", "--ell", "1"])
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: recipe tfamily:ell=1,k=12 builds more than 256 vertices"]


def test_missing_required_flag_exits_one(capsys):
    code, _, err = run(capsys, ["solve", "--recipe", "cycle:4"])
    assert code == 1
    assert "--ell" in err


def test_unknown_subcommand_exits_one(capsys):
    code, _, _ = run(capsys, ["frobnicate"])
    assert code == 1


def test_missing_graph_file_exits_one(capsys, tmp_path):
    code, _, err = run(capsys, ["analyze", "--graph", str(tmp_path / "absent.txt")])
    assert code == 1
    assert "error" in err


def test_both_recipe_and_graph_exits_one(capsys, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("2 1\n0 1\n")
    code, _, err = run(capsys, ["analyze", "--recipe", "cycle:4", "--graph", str(path)])
    assert code == 1
    assert "not both" in err


def test_budget_stop_exits_two(capsys):
    code, _, _ = run(
        capsys, ["solve", "--recipe", "cycle:9", "--ell", "0", "--cops", "2", "--budget", "5"]
    )
    assert code == 2


def test_cop_number_budget_stop_exits_two(capsys):
    code, _, err = run(capsys, ["solve", "--recipe", "cycle:9", "--ell", "0", "--budget", "5"])
    assert code == 2
    assert "inconclusive" in err


def test_script_cop_count_mismatch_exits_one(capsys):
    code, _, err = run(
        capsys,
        ["verify", "--recipe", "subdivided:3,3", "--script", "tell_2cop", "--ell", "1", "--cops", "3"],
    )
    assert code == 1
    assert "2 cops" in err


def test_unknown_script_name_exits_one(capsys):
    code, _, err = run(capsys, ["verify", "--recipe", "cycle:4", "--script", "no_such", "--ell", "1"])
    assert code == 1
    assert "unknown script" in err


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == 0
    assert "witness" in out


@pytest.mark.parametrize("command", ["solve", "simulate"])
def test_more_cops_than_vertices_exits_one_at_once(capsys, command):
    t0 = time.perf_counter()
    code, out, err = run(capsys, [command, "--recipe", "cycle:4", "--ell", "1", "--cops", "12"])
    assert time.perf_counter() - t0 < 2.0
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: 12 cops on a graph of order 4; at most 4 are ever needed"]


def test_cops_equal_to_order_is_legal(capsys):
    code, env = run_json(capsys, ["solve", "--recipe", "cycle:4", "--ell", "1", "--cops", "4"])
    assert code == 0
    assert env["results"]["winner"] == "cops"


def test_parser_reuse_leaks_no_state(capsys):
    """One parser serves every call in a process; a sequence of calls,
    including a usage error and --help, gives each the output a freshly
    built parser gives."""
    analyze = ["analyze", "--recipe", "spider:3,2", "--format", "structured"]
    sequence = [
        analyze + ["--ell", "1", "--ell", "2"],
        analyze,
        analyze + ["--no-such-flag"],
        ["--help"],
        analyze + ["--ell", "1", "--ell", "2"],
    ]
    shared = [run(capsys, argv) for argv in sequence]
    assert cli._build_parser() is cli._build_parser()
    fresh = []
    for argv in sequence:
        cli._build_parser.cache_clear()
        fresh.append(run(capsys, argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 1, 0, 0]
    assert shared[0] == shared[4]
    assert json.loads(shared[0][1])["results"]["ball_domination"] == {"1": 3, "2": 1}
    assert json.loads(shared[1][1])["results"]["ball_domination"] == {"1": 3}
    assert len(shared[2][2].splitlines()) == 1
    args = cli._build_parser().parse_args(["analyze", "--ell", "3"])
    assert args.ell == [3]
    assert cli._build_parser().parse_args(["analyze"]).ell is None


def test_simulate_losing_cop_count_exits_one(capsys):
    code, _, err = run(capsys, ["simulate", "--recipe", "cycle:6", "--ell", "1", "--cops", "1"])
    assert code == 1
    assert "raise --cops" in err


# -- fuzzing the input boundary ---------------------------------------------------------
#
# Every bad input exits 1 with one stderr line and no traceback; good inputs
# exit 0 (or 2 at a budget stop).  Each strategy draws a well-formed input and
# then, most of the time, breaks it in a few places, so that examples reach
# every check of the format, and past it; graphs stay small, so that those
# that parse are cheap to analyze.

_FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)
_JUNK = st.sampled_from(["x", "1.5", "-1", "-", "0x1", "1e3", "\u0663", "#", "n=3", "=", ",", ":", "", "999"])
_JUNK_LINE = st.lists(_JUNK, max_size=3).map(" ".join)


@st.composite
def _broken(draw, lines: list[str], junk=_JUNK_LINE) -> list[str]:
    """lines with up to three of: a line replaced, dropped, repeated or
    inserted, or one field of a line replaced."""
    lines = list(lines)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        at = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["replace", "drop", "repeat", "insert", "field"]))
        if op == "insert" or not lines:
            lines.insert(at, draw(st.one_of(junk, st.just("# note"), st.just(""))))
            continue
        at = min(at, len(lines) - 1)
        if op == "replace":
            lines[at] = draw(junk)
        elif op == "drop":
            del lines[at]
        elif op == "repeat":
            lines.insert(at, lines[at])
        else:
            fields = lines[at].split() or [""]
            fields[draw(st.integers(0, len(fields) - 1))] = draw(_JUNK)
            lines[at] = " ".join(fields)
    return lines


@st.composite
def _small_graphs(draw) -> tuple[int, list[list[int]]]:
    n = draw(st.integers(1, 10))
    edges = set()
    if draw(st.booleans()):  # connected: a random tree first
        edges |= {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    edges = [list(e) if draw(st.booleans()) else [e[1], e[0]] for e in sorted(edges)]
    return n, draw(st.permutations(edges))


@st.composite
def _text_graph_files(draw) -> str:
    n, edges = draw(_small_graphs())
    lines = [f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
    return "\n".join(draw(_broken(lines)))


_JSON_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 300), st.floats(), st.text(max_size=2))


@st.composite
def _json_graph_files(draw) -> str:
    n, edges = draw(_small_graphs())
    obj = {"n": n, "edges": edges}
    op = draw(st.sampled_from(["none", "none", "n", "edge", "edges", "drop", "extra", "loop", "cut"]))
    if op == "n":
        obj["n"] = draw(_JSON_JUNK)
    elif op == "edge" and edges:
        edges[draw(st.integers(0, len(edges) - 1))] = draw(st.one_of(_JSON_JUNK, st.lists(_JSON_JUNK, max_size=3)))
    elif op == "edges":
        obj["edges"] = draw(_JSON_JUNK)
    elif op == "drop":
        del obj[draw(st.sampled_from(["n", "edges"]))]
    elif op == "extra":
        obj["m"] = len(edges)
    elif op == "loop":
        edges.append([n - 1, n - 1])
    text = json.dumps(obj)
    return text[: draw(st.integers(0, len(text) - 1))] if op == "cut" else text


_GRAPH_FILES = st.one_of(_text_graph_files(), _json_graph_files(), st.text(max_size=30))
_GRAPH_COMMANDS = st.sampled_from(
    [["analyze"], ["analyze", "--ell", "2"], ["rank", "--ell", "1"], ["verify", "--script", "tree1vis", "--ell", "1"]]
)

# each family's parameters, with values that build small graphs
_RECIPE_PARAMS = {
    "path": {"n": (1, 30)},
    "cycle": {"n": (3, 30)},
    "complete": {"n": (1, 12)},
    "biclique": {"m": (1, 6), "n": (1, 6)},
    "spider": {"legs": (1, 5), "length": (1, 5)},
    "tfamily": {"k": (1, 3), "ell": (0, 2), "attach": (0, 2)},
    "subdivided": {"depth": (0, 4), "subdivisions": (0, 3)},
    "randomtree": {"n": (1, 40), "seed": (0, 99)},
    "randomchordal": {"n": (1, 20), "seed": (0, 99), "bias": (0, 4)},
}


@st.composite
def _recipes(draw) -> str:
    family = draw(st.sampled_from(sorted(_RECIPE_PARAMS)))
    args = []
    for name, (lo, hi) in _RECIPE_PARAMS[family].items():
        if draw(st.integers(0, 9)):  # mostly given
            value = draw(st.integers(lo, hi))
            # the leading ones may go by position, except for tfamily
            named = family == "tfamily" or args and "=" in args[-1] or draw(st.booleans())
            args.append(f"{name}={value}" if named else str(value))
    junk = st.one_of(_JUNK, st.builds("{}={}".format, st.sampled_from(["n", "k", "seed", "x"]), _JUNK),
                     st.builds("{}={}".format, st.sampled_from(["n", "k", "depth", "legs"]), st.integers(-3, 10**6)))
    return f"{family}:" + ",".join(draw(_broken(args, junk)))


_RECIPES = st.one_of(_recipes(), st.text(max_size=20))


@st.composite
def _script_files(draw) -> str:
    """Walks on path:6, one line per cop; vertex 6 is off the graph."""
    length = draw(st.integers(1, 6))
    walks = []
    for _ in range(draw(st.integers(1, 3))):
        walk = [draw(st.integers(0, 6))]
        for _ in range(length - 1):
            walk.append(min(6, max(0, walk[-1] + draw(st.integers(-1, 1)))))
        walks.append(" ".join(map(str, walk)))
    return "\n".join(draw(_broken(walks)))


_SCRIPT_FILES = st.one_of(_script_files(), st.text(max_size=30))
_SCRIPT_COMMANDS = st.sampled_from(
    [
        ["verify", "--ell", "1"],
        ["verify", "--ell", "0", "--variant", "capture"],
        ["simulate", "--ell", "1", "--variant", "see"],
        ["simulate", "--ell", "0", "--rounds", "8"],
    ]
)


def _fuzz_call(argv) -> None:
    """Run main on argv and check the exit code contract."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@_FUZZ
@given(text=_GRAPH_FILES, command=_GRAPH_COMMANDS, structured=st.booleans())
def test_fuzz_graph_files(fuzz_dir, text, command, structured):
    path = fuzz_dir / "graph.txt"
    path.write_text(text, encoding="utf-8")
    _fuzz_call(command + ["--graph", str(path)] + (["--format", "structured"] if structured else []))


@_FUZZ
@given(recipe=_RECIPES, structured=st.booleans())
def test_fuzz_recipes(recipe, structured):
    _fuzz_call(["generate", "--recipe", recipe] + (["--format", "structured"] if structured else []))


@_FUZZ
@given(text=_SCRIPT_FILES, command=_SCRIPT_COMMANDS)
def test_fuzz_script_files(fuzz_dir, text, command):
    path = fuzz_dir / "script.txt"
    path.write_text(text, encoding="utf-8")
    _fuzz_call(command + ["--recipe", "path:6", "--script", str(path)])
