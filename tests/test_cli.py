"""End-to-end checks of the command line front end, driven through main()."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from lvcops.cli import main
from lvcops.engine import dump_script
from lvcops.families import generate, parse_recipe
from lvcops.graphs import load
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


def _count_solves(monkeypatch) -> list[tuple]:
    """Record (variant, ell, cops) of every solve the solver module runs."""
    from lvcops import solver

    specs = []
    real = solver.solve

    def counting(g, spec, **kw):
        specs.append((spec.variant.value, spec.ell, spec.cops))
        return real(g, spec, **kw)

    monkeypatch.setattr(solver, "solve", counting)
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


# -- exit codes ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--recipe", "cycle:4", "--ell", "1", "--workers", "0"],
        ["solve", "--recipe", "cycle:4", "--ell", "1", "--budget", "0"],
        ["profile", "--recipe", "cycle:4", "--budget", "-3"],
        ["witness", "--ell", "1", "--limit", "1", "--workers", "two"],
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


# text-form graph files, each with the error line it must give
_BAD_TEXT_GRAPHS = {
    "3 2\n0 1\n1 2 0": "error: line 3: expected 'u v', got '1 2 0'",
    "# comment\n3 2\n0 1\n\n1": "error: line 5: expected 'u v', got '1'",
    "3 2\n0 1\n1 x": "error: line 3: expected 'u v', got '1 x'",
    "3 x\n0 1\n1 2": "error: line 1: expected 'n m', got '3 x'",
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


def test_simulate_losing_cop_count_exits_one(capsys):
    code, _, err = run(capsys, ["simulate", "--recipe", "cycle:6", "--ell", "1", "--cops", "1"])
    assert code == 1
    assert "raise --cops" in err
