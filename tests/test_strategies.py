"""Engine verification of the scripted constructions and online policies."""

from __future__ import annotations

import pytest

from lvcops.engine import (
    INV,
    BeliefState,
    GameSpec,
    Outcome,
    RandomRobber,
    Variant,
    play_match,
    simulate_script,
)
from lvcops.families import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_chordal,
    random_tree,
    spider,
    subdivided_binary,
    t_family,
)
from lvcops.graphs import Graph, bits, chordal_peo, metrics
from lvcops.solver import SolvedRobber, Winner, cop_number, solve
from lvcops.strategies import (
    UnsupportedStrategyError,
    chordal_pursuit,
    root_guarded_scripts,
    shadow_capture,
    t_ell_scripts,
    t_family_script,
    tree_one_visibility_script,
)


def ceil_div(a, b):
    return -(-a // b)


def report(g, script, ell):
    return simulate_script(g, GameSpec(ell, script.cops, Variant.SEE), script)


def petersen():
    edges = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
    )
    return Graph(10, edges)


class PinnedRobber:
    """Adversary forced to start on a chosen vertex; inner policy afterwards."""

    def __init__(self, inner, start):
        self.inner = inner
        self.start = start

    def place(self, g, spec, cops):
        return self.start

    def move(self, g, spec, state, robber):
        return self.inner.move(g, spec, state, robber)


class RecordingCops:
    """Log the observation stream and the wrapped policy's responses."""

    def __init__(self, inner):
        self.inner = inner
        self.log = []

    def place(self, g, spec):
        out = self.inner.place(g, spec)
        self.log.append(("place", out))
        return out

    def move(self, g, spec, state):
        out = self.inner.move(g, spec, state)
        self.log.append((state, out))
        return out


# -- radius/3 tree cleaning -------------------------------------------------------


def test_star_cleans_with_one_cop():
    g = complete_bipartite_graph(1, 5)
    sc = tree_one_visibility_script(g)
    assert sc.cops == 1
    rep = report(g, sc, 1)
    assert rep.seen_guaranteed_at == 0
    assert rep.cleaned_at == 0


def test_height_three_tree_single_cop_sweep():
    # one center, three branches of depth three
    g = spider(3, 3).graph
    assert metrics(g).radius == 3
    sc = tree_one_visibility_script(g)
    assert sc.cops == 1
    rep = report(g, sc, 1)
    assert rep.seen_guaranteed_at is not None
    assert rep.cleaned_at is not None


def test_taller_tree_needs_second_cop():
    g = random_tree(14, seed=11)
    met = metrics(g)
    assert 4 <= met.radius <= 6
    sc = tree_one_visibility_script(g)
    assert sc.cops == 2
    assert report(g, sc, 1).seen_guaranteed_at is not None


def test_tree_cop_count_matches_radius_bound():
    for seed in range(14):
        g = random_tree(6 + seed, seed=seed)
        want = max(1, ceil_div(metrics(g).radius, 3))
        sc = tree_one_visibility_script(g)
        assert sc.cops == want, seed
        rep = report(g, sc, 1)
        assert rep.seen_guaranteed_at is not None, seed
        assert rep.cleaned_at is not None, seed


def test_three_cop_spider_sweep():
    g = spider(4, 7).graph
    sc = tree_one_visibility_script(g)
    assert sc.cops == 3
    assert report(g, sc, 1).seen_guaranteed_at is not None


def test_tree_script_rejects_cycles():
    with pytest.raises(ValueError):
        tree_one_visibility_script(cycle_graph(5))


def test_tree_script_deterministic():
    g = random_tree(13, seed=5)
    assert tree_one_visibility_script(g).walks == tree_one_visibility_script(g).walks


# -- recursive three-branch family cleaning ---------------------------------------


def test_t_family_single_vertex_is_trivial():
    m = t_family(1, 1)
    sc = t_family_script(m)
    assert sc.cops == 1
    assert sc.rounds == 0
    assert report(m.graph, sc, 1).seen_guaranteed_at == 0


def test_t_family_level_two_script_and_solver_agree():
    m = t_family(2, 1)
    sc = t_family_script(m)
    assert sc.cops == 2
    assert report(m.graph, sc, 1).seen_guaranteed_at is not None
    # the script is tight: the solver confirms one cop loses the seeing game
    assert solve(m.graph, GameSpec(1, 1, Variant.SEE)).winner is Winner.ROBBER
    assert solve(m.graph, GameSpec(1, 2, Variant.SEE)).winner is Winner.COPS


def test_t_family_deeper_members_clean():
    for k, ell, seed in ((3, 1, 0), (2, 2, 0), (2, 1, 5), (3, 1, 2)):
        m = t_family(k, ell, attach_seed=seed)
        sc = t_family_script(m)
        assert sc.cops == k, (k, ell, seed)
        assert report(m.graph, sc, ell).seen_guaranteed_at is not None, (k, ell, seed)


def test_t_family_script_rejects_other_recipes():
    with pytest.raises(ValueError):
        t_family_script(subdivided_binary(3, 3))
    with pytest.raises(ValueError):
        t_family_script(spider(3, 3))


# -- subdivided binary tree: cleaning vs monotone cleaning ------------------------


def test_two_cop_script_readmits_the_junction():
    m = subdivided_binary(3, 3)
    b = m.annotations["names"]["LR"]
    sc = t_ell_scripts(m)["two_cop"]
    assert sc.cops == 2
    rep = report(m.graph, sc, 1)
    assert rep.seen_guaranteed_at is not None
    assert rep.cleaned_at is not None
    assert not rep.monotone
    assert b in {v for _, v in rep.recontaminations}


def test_three_cop_script_is_monotone():
    m = subdivided_binary(3, 3)
    sc = t_ell_scripts(m)["three_cop_monotone"]
    assert sc.cops == 3
    rep = report(m.graph, sc, 1)
    assert rep.seen_guaranteed_at is not None
    assert rep.monotone
    assert rep.recontaminations == ()
    # the strict variant re-checks every move against the snapshot rule
    strict = simulate_script(m.graph, GameSpec(1, 3, Variant.MONOTONE_CAPTURE), sc)
    assert strict.monotone
    assert strict.seen_guaranteed_at is not None


def test_wider_corridors_preserve_both_scripts():
    m = subdivided_binary(3, 5)
    b = m.annotations["names"]["LR"]
    out = t_ell_scripts(m)
    r2 = report(m.graph, out["two_cop"], 2)
    assert r2.seen_guaranteed_at is not None and not r2.monotone
    assert b in {v for _, v in r2.recontaminations}
    r3 = report(m.graph, out["three_cop_monotone"], 2)
    assert r3.seen_guaranteed_at is not None and r3.monotone


def test_t_ell_scripts_reject_wrong_shapes():
    with pytest.raises(ValueError):
        t_ell_scripts(subdivided_binary(2, 3))  # wrong depth
    with pytest.raises(ValueError):
        t_ell_scripts(subdivided_binary(3, 4))  # even corridor length
    with pytest.raises(ValueError):
        t_ell_scripts(subdivided_binary(3, 1))  # corridor too short
    with pytest.raises(ValueError):
        t_ell_scripts(t_family(2, 1))


# -- root-guarded cleaning blocks --------------------------------------------------


def occupied_every_other(sc, root):
    cols = list(zip(*sc.walks))
    return all(root in cols[i] or root in cols[i + 1] for i in range(len(cols) - 1))


def seen_every_other(g, sc, root, ell):
    balls = g.balls(ell)
    cov = [any((balls[c] >> root) & 1 for c in col) for col in zip(*sc.walks)]
    return all(cov[i] or cov[i + 1] for i in range(len(cov) - 1))


def test_star_vibration_guards_and_cleans():
    g = complete_bipartite_graph(1, 5)
    sc = root_guarded_scripts(g, 0, 2, 1, mode="occupied")
    assert sc.cops == 1
    assert report(g, sc, 1).seen_guaranteed_at is not None
    assert occupied_every_other(sc, 0)


def test_occupied_guard_on_branching_tree():
    g = spider(3, 3).graph
    sc = root_guarded_scripts(g, 0, 3, 1, mode="occupied")
    assert sc.cops == 2
    assert report(g, sc, 1).seen_guaranteed_at is not None
    assert occupied_every_other(sc, 0)


def test_occupied_guard_on_end_rooted_path():
    # one branch of the level-two family member: a five-vertex corridor
    g = path_graph(5)
    sc = root_guarded_scripts(g, 0, 3, 1, mode="occupied")
    assert sc.cops == 2
    assert report(g, sc, 1).seen_guaranteed_at is not None
    assert occupied_every_other(sc, 0)


def test_seen_guard_walks_out_to_targets():
    g = spider(3, 4).graph
    sc = root_guarded_scripts(g, 0, 3, 1, mode="seen")
    assert sc.cops == 2
    assert report(g, sc, 1).seen_guaranteed_at is not None
    assert seen_every_other(g, sc, 0, 1)


def test_seen_guard_single_cop_short_path():
    g = path_graph(4)
    sc = root_guarded_scripts(g, 0, 2, 2, mode="seen")
    assert sc.cops == 1
    assert report(g, sc, 2).seen_guaranteed_at is not None
    assert seen_every_other(g, sc, 0, 2)


def test_root_guard_rejects_heavy_subtrees():
    with pytest.raises(UnsupportedStrategyError):
        root_guarded_scripts(spider(3, 7).graph, 0, 2, 1, mode="occupied")


def test_root_guard_validates_arguments():
    with pytest.raises(ValueError):
        root_guarded_scripts(cycle_graph(5), 0, 2, 1)
    with pytest.raises(ValueError):
        root_guarded_scripts(path_graph(4), 0, 1, 1)
    with pytest.raises(ValueError):
        root_guarded_scripts(path_graph(4), 0, 2, 0)
    with pytest.raises(ValueError):
        root_guarded_scripts(path_graph(4), 0, 2, 1, mode="sideways")


# -- chordal pursuit ---------------------------------------------------------------


def test_pursuit_pushes_path_robber_onto_a_leaf():
    g = path_graph(6)
    spec = GameSpec(2, 1, Variant.CAPTURE)
    base = solve(g, spec)
    pol = chordal_pursuit(g, 2, 0, 2)
    tr = play_match(g, spec, pol, PinnedRobber(SolvedRobber(base), 2))
    assert tr.outcome is Outcome.CAPTURED
    assert tr.history[-1]["robber"] == 5


def test_pursuit_captures_adjacent_clique_robber_immediately():
    g = complete_graph(5)
    spec = GameSpec(1, 1, Variant.CAPTURE)
    base = solve(g, spec)
    pol = chordal_pursuit(g, 1, 0, 4)
    tr = play_match(g, spec, pol, PinnedRobber(SolvedRobber(base), 4))
    assert tr.outcome is Outcome.CAPTURED
    assert tr.rounds == 1


def test_pursuit_beats_optimal_robber_from_every_first_sight():
    g = random_chordal(10, seed=7)
    spec = GameSpec(2, 1, Variant.CAPTURE)
    base = solve(g, spec)
    balls = g.balls(2)
    checked = 0
    for c in range(g.n):
        for r in bits(balls[c] & ~(1 << c)):
            pol = chordal_pursuit(g, 2, c, r)
            tr = play_match(g, spec, pol, PinnedRobber(SolvedRobber(base), r))
            assert tr.outcome is Outcome.CAPTURED, (c, r)
            checked += 1
    assert checked > 50


def test_pursuit_distance_potential():
    # distance to the standing evader never grows, and strictly drops right
    # after the evader's elimination index peaks
    for seed in (2, 9):
        g = random_chordal(10, seed=seed)
        spec = GameSpec(2, 1, Variant.CAPTURE)
        base = solve(g, spec)
        order = chordal_peo(g).order
        index = [0] * g.n
        for pos, v in enumerate(order):
            index[v] = g.n - pos
        balls = g.balls(2)
        for c in range(g.n):
            for r in bits(balls[c] & ~(1 << c)):
                pol = chordal_pursuit(g, 2, c, r)
                tr = play_match(g, spec, pol, PinnedRobber(SolvedRobber(base), r))
                cops = [min(h["cops"]) for h in tr.history]
                stand = [h["robber"] for h in tr.history]
                dist = [g.dist[a][b] for a, b in zip(cops, stand)]
                assert all(y <= x for x, y in zip(dist, dist[1:])), (seed, c, r)
                idx = [index[v] for v in stand]
                for t in range(1, len(idx) - 1):
                    if idx[t] > idx[t - 1] and idx[t] > idx[t + 1]:
                        assert dist[t + 1] < dist[t], (seed, c, r, t)


def test_pursuit_stands_fast_without_sight():
    g = path_graph(6)
    pol = chordal_pursuit(g, 1, 2, 3)
    state = BeliefState((2,), INV, 1 << 5)
    assert pol.move(g, GameSpec(1, 1, Variant.CAPTURE), state) == (2,)


def test_pursuit_validates_inputs():
    with pytest.raises(ValueError):
        chordal_pursuit(cycle_graph(4), 1, 0, 1)  # no elimination ordering
    with pytest.raises(ValueError):
        chordal_pursuit(path_graph(6), 1, 0, 4)  # first sight out of range


# -- shadow tracking capture -------------------------------------------------------


def test_shadow_capture_on_the_six_cycle():
    g = cycle_graph(6)
    pol = shadow_capture(g, 2)
    assert pol.cops == 3  # seeing number 1, classical number 2
    spec = GameSpec(2, pol.cops, Variant.CAPTURE)
    for seed in range(5):
        pol.reset()
        tr = play_match(g, spec, pol, RandomRobber(seed))
        assert tr.outcome is Outcome.CAPTURED, seed
    cap = solve(g, spec)
    pol.reset()
    tr = play_match(g, spec, pol, SolvedRobber(cap))
    assert tr.outcome is Outcome.CAPTURED


def test_shadow_capture_seeks_then_tracks_on_long_cycle():
    g = cycle_graph(13)
    pol = shadow_capture(g, 2)
    assert pol.cops == 3
    spec = GameSpec(2, pol.cops, Variant.CAPTURE)
    for seed in range(4):
        pol.reset()
        tr = play_match(g, spec, pol, RandomRobber(seed))
        assert tr.outcome is Outcome.CAPTURED, seed
    cap = solve(g, spec)
    pol.reset()
    assert play_match(g, spec, pol, SolvedRobber(cap)).outcome is Outcome.CAPTURED


def test_shadow_capture_on_petersen_uses_four_cops():
    g = petersen()
    assert cop_number(g, 0, Variant.CLASSICAL) == 3
    pol = shadow_capture(g, 2)
    assert pol.cops == 4
    spec = GameSpec(2, pol.cops, Variant.CAPTURE)
    cap = solve(g, spec)
    for adversary in (RandomRobber(1), SolvedRobber(cap)):
        pol.reset()
        tr = play_match(g, spec, pol, adversary)
        assert tr.outcome is Outcome.CAPTURED


def test_shadow_capture_tracks_like_pursuit_on_chordal_graphs():
    g = random_chordal(8, seed=4)
    pol = shadow_capture(g, 2)
    spec = GameSpec(2, pol.cops, Variant.CAPTURE)
    cap = solve(g, spec)
    for adversary in (RandomRobber(0), SolvedRobber(cap)):
        pol.reset()
        assert play_match(g, spec, pol, adversary).outcome is Outcome.CAPTURED


def test_shadow_capture_needs_radius_two():
    with pytest.raises(ValueError):
        shadow_capture(cycle_graph(6), 1)


def test_shadow_replay_audit_reproduces_every_decision():
    # decisions must be a function of the observation stream alone
    g = spider(3, 7).graph
    pol = shadow_capture(g, 2)
    spec = GameSpec(2, pol.cops, Variant.CAPTURE)
    rec = RecordingCops(pol)
    tr = play_match(g, spec, rec, RandomRobber(5))
    assert tr.outcome is Outcome.CAPTURED
    assert tr.rounds > 3  # the seek phase actually ran
    pol.reset()
    first, placed = rec.log[0]
    assert first == "place"
    assert pol.place(g, spec) == placed
    for state, want in rec.log[1:]:
        assert pol.move(g, spec, state) == want
