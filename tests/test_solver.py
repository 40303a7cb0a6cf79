"""Solver oracle values and structural properties."""

from __future__ import annotations

import hashlib
import math
import random

import pytest

from lvcops.engine import (
    BeliefState,
    Delayed,
    GameSpec,
    Invisible,
    MonotonicityViolation,
    Outcome,
    Variant,
    Visible,
    cop_turn,
    play_match,
    robber_turn,
)
from lvcops.families import generate, parse_recipe
from lvcops.graphs import Graph, bits, mask_of
from lvcops.solver import (
    BudgetExceeded,
    ChainViolation,
    Profile,
    SolvedCops,
    Winner,
    cop_number,
    extract_policies,
    profile,
    search_witness,
    solve,
    successors,
)


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def biclique(m, n):
    return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def random_connected(n, extra, rng):
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    while len(edges) < min(n - 1 + extra, n * (n - 1) // 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def winner(g, ell, k, variant=Variant.CAPTURE, **kw):
    return solve(g, GameSpec(ell, k, variant), **kw).winner


def test_c4_capture_needs_two():
    g = cycle(4)
    assert winner(g, 1, 1) is Winner.ROBBER
    assert winner(g, 1, 2) is Winner.COPS


def test_c5_see_boundary():
    # one cop sees on C_n exactly below n = 2*ell + 3
    assert winner(cycle(5), 1, 1, Variant.SEE) is Winner.ROBBER
    assert winner(cycle(4), 1, 1, Variant.SEE) is Winner.COPS
    assert winner(cycle(6), 2, 1, Variant.SEE) is Winner.COPS
    assert winner(cycle(7), 2, 1, Variant.SEE) is Winner.ROBBER


def test_k33_see_vs_capture():
    g = biclique(3, 3)
    assert winner(g, 1, 1, Variant.SEE) is Winner.COPS
    assert winner(g, 1, 1) is Winner.ROBBER
    assert winner(g, 1, 2) is Winner.COPS


def test_paths_and_completes_single_cop():
    for ell in (1, 2):
        assert cop_number(path(9), ell) == 1
        assert cop_number(path(9), ell, Variant.SEE) == 1
        assert cop_number(complete(6), ell) == 1
        assert cop_number(complete(6), ell, Variant.SEE) == 1


def test_blind_complete_graphs():
    # radius-0 game on K_n wants ceil(n/2) cops
    for n in range(1, 7):
        assert cop_number(complete(n), 0) == math.ceil(n / 2)


def test_classical_resolves_to_perfect_information():
    g = cycle(7)
    assert cop_number(g, 0, Variant.CLASSICAL) == 2
    t = path(9)
    assert cop_number(t, 0, Variant.CLASSICAL) == 1
    pet = Graph(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
         (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
         (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
    )
    assert cop_number(pet, 0, Variant.CLASSICAL) == 3


def test_visibility_beyond_diameter_matches_classical():
    rng = random.Random(5)
    for _ in range(10):
        g = random_connected(rng.randrange(4, 8), rng.randrange(0, 4), rng)
        diam = max(max(r for r in row if r < 10**9) for row in g.dist)
        assert cop_number(g, diam) == cop_number(g, 0, Variant.CLASSICAL)


def test_k_monotonicity():
    rng = random.Random(11)
    for _ in range(12):
        g = random_connected(rng.randrange(4, 8), rng.randrange(0, 3), rng)
        ell = rng.randrange(0, 3)
        variant = rng.choice(list(Variant))
        prev = None
        for k in (1, 2, 3):
            w = winner(g, ell, k, variant)
            if prev is Winner.COPS:
                assert w is Winner.COPS
            prev = w


def test_vacuous_placement_wins():
    g = path(3)
    out = solve(g, GameSpec(0, 3))
    assert out.winner is Winner.COPS
    assert out.depth == 0 and out.placement == (0, 1, 2)


def test_budget_inconclusive_deterministic():
    g = cycle(8)
    outs = [solve(g, GameSpec(1, 2), budget=40) for _ in range(2)]
    for out in outs:
        assert out.winner is Winner.INCONCLUSIVE
        assert out.states == 40
    assert outs[0].wave_sizes == outs[1].wave_sizes
    with pytest.raises(BudgetExceeded):
        cop_number(g, 1, budget=40)


def test_worker_count_invariance():
    g = cycle(6)
    base = solve(g, GameSpec(1, 2))
    for w in (2, 3):
        other = solve(g, GameSpec(1, 2), workers=w)
        assert other.winner is base.winner
        assert other.states == base.states
        assert other.wave_sizes == base.wave_sizes
        assert other.placement == base.placement
        assert other.policy == base.policy


@pytest.mark.parametrize(
    "recipe, spec, budget, expected, policy_digest",
    [
        (
            "subdivided:2,1", GameSpec(1, 2, Variant.MONOTONE_CAPTURE), 1_000_000,
            (Winner.COPS, 2137, (366, 678, 883, 120, 42, 42, 6), 5), "60abd475cd297216",
        ),
        (
            "randomtree:n=12,seed=4", GameSpec(1, 2), 1_000_000,
            (Winner.COPS, 1180, (307, 415, 289, 105, 56, 2, 6), 5), "e6a0422db0ccf122",
        ),
        (
            "cycle:9", GameSpec(1, 2), 460,
            (Winner.INCONCLUSIVE, 460, (180, 180, 90), None), None,
        ),
    ],
)
def test_pinned_solves(recipe, spec, budget, expected, policy_digest):
    # values recorded from the solver before its core was rewritten; state
    # counts, wave sizes, budget stops and the first-completing actions
    # must not move under a speed-up
    g = generate(parse_recipe(recipe)).graph
    out = solve(g, spec, budget=budget)
    assert (out.winner, out.states, out.wave_sizes, out.depth) == expected
    if policy_digest is None:
        assert out.policy is None
    else:
        blob = repr(sorted(out.policy.items())).encode()
        assert hashlib.sha256(blob).hexdigest()[:16] == policy_digest


def test_successors_match_engine_round():
    rng = random.Random(31)
    for trial in range(50):
        g = random_connected(rng.randrange(3, 8), rng.randrange(0, 3), rng)
        k = rng.randrange(1, 3)
        variant = rng.choice(
            [Variant.CAPTURE, Variant.SEE, Variant.TIME_DELAYED, Variant.MONOTONE_CAPTURE]
        )
        spec = GameSpec(rng.randrange(0, 3), k, variant)
        cops = tuple(sorted(rng.randrange(g.n) for _ in range(k)))
        copmask = mask_of(cops)
        free = g.full & ~copmask
        if free == 0:
            continue
        ball = 0
        for c in cops:
            ball |= g.balls(spec.ell)[c]
        if variant is Variant.TIME_DELAYED:
            state = BeliefState(cops, Delayed(free))
        elif rng.random() < 0.5 and free & ball and variant is not Variant.SEE:
            state = BeliefState(cops, Visible((free & ball).bit_length() - 1))
        else:
            t = free & ~ball
            if t == 0:
                continue
            snap = t if variant is Variant.MONOTONE_CAPTURE else -1
            state = BeliefState(cops, Invisible(t), snap)

        table = successors(g, spec, state)
        # reconstruct per-action branch keys through the engine, then compare
        per_cop = [sorted(bits(g.adj_closed[c])) for c in cops]
        import itertools as it

        seen_actions = set()
        for combo in it.product(*per_cop):
            a = tuple(sorted(combo))
            if a in seen_actions:
                continue
            seen_actions.add(a)
            try:
                mid = cop_turn(g, spec, state, a)
            except MonotonicityViolation:
                for act, succ in table.items():
                    assert act != a
                continue
            keyset = set()
            for b in mid.branches:
                if b.won:
                    continue
                for bb in robber_turn(g, spec, b.state).branches:
                    if not bb.won:
                        keyset.add(bb.state.key())
            # the table folds duplicate successor sets into one action
            expected = tuple(sorted(keyset))
            folded = [succ for succ in table.values() if succ == expected]
            assert folded, (a, expected, table)


def test_policy_captures_against_solver_robber():
    g = cycle(4)
    out = solve(g, GameSpec(1, 2))
    assert out.winner is Winner.COPS
    cop_pol, rob_pol = extract_policies(out)
    tr = play_match(g, GameSpec(1, 2), cop_pol, rob_pol, max_rounds=50)
    assert tr.outcome is Outcome.CAPTURED
    assert tr.rounds <= out.depth + g.n  # belief-level bound, loose


def test_policy_depth_bound_random():
    rng = random.Random(41)
    for _ in range(10):
        g = random_connected(rng.randrange(3, 7), rng.randrange(0, 3), rng)
        ell = rng.randrange(0, 2)
        k = cop_number(g, ell)
        out = solve(g, GameSpec(ell, k))
        cop_pol, rob_pol = extract_policies(out)
        tr = play_match(g, GameSpec(ell, k), cop_pol, rob_pol, max_rounds=out.depth + 5)
        assert tr.outcome is Outcome.CAPTURED
        assert tr.rounds <= out.depth


def test_robber_policy_survives_scripted_cop_on_c4():
    from lvcops.engine import Script, ScriptedCops

    g = cycle(4)
    out = solve(g, GameSpec(1, 1))
    assert out.winner is Winner.ROBBER
    rob = out.robber_policy()
    rng = random.Random(13)
    for trial in range(12):
        walk = [rng.randrange(4)]
        for _ in range(30):
            walk.append(rng.choice(list(bits(g.adj_closed[walk[-1]]))))
        tr = play_match(
            g, GameSpec(1, 1), ScriptedCops(Script((tuple(walk),))), rob, max_rounds=100
        )
        assert tr.outcome is Outcome.TIMEOUT


def test_zero_visibility_path_values():
    # sweeping a path blind still takes one cop, two when seeing nothing helps
    assert cop_number(path(5), 0) == 1
    assert cop_number(cycle(4), 0) == 2


def test_delayed_variant_small():
    assert cop_number(path(4), 0, Variant.TIME_DELAYED) == 1
    assert cop_number(cycle(4), 0, Variant.TIME_DELAYED) == 2


def test_monotone_dominates_capture():
    rng = random.Random(61)
    for _ in range(8):
        g = random_connected(rng.randrange(3, 7), rng.randrange(0, 3), rng)
        ell = rng.randrange(0, 2)
        mc = cop_number(g, ell, Variant.MONOTONE_CAPTURE)
        c = cop_number(g, ell)
        assert mc >= c


def test_profile_c6():
    p = profile(cycle(6), (2,))
    assert p.see_at == {2: 1}
    assert p.capture_at == {2: 2}
    assert p.classical == 2


def test_profile_k5_and_p4():
    p = profile(complete(5), (1,))
    assert p.capture_at == {1: 1} and p.see_at == {1: 1}
    assert p.blind == 3
    q = profile(path(4), (1,))
    assert q.classical == 1 and q.capture_at == {1: 1} and q.see_at == {1: 1}
    assert q.domination == 2


def test_profile_rejects_bad_chain():
    with pytest.raises(ChainViolation):
        Profile(
            graph_key="x", n=3, radii=(1,),
            capture_at={1: 2}, see_at={1: 3},
        )
    with pytest.raises(ChainViolation):
        Profile(
            graph_key="x", n=3, radii=(1, 2),
            capture_at={1: 1, 2: 2},
        )


def test_profile_parts_selection():
    p = profile(path(5), (1,), parts=("capture", "see"))
    assert p.classical is None and p.delayed is None
    assert p.capture_at == {1: 1}
    with pytest.raises(ValueError):
        profile(path(5), (1,), parts=("nope",))


def test_search_witness_basic():
    found = search_witness(
        lambda pr: pr.capture_at[1] == 2,
        iter([path(4), cycle(4), cycle(5)]),
        limit=10,
    )
    assert found.graph is not None
    assert found.graph.n == 4 and found.tried == 2
    none = search_witness(
        lambda pr: pr.capture_at[1] == 9,
        iter([path(4), cycle(4)]),
        limit=10,
    )
    assert none.graph is None and none.tried == 2


def test_search_witness_profiler_filter():
    calls = []

    def prof(g):
        calls.append(g.n)
        if g.n < 5:
            return None
        return profile(g, (1,))

    res = search_witness(
        lambda pr: pr.capture_at[1] == 2,
        iter([path(3), path(4), cycle(5)]),
        limit=10,
        profiler=prof,
    )
    assert res.graph is not None and res.graph.n == 5
    assert calls == [3, 4, 5]


def test_outcome_public_dict_shape():
    out = solve(path(3), GameSpec(1, 1))
    d = out.to_public_dict()
    assert d["winner"] == "cops" and d["cops"] == 1
    assert isinstance(d["graph"], str) and d["states"] == out.states
