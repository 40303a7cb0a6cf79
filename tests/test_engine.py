"""Transition-relation tests against hand-evaluated positions."""

from __future__ import annotations

import itertools
import random

import pytest

from lvcops.engine import (
    DEL,
    INV,
    VIS,
    BeliefState,
    GameSpec,
    IllegalMove,
    MonotonicityViolation,
    Outcome,
    RandomRobber,
    SNAP_FREE,
    Script,
    ScriptError,
    ScriptedCops,
    Variant,
    cop_turn,
    dump_script,
    initial_branches,
    load_script,
    play_match,
    robber_turn,
    round_branches,
    simulate_script,
)
from lvcops.graphs import Graph, bits, mask_of


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_connected(n, extra, rng):
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    while len(edges) < min(n - 1 + extra, n * (n - 1) // 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def territories(states):
    return sorted(sorted(bits(s.payload)) for s in states if s.tag == INV)


def visible_robbers(states):
    return sorted(s.payload for s in states if s.tag == VIS)


def test_spec_validation_and_resolve():
    with pytest.raises(ValueError):
        GameSpec(-1, 1)
    with pytest.raises(ValueError):
        GameSpec(1, 0)
    g = path(7)
    cls = GameSpec(0, 1, Variant.CLASSICAL).resolve(g)
    assert cls.variant is Variant.CAPTURE and cls.ell == 6
    zv = GameSpec(5, 2, Variant.ZERO_VIS).resolve(g)
    assert zv.variant is Variant.CAPTURE and zv.ell == 0
    plain = GameSpec(1, 1)
    assert plain.resolve(g) == plain


def test_initial_k1_vacuous():
    g = Graph(1, [])
    assert initial_branches(g, GameSpec(1, 1), [0]) == ()


def test_initial_c5():
    g = cycle(5)
    bs = initial_branches(g, GameSpec(1, 1), [0])
    assert visible_robbers(bs) == [1, 4]
    assert territories(bs) == [[2, 3]]


def test_initial_c4():
    g = cycle(4)
    bs = initial_branches(g, GameSpec(1, 1), [0])
    assert visible_robbers(bs) == [1, 3]
    assert territories(bs) == [[2]]


def test_initial_see_goal_wins_on_sight():
    g = cycle(4)
    bs = initial_branches(g, GameSpec(1, 1, Variant.SEE), [0])
    assert visible_robbers(bs) == []  # the two seen picks end the game
    assert territories(bs) == [[2]]


def test_initial_delayed():
    g = path(4)
    bs = initial_branches(g, GameSpec(1, 1, Variant.TIME_DELAYED), [1])
    (b,) = bs
    assert b.tag == DEL
    assert sorted(bits(b.payload)) == [0, 2, 3]


def test_initial_wrong_cop_count():
    with pytest.raises(IllegalMove):
        initial_branches(path(3), GameSpec(1, 2), [0])


def test_cop_turn_ball_covers_territory():
    g = cycle(4)
    st = BeliefState((0,), INV, mask_of([2]))
    bs = cop_turn(g, GameSpec(1, 1), st, (1,))
    assert visible_robbers(bs) == [2]
    assert territories(bs) == []


def test_cop_turn_capture_visible():
    g = path(3)
    st = BeliefState((0,), VIS, 1)
    assert cop_turn(g, GameSpec(1, 1), st, (1,)) == ()  # captured


def test_cop_turn_p5_unseen_remainder():
    g = path(5)
    st = BeliefState((0,), INV, mask_of([3, 4]))
    bs = cop_turn(g, GameSpec(1, 1), st, (1,))
    assert visible_robbers(bs) == []
    assert territories(bs) == [[3, 4]]


def test_cop_turn_illegal_step():
    g = path(5)
    st = BeliefState((0,), INV, mask_of([3, 4]))
    with pytest.raises(IllegalMove):
        cop_turn(g, GameSpec(1, 1), st, (2,))
    with pytest.raises(IllegalMove):
        cop_turn(g, GameSpec(1, 1), st, (0, 1))


def test_cop_turn_monotone_violation_and_forced_move():
    # territory {3,4} with baseline {3}: the only compliant move covers 4
    g = path(5)
    spec = GameSpec(1, 1, Variant.MONOTONE_CAPTURE)
    st = BeliefState((2,), INV, mask_of([3, 4]), mask_of([3]))
    with pytest.raises(MonotonicityViolation):
        cop_turn(g, spec, st, (1,))
    bs = cop_turn(g, spec, st, (3,))
    assert territories(bs) == []  # landing on 3 captures it and lights up 4
    assert visible_robbers(bs) == [4]


def test_robber_turn_expansion_p5():
    g = path(5)
    st = BeliefState((1,), INV, mask_of([4]))
    bs = robber_turn(g, GameSpec(1, 1), st)
    assert territories(bs) == [[3, 4]]
    assert visible_robbers(bs) == []


def test_robber_turn_visible_stand_still_escape():
    g = cycle(4)
    st = BeliefState((0,), VIS, 2)
    bs = robber_turn(g, GameSpec(1, 1), st)
    assert visible_robbers(bs) == [1, 3]
    assert territories(bs) == [[2]]


def test_robber_turn_delayed_round_p3():
    g = path(3)
    spec = GameSpec(1, 1, Variant.TIME_DELAYED)
    st = BeliefState((0,), DEL, mask_of([1, 2]))
    (alive,) = cop_turn(g, spec, st, (1,))  # the pick on 1 is captured
    assert sorted(bits(alive.payload)) == [2]
    out = robber_turn(g, spec, alive)
    beliefs = sorted(sorted(bits(s.payload)) for s in out)
    assert beliefs == [[2]]


def test_robber_turn_cornered_artificial():
    g = path(2)
    st = BeliefState((0, 1), VIS, 1)
    assert robber_turn(g, GameSpec(1, 2), st) == ()


def test_zero_vis_never_sees():
    g = cycle(5)
    spec = GameSpec(3, 1, Variant.ZERO_VIS).resolve(g)
    st = BeliefState((0,), INV, mask_of([1, 2, 3, 4]))
    bs = cop_turn(g, spec, st, (1,))
    assert visible_robbers(bs) == []
    assert territories(bs) == [[2, 3, 4]]  # vertex 1 captured


def test_branches_partition_consistent_choices():
    rng = random.Random(7)
    for trial in range(60):
        g = random_connected(rng.randrange(3, 9), rng.randrange(0, 4), rng)
        k = rng.randrange(1, 3)
        spec = GameSpec(rng.randrange(0, 3), k)
        cops = tuple(sorted(rng.randrange(g.n) for _ in range(k)))
        copmask = mask_of(cops)
        free = g.full & ~copmask
        if free == 0:
            continue
        if rng.random() < 0.5:
            t = 0
            for v in bits(free):
                if rng.random() < 0.5:
                    t |= 1 << v
            ballmask = 0
            for c in cops:
                ballmask |= g.balls(spec.ell)[c]
            t &= ~ballmask
            if t == 0:
                continue
            st = BeliefState(cops, INV, t)
            expected = g.grow(t) & ~copmask
        else:
            r = rng.choice(list(bits(free)))
            st = BeliefState(cops, VIS, r)
            expected = g.adj_closed[r] & ~copmask
        bs = robber_turn(g, spec, st)
        assert bs or expected == 0
        got = 0
        for s in bs:
            piece = (1 << s.payload) if s.tag == VIS else s.payload
            assert got & piece == 0  # disjoint
            got |= piece
        assert got == expected


def test_round_branches_composition():
    g = cycle(6)
    st = BeliefState((0,), INV, mask_of([3]))
    bs = round_branches(g, GameSpec(1, 1), st, (1,))
    # cop to 1, territory {3} unseen (N_1[1]={0,1,2}), robber to {2,3,4}: 2 seen
    assert visible_robbers(bs) == [2]
    assert territories(bs) == [[3, 4]]


def test_script_validation():
    g = path(4)
    Script(((0, 1, 1, 2),)).validate(g)
    with pytest.raises(ScriptError):
        Script(((0, 2),)).validate(g)
    with pytest.raises(ScriptError):
        Script(((0, 1), (0,))).validate(g)
    with pytest.raises(ScriptError):
        Script(((0, 4),)).validate(g)
    with pytest.raises(ScriptError):
        Script(()).validate(g)


def test_script_serialization_roundtrip():
    s = Script(((0, 1, 2), (5, 5, 4)))
    assert load_script(dump_script(s)) == s
    assert load_script("# comment\n0 1 2\n") == Script(((0, 1, 2),))
    with pytest.raises(ScriptError):
        load_script("   ")


def test_simulate_p5_walk():
    g = path(5)
    rep = simulate_script(g, GameSpec(1, 1), Script(((0, 1, 2, 3, 4),)))
    assert rep.seen_guaranteed_at == 3
    assert rep.monotone and not rep.recontaminations
    assert rep.cleaned_at == 3  # path is chordal: sight converts to capture
    assert rep.snapshots[0] == mask_of([2, 3, 4])
    assert rep.snapshots[1] == mask_of([3, 4])
    assert (2, 4) in rep.located
    d = rep.to_dict()
    assert d["territory_per_round"][0] == [2, 3, 4]


def test_simulate_c4_never_cleans_one_cop():
    # sight is cheap on C_4 but capture is not: cleaned_at stays None for
    # every short one-cop script even when the unseen set empties
    g = cycle(4)
    spec = GameSpec(1, 1)
    emptied = 0
    for length in range(0, 5):
        for walk in itertools.product(range(4), repeat=length + 1):
            ok = all(a == b or (g.adj[a] >> b) & 1 for a, b in zip(walk, walk[1:]))
            if not ok:
                continue
            rep = simulate_script(g, spec, Script((walk,)))
            assert rep.cleaned_at is None
            if rep.seen_guaranteed_at is not None:
                emptied += 1
    assert emptied > 0  # seeing is achievable, capture-cleaning is not


def test_simulate_full_cover_placement():
    g = path(3)
    rep = simulate_script(g, GameSpec(0, 3), Script(((0, 0), (1, 1), (2, 2))))
    assert rep.seen_guaranteed_at == 0
    assert rep.cleaned_at == 0  # no sightings at all, just no room
    assert not rep.seen_events


def test_simulate_monotone_spec_raises_on_recontamination():
    # one cop walking away lets the territory regrow behind it
    g = path(6)
    script = Script(((2, 1, 0, 0, 0),))
    rep = simulate_script(g, GameSpec(1, 1), script)
    assert rep.recontaminations and not rep.monotone
    with pytest.raises(MonotonicityViolation):
        simulate_script(g, GameSpec(1, 1, Variant.MONOTONE_CAPTURE), script)


def test_simulate_matches_turn_composition():
    rng = random.Random(19)
    for trial in range(40):
        g = random_connected(rng.randrange(3, 9), rng.randrange(0, 3), rng)
        k = rng.randrange(1, 3)
        spec = GameSpec(rng.randrange(0, 3), k)
        length = rng.randrange(1, 8)
        walks = []
        for _ in range(k):
            w = [rng.randrange(g.n)]
            for _ in range(length):
                w.append(rng.choice(list(bits(g.adj_closed[w[-1]]))))
            walks.append(tuple(w))
        script = Script(tuple(walks))
        rep = simulate_script(g, spec, script)

        bs = initial_branches(g, spec, script.positions(0))
        inv = [s for s in bs if s.tag == INV]
        t = inv[0].payload if inv else 0
        assert rep.snapshots[0] == t
        state = inv[0] if inv else None
        for rnd in range(1, length + 1):
            if state is None:
                assert rep.snapshots[rnd] == 0
                continue
            mid = cop_turn(g, spec, state, script.positions(rnd))
            inv = [s for s in mid if s.tag == INV]
            assert rep.snapshots[rnd] == (inv[0].payload if inv else 0)
            if not inv:
                state = None
                continue
            after = robber_turn(g, spec, inv[0])
            inv = [s for s in after if s.tag == INV]
            state = inv[0] if inv else None


def test_play_match_path_sweep_captures():
    g = path(5)
    script = Script(((0, 1, 2, 3, 4),))
    for seed in range(8):
        tr = play_match(g, GameSpec(1, 1), ScriptedCops(script), RandomRobber(seed))
        assert tr.outcome is Outcome.CAPTURED
        last = tr.history[-1]
        assert last["robber"] in last["cops"]  # capture happens on the cop half


def test_play_match_see_goal():
    g = path(5)
    script = Script(((0, 1, 2, 3, 4),))
    tr = play_match(g, GameSpec(1, 1, Variant.SEE), ScriptedCops(script), RandomRobber(3))
    assert tr.outcome is Outcome.SEEN


def test_play_match_timeout():
    g = cycle(6)
    script = Script(((0, 0),))
    tr = play_match(g, GameSpec(1, 1), ScriptedCops(script), RandomRobber(1), max_rounds=10)
    assert tr.outcome is Outcome.TIMEOUT
    assert tr.rounds == 10


def test_play_match_delayed_pincer():
    g = path(3)
    script = Script(((0, 1), (2, 1)))
    spec = GameSpec(1, 2, Variant.TIME_DELAYED)
    tr = play_match(g, spec, ScriptedCops(script), RandomRobber(0))
    assert tr.outcome is Outcome.CAPTURED
    assert tr.rounds == 1


def test_play_match_belief_consistency_random():
    # the referee raises if no branch matches the evader's true position,
    # so surviving many random games certifies the belief update
    rng = random.Random(23)
    for trial in range(30):
        g = random_connected(rng.randrange(3, 8), rng.randrange(0, 3), rng)
        k = rng.randrange(1, 3)
        variant = rng.choice([Variant.CAPTURE, Variant.SEE, Variant.TIME_DELAYED])
        spec = GameSpec(rng.randrange(0, 2), k, variant)
        length = rng.randrange(1, 7)
        walks = []
        for _ in range(k):
            w = [rng.randrange(g.n)]
            for _ in range(length):
                w.append(rng.choice(list(bits(g.adj_closed[w[-1]]))))
            walks.append(tuple(w))
        tr = play_match(
            g, spec, ScriptedCops(Script(tuple(walks))), RandomRobber(trial), max_rounds=12
        )
        assert tr.outcome in (Outcome.CAPTURED, Outcome.SEEN, Outcome.TIMEOUT)


def test_play_match_views_hold_only_the_tuples_met():
    # the turn views give an id to each cops tuple a playout meets, from a
    # table of their own: 12 cops on 40 vertices have comb(51, 12), about
    # 1.6e11, placements, which a view must never enumerate
    from lvcops import engine

    g = path(40)
    spec = GameSpec(1, 12)
    script = Script(tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(12)))
    play_match(g, spec, ScriptedCops(script), RandomRobber(0), max_rounds=4)
    met = {script.positions(r) for r in range(script.rounds + 1)}
    met_by_view = engine._view_ctx(g, spec).cops_of
    assert met_by_view and set(met_by_view) <= met
