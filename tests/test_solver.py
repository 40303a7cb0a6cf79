"""Solver oracle values and structural properties."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import tracemalloc

import pytest

from lvcops.engine import (
    DEL,
    INV,
    SNAP_FREE,
    VIS,
    BeliefState,
    GameSpec,
    Outcome,
    Script,
    Variant,
    _Ctx,
    _expand,
    initial_branches,
    play_match,
    round_branches,
    simulate_script,
)
from lvcops.families import generate, parse_recipe
from lvcops.graphs import Graph, bits, is_copwin
from lvcops.solver import (
    BudgetExceeded,
    ChainViolation,
    Profile,
    SolvedCops,
    SolvedRobber,
    Winner,
    cop_number,
    profile,
    search_witness,
    solve,
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
    for policy in (SolvedCops, SolvedRobber):
        with pytest.raises(ValueError):
            policy(outs[0])  # nothing to replay from a budget stop


def test_worker_count_invariance(capsys):
    """--workers is accepted by the command line and changes no byte of a
    solve, a cop number search, or a match replayed from solved policies."""
    from lvcops.cli import main

    runs = [
        ["solve", "--recipe", "cycle:6", "--ell", "1", "--cops", "2"],
        ["solve", "--recipe", "cycle:6", "--ell", "1", "--variant", "see"],
        ["simulate", "--recipe", "cycle:6", "--ell", "1", "--cops", "2", "--robber", "solved"],
    ]
    for argv in runs:
        outputs = []
        for extra in ([], ["--workers", "2"], ["--workers", "3"]):
            assert main(argv + ["--format", "structured"] + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] and outputs[0] == outputs[1] == outputs[2], argv


PINNED = [
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
    (
        "subdivided:2,1", GameSpec(1, 2, Variant.SEE), 1_000_000,
        (Winner.COPS, 1277, (91, 67, 160, 309, 328, 74, 24, 16, 4, 12, 24, 58, 110), 4),
        "34592bfa53646929",
    ),
    (
        "randomtree:n=12,seed=4", GameSpec(1, 2, Variant.TIME_DELAYED), 1_000_000,
        (Winner.COPS, 836, (78, 758), 4), "0dff388ab967241b",
    ),
    (
        "randomtree:n=12,seed=4", GameSpec(2, 2), 1_000_000,
        (Winner.COPS, 946, (516, 275, 102, 29, 24), 4), "edf3a8fb01234832",
    ),
]


@pytest.mark.parametrize("recipe, spec, budget, expected, policy_digest", PINNED)
def test_pinned_solves(recipe, spec, budget, expected, policy_digest):
    # values recorded from the solver before its core was rewritten (the
    # see, time-delayed and radius-2 rows before the mask-algebra kernel);
    # state counts, wave sizes, budget stops and the first-completing
    # actions must not move under a speed-up
    g = generate(parse_recipe(recipe)).graph
    out = solve(g, spec, budget=budget)
    assert (out.winner, out.states, out.wave_sizes, out.depth) == expected
    if policy_digest is None:
        assert out.policy is None
    else:
        blob = repr(sorted(out.policy.items())).encode()
        assert hashlib.sha256(blob).hexdigest()[:16] == policy_digest


@pytest.mark.parametrize("recipe, spec, budget, expected, policy_digest", PINNED)
def test_index_view_round_trips_and_refuses_foreign_keys(
    recipe, spec, budget, expected, policy_digest
):
    g = generate(parse_recipe(recipe)).graph
    out = solve(g, spec, budget=budget)
    index = out.index
    if out.winner is Winner.INCONCLUSIVE:
        assert len(index) == 0
        return
    # iteration decodes in interning order and get packs: every key comes
    # back to its own row, as a plain tuple and as a BeliefState
    rows = 0
    for i, key in enumerate(index):
        assert type(key) is tuple
        assert index.get(key) == i == index[BeliefState(*key)]
        rows += 1
    assert rows == len(index) == out.states

    n, k = g.n, spec.cops
    key = next(iter(index))
    cops, tag, payload, snap = key
    foreign = [
        (cops + (cops[0],), tag, payload, snap),  # a cop too many
        (cops[:-1], tag, payload, snap),  # a cop too few
        ((n,) * k, tag, payload, snap),  # a vertex the graph lacks
        ((-1,) + cops[1:], tag, payload, snap),
        (cops, 3, payload, snap),  # no such tag
        (cops, tag, payload | 1 << n, snap),  # payload bits beyond the graph
        (cops, tag, -1, snap),
        (cops, INV, 1, 1 << n),  # snapshot bits beyond the graph
        (cops, INV, 1, -2),
        (cops, tag, float(payload), snap),
        (list(cops), tag, payload, snap),  # unhashable cops
        key[:3],
        None,
        "key",
    ]
    if k >= 2:
        foreign.append(((1, 0) + (0,) * (k - 2), tag, payload, snap))  # unsorted cops
    for key in list(index)[:200]:
        cops, tag, payload, snap = key
        # one more than the snapshot field holds would carry into the
        # payload field of a plain bit-packing: it must not alias a row
        if payload >= 1:
            foreign.append((cops, tag, payload - 1, snap + (1 << (n + 1))))
    for bad in foreign:
        assert index.get(bad) is None, bad
        assert bad not in index, bad
        with pytest.raises(KeyError):
            index[bad]


# -- independent oracles ------------------------------------------------------------
# Written from the rules, not from the engine: neighbourhoods and balls come
# from g.dist, and nothing here calls the transition kernel.


def _near(g, r):
    """Per vertex, the vertices within distance r."""
    return [frozenset(w for w in range(g.n) if g.dist[v][w] <= r) for v in range(g.n)]


def _cop_steps(step, cops):
    """Every sorted cop tuple one half-move (pass or cross an edge) away."""
    return {tuple(sorted(c)) for c in itertools.product(*(step[v] for v in cops))}


def _explicit_classical_depth(g, k):
    """Full-information capture game over explicit (cops, evader) positions
    with the cops to move.  A position's wave is the number of cop moves
    that capture against the best evader; the game's depth is the best
    placement's worst wave, None when the evader wins."""
    step = _near(g, 1)
    placements = list(itertools.combinations_with_replacement(range(g.n), k))
    todo = [(c, r) for c in placements for r in range(g.n) if r not in c]
    wave_of = {}
    wave = 0
    while True:
        wave += 1
        new = [
            (c, r)
            for c, r in todo
            if (c, r) not in wave_of
            and any(
                r in c2 or all((c2, r2) in wave_of for r2 in step[r] if r2 not in c2)
                for c2 in _cop_steps(step, c)
            )
        ]
        if not new:
            break
        wave_of.update(dict.fromkeys(new, wave))
    depths = [
        max((wave_of[c, r] for r in range(g.n) if r not in c), default=0)
        for c in placements
        if all((c, r) in wave_of for r in range(g.n) if r not in c)
    ]
    return min(depths, default=None)


def _open_loop_depth(g, k, ell):
    """Depth of a game where the cops learn nothing before they win: the
    seeing game at any radius, and the capture game at radius 0, where a
    sighting is a capture.  A cop strategy is then a fixed walk, so search
    (cops, unseen territory) breadth-first for the shortest walk that
    empties the territory; None when no walk does."""
    step = _near(g, 1)
    ball = _near(g, ell)

    def watched(cops):
        return frozenset().union(*(ball[c] for c in cops))

    frontier = []
    for c in itertools.combinations_with_replacement(range(g.n), k):
        t = frozenset(range(g.n)) - watched(c)
        if not t:
            return 0
        frontier.append((c, t))
    visited = set(frontier)
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for c, t in frontier:
            for c2 in _cop_steps(step, c):
                w = watched(c2)
                t2 = frozenset(x for v in t - w for x in step[v]) - w
                if not t2:
                    return depth
                if (c2, t2) not in visited:
                    visited.add((c2, t2))
                    nxt.append((c2, t2))
        frontier = nxt
    return None


def _sighted_depth(g, k, ell, see):
    """Depth of the capture game (see=False) or the seeing game at radius
    ell by a least-fixpoint search over (sorted cops, information set), with
    the cops to move.  The information set is the set of evader vertices
    consistent with every observation so far; an observation splits it into
    the unseen rest plus, unless a sighting ends the game, one singleton per
    seen vertex.  A sighted evader is just a singleton.  None when the
    evader wins."""
    step = _near(g, 1)
    ball = _near(g, ell)

    def observe(cand, cops):
        w = frozenset().union(*(ball[c] for c in cops))
        out = set() if see else {frozenset([v]) for v in cand & w}
        if cand - w:
            out.add(cand - w)
        return out

    def actions(c, info):
        """Per cop move, the states after one full round (empty: a win)."""
        for c2 in _cop_steps(step, c):
            occupied = set(c2)
            after = set()
            for s in observe(info - occupied, c2):
                moved = frozenset(x for v in s for x in step[v]) - occupied
                after |= observe(moved, c2)
            yield [(c2, t) for t in after]

    roots = {
        p: [(p, s) for s in observe(frozenset(range(g.n)) - set(p), p)]
        for p in itertools.combinations_with_replacement(range(g.n), k)
    }
    moves = {}
    todo = [s for rs in roots.values() for s in rs]
    while todo:
        state = todo.pop()
        if state not in moves:
            moves[state] = list(actions(*state))
            todo.extend(t for act in moves[state] for t in act)
    wave_of = {}
    wave = 0
    while True:
        wave += 1
        new = [
            s for s, acts in moves.items()
            if s not in wave_of and any(all(t in wave_of for t in act) for act in acts)
        ]
        if not new:
            break
        wave_of.update(dict.fromkeys(new, wave))
    depths = [
        max((wave_of[s] for s in rs), default=0)
        for rs in roots.values()
        if all(s in wave_of for s in rs)
    ]
    return min(depths, default=None)


def _match_walks(g, walks, cops):
    """Extend per-cop walks by one step to the sorted tuple cops."""
    for dest in itertools.permutations(cops):
        if all(g.dist[w[-1]][v] <= 1 for w, v in zip(walks, dest)):
            return [w + [v] for w, v in zip(walks, dest)]
    raise AssertionError(f"no per-cop step to {cops}")


def _depth(g, ell, k, variant):
    out = solve(g, GameSpec(ell, k, variant))
    assert out.winner is not Winner.INCONCLUSIVE
    assert (out.winner is Winner.COPS) == (out.depth is not None)
    return out.depth


def _oracle_graphs():
    rng = random.Random(31)
    return [random_connected(rng.randrange(2, 8), rng.randrange(0, 4), rng) for _ in range(45)]


def test_one_cop_classical_matches_copwin_and_explicit_search():
    outcomes = []
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for sel in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if (sel >> i) & 1])
            if not g.is_connected():
                continue
            depth = _depth(g, 0, 1, Variant.CLASSICAL)
            assert depth == _explicit_classical_depth(g, 1), g.edges
            assert (depth is not None) == is_copwin(g), g.edges
            outcomes.append(depth is not None)
    assert len(outcomes) == 772 and set(outcomes) == {True, False}


def test_blind_games_match_open_loop_search():
    outcomes = set()
    for g in _oracle_graphs():
        for k in (1, 2):
            for ell, variant in ((0, Variant.SEE), (1, Variant.SEE), (2, Variant.SEE),
                                 (0, Variant.CAPTURE)):
                depth = _depth(g, ell, k, variant)
                assert depth == _open_loop_depth(g, k, ell), (g.edges, k, ell, variant)
                outcomes.add(depth is not None)
    assert outcomes == {True, False}


def test_classical_matches_explicit_search():
    outcomes = set()
    for g in _oracle_graphs():
        for k in (1, 2):
            depth = _depth(g, 0, k, Variant.CLASSICAL)
            assert depth == _explicit_classical_depth(g, k), (g.edges, k)
            outcomes.add(depth is not None)
    assert outcomes == {True, False}


def test_sighted_games_match_information_set_search():
    # at radius >= 1 a sighting is not a capture, so the cops learn and the
    # open-loop search no longer applies
    outcomes = set()
    for g in _oracle_graphs():
        for k in (1, 2):
            for ell in (1, 2):
                for variant in (Variant.CAPTURE, Variant.SEE):
                    depth = _depth(g, ell, k, variant)
                    want = _sighted_depth(g, k, ell, variant is Variant.SEE)
                    assert depth == want, (g.edges, k, ell, variant)
                    outcomes.add(depth is not None)
    assert outcomes == {True, False}


def test_solved_seeing_policies_match_simulate_script():
    # a seeing policy learns nothing before it wins, so following it along
    # the one unseen branch gives a script; its worst-case simulation must
    # guarantee a sighting at exactly the solved depth
    depths = set()
    for g in _oracle_graphs():
        for k in (1, 2):
            for ell in (1, 2):
                spec = GameSpec(ell, k, Variant.SEE)
                out = solve(g, spec)
                if out.winner is not Winner.COPS:
                    continue
                cops = SolvedCops(out)
                walks = [[v] for v in out.placement]
                states = initial_branches(g, spec, out.placement)
                for _ in range(out.depth):
                    (state,) = states
                    act = cops.move(g, spec, state)
                    walks = _match_walks(g, walks, act)
                    states = round_branches(g, spec, state, act)
                assert states == ()
                script = Script(tuple(tuple(w) for w in walks))
                assert simulate_script(g, spec, script).seen_guaranteed_at == out.depth
                depths.add(out.depth)
    assert depths == {0, 1, 2, 3}


# -- the kernel's rows, judged by the rules ----------------------------------------
# The kernel is called here, but judged only with the oracles' g.dist sets.


def test_kernel_rows_obey_the_rules():
    # every row of every expanded state: one row per legal action (a cop
    # step that keeps the monotone baseline), and each successor a place
    # the evader can reach that the cops' information allows
    expanded = 0
    for g in _oracle_graphs():
        step = _near(g, 1)
        specs = {
            GameSpec(ell, k, variant).resolve(g)
            for variant in Variant
            for ell in (0, 1, 2)
            for k in (1, 2)
        }
        for spec in sorted(specs, key=repr):
            near = _near(g, spec.ell)
            out = solve(g, spec)
            assert out.winner is not Winner.INCONCLUSIVE
            ctx = _Ctx(g, spec)
            for key in out.index:
                cops, tag, payload, snap = key
                cand = {payload} if tag == VIS else set(bits(payload))
                legal = set()
                for a in _cop_steps(step, cops):
                    sighted = set().union(*(near[c] for c in a))
                    unseen = cand - set(a) - sighted
                    if tag == INV and snap != SNAP_FREE and unseen - set(bits(snap)):
                        continue  # the unseen territory would grow
                    legal.add(a)
                rows = [
                    (ctx.cops_of[a], tuple(map(ctx.decode, succs)))
                    for a, succs in _expand(ctx, ctx.encode(key), ctx.moves(ctx.cid(cops)))
                ]
                assert sorted(a for a, _ in rows) == sorted(legal), key
                filled = [succs for _, succs in rows if succs]
                assert len(set(filled)) == len(filled), key
                for a, succs in rows:
                    on = set(a)
                    sighted = set().union(*(near[c] for c in a))
                    reach = set().union(*(step[v] for v in cand - on)) - on
                    for cops2, tag2, p2, _ in succs:
                        assert cops2 == a, (key, a)
                        vs = {p2} if tag2 == VIS else set(bits(p2))
                        assert vs and vs <= reach, (key, a)
                        if spec.delayed:
                            assert tag2 == DEL, (key, a)
                        elif tag2 == INV:
                            assert not vs & sighted, (key, a)
                        else:
                            assert tag2 == VIS and not spec.see_goal, (key, a)
                            assert p2 in sighted, (key, a)
                expanded += 1
    assert expanded > 10_000


def test_move_order_is_first_occurrence_in_the_product():
    # the order of ctx.moves fixes the interning order, so it is pinned to
    # the first occurrence of each sorted tuple in the product of the cops'
    # sorted closed neighbourhoods (from g.dist); each action id's masks
    # are its tuple's occupancy and the union of its balls
    rng = random.Random(23)
    checked = 0
    for _ in range(30):
        g = random_connected(rng.randrange(2, 9), rng.randrange(0, 6), rng)
        step = [sorted(_near(g, 1)[v]) for v in range(g.n)]
        for k in (1, 2, 3):
            ell = rng.randrange(0, 3)
            near = _near(g, ell)
            ctx = _Ctx(g, GameSpec(ell, k))
            for cops in itertools.combinations_with_replacement(range(g.n), k):
                want = {}
                for combo in itertools.product(*(step[v] for v in cops)):
                    want.setdefault(tuple(sorted(combo)), None)
                acts = ctx.moves(ctx.cid(cops))
                assert [ctx.cops_of[a] for a in acts] == list(want), (g.edges, cops)
                for a in acts:
                    a_cops = ctx.cops_of[a]
                    assert ctx.cid(a_cops) == a
                    assert ctx.occ[a] == sum(1 << v for v in set(a_cops))
                    assert ctx.vis[a] == sum(1 << v for v in set().union(*(near[c] for c in a_cops)))
                checked += 1
    assert checked > 1000


def test_solve_memory_per_state():
    # tracemalloc's peak over one solve, per interned state.  The store of
    # tuple keys, int lists and per-state pred lists peaked at 688 B/state
    # here (Python 3.11); packed keys and int32 tables need under 0.7x that
    g = generate(parse_recipe("randomtree:n=12,seed=4")).graph
    spec = GameSpec(1, 2)
    solve(g, spec)  # builds the graph's lazy tables outside the measurement
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = solve(g, spec)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert out.states == 1180
    assert peak / out.states <= 0.7 * 688


def test_policy_captures_against_solver_robber():
    g = cycle(4)
    out = solve(g, GameSpec(1, 2))
    assert out.winner is Winner.COPS
    tr = play_match(g, GameSpec(1, 2), SolvedCops(out), SolvedRobber(out), max_rounds=50)
    assert tr.outcome is Outcome.CAPTURED
    assert tr.rounds <= out.depth + g.n  # belief-level bound, loose


def test_policy_depth_bound_random():
    rng = random.Random(41)
    for _ in range(10):
        g = random_connected(rng.randrange(3, 7), rng.randrange(0, 3), rng)
        ell = rng.randrange(0, 2)
        k = cop_number(g, ell)
        out = solve(g, GameSpec(ell, k))
        tr = play_match(
            g, GameSpec(ell, k), SolvedCops(out), SolvedRobber(out), max_rounds=out.depth + 5
        )
        assert tr.outcome is Outcome.CAPTURED
        assert tr.rounds <= out.depth


def test_robber_policy_survives_scripted_cop_on_c4():
    from lvcops.engine import Script, ScriptedCops

    g = cycle(4)
    out = solve(g, GameSpec(1, 1))
    assert out.winner is Winner.ROBBER
    rob = SolvedRobber(out)
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


def _counting_cop_number(monkeypatch) -> list[GameSpec]:
    """Record the resolved game of every cop_number call profile makes."""
    from lvcops import solver

    games = []

    def counting(g, ell, variant=Variant.CAPTURE, *, budget=solver.DEFAULT_BUDGET):
        games.append(GameSpec(ell, 1, variant).resolve(g))
        return cop_number(g, ell, variant, budget=budget)

    monkeypatch.setattr(solver, "cop_number", counting)
    return games


def test_profile_solves_each_resolved_game_once(monkeypatch):
    # C5 has diameter 2: the classical game is the capture game at radius 2,
    # and the blind game is the capture game at radius 0
    games = _counting_cop_number(monkeypatch)
    p = profile(cycle(5), (0, 1, 2))
    assert len(games) == len(set(games)) == 10
    assert p.classical == p.capture_at[2] and p.blind == p.capture_at[0]


def test_profile_equals_separate_cop_numbers():
    radii = (0, 1, 2)
    for g in _oracle_graphs():
        p = profile(g, radii)
        assert p.classical == cop_number(g, 0, Variant.CLASSICAL), g.edges
        assert p.blind == cop_number(g, 0, Variant.CAPTURE), g.edges
        assert p.delayed == cop_number(g, 0, Variant.TIME_DELAYED), g.edges
        for got, variant in ((p.capture_at, Variant.CAPTURE), (p.see_at, Variant.SEE),
                             (p.monotone_at, Variant.MONOTONE_CAPTURE)):
            assert got == {r: cop_number(g, r, variant) for r in radii}, (g.edges, variant)


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


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_search_witness_indexed_stream_keeps_the_serial_order(monkeypatch, workers):
    # every process stops at its own first hit or error, and the parent
    # merges the outcomes in stream order: an earlier hit beats a later
    # error, an earlier error beats a later hit, and budget skips before
    # the deciding index are counted
    from lvcops import solver

    monkeypatch.setattr(solver, "_usable_cpus", lambda: 3)
    graphs = [path(3), cycle(4), path(4), cycle(5), path(5)]

    def run(hit_at, error_at, limit=len(graphs)):
        def prof(g):
            i = graphs.index(g)
            if i == error_at:
                raise ValueError(f"candidate {i}")
            if i == 1:
                raise BudgetExceeded("too big")
            return None if i != hit_at else profile(g, (1,), parts=("capture",))

        return search_witness(
            lambda pr: True, graphs.__getitem__, limit=limit, profiler=prof, workers=workers
        )

    res = run(hit_at=3, error_at=4)
    assert (res.graph.edges, res.tried, res.skipped) == (graphs[3].edges, 4, 1)
    with pytest.raises(ValueError, match="candidate 2"):
        run(hit_at=3, error_at=2)
    res = run(hit_at=None, error_at=None)
    assert (res.graph, res.tried, res.skipped) == (None, 5, 1)
    res = run(hit_at=None, error_at=4, limit=4)
    assert (res.graph, res.tried, res.skipped) == (None, 4, 1)


def test_outcome_public_dict_shape():
    out = solve(path(3), GameSpec(1, 1))
    d = out.to_public_dict()
    assert d["winner"] == "cops" and d["cops"] == 1
    assert isinstance(d["graph"], str) and d["states"] == out.states
