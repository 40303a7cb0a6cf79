"""Solver oracle values and structural properties."""

from __future__ import annotations

import functools
import gc
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
    IllegalMove,
    Outcome,
    Script,
    Variant,
    _ball_union,
    _Ctx,
    _expand,
    _initial_keys,
    _tuples,
    _view_ctx,
    _vis_keys,
    _wave_keys,
    initial_branches,
    play_match,
    round_branches,
    simulate_script,
)
from lvcops.families import generate, parse_recipe, random_connected_graph
from lvcops.graphs import Graph, bits, is_copwin
from lvcops.solver import (
    BudgetExceeded,
    ChainViolation,
    Profile,
    SolvedCops,
    SolvedRobber,
    Winner,
    _Antichains,
    _clearing_walk,
    _decide,
    _open,
    _open_loop,
    _retrograde,
    _states_bound,
    cop_number,
    decide,
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
    # graphs of the census benchmark: its heaviest solve kinds are the
    # three-cop blind capture and time-delayed games.  Every sighted (VIS)
    # state is a root, so the budget stop lands in the expansion of the
    # roots, 192 of whose 237 states are sighted
    (
        "census:14", GameSpec(0, 3), 1_000_000,
        (Winner.COPS, 2727, (165, 221, 799, 1067, 393, 72, 10), 2), "2b0eed3c363930f8",
    ),
    (
        "census:19", GameSpec(0, 3, Variant.TIME_DELAYED), 1_000_000,
        (Winner.COPS, 1204, (165, 1039), 2), "a93b7d8958a7f29b",
    ),
    (
        "census:14", GameSpec(1, 2), 400,
        (Winner.INCONCLUSIVE, 400, (237,), None), None,
    ),
    # the deep_solve benchmark's tree: a large cops win whose rows are
    # mostly sighted successors and sightings of several vertices at once
    (
        "randomtree:n=24,seed=4", GameSpec(1, 2), 1_000_000,
        (
            Winner.COPS, 28172,
            (1329, 2295, 2577, 2985, 3460, 3433, 3389, 2761, 1759, 1695, 834, 493, 444, 178,
             156, 124, 131, 43, 26, 36, 24),
            9,
        ),
        "b3bdb57d68fcfb6f",
    ),
]


def _pinned_graph(recipe):
    """A recipe's graph, or for "census:i" the census benchmark's graph i
    (the first graphs of acceptance criterion 8)."""
    if recipe.startswith("census:"):
        i = int(recipe.partition(":")[2])
        n = 5 + i % 5
        return random_connected_graph(n, (i * 3) % (n + 3), i)
    return generate(parse_recipe(recipe)).graph


def _policy_digest(ref):
    """The first 16 hex digits of the SHA-256 of a retrograde run's policy:
    the sorted (state key, cops tuple of its recorded first-completing
    action) pairs of its won states.  None unless the cops win."""
    if ref.winner is not Winner.COPS:
        return None
    rw, cops_of = ref.retrograded, ref.index._ctx.cops_of
    policy = {key: cops_of[rw.action[i]] for key, i in ref.index.items() if rw.won[i]}
    return hashlib.sha256(repr(sorted(policy.items())).encode()).hexdigest()[:16]


@pytest.mark.parametrize("recipe, spec, budget, expected, policy_digest", PINNED)
def test_pinned_solves(recipe, spec, budget, expected, policy_digest):
    # values recorded from the solver before its core was rewritten (the
    # see, time-delayed and radius-2 rows before the mask-algebra kernel,
    # the census rows before VIS rows were shared across cop tuples, the
    # 24-vertex tree before sighted successors became a vertex mask);
    # state counts, wave sizes, budget stops and the retrograde run's
    # first-completing actions must not move under a speed-up.  The
    # solve's strategy plays every state the retrograde run wins, at its
    # wave
    g = _pinned_graph(recipe)
    out, ref = solve(g, spec, budget=budget), _retrograde(g, spec, budget=budget)
    assert (out.winner, out.states, out.wave_sizes, out.depth) == expected
    assert _policy_digest(ref) == policy_digest
    if out.winner is Winner.INCONCLUSIVE:
        return
    rw = ref.retrograded
    assert all(out.strategy.play(key)[0] == rw.wave[i] for key, i in rw.rows.items() if rw.won[i])


@pytest.mark.parametrize("recipe, spec, budget, expected, policy_digest", PINNED)
def test_index_view_round_trips_and_refuses_foreign_keys(
    recipe, spec, budget, expected, policy_digest
):
    g = _pinned_graph(recipe)
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


def test_finished_solve_index_holds_no_memos():
    # replay reads a solve through its index, which needs the codec alone:
    # the context's memos (grown territories, sightings) are emptied when
    # solve returns.  The move lists are not the solve's: they belong to the
    # table of its (graph, k), which lives with the graph and holds at most
    # one entry per cops tuple in each store; the ids of raw product tuples,
    # up to n^k of them, are kept only while the move lists are built
    for recipe, spec in (("randomtree:n=12,seed=4", GameSpec(1, 2)),
                         ("subdivided:2,1", GameSpec(1, 2, Variant.MONOTONE_CAPTURE))):
        out = solve(_pinned_graph(recipe), spec)
        ctx = out.index._ctx
        assert (ctx.grown, ctx.seen) == ({}, {})
        tab = ctx.tab
        assert tab is _tuples(out.graph, spec.cops)
        stores = [getattr(tab, name) for name in type(tab).__slots__]
        assert all(len(x) <= tab.size for x in stores if hasattr(x, "__len__"))
        assert [out.index[key] for key in out.index] == list(range(out.states))
        assert SolvedCops(out).move(out.graph, spec, BeliefState(*next(iter(out.index))))
        # building the strategy leaves none behind either
        assert (ctx.grown, ctx.seen) == ({}, {})


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


def _sighted_depth(g, k, ell, see, monotone=False):
    """Depth of the capture game (see=False) or the seeing game at radius
    ell by a least-fixpoint search over (sorted cops, sighted, information
    set, snapshot), with the cops to move.  The information set is the set
    of evader vertices consistent with every observation so far; an
    observation splits it into the unseen rest plus, unless a sighting ends
    the game, one sighted singleton per seen vertex.

    Under the weakly monotone rule (monotone=True) the unseen territory
    right after each cop half-move must lie inside the snapshot, or the
    cop move is not allowed, and it is the snapshot of the territory that
    the evader's move from it gives.  Sighted play is exempt: a sighted
    evader's state records nothing, and neither does a seen vertex of a
    territory, so the unseen rest of its move starts a fresh baseline
    (snapshot None).  Without the rule every snapshot is None.  None when
    the evader wins."""
    step = _near(g, 1)
    ball = _near(g, ell)

    def observe(cand, cops):
        """(sighted, vertex set) per branch of an observation of cand."""
        w = frozenset().union(*(ball[c] for c in cops))
        out = set() if see else {(True, frozenset([v])) for v in cand & w}
        if cand - w:
            out.add((False, cand - w))
        return out

    def actions(c, sighted, info, snap):
        """Per allowed cop move, the states after one full round (empty: a
        win)."""
        for c2 in _cop_steps(step, c):
            occupied = set(c2)
            after = set()
            for seen, s in observe(info - occupied, c2):
                base = None
                if monotone and not (sighted or seen):
                    if snap is not None and not s <= snap:
                        break
                    base = s
                moved = frozenset(x for v in s for x in step[v]) - occupied
                after |= {(c2, b, t, None if b else base) for b, t in observe(moved, c2)}
            else:
                yield list(after)

    roots = {
        p: [(p, b, s, None) for b, s in observe(frozenset(range(g.n)) - set(p), p)]
        for p in itertools.combinations_with_replacement(range(g.n), k)
    }
    return _least_fixpoint_depth(roots, actions)


@functools.cache
def _delayed_depth(g, k):
    """Depth of the time-delayed game by a least-fixpoint search over
    (sorted cops, knowledge set), with the cops to move.  Nothing is seen
    while play goes on; at the end of each round the evader's vertex before
    its move is disclosed, so the knowledge set becomes that vertex's closed
    neighbourhood off the cops, one branch per vertex it may have been on.
    None when the evader wins."""
    step = _near(g, 1)

    def actions(c, info):
        for c2 in _cop_steps(step, c):
            occupied = set(c2)
            yield [(c2, frozenset(step[v] - occupied)) for v in info - occupied]

    roots = {}
    for p in itertools.combinations_with_replacement(range(g.n), k):
        free = frozenset(range(g.n)) - set(p)
        roots[p] = [(p, free)] if free else []
    return _least_fixpoint_depth(roots, actions)


def _least_fixpoint_depth(roots, actions):
    """The game's depth from each placement's root states and each state's
    rows (actions(*state) gives, per cop move, the states after one full
    round; an empty row is a win): close the reachable states, then give
    each the wave at which some row has all its states won."""
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


@functools.cache
def _solved(g, spec):
    """The solve of a graph and a resolved spec, made once per test run:
    the oracle tests and the kernel-row tests read the same solves."""
    return solve(g, spec)


@functools.cache
def _retrograded(g, spec):
    """The retrograde solve of a graph and a resolved spec, made once per
    test run.  It is the one answer here that neither decide nor the walk
    search gives (solve answers every game but the monotone one by one of
    them), and its waves are the oracle of the solve's strategy."""
    return _retrograde(g, spec)


def _depth(g, ell, k, variant):
    """The game's depth from the retrograde solve, which decide and solve
    must match in winner, depth and placement."""
    spec = GameSpec(ell, k, variant)
    ref = _retrograded(g, spec.resolve(g))
    assert ref.winner is not Winner.INCONCLUSIVE
    assert (ref.winner is Winner.COPS) == (ref.depth is not None)
    answer = (ref.winner, ref.depth, ref.placement)
    assert decide(g, spec) == answer, (g.edges, spec)
    out = _solved(g, spec.resolve(g))
    assert (out.winner, out.depth, out.placement) == answer, (g.edges, spec)
    return ref.depth


@functools.cache
def _oracle_graphs():
    rng = random.Random(31)
    return tuple(
        random_connected(rng.randrange(2, 8), rng.randrange(0, 4), rng) for _ in range(45)
    )


# at radius 0 this graph has capture number 2 and monotone number 3
NON_MONOTONE = Graph(8, [(0, 1), (0, 2), (0, 6), (0, 7), (1, 3), (1, 4), (2, 3), (2, 5),
                         (2, 7), (3, 6), (4, 7), (5, 6), (5, 7)])

# the smallest known gaps at radii 1 and 2: three-legged spiders (legs of 3
# and of 4 edges) with capture number 1 and monotone number 2 there
SPIDER_3_3 = Graph(10, [(0, 1), (0, 4), (0, 7), (1, 2), (2, 3), (4, 5), (5, 6), (7, 8), (8, 9)])
SPIDER_3_4 = Graph(13, [(0, 1), (0, 5), (0, 9), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8),
                        (9, 10), (10, 11), (11, 12)])


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


def test_delayed_game_matches_knowledge_set_search():
    # decide, solve and the retrograde run agree (_depth) at up to three
    # cops, and so does the knowledge-set search, except on the census
    # graphs of 8 and 9 vertices at three cops, where it takes seconds
    oracle = [(g, k, (0, 1)) for g in _oracle_graphs() for k in (1, 2, 3) if k <= g.n]
    census = [(g, k, (0,)) for g in _census_graphs() for k in (1, 2, 3)]
    outcomes = set()
    for g, k, radii in oracle + census:
        for ell in radii:  # nothing is seen, so the radius changes nothing
            depth = _depth(g, ell, k, Variant.TIME_DELAYED)
            if k < 3 or g.n < 8:
                assert depth == _delayed_depth(g, k), (g.edges, k, ell)
            outcomes.add((k, depth is not None))
    assert {(k, won) for k in (1, 2) for won in (True, False)} | {(3, True)} <= outcomes


def test_decide_matches_solve_on_every_non_monotone_game():
    outcomes = set()
    for g in _oracle_graphs():
        for variant in Variant:
            if variant is Variant.MONOTONE_CAPTURE:
                continue
            for ell in (0, 1, 2):
                for k in (1, 2):
                    outcomes.add(_depth(g, ell, k, variant))
    assert {None, 0, 1, 2, 3} <= outcomes
    with pytest.raises(ValueError):
        decide(cycle(4), GameSpec(1, 1, Variant.MONOTONE_CAPTURE))
    with pytest.raises(ValueError):
        decide(path(2), GameSpec(1, 3))


# the open-loop games: under a seeing goal, or at radius 0, nothing is
# ever sighted, so the cops learn nothing until they win
OPEN_LOOP = ((0, Variant.SEE), (1, Variant.SEE), (2, Variant.SEE),
             (0, Variant.CAPTURE), (0, Variant.ZERO_VIS))


@functools.cache
def _census_graphs():
    """The first 20 graphs of the census benchmark."""
    return tuple(random_connected_graph(5 + i % 5, (i * 3) % (5 + i % 5 + 3), i) for i in range(20))


def test_clearing_walk_matches_decide_and_solve():
    # the walk search gives the retrograde solve's and decide's winner,
    # depth and placement, and visits no state that a solve does not intern
    outcomes = set()
    for g in _oracle_graphs() + _census_graphs():
        for ell, variant in OPEN_LOOP:
            for k in (1, 2):
                spec = GameSpec(ell, k, variant)
                ref = _retrograded(g, spec.resolve(g))
                winner, depth, placement, walk = _clearing_walk(g, spec)
                assert (winner, depth, placement) == (ref.winner, ref.depth, ref.placement), (g.edges, spec)
                assert decide(g, spec) == (winner, depth, placement), (g.edges, spec)
                assert walk.states <= ref.states, (g.edges, spec)
                outcomes.add(depth)
    assert {None, 0, 1, 2, 3} <= outcomes
    with pytest.raises(ValueError):
        _clearing_walk(cycle(4), GameSpec(1, 1))
    with pytest.raises(ValueError):
        _clearing_walk(cycle(4), GameSpec(0, 1, Variant.TIME_DELAYED))


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


def test_monotone_games_match_weak_monotone_search():
    # the monotone solve (the retrograde run) gives the winner
    # and depth of the weakly monotone rule restated over information sets,
    # which reads no kernel row; NON_MONOTONE's gap is at radius 0
    cases = [(g, ell, k) for g in _oracle_graphs() for ell in (1, 2) for k in (1, 2)]
    cases += [(NON_MONOTONE, 0, k) for k in (2, 3)]
    outcomes = set()
    for g, ell, k in cases:
        want = _sighted_depth(g, k, ell, see=False, monotone=True)
        out = _solved(g, GameSpec(ell, k, Variant.MONOTONE_CAPTURE).resolve(g))
        assert (out.winner is Winner.COPS, out.depth) == (want is not None, want), (g.edges, k, ell)
        outcomes.add(want is not None)
    assert outcomes == {True, False}
    assert _sighted_depth(NON_MONOTONE, 2, 0, see=False) is not None
    assert _sighted_depth(NON_MONOTONE, 2, 0, see=False, monotone=True) is None


# graph, radius, recipe, one cop's capture (depth, states), one cop's
# monotone states
MONOTONE_GAPS = [
    (SPIDER_3_3, 1, "spider:3,3", (9, 124), 151),
    (SPIDER_3_4, 2, "spider:3,4", (10, 223), 223),
]


@pytest.mark.parametrize("g, ell, recipe, capture, monotone_states", MONOTONE_GAPS,
                         ids=[case[2] for case in MONOTONE_GAPS])
def test_smallest_monotone_gaps(g, ell, recipe, capture, monotone_states):
    # one cop captures, but under the weakly monotone rule it loses, by the
    # solve and by the information-set search alike; two cops are needed
    assert g.edges == _pinned_graph(recipe).edges
    out = solve(g, GameSpec(ell, 1, Variant.CAPTURE))
    assert (out.winner, (out.depth, out.states)) == (Winner.COPS, capture)
    assert _sighted_depth(g, 1, ell, see=False) == out.depth
    mono = solve(g, GameSpec(ell, 1, Variant.MONOTONE_CAPTURE))
    assert (mono.winner, mono.states) == (Winner.ROBBER, monotone_states)
    assert _sighted_depth(g, 1, ell, see=False, monotone=True) is None
    p = profile(g, (ell,))
    assert (p.capture_at, p.monotone_at) == ({ell: 1}, {ell: 2})


def test_solved_seeing_policies_match_simulate_script():
    # a seeing policy learns nothing before it wins, so following it along
    # the one unseen branch gives a script; its worst-case simulation must
    # guarantee a sighting at exactly the solved depth
    depths = set()
    for g in _oracle_graphs():
        for k in (1, 2):
            for ell in (1, 2):
                spec = GameSpec(ell, k, Variant.SEE)
                out = _solved(g, spec)
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


def _all_specs(g, radii):
    return sorted(
        {GameSpec(ell, k, variant).resolve(g) for variant in Variant for ell in radii for k in (1, 2)},
        key=repr,
    )


def _kernel_rows(ctx, key):
    """The kernel's rows of a key tuple as (action, its cops, INV or DEL
    successor key tuples, sighted vertices), and the rows with the sighted
    vertices spelt out as VIS key tuples."""
    rows = [
        (a, ctx.cops_of[a], tuple(map(ctx.decode, succs)), list(bits(seen)))
        for a, succs, seen in _expand(ctx, ctx.encode(key), ctx.tab.moves()[ctx.cid(key[0])])
    ]
    full = [(cops, succs + tuple((cops, VIS, v, SNAP_FREE) for v in seen)) for _, cops, succs, seen in rows]
    return rows, full


def test_kernel_rows_obey_the_rules():
    # every row of every expanded state: one row per legal action (a cop
    # step that keeps the monotone baseline), and each successor a place
    # the evader can reach that the cops' information allows
    expanded = 0
    for g in _oracle_graphs():
        step = _near(g, 1)
        for spec in _all_specs(g, (0, 1, 2)):
            near = _near(g, spec.ell)
            out = _solved(g, spec)
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
                rows = _kernel_rows(ctx, key)[1]
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


def test_sighted_successors_are_roots_at_their_rows():
    # the monotone closure looks a row's sighted vertices up among the
    # roots, interning none of them, and _wave_keys leaves them out, so
    # each must be a root of the action's placement.  The roots' rows come
    # from g.dist: placements in combinations order, each giving its
    # sighted vertices ascending, then its unseen territory
    checked = 0
    for g in _oracle_graphs():
        for spec in _all_specs(g, (0, 1, 2)):
            near = _near(g, spec.ell)
            root_row = {}
            rows = 0
            for p in itertools.combinations_with_replacement(range(g.n), spec.cops):
                free = set(range(g.n)) - set(p)
                if spec.delayed:
                    rows += bool(free)
                    continue
                sighted = set().union(*(near[c] for c in p)) & free
                if not spec.see_goal:
                    for v in sorted(sighted):
                        root_row[p, v] = rows
                        rows += 1
                rows += bool(free - sighted)
            out = _solved(g, spec)
            assert out.winner is not Winner.INCONCLUSIVE
            for (p, v), i in root_row.items():
                assert out.index[(p, VIS, v, SNAP_FREE)] == i, (g.edges, spec, p, v)
            ctx = _Ctx(g, spec)
            for key in out.index:
                for _, cops, _, seen in _kernel_rows(ctx, key)[0]:
                    for v in seen:
                        assert (cops, v) in root_row, (g.edges, spec, key, cops, v)
                        checked += 1
    assert checked > 100_000


def test_sightings_depend_on_seen_set_and_action_alone():
    # the kernel memoizes the part of an INV row that the territory in sight
    # after the cop move gives, per (that set S, action).  Each INV row must
    # be the rules' row, and every row with a given (S, a) must hold the
    # escapes and the sighted reach the rules give S and a alone
    shared = 0
    for g in _oracle_graphs():
        step = _near(g, 1)
        for spec in _all_specs(g, (0, 1, 2)):
            if spec.delayed:
                continue
            near = _near(g, spec.ell)
            out = _solved(g, spec)
            ctx = _Ctx(g, spec)
            first = {}  # (S, action cops) -> (state, escape keys, sighted reach)
            for key in out.index:
                cops, tag, payload, snap = key
                if tag != INV:
                    continue
                for _, a, succs, seen in _kernel_rows(ctx, key)[0]:
                    sighted = set().union(*(near[c] for c in a))
                    territory = set(bits(payload)) - set(a)
                    s_now = set() if spec.see_goal else territory & sighted
                    unseen = territory - sighted
                    escapes = {(a, INV, sum(1 << w for w in step[v] - sighted), SNAP_FREE)
                               for v in s_now if step[v] - sighted}
                    reach = set().union(*(step[v] for v in s_now))
                    grown = set().union(*(step[v] for v in unseen))
                    want = set(escapes)
                    if grown - sighted:
                        u = sum(1 << w for w in unseen) if spec.monotone else SNAP_FREE
                        want.add((a, INV, sum(1 << w for w in grown - sighted), u))
                    keep = set() if spec.see_goal else sighted - set(a)
                    assert succs == tuple(sorted(want)), (g.edges, spec, key, a)
                    assert set(seen) == (reach | grown) & keep, (g.edges, spec, key, a)
                    state, esc1, reach1 = first.setdefault(
                        (frozenset(s_now), a), (key, escapes, reach & keep)
                    )
                    if state != key and len(s_now) >= 2:
                        assert esc1 <= set(succs) and reach1 <= set(seen), (g.edges, spec, key, a)
                        shared += 1
    assert shared > 2_000


@pytest.mark.parametrize("row", [0, 1])
def test_seen_memo_starting_afresh_changes_no_solve(monkeypatch, row):
    # the kernel clears its sightings memo when it reaches its cap; a cap
    # of two entries clears it over and over, and the pinned values hold
    from lvcops import engine

    recipe, spec, budget, expected, policy_digest = PINNED[row]
    monkeypatch.setattr(engine, "_SEEN_MEMO_CAP", 2)
    g = _pinned_graph(recipe)
    out = solve(g, spec, budget=budget)
    assert (out.winner, out.states, out.wave_sizes, out.depth) == expected
    assert _policy_digest(_retrograde(g, spec, budget=budget)) == policy_digest
    assert len(out.index._ctx.seen) <= 2


def test_vis_rows_depend_on_vertex_and_action_alone():
    # _wave_keys rolls the sighted (VIS) states of a wave into one vertex
    # mask per action, and the antichains keep one won-vertex mask per
    # cops tuple, so the row of a sighted state for an action must be the
    # same from every cops tuple that sees the evader on the same vertex
    # and has that action.  test_kernel_rows_obey_the_rules judges each
    # row from g.dist
    shared = 0
    for g in _oracle_graphs():
        for spec in _all_specs(g, (1, 2)):
            out = _solved(g, spec)
            ctx = _Ctx(g, spec)
            first = {}  # (vertex, action cops) -> (cops, row) where first met
            for key in out.index:
                cops, tag, r, _ = key
                if tag != VIS:
                    continue
                for a, row in _kernel_rows(ctx, key)[1]:
                    cops1, row1 = first.setdefault((r, a), (cops, row))
                    if cops1 != cops:
                        assert row == row1, (g.edges, spec, key, a, cops1)
                        shared += 1
    assert shared > 50_000


def test_antichain_closed_form_matches_kernel_rows():
    # decide restates the kernel's round as masks: for a won territory M of
    # the action a and the won sighted vertices V, the territory T of an
    # INV state lies below what a wins into M exactly when every INV
    # successor of a's row lies below M and every sighted one in V; and a
    # sighted evader on r is won through a exactly when the same holds for
    # its VIS row (empty when a's cops stand on r).  The time-delayed game
    # has its own closed form (test_point_closed_form_matches_kernel_rows)
    rng = random.Random(7)
    checked = set()
    for g in _oracle_graphs():
        for spec in _all_specs(g, (0, 1, 2)):
            if spec.monotone or spec.delayed:
                continue
            ctx = _Ctx(g, spec)
            placements = list(itertools.combinations_with_replacement(range(g.n), spec.cops))
            for p in placements:
                ctx.cid(p)
            fx = _Antichains(g, ctx)
            for _ in range(40):
                c = rng.randrange(len(placements))
                a = rng.choice(ctx.tab.moves()[c])
                m = rng.getrandbits(g.n) & fx.dom[a]
                fx.X[a], fx.inter[a] = {}, g.grow(fx.dom[a])
                if m:
                    fx.insert_all(a, {m: a}, 1)
                fx.V[a] = rng.getrandbits(g.n) & fx.sight[a]
                ok, (t_am,) = fx.offers(a)

                def won_into(tag, payload):
                    key = ctx.encode((placements[c], tag, payload, SNAP_FREE))
                    ((_, succs, seen),) = _expand(ctx, key, (a,))
                    return all((k >> ctx.ps) | m == m for k in succs) and not seen & ~fx.V[a]

                t = rng.getrandbits(g.n) & fx.dom[c]
                if t:
                    want = won_into(INV, t)
                    assert (t | t_am == t_am) == want, (g.edges, spec, placements[c], a, t, m)
                    checked.add((INV, want))
                for r in bits(fx.sight[c]):
                    want = won_into(VIS, r)
                    assert bool((ok >> r) & 1) == want, (g.edges, spec, placements[c], a, r, m)
                    checked.add((VIS, want))
    assert checked == {(tag, won) for tag in (INV, VIS) for won in (True, False)}


def test_point_closed_form_matches_kernel_rows():
    # decide restates the time-delayed kernel's round as masks: from the
    # state (c, K) the action a leads to the states (a, N[u] & free[a]), one
    # per u in K & free[a], free the vertices off the cops, and nothing is
    # sighted.  For a won mask Q of a (closed under giving the same state),
    # the point (c, N[v] & free[c]) is then won through a exactly when v is
    # in free[c] & ~grow(free[c] & ~(occ[a] | Q)), and the root (c, free[c])
    # exactly when free[c] lies inside occ[a] | Q
    rng = random.Random(13)
    checked = set()
    for g in _oracle_graphs():
        for k in (1, 2, 3):
            if k > g.n:
                continue
            ctx = _Ctx(g, GameSpec(0, k, Variant.TIME_DELAYED))
            moves = ctx.tab.moves()
            free = [g.full & ~m for m in ctx.occ]
            for _ in range(40):
                c = rng.randrange(len(moves))
                a = rng.choice(moves[c])
                fa = free[a]
                points = {g.adj_closed[u] & fa for u in bits(rng.getrandbits(g.n) & fa)}
                q = sum(1 << u for u in bits(fa) if g.adj_closed[u] & fa in points)
                won_v = free[c] & ~g.grow(free[c] & ~(ctx.occ[a] | q))
                cases = [(g.adj_closed[v] & free[c], bool(won_v >> v & 1)) for v in bits(free[c])]
                if free[c]:
                    cases.append((free[c], not free[c] & ~(ctx.occ[a] | q)))
                for payload, want in cases:
                    key = ctx.encode((ctx.cops_of[c], DEL, payload, SNAP_FREE))
                    ((_, succs, seen),) = _expand(ctx, key, (a,))
                    assert seen == 0, (g.edges, k, c, a, payload)
                    got = [(s & ctx.cmask, s >> ctx.cb & 3, s >> ctx.ps) for s in succs]
                    assert sorted(got) == sorted(
                        {(a, DEL, g.adj_closed[u] & fa) for u in bits(payload & fa)}
                    ), (g.edges, k, c, a, payload)
                    assert all(s in points for _, _, s in got) == want, (g.edges, k, c, a, payload, q)
                    checked.add((payload == free[c], want))
    assert checked == {(root, won) for root in (True, False) for won in (True, False)}


def test_walk_closed_form_matches_kernel_rows():
    # the walk search restates the kernel's round of an open-loop game as
    # masks: the action a takes the territory T to the one INV territory
    # grow(T & nb) & nb, nb = nvis[a], or wins when T & nb is 0; nothing
    # is ever sighted
    rng = random.Random(11)
    checked = set()
    for g in _oracle_graphs():
        for spec in _all_specs(g, (0, 1, 2)):
            if not _open_loop(spec):
                continue
            ctx = _Ctx(g, spec)
            placements = list(itertools.combinations_with_replacement(range(g.n), spec.cops))
            for p in placements:
                ctx.cid(p)
            for _ in range(40):
                c = rng.randrange(len(placements))
                a = rng.choice(ctx.tab.moves()[c])
                nb = g.full & ctx.nvis[a]
                t = rng.getrandbits(g.n) & g.full & ctx.nvis[c]
                if not t:
                    continue
                key = ctx.encode((placements[c], INV, t, SNAP_FREE))
                ((_, succs, seen),) = _expand(ctx, key, (a,))
                assert seen == 0, (g.edges, spec, placements[c], a, t)
                want = g.grow(t & nb) & nb
                assert [(s & ctx.cmask, s >> ctx.cb & 3, s >> ctx.ps) for s in succs] == (
                    [(a, INV, want)] if t & nb else []
                ), (g.edges, spec, placements[c], a, t)
                checked.add(bool(t & nb))
    assert checked == {True, False}


def test_wave_rule_matches_kernel_rows():
    # solve interns every game but the monotone one a wave at a time by the
    # kernel's wave rule.  For any set of reachable states it must yield
    # every action some state has, ascending, each with the union of the
    # kernel's INV or DEL keys for that action over the states' rows, and
    # every sighted successor it leaves out must be a root
    rng = random.Random(17)
    checked = set()
    for g in _oracle_graphs():
        specs = {
            GameSpec(ell, k, variant).resolve(g)
            for k in (1, 2, 3) if k <= g.n
            for variant, radii in ((Variant.CAPTURE, (0, 1, 2)), (Variant.CLASSICAL, (0,)),
                                   (Variant.SEE, (0, 1, 2)), (Variant.TIME_DELAYED, (0,)))
            for ell in radii
        }
        for spec in sorted(specs, key=repr):
            ctx = _Ctx(g, spec)
            moves = ctx.tab.moves()
            roots = {k for c in range(len(moves)) for k in _initial_keys(ctx, c, g.full)}
            reached = [ctx.encode(key) for key in _solved(g, spec).index]
            for _ in range(3 if reached else 0):
                wave = rng.sample(reached, rng.randint(1, min(len(reached), 40)))
                want = {}
                for key in wave:
                    for a, succs, seen in _expand(ctx, key, moves[key & ctx.cmask]):
                        want.setdefault(a, set()).update(succs)
                        assert set(_vis_keys(ctx, a, seen)) <= roots, (g.edges, spec, key, a)
                got = list(_wave_keys(ctx, wave))
                assert [a for a, _ in got] == sorted(want), (g.edges, spec)
                assert dict(got) == want, (g.edges, spec)
                sighted = any(key >> ctx.cb & 3 == VIS for key in wave)
                checked.add((spec.variant, spec.cops, sighted))
    assert {(v, k, False) for v in (Variant.CAPTURE, Variant.SEE, Variant.TIME_DELAYED) for k in (1, 2, 3)} <= checked
    assert {(Variant.CAPTURE, k, True) for k in (1, 2, 3)} <= checked
    with pytest.raises(ValueError):
        list(_wave_keys(_Ctx(cycle(4), GameSpec(1, 1, Variant.MONOTONE_CAPTURE)), []))


def test_solves_stay_under_the_decider_bound():
    # cop_number decides a count by decide only when the budget is at least
    # this bound, so no solve it stands in for could have stopped
    for g in _oracle_graphs():
        for spec in _all_specs(g, (0, 1, 2)):
            assert _solved(g, spec).states <= _states_bound(g.n, spec.cops), (g.edges, spec)


def test_monotone_solves_stay_under_the_monotone_bound():
    # profile replays a capture win in place of the monotone solves only
    # when the budget is at least this bound.  It holds because a territory
    # with a snapshot is fixed by its cops and its snapshot, which is
    # checked here too, not only the count
    checked = 0
    for g in _oracle_graphs():
        for spec in _all_specs(g, (0, 1, 2)):
            if not spec.monotone:
                continue
            out = _solved(g, spec)
            bound = _states_bound(g.n, spec.cops, monotone=True)
            assert bound == math.comb(g.n + spec.cops - 1, spec.cops) * (2 ** (g.n + 1) + g.n)
            assert out.states <= bound, (g.edges, spec)
            territory = {}
            for cops, tag, payload, snap in out.index:
                if snap != SNAP_FREE:
                    assert tag == INV
                    assert territory.setdefault((cops, snap), payload) == payload, (g.edges, spec)
                    checked += 1
    assert checked > 1000


def test_decided_strategy_wins_within_depth():
    # decide's levelled antichains read as a strategy, replayed through the
    # turn views (which check each move's legality): from the placement,
    # the recorded level is at most depth and falls strictly at every step,
    # so every branch ends within depth rounds.  decide stops at the winning
    # level keeping only the winning root's record, and the placement's
    # INV (or DEL) root plays that record, at exactly depth
    games = rooted = 0
    for g in _oracle_graphs():
        specs = {
            GameSpec(ell, k, variant).resolve(g)
            for variant in (Variant.CAPTURE, Variant.SEE, Variant.CLASSICAL,
                            Variant.ZERO_VIS, Variant.TIME_DELAYED)
            for ell in (0, 1, 2) for k in (1, 2)
        }
        for spec in sorted(specs, key=repr):
            winner, depth, placement, fx = _decide(g, spec)
            if winner is not Winner.COPS:
                continue
            games += 1
            ctx = _Ctx(g, spec)  # play reads packed keys
            # whose cops ids are the placements in order
            assert ctx.cops_of == list(itertools.combinations_with_replacement(range(g.n), spec.cops))
            todo = [(s, depth + 1, 0) for s in initial_branches(g, spec, placement)]
            for s, _, _ in todo:
                if s.tag != VIS:
                    assert fx.play(ctx.encode(s))[0] == depth, (g.edges, spec)
                    rooted += 1
            while todo:
                state, above, rounds = todo.pop()
                level, a = fx.play(ctx.encode(state))
                assert 0 < level < above and rounds < depth, (g.edges, spec, state)
                for s in round_branches(g, spec, state, ctx.cops_of[a]):
                    todo.append((s, level, rounds + 1))
    assert games > 500 and rooted > 250


def test_clearing_walk_wins_in_depth_rounds():
    # the walk read as a strategy, replayed through the turn views (which
    # check each move's legality): the placement's one root plays at
    # exactly depth rounds left, each round leaves one branch with one
    # round fewer, and the last round leaves none
    walked = set()
    for g in _oracle_graphs():
        for ell, variant in OPEN_LOOP:
            for k in (1, 2):
                spec = GameSpec(ell, k, variant)
                winner, depth, placement, walk = _clearing_walk(g, spec)
                if winner is not Winner.COPS:
                    continue
                ctx = _Ctx(g, spec)  # play reads packed keys
                assert ctx.cops_of == list(itertools.combinations_with_replacement(range(g.n), k))
                states = initial_branches(g, spec, placement)
                for left in range(depth, 0, -1):
                    (state,) = states
                    played, a = walk.play(ctx.encode(state))
                    assert played == left, (g.edges, spec, state)
                    states = round_branches(g, spec, state, ctx.cops_of[a])
                assert states == (), (g.edges, spec)
                walked.add(depth)
    assert {0, 1, 2, 3} <= walked


def test_decided_antichains_stay_antichains():
    # X[c] holds maximal territories only, and every territory it ever held
    # (kept[c]) lies below one it holds at the end, the winning root too.
    # The time-delayed game keeps no antichains
    games = displaced = 0
    for g in _oracle_graphs() + _census_graphs():
        for spec in _all_specs(g, (0, 1, 2)):
            if spec.monotone or spec.delayed:
                continue
            fx = _decide(g, spec)[3]
            games += 1
            for xc, kept in zip(fx.X, fx.kept):
                for t, m in itertools.permutations(xc, 2):
                    assert t | m != m, (g.edges, spec, t, m)
                for _, t, _ in kept:
                    assert any(t | m == m for m in xc), (g.edges, spec, t)
                    displaced += t not in xc
    assert games > 800 and displaced > 1000


def test_decide_pins_the_paper_tree_capture_game():
    # the paper's 57-vertex tree at radius 2 with two cops: the retrograde
    # answer, 2,351,883 states and about four minutes to record.  The root
    # plays the first action offering it, the one decide recorded when it
    # inserted the whole winning level: the cops step to (4, 32)
    g = generate(parse_recipe("subdivided:3,3")).graph
    assert g.n == 57
    winner, depth, placement, fx = _decide(g, GameSpec(2, 2))
    assert (winner, depth, placement) == (Winner.COPS, 26, (2, 33))
    ctx = _Ctx(g, GameSpec(2, 2))
    c = ctx.cid(placement)
    level, a = fx.play(ctx.encode((placement, INV, fx.dom[c], SNAP_FREE)))
    assert (level, ctx.cops_of[a]) == (26, (4, 32))


def test_retrograde_profile_matches_the_decided_one():
    # the witness screen solves every count; the numbers must not depend on
    # it, nor on a monotone number coming from a replayed capture win
    cases = [(g, (0, 1, 2)) for g in _oracle_graphs()] + [(NON_MONOTONE, (0, 1))]
    cases += [(g, (1, 2)) for g in _census_graphs()]
    for g, radii in cases:
        assert profile(g, radii, retrograde=True) == profile(g, radii), (g.edges, radii)


def _product_order(step, cops):
    """The sorted tuples one half-move from cops, each at its first
    occurrence in the product of the cops' sorted closed neighbourhoods."""
    want = {}
    for combo in itertools.product(*(step[v] for v in cops)):
        want.setdefault(tuple(sorted(combo)), None)
    return list(want)


def test_move_order_is_first_occurrence_in_the_product():
    # the order of ctx.moves fixes the interning order, so it is pinned to
    # the first occurrence of each sorted tuple in the product of the cops'
    # sorted closed neighbourhoods (from g.dist); each action id's masks
    # are its tuple's occupancy, the complement of the union of its balls,
    # and that union less the occupancy.  One table serves every tuple of
    # a (graph, k): its tuples are the placements, in combinations order,
    # and its move lists are built from those of the table of k - 1 cops
    rng = random.Random(23)
    graphs = [random_connected(rng.randrange(2, 9), rng.randrange(0, 6), rng) for _ in range(30)]
    # a wheel: hub 0, of degree 7, joined to every vertex of the cycle 1..7
    graphs.append(Graph(8, [(0, i) for i in range(1, 8)] + [(i, i % 7 + 1) for i in range(1, 8)]))
    checked = 0
    for g in graphs:
        step = [sorted(_near(g, 1)[v]) for v in range(g.n)]
        for k in (1, 2, 3, 4):
            ell = rng.randrange(0, 3)
            near = _near(g, ell)
            ctx = _Ctx(g, GameSpec(ell, k))
            assert ctx.tab is _tuples(g, k)
            assert ctx.cops_of == list(itertools.combinations_with_replacement(range(g.n), k))
            for cops in itertools.combinations_with_replacement(range(g.n), k):
                acts = ctx.tab.moves()[ctx.cid(cops)]
                assert [ctx.cops_of[a] for a in acts] == _product_order(step, cops), (g.edges, cops)
                for a in acts:
                    a_cops = ctx.cops_of[a]
                    assert ctx.cid(a_cops) == a
                    assert ctx.occ[a] == sum(1 << v for v in set(a_cops))
                    sighted = sum(1 << v for v in set().union(*(near[c] for c in a_cops)))
                    assert ~ctx.nvis[a] == sighted
                    assert ctx.sight[a] == sighted & ~ctx.occ[a]
                checked += 1
    assert checked > 1000

    # five cops on the graphs of at most 6 vertices, and a fresh graph
    # whose table of 3 cops is built before the tables below it
    fresh = random_connected(7, 4, random.Random(5))
    assert not fresh._tuple_tables
    tables = [(g, 5) for g in graphs if g.n <= 6] + [(fresh, 3), (fresh, 2), (fresh, 1)]
    assert len(tables) > 15
    for g, k in tables:
        step = [sorted(_near(g, 1)[v]) for v in range(g.n)]
        tab = _tuples(g, k)
        moves = tab.filled().moves()
        assert tab.cops_of == list(itertools.combinations_with_replacement(range(g.n), k))
        for c, cops in enumerate(tab.cops_of):
            assert [tab.cops_of[a] for a in moves[c]] == _product_order(step, cops), (g.edges, cops)


def test_context_masks_are_the_ball_unions_of_their_tuples():
    # a context on a complete table reads its masks off the table's lists
    # of the radius, each built from the lists of the table below; one on
    # a partial table takes a ball union per id as it comes.  Either way, per
    # tuple, nvis is the complement of the union of its cops' balls and
    # sight is that union less the occupancy: nothing under a seeing goal,
    # and in the time-delayed game, which observes nothing live, every
    # vertex is out of sight
    def check(g, ctx, spec):
        assert len(ctx.nvis) == len(ctx.sight) == len(ctx.cops_of) > 0
        balls = g.balls(spec.ell)
        for c, cops in enumerate(ctx.cops_of):
            vis = 0 if spec.delayed else _ball_union(balls, cops)
            occ = sum(1 << v for v in set(cops))
            assert ctx.nvis[c] == ~vis, (g.edges, spec, cops)
            assert ctx.sight[c] == (0 if spec.see_goal or spec.delayed else vis & ~occ), (g.edges, spec, cops)

    variants = (Variant.CAPTURE, Variant.SEE, Variant.MONOTONE_CAPTURE, Variant.TIME_DELAYED)
    for g in _oracle_graphs():
        diameter = max(map(max, g.dist))
        for k in (1, 2, 3, 4):
            for ell in range(diameter + 2):
                for variant in variants:
                    spec = GameSpec(ell, k, variant)
                    check(g, _Ctx(g, spec), spec)

    # partial tables: _open's, stopped among its roots, and a turn view's
    for variant in variants:
        g = random_connected(7, 3, random.Random(11))  # a fresh graph: no table yet
        spec = GameSpec(1, 3, variant)
        cl, _ = _open(g, spec, 10)
        assert cl.stopped and 0 < len(cl.ctx.cops_of) < cl.ctx.tab.size
        check(g, cl.ctx, spec)
        for p in ((0, 1, 2), (3, 3, 6), (1, 4, 5)):
            initial_branches(g, spec, p)
        view = _view_ctx(g, spec)
        assert len(view.cops_of) == 3 < view.tab.size
        check(g, view, spec)


def test_profiled_graphs_die_without_the_cycle_collector():
    # a cops table holds the table below it, never its graph, so a graph
    # and its tables make no reference cycle: with the collector off, a
    # dropped graph is freed at once, tables, contexts and all
    def graphs_alive():
        return sum(type(o) is Graph for o in gc.get_objects())

    gc.collect()
    was_on = gc.isenabled()
    gc.disable()
    try:
        before = graphs_alive()
        graphs = [random_connected_graph(5 + i % 4, i % 5, 300 + i) for i in range(20)]
        for g in graphs:
            profile(g, (1, 2))
        assert all(g._tuple_tables for g in graphs)
        assert graphs_alive() == before + 20
        del graphs, g
        assert graphs_alive() == before
    finally:
        if was_on:
            gc.enable()


def test_profile_builds_one_cops_table_per_cop_count(monkeypatch):
    # every game of a profile reads the one table of its graph and cop
    # count, kept on the graph, and a complete table never grows, so its
    # ids fit the codec
    g = random_connected_graph(7, 4, 3)  # a fresh graph: no table yet
    read = []
    init = _Ctx.__init__

    def recording_init(self, *args):
        init(self, *args)
        read.append(self.tab)

    monkeypatch.setattr(_Ctx, "__init__", recording_init)
    prof = profile(g, (1, 2))
    numbers = [prof.classical, prof.blind, prof.delayed]
    for at in (prof.capture_at, prof.see_at, prof.monotone_at):
        numbers += at.values()
    reached = range(1, max(numbers) + 1)
    assert len(read) > len(reached) == len(g._tuple_tables)
    assert {id(tab) for tab in read} == {id(_tuples(g, k)) for k in reached}
    for k in reached:
        tab = _tuples(g, k)
        size = math.comb(g.n + k - 1, k)
        with pytest.raises(IllegalMove):
            tab.cid((g.n,) * k)
        assert len(tab.cops_of) == size <= 1 << _Ctx(g, GameSpec(1, k)).cb


def test_budget_stop_among_the_roots_lists_few_placements():
    # 12 cops on a 40-vertex path have comb(51, 12), about 1.6e11,
    # placements: a solve stopped by its budget among the roots gives ids
    # only to the placements it met, one root each at radius 0
    g = path(40)
    out = solve(g, GameSpec(0, 12), budget=100)
    assert (out.winner, out.states) == (Winner.INCONCLUSIVE, 100)
    assert len(_tuples(g, 12).cops_of) == 101


# -- solve's answer and its strategy -------------------------------------------------
# solve expands every game to closure and answers all but the monotone one
# by decide or the walk search.  The retrograde solve, which keeps the
# slots and propagates over them, is the independent answer it is held to.


def _non_monotone_games():
    """(graph, resolved spec) of every non-monotone game on the oracle and
    census graphs at radii 0 to 2 and 1 to 2 cops."""
    for g in _oracle_graphs() + _census_graphs():
        for spec in _all_specs(g, (0, 1, 2)):
            if not spec.monotone:
                yield g, spec


def test_solve_gives_the_retrograde_answer():
    # solve interns the roots as the retrograde run does, then each wave's
    # states by action id and packed key, where the retrograde run goes in
    # discovery order: each wave holds the same states
    outcomes = set()
    reordered = 0
    for g, spec in _non_monotone_games():
        out, ref = _solved(g, spec), _retrograded(g, spec)
        assert out.retrograded is None and ref.retrograded is not None
        got = (out.winner, out.states, out.wave_sizes, out.depth, out.placement)
        assert got == (ref.winner, ref.states, ref.wave_sizes, ref.depth, ref.placement), (g.edges, spec)
        keys, ref_keys = list(out.index._rows), list(ref.index._rows)
        cmask = out.index._ctx.cmask
        lo = out.wave_sizes[0] if out.wave_sizes else 0
        assert keys[:lo] == ref_keys[:lo], (g.edges, spec)
        for size in out.wave_sizes[1:]:
            wave = keys[lo : lo + size]
            assert set(wave) == set(ref_keys[lo : lo + size]), (g.edges, spec)
            assert wave == sorted(wave, key=lambda k: (k & cmask, k)), (g.edges, spec)
            lo += size
        assert lo == len(keys) == len(ref_keys) == out.states, (g.edges, spec)
        reordered += keys != ref_keys
        outcomes.add((spec.variant, out.depth))
    assert reordered > 200
    assert {(v, None) for v in (Variant.CAPTURE, Variant.SEE, Variant.TIME_DELAYED)} <= outcomes
    assert {(Variant.CAPTURE, 3), (Variant.SEE, 3), (Variant.TIME_DELAYED, 2)} <= outcomes


def _counting_closures(monkeypatch) -> list[str]:
    """Record each closure solver runs: "waves" for solve's wave loop,
    "retrograde" for the retrograde solve, whose expansion keeps the slots."""
    from lvcops import solver

    closures = []

    def counting(name, real):
        def closing(*args, **kwargs):
            closures.append(name)
            return real(*args, **kwargs)

        return closing

    monkeypatch.setattr(solver, "_close_waves", counting("waves", solver._close_waves))
    monkeypatch.setattr(solver, "_retrograde", counting("retrograde", solver._retrograde))
    return closures


def test_strategy_levels_are_the_retrograde_waves(monkeypatch):
    # a solve's strategy is decide's fixpoint run to its end, built on first
    # use with no closure of its own.  On every
    # state the retrograde run interns, depth-0 and time-delayed games
    # included, it is defined iff that run wins the state, its level is the
    # run's wave, and each successor of the action it plays is terminal or
    # won at a lower level
    closures = _counting_closures(monkeypatch)
    won = lost = 0
    games = set()
    for g, spec in _non_monotone_games():
        ref = _retrograded(g, spec)
        closures.clear()
        out = solve(g, spec)
        fx = out.strategy
        assert closures == ["waves"]
        assert _decide(g, spec, stop=False)[:3] == (out.winner, out.depth, out.placement)
        ctx = _Ctx(g, spec)
        moves = ctx.tab.moves()
        rw = ref.retrograded
        for key, i in rw.rows.items():
            if not rw.won[i]:
                with pytest.raises(KeyError):
                    fx.play(key)
                lost += 1
                continue
            level, a = fx.play(key)
            assert level == rw.wave[i], (g.edges, spec, ctx.decode(key))
            assert a in moves[key & ctx.cmask]
            assert out.play(ctx.decode(key)) == (level, ctx.cops_of[a])
            ((_, succs, seen),) = _expand(ctx, key, (a,))
            for s in succs + _vis_keys(ctx, a, seen):
                assert fx.play(s)[0] < level, (g.edges, spec, ctx.decode(key))
            won += 1
        games.add((spec.variant, out.depth))
    assert won > 20_000 and lost > 5_000
    for variant in (Variant.CAPTURE, Variant.SEE, Variant.TIME_DELAYED):
        assert {(variant, 0), (variant, None)} <= games


def test_every_budget_stops_where_the_retrograde_run_does():
    # solve counts a wave's new states action by action and stops at the
    # first action that brings the count past the budget, where the
    # retrograde run stops at the state past it.  At every budget up to one
    # past the state count they give the same stop or the same answer
    games = stops = 0
    for g, spec in list(_non_monotone_games())[::9]:
        states = _retrograded(g, spec).states
        if states > 60:
            continue
        games += 1
        for budget in range(1, states + 2):
            out, ref = solve(g, spec, budget=budget), _retrograde(g, spec, budget=budget)
            got = (out.winner, out.states, out.wave_sizes, out.depth, out.placement)
            assert got == (ref.winner, ref.states, ref.wave_sizes, ref.depth, ref.placement), (g.edges, spec, budget)
            assert (out.winner is Winner.INCONCLUSIVE) == (budget < states), (g.edges, spec, budget)
            stops += budget < states
    assert games > 50 and stops > 1000


def test_budget_stop_never_answers(monkeypatch):
    # a budget stop happens inside the closure, at the state count where the
    # retrograde solve stops, before decide or the walk search could run
    from lvcops import solver

    def refuse(*args):
        raise AssertionError("a budget stop called the answer step")

    games = [(g, spec) for g, spec in _non_monotone_games() if g.n >= 6]
    with monkeypatch.context() as m:
        m.setattr(solver, "_decide", refuse)
        m.setattr(solver, "_clearing_walk", refuse)
        stops = 0
        for g, spec in games[::3]:
            states = _retrograded(g, spec).states
            for budget in sorted({b for b in (1, states // 4, states // 2, states - 1) if 0 < b < states}):
                out, ref = solve(g, spec, budget=budget), _retrograde(g, spec, budget=budget)
                assert out.winner is ref.winner is Winner.INCONCLUSIVE, (g.edges, spec, budget)
                assert out.states == ref.states == budget, (g.edges, spec, budget)
                assert out.wave_sizes == ref.wave_sizes, (g.edges, spec, budget)
                stops += 1
    assert stops > 500
    # at its own state count the budget does not bind
    g, spec = games[0]
    assert solve(g, spec, budget=_retrograded(g, spec).states).winner is not Winner.INCONCLUSIVE


def test_budget_below_one_is_refused():
    # a state count is never negative, so no closure takes a budget below 1
    g = cycle(5)
    for budget in (0, -3):
        for spec in (GameSpec(1, 1, Variant.MONOTONE_CAPTURE), GameSpec(1, 1)):
            with pytest.raises(ValueError, match="at least 1"):
                solve(g, spec, budget=budget)
        with pytest.raises(ValueError, match="at least 1"):
            _retrograde(g, GameSpec(1, 1), budget=budget)


def _monotone_budget_games():
    """(graph, resolved spec) of the monotone games on the oracle graphs at
    radii 1 and 2 with 1 and 2 cops, and of the gaps at NON_MONOTONE (radius
    0, 2 cops) and SPIDER_3_3 (radius 1, 1 cop)."""
    for g in _oracle_graphs():
        for ell in (1, 2):
            for k in (1, 2):
                yield g, GameSpec(ell, k, Variant.MONOTONE_CAPTURE)
    yield NON_MONOTONE, GameSpec(0, 2, Variant.MONOTONE_CAPTURE)
    yield SPIDER_3_3, GameSpec(1, 1, Variant.MONOTONE_CAPTURE)


def test_every_budget_stops_the_monotone_solve_in_its_wave():
    # the monotone closure stops at the first state past the budget, so a
    # solve is INCONCLUSIVE exactly below the state count, reports the
    # budget as its states, and keeps the waves before the one that state
    # is in: none for a stop among the roots.  At or above the state count
    # it answers as the unbudgeted solve does
    games = stops = root_stops = 0
    for g, spec in _monotone_budget_games():
        full = _solved(g, spec)
        ends = list(itertools.accumulate(full.wave_sizes))
        games += 1
        for budget in range(1, full.states + 2):
            out = solve(g, spec, budget=budget)
            m = next((w for w, end in enumerate(ends) if end > budget), len(ends))
            assert out.wave_sizes == full.wave_sizes[:m], (g.edges, spec, budget)
            assert (out.winner is Winner.INCONCLUSIVE) == (budget < full.states), (g.edges, spec, budget)
            if budget < full.states:
                assert out.states == budget, (g.edges, spec, budget)
                stops += 1
                root_stops += m == 0
            else:
                got = (out.winner, out.states, out.depth, out.placement)
                assert got == (full.winner, full.states, full.depth, full.placement), (g.edges, spec)
    assert games > 180 and root_stops > 5000 and stops - root_stops > 3000


def test_monotone_solve_expands_each_state_once(monkeypatch):
    # the monotone game is answered by the retrograde solve itself: one
    # closure, each state expanded once, and its waves are the strategy
    from lvcops import solver

    closures = _counting_closures(monkeypatch)
    expanded = []
    real = solver._expand

    def expanding(ctx, key, acts):
        expanded.append(key)
        return real(ctx, key, acts)

    monkeypatch.setattr(solver, "_expand", expanding)
    spec = GameSpec(1, 2, Variant.MONOTONE_CAPTURE)
    for g in (_pinned_graph("subdivided:2,1"), *_oracle_graphs()[:10]):
        closures.clear()
        expanded.clear()
        out = solve(g, spec)
        assert out.strategy is out.retrograded is not None
        assert closures == ["retrograde"]
        # every interned state is expanded, once
        assert len(expanded) == len(set(expanded)) == out.states


def test_solve_memory_per_state():
    # tracemalloc's peak over the retrograde solve, which keeps the slots,
    # per interned state.  The store of tuple keys, int lists and
    # per-state pred lists peaked at 688 B/state here (Python 3.11); packed
    # keys and int32 tables need under 0.7x that.  solve itself keeps no
    # slots, so it peaks lower still
    g = generate(parse_recipe("randomtree:n=12,seed=4")).graph
    spec = GameSpec(1, 2)
    _retrograde(g, spec)  # builds the graph's lazy tables outside the measurement
    peaks = []
    for run in (_retrograde, solve):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = run(g, spec)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            if not tracing:
                tracemalloc.stop()
        assert out.states == 1180
    assert peaks[0] / out.states <= 0.7 * 688
    assert peaks[1] < peaks[0]


def _policy_games():
    """(graph, resolved spec) of every game on the oracle graphs at radii 0
    to 2 and 1 to 2 cops, and of the README's solved-robber simulate
    examples."""
    for g in _oracle_graphs():
        for spec in _all_specs(g, (0, 1, 2)):
            yield g, spec
    for recipe, spec in (
        ("cycle:4", GameSpec(1, 2)),
        ("cycle:6", GameSpec(0, 2, Variant.TIME_DELAYED)),
        ("randomtree:n=24,seed=4", GameSpec(1, 2)),
    ):
        g = _pinned_graph(recipe)
        yield g, spec.resolve(g)


def test_solved_policies_meet_the_retrograde_ones():
    # the policies read the solve's strategy; over the retrograde run they
    # read its recorded first-completing actions and waves instead.  The
    # solve's cops end the game within depth rounds against either robber.
    # Against the retrograde run's cops the solve's robber plays the match
    # the retrograde run's robber plays, and lasts depth rounds wherever the
    # cops see the evader live at a positive radius.  In a blind or
    # time-delayed game the evader's vertex within its territory is a guess
    # (SolvedRobber), and 21 of these matches end sooner, for both robbers
    games = short = 0
    for g, spec in _policy_games():
        out = solve(g, spec)
        if out.winner is not Winner.COPS:
            continue
        ref = _retrograde(g, spec)
        depth = out.depth
        for robber in (SolvedRobber(out), SolvedRobber(ref)):
            tr = play_match(g, spec, SolvedCops(out), robber, max_rounds=depth + 1)
            assert tr.outcome is not Outcome.TIMEOUT and tr.rounds <= depth, (g.edges, spec)
        tr = play_match(g, spec, SolvedCops(ref), SolvedRobber(out), max_rounds=depth + 1)
        old = play_match(g, spec, SolvedCops(ref), SolvedRobber(ref), max_rounds=depth + 1)
        assert tr.outcome is not Outcome.TIMEOUT and tr.history == old.history, (g.edges, spec)
        if tr.rounds < depth:
            assert spec.ell == 0 or spec.delayed, (g.edges, spec)
            short += 1
        games += 1
    assert games > 800 and short == 21


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
    # a blind clearing walk wins the time-delayed game in as many rounds
    with pytest.raises(ChainViolation, match="delayed > blind"):
        Profile(graph_key="x", n=3, radii=(1,), blind=1, delayed=2)
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


def _counting_games(monkeypatch) -> list[GameSpec]:
    """Record the resolved game of every number profile works out: each
    number search, and each monotone number read off a replayed capture
    win."""
    from lvcops import solver

    games = []
    search, replay = solver._cop_number, solver._monotone_number

    def counting(g, ell, variant, **kw):
        games.append(GameSpec(ell, 1, variant).resolve(g))
        return search(g, ell, variant, **kw)

    def replaying(g, ell, *args, **kw):
        games.append(GameSpec(ell, 1, Variant.MONOTONE_CAPTURE))
        return replay(g, ell, *args, **kw)

    monkeypatch.setattr(solver, "_cop_number", counting)
    monkeypatch.setattr(solver, "_monotone_number", replaying)
    return games


def test_profile_solves_each_resolved_game_once(monkeypatch):
    # C5 has diameter 2: the classical game is the capture game at radius 2,
    # and the blind game is the capture game at radius 0
    games = _counting_games(monkeypatch)
    p = profile(cycle(5), (0, 1, 2))
    assert len(games) == len(set(games)) == 10
    assert p.classical == p.capture_at[2] and p.blind == p.capture_at[0]


def test_cop_number_walks_the_open_loop_games(monkeypatch):
    # under the budget guard a seeing game, at any radius, and a capture
    # game at radius 0 are decided by the walk search; a capture game at
    # radius 1 or more and the time-delayed game by decide
    from lvcops import solver

    called = []
    for name in ("_clearing_walk", "_decide"):
        def recording(g, spec, *args, real=getattr(solver, name), name=name):
            called.append((name, spec.resolve(g)))
            return real(g, spec, *args)

        monkeypatch.setattr(solver, name, recording)
    g = cycle(6)  # diameter 3
    cases = [
        (0, Variant.SEE, "_clearing_walk"),
        (1, Variant.SEE, "_clearing_walk"),
        (2, Variant.SEE, "_clearing_walk"),
        (0, Variant.CAPTURE, "_clearing_walk"),
        (0, Variant.ZERO_VIS, "_clearing_walk"),
        (1, Variant.CAPTURE, "_decide"),
        (2, Variant.CAPTURE, "_decide"),
        (0, Variant.CLASSICAL, "_decide"),
        (0, Variant.TIME_DELAYED, "_decide"),
        (1, Variant.TIME_DELAYED, "_decide"),
    ]
    for ell, variant, name in cases:
        solved = cop_number(g, ell, variant, retrograde=True)
        called.clear()
        k = cop_number(g, ell, variant)
        assert k == solved, (ell, variant)
        want = GameSpec(ell, 1, variant).resolve(g)
        assert called == [(name, GameSpec(want.ell, i, want.variant)) for i in range(1, k + 1)], (ell, variant)


def test_profile_monotone_numbers_from_replay_or_solves(monkeypatch):
    # a replayed capture win stands in for the monotone solves where it
    # keeps to the monotone rule; where it breaks it, the monotone game is
    # solved from the capture number on
    from lvcops import solver

    solved = []
    real = solver.solve

    def counting(g, spec, **kw):
        solved.append(spec)
        return real(g, spec, **kw)

    monkeypatch.setattr(solver, "solve", counting)
    p = profile(NON_MONOTONE, (0, 1))
    assert p.capture_at == {0: 2, 1: 2} and p.monotone_at == {0: 3, 1: 2}
    assert solved == [GameSpec(0, 2, Variant.MONOTONE_CAPTURE), GameSpec(0, 3, Variant.MONOTONE_CAPTURE)]
    solved.clear()
    assert p == profile(NON_MONOTONE, (0, 1), retrograde=True)
    assert GameSpec(0, 1, Variant.MONOTONE_CAPTURE) in solved
    solved.clear()
    # below the monotone bound the monotone game is solved from 1 cop on
    budget = _states_bound(8, 2, monotone=True) - 1
    assert profile(NON_MONOTONE, (1,), budget=budget).monotone_at == {1: 2}
    assert [s for s in solved if s.monotone] == [GameSpec(1, k, Variant.MONOTONE_CAPTURE) for k in (1, 2)]
    solved.clear()
    assert profile(cycle(6), (0, 1, 2)).monotone_at == {0: 2, 1: 2, 2: 2}
    assert solved == []


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
    capture = lambda h: profile(h, (1,))
    graphs = [path(4), cycle(4), cycle(5)]
    found = search_witness(
        lambda pr: pr.capture_at[1] == 2, graphs.__getitem__, limit=3, profiler=capture
    )
    assert found.graph is not None
    assert found.graph.n == 4 and found.tried == 2
    none = search_witness(
        lambda pr: pr.capture_at[1] == 9, graphs.__getitem__, limit=2, profiler=capture
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
        [path(3), path(4), cycle(5)].__getitem__,
        limit=3,
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
