"""Acceptance gate: twelve numbered criteria, one test and one summary line
each.

The summary lines are collected by conftest and printed as a closing
section, so a plain `pytest -v` run shows a single pass/fail line per
criterion.  Criteria 1, 3 and 4 are driven through the command line in
structured mode; criterion 12 replays those exact invocations under other
worker counts and byte-compares the outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from itertools import combinations

from conftest import record

from lvcops.cli import main
from lvcops.engine import GameSpec, Outcome, Variant, play_match, simulate_script
from lvcops.families import (
    complete_graph,
    generate,
    parse_recipe,
    random_chordal,
    random_connected_graph,
)
from lvcops.graphs import (
    Graph,
    bits,
    domination_number,
    find_retraction,
    metrics,
)
from lvcops.solver import (
    BudgetExceeded,
    ChainViolation,
    SolvedRobber,
    Winner,
    cop_number,
    profile,
    solve,
)
from lvcops.strategies import chordal_pursuit, t_ell_scripts

# worker-1 structured outputs, keyed by invocation; criterion 12 replays these
_WORKER1: dict[tuple[str, ...], str] = {}


def _cli(argv: list[str], workers: int | None = None) -> tuple[int, str]:
    full = list(argv) + ["--format", "structured"]
    if workers is not None:
        full += ["--workers", str(workers)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(full)
    return code, buf.getvalue()


def _run1(argv: list[str]) -> dict:
    key = tuple(argv)
    if key not in _WORKER1:
        code, out = _cli(argv)
        assert code == 0, f"{argv} exited {code}"
        _WORKER1[key] = out
    return json.loads(_WORKER1[key])


class PinnedRobber:
    """Adversary forced to start on a chosen vertex; inner policy afterwards."""

    def __init__(self, inner, start):
        self.inner = inner
        self.start = start

    def place(self, g, spec, cops):
        return self.start

    def move(self, g, spec, state, robber):
        return self.inner.move(g, spec, state, robber)


def _induced(g: Graph, keep: list[int]) -> Graph:
    idx = {v: i for i, v in enumerate(keep)}
    edges = [(idx[u], idx[v]) for u, v in g.edges if u in idx and v in idx]
    return Graph(len(keep), edges)


def _components(g: Graph, banned: int) -> list[list[int]]:
    seen: set[int] = set()
    comps = []
    for s in range(g.n):
        if (banned >> s) & 1 or s in seen:
            continue
        comp, stack = [s], [s]
        seen.add(s)
        while stack:
            u = stack.pop()
            for w in bits(g.adj[u] & ~banned):
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def test_criterion_01_small_family_game_numbers():
    viol = []
    checked = 0

    def check(recipe, ell, variant, want):
        nonlocal checked
        argv = ["solve", "--recipe", recipe, "--ell", str(ell)]
        if variant:
            argv += ["--variant", variant]
        got = _run1(argv)["results"]["number"]
        checked += 1
        if got != want:
            viol.append((recipe, ell, variant or "capture", want, got))

    for ell in (1, 2):
        for n in range(1, 11):
            check(f"path:{n}", ell, None, 1)
            check(f"path:{n}", ell, "see", 1)
            check(f"complete:{n}", ell, None, 1)
            check(f"complete:{n}", ell, "see", 1)
        for n in range(4, 11):
            check(f"cycle:{n}", ell, None, 2)
            check(f"cycle:{n}", ell, "see", 2 if n >= 2 * ell + 3 else 1)
        for m in range(2, 6):
            for n in range(m, 6):
                check(f"biclique:{m},{n}", ell, None, 2)
                check(f"biclique:{m},{n}", ell, "see", 1)
    record(1, not viol, f"path/cycle/complete/bipartite table exact on {checked} values")
    assert not viol, viol[:5]


def test_criterion_02_blind_capture_on_cliques():
    viol = [
        (n, got)
        for n in range(1, 7)
        if (got := cop_number(complete_graph(n), 0)) != -(-n // 2)
    ]
    record(2, not viol, "blind capture number on cliques is ceil(n/2) for n <= 6")
    assert not viol, viol


def test_criterion_03_thirteen_vertex_spider():
    recipe = "tfamily:k=2,ell=1"
    searched = _run1(["solve", "--recipe", recipe, "--ell", "1"])
    single = _run1(["solve", "--recipe", recipe, "--ell", "1", "--cops", "1"])
    verified = _run1(["verify", "--recipe", recipe, "--script", "tfamily", "--ell", "1"])
    rep = verified["results"]["report"]
    ok = (
        searched["graph"]["n"] == 13
        and searched["results"]["number"] == 2
        and single["results"]["winner"] == "robber"
        and verified["results"]["script"]["cops"] == 2
        and rep["cleaned_at"] is not None
    )
    record(3, ok, "13-vertex spider: capture number 2, script verifies, one cop loses")
    assert ok, (searched["results"], single["results"]["winner"], rep["cleaned_at"])


def test_criterion_04_tree_rank_matches_solver():
    viol = []
    for seed in range(100):
        n = 5 + (seed % 10)
        recipe = f"randomtree:n={n},seed={seed}"
        for ell in (1, 2):
            number = _run1(["solve", "--recipe", recipe, "--ell", str(ell)])["results"]["number"]
            ranked = _run1(["rank", "--recipe", recipe, "--ell", str(ell)])["results"]
            bound = ranked["height_bound"]["radius_reading"]
            if number != ranked["rank"] or ranked["rank"] > bound or not ranked["verified"]:
                viol.append((recipe, ell, number, ranked["rank"], bound))
    record(4, not viol, "100 random trees x 2 radii: solver == rank <= rooted-height bound")
    assert not viol, viol[:5]


def test_criterion_05_chordal_seeing_equals_capture_with_pursuit():
    viol = []
    matches = 0
    for seed in range(50):
        g = random_chordal(6 + (seed % 5), seed)
        for ell in (1, 2):
            capture = cop_number(g, ell)
            seeing = cop_number(g, ell, Variant.SEE)
            if capture != seeing:
                viol.append(("numbers", seed, ell, capture, seeing))
                continue
            spec = GameSpec(ell, 1, Variant.CAPTURE)
            base = solve(g, spec)
            if base.winner is not Winner.COPS:
                viol.append(("one-cop", seed, ell))
                continue
            robber = SolvedRobber(base)
            for c in range(g.n):
                for r in range(g.n):
                    if r == c or g.dist[c][r] > ell:
                        continue
                    tr = play_match(g, spec, chordal_pursuit(g, ell, c, r), PinnedRobber(robber, r))
                    matches += 1
                    if tr.outcome is not Outcome.CAPTURED:
                        viol.append(("pursuit", seed, ell, c, r))
    record(5, not viol, f"50 chordal graphs: seeing == capture; pursuit won all {matches} first-sight matches")
    assert not viol, viol[:5]


def test_criterion_06_monotone_gap_on_the_57_vertex_tree():
    member = generate(parse_recipe("subdivided:3,3"))
    g = member.graph
    assert g.n == 57
    junction = member.annotations["names"]["LR"]
    scripts = t_ell_scripts(member)

    two = simulate_script(g, GameSpec(1, 2, Variant.SEE), scripts["two_cop"])
    ok_two = (
        two.cleaned_at is not None
        and two.monotone is False
        and junction in {v for _, v in two.recontaminations}
    )
    three = simulate_script(g, GameSpec(1, 3, Variant.SEE), scripts["three_cop_monotone"])
    ok_three = three.cleaned_at is not None and three.monotone is True

    # the exact monotone cop number is out of desk-scale reach: the attempt
    # must stop at its state budget (after settling two cops lose), never guess
    try:
        cop_number(g, 1, Variant.MONOTONE_CAPTURE, budget=1_000_000)
        ok_attempt = False
        partial = {}
    except BudgetExceeded as exc:
        partial = exc.partial
        ok_attempt = partial.get("k") == 3

    substitute = solve(g, GameSpec(1, 2, Variant.MONOTONE_CAPTURE), budget=10_000_000)
    ok_substitute = substitute.winner is Winner.ROBBER

    ok = ok_two and ok_three and ok_attempt and ok_substitute
    record(
        6,
        ok,
        "57-vertex tree: 2-cop clean readmits the junction, 3-cop clean is monotone, "
        "exact monotone number stops inconclusive, exhaustive 2-cop search finds no monotone win",
    )
    assert ok, (ok_two, ok_three, ok_attempt, partial, ok_substitute and substitute.winner)


def test_criterion_07_seeing_capture_or_near_classical_at_radius_two():
    viol = []
    for seed in range(100):
        n = 5 + (seed % 4)
        g = random_connected_graph(n, (seed * 7) % (n + 2), seed)
        classical = cop_number(g, 0, Variant.CLASSICAL)
        capture2 = cop_number(g, 2)
        seeing2 = cop_number(g, 2, Variant.SEE)
        if not (seeing2 == capture2 or classical <= capture2 <= classical + 1):
            viol.append((seed, n, classical, capture2, seeing2))
    record(7, not viol, "100 connected graphs at radius 2: seeing == capture or capture within 1 of classical")
    assert not viol, viol[:5]


def test_criterion_08_inequality_chains_and_cut_vertex_bound():
    viol = []
    cut_checks = 0
    for seed in range(200):
        n = 5 + (seed % 5)
        g = random_connected_graph(n, (seed * 3) % (n + 3), seed)
        rad = metrics(g).radius
        radii = tuple(range(1, max(rad, 2) + 1))
        try:
            p = profile(g, radii, parts=("classical", "blind", "capture", "see", "domination"))
        except ChainViolation as exc:
            viol.append((seed, "chain", str(exc)))
            continue
        see, cap, dom = p.see_at, p.capture_at, p.domination_at
        if any(see[r] > cap[r] for r in radii) or any(see[r] > dom[r] for r in radii):
            viol.append((seed, "seeing chain", see, cap, dom))
        if not (p.blind >= cap[1] >= cap[2] >= p.classical):
            viol.append((seed, "capture chain", p.blind, cap, p.classical))
        if any(see[radii[i]] < see[radii[i + 1]] for i in range(len(radii) - 1)) or see[rad] != 1:
            viol.append((seed, "seeing monotone", see, rad))
        for v in range(g.n):
            if g.n < 3 or len(_components(g, 1 << v)) < 2:
                continue
            for ell in (1, 2):
                comps = _components(g, g.balls(ell)[v])
                if not comps:
                    continue
                bound = 1 + max(cop_number(_induced(g, comp), ell) for comp in comps)
                cut_checks += 1
                if cap[ell] > bound:
                    viol.append((seed, "cut vertex", v, ell, cap[ell], bound))
    record(8, not viol, f"200 connected graphs: chains hold; cut-vertex bound held in {cut_checks} checks")
    assert not viol, viol[:5]


def test_criterion_09_seeing_capture_gap_witness():
    code, out = _cli(["witness", "--ell", "1", "--max-n", "8", "--limit", "100000", "--seed", "0"])
    env = json.loads(out)
    res = env["results"]
    ok = (
        code == 0
        and res["found"] is True
        and res["tried"] <= 100_000
        and res["profile"]["classical"] == 1
        and res["profile"]["see_at"]["1"] == 1
        and res["profile"]["capture_at"]["1"] == 2
    )
    detail = (
        f"cop-win gap witness (n={res['witness']['n']}) after {res['tried']} candidates"
        if res["found"]
        else f"no witness within {res['tried']} candidates"
    )
    record(9, ok, detail)
    assert ok, res


def _folded_pair(seed: int) -> tuple[Graph, Graph] | None:
    """Grow G from a base H by attaching vertices inside closed neighborhoods,
    so H is a retract of G; returns the pair when find_retraction agrees."""
    rng = random.Random(seed)
    m = rng.randrange(4, 8)
    h = random_connected_graph(m, rng.randrange(0, m), seed)
    edges = list(h.edges)
    n = m
    for _ in range(rng.randrange(1, 3)):
        w = rng.randrange(m)
        inherit = [x for x in bits(h.adj[w]) if rng.random() < 0.5]
        for x in [w] + inherit:
            edges.append((x, n))
        n += 1
    g = Graph(n, edges)
    return (g, h) if find_retraction(g, (1 << m) - 1) is not None else None


def test_criterion_10_retracts_never_need_more_cops():
    viol = []
    pairs = 0
    seed = 0
    while pairs < 20 and seed < 100:
        seed += 1
        pair = _folded_pair(seed)
        if pair is None:
            continue
        g, h = pair
        pairs += 1
        for ell in (1, 2):
            for variant in (Variant.CAPTURE, Variant.SEE):
                if cop_number(h, ell, variant) > cop_number(g, ell, variant):
                    viol.append((seed, ell, variant.value))
    record(10, not viol and pairs >= 20, f"{pairs} retract pairs: image never needs more cops, either variant")
    assert not viol and pairs >= 20, (pairs, viol[:5])


def test_criterion_11_time_delay_never_beats_full_information():
    viol = []
    flagged = 0
    total = 0
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for sel in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (sel >> i) & 1]
            g = Graph(n, edges)
            if not g.is_connected():
                continue
            total += 1
            classical = cop_number(g, 0, Variant.CLASSICAL)
            delayed = cop_number(g, 0, Variant.TIME_DELAYED)
            if classical > delayed:
                viol.append((n, sel, classical, delayed))
            if delayed > domination_number(g):
                flagged += 1
    record(
        11,
        not viol,
        f"all {total} labeled connected graphs n<=5: classical <= delayed; "
        f"{flagged} open-question flags (delayed exceeds domination)",
    )
    assert not viol, viol[:5]


def test_criterion_12_worker_count_determinism():
    assert _WORKER1, "criteria 1, 3 and 4 populate the invocation cache"
    # criterion 9's witness, 269 candidates into stream seed 14000: the one
    # command that screens in worker processes
    _run1(["witness", "--ell", "1", "--max-n", "8", "--seed", "14000", "--limit", "400"])
    diffs = []
    for key, first in sorted(_WORKER1.items()):
        argv = list(key)
        threaded = argv[0] in ("solve", "profile", "simulate", "witness")
        for workers in (2, 3) if threaded else (None,):
            _, again = _cli(argv, workers=workers)
            if again != first:
                diffs.append((argv, workers))
    record(12, not diffs, f"{len(_WORKER1)} structured invocations byte-identical across worker counts")
    assert not diffs, diffs[:5]
