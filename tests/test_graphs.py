"""Structural layer: distances, orderings, domination, retractions, IO."""

from __future__ import annotations

import random
from itertools import combinations, product

import pytest

from lvcops.graphs import (
    INF,
    MAX_ORDER,
    Graph,
    OrderingKind,
    bits,
    _cover_search,
    chordal_peo,
    copwin_ordering,
    domination_number,
    dump_json,
    dump_text,
    find_retraction,
    is_chordal,
    is_copwin,
    k_domination_number,
    load,
    mask_of,
    metrics,
)


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def random_connected(rng: random.Random, n: int, extra: int) -> Graph:
    edges = {(min(i, j), max(i, j)) for i, j in ((v, rng.randrange(v)) for v in range(1, n))}
    while len(edges) < n - 1 + extra and len(edges) < n * (n - 1) // 2:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


# -- construction and invariants ----------------------------------------------


def test_build_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(0, [])


def test_edges_canonical():
    g = Graph(4, [(3, 1), (0, 2), (2, 1)])
    assert g.edges == ((0, 2), (1, 2), (1, 3))


def test_distances_path():
    g = path(5)
    assert g.dist[0][4] == 4
    assert g.dist[2][2] == 0
    assert all(g.dist[u][v] == g.dist[v][u] for u in range(5) for v in range(5))


def test_distance_inf_when_disconnected():
    edges = [(0, 1), (2, 3)]
    g = Graph(4, edges)
    assert g.dist[0][2] == INF
    assert not g.is_connected()
    # one distinct reachable set per component
    reached = {tuple(d != INF for d in row) for row in reference_distances(4, edges).values()}
    assert len(reached) == 2


def reference_distances(n: int, edges, sources=None) -> dict[int, list[int]]:
    """Rows of the distance table by a plain queue BFS over adjacency lists."""
    from collections import deque

    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    rows = {}
    for s in range(n) if sources is None else sources:
        want = [INF] * n
        want[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in nbrs[u]:
                if want[w] == INF:
                    want[w] = want[u] + 1
                    queue.append(w)
        rows[s] = want
    return rows


def assert_distances(n: int, edges, sources=None) -> None:
    g = Graph(n, edges)
    assert type(g.dist) is tuple and all(type(row) is tuple for row in g.dist)
    for s, want in reference_distances(n, edges, sources).items():
        assert list(g.dist[s]) == want, (n, edges, s)


def test_distances_match_adjacency_list_bfs():
    # graphs of every density, disconnected ones included
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randrange(1, 40)
        p = rng.choice((0.0, 0.05, 0.15, 0.5, 1.0))
        assert_distances(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
    for _ in range(20):
        g = random_connected(rng, rng.randrange(2, 60), rng.randrange(1, 30))
        assert_distances(g.n, g.edges)


def _random_tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A random tree on shuffled labels, so vertex 0 may sit anywhere; the
    parent is drawn from the whole tree or from the last few vertices, for
    bushy and for deep trees."""
    label = list(range(n))
    rng.shuffle(label)
    near = rng.choice((None, 1, 3))
    edges = []
    for v in range(1, n):
        u = rng.randrange(v) if near is None else rng.randrange(max(0, v - near), v)
        edges.append((label[u], label[v]))
    return edges


def test_tree_distances_match_adjacency_list_bfs():
    # trees take their rows from the parent's row, as bytes; check them
    # whole, up to the order cap, and past it, where a path's distances
    # no longer fit in a byte
    rng = random.Random(53)
    for n in (1, 2, 3, 4, 17, 64, 200, MAX_ORDER):
        for _ in range(3 if n < 100 else 1):
            assert_distances(n, _random_tree_edges(rng, n))
    for n in (2, 9, MAX_ORDER):
        assert_distances(n, [(i, i + 1) for i in range(n - 1)])  # path from an end
        assert_distances(n, [(0, n - 1)] + [(i, i + 1) for i in range(1, n - 2)])  # 0 inside
        for centre in (0, n // 2):
            assert_distances(n, [(centre, v) for v in range(n) if v != centre])  # star
    assert_distances(300, [(i, i + 1) for i in range(299)], sources=(0, 150, 299))


def test_tree_edge_count_alone_is_no_tree():
    # n - 1 edges but a cycle and an isolated vertex: every row by BFS
    assert_distances(5, [(0, 1), (1, 2), (0, 2), (3, 0)])  # vertex 4 isolated
    assert_distances(5, [(1, 2), (2, 3), (1, 3), (3, 4)])  # vertex 0 isolated
    assert_distances(4, [(0, 1), (2, 3), (1, 2)])


def test_complete_graph_at_the_order_cap_distances():
    n = MAX_ORDER
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    assert_distances(n, edges, sources=(0, 1, 77, n - 1))
    g = Graph(n, edges)
    assert all(g.dist[u][v] == (u != v) for u in range(n) for v in range(n))


def test_grow_cycle():
    g = cycle(5)
    assert g.grow(1 << 0) == mask_of([4, 0, 1])
    assert g.grow(g.full) == g.full


def test_grow_matches_naive_union():
    # the byte tables against the plain union of closed neighbourhoods,
    # across partial and full last chunks
    rng = random.Random(23)
    for n in (1, 7, 8, 9, 57, 70):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, rng.sample(pairs, min(len(pairs), 2 * n)))
        masks = [0, g.full] + [rng.getrandbits(n) for _ in range(200)]
        masks += [1 << rng.randrange(n) for _ in range(20)]
        for m in masks:
            want = 0
            for v in bits(m):
                want |= g.adj_closed[v]
            assert g.grow(m) == want, (n, m)


def test_bits_and_mask_roundtrip():
    rng = random.Random(11)
    for _ in range(50):
        vs = sorted(rng.sample(range(30), rng.randrange(1, 10)))
        assert list(bits(mask_of(vs))) == vs


def test_balls_match_distances():
    rng = random.Random(7)
    for _ in range(20):
        g = random_connected(rng, rng.randrange(2, 12), rng.randrange(0, 6))
        for r in range(4):  # radius 1 reads the closed neighbourhoods
            for v in range(g.n):
                want = mask_of(w for w in range(g.n) if g.dist[v][w] <= r)
                assert g.balls(r)[v] == want


def test_induced_subgraph():
    g = cycle(6)
    sub, old = g.induced(mask_of([0, 1, 2, 4]))
    assert old == [0, 1, 2, 4]
    assert sub.edges == ((0, 1), (1, 2))


# -- metrics -------------------------------------------------------------------


def test_metrics_path_and_cycle():
    m = metrics(path(5))
    assert (m.radius, m.diameter, m.center) == (2, 4, (2,))
    assert m.height == 2  # paths are trees
    m = metrics(cycle(6))
    assert (m.radius, m.diameter) == (3, 3)
    assert m.height is None


def test_metrics_spider():
    # three legs of length 4 glued at a hub
    edges = []
    v = 1
    for _ in range(3):
        prev = 0
        for _ in range(4):
            edges.append((prev, v))
            prev = v
            v += 1
    g = Graph(v, edges)
    m = metrics(g)
    assert m.height == 4
    assert m.diameter == 8
    assert m.center == (0,)


def test_metrics_requires_connected():
    with pytest.raises(ValueError):
        metrics(Graph(3, [(0, 1)]))


# -- chordality -----------------------------------------------------------------


def test_chordal_examples():
    assert chordal_peo(cycle(4)) is None
    assert chordal_peo(cycle(6)) is None
    assert is_chordal(path(6))
    assert is_chordal(complete(5))
    assert not is_chordal(complete_bipartite(2, 3))


def assert_valid_peo(g: Graph, peo) -> None:
    """Every vertex's later neighbours in the ordering form a clique."""
    assert peo.kind is OrderingKind.SIMPLICIAL
    assert sorted(peo.order) == list(range(g.n))
    pos = {v: i for i, v in enumerate(peo.order)}
    for i, v in enumerate(peo.order):
        later = [w for w in bits(g.adj[v]) if pos[w] > i]
        for a in later:
            for b in later:
                if a != b:
                    assert (g.adj[a] >> b) & 1


def test_peo_is_valid():
    """Every reported ordering satisfies the later-neighbours-clique rule."""
    rng = random.Random(23)
    found = 0
    for _ in range(60):
        g = random_connected(rng, rng.randrange(2, 10), rng.randrange(0, 8))
        peo = chordal_peo(g)
        if peo is None:
            continue
        found += 1
        assert_valid_peo(g, peo)
    assert found > 5  # trees alone guarantee hits


def chordal_by_elimination(n: int, edges) -> bool:
    """A graph is chordal exactly when deleting simplicial vertices (whose
    neighbours are pairwise adjacent) one at a time empties it (Fulkerson
    and Gross, 1965).  Every chordal graph has a simplicial vertex and its
    induced subgraphs are chordal, so any order of deletion decides it."""
    nbrs = {v: set() for v in range(n)}
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    while nbrs:
        simplicial = next(
            (v for v, ns in nbrs.items() if all(b in nbrs[a] for a in ns for b in ns if a != b)),
            None,
        )
        if simplicial is None:
            return False
        for w in nbrs.pop(simplicial):
            nbrs[w].discard(simplicial)
    return True


def _connected_labelled_graphs(n: int):
    pairs = list(combinations(range(n), 2))
    for pick in range(1 << len(pairs)):
        edges = [e for i, e in enumerate(pairs) if pick >> i & 1]
        g = Graph(n, edges)
        if g.is_connected():
            yield g


def test_trees_are_chordal():
    rng = random.Random(5)
    for _ in range(25):
        g = random_connected(rng, rng.randrange(2, 14), 0)
        assert is_chordal(g)


def test_chordality_matches_simplicial_elimination():
    graphs = [g for n in range(1, 6) for g in _connected_labelled_graphs(n)]
    assert len(graphs) == 772  # 1 + 1 + 4 + 38 + 728 connected labelled graphs
    rng = random.Random(41)
    graphs += [random_connected(rng, rng.randrange(3, 13), rng.randrange(1, 12)) for _ in range(300)]
    assert all(len(g.edges) >= g.n for g in graphs[772:])  # each has a cycle
    graphs.append(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0)]))  # m = n - 1, but no tree
    verdicts = set()
    for g in graphs:
        want = chordal_by_elimination(g.n, g.edges)
        assert is_chordal(g) == want, (g.n, g.edges)
        verdicts.add(want)
    assert verdicts == {True, False}
    # trees answer without an ordering; the ordering itself still exists
    for n in (2, 3, 7, 30, 100, MAX_ORDER):
        for _ in range(3 if n < 100 else 1):
            g = Graph(n, _random_tree_edges(rng, n))
            assert is_chordal(g) and chordal_by_elimination(g.n, g.edges)
            assert_valid_peo(g, chordal_peo(g))


# -- dismantlability --------------------------------------------------------------


def test_copwin_classics():
    assert is_copwin(path(7))
    assert is_copwin(complete(4))
    assert not is_copwin(cycle(4))
    assert not is_copwin(cycle(7))


def test_k23_has_no_corner_at_all():
    # direct scan: no vertex of K_{2,3} is dominated by another, so the
    # elimination cannot even start
    g = complete_bipartite(2, 3)
    for v in range(g.n):
        for u in range(g.n):
            if u != v:
                assert g.adj_closed[v] & ~g.adj_closed[u]
    assert copwin_ordering(g) is None


def reference_copwin_ordering(g: Graph):
    """The corner search over every survivor, not only the corner's
    neighbours: (order, witnesses), or None when a survivor set has no
    corner."""
    alive = g.full
    order, wits = [], []
    closed = g.adj_closed
    while alive.bit_count() > 1:
        for v in range(g.n):
            if not alive >> v & 1:
                continue
            nv = closed[v] & alive
            u = next(
                (u for u in range(g.n)
                 if u != v and alive >> u & 1 and nv & ~(closed[u] & alive) == 0),
                None,
            )
            if u is not None:
                order.append(v)
                wits.append(u)
                alive &= ~(1 << v)
                break
        else:
            return None
    last = alive.bit_length() - 1
    return tuple(order) + (last,), tuple(wits) + (last,)


def assert_copwin_ordering(g: Graph) -> bool:
    eo = copwin_ordering(g)
    want = reference_copwin_ordering(g)
    assert (eo if eo is None else (eo.order, eo.witnesses)) == want, g.edges
    return eo is not None


def test_copwin_ordering_matches_all_survivor_search_on_small_graphs():
    outcomes = []
    for n in range(1, 6):
        pairs = list(combinations(range(n), 2))
        for sel in range(1 << len(pairs)):
            g = Graph(n, [pairs[i] for i in range(len(pairs)) if sel >> i & 1])
            if g.is_connected():
                outcomes.append(assert_copwin_ordering(g))
    assert len(outcomes) == 772 and set(outcomes) == {True, False}


def test_copwin_ordering_matches_all_survivor_search_on_random_graphs():
    from lvcops.families import random_copwin_graph

    rng = random.Random(61)
    wins = losses = 0
    for i in range(120):
        if i % 2:
            g = random_copwin_graph(rng.randrange(2, 40), seed=i, spread=rng.randrange(0, 4))
        else:
            g = random_connected(rng, rng.randrange(4, 30), rng.randrange(1, 25))
        if assert_copwin_ordering(g):
            wins += 1
        else:
            losses += 1
    assert wins >= 60 and losses > 10


def test_copwin_witnesses_check_out():
    rng = random.Random(41)
    seen = 0
    for _ in range(60):
        g = random_connected(rng, rng.randrange(1, 10), rng.randrange(0, 6))
        eo = copwin_ordering(g)
        if eo is None:
            continue
        seen += 1
        assert eo.kind is OrderingKind.COPWIN
        alive = g.full
        for v, w in zip(eo.order[:-1], eo.witnesses[:-1]):
            assert w != v and (alive >> w) & 1
            assert g.adj_closed[v] & alive & ~(g.adj_closed[w] & alive) == 0
            alive &= ~(1 << v)
        assert eo.order[-1] == eo.witnesses[-1]
    assert seen > 5


def test_chordal_implies_copwin():
    rng = random.Random(97)
    for _ in range(40):
        g = random_connected(rng, rng.randrange(1, 11), rng.randrange(0, 9))
        if is_chordal(g):
            assert is_copwin(g)


# -- domination ---------------------------------------------------------------------


def test_domination_values():
    assert domination_number(complete(6)) == 1
    assert domination_number(path(4)) == 2
    assert domination_number(cycle(6)) == 2
    assert domination_number(complete_bipartite(2, 3)) == 2
    assert k_domination_number(path(9), 2) == 2
    assert k_domination_number(path(9), 4) == 1
    assert k_domination_number(cycle(9), 1) == 3


def test_domination_brute_agreement():
    """Cross-check the search against a no-ordering-tricks subset scan."""
    from itertools import combinations

    rng = random.Random(3)
    for _ in range(100):
        g = random_connected(rng, rng.randrange(2, 10), rng.randrange(0, 8))
        r = rng.randrange(0, 4)
        ball = g.balls(r)
        best = g.n
        for size in range(1, g.n + 1):
            done = False
            for combo in combinations(range(g.n), size):
                m = 0
                for v in combo:
                    m |= ball[v]
                if m == g.full:
                    best = size
                    done = True
                    break
            if done:
                break
        assert k_domination_number(g, r) == best, (g.n, g.edges, r)


def slater_tree_domination(g: Graph, r: int) -> int:
    """Slater's greedy for radius-r domination of a tree: root it, take the
    deepest vertex not yet covered, put a centre at its r-th ancestor (or at
    the root), and repeat."""
    depth = g.dist[0]
    parent = [0] * g.n
    for v in range(1, g.n):
        parent[v] = next(u for u in bits(g.adj[v]) if depth[u] == depth[v] - 1)
    covered = [False] * g.n
    centres = 0
    for v in sorted(range(g.n), key=lambda v: -depth[v]):
        if covered[v]:
            continue
        c = v
        for _ in range(r):
            c = parent[c]
        centres += 1
        for w in range(g.n):
            if g.dist[c][w] <= r:
                covered[w] = True
    return centres


def prufer_trees(n: int):
    """Every labelled tree on n vertices, one per Prüfer sequence."""
    if n == 1:
        yield Graph(1, [])
        return
    for seq in product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        edges = []
        for v in seq:
            leaf = degree.index(1)  # the smallest leaf left
            edges.append((leaf, v))
            degree[leaf] -= 1
            degree[v] -= 1
        edges.append(tuple(v for v in range(n) if degree[v] == 1))
        yield Graph(n, edges)


def assert_tree_paths(g: Graph, radii, oracles) -> None:
    """The tree answers of is_copwin and k_domination_number against the
    corner search and the given domination oracles."""
    assert g.is_tree() and is_copwin(g) and copwin_ordering(g) is not None, g.edges
    for r in radii:
        got = k_domination_number(g, r)
        for oracle in oracles:
            assert got == oracle(g, r), (g.n, g.edges, r, oracle.__name__)


def test_tree_paths_match_oracles_on_every_small_labelled_tree():
    trees = [g for n in range(1, 7) for g in prufer_trees(n)]
    assert len(trees) == 1442 and len({(g.n, g.edges) for g in trees}) == 1442
    for g in trees:
        assert_tree_paths(g, range(4), (_cover_search, slater_tree_domination))


def test_tree_domination_matches_greedy():
    # bushy trees (uniform parent) and stringy ones (parent among the last
    # few vertices), up to the order cap
    rng = random.Random(31)
    for i in range(45):
        n = rng.randrange(2, 257)
        span = n if i % 2 else 4
        g = Graph(n, [(v, rng.randrange(max(0, v - span), v)) for v in range(1, n)])
        assert_tree_paths(g, (0, 1, 2, 3), (_cover_search, slater_tree_domination))


def test_tree_paths_skip_near_misses():
    # a triangle plus an isolated vertex has n - 1 edges but is no tree
    g = Graph(4, [(0, 1), (1, 2), (0, 2)])
    assert not g.is_tree() and not is_copwin(g) and is_chordal(g)
    assert [k_domination_number(g, r) for r in range(4)] == [4, 2, 2, 2]
    for g, want in ((Graph(1, []), [1, 1, 1, 1]), (path(2), [2, 1, 1, 1])):
        assert g.is_tree() and is_copwin(g) and is_chordal(g)
        assert [k_domination_number(g, r) for r in range(4)] == want
        assert [_cover_search(g, r) for r in range(4)] == want


def test_domination_scales_past_subset_enumeration():
    """Orders in the dozens must resolve in seconds, not lifetimes."""
    from lvcops.families import generate, parse_recipe

    assert k_domination_number(path(70), 1) == 24
    assert k_domination_number(cycle(63), 2) == 13
    g = generate(parse_recipe("subdivided:3,3")).graph
    assert k_domination_number(g, 1) == 19
    assert k_domination_number(g, 2) == 13


# -- retractions ----------------------------------------------------------------------


def test_retract_cycle_onto_path():
    g = cycle(6)
    f = find_retraction(g, mask_of([0, 1, 2, 3]))
    assert f is not None
    for v in bits(mask_of([0, 1, 2, 3])):
        assert f[v] == v
    for u, v in g.edges:
        assert f[u] == f[v] or (g.adj[f[u]] >> f[v]) & 1


def test_retract_c4_onto_p3():
    f = find_retraction(cycle(4), mask_of([0, 1, 2]))
    assert f == {0: 0, 1: 1, 2: 2, 3: 1}


def test_retract_impossible():
    # both neighbours of 1 are pinned to opposite isolated images
    assert find_retraction(cycle(4), mask_of([0, 2])) is None


def test_retract_whole_graph_identity():
    g = path(5)
    f = find_retraction(g, g.full)
    assert f == {v: v for v in range(5)}


def test_retract_rejects_bad_image():
    with pytest.raises(ValueError):
        find_retraction(path(3), 0)
    with pytest.raises(ValueError):
        find_retraction(path(3), 1 << 5)


def test_retract_maps_are_homomorphisms():
    rng = random.Random(59)
    for _ in range(30):
        g = random_connected(rng, rng.randrange(2, 9), rng.randrange(0, 6))
        img = mask_of(rng.sample(range(g.n), rng.randrange(1, g.n + 1)))
        f = find_retraction(g, img)
        if f is None:
            continue
        assert set(f) == set(range(g.n))
        for v in bits(img):
            assert f[v] == v
        for u, v in g.edges:
            assert f[u] == f[v] or (g.adj[f[u]] >> f[v]) & 1
        assert all((img >> f[v]) & 1 for v in range(g.n))


# -- serialization -----------------------------------------------------------------------


def test_text_roundtrip():
    g = cycle(5)
    assert load(dump_text(g)).edges == g.edges


def test_text_comments_and_blanks():
    g = load("# a square\n\n4 4\n0 1\n1 2\n2 3\n# wrap\n3 0\n")
    assert g.n == 4 and len(g.edges) == 4


def test_text_header_mismatch():
    with pytest.raises(ValueError):
        load("3 2\n0 1\n")


def test_json_roundtrip():
    g = complete_bipartite(2, 3)
    h = load(dump_json(g))
    assert (h.n, h.edges) == (g.n, g.edges)


def test_load_accepts_the_order_cap():
    assert load(f'{{"n": {MAX_ORDER}, "edges": []}}').n == MAX_ORDER
    assert load(f"{MAX_ORDER} 1\n0 {MAX_ORDER - 1}\n").n == MAX_ORDER


def test_key_stable_and_label_sensitive():
    g = cycle(4)
    assert g.key() == Graph(4, [(1, 0), (2, 1), (3, 2), (0, 3)]).key()
    assert g.key() != path(4).key()
