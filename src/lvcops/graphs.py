"""Immutable graphs over bit-vector vertex sets, plus the structural
recognizers the rest of the package leans on (distances, elimination
orderings, dominating sets, retractions).

Vertices are 0..n-1.  A vertex set is a plain int used as a bitmask, which
keeps the hot paths in the game engine allocation-free.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

# Distance sentinel for unreachable pairs; large enough that d <= ell style
# comparisons behave, small enough to survive arithmetic.
INF = 1 << 30

VertexSet = int  # bitmask alias, bit i set <=> vertex i in the set


def bits(mask: VertexSet):
    """Yield set bits of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices) -> VertexSet:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class OrderingKind(Enum):
    SIMPLICIAL = "simplicial"
    COPWIN = "copwin"


@dataclass(frozen=True)
class EliminationOrdering:
    """Deletion order.  order[0] is removed first.

    kind SIMPLICIAL: each vertex's neighbours among the survivors form a
    clique.  kind COPWIN: each vertex is dominated, among the survivors, by
    its witness (witnesses[i] survives longer than order[i]).
    """

    order: tuple[int, ...]
    kind: OrderingKind
    witnesses: tuple[int, ...] = ()


class Graph:
    """Finite simple graph with precomputed adjacency masks and distances."""

    __slots__ = (
        "n", "edges", "adj", "adj_closed", "dist", "_ball_cache", "_grow_tables", "_hash",
    )

    def __init__(self, n: int, edges) -> None:
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        seen: set[tuple[int, int]] = set()
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop at {u} not allowed")
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(seen))
        self.adj: tuple[VertexSet, ...] = tuple(adj)
        self.adj_closed: tuple[VertexSet, ...] = tuple(adj[v] | (1 << v) for v in range(n))
        self.dist: tuple[tuple[int, ...], ...] = tuple(self._bfs(v) for v in range(n))
        self._ball_cache: dict[int, tuple[VertexSet, ...]] = {}
        self._grow_tables: tuple[list[VertexSet], ...] | None = None
        self._hash: str | None = None

    def _bfs(self, src: int) -> tuple[int, ...]:
        d = [INF] * self.n
        d[src] = 0
        frontier = [src]
        level = 0
        while frontier:
            level += 1
            nxt = []
            for u in frontier:
                for w in bits(self.adj[u]):
                    if d[w] == INF:
                        d[w] = level
                        nxt.append(w)
            frontier = nxt
        return tuple(d)

    # -- vertex set helpers --------------------------------------------------

    @property
    def full(self) -> VertexSet:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def grow(self, mask: VertexSet) -> VertexSet:
        """Union of closed neighbourhoods over the mask (one robber step).

        Looks the mask up a byte at a time: entry b of table i is the union
        over the set bits of b of the closed neighbourhoods of 8i + bit.
        """
        tables = self._grow_tables
        if tables is None:
            tables = self._grow_tables = self._build_grow_tables()
        out = 0
        for t in tables:
            if not mask:
                break
            out |= t[mask & 255]
            mask >>= 8
        return out

    def _build_grow_tables(self) -> tuple[list[VertexSet], ...]:
        adjc = self.adj_closed
        tables = []
        for base in range(0, self.n, 8):
            t = [0] * (1 << min(8, self.n - base))
            for b in range(1, len(t)):
                t[b] = t[b & (b - 1)] | adjc[base + (b & -b).bit_length() - 1]
            tables.append(t)
        return tuple(tables)

    def balls(self, r: int) -> tuple[VertexSet, ...]:
        """Closed balls of radius r around every vertex, cached."""
        r = min(max(r, 0), self.n)  # radius saturates; keeps the cache small
        got = self._ball_cache.get(r)
        if got is not None:
            return got
        out = []
        for v in range(self.n):
            dv = self.dist[v]
            m = 0
            for w in range(self.n):
                if dv[w] <= r:
                    m |= 1 << w
            out.append(m)
        res = tuple(out)
        self._ball_cache[r] = res
        return res

    def is_connected(self) -> bool:
        return INF not in self.dist[0]

    def is_tree(self) -> bool:
        return self.is_connected() and len(self.edges) == self.n - 1

    def components(self) -> list[VertexSet]:
        rest = self.full
        out = []
        while rest:
            v = (rest & -rest).bit_length() - 1
            comp = 1 << v
            frontier = comp
            while frontier:
                nxt = self.grow(frontier) & rest & ~comp
                comp |= nxt
                frontier = nxt
            out.append(comp)
            rest &= ~comp
        return out

    def induced(self, mask: VertexSet) -> tuple["Graph", list[int]]:
        """Induced subgraph plus the old-vertex list (new label -> old)."""
        keep = list(bits(mask))
        index = {v: i for i, v in enumerate(keep)}
        es = [(index[u], index[v]) for u, v in self.edges if (mask >> u & 1) and (mask >> v & 1)]
        return Graph(len(keep), es), keep

    def key(self) -> str:
        """Stable content hash used in structured outputs."""
        if self._hash is None:
            blob = f"{self.n};" + ";".join(f"{u},{v}" for u, v in self.edges)
            self._hash = hashlib.sha256(blob.encode()).hexdigest()[:16]
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


def build_graph(n: int, edges) -> Graph:
    return Graph(n, edges)


def closed_ball(g: Graph, v: int, r: int) -> VertexSet:
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    if r < 0:
        raise ValueError("radius must be nonnegative")
    return g.balls(r)[v]


# -- metrics ------------------------------------------------------------------


@dataclass(frozen=True)
class Metrics:
    radius: int
    diameter: int
    center: tuple[int, ...]
    height: int | None  # min eccentricity, reported for trees only


def metrics(g: Graph) -> Metrics:
    if not g.is_connected():
        raise ValueError("metrics require a connected graph")
    ecc = [max(row) for row in g.dist]
    rad = min(ecc)
    diam = max(ecc)
    center = tuple(v for v in range(g.n) if ecc[v] == rad)
    return Metrics(rad, diam, center, rad if g.is_tree() else None)


# -- chordality ----------------------------------------------------------------


def chordal_peo(g: Graph) -> EliminationOrdering | None:
    """Perfect elimination ordering via maximum cardinality search.

    Returns None when the graph is not chordal (the MCS order fails the
    clique check, which is exhaustive and serves as the validator).
    """
    n = g.n
    weight = [0] * n
    picked = [False] * n
    rev: list[int] = []  # MCS visit order, v_n .. v_1 in textbook terms
    for _ in range(n):
        best = max((v for v in range(n) if not picked[v]), key=lambda v: (weight[v], -v))
        picked[best] = True
        rev.append(best)
        for w in bits(g.adj[best]):
            if not picked[w]:
                weight[w] += 1
    order = tuple(reversed(rev))
    # validate: later neighbours of each vertex must form a clique
    pos = {v: i for i, v in enumerate(order)}
    for i, v in enumerate(order):
        later = [w for w in bits(g.adj[v]) if pos[w] > i]
        for a, b in combinations(later, 2):
            if not (g.adj[a] >> b) & 1:
                return None
    return EliminationOrdering(order, OrderingKind.SIMPLICIAL)


def is_chordal(g: Graph) -> bool:
    return chordal_peo(g) is not None


# -- cop-win (dismantlable) orderings ------------------------------------------


def copwin_ordering(g: Graph) -> EliminationOrdering | None:
    """Corner elimination order, or None when the graph is not cop-win.

    A corner is a vertex whose closed neighbourhood, within the surviving
    graph, is contained in another survivor's.  Corner removal is confluent,
    so greedy lowest-vertex elimination decides dismantlability.
    """
    alive = g.full
    order: list[int] = []
    wits: list[int] = []
    closed = g.adj_closed
    while alive.bit_count() > 1:
        found = False
        for v in bits(alive):
            nv = closed[v] & alive
            for u in bits(alive & ~(1 << v)):
                if nv & ~(closed[u] & alive) == 0:
                    order.append(v)
                    wits.append(u)
                    alive &= ~(1 << v)
                    found = True
                    break
            if found:
                break
        if not found:
            return None
    order.append(alive.bit_length() - 1)
    wits.append(alive.bit_length() - 1)  # last survivor witnesses itself
    return EliminationOrdering(tuple(order), OrderingKind.COPWIN, tuple(wits))


def is_copwin(g: Graph) -> bool:
    return copwin_ordering(g) is not None


# -- dominating sets ------------------------------------------------------------


def k_domination_number(g: Graph, r: int) -> int:
    """Minimum size of a set whose radius-r closed balls cover the graph.

    Exact branch and bound: greedy cover for the upper bound, a packing
    quotient for the lower bound, branching over the coverers of the
    hardest uncovered vertex.  Deterministic.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    ball = g.balls(r)
    full = g.full
    if max(ball, default=0) == full:
        return 1
    coverers = [[] for _ in range(g.n)]
    for v in range(g.n):
        for w in bits(ball[v]):
            coverers[w].append(v)

    best = 0
    m = 0
    while m != full:
        v = max(range(g.n), key=lambda u: ((ball[u] & ~m).bit_count(), -u))
        m |= ball[v]
        best += 1

    def search(covered: int, size: int) -> None:
        nonlocal best
        if covered == full:
            best = size
            return
        rest = full & ~covered
        widest = max((ball[v] & rest).bit_count() for v in range(g.n))
        if size + -(-rest.bit_count() // widest) >= best:
            return
        u = min(bits(rest), key=lambda w: (len(coverers[w]), w))
        for v in sorted(coverers[u], key=lambda v: (-(ball[v] & rest).bit_count(), v)):
            search(covered | ball[v], size + 1)

    search(0, 0)
    return best


def domination_number(g: Graph) -> int:
    return k_domination_number(g, 1)


# -- retractions ----------------------------------------------------------------


def find_retraction(g: Graph, image: VertexSet) -> dict[int, int] | None:
    """Edge-preserving map of g onto the induced subgraph on `image`, fixing
    the image pointwise.  Adjacent vertices may map to one vertex (edges may
    collapse), matching the reflexive convention.

    Backtracking over the non-image vertices, most-constrained (largest
    degree into decided territory) first.  Returns the full vertex map or
    None when no retraction exists.  Intended for small n.
    """
    if image == 0 or image & ~g.full:
        raise ValueError("image must be a nonempty subset of the vertices")
    f: dict[int, int] = {v: v for v in bits(image)}
    todo = [v for v in range(g.n) if not (image >> v & 1)]
    img_list = list(bits(image))
    closed = g.adj_closed

    def ok(v: int, target: int) -> bool:
        for w in bits(g.adj[v]):
            if w in f and not (closed[f[w]] >> target) & 1:
                return False
        return True

    def step(i: int) -> bool:
        if i == len(todo):
            return True
        # pick the undecided vertex with the most decided neighbours
        rest = todo[i:]
        rest.sort(key=lambda v: (-sum(1 for w in bits(g.adj[v]) if w in f), v))
        todo[i:] = rest
        v = todo[i]
        for target in img_list:
            if ok(v, target):
                f[v] = target
                if step(i + 1):
                    return True
                del f[v]
        return False

    return dict(f) if step(0) else None


# -- serialization ----------------------------------------------------------------


def dump_text(g: Graph) -> str:
    lines = [f"{g.n} {len(g.edges)}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def dump_json(g: Graph) -> str:
    return json.dumps({"n": g.n, "edges": [list(e) for e in g.edges]}, sort_keys=True)


def _is_int(x) -> bool:
    return type(x) is int  # JSON true/false load as bool, a subclass of int


def load(text: str) -> Graph:
    """Parse either serialization: '<n> <m>' header plus edge lines, or a
    JSON object {"n": ..., "edges": [[u, v], ...]}.  '#' lines are ignored.
    """
    stripped = text.strip()
    if stripped.startswith("{"):
        obj = json.loads(stripped)
        n, edges = obj.get("n"), obj.get("edges")
        if not (
            _is_int(n)
            and isinstance(edges, list)
            and all(isinstance(e, list) and len(e) == 2 and all(map(_is_int, e)) for e in edges)
        ):
            raise ValueError('expected a JSON object {"n": <int>, "edges": [[<int>, <int>], ...]}')
        return Graph(n, [tuple(e) for e in edges])
    lines = [
        (no, ln.split())
        for no, ln in enumerate(text.splitlines(), 1)
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty graph text")
    n, m = _int_pair(lines[0], "n m")
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, got {len(lines) - 1}")
    return Graph(n, [_int_pair(line, "u v") for line in lines[1:]])


def _int_pair(line: tuple[int, list[str]], form: str) -> tuple[int, int]:
    """The two integer fields of a numbered text line, or a ValueError
    naming the line and the expected form."""
    no, fields = line
    if len(fields) == 2:
        try:
            return int(fields[0]), int(fields[1])
        except ValueError:
            pass
    raise ValueError(f"line {no}: expected '{form}', got {' '.join(fields)!r}")
