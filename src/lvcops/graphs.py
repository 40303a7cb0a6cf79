"""Immutable graphs over bit-vector vertex sets, plus the structural
recognizers the rest of the package leans on (distances, elimination
orderings, dominating sets, retractions).

Vertices are 0..n-1.  A vertex set is a plain int used as a bitmask, which
keeps the hot paths in the game engine allocation-free.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

# Distance sentinel for unreachable pairs; large enough that d <= ell style
# comparisons behave, small enough to survive arithmetic.
INF = 1 << 30

VertexSet = int  # bitmask alias, bit i set <=> vertex i in the set

# byte maps that shift a row of tree distances by one (see _tree_distances)
_PLUS_ONE = bytes(range(1, 256)) + b"\x00"
_MINUS_ONE = b"\xff" + bytes(range(255))

# the largest order a graph file or recipe may have, checked before building:
# a Graph holds an n x n distance table, and nothing here is exact at even a
# fraction of this
MAX_ORDER = 256


class InputError(ValueError):
    """Malformed user input: a graph file, a recipe or a script file."""


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
        "_tuple_tables",
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
        self.dist: tuple[tuple[int, ...], ...] = self._distances()
        self._ball_cache: dict[int, tuple[VertexSet, ...]] = {}
        self._grow_tables: tuple[list[VertexSet], ...] | None = None
        self._hash: str | None = None
        self._tuple_tables: dict = {}  # engine._tuples, per cop count

    def _distances(self) -> tuple[tuple[int, ...], ...]:
        """All-pairs distances, INF between components.

        Trees take _tree_distances; any other graph, and a tree whose
        distances need more than a byte, takes one BFS per vertex.
        """
        n = self.n
        if 1 < n <= 256 and len(self.edges) == n - 1:
            rows = self._tree_distances()
            if rows is not None:
                return rows
        return tuple(self._bfs(v) for v in range(n))

    def _tree_distances(self) -> tuple[tuple[int, ...], ...] | None:
        """All-pairs distances when the graph is a tree, else None (m = n - 1
        is assumed, so a search from vertex 0 that reaches every vertex
        proves a tree).

        In a depth-first preorder every subtree is one contiguous run, and a
        child's row is its parent's plus one, except over its own subtree,
        which is one nearer.  Rows are bytes in preorder, shifted a run at a
        time by translate tables, and read back in label order at the end.
        """
        n, adj = self.n, self.adj
        parent = [0] * n
        pre = []
        stack = [0]
        seen = 1
        while stack:
            v = stack.pop()
            pre.append(v)
            kids = adj[v] & ~seen
            seen |= kids
            while kids:
                low = kids & -kids
                u = low.bit_length() - 1
                parent[u] = v
                stack.append(u)
                kids ^= low
        if len(pre) != n:
            return None
        pos = [0] * n
        depth = [0] * n
        size = [1] * n
        for i, v in enumerate(pre):
            pos[v] = i
        for v in pre[1:]:
            depth[v] = depth[parent[v]] + 1
        for v in reversed(pre[1:]):
            size[parent[v]] += size[v]
        rows = [b""] * n
        rows[0] = bytes(map(depth.__getitem__, pre))
        for w in pre[1:]:
            a = pos[w]
            b = a + size[w]
            up = rows[parent[w]]
            rows[w] = up[:a].translate(_PLUS_ONE) + up[a:b].translate(_MINUS_ONE) + up[b:].translate(_PLUS_ONE)
        return tuple(map(operator.itemgetter(*pos), rows))

    def _bfs(self, src: int) -> tuple[int, ...]:
        """Distances from src, one frontier level at a time: the next level
        is the union of the frontier's neighbourhoods minus the vertices
        already reached."""
        adj = self.adj
        d = [INF] * self.n
        d[src] = 0
        seen = frontier = 1 << src
        level = 0
        while True:
            reach = 0
            f = frontier
            while f:
                low = f & -f
                reach |= adj[low.bit_length() - 1]
                f ^= low
            frontier = reach & ~seen
            if not frontier:
                return tuple(d)
            level += 1
            seen |= frontier
            f = frontier
            while f:
                low = f & -f
                d[low.bit_length() - 1] = level
                f ^= low

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
            t = [0]
            for c in adjc[base : base + 8]:
                t += [x | c for x in t]  # the entries with this bit set
            tables.append(t)
        return tuple(tables)

    def balls(self, r: int) -> tuple[VertexSet, ...]:
        """Closed balls of radius r around every vertex, cached."""
        r = min(max(r, 0), self.n)  # radius saturates; keeps the cache small
        got = self._ball_cache.get(r)
        if got is not None:
            return got
        if r == 1:
            self._ball_cache[1] = self.adj_closed  # the closed neighbourhoods
            return self.adj_closed
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
        """Connected with n - 1 edges; the edge count alone is not enough."""
        return len(self.edges) == self.n - 1 and self.is_connected()

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
    if g.is_tree():
        return True  # a tree has no cycle, so no chordless one
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
            # a witness u has v in N[u], so it is one of v's neighbours
            for u in bits(nv & ~(1 << v)):
                if nv & ~closed[u] == 0:
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
    if g.is_tree():
        return True  # a leaf is a corner, so a tree dismantles leaf by leaf
    return copwin_ordering(g) is not None


# -- dominating sets ------------------------------------------------------------


def k_domination_number(g: Graph, r: int) -> int:
    """Minimum size of a set whose radius-r closed balls cover the graph.

    A tree takes Slater's leaves-up greedy, exact and linear in n (P. J.
    Slater, "R-domination in graphs", J. ACM 23, 1976); any other graph
    takes the exact branch and bound of _cover_search.  Deterministic.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    if g.is_tree():
        return _tree_cover(g, r)
    return _cover_search(g, r)


def _tree_cover(g: Graph, r: int) -> int:
    """Radius-r domination number of a tree, rooted at vertex 0.

    Walks the tree in reverse BFS order keeping, per vertex, far: the
    distance to the farthest vertex below it that no centre covers yet
    (-INF when there is none), and near: the distance to the nearest centre
    below it.  When far + near <= r that centre covers them all.  Otherwise,
    when far reaches r, only a centre at this vertex can still cover the
    farthest one, and no centre covers more of what is left above it.  An
    uncovered vertex left at the root takes one more centre there.
    """
    n, adj = g.n, g.adj
    r = min(r, n)  # no distance reaches n, and INF must stay out of reach
    parent = [0] * n
    order = [0]
    seen = 1
    for v in order:  # the list grows as it is walked: a BFS order
        kids = adj[v] & ~seen
        seen |= kids
        while kids:
            low = kids & -kids
            u = low.bit_length() - 1
            parent[u] = v
            order.append(u)
            kids ^= low
    far = [0] * n
    near = [INF] * n
    centres = 0
    for v in reversed(order[1:]):
        f = far[v]
        c = near[v]
        if f + c <= r:
            f = -INF
        elif f == r:
            centres += 1
            f, c = -INF, 0
        p = parent[v]
        if f + 1 > far[p]:
            far[p] = f + 1
        if c + 1 < near[p]:
            near[p] = c + 1
    # the root counts itself as uncovered, so far[0] >= 0
    return centres + (far[0] + near[0] > r)


def _cover_search(g: Graph, r: int) -> int:
    """Minimum radius-r cover size of any graph, by exact branch and bound.

    Greedy cover for the upper bound; for the lower bound the larger of a
    quotient (uncovered count over the widest reach) and a packing
    (uncovered vertices with pairwise disjoint balls, each of which needs a
    centre of its own).  It branches over the coverers of the hardest
    uncovered vertex, which by symmetry of distance are its own ball, and
    drops a coverer whose new coverage lies inside that of an earlier kept
    one: swapping it for that one keeps any cover a cover.
    """
    ball = g.balls(r)
    full = g.full
    if max(ball, default=0) == full:
        return 1
    reach = [b.bit_count() for b in ball]

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
        widest = max((b & rest).bit_count() for b in ball)
        if size + -(-rest.bit_count() // widest) >= best:
            return
        uncovered = sorted(bits(rest), key=lambda w: (reach[w], w))
        packed = taken = 0
        for w in uncovered:
            if not ball[w] & taken:
                taken |= ball[w]
                packed += 1
        if size + packed >= best:
            return
        kept: list[int] = []
        for v in sorted(bits(ball[uncovered[0]]), key=lambda v: (-(ball[v] & rest).bit_count(), v)):
            gain = ball[v] & rest
            if any(not gain & ~k for k in kept):
                continue
            kept.append(gain)
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
    Anything malformed raises InputError.
    """
    try:
        return _load(text)
    except ValueError as exc:  # JSON syntax and Graph's own checks too
        raise InputError(str(exc)) from None


def _load(text: str) -> Graph:
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
        _check_order(n)
        return Graph(n, [tuple(e) for e in edges])
    lines = [
        (no, ln.split())
        for no, ln in enumerate(text.splitlines(), 1)
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty graph text")
    n, m = _int_pair(lines[0], "n m")
    _check_order(n)
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, got {len(lines) - 1}")
    return Graph(n, [_int_pair(line, "u v") for line in lines[1:]])


def _check_order(n: int) -> None:
    if n > MAX_ORDER:
        raise ValueError(f"graph has {n} vertices, more than {MAX_ORDER}")


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
