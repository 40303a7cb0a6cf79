"""Branching rank of trees under limited visibility, with certificates.

The rank measures how deeply a tree nests three-way branch points that
are too far apart to watch at once.  A vertex scores level k when at
least three of its outgoing directions each hold, at distance exactly
2*ell + 2, a vertex whose hanging subtree already scores level k - 1
somewhere inside it.  Every nonempty tree scores at least 1.  The rank
of the tree is the best score over all vertices, and it equals the
number of pursuers needed to clear the tree with visibility radius ell
(the solver cross-checks this on every tree it can afford).

Subtrees are passed around as vertex masks.  The hanging subtree of r
away from q is {v : dist(v, q) = dist(v, r) + dist(r, q)}, intersected
with the current mask; the intersection matters, because a nested
evaluation may look back toward the boundary of its region and must not
pick up structure outside it.  In a tree that set is the side of the
edge pr that holds r, where p is r's neighbour toward q.  Every region
is a subtree, so one that holds q and r holds the path between them:
neither that side nor q's first step toward r depends on the region.
rank therefore builds an anchor table once per call: for each fork q (a
vertex of degree at least 3), the ascending list of (anchor r, first
step from q toward r, r's side of the edge toward q) over the vertices
r at exact spacing from q.  A region reads it with one bit test per
anchor and one mask intersection per anchor it holds.  Memoisation is
keyed by the mask itself.

A rank claim is witnessed by a certificate: the scoring vertex, three
vertex-disjoint paths of exactly 2*ell + 2 edges in distinct directions,
and a child certificate one level down inside each hanging subtree.
verify_certificate replays every structural requirement from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .graphs import Graph, VertexSet, bits, metrics

__all__ = [
    "CertificateBranch",
    "RankCertificate",
    "HeightBound",
    "rank",
    "verify_certificate",
    "height_bound",
]


@dataclass(frozen=True)
class CertificateBranch:
    """One arm of a rank witness: a spacing path and the claim below it."""

    direction: int
    path: tuple[int, ...]  # vertices beyond the hub, ending at the anchor
    child: "RankCertificate"

    def to_dict(self) -> dict[str, Any]:
        return {
            "direction": self.direction,
            "path": list(self.path),
            "child": self.child.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CertificateBranch":
        return cls(
            direction=int(data["direction"]),
            path=tuple(int(v) for v in data["path"]),
            child=RankCertificate.from_dict(data["child"]),
        )


@dataclass(frozen=True)
class RankCertificate:
    """Nested witness that a tree has rank at least k.

    A rank-1 certificate is a single vertex.  A rank-k certificate names
    a hub and three branches; each branch walks exactly 2*ell + 2 edges
    away from the hub and carries a rank-(k-1) certificate whose span
    stays behind the branch's last vertex.
    """

    k: int
    ell: int
    hub: int
    branches: tuple[CertificateBranch, ...]

    def span(self) -> VertexSet:
        """Mask of every vertex the certificate touches."""
        m = 1 << self.hub
        for b in self.branches:
            for v in b.path:
                m |= 1 << v
            m |= b.child.span()
        return m

    def to_dict(self) -> dict[str, Any]:
        return {
            "k": self.k,
            "ell": self.ell,
            "hub": self.hub,
            "branches": [b.to_dict() for b in self.branches],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RankCertificate":
        return cls(
            k=int(data["k"]),
            ell=int(data["ell"]),
            hub=int(data["hub"]),
            branches=tuple(CertificateBranch.from_dict(b) for b in data["branches"]),
        )


@dataclass(frozen=True)
class HeightBound:
    """Two readings of the eccentricity bound on the rank.

    radius_reading divides the minimum eccentricity by the spacing; it
    undershoots on spiders (a 13-vertex rank-2 spider has radius 4 and
    reading 1 at ell = 1), so callers should treat it as a report only.
    diameter_reading divides the diameter instead, floors at 1, and is a
    true upper bound: a rank-k tree stretches two branch chains of
    length (k - 1) * (2*ell + 2) through the scoring vertex.
    """

    radius_reading: int
    diameter_reading: int


def _require_tree(g: Graph, ell: int) -> None:
    if not g.is_tree():
        raise ValueError("rank is defined for trees only")
    if ell < 1:
        raise ValueError("need ell >= 1")


def _edge_sides(g: Graph) -> list[list[tuple[int, VertexSet]]]:
    """For each vertex r of a tree, the pairs (p, side) over its
    neighbours p, where side is the mask of vertices on r's side of the
    edge pr, i.e. {v : dist(v, r) < dist(v, p)}.  One pass rooted at
    vertex 0 collects each subtree below an edge; the other side is its
    complement."""
    d0 = g.dist[0]
    order = sorted(range(g.n), key=d0.__getitem__)
    below = [1 << v for v in range(g.n)]
    parent = [0] * g.n
    for v in order[1:]:
        parent[v] = next(u for u in bits(g.adj[v]) if d0[u] == d0[v] - 1)
    for v in reversed(order[1:]):
        below[parent[v]] |= below[v]
    sides: list[list[tuple[int, VertexSet]]] = [[] for _ in range(g.n)]
    for v in order[1:]:
        p = parent[v]
        sides[v].append((p, below[v]))
        sides[p].append((v, g.full ^ below[v]))
    return sides


def _anchor_table(g: Graph, spacing: int) -> list[tuple[int, list[tuple[int, int, VertexSet]]]]:
    """The pairs (q, anchors) over the forks q of a tree, in ascending order
    of q.  anchors lists, in ascending order of r, the triples (r, step,
    side) over the vertices r exactly `spacing` from q: step is q's
    neighbour toward r, and side is the mask of r's side of the edge
    between r and its neighbour toward q.  A fork whose anchors lie in
    fewer than three directions can never score, so it is left out."""
    dist = g.dist
    sides = _edge_sides(g)
    full = g.full
    toward = spacing - 1
    table = []
    for q in range(g.n):
        if len(sides[q]) < 3:
            continue
        dq = dist[q]
        # r lies beyond q's neighbour u exactly when it is off q's side of qu
        beyond = [(u, full ^ side) for u, side in sides[q]]
        anchors = []
        for r, d in enumerate(dq):
            if d == spacing:
                step = next(u for u, b in beyond if (b >> r) & 1)
                side = next(s for p, s in sides[r] if dq[p] == toward)
                anchors.append((r, step, side))
        if len({step for _, step, _ in anchors}) >= 3:
            table.append((q, anchors))
    return table


def rank(g: Graph, ell: int) -> tuple[int, RankCertificate]:
    """Rank of a tree and a verifiable certificate for it.

    The recursion follows the module docstring: score each vertex of the
    current mask by the third-largest per-direction value, where a
    direction's value is the best rank of a hanging subtree anchored at
    exact spacing.  Certificates are rebuilt afterwards from the memo
    table, taking the lowest-numbered hub, directions, and anchors, so
    the output is deterministic.
    """
    _require_tree(g, ell)
    dist = g.dist
    adj = g.adj
    forks = _anchor_table(g, 2 * ell + 2)
    memo: dict[VertexSet, int] = {}

    def ranked(region: VertexSet) -> int:
        got = memo.get(region)
        if got is not None:
            return got
        best = 1
        for q, anchors in forks:
            if not (region >> q) & 1 or (adj[q] & region).bit_count() < 3:
                continue
            table: dict[int, int] = {}
            for r, step, side in anchors:
                if (region >> r) & 1:
                    sub = ranked(region & side)
                    if sub > table.get(step, 0):
                        table[step] = sub
            if len(table) >= 3:
                score = 1 + sorted(table.values(), reverse=True)[2]
                if score > best:
                    best = score
        memo[region] = best
        return best

    def tree_path(q: int, r: int) -> tuple[int, ...]:
        dr = dist[r]
        out = []
        cur = q
        while cur != r:
            for u in bits(adj[cur]):
                if dr[u] == dr[cur] - 1:
                    cur = u
                    break
            out.append(cur)
        return tuple(out)

    def build(region: VertexSet, level: int) -> RankCertificate:
        if level == 1:
            return RankCertificate(1, ell, (region & -region).bit_length() - 1, ())
        for q, anchors in forks:
            if not (region >> q) & 1 or (adj[q] & region).bit_count() < 3:
                continue
            table: dict[int, tuple[int, VertexSet]] = {}
            for r, step, side in anchors:
                if not (region >> r) & 1 or step in table:
                    continue  # keep the lowest-numbered anchor per direction
                sub = region & side
                if ranked(sub) >= level - 1:
                    table[step] = (r, sub)
            if len(table) < 3:
                continue
            branches = []
            for step in sorted(table)[:3]:
                r, sub = table[step]
                branches.append(CertificateBranch(step, tree_path(q, r), build(sub, level - 1)))
            return RankCertificate(level, ell, q, tuple(branches))
        raise AssertionError("no vertex achieves the recorded rank")

    k = ranked(g.full)
    return k, build(g.full, k)


def verify_certificate(g: Graph, cert: RankCertificate) -> bool:
    """Replay every structural requirement of a rank certificate.

    Checks, per level: the hub lies in its region; a rank-1 certificate
    has no branches; otherwise exactly three branches whose paths have
    exactly 2*ell + 2 edges, walk adjacent vertices inside the region,
    never revisit a vertex, and are pairwise disjoint; each child claims
    rank one lower and verifies inside the hanging subtree behind its
    branch's anchor.  Returns False on any violation, True otherwise.
    """
    if not g.is_tree() or cert.ell < 1 or cert.k < 1:
        return False
    spacing = 2 * cert.ell + 2
    dist = g.dist
    adj = g.adj
    n = g.n

    def ok(c: RankCertificate, region: VertexSet) -> bool:
        if c.ell != cert.ell or c.k < 1:
            return False
        if not (0 <= c.hub < n) or not (region >> c.hub) & 1:
            return False
        if c.k == 1:
            return not c.branches
        if len(c.branches) != 3:
            return False
        taken = 1 << c.hub
        for b in c.branches:
            if b.child.k != c.k - 1:
                return False
            if len(b.path) != spacing or b.direction != b.path[0]:
                return False
            prev = c.hub
            for v in b.path:
                if not (0 <= v < n) or not (region >> v) & 1:
                    return False
                if not (adj[prev] >> v) & 1 or (taken >> v) & 1:
                    return False
                taken |= 1 << v
                prev = v
            anchor = b.path[-1]
            dq = dist[c.hub]
            dr = dist[anchor]
            behind = 0
            for v in bits(region):
                if dq[v] == dr[v] + spacing:
                    behind |= 1 << v
            if not ok(b.child, behind):
                return False
        return True

    return ok(cert, g.full)


def height_bound(g: Graph, ell: int) -> HeightBound:
    """Both eccentricity readings of the rank bound for a tree."""
    _require_tree(g, ell)
    spacing = 2 * ell + 2
    met = metrics(g)
    return HeightBound(
        radius_reading=-(-met.radius // spacing),
        diameter_reading=max(1, -(-met.diameter // spacing)),
    )
