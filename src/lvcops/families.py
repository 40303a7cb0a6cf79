"""Deterministic graph generators: named families used throughout the test
suites and the pursuit strategies, plus seeded random trees, chordal graphs,
and dismantlable graphs.

Every generator is reproducible: the same recipe (including seed) yields the
same labelled edge list.  Structured families carry an annotation dict naming
their designated vertices; strategy builders rely on those annotations rather
than re-deriving the shape.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from enum import Enum

from .graphs import Graph


class FamilyKind(Enum):
    PATH = "path"
    CYCLE = "cycle"
    COMPLETE = "complete"
    COMPLETE_BIPARTITE = "biclique"
    SPIDER = "spider"
    T_FAMILY = "tfamily"
    SUBDIVIDED_BINARY = "subdivided"
    RANDOM_TREE = "randomtree"
    RANDOM_CHORDAL = "randomchordal"


@dataclass(frozen=True)
class FamilyRecipe:
    kind: FamilyKind
    params: tuple[tuple[str, int], ...]

    @classmethod
    def make(cls, kind: FamilyKind, **params: int) -> "FamilyRecipe":
        return cls(kind, tuple(sorted(params.items())))

    def get(self, key: str, default: int | None = None) -> int:
        for k, v in self.params:
            if k == key:
                return v
        if default is None:
            raise ValueError(f"recipe {self.kind.value} missing parameter {key!r}")
        return default


@dataclass
class GeneratedGraph:
    graph: Graph
    recipe: FamilyRecipe
    annotations: dict = field(default_factory=dict)


# -- simple families -----------------------------------------------------------


def path_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite_graph(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise ValueError("both sides need at least one vertex")
    return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def spider(legs: int, leg_length: int) -> GeneratedGraph:
    """Hub vertex 0 with `legs` disjoint paths of `leg_length` edges."""
    if legs < 1 or leg_length < 1:
        raise ValueError("spider needs legs >= 1 and leg_length >= 1")
    edges = []
    tips = []
    v = 1
    for _ in range(legs):
        prev = 0
        for _ in range(leg_length):
            edges.append((prev, v))
            prev = v
            v += 1
        tips.append(prev)
    g = Graph(v, edges)
    recipe = FamilyRecipe.make(FamilyKind.SPIDER, legs=legs, length=leg_length)
    return GeneratedGraph(g, recipe, {"hub": 0, "tips": tuple(tips)})


# -- recursive three-branch tree family ------------------------------------------


def t_family(k: int, ell: int, attach_seed: int = 0) -> GeneratedGraph:
    """Member of the three-branch recursive family of depth k.

    Rank-1 member is a single vertex.  A rank-k member joins three rank-(k-1)
    members by paths of 2*ell+2 edges from an attachment vertex of each to a
    fresh hub, labelled last.  attach_seed=0 attaches at each member's own
    hub; a nonzero seed picks attachment vertices pseudo-randomly.

    Annotations: {"hub": v, "branches": [{"path": (hub,...,attach),
    "attach": v, "member": <child annotations or None>}]}.
    """
    if k < 1 or ell < 0:
        raise ValueError("need k >= 1 and ell >= 0")
    rng = random.Random(attach_seed) if attach_seed else None

    def build(level: int) -> tuple[list[tuple[int, int]], int, dict]:
        if level == 1:
            return [], 1, {"hub": 0, "branches": []}
        edges: list[tuple[int, int]] = []
        offset = 0
        members = []
        for _ in range(3):
            sub_edges, sub_n, sub_ann = build(level - 1)
            edges.extend((u + offset, v + offset) for u, v in sub_edges)
            members.append((offset, sub_n, shift_annotations(sub_ann, offset)))
            offset += sub_n
        branches = []
        for m_off, m_n, m_ann in members:
            if rng is None:
                attach = m_ann["hub"]
            else:
                attach = m_off + rng.randrange(m_n)
            prev = attach
            interior = []
            for _ in range(2 * ell + 1):
                edges.append((prev, offset))
                interior.append(offset)
                prev = offset
                offset += 1
            branches.append({"attach": attach, "interior": interior, "member": m_ann})
        hub = offset
        for b in branches:
            edges.append((b["interior"][-1], hub))
        ann = {
            "hub": hub,
            "branches": [
                {
                    "path": (hub, *reversed(b["interior"]), b["attach"]),
                    "attach": b["attach"],
                    "member": b["member"] if b["member"]["branches"] else None,
                }
                for b in branches
            ],
        }
        return edges, offset + 1, ann

    edges, n, ann = build(k)
    g = Graph(n, edges)
    recipe = FamilyRecipe.make(FamilyKind.T_FAMILY, k=k, ell=ell, attach=attach_seed)
    return GeneratedGraph(g, recipe, ann)


def shift_annotations(ann: dict, offset: int) -> dict:
    out = {"hub": ann["hub"] + offset, "branches": []}
    for b in ann["branches"]:
        out["branches"].append(
            {
                "path": tuple(v + offset for v in b["path"]),
                "attach": b["attach"] + offset,
                "member": shift_annotations(b["member"], offset) if b["member"] else None,
            }
        )
    return out


# -- subdivided perfect binary tree ------------------------------------------------


def subdivided_binary(depth: int, subdivisions: int) -> GeneratedGraph:
    """Perfect binary tree of the given depth with every edge subdivided.

    Original nodes are labelled by their root path ("root", "L", "LR", ...).
    Annotations: {"names": {label: vertex}, "paths": {"L-LR": (u,...,v)}}
    where each path tuple runs parent to child inclusive.
    """
    if depth < 1 or subdivisions < 0:
        raise ValueError("need depth >= 1 and subdivisions >= 0")
    edges: list[tuple[int, int]] = []
    names: dict[str, int] = {}
    paths: dict[str, tuple[int, ...]] = {}
    counter = 0

    def fresh() -> int:
        nonlocal counter
        counter += 1
        return counter - 1

    def node(label: str, d: int) -> int:
        v = fresh()
        names[label] = v
        if d < depth:
            for side in ("L", "R"):
                child_label = side if label == "root" else label + side
                w = node(child_label, d + 1)
                prev = v
                seg = [v]
                for _ in range(subdivisions):
                    s = fresh()
                    edges.append((prev, s))
                    seg.append(s)
                    prev = s
                edges.append((prev, w))
                seg.append(w)
                paths[f"{label}-{child_label}"] = tuple(seg)
        return v

    node("root", 0)
    g = Graph(counter, edges)
    recipe = FamilyRecipe.make(
        FamilyKind.SUBDIVIDED_BINARY, depth=depth, subdivisions=subdivisions
    )
    return GeneratedGraph(g, recipe, {"names": names, "paths": paths})


# -- seeded random families ----------------------------------------------------------


def random_tree(n: int, seed: int) -> Graph:
    """Uniform labelled tree from a seeded Pruefer sequence."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return Graph(1, [])
    if n == 2:
        return Graph(2, [(0, 1)])
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return Graph(n, edges)


def random_chordal(n: int, seed: int, clique_bias: int = 2) -> Graph:
    """Chordal graph built by attaching each new vertex to a clique.

    Reverse insertion order is a simplicial elimination ordering, so the
    output is chordal by construction.  clique_bias nudges attachment sizes
    upward (1 = sparse, larger = denser).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(seed)
    cliques: list[list[int]] = [[0]]
    edges: list[tuple[int, int]] = []
    for v in range(1, n):
        base = cliques[rng.randrange(len(cliques))]
        size = min(len(base), 1 + rng.randrange(clique_bias + 1))
        chosen = sorted(rng.sample(base, size))
        for u in chosen:
            edges.append((u, v))
        cliques.append(chosen + [v])
    return Graph(n, edges)


def random_connected_graph(n: int, extra_edges: int, seed: int) -> Graph:
    """Random spanning tree plus extra random edges."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(seed)
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
    cap = n * (n - 1) // 2
    while len(edges) < min(cap, n - 1 + extra_edges):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def random_copwin_graph(n: int, seed: int, spread: int = 2) -> Graph:
    """Dismantlable graph grown corner-first.

    Each new vertex attaches to a witness u plus a subset of N(u), so it is
    dominated by u at insertion; reverse insertion order certifies that one
    cop suffices in the full-information game.  spread controls how much of
    N(u) is inherited (0 = trees).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = random.Random(seed)
    adj: list[set[int]] = [set() for _ in range(n)]
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        take = [w for w in sorted(adj[u]) if rng.randrange(spread + 1)]
        for w in [u] + take:
            edges.append((w, v))
            adj[w].add(v)
            adj[v].add(w)
    return Graph(n, edges)


# -- recipe dispatch -------------------------------------------------------------------


# the largest order a recipe may build, checked before building: the
# recursive families grow geometrically (tfamily:k=12,ell=1 has 1,062,877
# vertices), and nothing here is exact at even a fraction of this
MAX_ORDER = 256


def _order(recipe: FamilyRecipe) -> int:
    """The order of the graph recipe builds, or some number above MAX_ORDER
    when it is larger.  Negative sizes count as 0; the generators reject them."""

    def get(key: str) -> int:
        return max(recipe.get(key), 0)

    k = recipe.kind
    if k is FamilyKind.COMPLETE_BIPARTITE:
        return get("m") + get("n")
    if k is FamilyKind.SPIDER:
        return 1 + get("legs") * get("length")
    if k is FamilyKind.T_FAMILY:
        # rank k joins three rank k-1 members by paths of 2*ell+1 new vertices
        n = 1
        for _ in range(1, get("k")):
            n = 3 * (n + 2 * get("ell") + 1) + 1
            if n > MAX_ORDER:
                break
        return n
    if k is FamilyKind.SUBDIVIDED_BINARY:
        # depth 16 is already far over the limit; a larger one costs nothing
        nodes = 2 ** (min(get("depth"), 16) + 1) - 1
        return nodes + (nodes - 1) * get("subdivisions")
    return get("n")


def generate(recipe: FamilyRecipe) -> GeneratedGraph:
    if _order(recipe) > MAX_ORDER:
        raise ValueError(
            f"recipe {recipe_to_str(recipe)} builds more than {MAX_ORDER} vertices"
        )
    k = recipe.kind
    if k is FamilyKind.PATH:
        return GeneratedGraph(path_graph(recipe.get("n")), recipe)
    if k is FamilyKind.CYCLE:
        return GeneratedGraph(cycle_graph(recipe.get("n")), recipe)
    if k is FamilyKind.COMPLETE:
        return GeneratedGraph(complete_graph(recipe.get("n")), recipe)
    if k is FamilyKind.COMPLETE_BIPARTITE:
        return GeneratedGraph(
            complete_bipartite_graph(recipe.get("m"), recipe.get("n")), recipe
        )
    if k is FamilyKind.SPIDER:
        out = spider(recipe.get("legs"), recipe.get("length"))
        return GeneratedGraph(out.graph, recipe, out.annotations)
    if k is FamilyKind.T_FAMILY:
        out = t_family(recipe.get("k"), recipe.get("ell"), recipe.get("attach", 0))
        return GeneratedGraph(out.graph, recipe, out.annotations)
    if k is FamilyKind.SUBDIVIDED_BINARY:
        out = subdivided_binary(recipe.get("depth"), recipe.get("subdivisions"))
        return GeneratedGraph(out.graph, recipe, out.annotations)
    if k is FamilyKind.RANDOM_TREE:
        return GeneratedGraph(random_tree(recipe.get("n"), recipe.get("seed", 0)), recipe)
    if k is FamilyKind.RANDOM_CHORDAL:
        return GeneratedGraph(
            random_chordal(recipe.get("n"), recipe.get("seed", 0), recipe.get("bias", 2)),
            recipe,
        )
    raise ValueError(f"unknown family kind {k!r}")


# per family: its parameter names, and how many of them (from the front)
# may be given positionally
_PARAMS = {
    FamilyKind.PATH: (("n",), 1),
    FamilyKind.CYCLE: (("n",), 1),
    FamilyKind.COMPLETE: (("n",), 1),
    FamilyKind.COMPLETE_BIPARTITE: (("m", "n"), 2),
    FamilyKind.SPIDER: (("legs", "length"), 2),
    FamilyKind.T_FAMILY: (("k", "ell", "attach"), 0),
    FamilyKind.SUBDIVIDED_BINARY: (("depth", "subdivisions"), 2),
    FamilyKind.RANDOM_TREE: (("n", "seed"), 2),
    FamilyKind.RANDOM_CHORDAL: (("n", "seed", "bias"), 2),
}


def parse_recipe(text: str) -> FamilyRecipe:
    """Parse compact recipe strings: 'cycle:6', 'subdivided:3,3',
    'tfamily:k=2,ell=1'.  Positional and key=value arguments may mix; an
    unknown or repeated parameter name is an error.
    """
    name, _, arg_text = text.partition(":")
    try:
        kind = FamilyKind(name.strip())
    except ValueError:
        raise ValueError(f"unknown family {name!r}") from None
    args = [a.strip() for a in arg_text.split(",") if a.strip()] if arg_text else []
    names, n_positional = _PARAMS[kind]
    takes = f"{kind.value} takes {', '.join(names)}"
    params: dict[str, int] = {}
    pos = 0
    for a in args:
        if "=" in a:
            key, _, val = a.partition("=")
            key = key.strip()
        else:
            if pos >= n_positional:
                raise ValueError(f"too many positional arguments for {kind.value}; {takes}")
            key, val = names[pos], a
            pos += 1
        if key not in names:
            raise ValueError(f"unknown parameter {key!r}; {takes}")
        if key in params:
            raise ValueError(f"parameter {key!r} given twice; {takes}")
        params[key] = int(val)
    return FamilyRecipe.make(kind, **params)


def recipe_to_str(recipe: FamilyRecipe) -> str:
    return recipe.kind.value + ":" + ",".join(f"{k}={v}" for k, v in recipe.params)
