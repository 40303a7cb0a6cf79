"""Constructive pursuit strategies: cleaning scripts and online policies.

Scripts are offline artifacts: fixed per-cop walks whose guarantees the
engine re-checks by worst-case territory simulation (`simulate_script`).
The builders here emit the classic tree patterns: a cop vibrating across a
cut edge so the cut vertex falls inside some visibility ball at least every
second round, which stops any unseen crossing, while the remaining cops
clean one hanging subtree at a time.

Policies are online `engine.CopPolicy` objects for `play_match`: they react
to the referee's belief state and read nothing else.  `chordal_pursuit`
closes in once the evader has been seen; `shadow_capture` composes a seeing
phase, a tracking cop that keeps the evader permanently visible, and a
full-information squad that finishes the capture.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import (
    INV,
    VIS,
    BeliefState,
    CopPolicy,
    GameSpec,
    Script,
    Variant,
    _match_step,
    cop_turn,
    initial_branches,
    robber_turn,
)
from .families import FamilyKind, GeneratedGraph
from .graphs import Graph, bits, chordal_peo, metrics
from .solver import SolveOutcome, SolvedCops, _least_winning
from .treerank import rank


class UnsupportedStrategyError(ValueError):
    """The input falls outside the hypotheses the construction needs."""


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# -- rooted-tree bookkeeping ----------------------------------------------------------


@dataclass(frozen=True)
class _Rooted:
    """Parent/children/depth tables for a tree hung from a chosen root."""

    root: int
    parent: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    depth: tuple[int, ...]
    height: tuple[int, ...]


def _hang(g: Graph, root: int) -> _Rooted:
    n = g.n
    parent = [-1] * n
    depth = [0] * n
    order = [root]
    seen = 1 << root
    for v in order:
        for u in bits(g.adj[v] & ~seen):
            seen |= 1 << u
            parent[u] = v
            depth[u] = depth[v] + 1
            order.append(u)
    children = [[] for _ in range(n)]
    for v in order[1:]:
        children[parent[v]].append(v)
    height = [0] * n
    for v in reversed(order):
        for c in children[v]:
            height[v] = max(height[v], height[c] + 1)
    return _Rooted(
        root,
        tuple(parent),
        tuple(tuple(sorted(c)) for c in children),
        tuple(depth),
        tuple(height),
    )


def _descendants_at(rt: _Rooted, v: int, gap: int) -> list[int]:
    """Vertices exactly `gap` levels below v inside v's subtree."""
    layer = [v]
    for _ in range(gap):
        layer = [c for w in layer for c in rt.children[w]]
    return sorted(layer)


def _subtree_vertices(rt: _Rooted, v: int) -> list[int]:
    out = [v]
    for w in out:
        out.extend(rt.children[w])
    return out


def _tree_route(rt: _Rooted, frm: int, to: int) -> list[int]:
    """Steps of the tree path from frm to to, excluding frm: up from both
    ends to their lowest common ancestor."""
    parent, depth = rt.parent, rt.depth
    up: list[int] = []
    down: list[int] = []
    while depth[frm] > depth[to]:
        frm = parent[frm]
        up.append(frm)
    while depth[to] > depth[frm]:
        down.append(to)
        to = parent[to]
    while frm != to:
        frm = parent[frm]
        up.append(frm)
        down.append(to)
        to = parent[to]
    return up + down[::-1]


def _route(g: Graph, frm: int, to: int) -> list[int]:
    """Steps of a lowest-vertex geodesic from frm to to, excluding frm."""
    steps = []
    cur = frm
    while cur != to:
        d = g.dist[cur][to]
        cur = min(u for u in bits(g.adj[cur]) if g.dist[u][to] == d - 1)
        steps.append(cur)
    return steps


# -- script assembly ------------------------------------------------------------------


class _Walks:
    """Round-aligned per-cop walk accumulator.

    A block moves some cops simultaneously; everyone else holds position,
    except cops with an active background cycle, who keep stepping around
    it.  Background cycles keep a vibration alive while other cops execute
    arbitrarily long errands.
    """

    def __init__(self, placement: list[int]) -> None:
        self.rows: list[list[int]] = [[p] for p in placement]
        self._bg: dict[int, tuple[int, int]] = {}

    def pos(self, c: int) -> int:
        return self.rows[c][-1]

    def set_background(self, c: int, a: int, b: int) -> None:
        self._bg[c] = (a, b)

    def clear_background(self, c: int) -> None:
        self._bg.pop(c, None)

    def block(self, moves: dict[int, list[int]]) -> None:
        span = max(map(len, moves.values()), default=0)
        for c, row in enumerate(self.rows):
            seq = moves.get(c, ())
            row.extend(seq)
            short = span - len(seq)
            if short <= 0:
                continue
            cur = row[-1]
            if c in self._bg and c not in moves:
                a, b = self._bg[c]
                there = b if cur == a else a
                back = a if there == b else b
                row.extend(([there, back] * (short // 2 + 1))[:short])
            else:
                row.extend([cur] * short)

    def script(self) -> Script:
        return Script(tuple(tuple(r) for r in self.rows))


# -- radius/3 tree cleaning at visibility one -----------------------------------------


def tree_one_visibility_script(g: Graph) -> Script:
    """Cleaning script for a tree at visibility radius 1.

    Rooted at a center vertex, ceil(radius/3) cops suffice: one cop holds a
    child of the root and vibrates toward the work area so the root side
    stays guarded, while the remaining cops recursively clean each subtree
    hanging three levels down.  The emitted script clears the whole tree in
    the engine's worst-case simulation.
    """
    if not g.is_tree():
        raise ValueError("input must be a tree")
    met = metrics(g)
    root = min(met.center)
    k = max(1, _ceil_div(met.radius, 3))
    rt = _hang(g, root)
    wb = _Walks([root] * k)
    _one_vis_clean(rt, wb, root, list(range(k)))
    return wb.script()


def _one_vis_clean(rt: _Rooted, wb: _Walks, s: int, crew: list[int]) -> None:
    """Clean the subtree at s with the crew; everyone starts and ends at s."""
    if rt.height[s] <= 3 or len(crew) == 1:
        _one_vis_base(rt, wb, s, crew[0])
        return
    lead, sub = crew[0], crew[1:]
    busy = [x for x in rt.children[s] if _descendants_at(rt, x, 2)]
    idle = [x for x in rt.children[s] if not _descendants_at(rt, x, 2)]
    for x in busy:
        targets = _descendants_at(rt, x, 2)
        # lead settles on x, then guards: s is inside its ball every second
        # round, so nothing crosses between subtrees unseen
        wb.block({lead: _tree_route(rt, wb.pos(lead), x)})
        for t in targets:
            wb.set_background(lead, x, rt.parent[t])
            march = {c: _tree_route(rt, wb.pos(c), t) for c in sub}
            wb.block(march)
            _one_vis_clean(rt, wb, t, sub)
        wb.clear_background(lead)
    wb.block({c: _tree_route(rt, wb.pos(c), s) for c in crew})
    if idle:
        walk: list[int] = []
        for x in idle:
            walk += [x, s]
        wb.block({lead: walk})


def _one_vis_base(rt: _Rooted, wb: _Walks, s: int, cop: int) -> None:
    """Single-cop sweep of a subtree of height at most three, from s to s."""
    if rt.height[s] > 3:
        raise UnsupportedStrategyError("single-cop sweep needs height <= 3")
    if rt.height[s] <= 1:
        return
    if rt.height[s] == 2:
        walk: list[int] = []
        for w in rt.children[s]:
            if rt.children[w]:
                walk += [w, s]
        wb.block({cop: walk})
        return
    walk = []
    for w in rt.children[s]:
        if not rt.children[w]:
            continue
        walk.append(w)
        for c in rt.children[w]:
            if rt.children[c]:
                walk += [c, w]
        walk.append(s)
    wb.block({cop: walk})


# -- recursive three-branch family cleaning -------------------------------------------


def t_family_script(member: GeneratedGraph) -> Script:
    """Cleaning script for a generated three-branch recursive tree.

    Uses as many cops as the member's level: at each hub one cop vibrates
    across the middle of the branch corridor, covering the hub side every
    second round, while the rest walk out to the attachment vertex and clean
    the hanging child member recursively.
    """
    if member.recipe.kind is not FamilyKind.T_FAMILY:
        raise ValueError("input must carry three-branch family annotations")
    g = member.graph
    k = member.recipe.get("k")
    ell = member.recipe.get("ell")
    hub = member.annotations["hub"]
    wb = _Walks([hub] * k)
    _t_family_clean(g, wb, member.annotations, ell, list(range(k)))
    return wb.script()


def _t_family_clean(g: Graph, wb: _Walks, ann: dict, ell: int, crew: list[int]) -> None:
    """Clean the member rooted at ann's hub; crew starts and ends there."""
    if not ann["branches"]:
        return
    hub = ann["hub"]
    guard, sub = crew[0], crew[1:]
    for branch in ann["branches"]:
        path = branch["path"]  # hub .. attach, 2*ell+3 vertices
        x, y = path[ell], path[ell + 1]
        wb.block({c: _route(g, wb.pos(c), x) for c in crew})
        wb.set_background(guard, x, y)
        wb.block({c: list(path[ell + 1 :]) for c in sub})
        child = branch["member"]
        if child is not None:
            wb.block({c: _route(g, wb.pos(c), child["hub"]) for c in sub})
            _t_family_clean(g, wb, child, ell, sub)
        wb.block({c: _route(g, wb.pos(c), x) for c in sub})
        wb.clear_background(guard)
        wb.block({c: _route(g, wb.pos(c), hub) for c in crew})


# -- subdivided binary tree: two cops vs three monotone cops --------------------------


def t_ell_scripts(member: GeneratedGraph) -> dict[str, Script]:
    """Cleaning scripts for the depth-3 binary tree with edges subdivided
    2*ell+1 times.

    two_cop: cleans with two cops but readmits the vertex where the left
    corridor meets its two leaf paths (unseen for three consecutive rounds
    while the deep cop tours the legs), so the run is not monotone.
    three_cop_monotone: a third cop parks on that vertex during the tours,
    and the territory never regrows at any snapshot.
    """
    rec = member.recipe
    if rec.kind is not FamilyKind.SUBDIVIDED_BINARY or rec.get("depth") != 3:
        raise ValueError("input must be a depth-3 subdivided binary tree")
    subs = rec.get("subdivisions")
    if subs < 3 or subs % 2 == 0:
        raise ValueError("edge subdivision count must be odd and at least 3")
    ell = (subs - 1) // 2
    g = member.graph
    names = member.annotations["names"]
    paths = member.annotations["paths"]

    def seg(u: str, v: str) -> list[int]:
        return list(paths[f"{u}-{v}"])

    def tour(gate: str, left: str, right: str) -> list[int]:
        # dive each leaf path below the gate to the vertex ell above the
        # leaf, returning through the gate; starts and ends on the gate
        walk: list[int] = []
        for leaf in (left, right):
            down = seg(gate, leaf)[1 : ell + 3]
            walk += down + down[-2::-1] + [names[gate]]
        return walk

    def half(wb: _Walks, c1: int, c2: int, a: str, b: str) -> None:
        corridor = seg(a, b)
        wb.block({c1: corridor[1 : ell + 1]})  # c2 holds the corridor mouth
        wb.set_background(c1, corridor[ell], corridor[ell + 1])
        wb.block({c2: corridor[1:] + tour(b, b + "L", b + "R") + corridor[-2::-1]})
        wb.clear_background(c1)

    def march(wb: _Walks, cops: list[int], to: int) -> None:
        wb.block({c: _route(g, wb.pos(c), to) for c in cops})

    # two cops: start on the leaves under LL, meet at L, guard-and-tour the
    # LR corridor, cross to R, repeat mirrored, finish down the RR legs
    wb = _Walks([names["LLL"], names["LLR"]])
    wb.block({0: seg("LL", "LLL")[-2::-1], 1: seg("LL", "LLR")[-2::-1]})
    march(wb, [0, 1], names["L"])
    half(wb, 0, 1, "L", "LR")
    march(wb, [0, 1], names["R"])
    half(wb, 0, 1, "R", "RL")
    march(wb, [0, 1], names["RR"])
    wb.block({0: seg("RR", "RRL")[1:], 1: seg("RR", "RRR")[1:]})
    two = wb.script()

    # third cop rides along, then parks on the corridor-leaf junction during
    # each tour; the vibrator anchors on the near junction instead of the
    # corridor middle, so the root-side mouth cleaned on arrival stays
    # covered every second round and no snapshot ever regrows
    wb = _Walks([names["LLL"], names["LLR"], names["LLL"]])
    wb.block(
        {0: seg("LL", "LLL")[-2::-1], 1: seg("LL", "LLR")[-2::-1], 2: seg("LL", "LLL")[-2::-1]}
    )
    march(wb, [0, 1, 2], names["L"])
    corridor = seg("L", "LR")
    wb.set_background(0, corridor[0], corridor[1])
    wb.block({2: corridor[1:]})  # parker walks ahead to the junction b
    wb.block({1: corridor[1:] + tour("LR", "LRL", "LRR")})
    wb.block({1: corridor[-2::-1], 2: corridor[-2::-1]})
    wb.clear_background(0)
    march(wb, [0, 1, 2], names["R"])
    corridor = seg("R", "RL")
    wb.block({2: corridor[1:]})  # parker leads while both others hold R
    wb.set_background(0, corridor[0], corridor[1])
    wb.block({1: corridor[1:] + tour("RL", "RLL", "RLR") + corridor[-2::-1]})
    wb.clear_background(0)
    march(wb, [0, 1], names["RR"])
    wb.block({0: seg("RR", "RRL")[1:], 1: seg("RR", "RRR")[1:]})
    three = wb.script()
    return {"two_cop": two, "three_cop_monotone": three}


# -- root-guarded cleaning building blocks --------------------------------------------


def root_guarded_scripts(g: Graph, root: int, k: int, ell: int, mode: str = "occupied") -> Script:
    """Cleaning script with k-1 cops that keeps the root guarded throughout.

    mode "occupied": some cop stands on the root at least every second
    round.  mode "seen": the root lies inside some cop's ball at least every
    second round.  Both need every subtree hanging at the appropriate depth
    to be cleanable by k-2 cops (checked via the branching rank); otherwise
    the construction raises.
    """
    if not g.is_tree():
        raise ValueError("input must be a tree")
    if ell < 1:
        raise ValueError("visibility radius must be at least 1")
    if k < 2:
        raise ValueError("need k >= 2 for a k-1 cop script")
    if mode not in ("occupied", "seen"):
        raise ValueError("mode must be 'occupied' or 'seen'")
    rt = _hang(g, root)
    cops = list(range(k - 1))
    wb = _Walks([root] * (k - 1))
    if mode == "occupied":
        gap = _pick_gap(g, rt, root, k, ell, range(1, ell + 2))
        _orange_clean(g, rt, wb, root, cops[0], cops[1:], gap, ell, k)
    else:
        depth = _pick_gap(g, rt, root, k, ell, range(1, 2 * ell + 2))
        near = max(1, depth // 2)
        for x in rt.children[root]:
            for t in _descendants_at(rt, x, near - 1):
                wb.block({c: _route(g, wb.pos(c), t) for c in cops})
                _orange_clean(g, rt, wb, t, cops[0], cops[1:], depth - near, ell, k)
                wb.block({c: _route(g, wb.pos(c), root) for c in cops})
    return wb.script()


def _pick_gap(g: Graph, rt: _Rooted, root: int, k: int, ell: int, gaps) -> int:
    """Smallest depth whose hanging subtrees all have rank at most k-2."""
    for gap in gaps:
        if all(
            _subtree_rank(g, rt, v, ell) <= k - 2 for v in _descendants_at(rt, root, gap)
        ):
            return gap
    raise UnsupportedStrategyError(
        f"no depth within reach has all subtree ranks <= {k - 2}"
    )


def _subtree_rank(g: Graph, rt: _Rooted, v: int, ell: int) -> int:
    mask = 0
    for w in _subtree_vertices(rt, v):
        mask |= 1 << w
    sub, _ = g.induced(mask)
    return rank(sub, ell)[0]


def _orange_clean(
    g: Graph,
    rt: _Rooted,
    wb: _Walks,
    top: int,
    vib: int,
    crew: list[int],
    gap: int,
    ell: int,
    k: int,
) -> None:
    """Clean the subtree at top, keeping top occupied every second round.

    Targets hang `gap` levels below top; each child either has none (a
    single visit by the vibrating cop covers it) or the crew cleans each
    target subtree while the vibration seals the way back.
    """
    if gap == 0:
        # the whole subtree is one target: sit on it and fan the crew out
        if rt.children[top] and not crew:
            raise UnsupportedStrategyError("no crew to fan out below the held vertex")
        for c in rt.children[top]:
            wb.block({w: _route(g, wb.pos(w), c) for w in crew})
            _sub_clean(g, rt, wb, c, crew, ell, k)
            wb.block({w: _route(g, wb.pos(w), top) for w in crew})
        return
    for x in rt.children[top]:
        targets = _descendants_at(rt, x, gap - 1)
        if not targets:
            wb.block({vib: [x, top]})
            continue
        if not crew:
            raise UnsupportedStrategyError("no crew to clean hanging targets")
        wb.set_background(vib, top, x)
        for t in targets:
            wb.block({c: _route(g, wb.pos(c), t) for c in crew})
            _sub_clean(g, rt, wb, t, crew, ell, k)
            wb.block({c: _route(g, wb.pos(c), top) for c in crew})
        wb.clear_background(vib)
        if wb.pos(vib) != top:
            wb.block({vib: [top]})


def _sub_clean(g: Graph, rt: _Rooted, wb: _Walks, s: int, crew: list[int], ell: int, k: int) -> None:
    """Clean the subtree at s with the crew already standing on s."""
    if rt.height[s] <= ell:
        return  # arrival already covered everything below
    if ell == 1:
        need = _ceil_div(rt.height[s], 3)
        if need <= len(crew):
            _one_vis_clean(rt, wb, s, crew[:need])
            return
    raise UnsupportedStrategyError(
        f"subtree at {s} has height {rt.height[s]}, beyond the k-2 cop sub-cleaners"
    )


# -- online policies ------------------------------------------------------------------


class _ChordalPursuit:
    def __init__(self, g: Graph, ell: int, start: int, first_sight: int, order: tuple[int, ...]):
        self.ell = ell
        self.start = start
        if g.dist[start][first_sight] > ell:
            raise ValueError("first sighting must happen inside the cop's ball")
        # later removal = smaller index in the usual elimination numbering
        n = g.n
        self._index = [0] * n
        for pos, v in enumerate(order):
            self._index[v] = n - pos

    def place(self, g: Graph, spec: GameSpec) -> tuple[int, ...]:
        return (self.start,)

    def move(self, g: Graph, spec: GameSpec, state: BeliefState) -> tuple[int, ...]:
        cop = state.cops[0]
        if state.tag != VIS:
            return state.cops  # sight never lapses once gained; stand fast
        r = state.payload
        d = g.dist[cop][r]
        if d <= 1:
            return (r,)
        best = min(
            (u for u in bits(g.adj[cop]) if g.dist[u][r] == d - 1),
            key=lambda u: self._index[u],
        )
        return (best,)


def chordal_pursuit(g: Graph, ell: int, start: int, first_sight: int) -> CopPolicy:
    """Single-cop capture policy for a chordal graph after a first sighting.

    Each round the cop steps to a neighbor one unit closer to the evader's
    standing vertex, breaking ties toward the vertex eliminated latest in
    the simplicial ordering.  The distance never grows, the evader stays
    visible, and on a chordal graph the pursuit corners it.
    """
    peo = chordal_peo(g)
    if peo is None:
        raise ValueError("graph is not chordal")
    return _ChordalPursuit(g, ell, start, first_sight, tuple(peo.order))


class _ShadowCapture:
    """Seek with a seeing policy, then track-and-capture.

    Decisions are a function of the belief states the referee hands over
    and the policy's own prior moves; reset() drops that history so a
    replay can audit the property.

    While nothing has been seen, the first c' cops replay the solver's
    seeing policy against a privately maintained belief of that smaller
    game; spare cops park and only widen the observation net.  On first
    sight the closest cop becomes the tracker and steps along geodesics
    toward the evader's standing vertex, keeping it visible forever, while
    a full-information squad replays the classical winning policy against
    that vertex until the capture lands.
    """

    def __init__(self, g: Graph, ell: int, see: SolveOutcome, classical: SolveOutcome):
        self.ell = ell
        self._see = see
        self._classical = classical
        self._seeking = SolvedCops(see)
        self._capturing = SolvedCops(classical)
        self._seekers = see.spec.cops
        self._squad_size = classical.spec.cops
        self.cops = max(self._seekers, self._squad_size + 1)
        self.reset()

    def reset(self) -> None:
        self.phase = "seek"
        self._pos: list[int] = []
        self._belief: BeliefState | None = None
        self._pending: tuple[int, ...] | None = None
        self._tracker: int | None = None
        self._squad: list[int] = []

    # seek-phase belief upkeep: replay both half-moves of the smaller
    # seeing game, keeping the branch where nothing has been seen (the
    # referee's state tells us that branch is the real one)

    @staticmethod
    def _unseen(states) -> BeliefState | None:
        return next((s for s in states if s.tag == INV), None)

    def _advance_belief(self, g: Graph) -> None:
        spec = self._see.spec
        mid = self._unseen(cop_turn(g, spec, self._belief, self._pending))
        self._belief = None if mid is None else self._unseen(robber_turn(g, spec, mid))

    def place(self, g: Graph, spec: GameSpec) -> tuple[int, ...]:
        base = list(self._see.placement)
        self._pos = base + [base[0]] * (self.cops - len(base))
        self._belief = self._unseen(initial_branches(g, self._see.spec, base))
        return tuple(self._pos)

    def move(self, g: Graph, spec: GameSpec, state: BeliefState) -> tuple[int, ...]:
        if self.phase == "seek" and state.tag == VIS:
            self._start_tracking(g, state.payload)
        if self.phase == "seek":
            if self._pending is not None:
                self._advance_belief(g)
            if self._belief is None:
                raise AssertionError("unseen branch must exist while the referee reports unseen")
            want = self._seeking.move(g, self._see.spec, self._belief)
            seekers = self._pos[: self._seekers]
            moved = _match_step(g, seekers, want)
            self._pos[: self._seekers] = moved
            self._pending = tuple(sorted(moved))
            return tuple(self._pos)
        if state.tag != VIS:
            return tuple(self._pos)  # tracking keeps sight; nothing to do
        r = state.payload
        ti = self._tracker
        if g.dist[self._pos[ti]][r] <= 1:
            self.phase = "hound"
        self._pos[ti] = _route(g, self._pos[ti], r)[0]
        squad = [self._pos[i] for i in self._squad]
        key_state = BeliefState(tuple(sorted(squad)), VIS, r)
        want = self._capturing.move(g, self._classical.spec, key_state)
        moved = _match_step(g, squad, want)
        for i, v in zip(self._squad, moved):
            self._pos[i] = v
        return tuple(self._pos)

    def _start_tracking(self, g: Graph, r: int) -> None:
        self.phase = "track"
        self._tracker = min(
            range(len(self._pos)), key=lambda i: (g.dist[self._pos[i]][r], i)
        )
        rest = [i for i in range(len(self._pos)) if i != self._tracker]
        self._squad = rest[: self._squad_size]


def shadow_capture(g: Graph, ell: int) -> CopPolicy:
    """Capture policy using max(seeing number, classical number + 1) cops.

    Valid for visibility radius at least 2: the tracker ends each of its
    moves within ell - 1 of the evader's standing vertex, so the evader is
    visible at every observation from first sight onward, and the classical
    squad plays its perfect-information win against a visible target.
    """
    if ell < 2:
        raise ValueError("the tracking argument needs visibility radius >= 2")
    see_outcome = _least_winning(g, ell, Variant.SEE, budget=2_000_000)[1]
    classical_outcome = _least_winning(g, 0, Variant.CLASSICAL, budget=2_000_000)[1]
    return _ShadowCapture(g, ell, see_outcome, classical_outcome)

