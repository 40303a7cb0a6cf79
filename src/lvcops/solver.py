"""Exact solving of the pursuit games by retrograde analysis.

The game is an AND-OR reachability game over belief states: the cops pick
an action (OR), then every adversary-consistent branch must already be
winning (AND).  Infinite play is an evader win, so the winning set is the
least fixpoint: seed the states with an action whose branches are all
terminal, then propagate backwards with per-(state, action) unmet-branch
counters.

Layout of a solve:
  1. enumerate every opening placement (sorted multisets) and intern the
     root belief states;
  2. expand the reachable set breadth-first to closure, serially, interning
     states in a fixed discovery order and giving each (state, action) pair
     with a nonempty successor set one slot in flat arrays: its unmet
     successor count, its state and its action, plus per-state lists of
     the slots that wait on that state.  The worker count does not change
     this, so the discovery order, the state count, and everything derived
     from them are identical for any worker count;
  3. propagate wins wave-synchronously over the slots.  A state's wave is
     the number of cop moves needed against the worst adversary; the
     recorded action is the first to complete, under a fixed enumeration
     order;
  4. the cops win the game iff some placement has every root branch won.

The state budget is a hard cap on interned states.  Hitting it aborts with
winner INCONCLUSIVE and states equal to the cap, never a guessed answer.
The cut happens at a fixed point of the deterministic discovery stream, so
budgeted runs are reproducible too.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping

from .engine import (
    SNAP_FREE,
    BeliefState,
    Delayed,
    GameSpec,
    Invisible,
    Variant,
    Visible,
    robber_turn,
)
from .graphs import Graph, bits, mask_of

DEFAULT_BUDGET = 1_000_000

_INV, _VIS, _DEL = 0, 1, 2

# (cops, tag, payload, snapshot)
Key = tuple


class Winner(Enum):
    COPS = "cops"
    ROBBER = "robber"
    INCONCLUSIVE = "inconclusive"


class BudgetExceeded(RuntimeError):
    """Raised by the iterating drivers when a solve came back INCONCLUSIVE."""

    def __init__(self, message: str, partial: dict | None = None) -> None:
        super().__init__(message)
        self.partial = partial or {}


class ChainViolation(ValueError):
    """A Profile failed one of its internal inequalities."""


class _Ctx:
    """Per-solve caches: legal move tuples and visibility masks per cop tuple."""

    __slots__ = ("g", "spec", "see", "mono", "delayed", "adjc", "_moves", "_balls")

    def __init__(self, g: Graph, spec: GameSpec) -> None:
        self.g = g
        self.spec = spec
        self.see = spec.see_goal
        self.mono = spec.monotone
        self.delayed = spec.delayed
        self.adjc = g.adj_closed
        self._moves: dict[tuple, tuple] = {}
        self._balls = g.balls(spec.ell)

    def moves(self, cops: tuple[int, ...]):
        """All distinct sorted cop tuples one half-move away, with their
        occupancy and visibility masks, in a fixed enumeration order."""
        hit = self._moves.get(cops)
        if hit is not None:
            return hit
        per_cop = [sorted(bits(self.adjc[c])) for c in cops]
        out = []
        seen = set()
        balls = self._balls
        for combo in itertools.product(*per_cop):
            a = tuple(sorted(combo))
            if a in seen:
                continue
            seen.add(a)
            am = mask_of(a)
            bm = 0
            for c in a:
                bm |= balls[c]
            out.append((a, am, bm))
        out = tuple(out)
        self._moves[cops] = out
        return out

    def placement_masks(self, cops: tuple[int, ...]) -> tuple[int, int]:
        am = mask_of(cops)
        bm = 0
        for c in cops:
            bm |= self._balls[c]
        return am, bm


def _initial_keys(ctx: _Ctx, placement: tuple[int, ...]) -> tuple[Key, ...]:
    """Root states for one opening placement; empty tuple means the
    placement wins outright."""
    g = ctx.g
    am, bm = ctx.placement_masks(placement)
    free = g.full & ~am
    if free == 0:
        return ()
    if ctx.delayed:
        return ((placement, _DEL, free, SNAP_FREE),)
    out = []
    if not ctx.see:
        for v in bits(free & bm):
            out.append((placement, _VIS, v, SNAP_FREE))
    unseen = free & ~bm
    if unseen:
        snap = unseen if ctx.mono else SNAP_FREE
        out.append((placement, _INV, unseen, snap))
    return tuple(out)


def _expand(ctx: _Ctx, key: Key) -> list[tuple[tuple[int, ...], tuple[Key, ...]]]:
    """One full round from a cop-to-move state.

    Returns (action, successor keys) per legal action, deduplicated by
    successor set, first-encountered action kept.  An empty successor
    tuple means the action wins on the spot (every branch terminal).
    Monotonicity-violating actions are omitted entirely.
    """
    cops, tag, payload, snap = key
    g = ctx.g
    adjc = ctx.adjc
    out: list[tuple[tuple[int, ...], tuple[Key, ...]]] = []
    seen_sets: set[tuple[Key, ...]] = set()

    if tag == _DEL:
        B = payload
        for a, am, _bm in ctx.moves(cops):
            surv = B & ~am
            if surv == 0:
                succs: tuple[Key, ...] = ()
            else:
                ss = {(a, _DEL, adjc[v] & ~am, SNAP_FREE) for v in bits(surv)}
                succs = tuple(sorted(ss))
            if succs not in seen_sets:
                seen_sets.add(succs)
                out.append((a, succs))
        return out

    if tag == _VIS:
        r = payload
        for a, am, bm in ctx.moves(cops):
            if (am >> r) & 1:
                succs = ()
            else:
                choices = adjc[r] & ~am
                ss = set()
                if not ctx.see:
                    for w in bits(choices & bm):
                        ss.add((a, _VIS, w, SNAP_FREE))
                esc = choices & ~bm
                if esc:
                    ss.add((a, _INV, esc, SNAP_FREE))
                succs = tuple(sorted(ss))
            if succs not in seen_sets:
                seen_sets.add(succs)
                out.append((a, succs))
        return out

    T = payload
    for a, am, bm in ctx.moves(cops):
        rest = T & ~am
        unseen = rest & ~bm
        if ctx.mono and snap != SNAP_FREE and unseen & ~snap:
            continue
        nsnap = unseen if ctx.mono else SNAP_FREE
        ss = set()
        if not ctx.see:
            for v in bits(rest & bm):
                ch = adjc[v] & ~am
                for w in bits(ch & bm):
                    ss.add((a, _VIS, w, SNAP_FREE))
                esc = ch & ~bm
                if esc:
                    ss.add((a, _INV, esc, SNAP_FREE))
        if unseen:
            grown = g.grow(unseen) & ~am
            if not ctx.see:
                for w in bits(grown & bm):
                    ss.add((a, _VIS, w, SNAP_FREE))
            u2 = grown & ~bm
            if u2:
                ss.add((a, _INV, u2, nsnap))
        succs = tuple(sorted(ss))
        if succs not in seen_sets:
            seen_sets.add(succs)
            out.append((a, succs))
    return out


def successors(g: Graph, spec: GameSpec, state: BeliefState) -> dict[tuple, tuple]:
    """Per-action successor keys from a cop-to-move state (test hook).

    Monotonicity-violating actions are absent; an empty value means the
    action ends the game.  Actions collapsing to an already-listed
    successor set are folded into the first action with that set.
    """
    spec = spec.resolve(g)
    ctx = _Ctx(g, spec)
    return {a: succs for a, succs in _expand(ctx, state.key())}


@dataclass(frozen=True)
class SolveOutcome:
    """Result of one fixed-cop-count solve.

    states counts distinct interned belief states; wave_sizes are the
    expansion frontier sizes; depth is the optimal worst-case number of
    cop moves (the chosen placement attains it; 0 means the placement
    covers the graph).

    keys, won, wave_of and chosen are the solve's per-state tables, indexed
    by interning order (empty when INCONCLUSIVE).  The key-level views
    policy, robber_winning and waves are built from them on first access:
    policy maps winning state keys to the recorded first-completing action
    and is set iff the cops win; robber_winning holds every non-won state
    key and waves the wave of every won one, both set iff the game was
    decided.
    """

    winner: Winner
    states: int
    wave_sizes: tuple[int, ...]
    depth: int | None
    placement: tuple[int, ...] | None
    graph: Graph
    spec: GameSpec
    keys: list[Key] = field(default_factory=list, repr=False)
    won: bytearray = field(default_factory=bytearray, repr=False)
    wave_of: list[int] = field(default_factory=list, repr=False)
    chosen: list[tuple[int, ...] | None] = field(default_factory=list, repr=False)

    @cached_property
    def policy(self) -> Mapping[Key, tuple[int, ...]] | None:
        if self.winner is not Winner.COPS:
            return None
        keys, chosen = self.keys, self.chosen
        return {keys[i]: chosen[i] for i, w in enumerate(self.won) if w}

    @cached_property
    def robber_winning(self) -> frozenset | None:
        if self.winner is Winner.INCONCLUSIVE:
            return None
        keys = self.keys
        return frozenset(keys[i] for i, w in enumerate(self.won) if not w)

    @cached_property
    def waves(self) -> dict[Key, int] | None:
        if self.winner is Winner.INCONCLUSIVE:
            return None
        keys, wave_of = self.keys, self.wave_of
        return {keys[i]: wave_of[i] for i, w in enumerate(self.won) if w}

    def robber_policy(self):
        """Playable adversary policy; only meaningful when the evader wins."""
        return SolvedRobber(self) if self.winner is Winner.ROBBER else None

    def to_public_dict(self) -> dict:
        return {
            "graph": self.graph.key(),
            "ell": self.spec.ell,
            "cops": self.spec.cops,
            "variant": self.spec.variant.value,
            "winner": self.winner.value,
            "states": self.states,
            "depth": self.depth,
            "placement": list(self.placement) if self.placement else None,
        }


def solve(
    g: Graph,
    spec: GameSpec,
    *,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> SolveOutcome:
    """Decide the game at spec.cops cops; see the module docstring.

    Expansion is serial.  workers is accepted for compatibility and must
    be at least 1; it changes nothing.  Parallelism, if any, belongs over
    independent solves, not inside one (an open ROADMAP item).
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    spec = spec.resolve(g)
    ctx = _Ctx(g, spec)

    index: dict[Key, int] = {}
    keys: list[Key] = []
    # preds[j] lists the slots, one per (state, action) pair with a
    # nonempty successor set, that have j among their successors.  Slots are
    # made in ascending (state, action) order, so each preds list is too.
    preds: list[list[int]] = []
    remaining: list[int] = []  # unmet successors per slot
    slot_state: list[int] = []
    slot_action: list[tuple[int, ...]] = []
    chosen: list[tuple[int, ...] | None] = []  # per expanded state
    seeds: list[int] = []  # states with an action that wins on the spot
    wave_sizes: list[int] = []

    def inconclusive() -> SolveOutcome:
        return SolveOutcome(Winner.INCONCLUSIVE, budget, tuple(wave_sizes), None, None, g, spec)

    placement_roots: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for p in itertools.combinations_with_replacement(range(g.n), spec.cops):
        roots = []
        for k in _initial_keys(ctx, p):
            i = index.get(k)
            if i is None:
                if len(keys) >= budget:
                    return inconclusive()
                i = index[k] = len(keys)
                keys.append(k)
                preds.append([])
            roots.append(i)
        placement_roots.append((p, tuple(roots)))

    # States are interned in discovery order and expanded in index order:
    # each wave is the run of indices interned while expanding the last.
    lo, hi = 0, len(keys)
    while lo < hi:
        wave_sizes.append(hi - lo)
        for i in range(lo, hi):
            win = None
            rows = []
            for a, succ_keys in _expand(ctx, keys[i]):
                if not succ_keys:
                    if win is None:
                        win = a
                    continue
                row = []
                for sk in succ_keys:
                    j = index.get(sk)
                    if j is None:
                        j = len(keys)
                        if j >= budget:
                            return inconclusive()
                        index[sk] = j
                        keys.append(sk)
                        preds.append([])
                    row.append(j)
                rows.append((a, row))
            chosen.append(win)
            if win is not None:
                # won at wave 1 whatever its other actions do
                seeds.append(i)
                continue
            for a, row in rows:
                slot = len(remaining)
                remaining.append(len(row))
                slot_state.append(i)
                slot_action.append(a)
                for j in row:
                    preds[j].append(slot)
        lo, hi = hi, len(keys)

    n_states = len(keys)
    won = bytearray(n_states)
    wave_of = [0] * n_states
    for i in seeds:
        won[i] = 1
        wave_of[i] = 1

    current = seeds
    wave = 1
    while current:
        wave += 1
        nxt = []
        for w in current:
            for slot in preds[w]:
                left = remaining[slot] - 1
                remaining[slot] = left
                if left == 0:
                    i = slot_state[slot]
                    if not won[i]:
                        won[i] = 1
                        wave_of[i] = wave
                        chosen[i] = slot_action[slot]
                        nxt.append(i)
        current = nxt

    win_placement = None
    depth = None
    for p, roots in placement_roots:
        if all(won[i] for i in roots):
            d = max((wave_of[i] for i in roots), default=0)
            if depth is None or d < depth:
                win_placement, depth = p, d

    winner = Winner.COPS if win_placement is not None else Winner.ROBBER
    return SolveOutcome(
        winner, n_states, tuple(wave_sizes), depth, win_placement, g, spec,
        keys, won, wave_of, chosen,
    )


def _least_winning(
    g: Graph, ell: int, variant: Variant, *, budget: int, workers: int = 1
) -> tuple[int, SolveOutcome]:
    """The smallest winning cop count with its solve; see cop_number."""
    for k in range(1, g.n + 1):
        out = solve(g, GameSpec(ell, k, variant), budget=budget, workers=workers)
        if out.winner is Winner.COPS:
            return k, out
        if out.winner is Winner.INCONCLUSIVE:
            raise BudgetExceeded(
                f"{variant.value} game at radius {ell} undecided at {k} cops"
                f" within {budget} states",
                partial={"k": k, "states": out.states},
            )
    raise AssertionError("unreachable: full occupation wins")


def cop_number(
    g: Graph,
    ell: int,
    variant: Variant = Variant.CAPTURE,
    *,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> int:
    """Smallest cop count winning the game; iterates k = 1, 2, ...

    Termination: a cop on every vertex leaves the evader nowhere to stand,
    so k = n always wins.  An INCONCLUSIVE solve below the answer poisons
    the iteration and raises BudgetExceeded with the partial findings.
    """
    return _least_winning(g, ell, variant, budget=budget, workers=workers)[0]


@dataclass(frozen=True)
class Profile:
    """Game numbers for one graph, cross-checked on construction.

    capture_at/see_at/monotone_at/domination_at are keyed by visibility
    radius.  Entries may be absent (None / missing key) when not requested;
    inequalities are only checked between present values.
    """

    graph_key: str
    n: int
    radii: tuple[int, ...]
    classical: int | None = None
    blind: int | None = None
    delayed: int | None = None
    domination: int | None = None
    capture_at: dict[int, int] | None = None
    see_at: dict[int, int] | None = None
    monotone_at: dict[int, int] | None = None
    domination_at: dict[int, int] | None = None

    def __post_init__(self) -> None:
        problems = self.check()
        if problems:
            raise ChainViolation("; ".join(problems))

    def check(self) -> list[str]:
        bad = []
        cap = self.capture_at or {}
        see = self.see_at or {}
        mono = self.monotone_at or {}
        dom = self.domination_at or {}
        for r in self.radii:
            if r in see and r in cap and see[r] > cap[r]:
                bad.append(f"see({r}) > capture({r})")
            if r in see and r in dom and see[r] > dom[r]:
                bad.append(f"see({r}) > domination({r})")
            if r in mono and r in cap and mono[r] < cap[r]:
                bad.append(f"monotone({r}) < capture({r})")
            if self.classical is not None and r in cap and cap[r] < self.classical:
                bad.append(f"capture({r}) < classical")
        radii = sorted(set(cap))
        for r1, r2 in zip(radii, radii[1:]):
            if cap[r1] < cap[r2]:
                bad.append(f"capture({r1}) < capture({r2})")
        if self.blind is not None and radii and cap[radii[0]] > self.blind:
            bad.append("capture chain exceeds the blind game")
        sradii = sorted(set(see))
        for r1, r2 in zip(sradii, sradii[1:]):
            if see[r1] < see[r2]:
                bad.append(f"see({r1}) < see({r2})")
        if (
            self.classical is not None
            and self.delayed is not None
            and self.delayed < self.classical
        ):
            bad.append("delayed < classical")
        return bad

    def as_dict(self) -> dict:
        return {
            "graph": self.graph_key,
            "n": self.n,
            "classical": self.classical,
            "blind": self.blind,
            "delayed": self.delayed,
            "domination": self.domination,
            "capture_at": dict(self.capture_at or {}),
            "see_at": dict(self.see_at or {}),
            "monotone_at": dict(self.monotone_at or {}),
            "domination_at": dict(self.domination_at or {}),
        }


ALL_PARTS = ("classical", "blind", "delayed", "domination", "capture", "see", "monotone")


def profile(
    g: Graph,
    radii: Iterable[int] = (1,),
    *,
    parts: Iterable[str] = ALL_PARTS,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> Profile:
    """Compute the requested game numbers and wrap them in a Profile."""
    from .graphs import k_domination_number

    radii = tuple(sorted(set(radii)))
    parts = frozenset(parts)
    unknown = parts - set(ALL_PARTS)
    if unknown:
        raise ValueError(f"unknown profile parts {sorted(unknown)}")
    kw = {"budget": budget, "workers": workers}
    classical = blind = delayed = domination = None
    capture_at = see_at = monotone_at = domination_at = None
    if "classical" in parts:
        classical = cop_number(g, 0, Variant.CLASSICAL, **kw)
    if "blind" in parts:
        blind = cop_number(g, 0, Variant.CAPTURE, **kw)
    if "delayed" in parts:
        delayed = cop_number(g, 0, Variant.TIME_DELAYED, **kw)
    if "domination" in parts:
        domination = k_domination_number(g, 1)
    if "capture" in parts:
        capture_at = {r: cop_number(g, r, Variant.CAPTURE, **kw) for r in radii}
    if "see" in parts:
        see_at = {r: cop_number(g, r, Variant.SEE, **kw) for r in radii}
    if "monotone" in parts:
        monotone_at = {r: cop_number(g, r, Variant.MONOTONE_CAPTURE, **kw) for r in radii}
    if "see" in parts or "domination" in parts:
        domination_at = {r: k_domination_number(g, r) for r in radii}
    return Profile(
        graph_key=g.key(),
        n=g.n,
        radii=radii,
        classical=classical,
        blind=blind,
        delayed=delayed,
        domination=domination,
        capture_at=capture_at,
        see_at=see_at,
        monotone_at=monotone_at,
        domination_at=domination_at,
    )


@dataclass(frozen=True)
class WitnessResult:
    graph: Graph | None
    profile: Profile | None
    tried: int
    skipped: int


def search_witness(
    predicate: Callable[[Profile], bool],
    candidates: Iterator[Graph],
    *,
    limit: int,
    profiler: Callable[[Graph], Profile | None] | None = None,
    radii: Iterable[int] = (1,),
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> WitnessResult:
    """First candidate whose profile satisfies the predicate.

    The profiler may return None to discard a candidate cheaply, and a
    candidate whose profile blows the solve budget is skipped rather than
    guessed at.  Every drawn candidate counts against the limit.
    """
    if profiler is None:
        profiler = lambda h: profile(h, radii, budget=budget, workers=workers)
    tried = skipped = 0
    for g in candidates:
        if tried >= limit:
            break
        tried += 1
        try:
            prof = profiler(g)
        except BudgetExceeded:
            skipped += 1
            continue
        if prof is None:
            continue
        if predicate(prof):
            return WitnessResult(g, prof, tried, skipped)
    return WitnessResult(None, None, tried, skipped)


# -- playable policies out of a solve -------------------------------------------


class SolvedCops:
    """Plays the recorded winning policy; passes if asked off-table."""

    def __init__(self, outcome: SolveOutcome) -> None:
        if outcome.winner is not Winner.COPS:
            raise ValueError("cop policy requires a cop-winning outcome")
        self._out = outcome

    def place(self, g: Graph, spec: GameSpec) -> tuple[int, ...]:
        return self._out.placement

    def move(self, g: Graph, spec: GameSpec, state: BeliefState) -> tuple[int, ...]:
        act = self._out.policy.get(state.key())
        return act if act is not None else state.cops


class SolvedRobber:
    """Plays adversary branches from the solved tables.

    Branch choice is exact: prefer any branch the cops never win; among
    winning-for-cops branches take the deepest.  The concrete vertex
    inside a territory branch is a heuristic (max distance to the cops),
    which is where belief-level and played-out optimality can part ways.
    """

    def __init__(self, outcome: SolveOutcome) -> None:
        self._out = outcome
        self._safe = outcome.robber_winning or frozenset()
        self._waves = outcome.waves or {}

    def _score(self, key: Key) -> tuple[int, int]:
        # (robber-winning, survival depth): bigger is better
        if key in self._safe:
            return (1, 0)
        return (0, self._waves.get(key, 0))

    def place(self, g: Graph, spec: GameSpec, cops: tuple[int, ...]) -> int | None:
        spec = spec.resolve(g)
        ctx = _Ctx(g, spec)
        roots = _initial_keys(ctx, tuple(sorted(cops)))
        if not roots:
            free = g.full & ~mask_of(cops)
            return max(bits(free), default=None)
        best_key = max(roots, key=lambda k: (self._score(k), -k[1]))
        return self._pick_vertex(g, cops, best_key)

    def move(self, g: Graph, spec: GameSpec, state: BeliefState, robber: int) -> int:
        spec = spec.resolve(g)
        cops = state.cops
        am = mask_of(cops)
        choices = list(bits(g.adj_closed[robber] & ~am))
        far = lambda w: min(g.dist[c][w] for c in cops)
        if isinstance(state.phase, Delayed):
            # disclosure reveals the pre-move vertex, so every choice lands
            # in the same belief branch; just keep the distance
            return max(choices, key=lambda w: (far(w), -w))
        landing: dict[int, Key] = {}
        for b in robber_turn(g, spec, state).branches:
            if b.won:
                continue
            p = b.state.phase
            if isinstance(p, Visible):
                if p.robber in choices:
                    landing[p.robber] = b.state.key()
            elif isinstance(p, Invisible):
                for w in choices:
                    if (p.territory >> w) & 1:
                        landing[w] = b.state.key()

        def rank(w: int):
            if w not in landing:  # terminal for the evader (seen under SEE)
                return ((-1, 0), far(w), -w)
            return (self._score(landing[w]), far(w), -w)

        return max(choices, key=rank)

    def _pick_vertex(self, g: Graph, cops, key: Key) -> int:
        if key[1] == _VIS:
            return key[2]
        far = lambda w: min(g.dist[c][w] for c in cops)
        return max(bits(key[2]), key=lambda w: (far(w), -w))


def extract_policies(outcome: SolveOutcome) -> tuple:
    """Playable (cop, robber) policy pair for engine.play_match.

    The cop side needs a cop-winning outcome; the robber side plays from
    either decided outcome (optimally prolonging a lost game).
    """
    if outcome.winner is Winner.INCONCLUSIVE:
        raise ValueError("no policies from an inconclusive solve")
    cop = SolvedCops(outcome) if outcome.winner is Winner.COPS else None
    return cop, SolvedRobber(outcome)
