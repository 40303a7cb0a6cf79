"""Exact solving of the pursuit games by retrograde analysis.

The game is an AND-OR reachability game over belief states: the cops pick
an action (OR), then every adversary-consistent branch must already be
winning (AND).  Infinite play is an evader win, so the winning set is the
least fixpoint: seed the states with an action whose branches are all
terminal, then propagate backwards with per-(state, action) unmet-branch
counters.

The rules are not restated here: the belief states, the opening split
(_initial_keys) and the one-round expansion (_expand) are the transition
kernel in engine; this module is the search over it.

Layout of a solve:
  1. enumerate every opening placement (sorted multisets) and intern the
     root belief states the kernel's opening split gives;
  2. expand the reachable set breadth-first to closure with the kernel
     (one round per legal cop action), serially, interning states in a
     fixed discovery order and giving each (state, action) pair
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
    DEL,
    VIS,
    BeliefState,
    GameSpec,
    Key,
    Variant,
    _branch,
    _Ctx,
    _expand,
    _initial_keys,
    initial_branches,
    robber_turn,
)
from .graphs import Graph, bits, mask_of

DEFAULT_BUDGET = 1_000_000


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


@dataclass(frozen=True)
class SolveOutcome:
    """Result of one fixed-cop-count solve.

    states counts distinct interned belief states; wave_sizes are the
    expansion frontier sizes; depth is the optimal worst-case number of
    cop moves (the chosen placement attains it; 0 means the placement
    covers the graph).

    index maps each interned state key to its row, in interning order;
    won, wave_of and chosen are the per-row tables (won flag, wave of a won
    row, recorded first-completing action of a won row).  All four are empty
    when INCONCLUSIVE.  Replay reads the solve through index alone
    (SolvedCops, SolvedRobber).  policy, the key-level view of the recorded
    actions, is built on first access and is set iff the cops win.
    """

    winner: Winner
    states: int
    wave_sizes: tuple[int, ...]
    depth: int | None
    placement: tuple[int, ...] | None
    graph: Graph
    spec: GameSpec
    index: dict[Key, int] = field(default_factory=dict, repr=False)
    won: bytearray = field(default_factory=bytearray, repr=False)
    wave_of: list[int] = field(default_factory=list, repr=False)
    chosen: list[tuple[int, ...] | None] = field(default_factory=list, repr=False)

    @cached_property
    def policy(self) -> Mapping[Key, tuple[int, ...]] | None:
        if self.winner is not Winner.COPS:
            return None
        won, chosen = self.won, self.chosen
        return {k: chosen[i] for k, i in self.index.items() if won[i]}

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
        for k in _initial_keys(ctx, p, g.full):
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
    moves = ctx.moves
    get = index.get
    lo, hi = 0, len(keys)
    while lo < hi:
        wave_sizes.append(hi - lo)
        for i in range(lo, hi):
            key = keys[i]
            rows = _expand(ctx, key, moves(key[0]))
            win = None
            for a, succ_keys in rows:
                if not succ_keys:
                    win = a
                    break
            chosen.append(win)
            if win is not None:
                # won at wave 1 whatever its other actions do; their
                # successors are still interned, so the interning order
                # does not depend on which states win
                seeds.append(i)
            for a, succ_keys in rows:
                if not succ_keys:
                    continue
                if win is None:
                    slot = len(remaining)
                    remaining.append(len(succ_keys))
                    slot_state.append(i)
                    slot_action.append(a)
                for sk in succ_keys:
                    j = get(sk)
                    if j is None:
                        j = len(keys)
                        if j >= budget:
                            return inconclusive()
                        index[sk] = j
                        keys.append(sk)
                        preds.append([])
                    if win is None:
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
        index, won, wave_of, chosen,
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
# Both policies read the solve through SolveOutcome.index; a state the solve
# never reached is a pass for the cops and scores (0, 0) for the evader.


class SolvedCops:
    """Plays the recorded winning policy; passes if asked off-table."""

    def __init__(self, outcome: SolveOutcome) -> None:
        if outcome.winner is not Winner.COPS:
            raise ValueError("cop policy requires a cop-winning outcome")
        self._out = outcome

    def place(self, g: Graph, spec: GameSpec) -> tuple[int, ...]:
        return self._out.placement

    def move(self, g: Graph, spec: GameSpec, state: BeliefState) -> tuple[int, ...]:
        i = self._out.index.get(state)
        act = None if i is None else self._out.chosen[i]
        return state.cops if act is None else act


class SolvedRobber:
    """Plays adversary branches from the solved tables of a decided outcome.

    Branch choice is exact: prefer any branch the cops never win; among
    winning-for-cops branches take the deepest.  The concrete vertex
    inside a territory branch is a heuristic (max distance to the cops),
    which is where belief-level and played-out optimality can part ways.
    """

    def __init__(self, outcome: SolveOutcome) -> None:
        if outcome.winner is Winner.INCONCLUSIVE:
            raise ValueError("evader policy requires a decided outcome")
        self._out = outcome

    def _score(self, key: Key) -> tuple[int, int]:
        # (robber-winning, survival depth): bigger is better
        out = self._out
        i = out.index.get(key)
        if i is None:
            return (0, 0)
        return (0, out.wave_of[i]) if out.won[i] else (1, 0)

    def place(self, g: Graph, spec: GameSpec, cops: tuple[int, ...]) -> int | None:
        roots = initial_branches(g, spec, cops)
        if not roots:
            free = g.full & ~mask_of(cops)
            return max(bits(free), default=None)
        best = max(roots, key=lambda s: (self._score(s), -s.tag))
        if best.tag == VIS:
            return best.payload
        far = lambda w: min(g.dist[c][w] for c in cops)
        return max(bits(best.payload), key=lambda w: (far(w), -w))

    def move(self, g: Graph, spec: GameSpec, state: BeliefState, robber: int) -> int:
        cops = state.cops
        choices = bits(g.adj_closed[robber] & ~mask_of(cops))
        far = lambda w: min(g.dist[c][w] for c in cops)
        if state.tag == DEL:
            # disclosure reveals the pre-move vertex, so every choice lands
            # in the same belief branch; just keep the distance
            return max(choices, key=lambda w: (far(w), -w))
        after = robber_turn(g, spec, state)

        def rank(w: int):
            s = _branch(g, after, w)
            if s is None:  # terminal for the evader (seen under SEE)
                return ((-1, 0), far(w), -w)
            return (self._score(s), far(w), -w)

        return max(choices, key=rank)
