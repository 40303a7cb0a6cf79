"""Game semantics for limited-visibility pursuit on a graph.

One round is: cops move (each along an edge or passing), then an
observation; the evader moves, then a second observation.  An observation
reveals the evader exactly when some cop is within the visibility radius.
Between sightings the cops' knowledge is a territory: the set of vertices
consistent with every observation so far.  The adversary's consistent
choices at each half-round are grouped into branches; all unseen choices
collapse into a single territory branch, while each seen choice is its own
branch.

Conventions baked into the transition relation:
  - the evader never moves onto a cop, and passing is always legal;
  - a territory vertex whose every move is blocked is a capture;
  - capture and sighting are evaluated after the complete cop half-move;
  - under the weakly monotone rule, the unseen territory recorded after
    each cop half-move may never gain a vertex while the evader is unseen;
    sighted play is exempt, and an escape back out of sight starts a fresh
    baseline at the next cop move.

The time-delayed variant replaces live observations with end-of-round
disclosure of the evader's previous vertex; its knowledge set carries its
own tag so the two information models cannot be mixed up.

The rules live in one place, the transition kernel below: _initial_keys
(the evader's replies to an opening placement) and _expand (one full round
per cop action) over plain (cops, tag, payload, snapshot) tuples.  The
solver searches over the kernel; initial_branches, cop_turn, robber_turn
and round_branches are thin views of it for the referee and the policies.
A view returns the ongoing states only: a branch the cops win is dropped,
so an empty tuple means the cops won on every branch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple, Protocol

from .graphs import Graph, VertexSet, bits, mask_of


class Variant(Enum):
    SEE = "see"
    CAPTURE = "capture"
    MONOTONE_CAPTURE = "monotone_capture"
    TIME_DELAYED = "time_delayed"
    CLASSICAL = "classical"
    ZERO_VIS = "zero_vis"


@dataclass(frozen=True)
class GameSpec:
    """Visibility radius, cop count, and rule variant.

    The classical game is the capture game with the radius stretched to the
    graph's diameter; the blind game is the capture game at radius zero.
    Both are normalized away by resolve() so downstream code only ever sees
    SEE, CAPTURE, MONOTONE_CAPTURE, or TIME_DELAYED.
    """

    ell: int
    cops: int
    variant: Variant = Variant.CAPTURE

    def __post_init__(self) -> None:
        if self.cops < 1:
            raise ValueError("need at least one cop")
        if self.ell < 0:
            raise ValueError("visibility radius must be nonnegative")

    def resolve(self, g: Graph) -> "GameSpec":
        if self.variant is Variant.CLASSICAL:
            ecc = max(max(row) for row in g.dist)
            return GameSpec(ecc, self.cops, Variant.CAPTURE)
        if self.variant is Variant.ZERO_VIS:
            return GameSpec(0, self.cops, Variant.CAPTURE)
        return self

    @property
    def see_goal(self) -> bool:
        return self.variant is Variant.SEE

    @property
    def delayed(self) -> bool:
        return self.variant is Variant.TIME_DELAYED

    @property
    def monotone(self) -> bool:
        return self.variant is Variant.MONOTONE_CAPTURE


# snapshot sentinel: no baseline constraint on the next cop move
SNAP_FREE = -1

# state tags: the payload is an unseen territory (INV), the sighted
# evader's vertex (VIS), or the time-delayed knowledge set (DEL)
INV, VIS, DEL = 0, 1, 2

# (cops, tag, payload, snapshot); BeliefState is the named view
Key = tuple


class BeliefState(NamedTuple):
    """Canonical game position from the cops' point of view.

    cops is sorted (cops are interchangeable and may share a vertex).  An
    INV territory is already reduced by every past observation, so it is
    disjoint from the cops' visibility balls.  snapshot carries the
    weakly-monotone baseline (the unseen territory recorded after the last
    cop half-move); SNAP_FREE means the next cop move sets a new baseline.
    A BeliefState compares and hashes equal to the kernel's plain key tuple.
    """

    cops: tuple[int, ...]
    tag: int
    payload: int
    snapshot: int = SNAP_FREE


class IllegalMove(ValueError):
    pass


class MonotonicityViolation(IllegalMove):
    """Cop move rejected because the post-move unseen territory would grow."""


def _ball_union(balls, cops: Iterable[int]) -> VertexSet:
    m = 0
    for c in cops:
        m |= balls[c]
    return m


def _match_step(g: Graph, old, new) -> list[int]:
    """Per-cop destinations: out[i] is where the cop on old[i] goes, each
    cop passing or crossing one edge, and out is new as a multiset.  Raises
    IllegalMove when no such matching exists."""
    if len(old) != len(new):
        raise IllegalMove(f"cop count changed from {len(old)} to {len(new)}")

    def match(i: int, left: list[int]) -> list[int] | None:
        # backtracking; cop counts are tiny
        if i == len(old):
            return []
        reach = g.adj_closed[old[i]]
        for j, v in enumerate(left):
            if (reach >> v) & 1:
                rest = match(i + 1, left[:j] + left[j + 1 :])
                if rest is not None:
                    return [v] + rest
        return None

    out = match(0, list(new))
    if out is None:
        raise IllegalMove(f"no legal per-cop matching from {tuple(old)} to {tuple(new)}")
    return out


# -- transition kernel -----------------------------------------------------------
# Kernel helpers stay private: a profiler that wraps every public function
# (perfbench/tracer.py) would put a span on each of their per-state calls.


class _Ctx:
    """Per-solve caches: legal move tuples and visibility masks per cop
    tuple, and grow() of each unseen territory (grown)."""

    __slots__ = ("g", "see", "mono", "delayed", "adjc", "grown", "_moves", "_balls")

    def __init__(self, g: Graph, spec: GameSpec) -> None:
        self.g = g
        self.see = spec.see_goal
        self.mono = spec.monotone
        self.delayed = spec.delayed
        self.adjc = g.adj_closed
        self.grown: dict[VertexSet, VertexSet] = {}
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

    def masks(self, cops: tuple[int, ...]) -> tuple[int, int]:
        """Occupancy and visibility masks of one cop tuple."""
        return mask_of(cops), _ball_union(self._balls, cops)


def _initial_keys(ctx: _Ctx, cops: tuple[int, ...], cand: VertexSet) -> tuple[Key, ...]:
    """The observation with the cops on cops and the evader somewhere in
    cand: the opening split when cand is every vertex, the cop half-move's
    split of a territory or knowledge set otherwise.  An empty tuple means
    the cops win on every branch."""
    am, bm = ctx.masks(cops)
    free = cand & ~am
    if free == 0:
        return ()
    if ctx.delayed:
        return ((cops, DEL, free, SNAP_FREE),)
    out = []
    if not ctx.see:
        for v in bits(free & bm):
            out.append((cops, VIS, v, SNAP_FREE))
    unseen = free & ~bm
    if unseen:
        snap = unseen if ctx.mono else SNAP_FREE
        out.append((cops, INV, unseen, snap))
    return tuple(out)


def _expand(ctx: _Ctx, key: Key, moves) -> list[tuple[tuple[int, ...], tuple[Key, ...]]]:
    """One full round from a cop-to-move state, per action in moves
    ((action, occupancy mask, visibility mask) triples, as ctx.moves
    gives them).

    Returns one (action, successor keys) row per legal action, in the order
    of moves, with the successor keys sorted.  There is no dedupe by
    successor set: every successor carries its action as its cops, so only
    empty rows can repeat.  An empty successor tuple means the action wins
    on the spot (every branch terminal).  Monotonicity-violating actions
    are omitted entirely.

    Works on whole masks per action.  A ball holds its centre, so the
    occupancy mask lies inside the visibility mask: bm & ~am is where a
    sighted evader may stand and ~bm is out of sight.
    """
    cops, tag, payload, snap = key
    adjc = ctx.adjc
    out: list[tuple[tuple[int, ...], tuple[Key, ...]]] = []

    if tag == DEL:
        for a, am, _bm in moves:
            surv = payload & ~am
            succ = set()
            while surv:
                low = surv & -surv
                succ.add(adjc[low.bit_length() - 1] & ~am)
                surv ^= low
            out.append((a, tuple([(a, DEL, m, SNAP_FREE) for m in sorted(succ)])))
        return out

    see = ctx.see
    if tag == VIS:
        r = payload
        step = adjc[r]
        for a, am, bm in moves:
            if (am >> r) & 1:
                out.append((a, ()))
                continue
            esc = step & ~bm
            row = [(a, INV, esc, SNAP_FREE)] if esc else []
            if not see:
                vis = step & bm & ~am
                while vis:
                    low = vis & -vis
                    row.append((a, VIS, low.bit_length() - 1, SNAP_FREE))
                    vis ^= low
            out.append((a, tuple(row)))
        return out

    mono = ctx.mono
    # the monotone baseline: an unseen vertex outside the snapshot is illegal
    outside = ~snap if mono else 0
    grown_of = ctx.grown
    grow = ctx.g.grow
    for a, am, bm in moves:
        unseen = payload & ~bm
        if unseen & outside:
            continue
        vis = 0
        row = []  # the INV successors first; they share a, so sort by payload
        if not see:
            seen_now = payload & bm & ~am
            while seen_now:
                low = seen_now & -seen_now
                step = adjc[low.bit_length() - 1]
                vis |= step
                esc = step & ~bm
                if esc:
                    row.append((a, INV, esc, SNAP_FREE))
                seen_now ^= low
        if unseen:
            grown = grown_of.get(unseen)
            if grown is None:
                grown = grown_of[unseen] = grow(unseen)
            vis |= grown
            u2 = grown & ~bm
            if u2:
                row.append((a, INV, u2, unseen if mono else SNAP_FREE))
        if len(row) > 1:
            row = sorted(set(row))
        if not see:
            vis &= bm & ~am
            while vis:
                low = vis & -vis
                row.append((a, VIS, low.bit_length() - 1, SNAP_FREE))
                vis ^= low
        out.append((a, tuple(row)))
    return out


# -- turns: views over the kernel ------------------------------------------------


def _states(keys: Iterable[Key]) -> tuple[BeliefState, ...]:
    return tuple(BeliefState(*k) for k in keys)


def _round(ctx: _Ctx, state: BeliefState, cops: tuple[int, ...]) -> tuple[BeliefState, ...]:
    """The kernel's round on the one action cops; raises when it drops it."""
    rows = _expand(ctx, state, ((cops, *ctx.masks(cops)),))
    if not rows:
        raise MonotonicityViolation(f"moving to {cops} lets the unseen territory grow")
    return _states(rows[0][1])


def initial_branches(
    g: Graph, spec: GameSpec, placement: Iterable[int]
) -> tuple[BeliefState, ...]:
    """Adversary replies to the cops' opening placement.

    The evader picks any vertex off the cops.  Each seen pick is its own
    VIS state (terminal, so absent, under a seeing goal); unseen picks
    collapse into one territory state.  The time-delayed game starts from
    total ignorance.
    """
    spec = spec.resolve(g)
    cops = tuple(sorted(placement))
    if len(cops) != spec.cops:
        raise IllegalMove(f"expected {spec.cops} cops, got {len(cops)}")
    return _states(_initial_keys(_Ctx(g, spec), cops, g.full))


def cop_turn(
    g: Graph, spec: GameSpec, state: BeliefState, new_cops: Iterable[int]
) -> tuple[BeliefState, ...]:
    """Half-round: cops move, then the observation.  Returned states are
    mid-round (evader still to move); pass them to robber_turn.  Raises
    MonotonicityViolation exactly when the kernel drops the move."""
    ctx = _Ctx(g, spec.resolve(g))
    cops = tuple(sorted(new_cops))
    _match_step(g, state.cops, cops)
    if ctx.mono:  # the kernel drops moves under the monotone rule only
        _round(ctx, state, cops)
    if state.tag == VIS:
        # a sighted evader has not moved since it was pinpointed
        r = state.payload
        return () if (mask_of(cops) >> r) & 1 else (BeliefState(cops, VIS, r),)
    return _states(_initial_keys(ctx, cops, state.payload))


def robber_turn(g: Graph, spec: GameSpec, state: BeliefState) -> tuple[BeliefState, ...]:
    """Half-round: evader moves from a post-cop-move state, then the second
    observation.  This is the kernel's round with the cops passing."""
    return _round(_Ctx(g, spec.resolve(g)), state, state.cops)


def round_branches(
    g: Graph, spec: GameSpec, state: BeliefState, new_cops: Iterable[int]
) -> tuple[BeliefState, ...]:
    """Full round: cop half-move composed with every evader reply."""
    cops = tuple(sorted(new_cops))
    _match_step(g, state.cops, cops)
    return _round(_Ctx(g, spec.resolve(g)), state, cops)


# -- scripted sweeps ----------------------------------------------------------------


class ScriptError(ValueError):
    pass


@dataclass(frozen=True)
class Script:
    """Per-cop vertex walks of a common length; entry 0 is the placement.
    Consecutive entries must be equal or adjacent."""

    walks: tuple[tuple[int, ...], ...]

    @property
    def cops(self) -> int:
        return len(self.walks)

    @property
    def rounds(self) -> int:
        return len(self.walks[0]) - 1

    def validate(self, g: Graph) -> None:
        if not self.walks:
            raise ScriptError("script needs at least one cop")
        length = len(self.walks[0])
        if length < 1:
            raise ScriptError("walks must contain the placement entry")
        for w in self.walks:
            if len(w) != length:
                raise ScriptError("walks must share a common length")
            for v in w:
                if not 0 <= v < g.n:
                    raise ScriptError(f"vertex {v} out of range")
            for a, b in zip(w, w[1:]):
                if a != b and not (g.adj[a] >> b) & 1:
                    raise ScriptError(f"step {a}->{b} is not an edge")

    def positions(self, k: int) -> tuple[int, ...]:
        return tuple(sorted(w[k] for w in self.walks))


def dump_script(script: Script) -> str:
    return "\n".join(" ".join(str(v) for v in w) for w in script.walks) + "\n"


def load_script(text: str) -> Script:
    rows = []
    for ln in text.strip().splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        rows.append(tuple(int(x) for x in ln.split()))
    if not rows:
        raise ScriptError("empty script")
    return Script(tuple(rows))


@dataclass(frozen=True)
class CleaningReport:
    """Worst-case territory evolution under a script.

    snapshots[k] is the unseen territory right after the cops' k-th move
    (k=0 is the placement).  seen_guaranteed_at is the first round with no
    unseen vertex left: from then on the evader has certainly been seen.
    cleaned_at additionally demands that every sighting is convertible to a
    capture, which holds outright when nothing was ever merely seen, and on
    graphs with a simplicial elimination ordering; otherwise it is None.
    """

    rounds: int
    snapshots: tuple[VertexSet, ...]
    seen_events: tuple[tuple[int, int], ...]
    captured_events: tuple[tuple[int, int], ...]
    recontaminations: tuple[tuple[int, int], ...]
    located: tuple[tuple[int, int], ...]
    seen_guaranteed_at: int | None
    cleaned_at: int | None
    monotone: bool

    def to_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "territory_per_round": [sorted(bits(s)) for s in self.snapshots],
            "seen": [list(e) for e in self.seen_events],
            "captured": [list(e) for e in self.captured_events],
            "recontaminated": [list(e) for e in self.recontaminations],
            "located": [list(e) for e in self.located],
            "seen_guaranteed_at": self.seen_guaranteed_at,
            "cleaned_at": self.cleaned_at,
            "monotone": self.monotone,
        }


def simulate_script(g: Graph, spec: GameSpec, script: Script) -> CleaningReport:
    """Run the script against the worst case: keep the unseen-territory
    branch alive and log every sighting instead of chasing it.

    The returned report certifies seeing bounds.  Sighted branches are left
    to the strategy layer (on a graph where sight converts to capture the
    same cop count finishes the job, and cleaned_at says so).
    """
    spec = spec.resolve(g)
    script.validate(g)
    if script.cops != spec.cops:
        raise ScriptError(f"spec wants {spec.cops} cops, script has {script.cops}")
    from .graphs import is_chordal

    balls = g.balls(spec.ell)
    cops = script.positions(0)
    copmask = mask_of(cops)
    ball = _ball_union(balls, cops)
    territory = g.full & ~copmask & ~ball

    snapshots = [territory]
    seen_events: list[tuple[int, int]] = []
    captured_events: list[tuple[int, int]] = []
    recont: list[tuple[int, int]] = []
    located: list[tuple[int, int]] = []
    any_seen_start = g.full & ~copmask & ball
    for v in bits(any_seen_start):
        seen_events.append((0, v))
    if territory.bit_count() == 1:
        located.append((0, territory.bit_length() - 1))
    empty_at = 0 if territory == 0 else None

    for k in range(1, script.rounds + 1):
        # cop half of round k
        cops = script.positions(k)
        copmask = mask_of(cops)
        ball = _ball_union(balls, cops)
        for v in bits(territory & copmask):
            captured_events.append((k, v))
        territory &= ~copmask
        for v in bits(territory & ball):
            seen_events.append((k, v))
        territory &= ~ball
        regrown = territory & ~snapshots[-1]
        if regrown and spec.monotone:
            raise MonotonicityViolation(
                f"round {k} readmits {sorted(bits(regrown))}"
            )
        for v in bits(regrown):
            recont.append((k, v))
        snapshots.append(territory)
        if territory.bit_count() == 1 and snapshots[-2].bit_count() != 1:
            located.append((k, territory.bit_length() - 1))
        if empty_at is None and territory == 0:
            empty_at = k
        # evader half of round k; landing beside the cops is observed at once,
        # so a nonempty post-cop set can never empty here
        territory = g.grow(territory) & ~copmask
        for v in bits(territory & ball):
            seen_events.append((k, v))
        territory &= ~ball

    monotone = not recont
    if empty_at is not None and (not seen_events or is_chordal(g)):
        cleaned = empty_at
    else:
        cleaned = None
    return CleaningReport(
        rounds=script.rounds,
        snapshots=tuple(snapshots),
        seen_events=tuple(seen_events),
        captured_events=tuple(captured_events),
        recontaminations=tuple(recont),
        located=tuple(located),
        seen_guaranteed_at=empty_at,
        cleaned_at=cleaned,
        monotone=monotone,
    )


# -- policy playout -------------------------------------------------------------------


class CopPolicy(Protocol):
    def place(self, g: Graph, spec: GameSpec) -> tuple[int, ...]: ...

    def move(self, g: Graph, spec: GameSpec, state: BeliefState) -> tuple[int, ...]: ...


class RobberPolicy(Protocol):
    def place(self, g: Graph, spec: GameSpec, cops: tuple[int, ...]) -> int | None: ...

    def move(
        self, g: Graph, spec: GameSpec, state: BeliefState, robber: int
    ) -> int: ...


class Outcome(Enum):
    CAPTURED = "captured"
    SEEN = "seen"
    TIMEOUT = "timeout"


@dataclass
class Trace:
    outcome: Outcome
    rounds: int
    history: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome.value,
            "rounds": self.rounds,
            "history": self.history,
        }


def _observe(spec: GameSpec, g: Graph, cops: tuple[int, ...], robber: int) -> bool:
    ball = _ball_union(g.balls(spec.ell), cops)
    return bool((ball >> robber) & 1)


def play_match(
    g: Graph,
    spec: GameSpec,
    cop_policy: CopPolicy,
    robber_policy: RobberPolicy,
    max_rounds: int = 200,
) -> Trace:
    """Referee a full game between two policies.

    The cop policy sees only the belief state (its legitimate information);
    the evader policy sees everything.  The belief state is updated by the
    same transition rules the solver searches, with the branch realized by
    the evader's actual choice.
    """
    spec = spec.resolve(g)
    cops = tuple(sorted(cop_policy.place(g, spec)))
    opening = initial_branches(g, spec, cops)
    robber = robber_policy.place(g, spec, cops)
    trace = Trace(Outcome.TIMEOUT, 0)
    if robber is None:
        trace.outcome = Outcome.CAPTURED  # nowhere to stand
        return trace
    if (mask_of(cops) >> robber) & 1:
        raise IllegalMove("evader placed on a cop")
    if spec.see_goal and _observe(spec, g, cops, robber):
        trace.outcome = Outcome.SEEN
        return trace
    state = _realized(g, opening, robber)

    for rnd in range(1, max_rounds + 1):
        trace.rounds = rnd
        new_cops = tuple(sorted(cop_policy.move(g, spec, state)))
        mid = cop_turn(g, spec, state, new_cops)
        entry = {"round": rnd, "cops": list(new_cops), "robber": robber}
        trace.history.append(entry)
        if (mask_of(new_cops) >> robber) & 1:
            trace.outcome = Outcome.CAPTURED
            return trace
        seen_now = not spec.delayed and _observe(spec, g, new_cops, robber)
        entry["seen_after_cops"] = seen_now
        if seen_now and spec.see_goal:
            trace.outcome = Outcome.SEEN
            return trace
        state = _realized(g, mid, robber)

        nxt = robber_policy.move(g, spec, state, robber)
        if nxt not in list(bits(g.adj_closed[robber] & ~mask_of(new_cops))):
            raise IllegalMove(f"evader move {robber}->{nxt} illegal")
        prev = robber
        robber = nxt
        entry["robber_to"] = robber
        seen_now = not spec.delayed and _observe(spec, g, new_cops, robber)
        entry["seen_after_robber"] = seen_now
        if seen_now and spec.see_goal:
            trace.outcome = Outcome.SEEN
            return trace
        after = robber_turn(g, spec, state)
        state = _realized(g, after, robber, prev)
    return trace


def _branch(
    g: Graph,
    states: tuple[BeliefState, ...],
    robber: int,
    delayed_prev: int | None = None,
) -> BeliefState | None:
    """The ongoing state that holds the evader's vertex, or None when the
    cops won every branch holding it.  This is the one rule that puts an
    evader vertex into its belief branch, for the referee and SolvedRobber.

    Matching is structural: a VIS state persists through the cops'
    half-move even when their balls no longer cover the evader, because the
    evader has not moved since it was pinpointed.  A DEL state is matched
    by the disclosed pre-move vertex; before any disclosure it is the only
    state.
    """
    for s in states:
        if s.tag == DEL:
            if delayed_prev is None or s.payload == g.adj_closed[delayed_prev] & ~mask_of(s.cops):
                return s
        elif s.tag == VIS:
            if s.payload == robber:
                return s
        elif (s.payload >> robber) & 1:
            return s
    return None


def _realized(g: Graph, states, robber: int, delayed_prev: int | None = None) -> BeliefState:
    """The referee's branch: the game is still on, so one must hold the evader."""
    s = _branch(g, states, robber, delayed_prev)
    if s is None:
        raise AssertionError("no branch consistent with the evader's position")
    return s


# -- convenience policies ---------------------------------------------------------


@dataclass
class ScriptedCops:
    """Replay a script as a cop policy (ignores observations)."""

    script: Script
    _round: int = 0

    def place(self, g: Graph, spec: GameSpec) -> tuple[int, ...]:
        self._round = 0
        return self.script.positions(0)

    def move(self, g: Graph, spec: GameSpec, state: BeliefState) -> tuple[int, ...]:
        self._round = min(self._round + 1, self.script.rounds)
        return self.script.positions(self._round)


@dataclass
class RandomRobber:
    """Seeded random evader; places as far from the cops as possible."""

    seed: int = 0

    def __post_init__(self) -> None:
        import random

        self._rng = random.Random(self.seed)

    def place(self, g: Graph, spec: GameSpec, cops: tuple[int, ...]) -> int | None:
        free = [v for v in range(g.n) if v not in cops]
        if not free:
            return None
        far = max(min(g.dist[c][v] for c in cops) for v in free)
        pool = [v for v in free if min(g.dist[c][v] for c in cops) == far]
        return self._rng.choice(pool)

    def move(self, g: Graph, spec: GameSpec, state: BeliefState, robber: int) -> int:
        moves = list(bits(g.adj_closed[robber] & ~mask_of(state.cops)))
        return self._rng.choice(moves)
