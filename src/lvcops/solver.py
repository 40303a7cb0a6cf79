"""Exact solving of the pursuit games: expanding each to closure, then
answering by retrograde analysis, by antichains or, where nothing is ever
sighted, by a walk search.

The game is an AND-OR reachability game over belief states: the cops pick
an action (OR), then every adversary-consistent branch must already be
winning (AND).  Infinite play is an evader win, so the winning set is the
least fixpoint: seed the states with an action whose branches are all
terminal, then propagate backwards with per-(state, action) unmet-branch
counters.

The rules are not restated here: the belief states, the opening split
(_initial_keys) and the one-round expansion (_expand) are the transition
kernel in engine; this module is the search over it.  The exceptions are
the closed forms of a round: the kernel's own wave rule (_wave_keys),
which solve interns by, and those of decide, of its point fixpoint and of
the walk search (below), which the tests hold to _expand.

Layout of a solve:
  1. enumerate every opening placement (sorted multisets) and intern the
     root belief states the kernel's opening split gives (_open);
  2. intern the reachable set breadth-first to closure, serially: a wave
     is the set of states first reached from the last one, so the waves,
     the state count and everything derived from them are fixed by the
     graph and the spec alone.  A VIS state is a root, so every one of
     them is in the first wave.  In every game but the monotone one
     (_close_waves) a wave's successors come from engine._wave_keys, per
     action over the whole wave's masks, with no kernel row per state,
     and its new states are interned by action id, then by packed key.
     The monotone game (_retrograde) is expanded state by state with the
     kernel (one round per legal cop action), interning in discovery order;
  3. answer.  The monotone game is answered by the retrograde propagation,
     in the same function as its closure.  That closure also gives each
     (state, action) pair with a nonempty successor set one slot in flat
     arrays: its unmet successor count, its state and its action id, plus
     per-state arrays of the slots that wait on that state.  A kernel row
     names its sighted (VIS) successors by a vertex mask; each of them is
     a root, interned in step 1.  Wins propagate wave-synchronously over
     the slots: a state's wave is the number of cop moves needed against
     the worst adversary, and the recorded action is the first to
     complete, under a fixed enumeration order.  The cops win iff some
     placement has every root branch won.  Every other game's won states
     are closed downward, and its closure keeps no slots: once it
     completes, the walk search answers an open-loop game and decide any
     other, from the closure's context, with the winner, depth and
     placement the propagation gives.

The store is compact: a state is the kernel's packed int (see engine._Ctx)
mapped to its row in one dict, and every per-slot and per-row table is an
int32 array, as is each state's list of waiting slots.  The slot tables
are local to _retrograde, which builds them and propagates over them.

The state budget is a hard cap on interned states.  Hitting it aborts with
winner INCONCLUSIVE and states equal to the cap, never a guessed answer.
The cut comes in the closure, in the wave whose new states bring the count
past the budget, before any answer is sought, so budgeted runs are
reproducible too, and _retrograde and _close_waves stop at the same count
with the same wave sizes.  A budget below 1 is refused.

Deciding without states (decide).  In every game but the monotone one the
won states are closed downward in the territory: each successor of a
kernel row grows with the territory (grow is a union of closed
neighbourhoods), so a smaller territory's successors lie below a larger
one's.  A won set is then kept as its maximal territories, an antichain
(the lattice method of De Wulf, Doyen & Raskin, HSCC 2006).  Per cops
tuple c, X[c] holds the maximal territories won within w cop moves and
V[c] the vertices on which a sighted evader is won within w.  Level w + 1
is made from level w alone: with nb = nvis[a], s = sight[a] and
B = s & ~V[a] (engine._Ctx), the action a wins a sighted evader on
ok_a = occ[a] | ~grow(B) & ~meet(grow(nb & ~M)), and into each M of X[a]
(or M = 0) it wins the territory
(vis[a] & ~s) | (s & ok_a) | nb & ~grow((nb & ~M) | B), since
{u : N[u] ∩ D = ∅} = ~grow(D).  These are offered, cut to their domain,
to every tuple one step from a.

The time-delayed game needs no antichains (_decide_points).  Its cops
learn the evader's previous vertex at the end of every round, so after
the opening every state is (a, N[v] & free[a]), free[a] the vertices off
a's cops and v the disclosed vertex: a point, not a territory.  The won
set of a is then one mask Q[a] of such v.  Level w + 1 is made from level
w alone: Q[a] gains free[a] & ~grow(free[a] & ~(occ[b] | Q[b])) for each
b in moves[a], and only a b whose Q[b] changed at level w can add
anything.  The root (c, free[c]) is won at level w + 1 when some b in
moves[c] has free[c] inside occ[b] | Q[b].

In both fixpoints a wave is a property of the state, so the first level
at which some placement has every root won is solve's depth, the first
such placement in placement order is solve's placement, and a level that
changes nothing means the evader wins.

Walking the open-loop games (_clearing_walk).  Under a seeing goal, and
at radius 0, nothing is ever sighted: the cops learn nothing until they
win, so a cop strategy is a fixed walk, and each kernel row has at most
one successor.  A breadth-first search from the placements' roots finds
the shortest clearing walk; its first winning level and placement are
solve's depth and placement, and it visits only states a solve interns.

cop_number walks the open-loop games and calls decide on the rest, but
only where no solve could reach the budget: a state is one cops tuple
and either a nonempty vertex set or one vertex, so a budget of
comb(n + k - 1, k) * (2**n + n) states cannot bind, and the budget stops
stay exactly as they were; with retrograde set it solves every count,
which interns every state, so each budget stop is met, and then answers
by the same walk or decide.  decide keeps the antichains for the open-loop games too: beyond that
guard the walk's states outgrow them.

decide's levels are also a strategy.  Each territory kept in X[c] is
recorded with its level and the action that won it, and stays recorded
when a larger one displaces it; so does each vertex added to V[c], each
growth of Q[c] and each won root of the time-delayed game.  A state plays
the action of the lowest-level record above it (holding a vertex whose
point it is), and every successor of that action is terminal or has a
lower level.  decide stops at the winning level before inserting its
territories: it inserts only the winning placement's root, the one
territory of that level that play reads from the placement.  Run to its
fixpoint instead (stop=False), with no depth-0 shortcut, it wins exactly
the states the retrograde propagation wins, each at its wave: that run is
a solved outcome's strategy in every game but the monotone one
(SolveOutcome.play).  profile replays the capture strategy cop_number
found, these levels or a clearing walk, under the monotone rule
(_monotone_number) to get a monotone number without a monotone solve.
"""

from __future__ import annotations

import math
import os
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from enum import Enum
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping

from .engine import (
    DEL,
    INV,
    VIS,
    BeliefState,
    GameSpec,
    Key,
    Variant,
    _branch,
    _Ctx,
    _expand,
    _initial_keys,
    _tuples,
    _vis_keys,
    _wave_keys,
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


class StateIndex(Mapping):
    """Read-only view of a solve's packed state table: key tuple -> row.

    get packs the key through the solve's codec, and a key outside the
    codec's domain (a wrong cop count, unsorted cops, a vertex the graph
    lacks, payload or snapshot bits beyond the graph) is simply absent.
    Iteration decodes the packed ints back to plain key tuples, in
    interning order.
    """

    __slots__ = ("_ctx", "_rows")

    def __init__(self, ctx: _Ctx, rows: dict[int, int]) -> None:
        self._ctx = ctx
        self._rows = rows

    def get(self, key, default=None):
        p = self._ctx.find(key)
        return default if p is None else self._rows.get(p, default)

    def __getitem__(self, key) -> int:
        i = self.get(key)
        if i is None:
            raise KeyError(key)
        return i

    def __contains__(self, key) -> bool:
        return self.get(key) is not None

    def __iter__(self) -> Iterator[Key]:
        return map(self._ctx.decode, self._rows)

    def __len__(self) -> int:
        return len(self._rows)


@dataclass(frozen=True)
class SolveOutcome:
    """Result of one fixed-cop-count solve.

    states counts distinct interned belief states; wave_sizes are the
    expansion frontier sizes; depth is the optimal worst-case number of
    cop moves (the chosen placement attains it; 0 means the placement
    covers the graph).

    index maps each interned state key to its row, in interning order: a
    StateIndex over the solve's packed-int table, empty when INCONCLUSIVE.

    play is the cops' strategy in a decided game, which SolvedCops and
    SolvedRobber read: a won state's level, the cop moves that win it
    against the worst adversary (its wave), and an action each successor of
    which is terminal or of a lower level.  It is the retrograde run's
    (retrograded) in the monotone game, and decide's fixpoint run to its end
    in any other, built on first use (the module docstring).
    """

    winner: Winner
    states: int
    wave_sizes: tuple[int, ...]
    depth: int | None
    placement: tuple[int, ...] | None
    graph: Graph
    spec: GameSpec
    index: Mapping[Key, int] = field(default_factory=dict, repr=False)
    retrograded: _Retrograded | None = field(default=None, repr=False, compare=False)

    @cached_property
    def strategy(self) -> _Retrograded | _Antichains | _Points:
        if self.retrograded is not None:
            return self.retrograded
        if self.winner is Winner.INCONCLUSIVE:
            raise ValueError("a budget stop has no strategy")
        return _decide(self.graph, self.spec, stop=False)[3]

    def play(self, state) -> tuple[int, tuple[int, ...]]:
        """(level, action) of a state the cops win, the action as a cops
        tuple; KeyError for any other state."""
        fx, ctx = self.strategy, self.index._ctx
        key = ctx.find(state)
        if key is None:
            raise KeyError(state)
        level, a = fx.play(key)
        return level, ctx.cops_of[a]

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


def _check_cop_count(g: Graph, spec: GameSpec) -> None:
    if spec.cops > g.n:
        raise ValueError(
            f"{spec.cops} cops on a graph of order {g.n}; at most {g.n} are ever needed"
        )


def solve(
    g: Graph,
    spec: GameSpec,
    *,
    budget: int = DEFAULT_BUDGET,
) -> SolveOutcome:
    """Decide the game at spec.cops cops; see the module docstring.

    More cops than vertices is refused: n cops always win, and the cop
    moves are enumerated as a product over the cops, so a large count
    stalls before the first state is interned.
    """
    _check_cop_count(g, spec)
    spec = spec.resolve(g)
    if spec.monotone:
        return _retrograde(g, spec, budget=budget)
    cl = _close_waves(g, spec, budget)
    if cl.stopped:
        return cl.inconclusive(spec, budget)
    search = _clearing_walk if _open_loop(spec) else _decide
    winner, depth, placement, _ = search(g, spec, cl.ctx)
    cl.ctx.forget()  # the outcome's index needs only the codec
    return SolveOutcome(
        winner, len(cl.index), tuple(cl.wave_sizes), depth, placement, g, spec,
        StateIndex(cl.ctx, cl.index),
    )


def _retrograde(g: Graph, spec: GameSpec, *, budget: int = DEFAULT_BUDGET) -> SolveOutcome:
    """solve by the retrograde propagation over the slots (the module
    docstring, steps 1 to 3), with its waves as the outcome's strategy: the
    solve of the monotone game, whose won states are not closed downward,
    and the tests' oracle for any other.  Its closure expands the reachable
    states state by state with the kernel, interning in discovery order and
    keeping the slots, or stops at the budget."""
    _check_cop_count(g, spec)
    spec = spec.resolve(g)
    cl, keys = _open(g, spec, budget)
    if cl.stopped:
        return cl.inconclusive(spec, budget)
    ctx, index, wave_sizes = cl.ctx, cl.index, cl.wave_sizes
    # preds[j] lists the slots, one per (state, action) pair with a nonempty
    # successor set, that have j among their successors.  Slots are made in
    # ascending (state, action) order, so each preds array is too.
    preds = [array("i") for _ in keys]
    remaining = array("i")  # unmet successors per slot
    slot_state = array("i")
    slot_action = array("i")
    action = array("i")  # per expanded state: a winning action id, or -1
    seeds: list[int] = []  # states with an action that wins on the spot

    # States are interned in discovery order and expanded in index order:
    # each wave is the run of indices interned while expanding the last.
    moves = ctx.tab.moves()
    cmask, ps, vtag = ctx.cmask, ctx.ps, VIS << ctx.cb
    get = index.get
    lo, hi = 0, len(keys)
    while lo < hi:
        wave_sizes.append(hi - lo)
        for i in range(lo, hi):
            key = keys[i]
            rows = _expand(ctx, key, moves[key & cmask])
            win = -1
            for a, succ_keys, seen in rows:
                if not (succ_keys or seen):
                    win = a
                    break
            action.append(win)
            if win < 0:
                for a, succ_keys, seen in rows:
                    slot = len(remaining)
                    remaining.append(len(succ_keys) + seen.bit_count() if seen else len(succ_keys))
                    slot_state.append(i)
                    slot_action.append(a)
                    for sk in succ_keys:
                        j = get(sk)
                        if j is None:
                            j = len(keys)
                            if j >= budget:
                                return cl.inconclusive(spec, budget)
                            index[sk] = j
                            keys.append(sk)
                            preds.append(array("i"))
                        preds[j].append(slot)
                    if seen:
                        # each sighted successor is a root, interned already
                        base = a | vtag
                        while seen:
                            low = seen & -seen
                            preds[index[base | (low.bit_length() - 1) << ps]].append(slot)
                            seen ^= low
                continue
            # won at wave 1 whatever its other actions do.  Its successors
            # are interned all the same, so the interning order does not
            # depend on which states win.  The sighted ones are roots,
            # interned already
            seeds.append(i)
            for _, succ_keys, _ in rows:
                for sk in succ_keys:
                    if get(sk) is None:
                        j = len(keys)
                        if j >= budget:
                            return cl.inconclusive(spec, budget)
                        index[sk] = j
                        keys.append(sk)
                        preds.append(array("i"))
        lo, hi = hi, len(keys)

    n_states = len(keys)
    del keys  # the propagation reads rows only: free the list before its tables
    won = bytearray(n_states)
    wave_of = array("i", bytes(4 * n_states))
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
                        action[i] = slot_action[slot]
                        nxt.append(i)
        current = nxt

    win_placement = None
    depth = None
    for p, roots in cl.roots:
        if all(won[i] for i in roots):
            d = max((wave_of[i] for i in roots), default=0)
            if depth is None or d < depth:
                win_placement, depth = p, d

    winner = Winner.COPS if win_placement is not None else Winner.ROBBER
    ctx.forget()  # the outcome's index needs only the codec
    return SolveOutcome(
        winner, n_states, tuple(wave_sizes), depth, win_placement, g, spec,
        StateIndex(ctx, index), _Retrograded(index, won, wave_of, action),
    )


class _Retrograded:
    """The retrograde propagation's strategy, per row of the packed key ->
    row index: the won flag, the wave of a won row and the action id of its
    recorded first-completing action."""

    __slots__ = ("rows", "won", "wave", "action")

    def __init__(self, rows: dict[int, int], won: bytearray, wave: array, action: array) -> None:
        self.rows, self.won, self.wave, self.action = rows, won, wave, action

    def play(self, key: int) -> tuple[int, int]:
        """(wave, action id) of the won state with the packed key; KeyError
        for any other."""
        i = self.rows.get(key)
        if i is None or not self.won[i]:
            raise KeyError(f"state {key} is not won")
        return self.wave[i], self.action[i]


class _Closure:
    """What interning a game's reachable states leaves: the context, the
    packed key -> row index, the wave sizes, the placements' root rows and
    whether the budget stopped it."""

    __slots__ = ("ctx", "index", "wave_sizes", "stopped", "roots")

    def __init__(self, ctx: _Ctx) -> None:
        self.ctx = ctx
        self.index: dict[int, int] = {}  # packed key -> row
        self.wave_sizes: list[int] = []
        self.stopped = False
        self.roots: list[tuple[tuple[int, ...], tuple[int, ...]]] = []  # placement, root rows

    def inconclusive(self, spec: GameSpec, budget: int) -> SolveOutcome:
        return SolveOutcome(Winner.INCONCLUSIVE, budget, tuple(self.wave_sizes), None, None, self.ctx.g, spec)


def _open(g: Graph, spec: GameSpec, budget: int) -> tuple[_Closure, list[int]]:
    """Intern the roots of the resolved game (the module docstring's step
    1), or stop at the budget: the closure so far and its keys by row."""
    if budget < 1:
        raise ValueError(f"a state budget must be at least 1, got {budget}")
    # the table's ids are given out as the roots reach them, so a budget
    # stop among the roots lists no more placements than it met
    ctx = _Ctx(g, spec, _tuples(g, spec.cops))
    cl = _Closure(ctx)
    index = cl.index
    keys: list[int] = []
    for p in ctx.tab.placements():
        roots = []
        for k in _initial_keys(ctx, ctx.cid(p), g.full):
            i = index.get(k)
            if i is None:
                if len(keys) >= budget:
                    cl.stopped = True
                    return cl, keys
                i = index[k] = len(keys)
                keys.append(k)
            roots.append(i)
        cl.roots.append((p, tuple(roots)))
    return cl, keys


def _close_waves(g: Graph, spec: GameSpec, budget: int) -> _Closure:
    """Intern the roots of a resolved game other than the monotone one and
    its reachable states, a wave at a time, or stop at the budget (the
    module docstring's steps 1 and 2).  A wave's successors come from
    engine._wave_keys over the whole wave, per action, with no row per
    state; its new states are interned by action id, then by packed key.
    Each key carries its action, so no two actions share a new state: the
    new states are counted action by action, and the stop comes at the
    first action whose new states bring the count past the budget.  The
    state count, the wave sizes and the budget stops are _retrograde's."""
    cl, keys = _open(g, spec, budget)
    if cl.stopped:
        return cl
    ctx, index, wave_sizes = cl.ctx, cl.index, cl.wave_sizes
    lo, hi = 0, len(keys)
    while lo < hi:
        wave_sizes.append(hi - lo)
        # the sighted successors are roots, interned already
        for _, succ in _wave_keys(ctx, keys[lo:hi]):
            new = [k for k in succ if k not in index]
            if new:
                j = len(keys)
                if j + len(new) > budget:
                    cl.stopped = True
                    return cl
                new.sort()
                index.update(zip(new, range(j, j + len(new))))
                keys += new
        lo, hi = hi, len(keys)
    return cl


class _Levels:
    """What the strategies of decide and the walk search share: play reads
    a state by its packed key in the game's context."""

    __slots__ = ("cmask", "cb", "ps")

    def __init__(self, ctx: _Ctx) -> None:
        self.cmask, self.cb, self.ps = ctx.cmask, ctx.cb, ctx.ps

    def play(self, key: int) -> tuple[int, int]:
        """(level, action id) of the won state with the packed key: each
        successor of the action is terminal or has a lower level, so play
        wins within level rounds.  KeyError for a state it does not win."""
        hit = self._play(key & self.cmask, key >> self.cb & 3, key >> self.ps)
        if hit is None:
            raise KeyError(f"state {key} is not won")
        return hit


class _Antichains(_Levels):
    """decide's won sets of one game at one level of the fixpoint (see the
    module docstring), per cops tuple id c of the game's context, whose
    ids are the placements in order (engine._tuples).

    dom[c] holds every territory of c, the vertices out of sight.  X[c]
    maps each maximal won territory M to grow(dom[c] & ~M), the vertices
    with a step outside M, and inter[c] is the meet of those values and of
    grow(dom[c]) (M = 0).  V[c] holds the vertices on which a sighted
    evader is won.

    The levels are the cops' strategy.  kept[c] records every territory
    X[c] ever held, displaced ones included, as (level, territory, action)
    in the order they came, and sighted[c] every addition to V[c] as
    (level, vertices, action); play reads a state's move off them.  A run
    that stops at the winning level inserts of it only the winning
    placement's root territory.
    """

    __slots__ = ("full", "grow", "occ", "dom", "sight", "X", "inter", "V", "kept", "sighted")

    def __init__(self, g: Graph, ctx: _Ctx) -> None:
        super().__init__(ctx)
        self.full, self.grow = g.full, g.grow
        self.occ = ctx.occ
        self.dom = [g.full & m for m in ctx.nvis]
        self.sight = ctx.sight
        self.X: list[dict[int, int]] = [{} for _ in ctx.occ]
        self.inter = list(map(self.grow, self.dom))
        self.V = [0] * len(ctx.occ)
        self.kept: list[list[tuple[int, int, int]]] = [[] for _ in ctx.occ]
        self.sighted: list[list[tuple[int, int, int]]] = [[] for _ in ctx.occ]

    def insert_all(self, c: int, got: dict[int, int], level: int) -> bool:
        """Add each territory t of got, won at level by the action got[t],
        to X[c] unless it lies below one there already, the largest first
        so that fewer are displaced again; whether X[c] changed."""
        xc, kept, d, grow = self.X[c], self.kept[c], self.dom[c], self.grow
        inter = self.inter[c]
        size = len(kept)
        for t in sorted(got, key=int.bit_count, reverse=True):
            if t in xc:
                continue
            for m in xc:
                if t | m == m:
                    break
            else:
                for m in [m for m in xc if m | t == t]:
                    del xc[m]
                h = xc[t] = grow(d & ~t)
                inter &= h
                kept.append((level, t, got[t]))
        self.inter[c] = inter
        return len(kept) > size

    def see(self, c: int, ok: int, level: int, a: int) -> bool:
        """Add the vertices of ok in sight of c, won at level by the action
        a, to V[c]; False if it holds them already."""
        new = ok & self.sight[c] & ~self.V[c]
        if not new:
            return False
        self.V[c] |= new
        self.sighted[c].append((level, new, a))
        return True

    def _play(self, c: int, tag: int, payload: int) -> tuple[int, int] | None:
        """For a sighted evader, the record with which its vertex joined
        V[c]; otherwise that of the lowest-level territory kept above
        payload."""
        if tag == VIS:
            for level, m, a in self.sighted[c]:
                if m >> payload & 1:
                    return level, a
        else:
            for level, m, a in self.kept[c]:
                if payload | m == m:
                    return level, a

    def offers(self, a: int) -> tuple[int, set[int]]:
        """What the action a wins into its won sets: the vertices ok on
        which a sighted evader is won (a's cops stand on it, or every step
        from it is won), and for each M in X[a] (or M = 0) the greatest
        territory that a wins into M."""
        full, occ, inter = self.full, self.occ[a], self.inter[a]
        nb, s = self.dom[a], self.sight[a]
        gb = self.grow(s & ~self.V[a])  # a step onto a lost sighted vertex
        ok = (occ | ~(gb | inter)) & full
        base = full & ~nb & ~s | s & ok
        return ok, {base | nb & ~(h | gb) for h in self.X[a].values() or (inter,)}


class _Points(_Levels):
    """decide's won sets of the time-delayed game (see the module
    docstring), per cops tuple id c in placement order.  free[c] holds the
    vertices off c's cops, and Q[c] the disclosed vertices v whose state
    (c, N[v] & free[c]) is won.

    The levels are the cops' strategy.  grew[c] records each growth of
    Q[c] as (level, vertices, action), in level order, and root[c] the
    (level, action) of the won root (c, free[c]), only the winning
    placement's in a run that stops; play reads a state's move off them.
    """

    __slots__ = ("adjc", "free", "Q", "grew", "root")

    def __init__(self, g: Graph, ctx: _Ctx) -> None:
        super().__init__(ctx)
        self.adjc = g.adj_closed
        self.free = [g.full & ~m for m in ctx.occ]
        self.Q = [0] * len(ctx.occ)
        self.grew: list[list[tuple[int, int, int]]] = [[] for _ in ctx.occ]
        self.root: dict[int, tuple[int, int]] = {}

    def _play(self, c: int, tag: int, payload: int) -> tuple[int, int] | None:
        """The root's record, or the lowest-level record holding some v
        with N[v] & free[c] == payload."""
        adjc, free = self.adjc, self.free[c]
        if tag == DEL and payload == free and c in self.root:
            return self.root[c]
        for level, m, a in self.grew[c] if tag == DEL else ():
            for v in bits(m):
                if adjc[v] & free == payload:
                    return level, a


def decide(
    g: Graph, spec: GameSpec
) -> tuple[Winner, int | None, tuple[int, ...] | None]:
    """The winner, depth and placement that solve gives, for any game but
    the monotone one, by the antichain fixpoint of the module docstring.
    Nothing is interned, so there is no budget and no INCONCLUSIVE."""
    return _decide(g, spec)[:3]


def _decide(
    g: Graph, spec: GameSpec, ctx: _Ctx | None = None, *, stop: bool = True
) -> tuple[Winner, int | None, tuple[int, ...] | None, _Antichains | _Points]:
    """decide, with its won sets (the time-delayed game's points, any
    other game's antichains): on a cops win, fx.play is a winning strategy
    from the placement, over packed keys of the game's context.  ctx, if
    given, is a context of the game whose table is complete.

    With stop False the fixpoint runs to its end, from level 1 even where
    a placement wins at depth 0, so that fx.play is defined on every won
    state; the winner, depth and placement are the same."""
    _check_cop_count(g, spec)
    spec = spec.resolve(g)
    if spec.monotone:
        raise ValueError("the monotone game's won states are not closed downward")
    ctx = ctx or _Ctx(g, spec)
    if spec.delayed:
        return _decide_points(g, ctx, stop)
    placements, moves = ctx.cops_of, ctx.tab.moves()
    fx = _Antichains(g, ctx)
    dom, sight, V = fx.dom, fx.sight, fx.V
    sighted = any(sight)
    # the first winning (depth, placement)
    won = next(((0, p) for c, p in enumerate(placements) if not (sight[c] or dom[c])), None)
    if won and stop:
        return Winner.COPS, *won, fx

    # Level w holds what is won within w cop moves and is made from level
    # w - 1 alone.  An action whose X and V stayed put offers what it
    # offered before, and a territory it offered once is not offered again.
    sent: list[set[int]] = [set() for _ in placements]
    dirty: Iterable[int] = range(len(placements))
    depth = 0
    while dirty:
        depth += 1
        handed = []
        for a in dirty:
            ok, news = fx.offers(a)
            news -= sent[a]
            sent[a] |= news
            handed.append((a, ok, news))
        changed = set()
        # per tuple, each territory offered to it -> the first action offering it
        offers: defaultdict[int, dict[int, int]] = defaultdict(dict)
        for a, ok, news in handed:
            # a step is reversible, so the predecessors of a are moves[a]
            pre = moves[a]
            if sighted:
                for c in pre:
                    if fx.see(c, ok, depth, a):
                        changed.add(c)
            for t in news:
                for c in pre:
                    offers[c].setdefault(t & dom[c], a)
        # a placement is won here once every sighted root is and its
        # territory is held or offered (an offer is cut to dom, so one that
        # covers the territory equals it); a stop leaves the winning level
        # out, but for the winning root, which is all play reads from it
        for c in () if won else sorted(changed.union(offers)):
            if sight[c] & ~V[c]:
                continue
            r, got = dom[c], offers.get(c, {})
            if r and r not in fx.X[c] and r not in got:
                continue
            won = depth, placements[c]
            if stop:
                if r and r in got:
                    fx.insert_all(c, {r: got[r]}, depth)
                return Winner.COPS, *won, fx
            break
        for c, got in offers.items():
            got.pop(0, None)
            if fx.insert_all(c, got, depth):
                changed.add(c)
        dirty = sorted(changed)
    return (Winner.COPS, *won, fx) if won else (Winner.ROBBER, None, None, fx)


def _decide_points(
    g: Graph, ctx: _Ctx, stop: bool
) -> tuple[Winner, int | None, tuple[int, ...] | None, _Points]:
    """_decide for the time-delayed game, by the point fixpoint of the
    module docstring, over the complete table of ctx."""
    placements, moves = ctx.cops_of, ctx.tab.moves()
    fx = _Points(g, ctx)
    free, Q, grew, grow, grown = fx.free, fx.Q, fx.grew, g.grow, ctx.grown
    # the first winning (depth, placement)
    won = next(((0, p) for c, p in enumerate(placements) if not free[c]), None)
    if won and stop:
        return Winner.COPS, *won, fx

    # Level w is made from level w - 1 alone, and only through the tuples
    # whose Q changed at w - 1 (at level 1, every tuple's Q_0 = 0 is new):
    # lost[b] is what b's cops neither stand on nor have won.  A root whose
    # actions all kept their Q was checked at an earlier level already.
    changed: Iterable[int] = range(len(placements))
    depth = 0
    while changed:
        depth += 1
        lost = {b: free[b] & ~Q[b] for b in changed}
        got = []
        # a step is reversible, so the tuples one step from b are moves[b]
        for a in sorted({a for b in lost for a in moves[b]}):
            fa, qa = free[a], Q[a]
            for b in moves[a]:
                x = lost.get(b)
                if x is None:
                    continue
                x &= fa
                if not x:
                    # the root (a, free[a]) is won here; a stop leaves the
                    # level out
                    if a not in fx.root:
                        fx.root[a] = depth, b
                        won = won or (depth, placements[a])
                        if stop:
                            return Winner.COPS, *won, fx
                h = grown.get(x)
                if h is None:
                    h = grown[x] = grow(x)
                new = fa & ~h & ~qa
                if new:
                    qa |= new
                    got.append((a, new, b))
        for a, new, b in got:
            Q[a] |= new
            grew[a].append((depth, new, b))
        changed = {a for a, _, _ in got}
    return (Winner.COPS, *won, fx) if won else (Winner.ROBBER, None, None, fx)


def _open_loop(spec: GameSpec) -> bool:
    """Whether the cops of the resolved game learn nothing until they win:
    under a seeing goal a sighting ends the game, and at radius 0 a cop
    sees only its own vertex, so no state is ever sighted."""
    return spec.see_goal or spec.variant is Variant.CAPTURE and spec.ell == 0


class _Walk(_Levels):
    """The clearing walk _clearing_walk found, as a strategy: each state on
    it, keyed (cops tuple id, territory), with its level (the rounds left)
    and the action it plays, whose successor, if any, is the next state."""

    __slots__ = ("steps", "states")

    def __init__(self, ctx: _Ctx, steps: dict[tuple[int, int], tuple[int, int]], states: int) -> None:
        super().__init__(ctx)
        self.steps = steps
        self.states = states  # how many states the search visited

    def _play(self, c: int, tag: int, payload: int) -> tuple[int, int] | None:
        return self.steps.get((c, payload)) if tag == INV else None


def _clearing_walk(
    g: Graph, spec: GameSpec, ctx: _Ctx | None = None
) -> tuple[Winner, int | None, tuple[int, ...] | None, _Walk]:
    """decide for an open-loop game (see _open_loop), by a breadth-first
    search for the shortest clearing walk; on a cops win, the walk from the
    placement is the strategy.

    No state is sighted, so a kernel row of the territory T for the action
    a has at most one successor, the INV territory grow(T & nb) & nb with
    nb = nvis[a], and none, a win, exactly when T & nb is 0 (grow keeps its
    argument).  A state's wave is one more than the least over its actions
    of its successor's, so the first level holding a state with a winning
    action is solve's depth.  Levels are expanded in order, each state
    once, so a level runs in the order of the least placement reaching its
    states there and each state keeps the path from that placement: the
    first winning state of the level is reached from solve's placement.
    Every state visited is one a solve from the same roots interns.  ctx,
    if given, is a context of the game whose table is complete.
    """
    _check_cop_count(g, spec)
    spec = spec.resolve(g)
    if not _open_loop(spec):
        raise ValueError("only a game with nothing ever sighted is won by a walk")
    ctx = ctx or _Ctx(g, spec)
    placements, moves = ctx.cops_of, ctx.tab.moves()
    nb = [g.full & m for m in ctx.nvis]
    for c, p in enumerate(placements):
        if not nb[c]:
            return Winner.COPS, 0, p, _Walk(ctx, {}, 0)

    # a state is the kernel's packed key of (cops tuple c, INV, territory T)
    ps, cmask = ctx.ps, ctx.cmask
    frontier = [c | t << ps for c, t in enumerate(nb)]
    parent = dict.fromkeys(frontier, -1)
    grown, grow = ctx.grown, g.grow
    depth = 0
    while frontier:
        depth += 1
        for key in frontier:
            t = key >> ps
            for a in moves[key & cmask]:
                if not t & nb[a]:
                    path = [key]
                    while parent[path[-1]] >= 0:
                        path.append(parent[path[-1]])
                    path.reverse()
                    acts = [s & cmask for s in path[1:]] + [a]
                    steps = {
                        (s & cmask, s >> ps): (depth - i, act)
                        for i, (s, act) in enumerate(zip(path, acts))
                    }
                    return Winner.COPS, depth, placements[path[0] & cmask], _Walk(ctx, steps, len(parent))
        nxt = []
        for key in frontier:
            t = key >> ps
            for a in moves[key & cmask]:
                u = t & nb[a]
                h = grown.get(u)
                if h is None:
                    h = grown[u] = grow(u)
                s = a | (h & nb[a]) << ps
                if s not in parent:
                    parent[s] = key
                    nxt.append(s)
        frontier = nxt
    return Winner.ROBBER, None, None, _Walk(ctx, {}, len(parent))


def _least_winning(
    g: Graph, ell: int, variant: Variant, *, budget: int, first: int = 1
) -> tuple[int, SolveOutcome]:
    """The smallest winning cop count from first on, with its solve; see
    cop_number."""
    for k in range(first, g.n + 1):
        out = solve(g, GameSpec(ell, k, variant), budget=budget)
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
    retrograde: bool = False,
) -> int:
    """Smallest cop count winning the game; iterates k = 1, 2, ...

    Termination: a cop on every vertex leaves the evader nowhere to stand,
    so k = n always wins.  An INCONCLUSIVE solve below the answer poisons
    the iteration and raises BudgetExceeded with the partial findings.

    A count at which no solve could reach the budget (see
    _states_bound) is decided without a solve, unless the game is
    monotone or retrograde is set: a seeing game, or a capture game at
    radius 0, by the walk search (_clearing_walk), any other by decide.
    From the first count at which a solve could reach the budget, the
    counts are solved.  The answer is the same either way.
    """
    return _cop_number(g, ell, variant, budget=budget, retrograde=retrograde)[0]


def _cop_number(
    g: Graph, ell: int, variant: Variant, *, budget: int, retrograde: bool
) -> tuple[int, tuple[tuple[int, ...], _Antichains | _Points | _Walk] | None]:
    """cop_number, with the winning placement and strategy (decide's won
    sets, or the clearing walk of an open-loop game) at the answer,
    or None when a solve found it."""
    k = 1
    if not retrograde and variant is not Variant.MONOTONE_CAPTURE:
        search = _clearing_walk if _open_loop(GameSpec(ell, 1, variant).resolve(g)) else _decide
        while budget >= _states_bound(g.n, k):
            winner, _, placement, strategy = search(g, GameSpec(ell, k, variant))
            if winner is Winner.COPS:
                return k, (placement, strategy)
            k += 1
    return _least_winning(g, ell, variant, budget=budget, first=k)[0], None


def _states_bound(n: int, k: int, monotone: bool = False) -> int:
    """More states than a solve of k cops on n vertices can intern: a
    state is one cops tuple and either a nonempty vertex set (a territory
    or a knowledge set) or one vertex (a sighted evader).  In the monotone
    game a territory may also carry a snapshot, and a territory with one
    is fixed by its cops and its snapshot, so there are twice as many."""
    return math.comb(n + k - 1, k) * (2 ** (n + monotone) + n)


def _monotone_number(
    g: Graph, ell: int, k: int, placement: tuple[int, ...], fx: _Antichains | _Walk, *, budget: int
) -> int:
    """The monotone number at radius ell, given the capture number k there
    and the capture win cop_number found at k: its placement and its
    strategy fx (decide's antichains, or the clearing walk at radius 0).

    A monotone win is a capture win, so the answer is at least k.  It is k
    when fx.play, replayed from the placement under the monotone rule,
    never makes a move the rule forbids: the kernel drops exactly those,
    and the replay's states are the capture game's with snapshots added.
    Otherwise the counts from k on are solved.  The caller makes sure that
    no monotone solve of at most k cops could reach the budget, so no
    count below k could have stopped a search from 1.
    """
    # decide's table, so fx.play reads the ids, tags and payloads of its keys
    ctx = _Ctx(g, GameSpec(ell, k, Variant.MONOTONE_CAPTURE))
    todo = list(_initial_keys(ctx, ctx.cid(placement), g.full))
    met = set(todo)
    while todo:
        key = todo.pop()
        a = fx.play(key)[1]
        rows = _expand(ctx, key, (a,))
        if not rows:
            return _least_winning(g, ell, Variant.MONOTONE_CAPTURE, budget=budget, first=k)[0]
        ((_, succs, seen),) = rows
        for s in succs + _vis_keys(ctx, a, seen):
            if s not in met:
                met.add(s)
                todo.append(s)
    return k


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
        # the time-delayed cops may ignore what is disclosed and walk the
        # blind game's clearing walk
        if self.blind is not None and self.delayed is not None and self.delayed > self.blind:
            bad.append("delayed > blind")
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
    retrograde: bool = False,
) -> Profile:
    """Compute the requested game numbers and wrap them in a Profile.

    Each game is solved or decided once (see cop_number, which also
    takes retrograde): the classical game is the capture game at radius
    diameter, and the blind one the capture game at radius 0, so a
    number is kept under its resolved spec and reused when a requested
    radius asks for the same game.

    A monotone number whose capture number k was decided comes from
    replaying the decided capture win under the monotone rule (see
    _monotone_number), where the budget is at least
    _states_bound(n, k, monotone=True), so that no monotone solve of at
    most k cops could stop; elsewhere, and with retrograde set, the
    monotone game is solved from 1 cop on, as cop_number does.
    """
    from .graphs import k_domination_number

    radii = tuple(sorted(set(radii)))
    parts = frozenset(parts)
    unknown = parts - set(ALL_PARTS)
    if unknown:
        raise ValueError(f"unknown profile parts {sorted(unknown)}")
    classical = blind = delayed = domination = None
    capture_at = see_at = monotone_at = domination_at = None
    numbers: dict[GameSpec, int] = {}
    wins: dict[GameSpec, tuple[tuple[int, ...], _Antichains | _Points | _Walk] | None] = {}

    def number(ell: int, variant: Variant) -> int:
        game = GameSpec(ell, 1, variant).resolve(g)
        if game not in numbers:
            numbers[game], wins[game] = _cop_number(g, ell, variant, budget=budget, retrograde=retrograde)
        return numbers[game]

    def monotone_number(ell: int) -> int:
        capture = GameSpec(ell, 1, Variant.CAPTURE).resolve(g)
        win = wins.get(capture)
        if win is None or budget < _states_bound(g.n, numbers[capture], monotone=True):
            return number(ell, Variant.MONOTONE_CAPTURE)
        return _monotone_number(g, ell, numbers[capture], *win, budget=budget)

    if "classical" in parts:
        classical = number(0, Variant.CLASSICAL)
    if "blind" in parts:
        blind = number(0, Variant.CAPTURE)
    if "delayed" in parts:
        delayed = number(0, Variant.TIME_DELAYED)
    if "capture" in parts:
        capture_at = {r: number(r, Variant.CAPTURE) for r in radii}
    if "see" in parts:
        see_at = {r: number(r, Variant.SEE) for r in radii}
    if "monotone" in parts:
        monotone_at = {r: monotone_number(r) for r in radii}
    if "see" in parts or "domination" in parts:
        domination_at = {r: k_domination_number(g, r) for r in radii}
    if "domination" in parts:
        domination = domination_at[1] if 1 in radii else k_domination_number(g, 1)
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
    draw: Callable[[int], Graph],
    *,
    limit: int,
    profiler: Callable[[Graph], Profile | None],
    workers: int = 1,
) -> WitnessResult:
    """First of the candidates draw(0), ..., draw(limit - 1) whose profile
    satisfies the predicate.

    The profiler may return None to discard a candidate cheaply, and a
    candidate whose profile blows the solve budget is skipped rather than
    guessed at.  Every drawn candidate counts against the limit.

    With workers > 1 the stream is screened in several processes (see
    _worker_processes and _search_forked), and the result is the serial
    one, provided a draw depends on its index alone and a screen on its
    graph alone.
    """
    procs = _worker_processes(workers, limit)
    if procs > 1:
        return _search_forked(predicate, draw, limit, profiler, procs)
    skipped = 0
    for i in range(limit):
        g = draw(i)
        try:
            prof = profiler(g)
        except BudgetExceeded:
            skipped += 1
            continue
        if prof is not None and predicate(prof):
            return WitnessResult(g, prof, i + 1, skipped)
    return WitnessResult(None, None, limit, skipped)


def _worker_processes(workers: int, limit: int) -> int:
    """How many processes screen an indexed stream of limit candidates: at
    most workers, one per usable CPU and one per candidate.  Only one where
    os.fork is missing, or where another thread runs: fork copies only the
    calling thread, so a lock another thread holds would stay locked in the
    child."""
    if workers < 2 or not hasattr(os, "fork"):
        return 1
    import threading

    if threading.active_count() > 1:
        return 1
    return min(workers, _usable_cpus(), limit)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Each process screens _BLOCK of its own candidates per round.  A round of a
# few tens of milliseconds makes the per-round exchange negligible and keeps
# the parent's work after a decided round short.
_BLOCK = 64
# what a process reports for each candidate it screens, one byte each
_REJECTED, _SKIPPED, _HIT, _RAISED = b"rshx"


def _search_forked(
    predicate: Callable[[Profile], bool],
    draw: Callable[[int], Graph],
    limit: int,
    profiler: Callable[[Graph], Profile | None],
    procs: int,
) -> WitnessResult:
    """search_witness over draw(0), ..., draw(limit - 1) in procs processes.

    Process p (the parent is 0, the rest are forked) builds and screens
    only the indices i with i % procs == p, in rounds of procs * _BLOCK
    consecutive indices, and stops at its first hit or exception, since no
    later index of its can come first.  A child writes one byte per index
    down a pipe, flushes it at the end of each round and goes on without
    waiting.  After each of its own rounds the parent reads the children's
    bytes for that round and walks the round's indices in order, as the
    serial loop does.  When a child's hit or exception decides the search,
    the parent screens that index again to get the graph and profile, or
    to raise the exception itself; draws and screens depend on the index
    alone, so nothing else crosses the pipe.  tried, skipped, the hit and
    the exception are the serial ones.  The parent screens a share fixed
    by the stream alone, and does at most one round of work past the
    deciding index.

    A child writes nothing but its pipe and leaves by os._exit.  The parent
    kills every child still running when it returns or raises, and reaps
    them all before it does.
    """
    import gc
    import signal

    span = procs * _BLOCK
    rounds = range(0, limit, span)

    def screen(first: int, stop: int, codes: bytearray):
        """Screen first, first + procs, ... below stop, a code per index
        into codes, up to the first hit, returned as (graph, profile), or
        the first exception, returned; None if neither comes."""
        for i in range(first, stop, procs):
            try:
                g = draw(i)
                prof = profiler(g)
                hit = prof is not None and predicate(prof)
            except BudgetExceeded:
                codes.append(_SKIPPED)
                continue
            except Exception as exc:
                codes.append(_RAISED)
                return exc
            if hit:
                codes.append(_HIT)
                return g, prof
            codes.append(_REJECTED)
        return None

    children: dict[int, BinaryIO] = {}  # pid -> read end of its pipe
    try:
        for p in range(1, procs):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                code = 1
                try:
                    # the child's collections skip the inherited heap, so
                    # they do not copy its pages
                    gc.freeze()
                    os.close(r)
                    with open(w, "wb") as pipe:
                        for lo in rounds:
                            codes = bytearray()
                            end = screen(lo + p, min(lo + span, limit), codes)
                            pipe.write(codes)
                            pipe.flush()
                            if end is not None:
                                break
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children[pid] = open(r, "rb")
        tried = skipped = 0
        for lo in rounds:
            hi = min(lo + span, limit)
            own = bytearray()
            end = screen(lo, hi, own)
            shares = [own]
            for p, (pid, pipe) in enumerate(children.items(), 1):
                want = len(range(lo + p, hi, procs))
                codes = pipe.read(want)
                if len(codes) < want and not (codes and codes[-1] in (_HIT, _RAISED)):
                    raise ChildProcessError(f"witness worker {pid} ended before it screened its candidates")
                shares.append(codes)
            for i in range(lo, hi):
                p = (i - lo) % procs
                code = shares[p][(i - lo) // procs]
                tried += 1
                if code == _SKIPPED:
                    skipped += 1
                elif code != _REJECTED:
                    if p:
                        end = screen(i, i + 1, bytearray())
                        if end is None:
                            raise ChildProcessError(f"witness candidate {i} screened differently in a worker")
                    if isinstance(end, BaseException):
                        raise end
                    return WitnessResult(end[0], end[1], tried, skipped)
        return WitnessResult(None, None, tried, skipped)
    finally:
        for pid, pipe in children.items():
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)


# -- playable policies out of a solve -------------------------------------------
# Both policies read the solve through SolveOutcome.play alone: a state the
# cops do not win is a pass for them and scores (1, 0) for the evader.


class SolvedCops:
    """Plays the solved strategy; passes on a state it does not win."""

    def __init__(self, outcome: SolveOutcome) -> None:
        if outcome.winner is not Winner.COPS:
            raise ValueError("cop policy requires a cop-winning outcome")
        self._out = outcome

    def place(self, g: Graph, spec: GameSpec) -> tuple[int, ...]:
        return self._out.placement

    def move(self, g: Graph, spec: GameSpec, state: BeliefState) -> tuple[int, ...]:
        try:
            return self._out.play(state)[1]
        except KeyError:
            return state.cops


class SolvedRobber:
    """Plays adversary branches by the levels of a decided outcome.

    Branch choice is exact: prefer any branch the cops never win; among
    winning-for-cops branches take the deepest (highest level).  The
    concrete vertex inside a territory branch is a heuristic (max distance
    to the cops), which is where belief-level and played-out optimality
    can part ways.
    """

    def __init__(self, outcome: SolveOutcome) -> None:
        if outcome.winner is Winner.INCONCLUSIVE:
            raise ValueError("evader policy requires a decided outcome")
        self._out = outcome

    def _score(self, key: Key) -> tuple[int, int]:
        # (robber-winning, survival depth): bigger is better
        try:
            return (0, self._out.play(key)[0])
        except KeyError:
            return (1, 0)

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
