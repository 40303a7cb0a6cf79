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
per cop action) over (cops, tag, payload, snapshot) keys, each packed into
one int by the kernel's context (_Ctx).  A round names its sighted
successors by a vertex mask, which _vis_keys spells out as keys.  The
solver searches over the kernel; initial_branches, cop_turn, robber_turn
and round_branches are thin views of it for the referee and the policies,
decoding the kernel's ints into BeliefStates.  A view returns the ongoing
states only: a branch the cops win is dropped, so an empty tuple means the
cops won on every branch.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, NamedTuple, Protocol

from .graphs import Graph, InputError, VertexSet, bits, mask_of


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

# (cops, tag, payload, snapshot), as _Ctx.decode gives it; BeliefState is
# the named view
Key = tuple


class BeliefState(NamedTuple):
    """Canonical game position from the cops' point of view.

    cops is sorted (cops are interchangeable and may share a vertex).  An
    INV territory is already reduced by every past observation, so it is
    disjoint from the cops' visibility balls.  snapshot carries the
    weakly-monotone baseline (the unseen territory recorded after the last
    cop half-move); SNAP_FREE means the next cop move sets a new baseline.
    A BeliefState compares and hashes equal to the decoded key tuple.
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


class _Tuples:
    """The cops tuples of k cops on a graph by id, with what depends on the
    graph and k alone: occupancy masks occ[c] and the move lists.  cid gives
    an unseen tuple the next id, at most size = comb(n + k - 1, k) of them,
    so a context's id field cannot overflow.  The solver's games share one
    table per (graph, k) (_tuples) that only placements() extends, so its
    ids are the placements in order and a solve stopped by its budget among
    the roots lists no more of them than it met.  A turn view fills a table
    of its own with the tuples a playout meets.
    """

    __slots__ = ("k", "size", "adjc", "ids", "cops_of", "occ", "_moves")

    def __init__(self, g: Graph, k: int) -> None:
        self.k = k
        self.size = math.comb(g.n + k - 1, k)
        self.adjc = g.adj_closed
        self.ids: dict[tuple[int, ...], int] = {}
        self.cops_of: list[tuple[int, ...]] = []
        self.occ: list[VertexSet] = []
        self._moves: tuple[tuple[int, ...], ...] | None = None

    def cid(self, cops: tuple[int, ...]) -> int:
        """The id of a sorted cops tuple, assigned on first sight."""
        c = self.ids.get(cops)
        if c is None:
            if len(cops) != self.k:
                raise IllegalMove(f"expected {self.k} cops, got {len(cops)}")
            if len(self.cops_of) == self.size:
                raise IllegalMove(f"{cops} is not a sorted tuple of vertices")
            c = self.ids[cops] = len(self.cops_of)
            self.cops_of.append(cops)
            self.occ.append(mask_of(cops))
        return c

    def placements(self) -> Iterator[tuple[int, ...]]:
        """The tuples in combinations order, each given its id as the walk
        reaches it; a walk to the end completes the table."""
        if len(self.cops_of) == self.size:
            yield from self.cops_of
            return
        for cops in itertools.combinations_with_replacement(range(len(self.adjc)), self.k):
            self.cid(cops)
            yield cops

    def moves(self) -> tuple[tuple[int, ...], ...]:
        """By id, the action ids one half-move from each tuple of a complete
        table: every distinct sorted tuple, in the order of its first
        occurrence in the product of the cops' sorted closed neighbourhoods.
        Built once; the build sorts each raw (unsorted) product tuple once,
        not once per cops tuple whose product holds it."""
        if self._moves is None:
            if len(self.cops_of) != self.size:
                raise ValueError("the move lists need every placement's id")
            step = [list(bits(m)) for m in self.adjc]
            ids, raw, out = self.ids, {}, []
            for cops in self.cops_of:
                acts = []
                for combo in itertools.product(*[step[v] for v in cops]):
                    a = raw.get(combo)
                    if a is None:
                        a = raw[combo] = ids[tuple(sorted(combo))]
                    acts.append(a)
                out.append(tuple(dict.fromkeys(acts)))
            self._moves = tuple(out)
        return self._moves


def _tuples(g: Graph, k: int) -> _Tuples:
    """The table of k cops on g that the solver's games share.  It is kept
    on the graph, so it dies with the graph."""
    tab = g._tuple_tables.get(k)
    if tab is None:
        tab = g._tuple_tables[k] = _Tuples(g, k)
    return tab


class _Ctx:
    """Per-solve tables and the packed-key codec.

    The kernel's states are ints: a key (cops, tag, payload, snapshot) packs
    as cid | tag << cb | (snapshot + 1) << ss | payload << ps, where cid is
    the id of the sorted cops tuple in the context's table (_Tuples, by
    default the complete one of its graph and cop count).  cb fits every id
    the table can hand out and the snapshot field is n + 1 bits wide, so
    the packing is injective on well-formed keys.  Among keys with one cops
    tuple and one tag, int order is the order of their key tuples.

    An id is also an action.  For the tuple cops_of[a], with its visibility
    mask vis (the union of its balls), the context computes once the
    out-of-sight vertices nvis[a] = ~vis and sight[a], where a sighted
    evader stays in play: vis & ~occ[a], or nothing under a seeing goal,
    where a sighting ends the game; occ and the move lists are the table's.  grown
    memoizes grow() of each unseen territory, and of the time-delayed
    decider's lost sets (solver._decide_points).  seen memoizes, per (sighted
    set, action), the part of an INV row that the territory vertices in
    sight after the cop move give: the keys of their escapes out of sight
    and the union of their steps.  It starts afresh at _SEEN_MEMO_CAP
    entries.
    """

    __slots__ = (
        "g", "see", "mono", "delayed", "adjc", "grown", "seen", "_balls",
        "cb", "ss", "ps", "cmask", "smask", "tab", "cops_of", "occ", "nvis", "sight",
    )

    def __init__(self, g: Graph, spec: GameSpec, tab: _Tuples | None = None) -> None:
        self.g = g
        self.see = spec.see_goal
        self.mono = spec.monotone
        self.delayed = spec.delayed
        self.adjc = g.adj_closed
        self.grown: dict[VertexSet, VertexSet] = {}
        self.seen: dict[int, tuple[tuple[int, ...], VertexSet]] = {}
        self._balls = g.balls(spec.ell)
        if tab is None:  # the shared table, complete
            tab = _tuples(g, spec.cops)
            for _ in tab.placements():
                pass
        self.tab = tab
        self.cb = (tab.size - 1).bit_length()
        self.ss = self.cb + 2
        self.ps = self.ss + g.n + 1
        self.cmask = (1 << self.cb) - 1
        self.smask = (1 << (g.n + 1)) - 1
        self.cops_of, self.occ = tab.cops_of, tab.occ
        self.nvis: list[int] = []
        self.sight: list[VertexSet] = []
        self._masks()

    def _masks(self) -> None:
        """nvis and sight of every tuple of the table that lacks them."""
        for c in range(len(self.nvis), len(self.cops_of)):
            bm = _ball_union(self._balls, self.cops_of[c])
            self.nvis.append(~bm)
            self.sight.append(0 if self.see else bm & ~self.occ[c])

    def cid(self, cops: tuple[int, ...]) -> int:
        """The table's id of a sorted cops tuple, with its masks."""
        c = self.tab.cid(cops)
        if c >= len(self.nvis):
            self._masks()
        return c

    def forget(self) -> None:
        """Empty the context's memos (grown and seen).  The codec, the
        per-tuple masks and the table stay, so a finished solve's index can
        decode and find keys without keeping the memos alive."""
        self.grown.clear()
        self.seen.clear()

    def encode(self, key) -> int:
        """Pack a well-formed key, giving its cops an id if they lack one."""
        cops, tag, payload, snap = key
        return self.cid(cops) | tag << self.cb | (snap + 1) << self.ss | payload << self.ps

    def find(self, key) -> int | None:
        """The packed int of a key whose cops already have an id, or None
        for anything outside the codec's domain: never raises, never
        aliases one key onto another."""
        try:
            cops, tag, payload, snap = key
            c = self.tab.ids.get(cops)
        except (TypeError, ValueError):
            return None
        # the payload is the top field, so only a snapshot too wide for
        # its field could carry into another key's bits
        if (
            c is None
            or tag not in (INV, VIS, DEL)
            or type(payload) is not int
            or type(snap) is not int
            or not SNAP_FREE <= snap <= self.g.full
        ):
            return None
        return c | tag << self.cb | (snap + 1) << self.ss | payload << self.ps

    def decode(self, p: int) -> Key:
        """The plain (cops, tag, payload, snapshot) tuple of a packed int."""
        return (
            self.cops_of[p & self.cmask],
            p >> self.cb & 3,
            p >> self.ps,
            (p >> self.ss & self.smask) - 1,
        )


def _vis_keys(ctx: _Ctx, a: int, seen: VertexSet) -> tuple[int, ...]:
    """The VIS keys of the evader sighted on each vertex of seen, with the
    cops on the tuple a, by vertex."""
    base, ps = a | VIS << ctx.cb, ctx.ps
    return tuple([base | v << ps for v in bits(seen)])


def _initial_keys(ctx: _Ctx, c: int, cand: VertexSet) -> tuple[int, ...]:
    """The observation with the cops on the tuple c and the evader somewhere
    in cand: the opening split when cand is every vertex, the cop
    half-move's split of a territory or knowledge set otherwise.  An empty
    tuple means the cops win on every branch."""
    free = cand & ~ctx.occ[c]
    if free == 0:
        return ()
    if ctx.delayed:
        return (c | DEL << ctx.cb | free << ctx.ps,)
    out = _vis_keys(ctx, c, free & ctx.sight[c])
    unseen = free & ctx.nvis[c]
    if unseen:
        snap = unseen if ctx.mono else SNAP_FREE
        out += (c | (snap + 1) << ctx.ss | unseen << ctx.ps,)
    return out


# The seen memo starts afresh once it holds this many entries, about 10 MB.
# With two cops on the 57-vertex tree a (sighted set, action) pair recurs
# about six times and the memo needs 7,064 entries; with three cops a pair
# seldom recurs (394,173 pairs in 467,640 rows of a 1M-state cut), and an
# unbounded memo grew by 139 MB.
_SEEN_MEMO_CAP = 1 << 15


def _sightings(ctx: _Ctx, seen: VertexSet, a: int) -> tuple[tuple[int, ...], VertexSet]:
    """The part of an INV row that the territory vertices seen after the
    cop move to a give: the sorted distinct INV keys of their escapes out
    of sight, and the union of their steps."""
    adjc, nb, ps = ctx.adjc, ctx.nvis[a], ctx.ps
    reach = 0
    esc = set()
    while seen:
        low = seen & -seen
        step = adjc[low.bit_length() - 1]
        reach |= step
        if step & nb:
            esc.add(a | (step & nb) << ps)
        seen ^= low
    return tuple(sorted(esc)), reach


def _expand(ctx: _Ctx, key: int, acts) -> list[tuple[int, tuple[int, ...], VertexSet]]:
    """One full round from the packed cop-to-move state key, per action id
    in acts (as ctx.moves gives them).

    Returns one (action, INV or DEL successor keys, sighted mask) row per
    legal action, in the order of acts.  The keys are sorted, which is the
    order of their key tuples.  The sighted mask holds each vertex on which
    the evader may be seen after its move; its VIS successors are
    _vis_keys(ctx, action, mask), and every one of them is a root: the
    opening split of the placement action gives it too.  There is no dedupe
    by successor set: every successor carries its action as its cops, so
    only empty rows can repeat.  A row with no keys and an empty mask means
    the action wins on the spot (every branch terminal).
    Monotonicity-violating actions are omitted entirely.

    Works on whole masks per action.  A ball holds its centre, so the
    occupancy mask lies inside the visibility mask: sight[a] is where a
    sighted evader may stand and nvis[a] is out of sight.  An INV successor
    with no snapshot is a | payload << ps, since its tag and snapshot fields
    are 0.  The sighted territory's part of a row depends only on that set
    and the action, so it is memoized per pair in ctx.seen, and worked out
    directly for a single vertex.
    """
    cb, ps = ctx.cb, ctx.ps
    tag = key >> cb & 3
    payload = key >> ps
    adjc, occ, nvis_of, sight_of = ctx.adjc, ctx.occ, ctx.nvis, ctx.sight
    out: list[tuple[int, tuple[int, ...], VertexSet]] = []

    if tag == DEL:
        dtag = DEL << cb
        for a in acts:
            am = occ[a]
            surv = payload & ~am
            succ = set()
            while surv:
                low = surv & -surv
                succ.add(adjc[low.bit_length() - 1] & ~am)
                surv ^= low
            base = a | dtag
            out.append((a, tuple([base | m << ps for m in sorted(succ)]), 0))
        return out

    if tag == VIS:
        r = payload
        step = adjc[r]
        for a in acts:
            if (occ[a] >> r) & 1:
                out.append((a, (), 0))
                continue
            esc = step & nvis_of[a]
            out.append((a, (a | esc << ps,) if esc else (), step & sight_of[a]))
        return out

    mono = ctx.mono
    ss = ctx.ss
    # the monotone baseline: an unseen vertex outside the snapshot is illegal
    outside = ~((key >> ss & ctx.smask) - 1) if mono else 0
    grown_of = ctx.grown
    seen_of = ctx.seen
    grow = ctx.g.grow
    for a in acts:
        nb = nvis_of[a]
        unseen = payload & nb
        if unseen & outside:
            continue
        seen = payload & sight_of[a]
        if not seen:
            inv, reach = (), 0
        elif seen & (seen - 1):
            hit = seen_of.get(seen << cb | a)
            if hit is None:
                if len(seen_of) >= _SEEN_MEMO_CAP:
                    seen_of.clear()
                hit = seen_of[seen << cb | a] = _sightings(ctx, seen, a)
            inv, reach = hit
        else:
            reach = adjc[seen.bit_length() - 1]
            esc = reach & nb
            inv = (a | esc << ps,) if esc else ()
        if unseen:
            grown = grown_of.get(unseen)
            if grown is None:
                grown = grown_of[unseen] = grow(unseen)
            reach |= grown
            u2 = grown & nb
            if u2:
                u = a | (unseen + 1) << ss | u2 << ps if mono else a | u2 << ps
                if not inv:
                    inv = (u,)
                elif len(inv) == 1:
                    e = inv[0]
                    inv = (e, u) if e < u else (u, e) if u < e else inv
                else:
                    inv = tuple(sorted({*inv, u}))
        out.append((a, inv, reach & sight_of[a]))
    return out


# -- turns: views over the kernel ------------------------------------------------


@functools.lru_cache(maxsize=4)
def _view_ctx(g: Graph, spec: GameSpec) -> _Ctx:
    """The context the views share per graph and resolved spec, so a
    playout assigns each cops tuple its id and masks once.  It is a memo
    with a table of its own, holding only the tuples the playout met, so it
    never changes what a view returns and never enumerates every multiset.
    A playout uses one to three specs on one graph."""
    return _Ctx(g, spec, _Tuples(g, spec.cops))


def _states(ctx: _Ctx, keys: Iterable[int]) -> tuple[BeliefState, ...]:
    return tuple(map(BeliefState._make, map(ctx.decode, keys)))


def _round(ctx: _Ctx, state: BeliefState, cops: tuple[int, ...]) -> tuple[BeliefState, ...]:
    """The kernel's round on the one action cops; raises when it drops it."""
    rows = _expand(ctx, ctx.encode(state), (ctx.cid(cops),))
    if not rows:
        raise MonotonicityViolation(f"moving to {cops} lets the unseen territory grow")
    a, inv, seen = rows[0]
    return _states(ctx, inv + _vis_keys(ctx, a, seen))


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
    ctx = _view_ctx(g, spec)
    return _states(ctx, _initial_keys(ctx, ctx.cid(cops), g.full))


def cop_turn(
    g: Graph, spec: GameSpec, state: BeliefState, new_cops: Iterable[int]
) -> tuple[BeliefState, ...]:
    """Half-round: cops move, then the observation.  Returned states are
    mid-round (evader still to move); pass them to robber_turn.  Raises
    MonotonicityViolation exactly when the kernel drops the move."""
    ctx = _view_ctx(g, spec.resolve(g))
    cops = tuple(sorted(new_cops))
    _match_step(g, state.cops, cops)
    if ctx.mono:  # the kernel drops moves under the monotone rule only
        _round(ctx, state, cops)
    if state.tag == VIS:
        # a sighted evader has not moved since it was pinpointed
        r = state.payload
        return () if (mask_of(cops) >> r) & 1 else (BeliefState(cops, VIS, r),)
    return _states(ctx, _initial_keys(ctx, ctx.cid(cops), state.payload))


def robber_turn(g: Graph, spec: GameSpec, state: BeliefState) -> tuple[BeliefState, ...]:
    """Half-round: evader moves from a post-cop-move state, then the second
    observation.  This is the kernel's round with the cops passing."""
    return _round(_view_ctx(g, spec.resolve(g)), state, state.cops)


def round_branches(
    g: Graph, spec: GameSpec, state: BeliefState, new_cops: Iterable[int]
) -> tuple[BeliefState, ...]:
    """Full round: cop half-move composed with every evader reply."""
    cops = tuple(sorted(new_cops))
    _match_step(g, state.cops, cops)
    return _round(_view_ctx(g, spec.resolve(g)), state, cops)


# -- scripted sweeps ----------------------------------------------------------------


class ScriptError(InputError):
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
    """Parse one walk per line; raises ScriptError, an InputError."""
    rows = []
    for ln in text.strip().splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        try:
            rows.append(tuple(int(x) for x in ln.split()))
        except ValueError as exc:
            raise ScriptError(str(exc)) from None
    if not rows:
        raise ScriptError("empty script")
    return Script(tuple(rows))


_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _ascending_bits(mask: VertexSet) -> list[int]:
    """bits(mask) as a list, without a generator step per bit: the binary
    digits, least significant first, select from the vertex numbers."""
    return list(itertools.compress(itertools.count(), format(mask, "b")[::-1].encode().translate(_DIGIT_BITS)))


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
            "territory_per_round": list(map(_ascending_bits, self.snapshots)),
            "seen": list(map(list, self.seen_events)),
            "captured": list(map(list, self.captured_events)),
            "recontaminated": list(map(list, self.recontaminations)),
            "located": list(map(list, self.located)),
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
        self.script.validate(g)  # a script file may name vertices g lacks
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
