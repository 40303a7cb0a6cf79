"""Command line front end.

Eight subcommands: generate, analyze, solve, profile, rank, verify,
simulate, witness.  Every command takes a graph as either a file path
(--graph) or a family recipe (--recipe), writes to stdout or --out, and
renders either a human text report (default) or a canonical JSON envelope
(--format structured).

The structured envelope always has the keys command / graph / spec /
results / events, is serialized with sorted keys, and contains no timing
or host data, so identical invocations produce identical bytes regardless
of worker count.  Text reports are for humans and carry no stability
promise.

Exit codes: 0 on success, 2 when a solve stops at its state budget (or a
witness search exhausts its candidate limit), 1 for any input problem.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import operator
import sys
from pathlib import Path
from typing import Sequence

from .engine import (
    GameSpec,
    MonotonicityViolation,
    RandomRobber,
    Script,
    ScriptedCops,
    Variant,
    load_script,
    play_match,
    simulate_script,
)
from .families import (
    GeneratedGraph,
    generate,
    parse_recipe,
    random_copwin_graph,
    recipe_to_str,
)
from .graphs import (
    MAX_ORDER,
    Graph,
    dump_text,
    is_chordal,
    is_copwin,
    k_domination_number,
    load,
    metrics,
)
from .solver import (
    ALL_PARTS,
    DEFAULT_BUDGET,
    BudgetExceeded,
    SolvedCops,
    SolvedRobber,
    Winner,
    _least_winning,
    profile,
    search_witness,
    solve,
)
from .strategies import t_ell_scripts, t_family_script, tree_one_visibility_script
from .treerank import height_bound, rank, verify_certificate

OK = 0
INPUT_ERROR = 1
INCONCLUSIVE = 2

_VARIANTS = tuple(v.value for v in Variant)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; 2 is reserved for budget stops here,
    so flag and recipe mistakes are remapped to exit 1, reported on one
    stderr line (--help prints the usage)."""

    def error(self, message: str):
        self.exit(INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _at_least_one(text: str) -> int:
    """argparse type for counts that must be positive integers."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


MAX_WORKERS = 64


def _worker_count(text: str) -> int:
    """argparse type for --workers: refused above MAX_WORKERS before any
    candidate is drawn."""
    value = _at_least_one(text)
    if value > MAX_WORKERS:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_WORKERS}, got {value}")
    return value


def _vertex_count(text: str) -> int:
    """argparse type for a graph order: refused above the order cap before
    any graph is built."""
    value = _at_least_one(text)
    if value > MAX_ORDER:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_ORDER}, got {value}")
    return value


# -- shared plumbing ------------------------------------------------------------


def _add_input(p: argparse.ArgumentParser, required: bool = True) -> None:
    grp = p.add_argument_group("graph input")
    grp.add_argument("--recipe", help="family recipe, e.g. cycle:6 or tfamily:k=2,ell=1")
    grp.add_argument("--graph", help="path to a graph file (text or JSON form)")
    p.set_defaults(_input_required=required)


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the report to this path instead of stdout")
    p.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="text for humans, structured for byte-stable JSON",
    )


def _add_solver(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--budget", type=_at_least_one, default=DEFAULT_BUDGET, help="state budget per solve"
    )
    p.add_argument(
        "--workers",
        type=_worker_count,
        default=1,
        help=f"processes that screen witness candidates, at most {MAX_WORKERS} and no more"
        " than the usable CPUs; other commands run serially and ignore it",
    )


def _graph_from_args(args: argparse.Namespace) -> tuple[Graph, GeneratedGraph | None]:
    if args.recipe and args.graph:
        raise ValueError("give either --recipe or --graph, not both")
    if args.recipe:
        member = generate(parse_recipe(args.recipe))
        return member.graph, member
    if args.graph:
        return load(Path(args.graph).read_text()), None
    if args._input_required:
        raise ValueError("a graph is required: pass --recipe or --graph")
    return None, None  # type: ignore[return-value]


def _graph_dict(g: Graph) -> dict:
    return {"key": g.key(), "n": g.n, "edges": [list(e) for e in g.edges]}


def _envelope(command: str, g: Graph | None, spec: dict | None, results: dict, events: list) -> dict:
    return {
        "command": command,
        "graph": _graph_dict(g) if g is not None else None,
        "spec": spec,
        "results": results,
        "events": events,
    }


def _spec_dict(ell: int, cops: int | None, variant: str) -> dict:
    return {"ell": ell, "cops": cops, "variant": variant}


_encode_str = json.encoder.encode_basestring_ascii
_INFINITY = float("inf")


def _encode_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INFINITY:
        return "Infinity"
    if x == -_INFINITY:
        return "-Infinity"
    return float.__repr__(x)


def _encode_key(k) -> str:
    """A dict key as json writes it: str, float, bool, None and int keys
    become strings."""
    if isinstance(k, str):
        return _encode_str(k)
    if isinstance(k, float):
        return '"' + _encode_float(k) + '"'
    if k is True:
        return '"true"'
    if k is False:
        return '"false"'
    if k is None:
        return '"null"'
    if isinstance(k, int):
        return '"' + int.__repr__(k) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _encode_json(o, pad: str = "") -> str:
    """o exactly as json.dumps(o, indent=2, sort_keys=True) writes it, with
    `pad` the indent of the line it starts on.

    With an indent, CPython's json runs its pure-Python encoder, one
    generator step per token; joining whole containers is about twice as
    fast.  Exact ints, strs, lists, tuples and dicts come first, and a list
    whose items share one of the shapes below is filled into one template;
    anything else goes through json's own order of checks, so bools, None,
    floats and subclasses come out as json writes them.  Dict items are
    sorted by their keys before the keys become strings, as json does.
    """
    t = type(o)
    if t is int:
        return int.__repr__(o)
    if t is str:
        return _encode_str(o)
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = pad + "  "
        kinds = set(map(type, o))
        if len(kinds) == 1:
            kind = kinds.pop()
            if kind is int:
                return _int_list_template(pad, len(o)) % tuple(o)
            fast = None
            if kind is list:
                fast = _int_rows(o, inner)
            elif kind is dict:
                fast = _same_key_dicts(o, inner)
            if fast is not None:
                return "[\n" + inner + fast + "\n" + pad + "]"
        items = [int.__repr__(v) if type(v) is int else _encode_json(v, inner) for v in o]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    if t is dict:
        if not o:
            return "{}"
        inner = pad + "  "
        items = [
            (_encode_str(k) if type(k) is str else _encode_key(k)) + ": " + _encode_json(v, inner)
            for k, v in sorted(o.items())
        ]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(o, str):
        return _encode_str(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _encode_float(o)
    if isinstance(o, (list, tuple)):
        return _encode_json(list(o), pad)
    if isinstance(o, dict):
        return _encode_json(dict(o.items()), pad)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


# Shape fast paths for _encode_json.  A list of exact ints, a list of lists
# of exact ints, or a list of dicts that share their str keys and hold, per
# key, exact ints, strs, bools or lists of exact ints is written with one
# %-template, made from cached per-item templates, filled from all its
# values at once: %-formatting an int is about twice as fast as
# int.__repr__ through map.  Only these types qualify, checked by exact
# type, so None, floats and subclasses keep json's own order of checks on
# the generic path; a helper returns None to send its list there.


@functools.lru_cache(maxsize=1024)
def _int_list_template(pad: str, width: int) -> str:
    """A list of `width` exact ints that starts on a line indented by pad."""
    if not width:
        return "[]"
    inner = pad + "  "
    return "[\n" + inner + (",\n" + inner).join(["%d"] * width) + "\n" + pad + "]"


@functools.lru_cache(maxsize=256)
def _dict_template(pad: str, keys: tuple[str, ...]) -> str:
    """A dict with these sorted str keys that starts on a line indented by
    pad; a % in a key is escaped."""
    inner = pad + "  "
    fields = [_encode_str(k).replace("%", "%%") + ": %s" for k in keys]
    return "{\n" + inner + (",\n" + inner).join(fields) + "\n" + pad + "}"


def _int_rows(rows: list, inner: str) -> str | None:
    """The items of a list of lists of exact ints, not all empty."""
    flat = tuple(itertools.chain.from_iterable(rows))
    if set(map(type, flat)) != {int}:
        return None
    return (",\n" + inner).join(map(_int_list_template, itertools.repeat(inner), map(len, rows))) % flat


_COLUMN_KINDS = {int, str, bool, list}
_JSON_BOOL = {True: "true", False: "false"}


def _same_key_dicts(dicts: list, inner: str) -> str | None:
    """The items of a list of dicts that share one set of at least two str
    keys and hold, per key, only exact ints, only strs, only bools or only
    lists of exact ints.  A last dict with fewer keys, such as the last
    round of a game history, takes the generic path."""
    first = dicts[0]
    width = len(first)
    if width < 2 or not set(map(type, first.values())) <= _COLUMN_KINDS:
        return None
    last = None
    if len(dicts) > 1 and len(dicts[-1]) < width:
        last = dicts[-1]
        dicts = dicts[:-1]
    if set(map(len, dicts)) != {width} or set(map(type, itertools.chain.from_iterable(dicts))) != {str}:
        return None
    keys = tuple(sorted(first))
    try:
        flat = list(itertools.chain.from_iterable(map(operator.itemgetter(*keys), dicts)))
    except KeyError:
        return None
    pad = inner + "  "  # where a value of one of the dicts starts
    for i in range(width):
        column = flat[i::width]
        kinds = set(map(type, column))
        if kinds == {str}:
            flat[i::width] = map(_encode_str, column)
        elif kinds == {bool}:
            flat[i::width] = map(_JSON_BOOL.__getitem__, column)
        elif kinds == {list}:
            if not set(map(type, itertools.chain.from_iterable(column))) <= {int}:
                return None
            flat[i::width] = [_int_list_template(pad, len(c)) % tuple(c) for c in column]
        elif kinds != {int}:
            return None
    out = (",\n" + inner).join([_dict_template(inner, keys)] * len(dicts)) % tuple(flat)
    return out if last is None else out + ",\n" + inner + _encode_json(last, inner)


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    if args.format == "structured":
        body = _encode_json(payload) + "\n"
    else:
        body = text if text.endswith("\n") else text + "\n"
    if getattr(args, "out", None):
        Path(args.out).write_text(body)
    else:
        sys.stdout.write(body)


def _resolve_script(name: str, g: Graph, member: GeneratedGraph | None) -> Script:
    """Builtin script names first, then a file path."""
    builders = {
        "tree1vis": lambda: tree_one_visibility_script(g),
        "tfamily": lambda: t_family_script(_require_member(member, "tfamily")),
        "tell_2cop": lambda: t_ell_scripts(_require_member(member, "subdivided"))["two_cop"],
        "tell_3cop": lambda: t_ell_scripts(_require_member(member, "subdivided"))[
            "three_cop_monotone"
        ],
    }
    if name in builders:
        return builders[name]()
    path = Path(name)
    if path.exists():
        return load_script(path.read_text())
    raise ValueError(f"unknown script {name!r}: not a builtin {sorted(builders)} or a file")


def _require_member(member: GeneratedGraph | None, kind: str) -> GeneratedGraph:
    if member is None:
        raise ValueError(f"builtin script needs a --recipe of the {kind} family")
    return member


# -- subcommands ----------------------------------------------------------------


def _cmd_generate(args: argparse.Namespace) -> int:
    if not args.recipe:
        raise ValueError("generate needs --recipe")
    member = generate(parse_recipe(args.recipe))
    g = member.graph
    results = {
        "recipe": recipe_to_str(member.recipe),
        "n": g.n,
        "edges": [list(e) for e in g.edges],
        "annotations": {k: v for k, v in sorted(member.annotations.items())},
    }
    payload = _envelope("generate", g, None, results, [])
    # text mode emits the plain graph serialization so the output can feed
    # straight back into --graph
    _emit(args, payload, dump_text(g))
    return OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    g, _ = _graph_from_args(args)
    radii = sorted(set(args.ell or [1]))
    met = metrics(g)
    dom = {r: k_domination_number(g, r) for r in sorted({1, *radii})}
    results = {
        "n": g.n,
        "m": len(g.edges),
        "radius": met.radius,
        "diameter": met.diameter,
        "center": list(met.center),
        "is_tree": g.is_tree(),
        "is_chordal": is_chordal(g),
        "is_copwin": is_copwin(g),
        "domination": dom[1],
        "ball_domination": {str(r): dom[r] for r in radii},
    }
    lines = [
        f"graph {g.key()}  n={g.n} m={len(g.edges)}",
        f"radius {met.radius}  diameter {met.diameter}  center {' '.join(map(str, met.center))}",
        "tree {}  chordal {}  copwin {}".format(
            *("yes" if b else "no" for b in (results["is_tree"], results["is_chordal"], results["is_copwin"]))
        ),
        f"domination {results['domination']}",
    ]
    lines += [f"ball domination r={r}: {k}" for r, k in sorted(results["ball_domination"].items())]
    _emit(args, _envelope("analyze", g, None, results, []), "\n".join(lines))
    return OK


def _cmd_solve(args: argparse.Namespace) -> int:
    g, _ = _graph_from_args(args)
    variant = Variant(args.variant)
    if args.cops is None:
        k, out = _least_winning(g, args.ell, variant, budget=args.budget)
    else:
        k = args.cops
        out = solve(g, GameSpec(args.ell, k, variant), budget=args.budget)
    results = dict(out.to_public_dict())
    if args.cops is None:
        results["number"] = k
    spec = _spec_dict(args.ell, k, variant.value)
    lines = []
    if args.cops is None:
        lines.append(f"cop number {k}")
    lines.append(f"winner {out.winner.value}  states {out.states}  depth {out.depth}")
    if out.placement:
        lines.append("placement " + " ".join(map(str, out.placement)))
    _emit(args, _envelope("solve", g, spec, results, []), "\n".join(lines))
    return INCONCLUSIVE if out.winner is Winner.INCONCLUSIVE else OK


def _cmd_profile(args: argparse.Namespace) -> int:
    g, _ = _graph_from_args(args)
    radii = tuple(args.ell or [1])
    parts = tuple(args.parts.split(",")) if args.parts else ALL_PARTS
    prof = profile(g, radii, parts=parts, budget=args.budget)
    results = prof.as_dict()
    lines = [f"graph {g.key()}  n={g.n}"]
    for name in ("classical", "blind", "delayed", "domination"):
        if results.get(name) is not None:
            lines.append(f"{name} {results[name]}")
    for name in ("capture_at", "see_at", "monotone_at", "domination_at"):
        for r, v in sorted(results.get(name, {}).items()):
            lines.append(f"{name[:-3]} r={r}: {v}")
    _emit(args, _envelope("profile", g, None, results, []), "\n".join(lines))
    return OK


def _cmd_rank(args: argparse.Namespace) -> int:
    g, _ = _graph_from_args(args)
    k, cert = rank(g, args.ell)
    verified = verify_certificate(g, cert)
    hb = height_bound(g, args.ell)
    results = {
        "rank": k,
        "certificate": cert.to_dict(),
        "verified": verified,
        "height_bound": {
            "radius_reading": hb.radius_reading,
            "diameter_reading": hb.diameter_reading,
        },
    }
    lines = [
        f"rank {k}",
        f"certificate hub={cert.hub} branches={len(cert.branches)} verified={'yes' if verified else 'no'}",
        f"height bound radius={hb.radius_reading} diameter={hb.diameter_reading}",
    ]
    _emit(args, _envelope("rank", g, _spec_dict(args.ell, None, Variant.SEE.value), results, []), "\n".join(lines))
    return OK


def _cmd_verify(args: argparse.Namespace) -> int:
    g, member = _graph_from_args(args)
    script = _resolve_script(args.script, g, member)
    if args.cops is not None and args.cops != script.cops:
        raise ValueError(f"script uses {script.cops} cops, --cops says {args.cops}")
    variant = Variant(args.variant)
    spec = GameSpec(args.ell, script.cops, variant)
    try:
        rep = simulate_script(g, spec, script)
    except MonotonicityViolation as exc:
        results = {"script": {"cops": script.cops, "rounds": script.rounds}, "violation": str(exc)}
        payload = _envelope(
            "verify", g, _spec_dict(args.ell, script.cops, variant.value), results, []
        )
        _emit(args, payload, f"monotonicity violated: {exc}")
        return OK
    d = rep.to_dict()
    results = {"script": {"cops": script.cops, "rounds": script.rounds}, "report": d}
    events = sorted(
        [{"round": r, "type": "seen", "vertex": v} for r, v in rep.seen_events]
        + [{"round": r, "type": "recontaminated", "vertex": v} for r, v in rep.recontaminations]
        + [{"round": r, "type": "located", "vertex": v} for r, v in rep.located],
        key=lambda e: (e["round"], e["type"], e["vertex"]),
    )
    lines = [f"script cops={script.cops} rounds={script.rounds}"]
    lines.append(
        f"cleaned round={d['cleaned_at']}" if d["cleaned_at"] is not None else "not cleaned"
    )
    if d["seen_guaranteed_at"] is not None:
        lines.append(f"seen guaranteed round={d['seen_guaranteed_at']}")
    lines.append(f"monotone {'true' if d['monotone'] else 'false'}")
    if rep.recontaminations:
        lines.append(
            "recontaminated " + " ".join(f"{v}@{r}" for r, v in rep.recontaminations)
        )
    payload = _envelope("verify", g, _spec_dict(args.ell, script.cops, variant.value), results, events)
    _emit(args, payload, "\n".join(lines))
    return OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    g, member = _graph_from_args(args)
    variant = Variant(args.variant)
    if args.script:
        script = _resolve_script(args.script, g, member)
        if args.cops is not None and args.cops != script.cops:
            raise ValueError(f"script uses {script.cops} cops, --cops says {args.cops}")
        spec = GameSpec(args.ell, script.cops, variant)
    elif args.cops is None:
        raise ValueError("simulate needs --cops (or --script)")
    else:
        spec = GameSpec(args.ell, args.cops, variant)
    # the solved policies play one solve's strategy
    if not args.script or args.robber == "solved":
        outcome = solve(g, spec, budget=args.budget)
        if outcome.winner is Winner.INCONCLUSIVE:
            raise BudgetExceeded(f"solve stopped at {outcome.states} states")
    if args.script:
        cop_policy = ScriptedCops(script)
    elif outcome.winner is not Winner.COPS:
        raise ValueError(f"cops lose with {args.cops} cop(s) here; raise --cops")
    else:
        cop_policy = SolvedCops(outcome)
    robber_policy = SolvedRobber(outcome) if args.robber == "solved" else RandomRobber(args.seed)
    trace = play_match(g, spec, cop_policy, robber_policy, max_rounds=args.rounds)
    d = trace.to_dict()
    results = {"outcome": d["outcome"], "rounds": d["rounds"]}
    lines = [f"outcome {d['outcome']} after {d['rounds']} round(s)"]
    for h in d["history"]:
        cops = " ".join(map(str, h["cops"]))
        lines.append(f"round {h['round']}: cops {cops}  robber {h['robber']}")
    payload = _envelope(
        "simulate", g, _spec_dict(args.ell, spec.cops, variant.value), results, d["history"]
    )
    _emit(args, payload, "\n".join(lines))
    return OK


def _cmd_witness(args: argparse.Namespace) -> int:
    """Search cop-win graphs for one where a single cop can always see the
    evader at the given radius but two cops are needed to capture."""
    ell = args.ell
    if ell < 1:
        raise ValueError("the gap needs a positive visibility radius")

    def profiler(h: Graph):
        # a dominating vertex pins the evader at radius 1, and capture
        # numbers fall as the radius grows, so no gap is possible
        if any(h.adj_closed[v] == h.full for v in range(h.n)):
            return None
        # the screen solves every count: its solves intern and count their
        # states, so the witness benchmark's traced solve counts still see
        # its work, and answer by decide or the walk search as any solve does
        first = profile(h, (ell,), parts=("capture",), budget=args.budget, retrograde=True)
        if first.capture_at.get(ell) != 2:
            return None
        # reuse the screen's capture number; replace() re-runs the chain check
        rest = profile(h, (ell,), parts=("classical", "see"), budget=args.budget, retrograde=True)
        return dataclasses.replace(rest, capture_at=first.capture_at)

    def hit(p) -> bool:
        return p.classical == 1 and p.see_at.get(ell) == 1 and p.capture_at.get(ell) == 2

    single, _ = _graph_from_args(args)
    if single is not None:
        draw, limit = lambda i: single, 1
    else:
        # needing two cops to capture is vanishingly rare below eight
        # vertices, so every draw uses the full admissible order; a draw
        # depends on its index alone, so worker processes can share the
        # stream out by index
        def draw(i: int) -> Graph:
            return random_copwin_graph(args.max_n, seed=args.seed + i)

        limit = args.limit
    res = search_witness(hit, draw, limit=limit, profiler=profiler, workers=args.workers)
    found = res.graph is not None
    results = {
        "found": found,
        "tried": res.tried,
        "skipped": res.skipped,
        "witness": _graph_dict(res.graph) if found else None,
        "profile": res.profile.as_dict() if found else None,
    }
    spec = _spec_dict(ell, None, Variant.SEE.value)
    if found:
        p = res.profile
        lines = [
            f"witness found after {res.tried} candidate(s): {res.graph.key()} n={res.graph.n}",
            f"classical {p.classical}  see r={ell}: {p.see_at[ell]}  capture r={ell}: {p.capture_at[ell]}",
            dump_text(res.graph).rstrip("\n"),
        ]
    else:
        lines = [f"no witness in {res.tried} candidate(s) ({res.skipped} skipped)"]
    _emit(args, _envelope("witness", res.graph, spec, results, []), "\n".join(lines))
    return OK if found else INCONCLUSIVE


# -- wiring ---------------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    """The command line parser, built on the first call and shared after
    that: parse_args keeps its results in a fresh namespace per call."""
    parser = _Parser(prog="lvcops", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("generate", help="emit a family member as a graph file")
    p.add_argument("--recipe", required=True, help="family recipe, e.g. spider:3,4")
    _add_output(p)
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("analyze", help="structural report: metrics, classes, domination")
    _add_input(p)
    p.add_argument("--ell", type=int, action="append", help="ball radius, repeatable")
    _add_output(p)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("solve", help="solve one game, or find the cop number")
    _add_input(p)
    p.add_argument("--ell", type=int, required=True, help="visibility radius")
    p.add_argument("--cops", type=int, help="cop count; omit to search for the least")
    p.add_argument("--variant", choices=_VARIANTS, default=Variant.CAPTURE.value)
    _add_solver(p)
    _add_output(p)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("profile", help="all game numbers for one graph")
    _add_input(p)
    p.add_argument("--ell", type=int, action="append", help="ball radius, repeatable")
    p.add_argument("--parts", help="comma list, e.g. classical,see,capture")
    _add_solver(p)
    _add_output(p)
    p.set_defaults(fn=_cmd_profile)

    p = sub.add_parser("rank", help="branching rank of a tree with certificate")
    _add_input(p)
    p.add_argument("--ell", type=int, default=1, help="visibility radius")
    _add_output(p)
    p.set_defaults(fn=_cmd_rank)

    p = sub.add_parser("verify", help="run a cleaning script in the worst case")
    _add_input(p)
    p.add_argument("--script", required=True, help="builtin name or path to a script file")
    p.add_argument("--ell", type=int, required=True, help="visibility radius")
    p.add_argument("--cops", type=int, help="expected cop count, checked against the script")
    p.add_argument("--variant", choices=_VARIANTS, default=Variant.SEE.value)
    _add_output(p)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("simulate", help="play one match and dump the trace")
    _add_input(p)
    p.add_argument("--ell", type=int, required=True, help="visibility radius")
    p.add_argument("--cops", type=int, help="cop count for solved cops")
    p.add_argument("--script", help="builtin name or script path for scripted cops")
    p.add_argument("--variant", choices=_VARIANTS, default=Variant.CAPTURE.value)
    p.add_argument("--robber", choices=("random", "solved"), default="random")
    p.add_argument("--seed", type=int, default=0, help="random robber seed")
    p.add_argument("--rounds", type=_at_least_one, default=200, help="round cap for the match")
    _add_solver(p)
    _add_output(p)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser(
        "witness", help="search cop-win graphs for a see-with-one / capture-with-two gap"
    )
    _add_input(p, required=False)
    p.add_argument("--ell", type=int, default=1, help="visibility radius")
    p.add_argument("--max-n", type=_vertex_count, default=8, help="largest candidate order")
    p.add_argument("--limit", type=_at_least_one, default=100_000, help="candidate budget")
    p.add_argument("--seed", type=int, default=0, help="candidate stream seed")
    _add_solver(p)
    _add_output(p)
    p.set_defaults(fn=_cmd_witness)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse handles --help and usage errors by exiting; keep main()
        # returning an int so it can be driven as a function
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return INCONCLUSIVE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
