"""The four benchmark workloads: their jobs, their inputs and their checks.

A workload is an endless stream of jobs, cut into passes.  Every job is one
`lvcops.cli.main` argument list, run with `--format structured`.

deep_solve, census and certify run a fixed set of graphs in every pass, each
graph with its vertices relabelled by a permutation drawn from the seed, the
pass and the graph's place in the pass (certify leaves the seed out; see
Certify).  Seed 0, pass 0 keeps the labels and reproduces the runs the
workloads were sized on.  Relabelling changes every enumeration order and
tie-break inside the program but not the game, so a run does the same work
at every seed and every answer that does not depend on labels is checked
against the reference at every seed.  Drawing new random graphs per seed
instead made a run's figures depend on the luck of the draw: on census and
certify, five seeds spread jobs_per_s by 12% and 27%.

The stream is a generator: it yields a Job and receives that job's
JobResult through `send`, which lets the witness workload resume its
candidate stream where the previous job stopped.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from lvcops.families import generate, parse_recipe, random_connected_graph, random_tree
from lvcops.graphs import Graph, dump_text, is_copwin, k_domination_number
from lvcops.treerank import rank

@dataclass
class JobResult:
    code: int
    seconds: float
    stdout: str
    stderr: str

    def envelope(self) -> dict | None:
        try:
            return json.loads(self.stdout)
        except ValueError:
            return None


@dataclass
class Job:
    label: str  # "<workload>/p<pass>/<item>/<kind>", unique within a run
    argv: list[str]
    check: Callable[[dict, int], list[str]]  # problems found in a parsed envelope
    expect: tuple[int, ...] = (0,)
    # the part of "results" that relabelling leaves unchanged, compared with
    # the reference at every seed; None when nothing is label-free
    invariant: Callable[[dict], dict] | None = None
    graph_file: Path | None = None

    @property
    def slot(self) -> str:
        """The job's place in a pass: its label without the pass."""
        name, _, item, kind = self.label.split("/")
        return f"{name}/{item}/{kind}"

    def key(self) -> str:
        """Identity of the job's exact input, independent of file paths and
        of --workers (structured output must not depend on the worker count)."""
        out = []
        args = iter(self.argv)
        for a in args:
            if a == "--workers":
                next(args)
                continue
            if self.graph_file is not None and a == str(self.graph_file):
                a = "@" + digest(self.graph_file.read_text())
            out.append(a)
        return " ".join(out)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _structured(argv: list[str]) -> list[str]:
    return argv + ["--format", "structured"]


def _pick(*fields: str) -> Callable[[dict], dict]:
    return lambda r: {f: r.get(f) for f in fields}


def _drop(*fields: str) -> Callable[[dict], dict]:
    return lambda r: {f: v for f, v in r.items() if f not in fields}


def relabel(g: Graph, rng: random.Random | None) -> Graph:
    """The same graph with its vertex labels permuted; identity for None."""
    perm = list(range(g.n))
    if rng is not None:
        rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


class Workload:
    """A fixed list of graphs, relabelled per pass, and the jobs on each.
    Subclasses set `graphs` and build a graph's jobs in `graph_jobs`."""

    name = ""

    def __init__(self, seed: int, workdir: Path, small: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.small = small
        self.graphs: list[Graph] = []

    def fixed_jobs(self, passno: int) -> list[Job]:
        return []

    def graph_jobs(self, passno: int, i: int, path: Path, g: Graph) -> list[Job]:
        raise NotImplementedError

    def relabelling(self, passno: int, i: int) -> random.Random | None:
        """The permutation source for graph i in a pass; None keeps labels."""
        if (self.seed, passno) == (0, 0):
            return None
        return random.Random(f"{self.seed}/{passno}/{i}")

    def pass_jobs(self, passno: int) -> list[Job]:
        jobs = self.fixed_jobs(passno)
        for i, g in enumerate(self.graphs):
            h = relabel(g, self.relabelling(passno, i))
            path = self.workdir / f"{self.name}-p{passno}-{i}.txt"
            path.write_text(dump_text(h))
            jobs += self.graph_jobs(passno, i, path, h)
        return jobs

    def setup(self) -> None:
        """Build the inputs of pass 0; later passes build theirs as they start."""
        self._first = self.pass_jobs(0)

    def stream(self, passes: int | None = None) -> Iterator[Job]:
        p = 0
        while passes is None or p < passes:
            for job in self._first if p == 0 else self.pass_jobs(p):
                yield job  # a sent result is not needed here
            p += 1


# -- deep_solve -------------------------------------------------------------------

# The README's criterion-6 solve, and a budget stop in the middle of wave 8.
MONOTONE_ARGV = ["solve", "--recipe", "subdivided:3,3", "--ell", "1", "--cops", "2",
                 "--variant", "monotone_capture", "--budget", "10000000", "--workers", "1"]
BUDGET_STOP = 30_000
BUDGET_ARGV = ["solve", "--recipe", "subdivided:3,3", "--ell", "1", "--cops", "2",
               "--variant", "see", "--budget", str(BUDGET_STOP), "--workers", "1"]


class DeepSolve(Workload):
    """Three large fixed-cop solves at --workers 1: the criterion-6 monotone
    solve, `randomtree:n=24,seed=4` (relabelled, passed as a graph file) and
    a budget stop."""

    name = "deep_solve"

    def __init__(self, seed, workdir, small=False):
        super().__init__(seed, workdir, small)
        self.graphs = [random_tree(12 if small else 24, 4)]
        self._rank: int | None = None

    def fixed_jobs(self, passno):
        if self.small:
            mono = [a if a != "subdivided:3,3" else "subdivided:2,1" for a in MONOTONE_ARGV]
            stop = [a if a != str(BUDGET_STOP) else "2000" for a in BUDGET_ARGV]
            budget = 2000
        else:
            mono, stop, budget = MONOTONE_ARGV, BUDGET_ARGV, BUDGET_STOP
        solved = _pick("winner", "states", "depth")
        return [
            Job(f"deep_solve/p{passno}/0/monotone", _structured(mono), check=_solved, invariant=solved),
            Job(f"deep_solve/p{passno}/0/budget_stop", _structured(stop), expect=(2,),
                check=lambda env, code: _budget_stopped(env, budget), invariant=solved),
        ]

    def graph_jobs(self, passno, i, path, g):
        argv = ["solve", "--graph", str(path), "--ell", "1", "--cops", "2", "--workers", "1"]
        return [Job(f"deep_solve/p{passno}/{i}/tree", _structured(argv), check=self._tree_check,
                    invariant=_pick("winner", "states", "depth"), graph_file=path)]

    def _tree_check(self, env, code):
        if self._rank is None:
            self._rank = rank(self.graphs[0], 1)[0]
        probs = _solved(env, code)
        want = "cops" if self._rank <= 2 else "robber"
        if env["results"]["winner"] != want:
            probs.append(f"tree winner {env['results']['winner']}, but rank {self._rank} says {want}")
        return probs


def _solved(env, code):
    w = env["results"]["winner"]
    return [] if w in ("cops", "robber") else [f"winner {w}"]


def _budget_stopped(env, budget):
    r = env["results"]
    probs = []
    if r["winner"] != "inconclusive":
        probs.append(f"budget stop reported winner {r['winner']}")
    if r["states"] != budget:
        probs.append(f"budget stop at {r['states']} states, budget {budget}")
    return probs


# -- census -------------------------------------------------------------------------


class Census(Workload):
    """A full profile and a see-number search on each of 100 connected
    graphs with n=5..9: the first 100 of acceptance criterion 8."""

    name = "census"

    def __init__(self, seed, workdir, small=False):
        super().__init__(seed, workdir, small)
        for i in range(5 if small else 100):
            n = 5 + i % 5
            self.graphs.append(random_connected_graph(n, (i * 3) % (n + 3), i))
        self._see: dict[str, int] = {}

    def graph_jobs(self, passno, i, path, g):
        base = f"census/p{passno}/{i}"
        return [
            Job(f"{base}/profile", _structured(["profile", "--graph", str(path), "--ell", "1", "--ell", "2"]),
                check=lambda env, code: self._profile_check(base, g, env),
                invariant=_drop("graph"), graph_file=path),
            Job(f"{base}/solve", _structured(["solve", "--graph", str(path), "--ell", "1", "--variant", "see"]),
                check=lambda env, code: self._solve_check(base, g, env),
                invariant=_pick("number", "winner", "states", "depth"), graph_file=path),
        ]

    def _profile_check(self, base, g, env):
        r = env["results"]
        self._see[base] = r["see_at"]["1"]
        if (r["classical"] == 1) != is_copwin(g):
            return [f"classical number {r['classical']} but is_copwin {is_copwin(g)}"]
        return []

    def _solve_check(self, base, g, env):
        r = env["results"]
        k = r.get("number")
        probs = []
        dom = k_domination_number(g, 1)
        if k is None or k > dom:
            probs.append(f"see number {k} above ball domination {dom}")
        if r["winner"] != "cops":
            probs.append(f"winner {r['winner']} at the reported number")
        if base in self._see and self._see[base] != k:
            probs.append(f"see number {k}, profile says {self._see[base]}")
        return probs


# -- witness ------------------------------------------------------------------------

WITNESS_CANDIDATES = 14_269  # criterion 9 screens exactly this many at stream seed 0
WITNESS_CHUNK = 250  # about 57 jobs a pass, so that job_p90_s has samples


class Witness(Workload):
    """The criterion-9 witness search at --workers 2, in jobs of at most
    WITNESS_CHUNK candidates.  Each job resumes the candidate stream where
    the previous one stopped, after a hit or at its limit.  A pass screens
    WITNESS_CANDIDATES candidates; the stream of seed s starts at s * 10**6,
    and later passes continue it."""

    name = "witness"

    def setup(self):
        pass

    def stream(self, passes=None):
        per_pass = 600 if self.small else WITNESS_CANDIDATES
        cursor = self.seed * 1_000_000
        p = 0
        while passes is None or p < passes:
            left, j = per_pass, 0
            while left > 0:
                limit = min(WITNESS_CHUNK, left)
                argv = ["witness", "--ell", "1", "--max-n", "8", "--workers", "2",
                        "--seed", str(cursor), "--limit", str(limit)]
                res = yield Job(f"witness/p{p}/{j}/chunk", _structured(argv), expect=(0, 2),
                                check=lambda env, code, limit=limit: _witness_check(env, code, limit))
                env = res.envelope() if res is not None else None
                # a broken job still moves the stream on by its full limit
                tried = env["results"]["tried"] if env else limit
                cursor += tried
                left -= tried
                j += 1
            p += 1


def _witness_check(env, code, limit):
    r = env["results"]
    if not r["found"]:
        if code != 2 or r["tried"] != limit:
            return [f"no hit: exit {code} after {r['tried']} of {limit} candidates"]
        return []
    probs = []
    if code != 0 or r["tried"] > limit:
        probs.append(f"hit: exit {code} after {r['tried']} of {limit} candidates")
    w = r["witness"]
    g = Graph(w["n"], [tuple(e) for e in w["edges"]])
    if not is_copwin(g):
        probs.append("witness is not cop-win")
    if any(g.adj_closed[v] == g.full for v in range(g.n)):
        probs.append("witness has a dominating vertex")
    p = r["profile"]
    got = (p["classical"], p["see_at"].get("1"), p["capture_at"].get("1"))
    if got != (1, 1, 2):
        probs.append(f"witness classical/see/capture numbers {got}, want (1, 1, 2)")
    return probs


# -- certify ------------------------------------------------------------------------


class Certify(Workload):
    """Tree work with no solve: rank certificates, cleaning scripts, scripted
    playouts and structural analysis on 40 random trees with n=16..48, plus
    the T-family and the subdivided-tree scripts.

    The relabelling here depends on the pass only, and the seed draws the
    random evader of each playout.  The branch and bound in
    k_domination_number, most of this workload's time, breaks ties by label:
    one pass of analyze jobs took 3.0 to 4.5 s across relabellings, so labels
    drawn from the seed would make a run's work depend on the seed."""

    name = "certify"

    def __init__(self, seed, workdir, small=False):
        super().__init__(seed, workdir, small)
        for i in range(3 if small else 40):
            # 13 is prime to 33, so the orders sweep all of 16..48
            self.graphs.append(random_tree(16 + (i * 13) % 33, i))
        member = generate(parse_recipe("subdivided:3,3"))
        self.junction = member.annotations["names"]["LR"]

    def relabelling(self, passno, i):
        return None if passno == 0 else random.Random(f"{passno}/{i}")

    def fixed_jobs(self, passno):
        jobs = []
        for k in (2,) if self.small else (2, 3, 4):
            recipe = f"tfamily:k={k},ell=1"
            jobs.append(Job(f"certify/p{passno}/t{k}/rank",
                            _structured(["rank", "--recipe", recipe, "--ell", "1"]), check=_certified))
            jobs.append(Job(f"certify/p{passno}/t{k}/verify",
                            _structured(["verify", "--recipe", recipe, "--script", "tfamily", "--ell", "1"]),
                            check=_cleaned))
        for script in ("tell_2cop", "tell_3cop"):
            argv = ["verify", "--recipe", "subdivided:3,3", "--script", script, "--ell", "1"]
            jobs.append(Job(f"certify/p{passno}/subdivided/{script}", _structured(argv),
                            check=lambda env, code, s=script: self._tell_check(s, env)))
        return jobs

    def graph_jobs(self, passno, i, path, g):
        base = f"certify/p{passno}/{i}"
        graph = ["--graph", str(path)]
        ranked = _pick("rank", "verified", "height_bound")
        return [
            Job(f"{base}/rank1", _structured(["rank", *graph, "--ell", "1"]),
                check=_certified, invariant=ranked, graph_file=path),
            Job(f"{base}/rank2", _structured(["rank", *graph, "--ell", "2"]),
                check=_certified, invariant=ranked, graph_file=path),
            Job(f"{base}/verify", _structured(["verify", *graph, "--script", "tree1vis", "--ell", "1"]),
                check=_cleaned, graph_file=path),
            Job(f"{base}/simulate",
                _structured(["simulate", *graph, "--script", "tree1vis", "--variant", "see",
                             "--ell", "1", "--seed", str(self.seed * 1_000_000 + passno * 1_000 + i)]),
                check=_seen, graph_file=path),
            Job(f"{base}/analyze", _structured(["analyze", *graph, "--ell", "1", "--ell", "2"]),
                check=_tree_analysis, invariant=_drop("center"), graph_file=path),
        ]

    def _tell_check(self, script, env):
        rep = env["results"].get("report")
        if rep is None:
            return [f"{script}: {env['results'].get('violation')}"]
        probs = [] if rep["cleaned_at"] is not None else [f"{script} does not clean the tree"]
        readmitted = {v for _, v in rep["recontaminated"]}
        if script == "tell_2cop" and (rep["monotone"] or self.junction not in readmitted):
            probs.append("tell_2cop does not readmit the LR junction")
        if script == "tell_3cop" and not rep["monotone"]:
            probs.append("tell_3cop is not monotone")
        return probs


def _certified(env, code):
    r = env["results"]
    probs = [] if r["verified"] else ["rank certificate does not verify"]
    if r["rank"] > r["height_bound"]["diameter_reading"]:
        probs.append(f"rank {r['rank']} above the diameter reading {r['height_bound']['diameter_reading']}")
    return probs


def _cleaned(env, code):
    rep = env["results"].get("report")
    if rep is None or rep["cleaned_at"] is None:
        return ["script does not clean the tree"]
    return []


def _seen(env, code):
    out = env["results"]["outcome"]
    return [] if out == "seen" else [f"scripted playout ended {out}"]


def _tree_analysis(env, code):
    r = env["results"]
    probs = []
    if not (r["is_tree"] and r["is_chordal"] and r["is_copwin"]):
        probs.append("a tree reported as not a tree, not chordal or not cop-win")
    dom = r["ball_domination"]
    if not 1 <= dom["2"] <= dom["1"] <= r["domination"]:
        probs.append(f"ball domination grows with the radius: {dom}")
    return probs


CLASSES = {w.name: w for w in (DeepSolve, Census, Witness, Certify)}


def make(name: str, seed: int, workdir: Path, small: bool = False) -> Workload:
    return CLASSES[name](seed, workdir, small)
