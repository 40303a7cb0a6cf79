#!/usr/bin/env python3
"""lvcops benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload deep_solve --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Each job is one in-process `lvcops.cli.main([..., "--format", "structured"])`
call, run back to back by one client (a closed loop).  With --trace 0 the
workload's jobs run for --seconds seconds and the end-to-end metrics are
printed.  With --trace 1 one fixed pass of the workload runs untraced and
then traced, and the per-layer metrics are printed; a fixed pass is what
makes the count metrics repeat exactly.  Every job's output is checked.  The
last line of stdout is one JSON object; the exit code is 1 when any job
failed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference.json"
SETUP_REPEATS = 9
WORKLOADS = ("deep_solve", "census", "witness", "certify")


def load_package() -> None:
    """Import lvcops from this checkout's src/, never from anywhere else."""
    init = SRC / "lvcops" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no lvcops sources at {init.parent}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import lvcops

    if Path(lvcops.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported lvcops from {lvcops.__file__}, not {init}")


# -- running jobs ----------------------------------------------------------------------


def run_job(argv):
    from lvcops import cli
    from workloads import JobResult

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)  # looked up per call, so a tracer's wrapper is used
    except Exception:
        # a crash is one failed job; the loop must go on to report the rest
        code = -1
        err.write(traceback.format_exc())
    return JobResult(code, time.perf_counter() - t0, out.getvalue(), err.getvalue())


def run_jobs(stream, seconds: float | None, tracer=None, speed=None, after=None):
    """Run jobs from the stream until it ends or, when seconds is given, until
    that much time has passed; the job running at the deadline completes.
    A speedometer, when given, samples the machine between jobs; `after`,
    when given, sees each job and its result once the stream has too."""
    done = []
    t0 = time.perf_counter()
    job = next(stream, None)
    while job is not None:
        if tracer is not None:
            tracer.job = len(done)
        res = run_job(job.argv)
        done.append((job, res))
        if speed is not None:
            speed.maybe_sample()
        nxt = None
        if seconds is None or time.perf_counter() - t0 < seconds:
            try:
                nxt = stream.send(res)
            except StopIteration:
                pass
        if after is not None:
            after(job, res)
        job = nxt
    return done, time.perf_counter() - t0


# -- checks ------------------------------------------------------------------------------


def check_job(wl, job, res, reference) -> list[str]:
    """A job's problems: its exit code, the workload's own checks, and the
    reference where it holds the job: the digest of the exact output, and
    the label-free part of the results at the job's place in a pass."""
    from workloads import digest

    # small runs use other graphs in the same places
    invariants = {} if wl.small else reference.get("invariants", {})
    probs = []
    env = res.envelope()
    if res.code not in job.expect:
        probs.append(f"exit {res.code}, expected {job.expect}: {res.stderr.strip()[-300:]}")
    elif env is None:
        probs.append("output is not a structured envelope")
    else:
        try:
            probs += job.check(env, res.code)
            if job.invariant is not None and job.slot in invariants:
                got = job.invariant(env["results"])
                if got != invariants[job.slot]:
                    probs.append(f"results {got} differ from the reference {invariants[job.slot]}")
        except (KeyError, TypeError, ValueError) as exc:
            probs.append(f"malformed results: {exc!r}")
    want = reference.get("digests", {}).get(job.key())
    if want is not None and [res.code, digest(res.stdout)] != want:
        probs.append(f"output (exit {res.code}, digest {digest(res.stdout)}) differs from the reference {want}")
    return probs


def check_jobs(wl, done, reference) -> list[list[str]]:
    return [check_job(wl, job, res, reference) for job, res in done]


def check_traced(wl, untraced, traced, tracer, reference) -> list[list[str]]:
    """Extra problems per traced job: its output must equal the untraced
    run's, and deep_solve's wave sizes and summed states must match."""
    from workloads import digest

    out = [[] for _ in traced]
    for i, ((job, res), (_, plain)) in enumerate(zip(traced, untraced)):
        if digest(res.stdout) != digest(plain.stdout):
            out[i].append("traced output differs from the untraced output")
    if len(traced) != len(untraced):
        out[-1].append(f"traced pass ran {len(traced)} jobs, untraced {len(untraced)}")
    if wl.name == "deep_solve":
        waves = {} if wl.small else reference.get("wave_sizes", {})
        for i, outcome in tracer.solves:
            want = waves.get(traced[i][0].slot)
            if want is not None and list(outcome.wave_sizes) != want:
                out[i].append(f"wave sizes {list(outcome.wave_sizes)} differ from the reference {want}")
        reported = sum((r.envelope() or {}).get("results", {}).get("states", 0) for _, r in untraced)
        if reported != tracer.counts["solver.states"]:
            out[-1].append(f"traced solves interned {tracer.counts['solver.states']} states, jobs reported {reported}")
    return out


# -- metrics -----------------------------------------------------------------------------


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure_setup(name: str, seed: int, workdir: Path, speed) -> list[float]:
    """Wall time of fresh interpreters that import the package and build the
    workload's inputs, then exit."""
    times = []
    for k in range(SETUP_REPEATS):
        speed.sample()
        d = workdir / f"setup-{k}"
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(seed), "--setup-only", str(d)]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"error: setup failed: {proc.stderr.strip()}")
    return times


def slot_latencies(done, scale=1.0) -> list[float]:
    """One latency per place in a pass (Job.slot): the mean over the passes
    of this run that reached it, multiplied by scale.  Percentiles over these
    weight every job of the workload's mix once, wherever the deadline cut
    the last pass; over the raw jobs they would shift with the share of the
    last pass that ran."""
    by_slot: dict[str, list[float]] = {}
    for job, res in done:
        by_slot.setdefault(job.slot, []).append(res.seconds * scale)
    return [statistics.fmean(v) for v in by_slot.values()]


def end_to_end(done, setup_s, scale=1.0):
    """jobs_per_s is one over the mean slot latency: the throughput of one
    client running the workload's mix back to back."""
    lat = slot_latencies(done, scale)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (len(lat) / sum(lat), "jobs/s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "job_p90_s": (p90, "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


def report_only(attempted, failed, solved):
    """Figures printed for people but left out of the result line: each
    reads 0 on some workload, and a bound on a share of 0 means nothing.
    solved is (states, seconds) summed over the fixed-cop solve jobs."""
    out = {"error_rate": (failed / attempted, "ratio")}
    if solved[1]:
        out["states_per_s"] = (solved[0] / solved[1], "states/s")
    return out


LAYER_CALLS = ("solver.solve", "solver.cop_number", "graphs.k_domination_number",
               "families.generate", "families.random_copwin_graph", "engine.simulate_script",
               "engine.play_match", "treerank.rank", "cli.main")
LAYER_BUSY = ("solver.solve", "graphs.k_domination_number", "graphs.load", "graphs.is_chordal",
              "graphs.is_copwin", "families.generate", "families.random_copwin_graph",
              "engine.simulate_script", "engine.play_match", "strategies.tree_one_visibility_script",
              "strategies.t_family_script", "strategies.t_ell_scripts", "treerank.rank",
              "treerank.verify_certificate")
LAYER_SELF = ("solver.profile", "cli.main")


def per_layer(tracer, wall_traced, wall_plain):
    """Per-layer metrics of the traced pass.  Layer times are shares of the
    traced pass's wall time, so that a layer a workload never calls reads
    0 %, not a time of 0 s; trace.wall_s converts a share back to seconds.
    Times here are raw: a pass of a few seconds holds too few speed samples
    to scale by (see speed.py)."""
    rows = tracer.by_name()
    c = tracer.counts
    row = lambda name: rows.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    share = lambda s: 100.0 * s / wall_traced
    ratio = lambda a, b: a / b if b else 0.0
    m = {
        "solver.states": (c["solver.states"], "count"),
        "solver.waves": (c["solver.waves"], "count"),
        "solver.inconclusive": (c["solver.inconclusive"], "count"),
        "solver.states_per_busy_s": (ratio(c["solver.states"], row("solver.solve")["busy_s"]), "states/s"),
        "solver.solves_per_answer": (ratio(row("solver.solve")["calls"], tracer.answers()), "ratio"),
        "solver.witness.stage1_ratio": (ratio(c["solver.witness.capture_screen"], c["solver.witness.screened"]), "ratio"),
        "solver.witness.stage2_ratio": (ratio(c["solver.witness.full_profile"], c["solver.witness.screened"]), "ratio"),
        "graphs.grow.calls": (c["graphs.grow.calls"], "count"),
        "graphs.grow.calls_per_state": (ratio(c["graphs.grow.calls"], c["solver.states"]), "ratio"),
        "engine.play_match.rounds": (c["engine.play_match.rounds"], "count"),
    }
    for name in LAYER_CALLS:
        m[f"{name}.calls"] = (row(name)["calls"], "count")
    for name in LAYER_BUSY:
        m[f"{name}.busy_share"] = (share(row(name)["busy_s"]), "%")
    for name in LAYER_SELF:
        m[f"{name}.self_share"] = (share(row(name)["self_s"]), "%")
    m["trace.wall_s"] = (wall_traced, "s")
    m["trace.overhead_s"] = (wall_traced - wall_plain, "s")
    return m


# -- output ----------------------------------------------------------------------------------


def print_metrics(title, metrics, notes=None):
    print(title)
    for name, (value, unit) in metrics.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:50s} {shown:>14s} {unit}{'  ' + notes[name] if notes and name in notes else ''}")


def print_spans(rows, wall):
    print(f"traced pass by span, wall {wall:.3f} s (busy counts each nesting once; self excludes child spans)")
    print(f"  {'span':50s} {'calls':>9s} {'busy_s':>10s} {'self_s':>10s}")
    for name, r in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:50s} {r['calls']:9d} {r['busy_s']:10.4f} {r['self_s']:10.4f}")


def result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def report_failures(done, problems, limit=10):
    bad = [(j.label, p) for (j, _), p in zip(done, problems) if p]
    for label, p in bad[:limit]:
        print(f"FAILED {label}: {'; '.join(p)}", file=sys.stderr)
    if len(bad) > limit:
        print(f"... and {len(bad) - limit} more failed jobs", file=sys.stderr)
    return len(bad)


# -- entry points ----------------------------------------------------------------------------


def run_workload(name, seed, seconds, trace, reference, small=False, workdir=None):
    """Run one workload in this interpreter; returns (exit code, result dict)."""
    import workloads
    from speed import Speedometer
    from tracer import Tracer

    workdir = workdir or WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_speed = Speedometer()
        setup_times = [] if trace else measure_setup(name, seed, workdir, setup_speed)
        wl = workloads.make(name, seed, workdir, small)
        wl.setup()
        if not trace:
            speed = Speedometer()
            problems, solved = [], [0, 0.0]

            def inspect(job, res):
                problems.append(check_job(wl, job, res, reference))
                if job.argv[0] == "solve" and "--cops" in job.argv and res.envelope():
                    solved[0] += res.envelope()["results"]["states"]
                    solved[1] += res.seconds
                # a run keeps no outputs, so that peak_rss_mb is the program's
                res.stdout = res.stderr = ""

            done, wall = run_jobs(wl.stream(), seconds, speed=speed, after=inspect)
            failed = report_failures(done, problems)
            setup_s = statistics.median(setup_times)
            metrics = end_to_end(done, setup_s * setup_speed.scale(), speed.scale())
            slots = len(slot_latencies(done))
            print(f"workload {name}  seed {seed}  {len(done)} jobs in {wall:.3f} s, {slots} places in a pass  "
                  f"setup runs {', '.join(f'{t:.3f}' for t in setup_times)} s")
            print(f"machine speed: {len(speed.samples)} loop samples, "
                  f"one reference second = {1 / speed.scale():.4f} s here on average")
            samples = f"(n={slots})"
            print_metrics("end to end, in reference seconds", metrics,
                          {"job_p50_s": samples, "job_p90_s": samples})
            print_metrics("end to end, raw", end_to_end(done, setup_s))
            print_metrics("report only", report_only(len(done), failed, solved))
        else:
            plain, wall_plain = run_jobs(wl.stream(passes=1), None)
            tr = Tracer()
            tr.install()
            try:
                traced, wall_traced = run_jobs(wl.stream(passes=1), None, tracer=tr)
            finally:
                tr.uninstall()
            done = plain + traced
            problems = check_jobs(wl, done, reference)
            extra = check_traced(wl, plain, traced, tr, reference)
            problems = problems[: len(plain)] + [a + b for a, b in zip(problems[len(plain):], extra)]
            failed = report_failures(done, problems)
            metrics = per_layer(tr, wall_traced, wall_plain)
            spans = WORK / "spans" / f"{name}-seed{seed}.jsonl"
            tr.write_spans(spans)
            print(f"workload {name}  seed {seed}  pass of {len(plain)} jobs: untraced {wall_plain:.3f} s, "
                  f"traced {wall_traced:.3f} s; spans in {spans.relative_to(ROOT)}")
            print_spans(tr.by_name(), wall_traced)
            print_metrics("per layer", metrics)
        result = {"correct": failed == 0, "attempted": len(done), "failed": failed, "metrics": metrics}
        return (0 if failed == 0 else 1), result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    code, total = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"error: workload {name} printed no result", file=sys.stderr)
            return proc.returncode or 1
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
        print()
    print(json.dumps(total))
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0, help="workload seed; 0 reproduces the reference runs")
    p.add_argument("--seconds", type=float, default=25.0, help="length of the timed phase (--trace 0)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced pass")
    p.add_argument("--setup-only", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be nonnegative")
    load_package()
    if args.workload == "all":
        return run_all(args)
    if args.setup_only is not None:
        import workloads

        args.setup_only.mkdir(parents=True, exist_ok=True)
        workloads.make(args.workload, args.seed, args.setup_only).setup()
        return 0
    if not REFERENCE.is_file():
        raise SystemExit(f"error: {REFERENCE} is missing; see perfbench/make_reference.py")
    reference = json.loads(REFERENCE.read_text())
    code, result = run_workload(args.workload, args.seed, args.seconds, args.trace, reference)
    print(result_line(result["correct"], result["attempted"], result["failed"], result["metrics"]))
    return code


if __name__ == "__main__":
    sys.exit(main())
