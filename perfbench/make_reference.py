#!/usr/bin/env python3
"""Write perfbench/reference.json from the code in this checkout.

    python3 perfbench/make_reference.py

Runs pass 0 of every workload at seed 0 and records, per job, its exit code
and the digest of its structured output, keyed by Job.key(), and the
label-free part of its results, keyed by its place in a pass (Job.slot),
which holds at every seed.  The witness jobs run at --workers 1, so the
--workers 2 runs of the benchmark are held to the single-worker output.
For deep_solve it also records each solve's wave sizes.  Every job
must pass the workload's own checks first.  Regenerate only on purpose,
when a change is meant to alter outputs, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def single_worker(stream):
    """The stream's jobs, run at --workers 1."""
    job = next(stream, None)
    while job is not None:
        if "--workers" in job.argv:
            job.argv[job.argv.index("--workers") + 1] = "1"
        res = yield job
        try:
            job = stream.send(res)
        except StopIteration:
            return


def main() -> int:
    run.load_package()
    import workloads
    from tracer import Tracer

    reference = {"digests": {}, "invariants": {}, "wave_sizes": {}}
    workdir = run.WORK / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in run.WORKLOADS:
            wl = workloads.make(name, 0, workdir)
            wl.setup()
            tr = Tracer()
            tr.install()
            try:
                done, _ = run.run_jobs(single_worker(wl.stream(passes=1)), None, tracer=tr)
            finally:
                tr.uninstall()
            problems = run.check_jobs(wl, done, {})
            if run.report_failures(done, problems):
                print(f"error: {name} fails its own checks; no reference written", file=sys.stderr)
                return 1
            for job, res in done:
                reference["digests"][job.key()] = [res.code, workloads.digest(res.stdout)]
                if job.invariant is not None:
                    reference["invariants"][job.slot] = job.invariant(res.envelope()["results"])
            if name == "deep_solve":
                for i, out in tr.solves:
                    reference["wave_sizes"][done[i][0].slot] = list(out.wave_sizes)
            print(f"{name}: {len(done)} jobs")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
