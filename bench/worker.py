"""One benchmark process: set up a workload, then run its jobs.

    python3 bench/worker.py MODE WORKLOAD SEED SECONDS [JOBS]

MODE is one of
  setup   set up and exit (run.py times this from process start);
  timed   run whole cycles until SECONDS have passed, untraced;
  traced  install the tracer and run jobs until SECONDS have passed;
  replay  run the first JOBS jobs untraced (the traced run's baseline).

The process prints "ready" once set-up is done, then one JSON line with
its results.  Every mode starts from a fresh interpreter, so the
program's module-level caches start empty as they do for a user's batch.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import time


def _load(workload):
    if workload == "atomic-certify":
        import atomic_certify as mod
    elif workload == "fragment-pipeline":
        import fragment_pipeline as mod
    else:
        import cli_batch as mod
    return mod


def _run_job(job):
    start = time.perf_counter()
    try:
        record, problem = job.run()
    except Exception as exc:  # a crash is a failed job, not a failed run
        record, problem = f"{type(exc).__name__}", f"{job.kind}: {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, record, problem


def _loop(mod, state, jobs, stop):
    """Run jobs cycle after cycle until stop(cycles_done, jobs_done,
    elapsed) says so; the check runs after every job."""
    out = {"latency_s": [], "kinds": [], "problems": [], "failed": 0, "cycles": 0}
    digest = hashlib.sha256()
    start = time.perf_counter()
    while True:
        for job in jobs:
            dt, record, problem = _run_job(job)
            out["latency_s"].append(dt)
            out["kinds"].append(job.kind)
            if out["cycles"] == 0:
                digest.update(f"{job.kind}\t{record}\n".encode())
            if problem is not None:
                out["failed"] += 1
                if len(out["problems"]) < 5:
                    out["problems"].append(problem)
            if stop(out["cycles"], len(out["latency_s"]), time.perf_counter() - start, False):
                out["wall_s"] = time.perf_counter() - start
                out["digest"] = digest.hexdigest()
                return out
        out["cycles"] += 1
        if stop(out["cycles"], len(out["latency_s"]), time.perf_counter() - start, True):
            out["wall_s"] = time.perf_counter() - start
            out["digest"] = digest.hexdigest()
            return out
        jobs = mod.cycle(state, out["cycles"])


def _rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv):
    mode, workload, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    limit = int(argv[4]) if len(argv) > 4 else None
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(1, os.path.join(root, "src"))
    mod = _load(workload)
    workdir = None
    try:
        if workload == "cli-batch":
            workdir = os.path.join(root, ".bench_work", f"{os.getpid()}")
            os.makedirs(workdir)
            trace_dir = os.path.join(workdir, "trace") if mode == "traced" else None
            if trace_dir:
                os.makedirs(trace_dir)
            state = mod.setup(seed, root, workdir, trace_dir)
        else:
            state = mod.setup(seed)
        jobs = mod.cycle(state, 0)
        tracer = None
        if mode == "traced":
            import common
            from tracer import Tracer

            tracer = Tracer()
            common.callback = tracer.callback
            tracer.install(extra_modules=[sys.modules[n] for n in (
                "common", "atomic_certify", "fragment_pipeline", "cli_batch") if n in sys.modules])
        print("ready", flush=True)
        if mode == "setup":
            return 0

        if mode == "timed":
            # never stop inside the first cycle, whose records make the
            # digest; a workload of heavy jobs stops only between cycles
            whole = getattr(mod, "WHOLE_CYCLES", False)
            stop = lambda cycles, n, elapsed, at_end: elapsed >= seconds and (
                at_end or (cycles >= 1 and not whole))
        elif mode == "traced":
            stop = lambda cycles, n, elapsed, at_end: elapsed >= seconds
        else:
            stop = lambda cycles, n, elapsed, at_end: n >= limit
        if tracer:
            tracer.begin()
        out = _loop(mod, state, jobs, stop)
        if tracer:
            tracer.end()
            out["trace"] = tracer.summary()
            if workload == "cli-batch":
                _fold_commands(out["trace"], state)
        if workload == "atomic-certify":
            out["minimax_reuse_frac"] = mod.reuse_frac(state)
        out["rss_self_mb"] = _rss_mb(resource.RUSAGE_SELF)
        out["rss_children_mb"] = _rss_mb(resource.RUSAGE_CHILDREN)
        print(json.dumps(out), flush=True)
        return 0
    finally:
        if workdir:
            shutil.rmtree(workdir, ignore_errors=True)


def _fold_commands(trace, state):
    """Move each traced command's time out of the benchmark's self time and
    into the layers it was spent in: interpreter start-up and exit, the
    import of creaturelab.cli, and the program's layers inside main."""
    import tracer as T

    trace["cli_import_s"] = 0.0
    trace["process_overhead_s"] = 0.0
    for i, spawn in enumerate(state["spawn"]):
        with open(os.path.join(state["trace_dir"], f"cmd-{i}.json")) as fh:
            child = json.load(fh)
        inside = child["import_s"] + child["install_s"] + child["wall_s"]
        trace["self_s"][T.BENCH] -= spawn
        trace["self_s"][T.BENCH] += child["install_s"] + child["self_s"].pop(T.BENCH)
        trace["cli_import_s"] += child["import_s"]
        trace["process_overhead_s"] += spawn - inside
        for key in ("self_s", "errors", "calls", "incl_s", "items"):
            T.merge(trace[key], child[key])
        trace["indeterminate"] += child["indeterminate"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
