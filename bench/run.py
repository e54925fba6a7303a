"""creaturelab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads: atomic-certify,
fragment-pipeline, cli-batch (see bench/README.md).  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds context (versions, core
count, the digest of the verdicts) that is recorded but not gated.

--trace 0 reports the end-to-end metrics from an untraced run; --trace 1
reports the per-layer metrics from a traced run plus an untraced replay of
the same jobs, whose ratio is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("atomic-certify", "fragment-pipeline", "cli-batch")
SETUPS = 7  # setup_s is the median over this many fresh processes
HELD_OUT_SEED = 1000003  # gain claims must also hold on this seed
CHILD_TIMEOUT = 170


def _spawn(mode, workload, seed, seconds, limit=None):
    """Start a worker; return (seconds from spawn to its "ready" line,
    its result dict or None)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), mode, workload,
           str(seed), repr(seconds)] + ([str(limit)] if limit is not None else [])
    env = dict(os.environ)
    env.pop("CREATURE_LAB_CACHE", None)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker {mode} {workload} exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready, (json.loads(lines[-1]) if lines else None)


def _tail(latencies_ms):
    """Latency at the highest percentile with at least ten samples beyond
    it, with that percentile."""
    xs = sorted(latencies_ms)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(res, setups, workload):
    lat_ms = [x * 1000.0 for x in res["latency_s"]]
    n = len(lat_ms)
    tail, pct = _tail(lat_ms)
    rss = res["rss_children_mb"] if workload == "cli-batch" else res["rss_self_mb"]
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "jobs_per_s": _metric(n / res["wall_s"], "1/s"),
        "job_p50_ms": _metric(statistics.median(lat_ms), "ms"),
        "job_tail_ms": _metric(tail, "ms"),
        "ok_frac": _metric((n - res["failed"]) / n, "frac"),
        "peak_rss_mb": _metric(rss, "MB"),
    }
    by_kind = {}
    for kind, dt in zip(res["kinds"], lat_ms):
        by_kind.setdefault(kind, []).append(dt)
    p50_by_kind = {k: round(statistics.median(v), 3) for k, v in sorted(by_kind.items())}
    return metrics, {"tail_percentile": pct, "tail_samples": n, "cycles": res["cycles"],
                     "p50_ms_by_kind": p50_by_kind,
                     "wall_s": res["wall_s"], "setup_samples_s": setups}


LAYER_SELF = ("logreal", "tower", "params", "atomic.families", "atomic.checks",
              "atomic.ops", "mlcore", "conditions", "serialize")
LAYERS = LAYER_SELF + ("cli",)


def _per_layer(trace, loop_wall, replay_wall, reuse):
    calls = trace["calls"]
    incl = trace["incl_s"]
    items = trace["items"]
    c = lambda *keys: sum(calls.get(k, 0) for k in keys)
    t = lambda *keys: sum(incl.get(k, 0.0) for k in keys)
    self_s = trace["self_s"]
    m = {}
    for layer in LAYER_SELF:
        m[f"{layer}.self_s"] = _metric(self_s[layer], "s")
    m["cli.main_self_s"] = _metric(self_s["cli"], "s")
    m["cli.import_s"] = _metric(trace.get("cli_import_s", 0.0), "s")
    m["cli.process_overhead_s"] = _metric(trace.get("process_overhead_s", 0.0), "s")
    m["bench.self_s"] = _metric(self_s["bench"], "s")
    for layer in LAYERS:
        m[f"{layer}.errors"] = _metric(trace["errors"][layer], "count")
    signs = c("logreal.LogReal.sign")
    m.update({
        "logreal.compare_calls": _metric(c("logreal.lr_compare", "logreal.lr_cmp_pow2"), "count"),
        "logreal.interval_frac": _metric(c("logreal._interval_sign") / signs if signs else 0.0,
                                         "frac"),
        "logreal.log2_int_s": _metric(t("logreal.lr_log2_int"), "s"),
        "tower.compare_calls": _metric(c("tower.tower_compare"), "count"),
        "tower.indeterminate": _metric(trace["indeterminate"], "count"),
        "params.family_builds": _metric(
            c("params.ToyProfile.star_param", "params.ToyProfile.slot_param"), "count"),
        "params.family_build_s": _metric(
            t("params.ToyProfile.star_param", "params.ToyProfile.slot_param"), "s"),
        "atomic.ops.F_calls": _metric(c("bench.F"), "count"),
        "atomic.ops.homogenize_s": _metric(t("atomic.ops.homogenize_product"), "s"),
        "atomic.checks.bigness_s": _metric(t("atomic.checks.check_bigness"), "s"),
        "atomic.checks.halving_s": _metric(t("atomic.checks.check_halving"), "s"),
        "atomic.checks.replay_s": _metric(t("atomic.checks.replay_certificate"), "s"),
        "atomic.checks.minimax_reuse_frac": _metric(reuse, "frac"),
        "mlcore.successor_check_s": _metric(t("mlcore.ml_successor_check"), "s"),
        "mlcore.poss_trunks": _metric(items.get("mlcore.poss_enumerate", 0), "count"),
        "mlcore.G_calls": _metric(c("bench.G"), "count"),
        "conditions.poss_calls": _metric(c("conditions.cond_poss"), "count"),
        "conditions.poss_branches": _metric(items.get("conditions.cond_poss", 0), "count"),
        "conditions.poss_contains_calls": _metric(c("conditions.cond_poss_contains"), "count"),
        "conditions.rapid_read_s": _metric(t("conditions.rapid_read"), "s"),
        "conditions.cover_evade_s": _metric(t("conditions.cover_step", "conditions.evade_step"),
                                            "s"),
        "trace.wall_s": _metric(trace["wall_s"], "s"),
        "trace.overhead_frac": _metric(trace["wall_s"] / replay_wall - 1.0, "frac"),
    })
    # every self time is a span minus its children, so none may be negative,
    # and together they must cover the job loop's own clock
    parts = list(self_s.values()) + [m["cli.import_s"]["value"], m["cli.process_overhead_s"]["value"]]
    if min(parts) < 0:
        return m, float("inf")
    return m, abs(sum(parts) - loop_wall) / loop_wall


def _context(args):
    import importlib.metadata as md
    import tomllib

    def version(name):
        try:
            return md.version(name)
        except md.PackageNotFoundError:
            return None

    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in (f for f in files if f.endswith(".py")):
            with open(os.path.join(dirpath, name), "rb") as fh:
                src_lines += fh.read().count(b"\n")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        deps = tomllib.load(fh)["project"].get("dependencies", [])
    return {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace, "seconds": args.seconds, "nproc": os.cpu_count(),
        "python": platform.python_version(), "mpmath": version("mpmath"),
        "sympy": version("sympy"), "src_lines": src_lines, "runtime_deps": len(deps),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "creaturelab", "__init__.py")):
        sys.stderr.write("bench: no src/creaturelab here; run from a source checkout\n")
        return 2
    context = _context(args)

    setups = [_spawn("setup", args.workload, args.seed, args.seconds)[0]
              for _ in range(SETUPS - 1)]
    mode = "traced" if args.trace else "timed"
    ready, res = _spawn(mode, args.workload, args.seed, args.seconds)
    setups.append(ready)
    n = len(res["latency_s"])
    correct = res["failed"] == 0
    context.update(digest=res["digest"], jobs=n,
                   jobs_by_kind={k: res["kinds"].count(k) for k in sorted(set(res["kinds"]))},
                   problems=res["problems"])
    if args.trace:
        _, base = _spawn("replay", args.workload, args.seed, args.seconds, limit=n)
        metrics, unaccounted = _per_layer(res["trace"], res["wall_s"], base["wall_s"],
                                          res.get("minimax_reuse_frac", 0.0))
        # the layers' self times must add up to the traced wall time
        correct = correct and base["failed"] == 0 and unaccounted < 0.01
        context.update(untraced_wall_s=base["wall_s"], unaccounted_frac=unaccounted)
    else:
        metrics, extra = _end_to_end(res, setups, args.workload)
        context.update(extra)
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": n, "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
