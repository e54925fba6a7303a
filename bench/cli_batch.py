"""cli-batch: a fixed script of short `creature-lab` commands, each in a
fresh interpreter, on input documents written during set-up.

The script covers every subcommand group (params, atomic, ml, cond, demo),
including commands whose known answer is a refusal: exit 1 for a refuted
property and exit 2 or 3 for usage errors and infeasible sizes.  The seed
picks the name tables, the generation seeds passed with --seed and the
norm given to make-nice.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

from creaturelab.atomic import toy_witness_pair
from creaturelab.conditions import cond_separate_support
from creaturelab.params import make_toy_profile
from creaturelab.serialize import creature_to_json, id_to_json

import fragment_pipeline as FP
from common import Job, cycle_rng, expect

NAME = "cli-batch"
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
LADDER_SPEC = {
    "kind": "ladder", "name": "selector-ladder", "base_size": 8,
    "norms_by_size": {"1": "15/16", "2": "53/32", "3": "60/32", "4": "60/32",
                      "5": "62/32", "6": "62/32", "7": "62/32", "8": "65/32"},
}
PARAMS_LEVEL0 = {"maxposs": 2, "maxnor": 2, "maxsupp": 5, "Bmin": 51}


def _write(workdir, name, obj):
    with open(os.path.join(workdir, name), "w") as fh:
        json.dump(obj, fh, sort_keys=True)


def setup(seed, root, workdir, trace_dir=None):
    """Write the fixed input documents.  `trace_dir`, when given, makes
    every command run under the tracer and leave its numbers there."""
    wide_spec = {"universe": FP.UNI, "levels": [FP.WIDE_LVL, FP.WIDE_LVL]}
    chain_spec = {"universe": FP.CHAIN_UNI, "levels": FP.CHAIN_LEVELS}
    ml_lvl = FP.ledger_level(9, 4)
    ml_spec = {"universe": FP.UNI, "levels": [ml_lvl, ml_lvl]}
    wide, chain, ml = (make_toy_profile(s) for s in (wide_spec, chain_spec, ml_spec))
    frag = FP.wide_fragment(wide, FP.tops(wide))
    sep = cond_separate_support(frag, wide)
    _, tops = toy_witness_pair()
    docs = {
        "wide_profile.json": wide_spec,
        "chain_profile.json": chain_spec,
        "ml_profile.json": ml_spec,
        "toyh.json": {"kind": "halving-pairs", "base_size": 8},
        "toya.json": {"kind": "subset-log", "base_size": 8},
        "prod.json": {"coordinates": [{"param": LADDER_SPEC, "w": id_to_json(tops[0])},
                                      {"param": {"kind": "reservoir"}, "w": id_to_json(tops[1])}]},
        "dis.json": {"param": LADDER_SPEC, "w1": id_to_json(tops[0]), "w2": id_to_json(tops[0])},
        "wide_frag.json": frag.to_json(),
        "wide_sep.json": sep.to_json(),
        "creature.json": creature_to_json(frag.creatures[1]),
        "small_creature.json": creature_to_json(FP.top_creature(ml, {"e0", "a0"})),
        "chain_frag.json": FP.chain_fragment((0, 1), tuple(range(16))).to_json(),
    }
    for name, obj in docs.items():
        _write(workdir, name, obj)
    env = dict(os.environ)
    env.pop("CREATURE_LAB_CACHE", None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return {"seed": seed, "workdir": workdir, "env": env, "trace_dir": trace_dir,
            "profiles": {"wide": wide, "chain": chain}, "sep": sep, "commands": 0,
            "spawn": []}


def cycle(state, index):
    rng = cycle_rng(state["seed"], NAME, index)
    wd = state["workdir"]
    chain_name, wide_name = f"chain_name_{index}.json", f"wide_name_{index}.json"
    _write(wd, chain_name, FP.seeded_name(
        FP.chain_fragment((0, 1), tuple(range(16))), state["profiles"]["chain"],
        [1, 2], 2, rng.getrandbits(64)).to_json())
    _write(wd, wide_name, FP.seeded_name(
        state["sep"], state["profiles"]["wide"], [1], 4, rng.getrandbits(64)).to_json())
    s = lambda: str(rng.randrange(1 << 30))
    wide = ["--profile", "wide_profile.json"]
    chain = ["--profile", "chain_profile.json"]
    cre = wide + ["--in", "creature.json"]
    script = [
        (["params", "--level", "0"], 0, _params_level0),
        (["atomic", "verify", "--in", "toyh.json", "--property", "axioms"], 0, None),
        (["atomic", "verify", "--in", "toyh.json", "--property", "halving", "--x", "3/2"], 0, None),
        (["atomic", "verify", "--in", "toya.json", "--property", "halving", "--x", "1"], 1, None),
        (["atomic", "verify", "--in", "toya.json", "--property", "big"], 2, None),
        (["atomic", "make-nice", "--M", "1", "--m-max",
          str(rng.choice((Fraction(7, 4), Fraction(15, 8))))], 0, None),
        (["atomic", "make-nice", "--M", "2", "--m-max", "2"], 3, None),
        (["atomic", "homogenize", "--in", "prod.json", "--range", "2", "--seed", s()], 0, None),
        (["atomic", "order", "--in", "prod.json", "--x", "1/4"], 0, None),
        (["atomic", "disjoint", "--in", "dis.json", "--x", "1"], 0, None),
        (["ml", "check"] + cre, 0, None),
        (["ml", "norm"] + cre + ["--threshold", "2"], 0, None),
        (["ml", "norm"] + cre + ["--threshold", "9"], 1, None),
        (["ml", "halve"] + cre, 0, None),
        (["ml", "merge"] + cre + ["--in2", "creature.json"], 0, None),
        (["ml", "enlarge"] + cre + ["--index", "e0"], 0, None),
        (["ml", "enlarge"] + cre + ["--index", "nowhere"], 1, None),
        (["ml", "homogenize", "--profile", "ml_profile.json", "--in", "small_creature.json",
          "--range", "1", "--seed", s()], 0, None),
        (["cond", "poss"] + chain + ["--in", "chain_frag.json"], 0, _count(32)),
        (["cond", "leq"] + chain + ["--in", "chain_frag.json", "--against", "chain_frag.json"], 0, None),
        (["cond", "separate"] + wide + ["--in", "wide_frag.json"], 0, None),
        (["cond", "rapid-read"] + chain + ["--in", "chain_frag.json", "--name", chain_name,
                                           "--M", "1"], 0, None),
        (["cond", "halve-step"] + wide + ["--in", "wide_frag.json", "--M", "1", "--floor", "1",
                                          "--oracle", "never"], 0, None),
        (["cond", "cover"] + wide + ["--in", "wide_sep.json", "--n", "1", "--eps", "e0",
                                     "--name", wide_name, "--out", "cover.json"], 0, None),
        (["cond", "evade"] + wide + ["--in", "wide_sep.json", "--n", "1", "--cover", "cover.json",
                                     "--beta", "a1"], 0, None),
        (["cond", "evade"] + wide + ["--in", "wide_sep.json", "--n", "1", "--cover", "cover.json",
                                     "--beta", "a0"], 1, None),
        (["demo", "generic-sample"] + chain + ["--in", "chain_frag.json", "--seed", s()], 0,
         _count(32)),
        (["demo", "distinguish"] + wide + ["--in", "wide_frag.json", "--i", "e0", "--j", "e1"],
         0, None),
        (["demo", "distinguish"] + wide + ["--in", "wide_frag.json", "--i", "e0", "--j",
                                           "missing"], 2, None),
    ]
    return [Job(f"cli-{argv[0]}", lambda argv=argv, code=code, check=check:
                _command(state, argv, code, check)) for argv, code, check in script]


def _params_level0(doc):
    got = {k: doc["resolved"].get(k) for k in PARAMS_LEVEL0}
    return expect(got == PARAMS_LEVEL0, f"params --level 0 resolved {got}")


def _count(n):
    return lambda doc: expect(doc.get("count") == n, f"count {doc.get('count')}, expected {n}")


def _command(state, argv, want_code, check):
    wd = state["workdir"]
    if state["trace_dir"] is None:
        cmd = [sys.executable, "-m", "creaturelab.cli"] + argv
    else:
        stats = os.path.join(state["trace_dir"], f"cmd-{state['commands']}.json")
        cmd = [sys.executable, os.path.join(BENCH_DIR, "cli_child.py"), stats] + argv
    state["commands"] += 1
    out_path = os.path.join(wd, argv[argv.index("--out") + 1]) if "--out" in argv else None
    if out_path and os.path.exists(out_path):
        os.remove(out_path)
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=wd, env=state["env"], capture_output=True, timeout=170)
    state["spawn"].append(time.perf_counter() - start)
    digest = hashlib.sha256(proc.stdout)
    if out_path and os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            digest.update(fh.read())
    record = f"{' '.join(argv)} -> {proc.returncode} {digest.hexdigest()}"
    if proc.returncode != want_code:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return record, f"{argv[:2]}: exit {proc.returncode}, expected {want_code} {tail}"
    if check is not None:
        return record, check(json.loads(proc.stdout))
    return record, None
