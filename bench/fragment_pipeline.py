"""fragment-pipeline: seeded fragments over toy profiles.

A cycle holds two poss cross-checks (chain and wide profile), one support
separation, two rapid readings, one cover and one evade step, one halving
step, three ml-ledger groups (heights 4, 6 and 9) and one ml
homogenization.  The kinds, counts, shapes and order are fixed; the seed
picks the creatures' value sets, the name tables, the selector block of
each ledger creature, the halving oracle and the coloring G.
"""

from __future__ import annotations

import hashlib
import itertools
from fractions import Fraction

import creaturelab.conditions as C
import creaturelab.mlcore as ML
from creaturelab.logreal import lr_from_rational
from creaturelab.params import make_toy_profile

from common import Job, cycle_rng, expect
import common

NAME = "fragment-pipeline"

CHAIN_UNI = {"mu": ["e"], "alpha": [], "eps_of": {}}
CHAIN_LEVELS = [
    {"kstar": 1, "slot_sizes": 1, "height": 9, "maxposs": 4, "maxsupp": 16, "gmin": 32, "bmin": 8},
    {"kstar": 2, "slot_sizes": 1, "height": 9, "maxposs": 4, "maxsupp": 16, "gmin": 32, "bmin": 8},
    {"kstar": 16, "slot_sizes": 1, "height": 9, "maxposs": 64, "maxsupp": 16, "gmin": 32, "bmin": 8},
]
UNI = {"mu": ["e0", "e1"], "alpha": ["a0", "a1"], "eps_of": {"a0": "e0", "a1": "e1"}}
# plateau height 19 makes the level norm clear 2: z = 19 - log2(4) = 17 > 2^(2*2)
WIDE_LVL = {"kstar": 4, "slot_sizes": 8, "height": 19, "maxposs": 2, "maxsupp": 16, "gmin": 32, "bmin": 8}
MIRROR = {"e0": "e1", "a0": "a1", "e1": "e0", "a1": "a0"}


def ledger_level(height, kstar):
    return {"kstar": kstar, "slot_sizes": 3, "height": height,
            "maxposs": 2, "maxsupp": 16, "gmin": 32, "bmin": 8}


def setup(seed):
    profiles = {
        "chain": make_toy_profile({"universe": CHAIN_UNI, "levels": CHAIN_LEVELS}),
        "wide": make_toy_profile({"universe": UNI, "levels": [WIDE_LVL, WIDE_LVL]}),
        "wide3": make_toy_profile({"universe": UNI, "levels": [dict(WIDE_LVL, slot_sizes=3)] * 2}),
        # two trunks, sixteen selector values: a binary behavior coloring has
        # at most four classes, so homogenizing never runs out of norm
        "selector": make_toy_profile({"universe": UNI, "levels": [
            ledger_level(9, 2), ledger_level(9, 16)]}),
    }
    for h, k, _, _ in LEDGER:
        lvl = ledger_level(h, k)
        profiles[f"ledger-{h}-{k}"] = make_toy_profile({"universe": UNI, "levels": [lvl, lvl]})
    wide = profiles["wide"]
    separated = C.cond_separate_support(wide_fragment(wide, tops(wide)), wide)
    return {"seed": seed, "profiles": profiles, "separated": separated}


def cycle(state, index):
    rng = cycle_rng(state["seed"], NAME, index)
    prof = state["profiles"]
    jobs = [_poss_chain_job(prof["chain"], rng), _poss_wide_job(prof["wide3"], rng),
            Job("separate", lambda: _separate(prof["wide"]))]
    for _ in range(2):
        jobs.append(_rapid_read_job(prof["chain"], rng))
    jobs.extend(_cover_evade_jobs(state["separated"], prof["wide"], rng))
    jobs.append(_halving_step_job(state["separated"], prof["wide"], rng))
    for shape in LEDGER:
        jobs.extend(_ledger_jobs(prof, shape, rng))
    jobs.append(_homogenize_job(prof["selector"], rng))
    return jobs


# -- fragments -------------------------------------------------------------


def _subset(rng, n, least):
    return tuple(sorted(rng.sample(range(n), rng.randint(least, n))))


def tops(prof):
    """Full value sets for the wide fragment's selectors and slots."""
    star = tuple(range(prof.kstar(1)))
    return {"e0": star, "e1": star}, {(a, k): tuple(range(prof.slot_size(1, k)))
                                      for a in ("a0", "a1") for k in star}


def wide_fragment(prof, sel):
    w_eps, w_alpha = sel
    u = frozenset(UNI["mu"] + UNI["alpha"])
    return C.FiniteCondition(1, 2, {(0, i): 0 for i in u},
                             {1: ML.MlCreature(1, u, dict(w_eps), dict(w_alpha))})


def chain_fragment(s1, s2):
    return C.FiniteCondition(1, 3, {(0, "e"): 0}, {
        1: ML.MlCreature(1, frozenset({"e"}), {"e": s1}, {}),
        2: ML.MlCreature(2, frozenset({"e"}), {"e": s2}, {}),
    })


def _branch_count(c):
    """|poss| growth through one level creature, counted from the creature
    ids themselves: a plateau-family creature is its own value set."""
    mus = sorted(c.w_eps)
    alphas = sorted(i for i in c.u if i not in c.w_eps)
    total = 0
    for pick in itertools.product(*(c.w_eps[e] for e in mus)):
        chosen = dict(zip(mus, pick))
        ways = 1
        for a in alphas:
            ways *= len(c.w_alpha[(a, chosen[UNI["eps_of"][a]])])
        total += ways
    return total


def _poss_check(p, prof, label, local_top):
    """inductive == local at every height (the top only if local_top: the
    raw trunk enumeration there is large), and the top count equals the
    product of the levels' branch counts."""
    expected = 1
    for n in p.levels:
        expected *= _branch_count(p.creatures[n])
    records, problems = [], []
    for n in range(p.trnklg + 1, p.height + 1):
        inductive = C.cond_poss(p, n, prof, method="inductive")
        local = C.cond_poss(p, n, prof, method="local") if n < p.height or local_top else None
        if local is not None and sorted(v.values for v in inductive) != sorted(v.values for v in local):
            problems.append(f"{label}: inductive and local poss differ at {n}")
        records.append(len(inductive))
    top = C.cond_poss(p, p.height, prof)
    if len(top) != expected:
        problems.append(f"{label}: {len(top)} branches, product of cells gives {expected}")
    if not all(C.cond_poss_contains(p, nu, prof) for nu in top):
        problems.append(f"{label}: a branch fails the local characterization")
    return repr(records), "; ".join(problems) or None


def _poss_chain_job(prof, rng):
    p = chain_fragment(_subset(rng, 2, 1), _subset(rng, 16, 1))
    return Job("poss-chain", lambda: _poss_check(p, prof, "chain", True))


def _poss_wide_job(prof, rng):
    w_eps = {e: _subset(rng, prof.kstar(1), 2) for e in ("e0", "e1")}
    w_alpha = {(a, k): _subset(rng, prof.slot_size(1, k), 1)
               for a in ("a0", "a1") for k in w_eps[UNI["eps_of"][a]]}
    p = wide_fragment(prof, (w_eps, w_alpha))
    return Job("poss-wide", lambda: _poss_check(p, prof, "wide", False))


def _separate(prof):
    p = wide_fragment(prof, tops(prof))
    q = C.cond_separate_support(p, prof)
    sel = q.creatures[1].w_eps
    disjoint = not set(sel["e0"]) & set(sel["e1"])
    shrunk = all(set(sel[e]) <= set(p.creatures[1].w_eps[e]) for e in sel)
    return repr(sorted(sel.items())), expect(disjoint and shrunk,
                                             f"separation left {sel}")


# -- names -----------------------------------------------------------------


def seeded_name(p, prof, levels, bound, salt):
    """A name whose level-n value is decided at height n + 1."""
    values = {}
    for n in levels:
        values[n] = {}
        for nu in C.cond_poss(p, n + 1, prof):
            digest = hashlib.sha256(f"{salt}:{n}:{nu.values!r}".encode()).digest()
            values[n][nu] = int.from_bytes(digest[:8], "big") % bound
    return C.NameTable({n: n + 1 for n in levels}, values, {n: bound for n in levels})


def _rapid_read_job(prof, rng):
    p = chain_fragment((0, 1), tuple(range(16)))
    r = seeded_name(p, prof, [1, 2], 2, rng.getrandbits(64))
    return Job("rapid-read", lambda: _rapid_read(p, r, prof))


def _rapid_read(p, r, prof):
    q = C.rapid_read(p, 1, r, prof)
    ok, diag = C.cond_leq(q, p, prof)
    problems = [] if ok else [f"rapid read is not an extension: {diag}"]
    for n in r.levels():
        if not C.name_decided_at(r, n, max(n, 2), q, prof):
            problems.append(f"level {n} not decided at height {max(n, 2)}")
    for n in q.levels:
        ok, diag = ML.ml_successor_check(q.creatures[n], p.creatures[n], n, prof)
        if not ok:
            problems.append(f"level {n}: {diag}")
    record = repr(sorted((n, sorted(c.w_eps.items())) for n, c in q.creatures.items()))
    return record, "; ".join(problems) or None


def _cover_evade_jobs(base, prof, rng):
    r = seeded_name(base, prof, [1], 4, rng.getrandbits(64))
    shared = {}

    def cover():
        _, Y = C.cover_step(base, 1, r, "e0", prof)
        shared["Y"] = Y
        gmin = prof.gmin(1)
        problems = [] if all(len(v) < gmin for v in Y["table"].values()) else ["table too large"]
        for nu in C.cond_poss(base, 2, prof):
            key = tuple((i, nu.get(1, i)) for i in Y["indices"])
            if r.values[1][nu] not in Y["table"][key]:
                problems.append(f"name value missing from the table at {key}")
                break
        return repr(sorted(Y["table"].items())), "; ".join(problems) or None

    def evade():
        Y = shared.pop("Y")
        c = C.evade_step(base, 1, Y, "a1", prof)
        evaded = base.copy()
        evaded.creatures[1] = c
        C.cond_validate(evaded, prof)
        for nu in C.cond_poss(evaded, 2, prof):
            key = tuple((i, nu.get(1, i)) for i in Y["indices"])
            if nu.get(1, "a1") in Y["table"][key]:
                return "", f"branch {nu} does not evade the table"
        return repr(sorted(c.w_alpha.items())), None

    return [Job("cover", cover), Job("evade", evade)]


def _halving_step_job(base, prof, rng):
    decide = rng.random() < 0.5
    keep = rng.randint(2, 4)

    def oracle(cand):
        if not decide:
            return None
        w = cand.copy()
        c = w.creatures[1]
        for key in list(c.w_alpha):
            slot = prof.slot_param(1, key[1])
            vals = sorted(slot.val(c.w_alpha[key]))[:keep]
            c.w_alpha[key] = slot.best_successor_within(c.w_alpha[key], frozenset(vals))
        return w

    def run():
        q, log = C.halving_step(base, 1, 2, common.callback(oracle, "bench.oracle"), prof)
        cases = [case for case, _ in log]
        # the wide level has z = 17: halving burns 17/2 into d, deciding burns nothing
        want_d = base.creatures[1].d if decide else lr_from_rational(Fraction(17, 2))
        ok, diag = C.cond_leq(q, base, prof)
        good = cases == (["dec"] if decide else ["half"]) and q.creatures[1].d == want_d and ok
        return repr((cases, q.creatures[1].d)), expect(good, f"halving step {cases}: {diag}")

    return Job("halving-step", run)


# -- ml ledger -------------------------------------------------------------


def top_creature(prof, u):
    U = prof.universe
    star = prof.star_param(1)
    w_eps = {i: star.top() for i in u if U.is_mu(i)}
    w_alpha = {(a, k): prof.slot_param(1, k).top()
               for a in u if not U.is_mu(a) for k in w_eps[U.eps_of[a]]}
    return ML.MlCreature(1, frozenset(u), w_eps, w_alpha)


# (height, kstar, selector with its slot?, start from a halved creature?)
# z = h - log2|u| - d is computed here from the shape alone: halving needs
# z > 2, merging z > 2^maxposs = 4
LEDGER = ((4, 3, True, False), (6, 2, True, False), (9, 3, False, True))


def _ledger_jobs(profiles, shape, rng):
    """halve, unhalve, merge (when the norm allows it) and enlarge on one
    creature of a fixed shape; the seed picks which selector block it
    lives on, which costs the same either way."""
    h, k, with_slot, halved = shape
    prof = profiles[f"ledger-{h}-{k}"]
    e, a, other = rng.choice((("e0", "a0", "e1"), ("e1", "a1", "e0")))
    u = {e, a} if with_slot else {e}
    c = top_creature(prof, u)
    z = Fraction(h) - (len(u) - 1)
    if halved:
        c = ML.ml_halve(c, 1, prof)
        z /= 2
    kinds = ["halve", "unhalve"] + (["merge"] if z > 4 else []) + ["enlarge"]
    return [Job(f"ml-{kind}", lambda kind=kind: _ledger(kind, c, z, prof, other))
            for kind in kinds]


def _ledger(kind, c, z, prof, other):
    if kind == "halve":
        d = ML.ml_halve(c, 1, prof)
        good = ML.ml_nor_z(d, prof).scale(2) == lr_from_rational(z)
    elif kind == "unhalve":
        d = ML.ml_unhalve(ML.ml_halve(c, 1, prof), c, 1, prof)
        good = ML.ml_nor_z(d, prof).scale(2) >= lr_from_rational(z)
    elif kind == "merge":
        twin = top_creature(prof, {MIRROR[i] for i in c.u})
        twin.d = c.d
        d = ML.ml_merge(c, twin, sorted(c.u), sorted(twin.u), 1, prof)
        good = ML.ml_nor_z(d, prof).scale(2) >= lr_from_rational(z)
    else:
        d = ML.ml_enlarge(c, other, 1, prof)
        good = ML.ml_nor_z(d, prof).scale(2) >= lr_from_rational(z)
    ok, diag = ML.ml_successor_check(d, c, 1, prof, enumerate_axiom=True)
    record = repr((kind, sorted(d.u), d.d))
    return record, expect(good and ok, f"ml {kind}: ledger {good}, successor {diag}")


def _homogenize_job(prof, rng):
    salt = rng.getrandbits(64)

    def G(nu):
        digest = hashlib.sha256(f"{salt}:{nu.values!r}".encode()).digest()
        return digest[0] & 1

    def run():
        c = top_creature(prof, {"e0"})
        out, gp = ML.ml_homogenize(c, 1, prof, common.callback(G, "bench.G"), 2)
        ok, diag = ML.ml_successor_check(out, c, 1, prof, enumerate_axiom=True)
        problems = [] if ok else [f"not a successor: {diag}"]
        for eta in ML.poss_enumerate(1, c.u, prof):
            if {G(nu) for nu in ML.ml_val(out, eta, prof)} != {gp[eta]}:
                problems.append(f"G not constant above {eta}")
                break
        return repr(sorted(out.w_eps.items())), "; ".join(problems) or None

    return Job("ml-homogenize", run)
