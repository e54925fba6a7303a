"""atomic-certify: seeded atomic verification jobs, each certificate replayed.

A cycle is five rounds.  Round i holds one certified halving check on the
(12+i)-point halving-pair family, one refuted halving check on the
(8+i)-point subset-log ladder, three groups of bigness cross-checks (one per
family, base 8+i), one niceness job, two single-fault mutants and three
product homogenizations on the criterion-6 input.  The sizes and the order
are fixed, so every seed does the same amount of work; the seed picks the
creatures, the family shapes, the niceness norms, the mutant faults and
the colorings.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import creaturelab.atomic as A
from creaturelab.errors import SizeInfeasible
from creaturelab.logreal import lr_compare, lr_from_rational, lr_log2_int

from common import Job, cycle_rng, expect
import common

NAME = "atomic-certify"
ROUNDS = 5
# a cycle is the unit of measurement: cutting one short at a deadline would
# drop or keep a multi-second halving check depending on the machine's speed
WHOLE_CYCLES = True
XS = (Fraction(1), Fraction(3, 2), Fraction(2))
# enough homogenizations that the tail percentile falls inside their
# cluster rather than on the edge between two job kinds
HOMOGENIZE_PER_ROUND = 3
CLAUSES = ("well-formed", "reflexive", "transitive", "val-monotone",
           "nor-monotone", "singleton-norm", "succ-consistent")


def setup(seed):
    return {"seed": seed, "bigness_keys": set(), "bigness_jobs": 0, "bigness_repeats": 0}


def cycle(state, index):
    rng = cycle_rng(state["seed"], NAME, index)
    jobs = []
    for i in range(ROUNDS):
        jobs.append(Job("halving-certify", lambda b=12 + i: _halving_pairs(b)))
        jobs.append(Job("halving-refute", lambda b=8 + i: _halving_ladder(b)))
        for family in ("subset-log", "plateau", "capped-ladder"):
            jobs.extend(_bigness_group(state, rng, family, 8 + i))
        jobs.append(_nice_job(rng, i))
        for k in (2 * i, 2 * i + 1):
            jobs.append(_mutant_job(rng, CLAUSES[(k + index) % len(CLAUSES)]))
        if i == 0:
            jobs.append(Job("validate-clean", _clean_ladder))
        for f_seed in (rng.getrandbits(64) for _ in range(HOMOGENIZE_PER_ROUND)):
            jobs.append(Job("homogenize", lambda f_seed=f_seed: _homogenize(f_seed)))
    return jobs


def reuse_frac(state):
    """Share of exhaustive-bigness jobs whose (family, creature, B) key was
    already seen in this run."""
    return state["bigness_repeats"] / max(state["bigness_jobs"], 1)


# -- halving ---------------------------------------------------------------


def _halving_pairs(base):
    p = A.HalvingPairFamily(base_size=base)
    w = (tuple(range(base)), 0)
    cert = A.check_halving(p, w, Fraction(3, 2))
    replayed = A.replay_certificate(p, cert)
    return cert.dumps(), expect(cert.verdict and replayed,
                                f"halving pairs {base}: verdict {cert.verdict}, replay {replayed}")


def _halving_ladder(base):
    p = A.subset_log_family(base)
    cert = A.check_halving(p, p.top(), 1)
    replayed = A.replay_certificate(p, cert)
    return cert.dumps(), expect(not cert.verdict and cert.counterexample and replayed,
                                f"subset-log {base} halving not refuted with replay")


# -- bigness ---------------------------------------------------------------


def _family(kind, base, shape):
    if kind == "subset-log":
        return A.subset_log_family(base)
    if kind == "plateau":
        return A.plateau_family(shape, base)
    return A.capped_ladder(shape, base)


def _bigness_group(state, rng, kind, base):
    """Nine cross-checks on one creature: B in {2, 3, 4} times three x.
    The creature's size is fixed by the base; the seed picks which subset
    it is and the family's shape."""
    shape = rng.choice((Fraction(15, 8), Fraction(2), Fraction(3))) if kind == "plateau" \
        else rng.choice((Fraction(7, 4), Fraction(15, 8)))
    w = tuple(sorted(rng.sample(range(base), base - 1)))
    # built by the group's first job and kept, as a batch checking one
    # family at several thresholds would
    family = functools.cache(lambda: _family(kind, base, shape))
    jobs = []
    for B in (2, 3, 4):
        for x in XS:
            key = (kind, base, str(shape) if kind != "subset-log" else "", w, B)
            jobs.append(Job("bigness", lambda key=key, B=B, x=x:
                            _bigness(state, key, family(), w, B, x)))
    return jobs


def _bigness(state, key, p, w, B, x):
    state["bigness_jobs"] += 1
    if key in state["bigness_keys"]:
        state["bigness_repeats"] += 1
    state["bigness_keys"].add(key)
    analytic = A.check_bigness(p, w, B, x, mode="analytic")
    exhaustive = A.check_bigness(p, w, B, x, mode="exhaustive")
    replayed = A.replay_certificate(p, analytic) and A.replay_certificate(p, exhaustive)
    record = f"{analytic.verdict}|{exhaustive.dumps()}"
    return record, expect(analytic.verdict == exhaustive.verdict and replayed,
                          f"bigness {key} x={x}: analytic {analytic.verdict}, "
                          f"exhaustive {exhaustive.verdict}, replay {replayed}")


# -- niceness --------------------------------------------------------------


def _nice_job(rng, regime):
    """Five regimes, one per round.  The known answers follow make_nice's
    contract: norm at most 1 is always constructible, M = 1 reaches 15/8 on
    the capped ladder (base 8, 255 creatures), and everything else is
    refused with SizeInfeasible."""
    if regime == 0:
        M, m, budget, ok = 1, Fraction(rng.randint(1, 8), 8), None, True
    elif regime == 1:
        M, m, budget, ok = 1, rng.choice((Fraction(7, 4), Fraction(15, 8))), None, True
    elif regime == 2:
        M, m, budget, ok = rng.randint(2, 4), Fraction(rng.randint(1, 8), 8), None, True
    elif regime == 3:
        M, m, budget, ok = rng.randint(2, 4), Fraction(rng.randint(9, 24), 8), None, False
    else:
        size = rng.randint(2, 7)
        M, m, budget, ok = 1, Fraction(15, 8), A.ScaleBudget(size, size), False
    return Job("nice", lambda: _nice(M, m, budget, ok))


def _nice(M, m, budget, constructible):
    try:
        p = A.make_nice(M, m, budget)
    except SizeInfeasible as exc:
        return f"refused {M} {m}", expect(not constructible, f"make_nice({M}, {m}) refused: {exc}")
    cert = A.check_nice(p, M, m)
    replayed = A.replay_certificate(p, cert)
    return cert.dumps(), expect(constructible and cert.verdict and replayed,
                                f"make_nice({M}, {m}): verdict {cert.verdict}, replay {replayed}")


# -- axioms ----------------------------------------------------------------


def _ladder_tables():
    """The 4-point subset ladder, fully tabulated as mutable dicts."""
    ids = [tuple(i for i in range(4) if mask >> i & 1) for mask in range(1, 16)]
    vals = {w: set(w) for w in ids}
    nors = {w: lr_log2_int(len(w)) for w in ids}
    succs = {w: {v for v in ids if set(v) <= set(w)} for w in ids}
    return ids, vals, nors, succs


class _LyingSucc(A.ExplicitAtomicParameter):
    """Answers one membership question against its own successor listing."""

    def __init__(self, lie, *tables):
        super().__init__("mutant", set(range(4)), *tables)
        self._lie = lie

    def in_succ(self, v, w):
        answer = super().in_succ(v, w)
        return not answer if (v, w) == self._lie else answer


def _mutant_job(rng, clause):
    ids, vals, nors, succs = _ladder_tables()
    singles = [w for w in ids if len(w) == 1]
    lie = None
    if clause == "well-formed":
        w = rng.choice(ids)
        how = rng.randrange(3)
        if how == 0:
            vals[w] = set()
        elif how == 1:
            vals[w] = vals[w] | {9}
        else:
            succs[w].add((7, 8))
    elif clause == "reflexive":
        w = rng.choice(ids)
        succs[w].discard(w)
    elif clause == "transitive":
        w = rng.choice([w for w in ids if len(w) >= 3])
        gc = tuple(sorted(rng.sample(w, rng.randint(1, len(w) - 2))))
        succs[w].discard(gc)
    elif clause == "val-monotone":
        w = rng.choice(singles)
        vals[w] = {rng.choice([t for t in range(4) if t != w[0]])}
    elif clause == "nor-monotone":
        w = rng.choice([w for w in ids if len(w) < 4])
        nors[w] = lr_from_rational(5)
    elif clause == "singleton-norm":
        nors[rng.choice(singles)] = lr_from_rational(Fraction(3, 2))
    else:
        w = rng.choice([w for w in ids if len(w) >= 2])
        v = tuple(sorted(rng.sample(w, rng.randint(1, len(w) - 1))))
        lie = (v, w)
    return Job("validate-mutant", lambda: _validate_mutant(clause, lie, vals, nors, succs))


def _validate_mutant(clause, lie, vals, nors, succs):
    if lie is None:
        p = A.ExplicitAtomicParameter("mutant", set(range(4)), vals, nors, succs)
    else:
        p = _LyingSucc(lie, vals, nors, succs)
    cert = A.validate_atomic(p)
    hit = not cert.verdict and any(e["axiom"] == clause for e in cert.counterexample or ())
    return cert.dumps(), expect(hit, f"{clause} mutant not rejected for its clause")


def _clean_ladder():
    ids, vals, nors, succs = _ladder_tables()
    cert = A.validate_atomic(A.ExplicitAtomicParameter("ladder", set(range(4)), vals, nors, succs))
    return cert.dumps(), expect(cert.verdict, "clean 4-point ladder rejected")


# -- homogenization ----------------------------------------------------------


def _homogenize(f_seed):
    """The criterion-6 input: the witness pair at its top creatures, range 2,
    and a seeded 0/1 coloring F of the whole product."""
    params, tops = A.toy_witness_pair()
    width = 1 << 16  # reservoir points are s * 16384 + t < 2^16
    bits = random.Random(f_seed).randbytes(width)  # one bit per point of 8 x 2^16

    def F(point):
        i = point[0] * width + point[1]
        return bits[i >> 3] >> (i & 7) & 1

    ws, value, report = A.homogenize_product(params, tops, common.callback(F, "bench.F"), 2)
    problems = []
    for a in sorted(params[0].val(ws[0])):
        for b in sorted(params[1].val(ws[1])):
            if F((a, b)) != value:
                problems.append(f"F{(a, b)} != {value}")
                break
    bound = lr_from_rational(Fraction(1, len(params)))
    for p, w, r in zip(params, ws, report):
        if lr_compare(r["start"] - r["end"], bound) > 0 or p.nor(w) != r["end"]:
            problems.append(f"{p.name}: loss ledger broken")
    record = repr((ws, value))
    return record, "; ".join(problems) or None
