"""Batch command line: compute parameter rows, verify atomic properties,
run multi-level creature transforms, and manipulate finite fragments.

Exit codes: 0 verified success, 1 property failure (a counterexample or
failure record is still written), 2 usage error, 3 capacity or
infeasibility (the requested object cannot exist at the requested size,
the command ran out of memory or recursion depth, or the question is not
decided by exact means: `Indeterminate`, or `ModeUnsound` for a mode the
family does not support).
All outputs are deterministic; randomized generation is seeded and the
seed is recorded in the output.

Each process runs one command, so each handler (and each loader it runs)
imports the layers it uses: an `atomic` command never loads mlcore,
conditions, params or tower, and an `ml` or `params` command never loads
conditions or the atomic checks, ops, certificates and niceness.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import sys

from .errors import (
    CapacityExceeded,
    CreatureLabError,
    DomainMismatch,
    Indeterminate,
    ModeUnsound,
    ModulusTooDeep,
    SizeInfeasible,
    UsageError,
)
from .serialize import (
    atomic_param_from_json,
    creature_from_json,
    creature_to_json,
    id_from_json,
    parse_rational,
    read_json,
    unique_dict,
    write_json,
)


def _seeded_int(seed: int, *parts) -> int:
    payload = repr((seed,) + parts).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def _load(path, decode, check=None, what=""):
    """Read the JSON document at path, decode it and run check on it.  A
    document of the wrong shape (a possibility that misses a cell is a
    DomainMismatch), or one that check refuses as a DomainMismatch (it
    holds no `what`), is a UsageError naming the file; only the decoder
    and check are guarded, so faults in the transforms still surface."""
    doc = read_json(path)
    try:
        obj = decode(doc)
    except (KeyError, TypeError, ValueError, AttributeError, DomainMismatch) as exc:
        raise UsageError(f"malformed document {path}: {type(exc).__name__}: {exc}") from exc
    try:
        if check:
            check(obj)
    except DomainMismatch as exc:
        raise UsageError(f"{path} holds no {what}: {exc}") from exc
    return obj


def _load_creature(path, profile):
    """The creature read from path, unchecked against the profile: `ml check`
    reads its --in this way, since there a creature outside the profile is
    the verdict, not a usage error."""
    return _load(path, creature_from_json)


def _load_member(path, profile):
    """The creature read from path, if the profile has it."""
    from .mlcore import ml_validate

    return _load(path, creature_from_json, lambda c: ml_validate(c, profile),
                 "creature of the profile")


def _load_fragment(path, profile):
    """The fragment read from path, if cond_validate accepts it over the
    profile."""
    from .conditions import FiniteCondition, cond_validate

    return _load(path, FiniteCondition.from_json, lambda p: cond_validate(p, profile),
                 "fragment of the profile")


def _load_name(path, p, profile):
    """The name table read from path, checked against the fragment p: its
    levels, decision heights, bounds and values are ints, and name_validate
    accepts it.  A decision height past the fragment stays name_validate's
    ModulusTooDeep (exit 3)."""
    from .conditions import NameTable, name_validate

    def decode(doc):
        r = NameTable.from_json(doc)
        fields = itertools.chain(*r.modulus.items(), *r.bound.items(),
                                 *(tbl.values() for tbl in r.values.values()))
        if not all(type(x) is int for x in fields):
            raise TypeError("levels, heights, bounds and values must be integers")
        return r

    return _load(path, decode, lambda r: name_validate(r, p, profile),
                 "name table of the fragment")


def _load_cover(path, p, profile) -> dict:
    """The cover table read from path: its level is a level of p, its
    indices are distinct support indices at that level, each table key
    lists (index, int) pairs over the indices in order, and each value is a
    list of ints; anything else is a UsageError naming the file, as is a
    table that cover_validate refuses for p."""
    from .conditions import cover_validate

    def decode(doc):
        level, indices = doc["level"], doc["indices"]
        if not (type(level) is int and level in p.levels and isinstance(indices, list)
                and set(indices) <= p.supp(level) and len(set(indices)) == len(indices)):
            raise ValueError("level and indices must name one level's support indices")
        def entry(k, v):
            key = id_from_json(json.loads(k))
            if not (isinstance(key, tuple)
                    and all(isinstance(c, tuple) and len(c) == 2 for c in key)
                    and [i for i, _ in key] == indices
                    and all(type(x) is int for _, x in key)):
                raise ValueError(f"table key {k} must list (index, int) pairs over {indices}")
            if not (isinstance(v, list) and all(type(x) is int for x in v)):
                raise ValueError(f"table value at {k} must be a list of ints")
            return key, set(v)

        table = unique_dict((entry(k, v) for k, v in doc["table"].items()), "table key")
        return {"level": level, "indices": indices, "table": table}

    return _load(path, decode, lambda Y: cover_validate(Y, p, profile),
                 "cover table of the fragment")


def _parse_id(text):
    try:
        return id_from_json(json.loads(text))
    except json.JSONDecodeError:
        return text


def _index(profile, text):
    """The universe index whose str is text, so an int index can be named
    (the universe keeps str forms distinct); text that names no index
    passes through to the command's own refusal."""
    U = profile.universe
    return next((i for i in U.mu_part | U.alpha_part if str(i) == text), text)


def _creature_of(p, w, path):
    """w, if it names a creature of the parameter read from path; else a
    UsageError naming both (an id of the wrong shape is no creature)."""
    if not p.has(w):
        raise UsageError(f"{w!r} is not a creature of the parameter in {path}")
    return w


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------


def _cmd_params(args):
    from .params import params_exact, params_validate

    row = params_exact(args.level)
    report = params_validate(row)
    resolved = {}
    for name, value in row.fields.items():
        try:
            resolved[name] = value.eval_exact()
        except CreatureLabError:
            pass
    ok = all(e["verdict"] in ("holds", "constructor-dependent") for e in report)
    return (0 if ok else 1), {"row": row.to_json(), "resolved": resolved,
                              "report": report}


# ---------------------------------------------------------------------------
# atomic
# ---------------------------------------------------------------------------


def _cmd_atomic_verify(args):
    from . import atomic

    p = _load(args.infile, atomic_param_from_json)
    prop = args.property
    if prop == "axioms":
        cert = atomic.validate_atomic(p)
    else:
        w = _creature_of(p, _parse_id(args.w), args.infile) if args.w else p.top()
        if prop == "big":
            if args.B is None:
                raise UsageError("--B is required for the bigness check")
            cert = atomic.check_bigness(p, w, args.B, parse_rational(args.x),
                                        mode=args.mode, hereditary=args.hereditary)
        elif prop == "halving":
            cert = atomic.check_halving(p, w, parse_rational(args.x))
        elif prop == "decisive":
            if args.K is None or args.m is None:
                raise UsageError("--K and --m are required for the decisiveness check")
            cert = atomic.check_decisive(p, w, args.K, args.m,
                                         parse_rational(args.x), mode=args.mode)
        else:  # "nice", the last of --property's choices
            if args.M is None:
                raise UsageError("--M is required for the niceness check")
            cert = atomic.check_nice(p, args.M, parse_rational(args.m_max))
    return (0 if cert.verdict else 1), {"certificate": cert.to_json()}


def _cmd_atomic_make_nice(args):
    from . import atomic

    m_max = parse_rational(args.m_max)
    bits = args.budget_bits
    if bits is not None and not 0 <= bits <= 64:
        raise UsageError(f"--budget-bits must be in 0..64 (0 for the default budget), got {bits}")
    budget = atomic.ScaleBudget(1 << bits, 1 << bits) if bits else None
    p = atomic.make_nice(args.M, m_max, budget=budget)
    cert = atomic.check_nice(p, args.M, m_max)
    size = len(p.base())
    return (0 if cert.verdict else 1), {
        "parameter": {"kind": "nice-construction", "M": args.M,
                      "m_max": str(parse_rational(args.m_max)), "base_size": size,
                      "param_hash": p.param_hash()},
        "certificate": cert.to_json(),
    }


def _decode_product(doc):
    """A product document: {'coordinates': [{'param': {...}, 'w': id}, ...]}."""
    coords = doc.get("coordinates")
    if not coords:
        raise UsageError("product document needs a non-empty 'coordinates' list")
    params = [atomic_param_from_json(c["param"]) for c in coords]
    ws = [id_from_json(c["w"]) for c in coords]
    return params, ws


def _load_product(args):
    params, ws = _load(args.infile, _decode_product)
    return params, [_creature_of(p, w, args.infile) for p, w in zip(params, ws)]


def _norm_repr(v) -> str:
    return str(v.approx()) if hasattr(v, "approx") else str(v)


def _cmd_atomic_homogenize(args):
    from . import atomic

    params, ws = _load_product(args)

    def F(point):
        return _seeded_int(args.seed, point) % args.range_size

    x = parse_rational(args.x) if args.x else None
    new_ws, value, report = atomic.homogenize_product(params, ws, F, args.range_size, x=x)
    return 0, {
        "seed": args.seed,
        "value": value,
        "ws": [repr(w) for w in new_ws],
        "norms": [_norm_repr(p.nor(w)) for p, w in zip(params, new_ws)],
        "report": json.loads(json.dumps(report, default=repr)),
    }


def _cmd_atomic_order(args):
    from . import atomic

    params, ws = _load_product(args)
    order, new_ws = atomic.decisive_order(params, ws, parse_rational(args.x))
    return 0, {"order": order, "ws": [repr(w) for w in new_ws]}


def _cmd_atomic_disjoint(args):
    from . import atomic

    p, w1, w2 = _load(args.infile, lambda doc: (
        atomic_param_from_json(doc["param"]), id_from_json(doc["w1"]), id_from_json(doc["w2"])))
    w1, w2 = (_creature_of(p, w, args.infile) for w in (w1, w2))
    v1, v2 = atomic.disjoint_successors(p, w1, w2, parse_rational(args.x))
    return 0, {"v1": repr(v1), "v2": repr(v2),
               "val1": sorted(map(repr, p.val(v1))),
               "val2": sorted(map(repr, p.val(v2)))}


# ---------------------------------------------------------------------------
# ml
# ---------------------------------------------------------------------------


def _creature_result(c, profile, extra=None):
    from .mlcore import ml_nor_z

    out = {"creature": creature_to_json(c),
           "z_approx": ml_nor_z(c, profile).approx()}
    if extra:
        out.update(extra)
    return out


def _cmd_ml_check(args, profile, c):
    from .mlcore import ml_successor_check, ml_validate

    ml_validate(c, profile)
    if args.against:
        parent = _load_member(args.against, profile)
        ok, diag = ml_successor_check(c, parent, c.n, profile,
                                      enumerate_axiom=args.enumerate)
        return (0 if ok else 1), {"valid": True, "successor": ok, "diagnostics": diag}
    return 0, {"valid": True}


def _cmd_ml_norm(args, profile, c):
    from .mlcore import ml_norm_cmp

    result = _creature_result(c, profile)
    if args.threshold is not None:
        t = parse_rational(args.threshold)
        cmp = ml_norm_cmp(c, c.n, profile, t)
        result["threshold"] = str(t)
        result["norm_exceeds_threshold"] = cmp > 0
        return (0 if cmp > 0 else 1), result
    return 0, result


def _cmd_ml_halve(args, profile, c):
    from .mlcore import ml_halve

    out = ml_halve(c, c.n, profile)
    return 0, _creature_result(out, profile)


def _cmd_ml_merge(args, profile, c1):
    from .mlcore import ml_merge

    c2 = _load_member(args.infile2, profile)

    def listed(text, c):  # each comma item names an index as --index does
        return [_index(profile, t) for t in text.split(',')] if text else sorted(c.u, key=str)

    out = ml_merge(c1, c2, listed(args.enum, c1), listed(args.enum2, c2), c1.n, profile)
    return 0, _creature_result(out, profile)


def _cmd_ml_enlarge(args, profile, c):
    from .mlcore import ml_enlarge

    out = ml_enlarge(c, _index(profile, args.index), c.n, profile)
    return 0, _creature_result(out, profile, {"added": sorted(out.u - c.u, key=str)})


def _cmd_ml_homogenize(args, profile, c):
    from .mlcore import ml_homogenize

    def G(nu):
        return _seeded_int(args.seed, nu.values) % args.range_size

    out, g_prime = ml_homogenize(c, c.n, profile, G, args.range_size)
    return 0, _creature_result(out, profile, {
        "seed": args.seed,
        "factored": [[eta.to_json(), v] for eta, v in sorted(
            g_prime.items(), key=lambda kv: kv[0].values)],
    })


# ---------------------------------------------------------------------------
# cond
# ---------------------------------------------------------------------------


def _cmd_cond_poss(args, profile, p):
    from .conditions import cond_poss

    n = args.n if args.n is not None else p.height
    branches = cond_poss(p, n, profile, method=args.method)
    return 0, {"n": n, "count": len(branches),
               "branches": [nu.to_json() for nu in branches]}


def _cmd_cond_leq(args, profile, q):
    from .conditions import cond_leq

    p = _load_fragment(args.against, profile)
    ok, diag = cond_leq(q, p, profile)
    return (0 if ok else 1), {"extends": ok, "diagnostics": diag}


def _cmd_cond_separate(args, profile, p):
    from .conditions import cond_separate_support

    q = cond_separate_support(p, profile)
    return 0, {"fragment": q.to_json()}


def _cmd_cond_rapid_read(args, profile, p):
    from .conditions import rapid_read

    r = _load_name(args.name, p, profile)
    q = rapid_read(p, args.M, r, profile)
    return 0, {"M": args.M, "fragment": q.to_json()}


def _cmd_cond_halve_step(args, profile, p):
    from .conditions import halving_step

    oracle = {"never": lambda cand: None, "accept": lambda cand: cand}[args.oracle]
    q, case_log = halving_step(p, args.M, parse_rational(args.floor),
                               oracle, profile)
    return 0, {"fragment": q.to_json(),
               "cases": [[kind, nu.to_json()] for kind, nu in case_log]}


def _cmd_cond_cover(args, profile, p):
    from .conditions import cover_step

    r = _load_name(args.name, p, profile)
    q_n, Y = cover_step(p, args.n, r, _index(profile, args.eps), profile)
    return 0, {"level": Y["level"], "indices": Y["indices"],
               "table": {json.dumps(list(k)): v for k, v in Y["table"].items()}}


def _cmd_cond_evade(args, profile, p):
    from .conditions import evade_step

    Y = _load_cover(args.cover, p, profile)
    c = evade_step(p, args.n, Y, _index(profile, args.beta), profile)
    return 0, {"creature": creature_to_json(c)}


# ---------------------------------------------------------------------------
# demo
# ---------------------------------------------------------------------------


def _cmd_demo_generic_sample(args, profile, p):
    """The seeded branch of the top branches, read off the level rows
    without building the branch list."""
    from .conditions import PossSpace

    space = PossSpace(p, p.height, profile)
    nu = space[random.Random(args.seed).randrange(len(space))]
    return 0, {"seed": args.seed, "count": len(space), "branch": nu.to_json()}


def _cmd_demo_distinguish(args, profile, p):
    """The first branch in cond_poss order on which i and j differ: the
    first row of every level, unless no first row differs; then the last
    level with a differing row takes its first one, since every differing
    branch leaves the first rows at or below that level, and the later it
    leaves them the earlier it comes."""
    from .conditions import PossSpace
    from .mlcore import Possibility

    i, j = _index(profile, args.i), _index(profile, args.j)
    for idx in (i, j):
        if idx not in p.dom:
            raise UsageError(f"index {idx!r} is not in the fragment's domain")
    space = PossSpace(p, p.height, profile)
    cols, levels = space.cols, space.levels
    a, b = cols.index(i), cols.index(j)
    split = [next((row for row in rows if row[a] != row[b]), None) for rows in levels]
    if not all(levels) or not any(split):
        return 1, {"i": i, "j": j,
                   "failure": "every branch agrees on the two indices at every level"}
    rows = [level[0] for level in levels]
    if all(row[a] == row[b] for row in rows):
        last = max(m for m, row in enumerate(split) if row)
        rows[last] = split[last]
    n = next(m for m, row in enumerate(rows) if row[a] != row[b])
    nu = Possibility((p.height, cols, sum(rows, ())))
    return 0, {"level": n, "i": i, "j": j, "value_i": rows[n][a], "value_j": rows[n][b],
               "branch": nu.to_json()}


# ---------------------------------------------------------------------------
# argument tree
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="creature-lab",
                  description="Verification workbench for norm-carrying "
                              "creature parameters and finite fragments.")
    sub = top.add_subparsers(dest="command", required=True)

    def add(parent, name, func, **kw):
        p = parent.add_parser(name, **kw)
        p.set_defaults(func=func)
        p.add_argument("--out", help="output path (atomic write); default stdout")
        return p

    def add_doc(parent, name, func, load, **kw):
        """A command that reads a profile and a document: func(args, profile,
        doc) gets both, doc read from --in by load(path, profile)."""
        def run(args):
            from .params import make_toy_profile

            profile = _load(args.profile, make_toy_profile)
            return func(args, profile, load(args.infile, profile))

        p = add(parent, name, run, **kw)
        p.add_argument("--profile", required=True)
        p.add_argument("--in", dest="infile", required=True)
        return p

    p = add(sub, "params", _cmd_params, help="compute and validate a parameter row")
    p.add_argument("--level", type=int, required=True)

    at = sub.add_parser("atomic", help="atomic parameter checks and transforms")
    at_sub = at.add_subparsers(dest="atomic_command", required=True)

    p = add(at_sub, "verify", _cmd_atomic_verify, help="verify an atomic property")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--property", required=True,
                   choices=["axioms", "big", "halving", "decisive", "nice"])
    p.add_argument("--w", help="creature id (JSON literal); default the top creature")
    p.add_argument("--B", type=int)
    p.add_argument("--x", default="1")
    p.add_argument("--K", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--M", type=int)
    p.add_argument("--m-max", default="2")
    p.add_argument("--mode", default="auto", choices=["auto", "exhaustive", "analytic"])
    p.add_argument("--hereditary", action="store_true")

    p = add(at_sub, "make-nice", _cmd_atomic_make_nice,
            help="construct a parameter certified nice at the given scale")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--m-max", required=True)
    p.add_argument("--budget-bits", type=int)

    p = add(at_sub, "homogenize", _cmd_atomic_homogenize,
            help="shrink a creature tuple until a seeded colouring of each point is constant")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--range", dest="range_size", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--x")

    p = add(at_sub, "order", _cmd_atomic_order,
            help="arrange a creature tuple into a decisive order")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--x", default="1")

    p = add(at_sub, "disjoint", _cmd_atomic_disjoint,
            help="shrink two creatures to disjoint value sets")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--x", default="1")

    ml = sub.add_parser("ml", help="multi-level creature transforms")
    ml_sub = ml.add_subparsers(dest="ml_command", required=True)

    p = add_doc(ml_sub, "check", _cmd_ml_check, _load_creature,
                help="validate a creature, optionally as a successor")
    p.add_argument("--against", help="candidate parent creature")
    p.add_argument("--enumerate", action="store_true",
                   help="also replay the enumerated successor condition")
    p = add_doc(ml_sub, "norm", _cmd_ml_norm, _load_member, help="report the exact norm input z")
    p.add_argument("--threshold", help="exit 1 unless nor exceeds this rational")
    add_doc(ml_sub, "halve", _cmd_ml_halve, _load_member, help="apply the halving transform")
    p = add_doc(ml_sub, "merge", _cmd_ml_merge, _load_member, help="merge two same-type creatures")
    p.add_argument("--in2", dest="infile2", required=True)
    p.add_argument("--enum", help="comma list enumerating the first support")
    p.add_argument("--enum2", help="comma list enumerating the second support")
    p = add_doc(ml_sub, "enlarge", _cmd_ml_enlarge, _load_member,
                help="extend the support by one index")
    p.add_argument("--index", required=True)
    p = add_doc(ml_sub, "homogenize", _cmd_ml_homogenize, _load_member,
                help="shrink until a seeded labelling factors through the trunk")
    p.add_argument("--range", dest="range_size", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)

    co = sub.add_parser("cond", help="finite fragment operations")
    co_sub = co.add_subparsers(dest="cond_command", required=True)

    p = add_doc(co_sub, "poss", _cmd_cond_poss, _load_fragment,
                help="enumerate branches up to a height")
    p.add_argument("--n", type=int)
    p.add_argument("--method", default="inductive", choices=["inductive", "local"])
    p = add_doc(co_sub, "leq", _cmd_cond_leq, _load_fragment, help="check the extension relation")
    p.add_argument("--against", required=True, help="the weaker fragment")
    add_doc(co_sub, "separate", _cmd_cond_separate, _load_fragment,
            help="make same-level selector creatures pairwise value-disjoint")
    p = add_doc(co_sub, "rapid-read", _cmd_cond_rapid_read, _load_fragment,
                help="shorten a name's decision modulus level by level")
    p.add_argument("--name", required=True)
    p.add_argument("--M", type=int, required=True)
    p = add_doc(co_sub, "halve-step", _cmd_cond_halve_step, _load_fragment,
                help="case split over base branches, halving undecided ones")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--floor", default="1")
    p.add_argument("--oracle", default="never", choices=["never", "accept"])
    p = add_doc(co_sub, "cover", _cmd_cond_cover, _load_fragment,
                help="tabulate the small per-branch value sets of a name")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--name", required=True)
    p = add_doc(co_sub, "evade", _cmd_cond_evade, _load_fragment,
                help="shrink one level so a fresh index avoids a cover table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--beta", required=True)

    de = sub.add_parser("demo", help="worked examples on fragments")
    de_sub = de.add_subparsers(dest="demo_command", required=True)
    p = add_doc(de_sub, "generic-sample", _cmd_demo_generic_sample, _load_fragment,
                help="print one seeded random branch of a fragment")
    p.add_argument("--seed", type=int, default=0)
    p = add_doc(de_sub, "distinguish", _cmd_demo_distinguish, _load_fragment,
                help="find a branch giving two indices different values")
    p.add_argument("--i", required=True)
    p.add_argument("--j", required=True)

    return top


def _emit(result: dict, out_path) -> None:
    if out_path:
        write_json(out_path, result)
    else:
        sys.stdout.write(json.dumps(result, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code, result = args.func(args)
        _emit(result, args.out)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except (CapacityExceeded, SizeInfeasible, ModulusTooDeep, Indeterminate, ModeUnsound,
            MemoryError, RecursionError) as exc:
        sys.stderr.write(f"infeasible: {type(exc).__name__}: {exc}\n")
        return 3
    except CreatureLabError as exc:
        sys.stderr.write(f"property failure: {type(exc).__name__}: {exc}\n")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
