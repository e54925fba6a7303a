"""Property checkers for atomic creature parameters.

Every checker returns a PropertyCertificate whose verdict is backed by an
explicit witness or counterexample; nothing is sampled.  Three evaluation
modes exist for bigness:

- "exhaustive": enumerate every partition of the value set into at most B
  blocks (restricted growth strings) and demand a strong block in each.
  Always sound, exponential in the value-set size.
- "analytic": test only the balanced partition.  For families whose norm is
  a monotone function of the value-set size this single partition is the
  adversary's optimum, so the answer is exact; for anything else the mode
  raises ModeUnsound rather than guess.
- family hooks: intensional families expose their own pigeonhole arithmetic
  (`hereditary_bigness_classes`), which the checker consumes verbatim.  A
  hook verdict of True is exact; False is conservative (the hook may not
  see a cleverer witness).
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import ModeUnsound, UsageError
from ..logreal import LogReal, lr_from_rational
from .base import AtomicParameter, lr
from .certificates import PropertyCertificate


def _as_lr(x) -> LogReal:
    return x if isinstance(x, LogReal) else lr(x)


# ---------------------------------------------------------------------------
# structural validation
# ---------------------------------------------------------------------------

_AXIOMS = (
    "well-formed",
    "reflexive",
    "transitive",
    "val-monotone",
    "nor-monotone",
    "singleton-norm",
    "succ-consistent",
)


def validate_atomic(p: AtomicParameter) -> PropertyCertificate:
    """Check the order axioms and norm constraints of a parameter.

    Explicit parameters are verified creature-by-creature.  Intensional
    symmetric parameters are verified on class representatives, which the
    base-set symmetry extends to every creature.
    """
    report = []
    base = p.base()

    def note(axiom, *ids):
        report.append({"axiom": axiom, "ids": ids})

    if p.explicit:
        mode = "exhaustive"
        tops = list(p.ids())
    elif p.symmetric:
        mode = "class-reps"
        tops = list(p.class_reps())
    else:
        raise UsageError(f"{p.name}: no sound validation strategy (intensional, asymmetric)")

    for w in tops:
        if not p.has(w):
            note("well-formed", w)
            continue
        vw = p.val(w)
        if not vw or not vw <= base:
            note("well-formed", w)
            continue
        if not p.in_succ(w, w):
            note("reflexive", w)
        if len(vw) == 1 and p.nor(w) > lr(1):
            note("singleton-norm", w)
        succs = list(p.succ_ids(w) if p.explicit else p.succ_class_reps(w))
        if p.explicit:
            succ_set = set(succs)
            for v in tops:
                if (v in succ_set) != p.in_succ(v, w):
                    note("succ-consistent", v, w)
        for v in succs:
            if not p.has(v):
                note("well-formed", v)
                continue
            if not p.val(v) <= vw:
                note("val-monotone", v, w)
            if p.nor(v) > p.nor(w):
                note("nor-monotone", v, w)
            inner = p.succ_ids(v) if p.explicit else p.succ_class_reps(v)
            for u in inner:
                if not p.in_succ(u, w):
                    note("transitive", u, v, w)

    return PropertyCertificate(
        kind="valid",
        params={"axioms": list(_AXIOMS)},
        verdict=not report,
        counterexample=report or None,
        param_hash=p.param_hash(),
        mode=mode,
    )


# ---------------------------------------------------------------------------
# bigness
# ---------------------------------------------------------------------------


def _strong_block(p, w, partition, floor):
    """A block of the partition on which w has a successor above floor."""
    for block in partition:
        v = p.best_successor_within(w, frozenset(block))
        if v is not None and p.nor(v) >= floor:
            return block, v
    return None


def check_bigness(p, w, B: int, x, mode: str = "auto", hereditary: bool = False) -> PropertyCertificate:
    """Is w (B, x)-big for p: does every partition of val(w) into at most B
    blocks admit a successor, inside one block, of norm at least nor(w) - x?

    With hereditary=True the same is demanded of every successor of w whose
    norm is at least 1 (one representative per successor class).
    """
    if B < 1:
        raise UsageError("B must be positive")
    x = _as_lr(x)

    if hereditary:
        return _check_hereditary(p, w, B, x, mode)

    hook = getattr(p, "hereditary_bigness_classes", None)
    if mode == "auto" and hook is not None:
        key = p.class_key(w)
        for ck, class_nor, witness_nor in hook(w, B, x):
            if ck == key:
                ok = witness_nor >= class_nor - x
                return _big_cert(p, w, B, x, ok, "hook",
                                 witness={"witness_norm": witness_nor} if ok else None,
                                 counterexample=None if ok else {"witness_norm": witness_nor})
        # class below norm 1 is not covered by the hook; fall through to
        # the direct pigeonhole via a concrete balanced question
        raise ModeUnsound(f"{p.name}: hook does not cover class {key}")

    if mode == "analytic" or (mode == "auto" and p.size_monotone_all_subsets):
        if not p.size_monotone_all_subsets:
            raise ModeUnsound(f"{p.name}: analytic bigness needs size-monotone norms")
        n = p.val_size(w)
        block = -(-n // B)  # adversary's optimum: balanced blocks
        witness_nor = p.norm_of_size(block)
        ok = witness_nor >= p.nor(w) - x
        return _big_cert(
            p, w, B, x, ok, "analytic",
            witness={"block_size": block, "witness_norm": witness_nor} if ok else None,
            counterexample=None if ok else {"balanced_block_size": block, "best_norm": witness_nor},
        )

    if mode not in ("auto", "exhaustive"):
        raise UsageError(f"unknown bigness mode {mode!r}")
    points = sorted(p.val(w))
    if len(points) > 16:
        raise UsageError(f"{p.name}: value set too large for exhaustive bigness")
    floor = p.nor(w) - x
    minimax, worst_partition = _adversary_minimax(p, w, B, tuple(points))
    ok = minimax is not None and minimax >= floor
    return _big_cert(p, w, B, x, ok, "exhaustive",
                     witness={"witness_norm": minimax} if ok else None,
                     counterexample=None if ok else worst_partition)


_MINIMAX_CACHE: dict = {}


def _adversary_minimax(p, w, B, points):
    """Exact value of the partition game: the least, over partitions of
    `points` into at most B blocks, of the best successor norm any single
    block supports, together with a partition realizing it.  (None,
    partition) when some partition strands w entirely.

    Computed by dynamic programming over bit masks: every one of the 2^n - 1
    nonempty blocks is scored once, and masks are split with the lowest set
    bit pinned to the first block so each partition is counted once.  Cached
    per (parameter, creature, B) so repeated x thresholds share the scan."""
    key = (p.param_hash(), w, B)
    hit = _MINIMAX_CACHE.get(key)
    if hit is not None:
        return hit

    n = len(points)
    full = (1 << n) - 1
    # score every nonempty block; rank norms as integers (0 = stranded)
    norms = []
    for mask in range(1, full + 1):
        block = frozenset(points[i] for i in range(n) if mask >> i & 1)
        v = p.best_successor_within(w, block)
        norms.append(None if v is None else p.nor(v))
    order = sorted({x for x in norms if x is not None})
    rank_of = {x: r + 1 for r, x in enumerate(order)}
    score = [0] + [0 if x is None else rank_of[x] for x in norms]

    # layer b: best[mask] = minimax rank over partitions of mask into at
    # most b+1 blocks, split[mask] = a first block realizing it
    best = score[:]
    splits = [list(range(full + 1))]
    for _ in range(1, min(B, n)):
        nxt = best[:]
        nsplit = splits[-1][:]
        for mask in range(1, full + 1):
            low = mask & -mask
            rest = mask ^ low
            cur, cur_split = nxt[mask], nsplit[mask]
            # first block = low | sub, sub ranging over subsets of rest
            sub = rest
            while True:
                first = low | sub
                other = best[mask ^ first]
                cand = score[first] if score[first] >= other else other
                if cand < cur:
                    cur, cur_split = cand, first
                if sub == 0:
                    break
                sub = (sub - 1) & rest
            nxt[mask], nsplit[mask] = cur, cur_split
        best = nxt
        splits.append(nsplit)

    # reconstruct a worst partition, peeling one block per layer
    partition = []
    mask, layer = full, len(splits) - 1
    while mask:
        first = splits[layer][mask] if layer >= 0 else mask
        partition.append(tuple(points[i] for i in range(n) if first >> i & 1))
        mask ^= first
        layer -= 1
    result = (None if best[full] == 0 else order[best[full] - 1], tuple(partition))
    _MINIMAX_CACHE[key] = result
    return result


def _big_cert(p, w, B, x, verdict, mode, witness=None, counterexample=None):
    return PropertyCertificate(
        kind="bigness",
        params={"w": w, "B": B, "x": x},
        verdict=verdict,
        witness=witness,
        counterexample=counterexample,
        param_hash=p.param_hash(),
        mode=mode,
    )


_HEREDITARY_CACHE: dict = {}


def _check_hereditary(p, w, B, x, mode):
    try:
        cache_key = (p, p.class_key(w), B, x, mode)
    except TypeError:
        cache_key = None
    if cache_key is not None and cache_key in _HEREDITARY_CACHE:
        return _HEREDITARY_CACHE[cache_key]
    cert = _check_hereditary_uncached(p, w, B, x, mode)
    if cache_key is not None:
        _HEREDITARY_CACHE[cache_key] = cert
    return cert


def _check_hereditary_uncached(p, w, B, x, mode):
    hook = getattr(p, "hereditary_bigness_classes", None)
    if hook is not None:
        for ck, class_nor, witness_nor in hook(w, B, x):
            if witness_nor < class_nor - x:
                return _big_cert(p, w, B, x, False, "hook-hereditary",
                                 counterexample={"class": ck, "witness_norm": witness_nor})
        return _big_cert(p, w, B, x, True, "hook-hereditary")

    one = lr(1)
    seen = set()
    for v in p.succ_class_reps(w):
        key = p.class_key(v)
        if key in seen or p.nor(v) < one:
            continue
        seen.add(key)
        sub = check_bigness(p, v, B, x, mode=mode, hereditary=False)
        if not sub.verdict:
            return _big_cert(p, w, B, x, False, f"{sub.mode}-hereditary",
                             counterexample={"creature": v, "inner": sub.counterexample})
    return _big_cert(p, w, B, x, True, "hereditary")


# ---------------------------------------------------------------------------
# halving
# ---------------------------------------------------------------------------


def check_halving(p, w, x) -> PropertyCertificate:
    """Is w x-halvable: is there h below w with nor(h) >= nor(w) - x such
    that every positive-norm successor of h re-bases to a successor of w,
    on a subset of its values, with norm at least nor(w) - x?

    Families may supply `half_candidate` (the h to try) and
    `unhalve_candidate` (the re-basing map); otherwise every successor of w
    is tried as h, so a False verdict is exact.
    """
    x = _as_lr(x)
    floor = p.nor(w) - x
    zero = lr(0)

    cand_hook = getattr(p, "half_candidate", None)
    if cand_hook is not None:
        candidates = [h for h in (cand_hook(w, x),) if h is not None]
        mode = "hook"
    else:
        candidates = sorted(
            (h for h in p.succ_ids(w) if p.nor(h) >= floor),
            key=p.nor,
            reverse=True,
        )
        mode = "exhaustive"

    unhalve_hook = getattr(p, "unhalve_candidate", None)
    failures = []
    for h in candidates:
        bad = None
        for v in p.succ_ids(h):
            if p.nor(v) <= zero:
                continue
            if unhalve_hook is not None:
                v2 = unhalve_hook(w, h, v)
            else:
                v2 = p.best_successor_within(w, p.val(v))
            if (
                v2 is None
                or not p.in_succ(v2, w)
                or not p.val(v2) <= p.val(v)
                or p.nor(v2) < floor
            ):
                bad = v
                break
        if bad is None:
            return PropertyCertificate(
                kind="halving", params={"w": w, "x": x}, verdict=True,
                witness={"half": h}, param_hash=p.param_hash(), mode=mode,
            )
        failures.append((h, bad))

    return PropertyCertificate(
        kind="halving", params={"w": w, "x": x}, verdict=False,
        counterexample=failures, param_hash=p.param_hash(), mode=mode,
    )


# ---------------------------------------------------------------------------
# decisiveness and niceness
# ---------------------------------------------------------------------------


def check_decisive(p, w, K: int, m: int, x, mode: str = "auto") -> PropertyCertificate:
    """Is w (K, m, x)-decisive: does it have both a small successor (value
    set of size at most K, norm at least nor(w) - x) and a successor that is
    hereditarily (2^(K^m), x)-big?"""
    x = _as_lr(x)
    floor = p.nor(w) - x

    v_minus = p.small_successor(w, x)
    if v_minus is None or p.val_size(v_minus) > K or p.nor(v_minus) < floor:
        return PropertyCertificate(
            kind="decisive", params={"w": w, "K": K, "m": m, "x": x}, verdict=False,
            counterexample={"missing": "small", "found": v_minus},
            param_hash=p.param_hash(), mode="search",
        )

    B = 2 ** (K ** m)
    v_plus = p.big_successor(w, x)
    big = check_bigness(p, v_plus, B, x, mode=mode, hereditary=True)
    if not (p.in_succ(v_plus, w) and p.nor(v_plus) >= floor and big.verdict):
        return PropertyCertificate(
            kind="decisive", params={"w": w, "K": K, "m": m, "x": x}, verdict=False,
            counterexample={"missing": "big", "found": v_plus, "inner": big.counterexample},
            param_hash=p.param_hash(), mode=big.mode,
        )

    return PropertyCertificate(
        kind="decisive", params={"w": w, "K": K, "m": m, "x": x}, verdict=True,
        witness={"small": v_minus, "big": v_plus},
        param_hash=p.param_hash(), mode=big.mode,
    )


def check_nice(p, M: int, m_max) -> PropertyCertificate:
    """Is p an (M, m_max)-regular parameter: its maximal norm is exactly
    m_max, and every creature of norm above 1 is (2^M, 1/M^2)-big,
    1/M-halvable, and (M, m, 1/M^2)-decisive for m in {1, 2}.

    Creatures are covered through class representatives, so the verdict is
    exact for symmetric families.  Decision depth is capped at m = 2; the
    families produced by make_nice satisfy the higher depths by the same
    one-step arguments, but this checker does not certify them.
    """
    if M < 1:
        raise UsageError("M must be positive")
    m_max = _as_lr(m_max)
    xb = lr_from_rational(Fraction(1, M * M))
    xh = lr_from_rational(Fraction(1, M))
    one = lr(1)

    top = p.max_norm()
    if top != m_max:
        return _nice_cert(p, M, m_max, False, {"reason": "max-norm", "found": top})

    for w in p.class_reps():
        if p.nor(w) <= one:
            continue
        big = check_bigness(p, w, 2 ** M, xb)
        if not big.verdict:
            return _nice_cert(p, M, m_max, False,
                              {"reason": "bigness", "creature": w, "inner": big.counterexample})
        half = check_halving(p, w, xh)
        if not half.verdict:
            return _nice_cert(p, M, m_max, False,
                              {"reason": "halving", "creature": w, "inner": half.counterexample})
        for m in (1, 2):
            dec = check_decisive(p, w, M, m, xb)
            if not dec.verdict:
                return _nice_cert(p, M, m_max, False,
                                  {"reason": f"decisive-{m}", "creature": w,
                                   "inner": dec.counterexample})

    return _nice_cert(p, M, m_max, True, None)


def _nice_cert(p, M, m_max, verdict, counterexample):
    return PropertyCertificate(
        kind="nice", params={"M": M, "m_max": m_max}, verdict=verdict,
        counterexample=counterexample, param_hash=p.param_hash(), mode="class-reps",
    )


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def replay_certificate(p, cert: PropertyCertificate) -> bool:
    """Re-verify a certificate against a live parameter.

    Witness-backed verdicts are confirmed object-by-object; counterexamples
    are re-run through the relevant checker.  Returns True when the live
    parameter still supports the recorded verdict.
    """
    if cert.param_hash and cert.param_hash != p.param_hash():
        return False
    a = cert.params

    if cert.kind == "valid":
        return validate_atomic(p).verdict == cert.verdict

    if cert.kind == "bigness":
        w, B, x = a["w"], a["B"], _as_lr(a["x"])
        if cert.verdict:
            return check_bigness(p, w, B, x, mode=cert.mode.replace("-hereditary", ""),
                                 hereditary="hereditary" in cert.mode).verdict
        if cert.mode == "exhaustive" and cert.counterexample is not None:
            return _strong_block(p, w, cert.counterexample, p.nor(w) - x) is None
        return not check_bigness(p, w, B, x, hereditary="hereditary" in cert.mode).verdict

    if cert.kind == "halving":
        w, x = a["w"], _as_lr(a["x"])
        if cert.verdict and cert.witness:
            h = cert.witness["half"]
            if not (p.in_succ(h, w) and p.nor(h) >= p.nor(w) - x):
                return False
            return check_halving(p, w, x).verdict
        return check_halving(p, w, x).verdict == cert.verdict

    if cert.kind == "decisive":
        w, K, m, x = a["w"], a["K"], a["m"], _as_lr(a["x"])
        return check_decisive(p, w, K, m, x).verdict == cert.verdict

    if cert.kind == "nice":
        return check_nice(p, a["M"], _as_lr(a["m_max"])).verdict == cert.verdict

    raise UsageError(f"unknown certificate kind {cert.kind!r}")
