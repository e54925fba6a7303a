"""Property checkers for atomic creature parameters.

Every checker returns a PropertyCertificate whose verdict is backed by an
explicit witness or counterexample; nothing is sampled.  Bigness is decided
in one of four evaluation modes:

- "exhaustive": the exact value of the partition game over every partition
  of the value set into at most B blocks, by dynamic programming over bit
  masks.  Always sound, O(B * 3^n) in the value-set size n.  Explicit and
  asymmetric families use it.
- "class-reps": the same game on `symmetric` intensional families, walked
  over block sizes: a block's best successor norm depends only on its size
  there, so one block per size is scored and every partition of n into at
  most B parts is tried.  Requested as "exhaustive"; the certificate names
  the walk that decided it.  Both games refuse a value set above 16 points
  with CapacityExceeded.
- "analytic": test only the balanced partition.  For families whose norm is
  a monotone function of the value-set size this single partition is the
  adversary's optimum, so the answer is exact; for anything else the mode
  raises ModeUnsound rather than guess.
- family hooks: intensional families expose their own pigeonhole arithmetic
  (`hereditary_bigness_classes`), which the checker consumes verbatim.  The
  hook yields (class_key, class_norm, witness_norm) for one successor class
  per segment on which both norms are constant, in the order a walk over
  every class would meet them, plus w's own class.  The hereditary check
  stops at the first failing class, which is a segment start; the
  single-class check looks up w's own class.  A hook verdict of True is
  exact; False is conservative (the hook may not see a cleverer witness).

`check_bigness` resolves the requested mode once, at entry, and the
hereditary check runs in the same mode: "auto" becomes the family's hook
if it has one, else "analytic" on size-monotone norms, else "exhaustive";
an explicit "analytic" on other norms raises ModeUnsound, and an unknown
mode UsageError.

The partition games and the hereditary check are memoized on the parameter
instance, so a memo lives and dies with its parameter.  The hereditary memo
is keyed by the creature asked about, B, x and the resolved mode.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import CapacityExceeded, ModeUnsound, UsageError
from ..logreal import lr
from .base import AtomicParameter
from .certificates import PropertyCertificate


def _cert(p, kind, params, verdict, mode, witness=None, counterexample=None):
    """A certificate of one check on p."""
    return PropertyCertificate(kind, params, verdict, witness, counterexample,
                               p.param_hash(), mode)


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

    One walk over `class_reps` and `succ_class_reps` serves both kinds of
    family.  Explicit parameters keep the default reps, so they are
    verified creature-by-creature; intensional symmetric parameters are
    verified on class representatives, which the base-set symmetry extends
    to every creature.
    """
    report = []
    base = p.base()

    def note(axiom, *ids):
        report.append({"axiom": axiom, "ids": ids})

    if not (p.explicit or p.symmetric):
        raise UsageError(f"{p.name}: no sound validation strategy (intensional, asymmetric)")
    mode = _walk_mode(p)
    tops = list(p.class_reps())

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
        succs = list(p.succ_class_reps(w))
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
            for u in p.succ_class_reps(v):
                if not p.in_succ(u, w):
                    note("transitive", u, v, w)

    return _cert(p, "valid", {"axioms": list(_AXIOMS)}, not report, mode,
                 counterexample=report or None)


# ---------------------------------------------------------------------------
# bigness
# ---------------------------------------------------------------------------


# Largest value set the exhaustive partition game accepts.
_EXHAUSTIVE_LIMIT = 16


def check_bigness(p, w, B: int, x, mode: str = "auto", hereditary: bool = False) -> PropertyCertificate:
    """Is w (B, x)-big for p: does every partition of val(w) into at most B
    blocks admit a successor, inside one block, of norm at least nor(w) - x?

    With hereditary=True the same is demanded of every successor of w whose
    norm is at least 1 (one representative per successor class), in the
    same resolved mode.
    """
    if B < 1:
        raise UsageError("B must be positive")
    if mode not in ("auto", "analytic", "exhaustive"):
        raise UsageError(f"unknown bigness mode {mode!r}")
    if mode == "auto":
        mode = ("hook" if hasattr(p, "hereditary_bigness_classes")
                else "analytic" if p.size_monotone_all_subsets else "exhaustive")
    elif mode == "analytic" and not p.size_monotone_all_subsets:
        raise ModeUnsound(f"{p.name}: analytic bigness needs size-monotone norms")
    x = lr(x)
    if not hereditary:
        return _big_one(p, w, B, x, mode)
    memo = vars(p).setdefault("_hereditary_memo", {})
    key = (w, B, x, mode)
    if key not in memo:
        memo[key] = _big_hereditary(p, w, B, x, mode)
    return memo[key]


def _big_one(p, w, B, x, mode):
    """w's own bigness in a resolved mode: the hook's entry for w's class,
    the balanced partition, or the partition game."""
    if mode == "hook":
        key = p.class_key(w)
        for ck, class_nor, witness_nor in p.hereditary_bigness_classes(w, B, x):
            if ck == key:
                ok = witness_nor >= class_nor - x
                return _big_cert(p, w, B, x, ok, "hook",
                                 witness={"witness_norm": witness_nor} if ok else None,
                                 counterexample=None if ok else {"witness_norm": witness_nor})
        # the hook yields only classes of norm at least 1; any other class
        # is refused here, not decided another way
        raise ModeUnsound(f"{p.name}: hook does not cover class {key}")

    if mode == "analytic":
        n = p.val_size(w)
        block = -(-n // B)  # adversary's optimum: balanced blocks
        witness_nor = p.norm_of_size(block)
        ok = witness_nor >= p.nor(w) - x
        return _big_cert(p, w, B, x, ok, "analytic",
                         witness={"block_size": block, "witness_norm": witness_nor} if ok else None,
                         counterexample=None if ok else {"balanced_block_size": block,
                                                         "best_norm": witness_nor})

    if p.val_size(w) > _EXHAUSTIVE_LIMIT:
        raise CapacityExceeded(f"{p.name}: value set too large for exhaustive bigness")
    floor = p.nor(w) - x
    minimax, worst_partition = _minimax(p, w, B)
    ok = minimax is not None and minimax >= floor
    return _big_cert(p, w, B, x, ok, _walk_mode(p),
                     witness={"witness_norm": minimax} if ok else None,
                     counterexample=None if ok else worst_partition)


def _big_hereditary(p, w, B, x, mode):
    """Bigness of every successor class of w with norm at least 1, in a
    resolved mode, stopping at the first class that fails.  The hook yields
    those classes itself; the other modes walk `succ_class_reps` and decide
    each class by `_big_one`."""
    if mode == "hook":
        for ck, class_nor, witness_nor in p.hereditary_bigness_classes(w, B, x):
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
        sub = _big_one(p, v, B, x, mode)
        if not sub.verdict:
            return _big_cert(p, w, B, x, False, f"{sub.mode}-hereditary",
                             counterexample={"creature": v, "inner": sub.counterexample})
    return _big_cert(p, w, B, x, True, "hereditary")


def _walk_mode(p) -> str:
    """Symmetric intensional families are walked one automorphism class at
    a time, explicit and asymmetric ones creature by creature."""
    return "class-reps" if p.symmetric and not p.explicit else "exhaustive"


def _minimax(p, w, B):
    """The partition game's value and a worst partition, memoized on p
    itself by (w, B), so repeated x thresholds share one game and the memo
    lives and dies with the parameter."""
    memo = vars(p).setdefault("_minimax_memo", {})
    key = (w, B)
    if key not in memo:
        game = _size_class_minimax if _walk_mode(p) == "class-reps" else _adversary_minimax
        memo[key] = game(p, w, B, tuple(sorted(p.val(w))))
    return memo[key]


def _ranks(norms):
    """Integer scores for a list of norms (None, a stranded block, scores
    0) and the sorted distinct norms: a score r > 0 names order[r - 1]."""
    order = sorted({x for x in norms if x is not None})
    rank_of = {x: r + 1 for r, x in enumerate(order)}
    return [0 if x is None else rank_of[x] for x in norms], order


def _size_profiles(n, parts, largest):
    """Partitions of n into at most `parts` parts, none above `largest`, as
    non-increasing tuples in decreasing lexicographic order."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        if n - k > (parts - 1) * k:
            break
        for rest in _size_profiles(n - k, parts - 1, k):
            yield (k,) + rest


def _size_class_minimax(p, w, B, points):
    """The partition game on a symmetric family, walked over block sizes.

    Every base permutation that fixes val(w) is an automorphism, and
    best_successor_within commutes with it, so the best successor norm of a
    block depends only on its size.  One block per size k (the first k
    points) is scored, and every partition of n into at most B parts is
    walked; the first whose largest part score is least is the adversary's
    optimum, cut from the sorted points as consecutive slices.  No
    monotonicity of the score is assumed, so this stays an independent
    check of the analytic mode."""
    n = len(points)
    score, order = _ranks([None] + [
        _best_norm(p, w, points[:k]) for k in range(1, n + 1)])
    best = best_profile = None
    for profile in _size_profiles(n, min(B, n), n):
        cand = max((score[k] for k in profile), default=0)
        if best is None or cand < best:
            best, best_profile = cand, profile
    partition, start = [], 0
    for k in best_profile:
        partition.append(points[start:start + k])
        start += k
    return (None if best == 0 else order[best - 1], tuple(partition))


def _best_norm(p, w, block):
    """The norm of w's best successor inside `block`, or None."""
    v = p.best_successor_within(w, frozenset(block))
    return None if v is None else p.nor(v)


def _adversary_minimax(p, w, B, points):
    """Exact value of the partition game: the least, over partitions of
    `points` into at most B blocks, of the best successor norm any single
    block supports, together with a partition realizing it.  (None,
    partition) when some partition strands w entirely.

    Computed by dynamic programming over bit masks: every one of the 2^n - 1
    nonempty blocks is scored once, and masks are split with the lowest set
    bit pinned to the first block so each partition is counted once."""
    n = len(points)
    full = (1 << n) - 1
    # score every nonempty block; rank norms as integers (0 = stranded)
    score, order = _ranks([None] + [
        _best_norm(p, w, [points[i] for i in range(n) if mask >> i & 1])
        for mask in range(1, full + 1)])

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
    return (None if best[full] == 0 else order[best[full] - 1], tuple(partition))


def _big_cert(p, w, B, x, verdict, mode, witness=None, counterexample=None):
    return _cert(p, "bigness", {"w": w, "B": B, "x": x}, verdict, mode, witness, counterexample)


# ---------------------------------------------------------------------------
# halving
# ---------------------------------------------------------------------------


def _bad_successor(p, w, h, floor):
    """A positive-norm successor of h that does not re-base to a successor
    of w inside its values at or above floor, or None when h is a half.

    One successor of h per class (`succ_class_reps`); the re-basing map is
    `best_successor_within(w, val(v))`, the strongest candidate there is."""
    zero = lr(0)
    for v in p.succ_class_reps(h):
        if p.nor(v) <= zero:
            continue
        v2 = p.best_successor_within(w, p.val(v))
        if (
            v2 is None
            or not p.in_succ(v2, w)
            or not p.val(v2) <= p.val(v)
            or p.nor(v2) < floor
        ):
            return v
    return None


def check_halving(p, w, x) -> PropertyCertificate:
    """Is w x-halvable: is there h below w with nor(h) >= nor(w) - x such
    that every positive-norm successor of h re-bases to a successor of w,
    on a subset of its values, with norm at least nor(w) - x?

    One walk decides it: every successor of w at or above the floor is
    tried as h, in `succ_class_reps(w)` order, and each successor of h is
    re-based by `best_successor_within`, which finds a re-basing whenever
    one exists.  The first half found is the witness; a refutation lists
    one (h, bad) per candidate half, in walk order, so a False verdict is
    exact.

    For `symmetric` families both loops visit one creature per automorphism
    class, and this is exact.  Let H be the base permutations that fix
    val(w), and G those of H that also fix val(h).  The successors of w in
    one class form a single H-orbit, the successors of h in one class a
    single G-orbit, and nor, val, in_succ and best_successor_within commute
    with both.  So the test on a successor of h is constant on its class,
    and the verdict on a half is constant on its class.  Explicit and
    asymmetric families keep the default reps, every successor id.
    """
    x = lr(x)
    floor = p.nor(w) - x
    mode = _walk_mode(p)
    failures = []
    for h in p.succ_class_reps(w):
        if p.nor(h) < floor:
            continue
        bad = _bad_successor(p, w, h, floor)
        if bad is None:
            return _cert(p, "halving", {"w": w, "x": x}, True, mode, witness={"half": h})
        failures.append((h, bad))
    return _cert(p, "halving", {"w": w, "x": x}, False, mode, counterexample=failures)


# ---------------------------------------------------------------------------
# decisiveness and niceness
# ---------------------------------------------------------------------------


def check_decisive(p, w, K: int, m: int, x, mode: str = "auto") -> PropertyCertificate:
    """Is w (K, m, x)-decisive: does it have both a small successor (value
    set of size at most K, norm at least nor(w) - x) and a successor that is
    hereditarily (2^(K^m), x)-big?  The big successor tried is w itself,
    replayed as a successor of w like the small one."""
    x = lr(x)
    floor = p.nor(w) - x
    params = {"w": w, "K": K, "m": m, "x": x}

    v_minus = p.small_successor(w, x)
    if v_minus is None or p.val_size(v_minus) > K or p.nor(v_minus) < floor:
        return _cert(p, "decisive", params, False, "search",
                     counterexample={"missing": "small", "found": v_minus})

    B = 2 ** (K ** m)
    big = check_bigness(p, w, B, x, mode=mode, hereditary=True)
    if not (p.in_succ(w, w) and p.nor(w) >= floor and big.verdict):
        return _cert(p, "decisive", params, False, big.mode,
                     counterexample={"missing": "big", "found": w,
                                     "inner": big.counterexample})
    return _cert(p, "decisive", params, True, big.mode, witness={"small": v_minus, "big": w})


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
    m_max = lr(m_max)
    xb = lr(Fraction(1, M * M))
    xh = lr(Fraction(1, M))
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
    return _cert(p, "nice", {"M": M, "m_max": m_max}, verdict, "class-reps",
                 counterexample=counterexample)


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


_REPLAY_MODE = {"analytic": "analytic", "exhaustive": "exhaustive", "class-reps": "exhaustive"}


def _is_partition(values, blocks, B) -> bool:
    """Are `blocks` at most B nonempty, pairwise disjoint sets covering
    exactly `values`?"""
    sets = [frozenset(b) for b in blocks]
    union = frozenset().union(*sets)
    return (len(sets) <= B and all(sets)
            and sum(map(len, sets)) == len(union) and union == values)


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
        w, B, x = a["w"], a["B"], lr(a["x"])
        hereditary = "hereditary" in cert.mode
        if cert.verdict:
            # "hook" and "hereditary" name no mode check_bigness accepts,
            # and "class-reps" is what "exhaustive" runs on symmetric families
            mode = _REPLAY_MODE.get(cert.mode.replace("-hereditary", ""), "auto")
            return check_bigness(p, w, B, x, mode=mode, hereditary=hereditary).verdict
        if cert.mode in ("exhaustive", "class-reps") and cert.counterexample is not None:
            # no block of the recorded partition holds a successor above the floor
            blocks, floor = cert.counterexample, p.nor(w) - x
            return (_is_partition(p.val(w), blocks, B) and all(
                v is None or v < floor for v in (_best_norm(p, w, b) for b in blocks)))
        return not check_bigness(p, w, B, x, hereditary=hereditary).verdict

    if cert.kind == "halving":
        w, x = a["w"], lr(a["x"])
        if cert.verdict and cert.witness:
            h, floor = cert.witness["half"], p.nor(w) - x
            return (p.in_succ(h, w) and p.nor(h) >= floor
                    and _bad_successor(p, w, h, floor) is None)
        return check_halving(p, w, x).verdict == cert.verdict

    if cert.kind == "decisive":
        w, K, m, x = a["w"], a["K"], a["m"], lr(a["x"])
        return check_decisive(p, w, K, m, x).verdict == cert.verdict

    if cert.kind == "nice":
        return check_nice(p, a["M"], lr(a["m_max"])).verdict == cert.verdict

    raise UsageError(f"unknown certificate kind {cert.kind!r}")
