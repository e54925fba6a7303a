"""Checker tests: axioms, bigness (both modes), halving, decisiveness,
regularity, and certificate replay."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creaturelab.atomic import (
    HalvingPairFamily,
    PropertyCertificate,
    ReservoirFamily,
    SubsetLadderFamily,
    TrivialTwoPointFamily,
    capped_ladder,
    check_bigness,
    check_decisive,
    check_halving,
    check_nice,
    make_nice,
    plateau_family,
    replay_certificate,
    subset_log_family,
    toy_witness_pair,
    validate_atomic,
)
from creaturelab.atomic import checks
from creaturelab.errors import CapacityExceeded, ModeUnsound, SizeInfeasible, UsageError
from creaturelab.logreal import lr_from_rational, lr_log2_fraction

LR = lr_from_rational


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_plain_families():
    for p in (subset_log_family(4), capped_ladder(Fraction(15, 8)), TrivialTwoPointFamily(1)):
        cert = validate_atomic(p)
        assert cert.verdict, cert.counterexample


def test_validate_intensional_by_class_reps():
    cert = validate_atomic(HalvingPairFamily(8))
    assert cert.verdict, cert.counterexample
    assert cert.mode == "class-reps"


def test_validate_rejects_asymmetric_intensional():
    with pytest.raises(UsageError):
        validate_atomic(ReservoirFamily())


# has() answers False on an id of the wrong shape or type, never raises


@pytest.mark.parametrize("w", [("a",), (0, "a"), ([0],), (0.5,), (0, True)])
def test_subset_ladder_has_refuses_ill_typed_ids(w):
    p = subset_log_family(4)
    assert p.has(w) is False
    assert p.in_succ(w, p.top()) is False


@pytest.mark.parametrize("w", [((0,), "x"), (("a",), 0), ((0,), 0.5), ((0,), None), ((0,), True)])
def test_halving_pair_has_refuses_ill_typed_ids(w):
    p = HalvingPairFamily(4)
    assert p.has(w) is False
    assert p.has(((0,), 0)) is True


@pytest.mark.parametrize("w", [("free", ("a", "b")), ("free",), ("com", 0), ("com", 0, ("t",)),
                               {"free": 1}, ("com", True, (1, 2)), ("free", (0, True))])
def test_reservoir_has_refuses_ill_typed_ids(w):
    p = ReservoirFamily()
    assert p.has(w) is False
    assert p.has(("free", (0, 1))) and p.has(("com", 0, (1, 2)))


@pytest.mark.parametrize("w", [[0], {}, ((0,), [1])])
def test_explicit_table_has_refuses_unhashable_ids(w):
    from creaturelab.atomic.base import ExplicitAtomicParameter

    base = subset_log_family(2)
    ids = list(base.ids())
    p = ExplicitAtomicParameter("toy", base.base(), {w: base.val(w) for w in ids},
                                {w: base.nor(w) for w in ids},
                                {w: set(base.succ_ids(w)) for w in ids})
    assert p.has(w) is False
    assert p.has((0, 1)) is True


def test_validate_catches_injected_violations():
    from creaturelab.atomic.base import ExplicitAtomicParameter

    base = subset_log_family(4)
    ids = list(base.ids())
    vals = {w: base.val(w) for w in ids}
    nors = {w: base.nor(w) for w in ids}
    succs = {w: set(base.succ_ids(w)) for w in ids}
    p0 = ExplicitAtomicParameter("toy", base.base(), vals, nors, succs)
    assert validate_atomic(p0).verdict

    singleton = (0,)
    pair = (0, 1)
    triple = (0, 1, 2)
    mutations = [
        # norm bumps that break monotonicity or the singleton cap
        {"nors": {**nors, singleton: LR(Fraction(3, 2))}},
        {"nors": {**nors, pair: LR(3)}},
        # successor sets that break the order axioms
        {"succs": {**succs, pair: succs[pair] - {pair}}},  # reflexivity
        {"succs": {**succs, pair: succs[pair] | {triple}}},  # val-monotone
        {"succs": {**succs, triple: succs[triple] - {singleton}}},  # transitivity
        # value sets escaping the base or the parent
        {"vals": {**vals, pair: frozenset({0, 9})}},
    ]
    # norm bumps on every id individually
    for w in ids:
        mutations.append({"nors": {**nors, w: nors[w] + LR(4)}})
    for i in range(min(8, len(ids))):
        w = ids[i]
        mutations.append({"succs": {**succs, w: succs[w] - {w}}})

    # every one of the twenty mutations hits at least one axiom: the top
    # creature, whose norm bump would be invisible, is the last id and
    # falls outside the slice
    for change in mutations[:20]:
        tables = {"vals": vals, "nors": nors, "succs": succs, **change}
        cert = validate_atomic(ExplicitAtomicParameter("toy*", base.base(), **tables))
        assert not cert.verdict, change


# ---------------------------------------------------------------------------
# bigness
# ---------------------------------------------------------------------------


def brute_force_big(p, w, B, x):
    """Reference implementation over colorings instead of partitions."""
    points = sorted(p.val(w))
    floor = p.nor(w) - LR(x)
    for coloring in itertools.product(range(B), repeat=len(points)):
        ok = False
        for c in range(B):
            block = frozenset(pt for pt, col in zip(points, coloring) if col == c)
            if not block:
                continue
            v = p.best_successor_within(w, block)
            if v is not None and p.nor(v) >= floor:
                ok = True
                break
        if not ok:
            return False
    return True


@pytest.mark.parametrize("size,B,x", [
    (4, 2, Fraction(3, 2)), (4, 2, Fraction(1, 2)), (4, 3, 1),
    (6, 2, Fraction(3, 2)), (6, 3, 2),
])
def test_partitions_agree_with_colorings(size, B, x):
    p = subset_log_family(size)
    w = tuple(range(size))
    cert = check_bigness(p, w, B, x, mode="exhaustive")
    assert cert.verdict == brute_force_big(p, w, B, x)


def test_analytic_matches_exhaustive_on_monotone_family():
    p = subset_log_family(8)
    w = tuple(range(8))
    for B, x in [(2, Fraction(3, 2)), (2, Fraction(1, 2)), (4, 2), (4, Fraction(3, 4))]:
        assert (
            check_bigness(p, w, B, x, mode="analytic").verdict
            == check_bigness(p, w, B, x, mode="exhaustive").verdict
        )


def test_analytic_mode_refuses_nonmonotone_families():
    p = HalvingPairFamily(4)
    with pytest.raises(ModeUnsound):
        check_bigness(p, (tuple(range(4)), 0), 2, 1, mode="analytic")


def test_bigness_counterexample_is_a_failing_partition():
    p = subset_log_family(4)
    w = (0, 1, 2, 3)
    cert = check_bigness(p, w, 4, Fraction(1, 2), mode="exhaustive")
    assert not cert.verdict
    # no block of the recorded partition carries a strong successor
    floor = p.nor(w) - LR(Fraction(1, 2))
    for block in cert.counterexample:
        v = p.best_successor_within(w, frozenset(block))
        assert v is None or p.nor(v) < floor


def test_hereditary_bigness_on_reservoir():
    r = ReservoirFamily()
    cert = check_bigness(r, r.top(), 8, Fraction(1, 4), hereditary=True)
    assert cert.verdict
    # a tighter budget than the rung spacing fails
    cert = check_bigness(r, r.top(), 8, Fraction(3, 32), hereditary=True)
    assert not cert.verdict


def test_hereditary_bigness_runs_in_the_requested_mode():
    # the reservoir's norms are not size-monotone, and its free top holds
    # more than 16 points: both explicit modes refuse, as the single check does
    r = ReservoirFamily()
    for hereditary in (False, True):
        with pytest.raises(ModeUnsound):
            check_bigness(r, r.top(), 4, Fraction(1, 4), mode="analytic", hereditary=hereditary)
        with pytest.raises(CapacityExceeded):
            check_bigness(r, r.top(), 4, Fraction(1, 4), mode="exhaustive",
                          hereditary=hereditary)
    assert check_bigness(r, r.top(), 4, Fraction(1, 4), hereditary=True).mode == "hook-hereditary"
    # an explicit exhaustive request walks the successors in that mode
    p = subset_log_family(6)
    cert = check_bigness(p, p.top(), 4, Fraction(1, 4), mode="exhaustive", hereditary=True)
    assert cert.mode == "class-reps-hereditary"
    assert check_bigness(p, p.top(), 4, Fraction(1, 4), hereditary=True).mode \
        == "analytic-hereditary"


@pytest.mark.parametrize("hereditary", [False, True])
def test_an_unknown_bigness_mode_is_refused(hereditary):
    for p, w in ((subset_log_family(2), (0,)), (ReservoirFamily(), ReservoirFamily().top())):
        with pytest.raises(UsageError, match="unknown bigness mode 'bogus'"):
            check_bigness(p, w, 2, 1, mode="bogus", hereditary=hereditary)


def test_hereditary_certificates_name_the_creature_asked_about():
    p = subset_log_family(8)
    first = check_bigness(p, (0, 1, 2, 3, 4, 5), 4, Fraction(1, 4), hereditary=True)
    w = (2, 3, 4, 5, 6, 7)  # the same class as the first creature
    cert = check_bigness(p, w, 4, Fraction(1, 4), hereditary=True)
    assert first.params["w"] == (0, 1, 2, 3, 4, 5)
    assert cert.params["w"] == w and not cert.verdict
    assert p.in_succ(cert.counterexample["creature"], w)
    assert replay_certificate(p, cert)
    # a repeated query is still a memo hit
    assert check_bigness(p, w, 4, Fraction(1, 4), hereditary=True) is cert


_SYMMETRIC_FAMILIES = {
    "subset-log-9": lambda: subset_log_family(9),
    "plateau-3-9": lambda: plateau_family(3, 9),
    "capped-15/8-9": lambda: capped_ladder(Fraction(15, 8), 9),
    "halving-pairs-7": lambda: HalvingPairFamily(7),
}


@pytest.mark.parametrize("make", _SYMMETRIC_FAMILIES.values(), ids=_SYMMETRIC_FAMILIES.keys())
def test_size_class_walk_agrees_with_the_bitmask_game(make):
    p = make()
    for w in p.class_reps():
        points = tuple(sorted(p.val(w)))
        for B in range(1, 6):
            walk = checks._size_class_minimax(p, w, B, points)
            dp = checks._adversary_minimax(p, w, B, points)
            assert walk[0] == dp[0], (w, B)


@pytest.mark.parametrize("make", _SYMMETRIC_FAMILIES.values(), ids=_SYMMETRIC_FAMILIES.keys())
def test_class_reps_counterexamples_are_failing_partitions(make, monkeypatch):
    def refuse(*args):
        raise AssertionError("bit-mask game run on a symmetric family")

    monkeypatch.setattr(checks, "_adversary_minimax", refuse)
    p = make()
    refuted = 0
    for w in p.class_reps():
        vw = p.val(w)
        for B in (2, 3, 5):
            for x in (Fraction(1, 4), 1):
                cert = check_bigness(p, w, B, x, mode="exhaustive")
                assert cert.mode == "class-reps"
                assert replay_certificate(p, PropertyCertificate.loads(cert.dumps())), (w, B, x)
                if cert.verdict:
                    continue
                refuted += 1
                blocks = [frozenset(b) for b in cert.counterexample]
                assert 1 <= len(blocks) <= B and all(blocks)
                assert sum(map(len, blocks)) == len(vw) and frozenset().union(*blocks) == vw
                floor = p.nor(w) - LR(x)
                for block in blocks:
                    v = p.best_successor_within(w, block)
                    assert v is None or p.nor(v) < floor
    assert refuted


def test_explicit_tables_keep_the_bitmask_game():
    sym = subset_log_family(5)
    table = _explicit_table(sym)
    for B in (1, 2, 3):
        for x in (Fraction(1, 2), 1, Fraction(3, 2)):
            a = check_bigness(sym, sym.top(), B, x, mode="exhaustive")
            b = check_bigness(table, table.top(), B, x, mode="exhaustive")
            assert (a.mode, b.mode) == ("class-reps", "exhaustive")
            assert a.verdict == b.verdict and a.witness == b.witness
            assert replay_certificate(table, b)


@pytest.mark.parametrize("blocks", [((0,),), (), tuple((i,) for i in range(6))],
                         ids=["one-point", "empty", "six-singletons"])
@pytest.mark.parametrize("mode", ["class-reps", "exhaustive"])
def test_a_forged_bigness_refutation_does_not_replay(blocks, mode):
    # a truly big creature: no block list that fails to partition val(w)
    # into at most B blocks may stand as a counterexample
    p = subset_log_family(6)
    cert = check_bigness(p, p.top(), 2, Fraction(3, 2), mode="exhaustive")
    assert cert.verdict and replay_certificate(p, cert)
    forged = PropertyCertificate.loads(cert.dumps())
    forged.verdict, forged.witness, forged.mode = False, None, mode
    forged.counterexample = blocks
    assert not replay_certificate(p, forged)


@settings(max_examples=30, deadline=None)
@given(B=st.integers(1, 5), num=st.integers(0, 8))
def test_bigness_monotone_in_budget(B, num):
    # if w is (B, x)-big it stays big for any larger loss allowance
    p = subset_log_family(5)
    w = tuple(range(5))
    x = Fraction(num, 4)
    if check_bigness(p, w, B, x, mode="exhaustive").verdict:
        assert check_bigness(p, w, B, x + 1, mode="exhaustive").verdict


# ---------------------------------------------------------------------------
# halving
# ---------------------------------------------------------------------------


def test_log_family_is_not_halvable():
    p = subset_log_family(8)
    cert = check_halving(p, tuple(range(8)), Fraction(1, 2))
    assert not cert.verdict
    # the counterexample replays: each candidate h has a bad successor
    floor = p.nor(tuple(range(8))) - LR(Fraction(1, 2))
    for h, bad in cert.counterexample:
        assert p.in_succ(bad, h)
        assert p.nor(bad) > LR(0)
        v2 = p.best_successor_within(tuple(range(8)), p.val(bad))
        assert p.nor(v2) < floor


def test_drift_family_is_halvable():
    p = HalvingPairFamily(16)
    w = (tuple(range(16)), 0)
    x = Fraction(3, 2)
    cert = check_halving(p, w, x)
    assert cert.verdict
    h = cert.witness["half"]
    assert p.in_succ(h, w)
    assert p.nor(h) >= p.nor(w) - LR(x)
    # replay the guarantee on every positive-norm successor of the half
    for v in p.succ_ids(h):
        if p.nor(v) > LR(0):
            v2 = p.best_successor_within(w, p.val(v))
            assert p.in_succ(v2, w)
            assert p.val(v2) <= p.val(v)
            assert p.nor(v2) >= p.nor(w) - LR(x)


def test_halving_pair_norms_match_the_formula():
    # nor = log2(floor(log2 |v|) - e), clipped to 0 when the argument is <= 1
    for n in (1, 5, 16):
        p = HalvingPairFamily(n)
        for size in range(1, n + 1):
            for e2 in range(p.E_STEPS):
                arg = Fraction(size.bit_length() - 1) - Fraction(e2, 2)
                fresh = LR(0) if arg <= 1 else lr_log2_fraction(arg)
                got = p.nor_key(size, e2)
                assert got == fresh
                assert p.nor_key(size, e2) is got


def test_plateau_creatures_are_their_own_halves():
    p = capped_ladder(Fraction(15, 8))
    cert = check_halving(p, tuple(range(8)), 1)
    assert cert.verdict


HALVING_XS = (Fraction(1, 4), Fraction(1, 2), 1, Fraction(3, 2), 2)


def _halving_cases():
    """Symmetric families at base <= 6 with top, non-prefix and drifted w."""
    ladders = (lambda: subset_log_family(6),
               lambda: capped_ladder(Fraction(15, 8), 6),
               lambda: plateau_family(2, 6),
               lambda: plateau_family(Fraction(3, 2), 5))
    for make in ladders:
        for w in (tuple(range(make().n)), (1, 3, 4), (0, 2)):
            yield make, w
    for v in (tuple(range(6)), (1, 3, 4, 5), (1, 3, 4)):
        for e2 in (0, 1, 3):
            yield (lambda: HalvingPairFamily(6)), (v, e2)


def _every_successor(p):
    """p walked over every successor id instead of one per class."""
    p.succ_class_reps = p.succ_ids
    return p


@pytest.mark.parametrize("make,w", list(_halving_cases()))
def test_halving_on_class_reps_agrees_with_full_enumeration(make, w):
    sym, full = make(), _every_successor(make())
    for x in HALVING_XS:
        a, b = check_halving(sym, w, x), check_halving(full, w, x)
        assert a.verdict == b.verdict, (w, x)
        assert replay_certificate(sym, a) and replay_certificate(full, b)
        if not a.verdict:
            # one failing half per class, covering every class of failing halves
            keys = [sym.class_key(h) for h, _ in a.counterexample]
            assert sorted(keys) == sorted(set(keys))
            assert set(keys) == {sym.class_key(h) for h, _ in b.counterexample}


def test_halving_on_symmetric_families_never_enumerates_successors(monkeypatch):
    def refuse(self, w):
        raise AssertionError("succ_ids called")

    for cls in (HalvingPairFamily, SubsetLadderFamily):
        monkeypatch.setattr(cls, "succ_ids", refuse)
    p = HalvingPairFamily(12)
    cert = check_halving(p, (tuple(range(12)), 0), Fraction(3, 2))
    assert cert.verdict and replay_certificate(p, cert)
    p = subset_log_family(10)
    cert = check_halving(p, p.top(), 1)
    assert not cert.verdict and cert.mode == "class-reps"
    assert len(cert.counterexample) == 6  # sizes 5..10 reach the floor log2(10) - 1 = log2(5)
    assert replay_certificate(p, cert)


def _halvable_by_sizes(p, w, x):
    """Reference for HalvingPairFamily: a walk over every (size, drift) pair
    of a half and of its successors.  nor depends on nothing else, and the
    best re-basing of a successor (u, e) onto w = (v, e0) is (u, e0), so
    this decides halving without the checker's enumeration."""
    k, e0 = len(w[0]), w[1]
    floor = p.nor(w) - LR(x)
    for j in range(1, k + 1):
        for e in range(e0, p.E_STEPS):
            if p.nor_key(j, e) < floor:
                continue
            if all(p.nor_key(i, e0) >= floor
                   for i in range(1, j + 1) for d in range(e, p.E_STEPS)
                   if p.nor_key(i, d) > LR(0)):
                return True
    return False


def test_halving_pairs_decide_every_class_like_the_full_walk():
    # every class of HalvingPairFamily(16) at five losses: 720 cases, many
    # of them halvable only by a half other than the largest drift bump
    p = HalvingPairFamily(16)
    halvable = 0
    for w in p.class_reps():
        for x in HALVING_XS:
            cert = check_halving(p, w, x)
            assert cert.verdict == _halvable_by_sizes(p, w, x), (w, x)
            assert cert.mode == "class-reps"
            assert replay_certificate(p, cert), (w, x)
            halvable += cert.verdict
    assert halvable == 691


def test_a_swapped_half_does_not_replay():
    p = HalvingPairFamily(16)
    w = (tuple(range(16)), 0)
    cert = check_halving(p, w, Fraction(1, 2))
    assert cert.verdict and replay_certificate(p, cert)
    # norm log2(3), above the floor 2 - 1/2, but its size-4 successors
    # re-base to norm 1, below that floor
    fake = (tuple(range(8)), 0)
    assert p.in_succ(fake, w) and p.nor(fake) >= p.nor(w) - LR(Fraction(1, 2))
    swapped = PropertyCertificate.loads(cert.dumps())
    swapped.witness = {"half": fake}
    assert not replay_certificate(p, swapped)


# ---------------------------------------------------------------------------
# decisiveness and regularity
# ---------------------------------------------------------------------------


def test_decisive_capped_ladder():
    p = capped_ladder(Fraction(15, 8))
    w = tuple(range(8))
    for m in (1, 2):
        cert = check_decisive(p, w, 1, m, 1)
        assert cert.verdict
        small = cert.witness["small"]
        assert p.val_size(small) == 1
        assert p.nor(small) >= p.nor(w) - LR(1)


def test_decisive_fails_when_small_side_is_too_weak():
    p = subset_log_family(8)
    # norms drop by a full bit per halving of the value set: no one-point
    # successor stays within loss 1/2 of norm 3
    cert = check_decisive(p, tuple(range(8)), 1, 1, Fraction(1, 2))
    assert not cert.verdict
    assert cert.counterexample["missing"] == "small"


def _ref_small_successor(p, w, x):
    """The first successor, in succ_ids order, of least value-set size
    among those of norm above nor(w) - x."""
    floor = p.nor(w) - LR(x)
    strong = [v for v in p.succ_ids(w) if p.nor(v) > floor]
    return min(strong, key=p.val_size, default=None)


@pytest.mark.parametrize("make", [lambda: HalvingPairFamily(4),
                                  lambda: _explicit_table(subset_log_family(4)),
                                  lambda: _explicit_table(HalvingPairFamily(3))])
def test_default_small_successor_matches_the_reference(make):
    p = make()
    for w in p.ids():
        for x in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(3)):
            assert p.small_successor(w, LR(x)) == _ref_small_successor(p, w, x), (w, x)
        K = p.val_size(w)
        cert = check_decisive(p, w, K, 1, Fraction(1))
        small = _ref_small_successor(p, w, Fraction(1))
        if cert.verdict:
            assert cert.witness["small"] == small
        elif cert.counterexample["missing"] == "small":
            assert cert.counterexample["found"] == small


def test_check_nice_accepts_constructions():
    assert check_nice(TrivialTwoPointFamily(1), 2, 1).verdict
    assert check_nice(capped_ladder(Fraction(15, 8)), 1, Fraction(15, 8)).verdict


def test_check_nice_rejects_wrong_max_norm():
    cert = check_nice(capped_ladder(Fraction(15, 8)), 1, 2)
    assert not cert.verdict
    assert cert.counterexample["reason"] == "max-norm"


def test_check_nice_rejects_log_family():
    p = subset_log_family(8)
    cert = check_nice(p, 1, 3)
    assert not cert.verdict


def test_make_nice_regimes():
    for M, m in [(1, 1), (1, Fraction(15, 8)), (2, 1)]:
        p = make_nice(M, m)
        assert check_nice(p, M, m).verdict
    with pytest.raises(SizeInfeasible):
        make_nice(2, 2)
    with pytest.raises(SizeInfeasible):
        make_nice(1, 2)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_certificate_roundtrip_and_replay():
    p = subset_log_family(6)
    w = tuple(range(6))
    for cert in (
        check_bigness(p, w, 2, Fraction(3, 2), mode="exhaustive"),
        check_bigness(p, w, 4, Fraction(1, 4), mode="exhaustive"),
        check_halving(p, w, Fraction(1, 2)),
        check_decisive(p, w, 2, 1, Fraction(3, 2)),
        validate_atomic(p),
    ):
        back = PropertyCertificate.loads(cert.dumps())
        assert back.verdict == cert.verdict
        assert replay_certificate(p, back)


def test_replay_detects_wrong_parameter():
    p6, p8 = subset_log_family(6), subset_log_family(8)
    cert = check_bigness(p6, tuple(range(6)), 2, Fraction(3, 2), mode="exhaustive")
    assert not replay_certificate(p8, cert)


def test_verified_bigness_replays_in_every_mode():
    # "hook" and "hereditary" name no mode that check_bigness accepts
    r, p = ReservoirFamily(), subset_log_family(4)
    cases = [
        (r, check_bigness(r, ("com", 0, tuple(range(40))), 2, 1), "hook"),
        (p, check_bigness(p, p.top(), 2, 1, hereditary=True), "hereditary"),
        (r, check_bigness(r, r.top(), 2, 1, hereditary=True), "hook-hereditary"),
    ]
    for fam, cert, mode in cases:
        assert cert.verdict and cert.mode == mode
        assert replay_certificate(fam, PropertyCertificate.loads(cert.dumps()))


# ---------------------------------------------------------------------------
# top creature and explicit tables
# ---------------------------------------------------------------------------


def _explicit_table(fam):
    from creaturelab.atomic.base import ExplicitAtomicParameter

    ids = list(fam.ids())
    return ExplicitAtomicParameter(
        fam.name, fam.base(), {w: fam.val(w) for w in ids}, {w: fam.nor(w) for w in ids},
        {w: set(fam.succ_ids(w)) for w in ids})


def _scan_top(p):
    """The first maximal-norm creature in id order."""
    best = None
    for w in p.ids():
        if best is None or p.nor(w) > p.nor(best):
            best = w
    return best


@pytest.mark.parametrize("make", [
    lambda: HalvingPairFamily(1),
    lambda: HalvingPairFamily(3),
    lambda: HalvingPairFamily(6),
    lambda: HalvingPairFamily(10),
    lambda: TrivialTwoPointFamily(Fraction(3, 4)),
    lambda: TrivialTwoPointFamily(0),
    lambda: _explicit_table(HalvingPairFamily(2)),
    lambda: _explicit_table(subset_log_family(3)),
], ids=["pairs-1", "pairs-3", "pairs-6", "pairs-10", "two-point-3/4", "two-point-0",
        "explicit-pairs-2", "explicit-subset-log-3"])
def test_top_is_the_first_maximal_creature_of_the_id_scan(make):
    p = make()
    assert p.top() == _scan_top(p)
    assert p.max_norm() == p.nor(_scan_top(p))


@pytest.mark.parametrize("make", [
    lambda: subset_log_family(6),
    lambda: capped_ladder(Fraction(15, 8)),
    lambda: plateau_family(9, 5),
], ids=["subset-log", "capped-ladder", "plateau"])
def test_ladders_keep_the_full_set_as_top(make):
    p = make()
    assert p.top() == tuple(range(p.n))
    assert p.max_norm() == p.nor(_scan_top(p))


def test_reservoir_keeps_its_own_top():
    p = ReservoirFamily()
    assert p.top() == ("free", (0, 1, 2, 3))
    assert p.max_norm() == LR(Fraction(65, 32))


def test_halving_pair_base_size_is_bounded():
    with pytest.raises(UsageError):
        HalvingPairFamily(17)
    with pytest.raises(UsageError):
        HalvingPairFamily(0)


def test_hereditary_memo_dies_with_its_parameter():
    import weakref

    p = subset_log_family(4)
    first = check_bigness(p, p.top(), 2, 1, hereditary=True)
    assert check_bigness(p, p.top(), 2, 1, hereditary=True) is first  # memo hit
    ref = weakref.ref(p)
    del p
    assert ref() is None


def test_minimax_memo_dies_with_its_parameter():
    import weakref

    assert not hasattr(checks, "_MINIMAX_CACHE")
    for make in (lambda: HalvingPairFamily(6), lambda: _explicit_table(subset_log_family(4))):
        p = make()
        w = p.top()
        check_bigness(p, w, 2, 1, mode="exhaustive")
        game = vars(p)["_minimax_memo"][(w, 2)]
        # another threshold reuses the game
        cert = check_bigness(p, w, 2, 2, mode="exhaustive")
        assert vars(p)["_minimax_memo"] == {(w, 2): game}
        assert cert.witness is None or cert.witness["witness_norm"] is game[0]
        ref = weakref.ref(p)
        del p, cert
        assert ref() is None


def test_param_hash_serializes_once_per_instance():
    import hashlib

    for p in (subset_log_family(5), HalvingPairFamily(4), _explicit_table(subset_log_family(3))):
        text = p.describe()
        calls = []
        p.describe = lambda: calls.append(1) or text
        first = p.param_hash()
        assert p.param_hash() == first and len(calls) == 1
        assert first == hashlib.sha256(text.encode()).hexdigest()[:16]


# -- the reservoir hook by breakpoints, against a walk over every size ------

_RES = ReservoirFamily()
_RES_BS = (1, 2, 3, 7, 8, 9, 2**8, 2**16, 2**24)
_RES_XS = (Fraction(0), Fraction(1, 32), Fraction(3, 32), Fraction(1, 4), Fraction(1, 2),
           Fraction(1), Fraction(2))


def _res_creatures():
    yield _RES.top()
    yield ("free", (0, 1))
    yield ("free", (0, 1, 2))
    sizes = {_RES.T_SIZE}
    for threshold, _ in _RES.RUNGS:
        sizes.update((threshold - 1, threshold, threshold + 1))
    for n in sorted(s for s in sizes if 1 <= s <= _RES.T_SIZE):
        yield ("com", 1, tuple(range(n)))


def _rung_table():
    """rung_norm in 32nds for every reservoir size, index 0 unused."""
    table = [None]
    for t in range(1, _RES.T_SIZE + 1):
        v = _RES.rung_norm(t).q * 32
        assert v.denominator == 1
        table.append(int(v))
    return table


def _per_size_classes(w, B, rung):
    """The hereditary classes of w one reservoir size at a time, as
    (class_key, class_norm, witness_norm) with norms in 32nds."""
    out = []
    if w[0] == "free":
        top = _RES.T_SIZE
        for s_size in range(2, len(w[1]) + 1):
            if _RES.NOR_S[s_size] >= 1:
                out.append((("free", s_size), int(_RES.NOR_S[s_size] * 32), rung[-(-top // B)]))
    else:
        top = len(w[2])
    for t in range(1, top + 1):
        if rung[t] >= 32:
            out.append((("com", t), rung[t], rung[-(-t // B)]))
    return out


def test_reservoir_breakpoints_agree_with_every_size():
    rung = _rung_table()
    bound = 3 + 2 * len(_RES.RUNGS) + 2
    for w in _res_creatures():
        for B in _RES_BS:
            classes = _per_size_classes(w, B, rung)
            # one class per run of equal (class_norm, witness_norm), plus w's own
            keep = [k for k, c in enumerate(classes)
                    if k == 0 or c[0][0] == "free" or c[1:] != classes[k - 1][1:]
                    or c[0] == _RES.class_key(w)]
            hook = [(ck, c.q * 32, wn.q * 32)
                    for ck, c, wn in _RES.hereditary_bigness_classes(w, B, 0)]
            assert hook == [classes[k] for k in keep], (w[:2], B)
            assert len(hook) <= bound
            # the first class of each margin class_norm - witness_norm
            first = {}
            for k, (_, class_nor, witness) in enumerate(classes):
                first.setdefault(class_nor - witness, k)
            for x in _RES_XS:
                hits = [k for margin, k in first.items() if margin > x * 32]
                cert = check_bigness(_RES, w, B, x, hereditary=True)
                assert cert.mode == "hook-hereditary"
                assert cert.verdict == (not hits), (w[:2], B, x)
                if hits:
                    ck, _, witness = classes[min(hits)]
                    assert cert.counterexample == {
                        "class": ck, "witness_norm": LR(Fraction(witness, 32))}, (w[:2], B, x)


def test_reservoir_single_class_bigness_finds_any_committed_size():
    rung = _rung_table()
    for n in (33, 1000, 16383):
        w = ("com", 2, tuple(range(n)))
        for B in _RES_BS:
            for x in _RES_XS:
                cert = check_bigness(ReservoirFamily(), w, B, x, mode="auto")
                assert cert.mode == "hook"
                assert cert.verdict == (rung[-(-n // B)] >= rung[n] - x * 32), (n, B, x)


def test_point_set_test_agrees_with_the_set_based_definition():
    """Every tuple of length <= 4 over ints, bools and a float, against the
    sort-and-dedupe definition the C-level test replaced."""
    from creaturelab.atomic.families import _is_point_set

    def reference(v, n):
        return (isinstance(v, tuple) and len(v) >= 1
                and all(type(p) is int and 0 <= p < n for p in v)
                and tuple(sorted(set(v))) == v)

    atoms = [-1, *range(9), True, False, 1.0]
    for k in range(5):
        for v in itertools.product(atoms, repeat=k):
            for n in (1, 5, 9):
                assert _is_point_set(v, n) == reference(v, n), (v, n)
    assert not _is_point_set([0, 1], 9) and not _is_point_set("01", 9)
