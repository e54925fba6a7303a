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
    TrivialTwoPointFamily,
    capped_ladder,
    check_bigness,
    check_decisive,
    check_halving,
    check_nice,
    make_nice,
    replay_certificate,
    subset_log_family,
    toy_witness_pair,
    validate_atomic,
)
from creaturelab.errors import ModeUnsound, SizeInfeasible, UsageError
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
        cert = validate_atomic(p0.mutated(**change))
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
            v2 = p.unhalve_candidate(w, h, v)
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
