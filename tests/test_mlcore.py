"""Level creatures: shape, trunk extension, exact norms, transforms."""

import hashlib
import random
from fractions import Fraction

import pytest

from creaturelab.errors import (
    CapacityExceeded,
    DomainMismatch,
    Indeterminate,
    NormTooSmall,
    PreconditionFailed,
    TypeMismatch,
    UsageError,
    ZeroNorm,
)
from creaturelab.logreal import lr_from_rational, lr_log2_int
from creaturelab.mlcore import (
    IndexUniverse,
    MlCreature,
    Possibility,
    ml_enlarge,
    ml_halve,
    ml_homogenize,
    ml_local_type,
    ml_merge,
    ml_nor_z,
    ml_norm_cmp,
    ml_norm_positive,
    ml_successor_check,
    ml_unhalve,
    ml_val,
    ml_validate,
    poss_enumerate,
)
from creaturelab.params import make_toy_profile

UNI = {"mu": ["e0", "e1"], "alpha": ["a0", "a1"],
       "eps_of": {"a0": "e0", "a1": "e1"}}


def profile(height=4, kstar=2, slot=3, maxsupp=16):
    lvl = {"kstar": kstar, "slot_sizes": slot, "height": height,
           "maxposs": 2, "maxsupp": maxsupp, "gmin": 32, "bmin": 8}
    return make_toy_profile({"universe": UNI, "levels": [lvl, lvl]})


def top_creature(prof, n, u):
    """All components at the maximal-norm creature of their family."""
    U = prof.universe
    star = prof.star_param(n)
    w_eps = {i: star.top() for i in u if U.is_mu(i)}
    w_alpha = {}
    for a in u:
        if not U.is_mu(a):
            for k in sorted(star.val(w_eps[U.eps_of[a]])):
                w_alpha[(a, k)] = prof.slot_param(n, k).top()
    return MlCreature(n, frozenset(u), w_eps, w_alpha)


# index universe


def test_universe_closure():
    U = IndexUniverse(["e0"], ["a0"], {"a0": "e0"})
    assert U.closure({"a0"}) == frozenset({"a0", "e0"})
    assert U.is_closed({"e0"}) and not U.is_closed({"a0"})
    assert "e0" in U and "a0" in U and "x" not in U


def test_universe_shape_errors():
    with pytest.raises(UsageError):
        IndexUniverse(["x"], ["x"], {"x": "x"})
    with pytest.raises(UsageError):
        IndexUniverse(["e0"], ["a0"], {})
    with pytest.raises(UsageError):
        IndexUniverse(["e0"], ["a0"], {"a0": "a0"})


# possibilities


def test_possibility_make_and_restrict():
    eta = Possibility.make(2, {"e0", "a0"},
                           {(0, "e0"): 1, (0, "a0"): 2, (1, "e0"): 0, (1, "a0"): 1})
    assert eta.get(0, "a0") == 2
    assert eta.restrict_height(1).get(0, "e0") == 1
    assert eta.restrict_indices({"e0"}).u == frozenset({"e0"})
    with pytest.raises(DomainMismatch):
        Possibility.make(2, {"e0"}, {(0, "e0"): 1})
    with pytest.raises(DomainMismatch):
        eta.restrict_indices({"e0", "e1"})


def test_possibility_extend_and_json():
    eta = Possibility.make(1, {"e0"}, {(0, "e0"): 1})
    nu = eta.extend({"e0": 0})
    assert nu.n == 2 and nu.get(1, "e0") == 0
    assert Possibility.from_json(nu.to_json()) == nu
    with pytest.raises(DomainMismatch):
        eta.extend({"e1": 0})


def test_poss_enumerate_counts():
    prof = profile()
    assert len(poss_enumerate(0, {"e0"}, prof)) == 1
    assert len(poss_enumerate(1, {"e0"}, prof)) == 2  # kstar(0) selector values
    # cells: two levels x {selector(2), alpha(3)} = (2*3)^2
    assert len(poss_enumerate(2, {"e0", "a0"}, prof)) == 36
    assert len(set(poss_enumerate(2, {"e0", "a0"}, prof))) == 36


def test_poss_enumerate_capacity():
    lvl = {"kstar": 16, "slot_sizes": 16, "height": 4,
           "maxposs": 2, "maxsupp": 16, "gmin": 32, "bmin": 8}
    prof = make_toy_profile({"universe": UNI, "levels": [lvl] * 6})
    with pytest.raises(CapacityExceeded):
        poss_enumerate(6, {"e0", "e1", "a0", "a1"}, prof)


# creature shape


def test_validate_accepts_top_creature():
    prof = profile()
    ml_validate(top_creature(prof, 1, {"e0", "a0"}), prof)


def test_validate_rejects_broken_shapes():
    prof = profile()
    c = top_creature(prof, 1, {"e0", "a0"})

    bad = c.copy()
    bad.u = frozenset({"a0"})  # not eps-closed
    with pytest.raises(DomainMismatch):
        ml_validate(bad, prof)

    bad = c.copy()
    del bad.w_alpha[("a0", 0)]  # demanded slot missing
    with pytest.raises(DomainMismatch):
        ml_validate(bad, prof)

    bad = c.copy()
    bad.w_alpha[("a0", 7)] = prof.slot_param(1, 0).top()  # undemanded slot
    with pytest.raises(DomainMismatch):
        ml_validate(bad, prof)

    bad = c.copy()
    bad.d = lr_from_rational(Fraction(-1, 2))
    with pytest.raises(UsageError):
        ml_validate(bad, prof)


def test_val_enumerates_extensions():
    prof = profile()
    c = top_creature(prof, 1, {"e0", "a0"})
    eta = poss_enumerate(1, c.u, prof)[0]
    exts = ml_val(c, eta, prof)
    # 2 selector values, 3 alpha values through the chosen slot
    assert len(exts) == 6
    for nu in exts:
        assert nu.restrict_height(1) == eta
        k = nu.get(1, "e0")
        assert nu.get(1, "a0") in prof.slot_param(1, k).val(c.w_alpha[("a0", k)])


def test_val_restricts_wider_trunks():
    prof = profile()
    c = top_creature(prof, 1, {"e0"})
    eta = poss_enumerate(1, {"e0", "a0"}, prof)[0]
    exts = ml_val(c, eta, prof)
    assert {nu.u for nu in exts} == {frozenset({"e0"})}
    assert len(exts) == 2


# norm, exactly on z


def test_nor_z_formula():
    prof = profile(height=4)
    c = top_creature(prof, 1, {"e0", "a0"})
    # min component norm 4, support size 2, d = 0
    assert ml_nor_z(c, prof) == lr_from_rational(4) - lr_log2_int(2)
    assert ml_norm_cmp(c, 1, prof, 1) == -1  # z = 3 < 2^(2*1)
    cs = top_creature(prof, 1, {"e0"})
    assert ml_norm_cmp(cs, 1, prof, 1) == 0  # z = 4 = 2^(2*1)
    assert ml_norm_cmp(cs, 1, prof, Fraction(1, 2)) == 1
    assert ml_norm_positive(cs, prof)


def test_norm_cmp_refuses_irrational_thresholds():
    prof = profile(height=9)
    c = top_creature(prof, 1, {"e0"})  # z = 9, so nor = log2(9) / 2 = log2(3)
    with pytest.raises(Indeterminate):
        ml_norm_cmp(c, 1, prof, lr_log2_int(9))  # threshold 2 * log2(3)
    # rational thresholds t are decided exactly: z = 9 against 2^(2t)
    for t, want in [(0, 1), (1, 1), (Fraction(3, 2), 1), (Fraction(79, 50), 1),
                    (Fraction(8, 5), -1), (2, -1)]:
        assert ml_norm_cmp(c, 1, prof, t) == want
    # a clipped norm is 0, which any threshold's sign decides
    c.d = lr_from_rational(8)
    assert ml_norm_cmp(c, 1, prof, lr_log2_int(3)) == -1


def test_norm_clips_to_zero():
    prof = profile(height=4)
    c = top_creature(prof, 1, {"e0"})
    c.d = lr_from_rational(3)  # z = 1
    assert not ml_norm_positive(c, prof)
    assert ml_norm_cmp(c, 1, prof, Fraction(1, 4)) == -1
    assert ml_norm_cmp(c, 1, prof, 0) == 0


# halve / unhalve


def test_halve_burns_half_the_headroom():
    prof = profile(height=4)
    c = top_creature(prof, 1, {"e0"})
    h1 = ml_halve(c, 1, prof)
    assert h1.d == lr_from_rational(2)
    h2 = ml_halve(h1, 1, prof)
    assert h2.d == lr_from_rational(3)
    with pytest.raises(ZeroNorm):
        ml_halve(ml_halve(ml_halve(h2, 1, prof), 1, prof), 1, prof)


def test_unhalve_restores_the_component():
    prof = profile(height=9)
    c = top_creature(prof, 1, {"e0", "a0"})
    half = ml_halve(c, 1, prof)
    # a genuine successor of the half: shrink one slot, keep norm positive
    dcr = half.copy()
    slot = prof.slot_param(1, 0)
    dcr.w_alpha[("a0", 0)] = slot.best_successor_within(
        slot.top(), frozenset({0, 1}))
    assert ml_norm_positive(dcr, prof)
    out = ml_unhalve(dcr, c, 1, prof)
    assert out.d == c.d
    ok, _ = ml_successor_check(out, c, 1, prof, enumerate_axiom=True)
    assert ok
    # lost at most 1/maxposs of norm: 2 * z_after >= z_before
    assert ml_nor_z(out, prof).scale(2) >= ml_nor_z(c, prof)


def test_unhalve_preconditions():
    prof = profile(height=4)
    c = top_creature(prof, 1, {"e0"})
    half = ml_halve(c, 1, prof)
    star = prof.star_param(1)
    # a singleton star kills the norm below the half
    bad = half.copy()
    bad.w_eps["e0"] = min(
        (w for w in star.succ_ids(star.top()) if star.val_size(w) == 1),
        key=star.val_size,
    )
    with pytest.raises(PreconditionFailed):
        ml_unhalve(bad, c, 1, prof)
    # not a successor of the half at all: d went down
    bad = half.copy()
    bad.d = lr_from_rational(1)
    with pytest.raises(PreconditionFailed):
        ml_unhalve(bad, c, 1, prof)


# successorship


def test_successor_check_diagnostics():
    prof = profile()
    c = top_creature(prof, 1, {"e0", "a0"})
    ok, diag = ml_successor_check(c, c, 1, prof, enumerate_axiom=True)
    assert ok and diag == []

    shrunk = c.copy()
    star = prof.star_param(1)
    shrunk.w_eps["e0"] = star.best_successor_within(star.top(), frozenset({0}))
    del shrunk.w_alpha[("a0", 1)]  # selector dropped 1, slot not demanded
    ml_validate(shrunk, prof)
    ok, diag = ml_successor_check(shrunk, c, 1, prof, enumerate_axiom=True)
    assert ok and diag == []

    # reversed direction is not successorship
    ok, diag = ml_successor_check(c, shrunk, 1, prof)
    assert not ok and any("slot" in m or "star" in m for m in diag)

    less = c.copy()
    less.u = frozenset({"e0"})
    less.w_alpha = {}
    ok, diag = ml_successor_check(less, c, 1, prof)
    assert not ok and "support must not shrink" in diag


# merge


def test_merge_disjoint_copies():
    prof = profile(height=9)
    c1 = top_creature(prof, 1, {"e0", "a0"})
    c2 = top_creature(prof, 1, {"e1", "a1"})
    m = ml_merge(c1, c2, ["e0", "a0"], ["e1", "a1"], 1, prof)
    assert m.u == frozenset({"e0", "e1", "a0", "a1"})
    for orig in (c1, c2):
        ok, _ = ml_successor_check(m, orig, 1, prof)
        assert ok
    # support doubled: z drops by exactly one factor of 2
    assert ml_nor_z(m, prof).scale(2) >= ml_nor_z(c1, prof)


def test_merge_self_is_identity_shaped():
    prof = profile(height=9)
    c = top_creature(prof, 1, {"e0", "a0"})
    m = ml_merge(c, c, ["e0", "a0"], ["e0", "a0"], 1, prof)
    assert m.u == c.u and m.w_eps == c.w_eps and m.w_alpha == c.w_alpha


def test_merge_rejections():
    prof = profile(height=9)
    c1 = top_creature(prof, 1, {"e0", "a0"})
    c2 = top_creature(prof, 1, {"e1", "a1"})

    other_d = c2.copy()
    other_d.d = lr_from_rational(1)
    with pytest.raises(TypeMismatch):
        ml_merge(c1, other_d, ["e0", "a0"], ["e1", "a1"], 1, prof)

    with pytest.raises(DomainMismatch):
        ml_local_type(c1, ["e0"], prof)

    # shared support with clashing enumerations
    with pytest.raises(TypeMismatch):
        ml_merge(c1, c1, ["e0", "a0"], ["a0", "e0"], 1, prof)

    low = profile(height=4)
    with pytest.raises(NormTooSmall):
        ml_merge(top_creature(low, 1, {"e0", "a0"}),
                 top_creature(low, 1, {"e1", "a1"}),
                 ["e0", "a0"], ["e1", "a1"], 1, low)

    tight = profile(height=9, maxsupp=4)
    with pytest.raises(NormTooSmall):
        ml_merge(top_creature(tight, 1, {"e0", "a0"}),
                 top_creature(tight, 1, {"e1", "a1"}),
                 ["e0", "a0"], ["e1", "a1"], 1, tight)


# enlarge


def test_enlarge_closes_and_fills():
    prof = profile(height=9)
    c = top_creature(prof, 1, {"e0", "a0"})
    g = ml_enlarge(c, "a1", 1, prof)
    assert g.u == frozenset({"e0", "e1", "a0", "a1"})  # eps-closure pulled e1 in
    ml_validate(g, prof)
    ok, _ = ml_successor_check(g, c, 1, prof)
    assert ok
    assert ml_enlarge(c, "a0", 1, prof) is c  # already present


def test_enlarge_capacity():
    tight = profile(height=9, maxsupp=4)
    c = top_creature(tight, 1, {"e0", "a0"})
    with pytest.raises(CapacityExceeded):
        ml_enlarge(c, "e1", 1, tight)
    prof = profile(height=9)
    with pytest.raises(DomainMismatch):
        ml_enlarge(top_creature(prof, 1, {"e0"}), "zz", 1, prof)


# homogenize


def test_homogenize_constant_function_is_free():
    prof = profile(height=9)
    c = top_creature(prof, 1, {"e0", "a0"})
    out, gp = ml_homogenize(c, 1, prof, lambda nu: 7, 1)
    assert set(gp.values()) == {7}
    assert out.w_eps == c.w_eps and out.w_alpha == c.w_alpha


def test_homogenize_structured_function():
    prof = profile(height=9, kstar=4)
    c = top_creature(prof, 1, {"e0", "a0"})

    def G(nu):
        d = nu.as_dict()
        return (d[(1, "e0")] + d[(1, "a0")] + d[(0, "e0")]) % 2

    out, gp = ml_homogenize(c, 1, prof, G, 2)
    ok, _ = ml_successor_check(out, c, 1, prof, enumerate_axiom=True)
    assert ok
    # one full norm unit of budget: 2^maxposs * z_after >= z_before
    assert ml_nor_z(out, prof).scale(4) >= ml_nor_z(c, prof)
    for eta in poss_enumerate(1, c.u, prof):
        assert {G(nu) for nu in ml_val(out, eta, prof)} == {gp[eta]}


def test_homogenize_seeded_selector_functions():
    # two trunks, sixteen selector values: any binary behavior coloring has
    # at most four classes, so a class of size four always survives
    lvl0 = {"kstar": 2, "slot_sizes": 3, "height": 9,
            "maxposs": 2, "maxsupp": 16, "gmin": 32, "bmin": 8}
    lvl1 = {"kstar": 16, "slot_sizes": 3, "height": 9,
            "maxposs": 2, "maxsupp": 16, "gmin": 32, "bmin": 8}
    prof = make_toy_profile({"universe": UNI, "levels": [lvl0, lvl1]})
    c = top_creature(prof, 1, {"e0"})
    for seed in range(20):
        def G(nu, seed=seed):
            blob = f"{seed}:{sorted(nu.values)!r}".encode()
            return int(hashlib.sha256(blob).hexdigest(), 16) % 2

        out, gp = ml_homogenize(c, 1, prof, G, 2)
        ok, _ = ml_successor_check(out, c, 1, prof, enumerate_axiom=True)
        assert ok
        for eta in poss_enumerate(1, c.u, prof):
            assert {G(nu) for nu in ml_val(out, eta, prof)} == {gp[eta]}


def test_homogenize_reports_honest_collapse():
    prof = profile(height=9, kstar=4)
    c = top_creature(prof, 1, {"e0", "a0"})

    def G(nu):
        blob = repr(sorted(nu.values)).encode()
        return int(hashlib.sha256(blob).hexdigest(), 16) % 2

    with pytest.raises(NormTooSmall):
        ml_homogenize(c, 1, prof, G, 2)


def test_homogenize_rejects_empty_range():
    prof = profile()
    c = top_creature(prof, 1, {"e0"})
    with pytest.raises(UsageError):
        ml_homogenize(c, 1, prof, lambda nu: 0, 0)


# lifecycle soak: randomized shrink / halve / unhalve round trips


def test_random_successors_keep_all_invariants():
    prof = profile(height=9, kstar=4)
    rng = random.Random(20260826)
    star = prof.star_param(1)
    for _ in range(40):
        c = top_creature(prof, 1, {"e0", "a0"})
        d = c.copy()
        # shrink the star to a random set of size >= 2
        keep = frozenset(rng.sample(range(4), rng.randint(2, 4)))
        d.w_eps["e0"] = star.best_successor_within(star.top(), keep)
        for (a, k) in list(d.w_alpha):
            if k not in star.val(d.w_eps["e0"]):
                del d.w_alpha[(a, k)]
                continue
            slot = prof.slot_param(1, k)
            sub = frozenset(rng.sample(range(3), rng.randint(2, 3)))
            d.w_alpha[(a, k)] = slot.best_successor_within(slot.top(), sub)
        ml_validate(d, prof)
        ok, diag = ml_successor_check(d, c, 1, prof, enumerate_axiom=True)
        assert ok, diag
        if ml_norm_positive(d, prof):
            h = ml_halve(d, 1, prof)
            back = ml_unhalve(h, d, 1, prof)
            assert back.d == d.d
            assert ml_nor_z(back, prof).scale(2) >= ml_nor_z(d, prof)
