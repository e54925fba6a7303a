"""Level creatures: shape, trunk extension, exact norms, transforms."""

import hashlib
import itertools
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from creaturelab import mlcore
from creaturelab.logreal import LogReal, lr_compare, lr_from_rational, lr_log2_int
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


def test_universe_refuses_indices_that_share_a_str():
    # columns are sorted by str, so a tie would leave their order to set
    # iteration, which for strings varies with PYTHONHASHSEED
    with pytest.raises(UsageError, match="distinct str"):
        IndexUniverse([1, "1"], [], {})
    with pytest.raises(UsageError, match="distinct str"):
        make_toy_profile({"universe": {"mu": [1], "alpha": ["1"], "eps_of": {"1": 1}},
                          "levels": [{"kstar": 2, "slot_sizes": 2, "height": 4, "maxposs": 2,
                                      "maxsupp": 16, "gmin": 32, "bmin": 8}]})


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


# the flat layout against a dict-backed reference: a possibility is its
# cells (m, i) -> v, and `values` lists them ordered by (m, str(i))


def _ref_values(cells: dict) -> tuple:
    return tuple(sorted(cells.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))))


def _cells(data, n, u, top=3):
    return {(m, i): data.draw(st.integers(0, top)) for m in range(n) for i in sorted(u)}


_INDICES = st.frozensets(st.sampled_from(["e0", "e1", "a0", "a1", "x"]), max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_possibility_matches_a_dict_reference(data):
    n = data.draw(st.integers(0, 3))
    u = data.draw(_INDICES)
    cells = _cells(data, n, u)
    nu = Possibility.make(n, u, cells)
    assert nu.u == u and nu.values == _ref_values(cells) and nu.as_dict() == cells
    assert all(nu.get(m, i) == v for (m, i), v in cells.items())
    for m, i in [(n, "e0"), (-1, "e0"), (0, "zz")]:
        with pytest.raises(KeyError):
            nu.get(m, i)
    assert Possibility.from_json(json.loads(json.dumps(nu.to_json()))) == nu
    if cells:
        with pytest.raises(DomainMismatch):
            Possibility.make(n, u, dict(list(cells.items())[1:]))

    level = {i: data.draw(st.integers(0, 3)) for i in u}
    grown = {**cells, **{(n, i): v for i, v in level.items()}}
    assert nu.extend(level).values == _ref_values(grown)
    with pytest.raises(DomainMismatch):
        nu.extend({**level, "zz": 0})

    m = data.draw(st.integers(0, n + 1))
    if m <= n:
        cut = nu.restrict_height(m)
        assert cut == Possibility.make(m, u, {c: v for c, v in cells.items() if c[0] < m})
        assert cut.values == _ref_values({c: v for c, v in cells.items() if c[0] < m})
    else:
        with pytest.raises(DomainMismatch):
            nu.restrict_height(m)

    u2 = data.draw(_INDICES)
    if u2 <= u:
        part = nu.restrict_indices(u2)
        assert part.u == u2
        assert part.values == _ref_values({c: v for c, v in cells.items() if c[1] in u2})
    else:
        with pytest.raises(DomainMismatch):
            nu.restrict_indices(u2)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_possibility_equality_and_hash_follow_values(data):
    small = st.frozensets(st.sampled_from(["e0", "a0"]), max_size=2)
    pair = []
    for _ in range(2):
        n, u = data.draw(st.integers(0, 2)), data.draw(small)
        pair.append(Possibility.make(n, u, _cells(data, n, u, top=1)))
    a, b = pair
    assert (a == b) == ((a.n, a.u, a.values) == (b.n, b.u, b.values))
    if a == b:
        assert hash(a) == hash(b)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2), st.frozensets(st.sampled_from(UNI["mu"] + UNI["alpha"]), min_size=1))
def test_poss_enumerate_follows_the_reference_product_order(n, u):
    prof = profile()
    cells = sorted(((m, i) for m in range(n) for i in u), key=lambda c: (c[0], str(c[1])))
    sizes = [prof.kstar(m) if prof.universe.is_mu(i) else prof.fmax(m) for m, i in cells]
    want = [_ref_values(dict(zip(cells, combo)))
            for combo in itertools.product(*map(range, sizes))]
    assert [nu.values for nu in poss_enumerate(n, u, prof)] == want


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


def _nor_z_reference(c, prof):
    """z by the component walk in str order and LogReal.make's dict merge:
    the least atomic norm, minus log2|u|, minus d."""
    comps = [(prof.star_param(c.n), w) for _, w in sorted(c.w_eps.items(), key=str)]
    comps += [(prof.slot_param(c.n, k), w) for (_, k), w in sorted(c.w_alpha.items(), key=str)]
    best = None
    for p, w in comps:
        if best is None or lr_compare(p.nor(w), best) < 0:
            best = p.nor(w)
    size, logs = lr_log2_int(len(c.u)), dict(best.logs)
    for x in (size, c.d):
        for p, a in x.logs:
            logs[p] = logs.get(p, Fraction(0)) - a
    return LogReal.make(best.q - size.q - c.d.q, logs)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_nor_z_matches_the_component_walk(data):
    prof = profile(height=data.draw(st.sampled_from([4, 6, 9])), kstar=3)
    u = prof.universe.closure(data.draw(st.sets(st.sampled_from(UNI["mu"] + UNI["alpha"]),
                                                min_size=1)))
    c = _draw_creature(data, prof, 1, u)
    for _ in range(data.draw(st.integers(0, 2))):  # a halved d is log2|u| / 2 and more
        if ml_nor_z(c, prof) > lr_from_rational(1):
            c = ml_halve(c, 1, prof)
    assert ml_nor_z(c, prof) == _nor_z_reference(c, prof)


def test_nor_z_of_a_halved_creature_with_a_log_term():
    prof = profile(height=9, kstar=3)
    c = ml_halve(top_creature(prof, 1, {"e0", "a0", "e1"}), 1, prof)
    assert c.d.logs == ((3, Fraction(-1, 2)),)  # d = (9 - log2(3)) / 2
    assert ml_nor_z(c, prof) == _nor_z_reference(c, prof) == c.d


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


def test_unhalve_reads_each_creature_s_least_norm_once(monkeypatch):
    prof = profile(height=9)
    c = top_creature(prof, 1, {"e0", "a0"})
    dcr, seen, minnor = ml_halve(c, 1, prof), [], mlcore.ml_minnor
    monkeypatch.setattr(mlcore, "ml_minnor", lambda x, p: seen.append(x) or minnor(x, p))
    out = ml_unhalve(dcr, c, 1, prof)
    assert [id(x) for x in seen] == [id(c), id(dcr), id(out)]


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


# the enumerated successor check against the per-trunk replay it replaces:
# for every trunk over d's support, every extension through d, cut down to
# c's support, must be an extension through c


def _ref_val(c, eta, prof):
    """ml_val built one pick dict per extension and extended through
    Possibility.extend."""
    eta = eta.restrict_indices(c.u)
    U, star = prof.universe, prof.star_param(c.n)
    mus = [i for i in eta.cols if U.is_mu(i)]
    alphas = [i for i in eta.cols if not U.is_mu(i)]
    out = []
    for ks in itertools.product(*(sorted(star.val(c.w_eps[e])) for e in mus)):
        pick = dict(zip(mus, ks))
        slot_vals = [sorted(prof.slot_param(c.n, pick[U.eps_of[a]]).val(
            c.w_alpha[(a, pick[U.eps_of[a]])])) for a in alphas]
        for avals in itertools.product(*slot_vals):
            pick.update(zip(alphas, avals))
            out.append(eta.extend(pick))
    return out


def _ref_successor_check(d, c, n, prof):
    ok, diag = ml_successor_check(d, c, n, prof)
    if not ok:
        return ok, diag
    for eta in poss_enumerate(n, d.u, prof):
        allowed = set(_ref_val(c, eta.restrict_indices(c.u), prof))
        for nu in _ref_val(d, eta, prof):
            if nu.restrict_indices(c.u) not in allowed:
                return False, [f"restriction axiom fails at {eta}"]
    return True, []


class _Lenient:
    """A family whose successor test wrongly answers yes to everything."""

    def __init__(self, family):
        self._family = family

    def __getattr__(self, name):
        return getattr(self._family, name)

    def in_succ(self, v, w):
        return True


class _LenientProfile:
    """A profile handing out lenient families, so that the componentwise
    clauses pass and only the enumerated restriction property can fail."""

    def __init__(self, prof):
        self._prof = prof

    def __getattr__(self, name):
        return getattr(self._prof, name)

    def star_param(self, n):
        return _Lenient(self._prof.star_param(n))

    def slot_param(self, n, k):
        return _Lenient(self._prof.slot_param(n, k))


def _subset(data, within):
    """A nonempty sub-creature of a plateau creature (a sorted tuple)."""
    return tuple(sorted(data.draw(st.sets(st.sampled_from(within), min_size=1))))


def _draw_creature(data, prof, n, u, parent=None):
    """A well-formed level-n creature over u; where parent has the same
    component, a successor of it unless the draw says otherwise."""
    U, star = prof.universe, prof.star_param(n)
    old = parent if parent is not None and data.draw(st.booleans()) else None

    def pick(p, w):
        return _subset(data, p.top() if w is None else w)

    w_eps = {e: pick(star, old and old.w_eps.get(e)) for e in sorted(u) if U.is_mu(e)}
    w_alpha = {(a, k): pick(prof.slot_param(n, k), old and old.w_alpha.get((a, k)))
               for a in sorted(u) if not U.is_mu(a) for k in w_eps[U.eps_of[a]]}
    c = MlCreature(n, frozenset(u), w_eps, w_alpha)
    ml_validate(c, prof)
    return c


_EQUIV_LVL = {"kstar": 2, "slot_sizes": 3, "height": 4,
              "maxposs": 2, "maxsupp": 16, "gmin": 32, "bmin": 8}
_EQUIV_PROFILE = make_toy_profile({"universe": UNI, "levels": [_EQUIV_LVL] * 3})


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_successor_check_matches_the_per_trunk_replay(data):
    real = _EQUIV_PROFILE
    U = real.universe
    n = data.draw(st.sampled_from([1, 2]))
    indices = st.sets(st.sampled_from(sorted(UNI["mu"] + UNI["alpha"])))
    cu = U.closure(data.draw(indices.filter(bool)))
    du = U.closure(cu | data.draw(indices))
    c = _draw_creature(data, real, n, cu)
    d = _draw_creature(data, real, n, du, parent=c)
    prof = _LenientProfile(real) if data.draw(st.booleans()) else real
    got = ml_successor_check(d, c, n, prof, enumerate_axiom=True)
    assert got == _ref_successor_check(d, c, n, prof)
    if prof is real:  # on true families the clauses decide it componentwise
        assert got[0] == ml_successor_check(d, c, n, prof)[0]

    trunks = poss_enumerate(n, du, real)
    eta = trunks[data.draw(st.integers(0, len(trunks) - 1))]
    for x in (c, d):
        got, want = ml_val(x, eta, real), _ref_val(x, eta, real)
        assert got == want and [nu.u for nu in got] == [nu.u for nu in want]


def test_successor_check_reports_a_failing_row_at_the_first_trunk():
    real = profile()
    prof = _LenientProfile(real)
    c = top_creature(real, 1, {"e0", "a0"})
    d = c.copy()
    d.w_eps["e0"] = (0,)
    d.w_alpha = {("a0", 0): (0, 1, 2)}
    c.w_eps["e0"] = (1,)
    c.w_alpha = {("a0", 1): (0, 1, 2)}
    ok, diag = ml_successor_check(d, c, 1, prof, enumerate_axiom=True)
    assert (ok, diag) == _ref_successor_check(d, c, 1, prof)
    first = poss_enumerate(1, d.u, real)[0]
    assert diag == [f"restriction axiom fails at {first}"]
    assert diag == ["restriction axiom fails at Possibility(n=1, cols=('a0', 'e0'), vals=(0, 0))"]


def test_successor_check_keeps_the_enumeration_refusals(monkeypatch):
    lvl = {"kstar": 16, "slot_sizes": 16, "height": 4,
           "maxposs": 2, "maxsupp": 16, "gmin": 32, "bmin": 8}
    big = make_toy_profile({"universe": UNI, "levels": [lvl] * 7})
    c = top_creature(big, 6, {"e0", "e1", "a0", "a1"})
    # the value sets decide it; the replay's walk over 16^24 trunks is refused
    assert ml_successor_check(c, c, 6, big, enumerate_axiom=True) == (True, [])
    with pytest.raises(CapacityExceeded, match="trunks exceed the enumeration cap$"):
        _ref_successor_check(c, c, 6, big)
    # no row is built, so a level of more rows than the cap is answered
    monkeypatch.setattr(mlcore, "ENUM_CAP", 65535)
    assert mlcore._level_count(c, big) == 65536
    assert ml_successor_check(c, c, 6, big, enumerate_axiom=True) == (True, [])
    empty = MlCreature(1, frozenset(), {}, {})
    with pytest.raises(UsageError):
        ml_successor_check(empty, empty, 1, profile(), enumerate_axiom=True)


def test_successor_check_builds_no_trunk():
    """A level-1 creature over three selectors and three slots has 64 rows,
    which decide the restriction property, while its 16^6 height-1 trunks
    are past the enumeration cap."""
    uni = {"mu": ["e0", "e1", "e2"], "alpha": ["a0", "a1", "a2"],
           "eps_of": {"a0": "e0", "a1": "e1", "a2": "e2"}}
    lvl = {"kstar": 16, "slot_sizes": 16, "height": 4,
           "maxposs": 2, "maxsupp": 16, "gmin": 32, "bmin": 8}
    prof = make_toy_profile({"universe": uni,
                             "levels": [lvl, dict(lvl, kstar=2, slot_sizes=2)]})
    c = top_creature(prof, 1, set(uni["mu"] + uni["alpha"]))
    assert mlcore._level_count(c, prof) == 64
    assert ml_successor_check(c, c, 1, prof) == (True, [])
    assert ml_successor_check(c, c, 1, prof, enumerate_axiom=True) == (True, [])
    with pytest.raises(CapacityExceeded, match="^16777216\\+ trunks exceed the enumeration cap$"):
        poss_enumerate(1, c.u, prof)


# the block decision against the row-based subset test it replaces: d's
# one-level rows, cut down to c's columns, must all be rows of c


def _ref_rows_within(d, c, prof):
    """Build d's rows over d's support and c's over c's, and test the
    projection of the one against the other as sets."""
    cols = tuple(sorted(d.u, key=str))
    keep = [j for j, i in enumerate(cols) if i in c.u]
    allowed = set(mlcore._level_rows(c, tuple(cols[j] for j in keep), prof))
    return {tuple(row[j] for j in keep) for row in mlcore._level_rows(d, cols, prof)} <= allowed


_TRIPLE_UNI = {"mu": ["e0", "e1", "e2"], "alpha": ["a0", "a1", "a2"],
               "eps_of": {"a0": "e0", "a1": "e0", "a2": "e1"}}
_TRIPLE_PROFILE = make_toy_profile({"universe": _TRIPLE_UNI, "levels": [_EQUIV_LVL]})


def _draw_loose(data, prof, n, u, parent=None):
    """A level-n creature over u whose component ids may be empty, `()`,
    which ml_validate refuses; where parent has the same component, often a
    subset of it."""
    U, star = prof.universe, prof.star_param(n)

    def pick(p, w):
        within = p.top() if w is None or data.draw(st.booleans()) else w
        return tuple(sorted(data.draw(st.sets(st.sampled_from(within))))) if within else ()

    w_eps = {e: pick(star, parent and parent.w_eps.get(e)) for e in sorted(u) if U.is_mu(e)}
    w_alpha = {(a, k): pick(prof.slot_param(n, k), parent and parent.w_alpha.get((a, k)))
               for a in sorted(u) if not U.is_mu(a) for k in w_eps[U.eps_of[a]]}
    return MlCreature(n, frozenset(u), w_eps, w_alpha)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rows_within_matches_the_row_subset_test(data):
    real = data.draw(st.sampled_from([_EQUIV_PROFILE, _TRIPLE_PROFILE]))
    U = real.universe
    # the three-selector universe at level 0, where the replay has one trunk
    n = data.draw(st.sampled_from([0, 1])) if real is _EQUIV_PROFILE else 0
    indices = st.sets(st.sampled_from(sorted(U.mu_part | U.alpha_part)))
    cu = U.closure(data.draw(indices.filter(bool)))
    du = U.closure(cu | data.draw(indices))
    loose = data.draw(st.booleans())
    c = (_draw_loose if loose else _draw_creature)(data, real, n, cu)
    d = (_draw_loose if loose else _draw_creature)(data, real, n, du, parent=c)
    assert mlcore._rows_within(d, c, real) == _ref_rows_within(d, c, real)
    prof = _LenientProfile(real)  # the componentwise clauses pass
    got = ml_successor_check(d, c, n, prof, enumerate_axiom=True)
    assert got == _ref_successor_check(d, c, n, prof)
    assert got[0] == _ref_rows_within(d, c, real)


def test_a_value_whose_slot_is_empty_heads_no_row():
    """d's selector keeps 1, which c's does not have, but d's slot at 1 is
    empty: no row of d picks 1, so every row of d is one of c's."""
    real = profile()
    prof = _LenientProfile(real)
    c = MlCreature(1, frozenset({"e0", "a0"}), {"e0": (0,)}, {("a0", 0): (0, 1, 2)})
    d = MlCreature(1, c.u, {"e0": (0, 1)}, {("a0", 0): (0, 1), ("a0", 1): ()})
    assert ml_successor_check(d, c, 1, prof, enumerate_axiom=True) == (True, [])
    assert _ref_successor_check(d, c, 1, prof) == (True, [])
    assert _ref_rows_within(d, c, real)
    # with a value in that slot, d picks 1 in a row c does not have
    d.w_alpha["a0", 1] = (2,)
    ok, diag = ml_successor_check(d, c, 1, prof, enumerate_axiom=True)
    assert (ok, diag) == _ref_successor_check(d, c, 1, prof)
    assert diag == ["restriction axiom fails at Possibility(n=1, cols=('a0', 'e0'), vals=(0, 0))"]


@pytest.mark.parametrize("wider", ["a0", "a1"])
def test_every_slot_bound_to_a_selector_is_tested(wider):
    """e0 binds a0 and a1; d's value set at one of them, whichever comes
    first, leaves c's."""
    real = _TRIPLE_PROFILE
    prof = _LenientProfile(real)
    c = MlCreature(0, frozenset({"e0", "a0", "a1"}), {"e0": (0,)},
                   {("a0", 0): (0,), ("a1", 0): (0,)})
    d = c.copy()
    d.w_alpha[wider, 0] = (0, 1)
    assert ml_successor_check(d, c, 0, prof, enumerate_axiom=True) == (
        False, ["restriction axiom fails at Possibility(n=0, cols=('a0', 'a1', 'e0'), vals=())"])
    assert _ref_successor_check(d, c, 0, prof)[0] is False
    assert not _ref_rows_within(d, c, real)


def test_successor_check_builds_no_row(monkeypatch):
    real = profile()
    c = top_creature(real, 1, {"e0", "a0", "e1", "a1"})
    shrunk = c.copy()  # e0 keeps only 0, so the slot at 1 goes
    shrunk.w_eps["e0"] = (0,)
    del shrunk.w_alpha["a0", 1]
    ml_validate(shrunk, real)
    cases = [(c, c, real), (shrunk, c, real), (c, shrunk, _LenientProfile(real))]
    want = [ml_successor_check(d, p, 1, prof, enumerate_axiom=True) for d, p, prof in cases]
    assert [ok for ok, _ in want] == [True, True, False]
    calls = []
    monkeypatch.setattr(mlcore, "_level_rows", lambda *args: calls.append(args))
    assert [ml_successor_check(d, p, 1, prof, enumerate_axiom=True) for d, p, prof in cases] == want
    assert calls == []


def test_successor_check_holds_vacuously_without_trunks():
    class NoTrunks(_LenientProfile):
        def kstar(self, m):
            return 0

    real = profile()
    c = MlCreature(1, frozenset({"e0"}), {"e0": (0,)}, {})
    d = MlCreature(1, frozenset({"e0"}), {"e0": (1,)}, {})  # a row c does not have
    prof = NoTrunks(real)
    assert ml_successor_check(d, c, 1, prof, enumerate_axiom=True) == (True, [])
    assert _ref_successor_check(d, c, 1, prof) == (True, [])
    assert ml_successor_check(d, c, 1, _LenientProfile(real), enumerate_axiom=True)[0] is False


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


# the level of a transform


def test_transforms_refuse_a_level_other_than_the_creature_s():
    lvl = {"kstar": 2, "slot_sizes": 3, "height": 9,
           "maxposs": 2, "maxsupp": 16, "gmin": 32, "bmin": 8}
    prof = make_toy_profile({"universe": UNI, "levels": [lvl] * 3})
    c = top_creature(prof, 1, {"e0", "a0"})
    half, enum = ml_halve(c, 1, prof), sorted(c.u, key=str)
    for n in (0, 2):
        for call in (lambda: ml_halve(c, n, prof),
                     lambda: ml_enlarge(c, "e1", n, prof),
                     lambda: ml_merge(c, c, enum, enum, n, prof),
                     lambda: ml_unhalve(half, c, n, prof),
                     lambda: ml_homogenize(c, n, prof, lambda nu: 0, 1),
                     lambda: ml_norm_cmp(c, n, prof, 1)):
            with pytest.raises(DomainMismatch, match="level mismatch"):
                call()
    # every creature a transform reads must sit at the level asked
    upper = top_creature(prof, 2, {"e0", "a0"})
    with pytest.raises(DomainMismatch, match="level mismatch"):
        ml_merge(c, upper, enum, enum, 1, prof)
    with pytest.raises(DomainMismatch, match="level mismatch"):
        ml_unhalve(ml_halve(upper, 2, prof), c, 1, prof)
    assert ml_successor_check(c, c, 0, prof) == (False, ["level mismatch"])
    assert ml_successor_check(upper, c, 1, prof) == (False, ["level mismatch"])


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


def _lvl(kstar, slot):
    return {"kstar": kstar, "slot_sizes": slot, "height": 9,
            "maxposs": 2, "maxsupp": 16, "gmin": 32, "bmin": 8}


_SHARED_UNI = {"mu": ["e0"], "alpha": ["a0", "a1", "a2"],
               "eps_of": {"a0": "e0", "a1": "e0", "a2": "e0"}}

# (universe, levels, support at level 1): zero, one and two alpha indices,
# the two alphas either on one selector or on two
_G_SHAPES = {
    "sel": (UNI, [_lvl(2, 3), _lvl(16, 3)], {"e0"}),
    "two-sel": (UNI, [_lvl(2, 3), _lvl(5, 3)], {"e0", "e1"}),
    "one-alpha": (UNI, [_lvl(4, 3), _lvl(4, 3)], {"e0", "a0"}),
    "one-alpha-wide": (UNI, [_lvl(2, 2), _lvl(16, 3)], {"e0", "a0"}),
    "shared-alphas": (_SHARED_UNI, [_lvl(2, 2), _lvl(4, 3)], {"e0", "a0", "a1"}),
    "two-alphas": (UNI, [_lvl(1, 1), _lvl(4, 3)], {"e0", "e1", "a0", "a1"}),
}


def _hashed(blob, r):
    return int(hashlib.sha256(blob.encode()).hexdigest(), 16) % r


def _g_kind(kind):
    """(G, range) for a kind: "constant"; "structured" (parity of the level
    values); "seeded<s>/<r>" (a hash of the whole branch); "coarse<s>/<r>"
    (a hash that sees each level alpha value only as zero or not, so slot
    creatures can keep two values)."""
    if kind == "constant":
        return (lambda nu: 7), 1
    if kind == "structured":
        return (lambda nu: sum(nu.vals[len(nu.cols):]) % 2), 2
    name, r = kind.split("/")
    name, seed, r = name[:6], name[6:], int(r)
    if name == "seeded":
        return (lambda nu: _hashed(f"{seed}:{nu.vals}", r)), r

    def G(nu):
        k = len(nu.cols)
        top = tuple(min(v, 1) if i.startswith("a") else v
                    for i, v in zip(nu.cols, nu.vals[-k:]))
        return _hashed(f"{seed}:{nu.vals[:-k]}:{top}", r)

    return G, r


# (shape, G kind, outcome, first 16 hex digits of sha256 of the output or
# refusal, of the sequence of branches G receives)
G_SEQUENCE_PINS = [
    ("sel", "structured", "ok", "f61b3ba5a6f2ef79", "6de348371c2c4dec"),
    ("sel", "seeded1/2", "ok", "a584bb11d3fc1ac2", "e43a47afb53feb19"),
    ("sel", "seeded3/3", "ok", "00c69a7731681e64", "0c651e7a7887af99"),
    ("two-sel", "structured", "ok", "9739df130b0a5ed1", "0378fb9b33c0e582"),
    ("two-sel", "seeded1/2", "NormTooSmall", "3ad22aff0cf18f73", "decaefd257d9ed07"),
    ("one-alpha", "constant", "ok", "8d15add282138a13", "69731038c29fe53e"),
    ("one-alpha", "structured", "ok", "a0c8a04c08891b9b", "e14bdd371801d3c1"),
    ("one-alpha", "seeded1/2", "NormTooSmall", "3ad22aff0cf18f73", "e861a98d2ae0a8a3"),
    ("one-alpha", "coarse1/2", "NormTooSmall", "3ad22aff0cf18f73", "6fd401b99a35e546"),
    ("one-alpha-wide", "coarse1/2", "ok", "ede66228c222da05", "1410ffe4ff85dc53"),
    ("one-alpha-wide", "coarse2/2", "ok", "c807e8cc8a478f5a", "884b887edab6ea0a"),
    ("one-alpha-wide", "seeded3/3", "NormTooSmall", "3ad22aff0cf18f73", "d13fb700b3a905c0"),
    ("shared-alphas", "structured", "ok", "e151322b615a6e34", "e66213c4843bfaba"),
    ("shared-alphas", "coarse1/2", "ok", "0ff8425869dd9e32", "7895f987bb9710e1"),
    ("shared-alphas", "coarse2/2", "NormTooSmall", "3ad22aff0cf18f73", "c08a2b8324ffec4b"),
    ("two-alphas", "structured", "ok", "385889f60a73633a", "91550b2796fda814"),
    ("two-alphas", "coarse2/2", "ok", "a41727784aafc045", "6d600d60648c9e81"),
    ("two-alphas", "seeded1/2", "NormTooSmall", "3ad22aff0cf18f73", "1cfd9c723c828efa"),
]


@pytest.mark.parametrize("shape, kind, outcome, out_digest, calls_digest", G_SEQUENCE_PINS)
def test_homogenize_G_call_sequence_is_pinned(shape, kind, outcome, out_digest, calls_digest):
    uni, levels, u = _G_SHAPES[shape]
    prof = make_toy_profile({"universe": uni, "levels": levels})
    c = top_creature(prof, 1, u)
    F, r = _g_kind(kind)
    seen = hashlib.sha256()

    def G(nu):
        seen.update(repr(nu).encode() + b"\n")
        return F(nu)

    try:
        out, gp = ml_homogenize(c, 1, prof, G, r)
    except NormTooSmall as exc:
        got, result = "NormTooSmall", f"NormTooSmall: {exc}"
    else:
        got, result = "ok", json.dumps([out.to_json(), [
            [eta.to_json(), v] for eta, v in sorted(gp.items(), key=lambda kv: kv[0].vals)]],
            sort_keys=True)
    assert got == outcome
    assert hashlib.sha256(result.encode()).hexdigest()[:16] == out_digest
    assert seen.hexdigest()[:16] == calls_digest


@pytest.mark.parametrize("uni, levels, u, side", [
    # three slots on one selector, five values each: the first two slots'
    # product (25) is the alpha-side behavior tuple of the third
    (_SHARED_UNI, [_lvl(1, 1), _lvl(2, 5)], {"e0", "a0", "a1", "a2"}, "alpha"),
    # 25 trunks over two selectors: the mu-side tuple is wider than the cap
    (UNI, [_lvl(5, 1), _lvl(2, 3)], {"e0", "e1"}, "mu"),
])
def test_homogenize_refuses_a_behavior_tuple_wider_than_the_cap(uni, levels, u, side):
    prof = make_toy_profile({"universe": uni, "levels": levels})
    with pytest.raises(CapacityExceeded, match=f"^{side}-side behavior tuple too wide$"):
        ml_homogenize(top_creature(prof, 1, u), 1, prof, lambda nu: 0, 1)


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


# input refusals: each raises its own type with its own message


def _with_top(u, f, *args, **profile_fields):
    """f(c, *args, prof) on the top level-1 creature over u."""
    prof = profile(**profile_fields)
    return f(top_creature(prof, 1, u), *args, prof)


def _validate_with_slot(c, prof):
    c.w_alpha[("a0", 0)] = (99,)
    ml_validate(c, prof)


def _merge_in_two_orders(c, prof):
    # the two selectors have one local type in either order, but the two
    # orders list the shared support differently
    return ml_merge(c, c, ["e0", "e1"], ["e1", "e0"], 1, prof)


REFUSALS = {
    "validate-maxsupp": (lambda: _with_top({"e0", "e1", "a0", "a1"}, ml_validate, maxsupp=2),
                         CapacityExceeded, "support 4 exceeds maxsupp 2"),
    "validate-slot": (lambda: _with_top({"e0", "a0"}, _validate_with_slot),
                      DomainMismatch, "unknown slot creature at ('a0', 0)"),
    "val-height": (lambda: _with_top({"e0", "a0"}, ml_val, Possibility.make(0, {"e0", "a0"}, {})),
                   DomainMismatch, "trunk height or domain does not fit the creature"),
    "merge-enumerations": (lambda: _with_top({"e0", "e1"}, _merge_in_two_orders),
                           TypeMismatch, "enumerations must agree on the shared support"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_malformed_inputs_are_refused_by_type_and_message(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
