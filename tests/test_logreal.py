import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from creaturelab import logreal
from creaturelab.errors import CapacityExceeded, UsageError
from creaturelab.logreal import (
    _POWER_BITS,
    LogReal,
    _factorize,
    _form_sign,
    _interval_sign,
    _is_prime,
    _log2_bracket,
    as_fraction,
    lr,
    lr_cmp_pow2,
    lr_compare,
    lr_from_rational,
    lr_log2_fraction,
    lr_log2_int,
    lr_min,
    lr_minus_log2,
    lr_zero,
)
from creaturelab.serialize import parse_rational

F = Fraction


def test_log2_int_factorization():
    # oracle: 12 = 2^2 * 3, so log2(12) = 2 + log2(3)
    x = lr_log2_int(12)
    assert x.q == 2
    assert x.logs == ((3, F(1)),)
    # oracle: 360 = 2^3 * 3^2 * 5
    y = lr_log2_int(360)
    assert y.q == 3
    assert dict(y.logs) == {3: F(2), 5: F(1)}
    assert lr_log2_int(1) == lr_zero()
    assert lr_log2_int(1024) == lr_from_rational(10)


def test_log2_int_rejects_bad_input():
    with pytest.raises(UsageError):
        lr_log2_int(0)
    with pytest.raises(UsageError):
        lr_log2_int(-8)


def test_canonical_form_drops_zero_coeffs():
    x = lr_log2_int(3) - lr_log2_int(3)
    assert x == lr_zero()
    assert x.logs == ()


def test_symbolic_equality_and_order():
    # oracle: 3^12 = 531441 > 524288 = 2^19, so log2(3) > 19/12
    a = lr_log2_int(3)
    b = lr_from_rational(F(19, 12))
    assert lr_compare(a, b) == 1
    # oracle: 3^7 = 2187 < 2^11 + something; log2(3) < 11/7 since 3^7 < 2^11=2048? no:
    # 3^7 = 2187 > 2048, so log2(3) > 11/7; use 8/5: 3^5 = 243 < 256 = 2^8
    assert lr_compare(a, lr_from_rational(F(8, 5))) == -1
    assert lr_compare(a, a) == 0


def test_arithmetic_identities():
    a = lr_log2_int(6)  # 1 + log2 3
    b = lr_log2_int(10)  # 1 + log2 5
    s = a + b
    assert s == lr_log2_int(60)  # log2 60 = 2 + log2 3 + log2 5
    assert a - a == lr_zero()
    assert a.scale(F(1, 2)) + a.scale(F(1, 2)) == a


def test_log2_fraction():
    x = lr_log2_fraction(F(3, 4))
    assert x.q == -2
    assert dict(x.logs) == {3: F(1)}
    with pytest.raises(UsageError):
        lr_log2_fraction(F(-1, 2))


def test_cmp_pow2_integer_exponent():
    # oracle: log2(3) ~ 1.585 vs 2^1 = 2: 1 + log2 3 vs 2 means compare as values
    z = lr_from_rational(3) + lr_log2_int(3)  # about 4.58
    assert lr_cmp_pow2(z, F(2)) == 1  # 4.58 > 4
    assert lr_cmp_pow2(z, F(3)) == -1  # 4.58 < 8
    assert lr_cmp_pow2(lr_from_rational(4), F(2)) == 0


def test_cmp_pow2_fractional_exponent():
    # oracle: 2^(3/2) = 2.828..., and 1 + log2(3) = 2.584...
    z = lr_from_rational(1) + lr_log2_int(3)
    assert lr_cmp_pow2(z, F(3, 2)) == -1
    assert lr_cmp_pow2(lr_from_rational(3), F(3, 2)) == 1
    # nonpositive z always loses
    assert lr_cmp_pow2(lr_zero(), F(1, 2)) == -1


def test_json_roundtrip():
    x = lr_from_rational(F(-7, 3)) + lr_log2_int(45).scale(F(2, 5))
    j = x.to_json()
    assert set(j) == {"q", "logs"}
    assert LogReal.from_json(j) == x


def test_approx_matches_float_math():
    x = lr_log2_int(45)
    assert math.isclose(x.approx(), math.log2(45), rel_tol=1e-12)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=64)
ints = st.integers(min_value=1, max_value=10_000)


@given(ints, ints)
@settings(max_examples=200, deadline=None)
def test_log_of_product_law(m, n):
    assert lr_log2_int(m * n) == lr_log2_int(m) + lr_log2_int(n)


@given(ints, ints)
@settings(max_examples=200, deadline=None)
def test_order_agrees_with_values(m, n):
    c = lr_compare(lr_log2_int(m), lr_log2_int(n))
    assert c == (m > n) - (m < n)


@given(rationals, rationals)
@settings(max_examples=200, deadline=None)
def test_rational_embedding_is_order_preserving(a, b):
    c = lr_compare(lr_from_rational(a), lr_from_rational(b))
    assert c == (a > b) - (a < b)


@given(rationals, rationals)
@settings(max_examples=200, deadline=None)
def test_rational_compare_agrees_with_fraction_order_and_sign(a, b):
    x, y = lr_from_rational(a), lr_from_rational(b)
    assert lr_compare(x, y) == (a > b) - (a < b) == (x - y).sign()


def test_compare_takes_sign_exactly_when_a_log_is_present(monkeypatch):
    forms = []
    form_sign = logreal._form_sign

    def counting_form_sign(q, terms):
        forms.append((q, dict(terms)))
        return form_sign(q, terms)

    monkeypatch.setattr(logreal, "_form_sign", counting_form_sign)
    assert lr_compare(lr_from_rational(F(3, 2)), lr_from_rational(F(-7, 4))) == 1
    assert forms == []
    log3, log5 = lr_log2_int(3), lr_log2_int(5)
    # a - b over the least common denominator, as the integer form signed
    cases = [
        (lr_from_rational(F(8, 5)), log3, 1, [(8, {3: -5})]),  # 3^5 = 243 < 256 = 2^8
        (log3, lr_from_rational(F(19, 12)), 1, [(-19, {3: 12})]),  # 3^12 = 531441 > 2^19
        (log3, log5, -1, [(0, {3: 1, 5: -1})]),
        # the logs cancel: the rational part decides, no form is signed
        (log3.scale(2), lr_log2_int(9), 0, []),
    ]
    for a, b, want, signed in cases:
        forms.clear()
        assert lr_compare(a, b) == want
        assert forms == signed


@given(ints)
@settings(max_examples=100, deadline=None)
def test_sign_of_difference(n):
    x = lr_log2_int(n + 1) - lr_log2_int(n)
    assert x.sign() == (1 if n >= 1 else 0)


def _trial_factors(n):
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_primality_and_factoring_agree_with_trial_division():
    for n in range(20000):
        want = _trial_factors(n) if n else {}
        assert _is_prime(n) == (n >= 2 and want == {n: 1}), n
        if n:
            assert _factorize(n) == want, n
    # cofactors above the trial limit go through Miller-Rabin
    assert _factorize(3 * (2**61 - 1)) == {3: 1, 2**61 - 1: 1}
    assert _factorize(2**100 * 3) == {2: 100, 3: 1}
    assert _is_prime(2**61 - 1) and not _is_prime((2**31 - 1) ** 2)


def test_log_keys_are_checked_for_primality():
    key = 2**61 - 1
    x = LogReal.from_json({"q": "1/2", "logs": {str(key): "3"}})
    assert x.logs == ((key, F(3)),)
    with pytest.raises(UsageError):
        LogReal.from_json({"q": "0", "logs": {str(key * 3): "1"}})


def test_primality_beyond_the_exact_range_is_refused():
    mersenne = 2**89 - 1  # prime, above 3.3e24
    with pytest.raises(CapacityExceeded):
        LogReal.from_json({"q": "0", "logs": {str(mersenne): "1"}})
    with pytest.raises(CapacityExceeded):
        _is_prime(3317044064679887385961981)
    with pytest.raises(CapacityExceeded):
        lr_log2_int(mersenne)
    with pytest.raises(CapacityExceeded):
        lr_log2_int(1000003 * 1000033)  # composite, no factor below 2^16


# ---------------------------------------------------------------------------
# the integer enclosure of log2(n) and what is read off it
# ---------------------------------------------------------------------------


@given(st.integers(min_value=1, max_value=2**80), st.integers(min_value=0, max_value=8))
@settings(max_examples=300, deadline=None)
def test_log2_bracket_encloses_the_power(n, bits):
    lo, hi = _log2_bracket(n, bits)
    power = n ** (2**bits)
    assert 1 << lo <= power <= 1 << hi
    assert 0 <= hi - lo <= 2
    if n & (n - 1) == 0:
        assert lo == hi


def test_log2_bracket_is_tight_at_working_precision():
    for n in (3, 5, 2**61 - 1, 3**200, 2**1000 + 1):
        for bits in (32, 64, 256):
            lo, hi = _log2_bracket(n, bits)
            assert hi - lo <= 2


def _exact_sign(q, coeffs):
    """Sign of q + sum a_p * log2(p) for integers q, a_p, as the order of
    2**q * prod p**a_p against 1, in integers."""
    num = 2 ** max(q, 0)
    den = 2 ** max(-q, 0)
    for p, a in coeffs.items():
        if a > 0:
            num *= p**a
        else:
            den *= p ** (-a)
    return (num > den) - (num < den)


small = st.integers(min_value=-12, max_value=12)


@given(st.integers(min_value=-60, max_value=60), small, small, small,
       st.integers(min_value=1, max_value=16))
@settings(max_examples=300, deadline=None)
def test_sign_agrees_with_the_exact_integer_comparison(q, a3, a5, a7, den):
    coeffs = {3: a3, 5: a5, 7: a7}
    x = LogReal.make(F(q, den), {p: F(a, den) for p, a in coeffs.items()})
    assert x.sign() == _exact_sign(q, coeffs)


@given(st.integers(min_value=-200, max_value=200),
       st.dictionaries(st.sampled_from([3, 5, 7, 11, 13]), st.integers(-40, 40).filter(bool),
                       min_size=1))
@settings(max_examples=300, deadline=None)
def test_power_and_enclosure_signs_agree_with_the_exact_comparison(q, coeffs):
    terms = sorted(coeffs.items())
    want = _exact_sign(q, coeffs)
    assert _form_sign(q, terms) == _interval_sign(q, terms) == want


def _counting_interval_sign(monkeypatch):
    calls = []

    def counting(q, terms):
        calls.append(q)
        return _interval_sign(q, terms)

    monkeypatch.setattr(logreal, "_interval_sign", counting)
    return calls


def test_forms_at_and_just_above_the_power_bound_agree(monkeypatch):
    # 2**7242 < 3**4514 * 5**38 < 2**7243, and 7242 + 4514 * 2 + 38 * 3 bits
    # is the bound itself
    terms = [(3, 4514), (5, 38)]
    neg = [(p, -a) for p, a in terms]
    assert 7242 + sum(a * p.bit_length() for p, a in terms) == _POWER_BITS
    calls = _counting_interval_sign(monkeypatch)
    for q, t, want, fallback in ((-7242, terms, 1, False), (7242, neg, -1, False),
                                 (-7243, terms, -1, True), (7243, neg, 1, True)):
        calls.clear()
        assert _form_sign(q, t) == want == _exact_sign(q, dict(t)) == _interval_sign(q, t)
        assert calls == ([q] if fallback else [])


def test_signs_far_above_the_power_bound_form_no_power(monkeypatch):
    import time

    calls = _counting_interval_sign(monkeypatch)
    start = time.perf_counter()
    # 10**15 * (log2 3 - log2 5) + 1/7 < 0; its powers would hold ~5e15 bits
    x = LogReal.make(F(1, 7), {3: 10**15, 5: -10**15})
    assert x.sign() == -1
    assert lr_compare(LogReal.make(F(1, 7), {3: 10**15}), LogReal.make(0, {5: 10**15})) == -1
    assert x.scale(-1).sign() == 1
    assert time.perf_counter() - start < 1.0
    assert len(calls) == 3


@given(st.fractions(min_value=F(1, 50), max_value=1000, max_denominator=50),
       st.integers(min_value=-40, max_value=40), st.integers(min_value=2, max_value=9))
@settings(max_examples=300, deadline=None)
def test_fractional_cmp_pow2_agrees_with_exact_powers(q, n, d):
    e = F(n, d)
    # z**d against 2**n for a rational z = q; d may reduce with n
    want = (q ** e.denominator > F(2) ** e.numerator) - (q ** e.denominator < F(2) ** e.numerator)
    assert lr_cmp_pow2(lr_from_rational(q), e) == want


def test_fractional_cmp_pow2_with_logs_and_large_denominators():
    log3 = lr_log2_int(3)
    # log2(3) = 1.58496... against 2**(2/3) = 1.58740...: 1.58496**3 < 3.9816 < 4
    assert lr_cmp_pow2(log3, F(2, 3)) == -1
    # against 2**(1/2) = 1.41421...: 1.58496**2 > 2.5 > 2
    assert lr_cmp_pow2(log3, F(1, 2)) == 1
    # a billion-th root needs no billionth power: 3 > 2**(1/10**9) > 1 > 2**(-1/10**9)
    assert lr_cmp_pow2(lr_from_rational(3), F(1, 10**9)) == 1
    assert lr_cmp_pow2(lr_from_rational(F(1, 3)), F(-1, 10**9)) == -1


@given(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6))
@settings(max_examples=200, deadline=None)
def test_approx_of_a_rational_is_its_correctly_rounded_float(q):
    assert lr_from_rational(q).approx() == float(q)


def test_approx_rounds_ties_and_logs_correctly():
    tie = F(2**53 + 1, 2**53)  # halfway between 1 and the next float
    assert lr_from_rational(tie).approx() == float(tie) == 1.0
    for x in (lr_log2_int(45), lr_log2_int(3).scale(F(-7, 3)) + F(1, 5)):
        f = x.approx()
        # the value lies within half an ulp of f, checked by exact compares
        half = F(math.ulp(f)) / 2
        assert lr_compare(x, lr_from_rational(F(f) - half)) > 0
        assert lr_compare(x, lr_from_rational(F(f) + half)) < 0


@given(st.fractions(min_value=F(1, 10**6), max_value=10**6, max_denominator=10**6),
       st.integers(min_value=-64, max_value=64))
@settings(max_examples=300, deadline=None)
def test_integer_cmp_pow2_of_a_rational_agrees_with_the_exact_power(q, e):
    want = (q > F(2) ** e) - (q < F(2) ** e)
    assert lr_cmp_pow2(lr_from_rational(q), F(e)) == want
    # at the power itself and one step either side of it
    p = F(2) ** e
    assert lr_cmp_pow2(lr_from_rational(p), F(e)) == 0
    assert lr_cmp_pow2(lr_from_rational(p + F(1, 10**30)), F(e)) == 1
    assert lr_cmp_pow2(lr_from_rational(p - F(1, 10**30)), F(e)) == -1


@given(st.integers(min_value=-8, max_value=8), st.integers(min_value=-4, max_value=4),
       st.integers(min_value=1, max_value=8), st.integers(min_value=-16, max_value=16))
@settings(max_examples=200, deadline=None)
def test_integer_cmp_pow2_with_a_log_agrees_with_the_exact_power(q, a, den, e):
    z = LogReal.make(F(q, den), {3: F(a, den)})
    assume(not z.is_rational() and z.sign() > 0)
    want = lr_compare(z, lr_from_rational(F(2) ** e))
    assert lr_cmp_pow2(z, F(e)) == want


def test_integer_cmp_pow2_with_a_huge_exponent_forms_no_power():
    import time

    start = time.perf_counter()
    for z in (lr_from_rational(F(3, 2)), lr_from_rational(10**40), lr_log2_int(3),
              lr_log2_int(3).scale(F(1, 7)) + F(1, 5)):
        assert lr_cmp_pow2(z, F(10**15)) == -1
        assert lr_cmp_pow2(z, F(-10**15)) == 1
    assert time.perf_counter() - start < 1.0


# canonical arithmetic: + and - merge the sorted log tuples directly; the
# reference goes through LogReal.make, the validating entry point

coeffs = st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(2), F(-3, 4)])


@st.composite
def logreals(draw):
    """LogReals by make: about a third rational, key 2 folded into q."""
    q = draw(st.fractions(min_value=-8, max_value=8, max_denominator=8))
    if draw(st.integers(0, 2)) == 0:
        return LogReal.make(q)
    return LogReal.make(q, {p: draw(coeffs) for p in draw(st.sets(st.sampled_from([2, 3, 5, 7])))})


def _reference(a, b, sign):
    logs = dict(a.logs)
    for p, c in b.logs:
        logs[p] = logs.get(p, F(0)) + sign * c
    return LogReal.make(a.q + sign * b.q, logs)


def _canonical(x):
    keys = [p for p, _ in x.logs]
    return (type(x.q) is F and keys == sorted(set(keys)) and 2 not in keys
            and all(type(c) is F and c != 0 for _, c in x.logs))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(logreals(), logreals(), st.booleans())
def test_canonical_sum_and_difference_equal_the_make_reference(a, b, cancel):
    if cancel:  # b's log part cancels a's exactly
        b = LogReal.make(b.q, {p: -c for p, c in a.logs})
    for got, want in ((a + b, _reference(a, b, 1)), (a - b, _reference(a, b, -1)),
                      (b - a, _reference(b, a, -1)), (a - a, lr_zero()),
                      (lr_from_rational(3) - a, _reference(lr_from_rational(3), a, -1)),
                      (a + F(1, 3), _reference(a, lr_from_rational(F(1, 3)), 1))):
        assert (got.q, got.logs) == (want.q, want.logs) and _canonical(got)
    diff = _reference(a, b, -1)
    want = (diff.q > 0) - (diff.q < 0) if diff.is_rational() else diff.sign()
    # compare builds the integer form of a - b itself; sign reads a - b
    assert lr_compare(a, b) == want == (a - b).sign() == -lr_compare(b, a)


def test_bools_are_not_rationals():
    for bad in (True, False):
        with pytest.raises(UsageError):
            as_fraction(bad)
        with pytest.raises(UsageError):
            parse_rational(bad)
        with pytest.raises(UsageError):
            lr_log2_int(bad)
    assert as_fraction(1) == parse_rational(1) == 1 and lr_log2_int(1) == lr_zero()


# the stored integer form: den * x = num + sum a * log2(p); the q and logs
# views, and every path that builds a value, agree with the Fraction
# reference above


def _typed_views(x):
    """q is a Fraction and logs a tuple of (int, Fraction) pairs."""
    return (type(x.q) is F and type(x.logs) is tuple
            and all(type(t) is tuple and type(t[0]) is int and type(t[1]) is F for t in x.logs))


def _stored_form(x):
    """The integers behind the views are the canonical form: den > 0, primes
    ascending without 2, no zero coefficient, gcd(den, num, every a) = 1."""
    den, num, terms = x._form
    keys = [p for p, _ in terms]
    return (den > 0 and keys == sorted(set(keys)) and 2 not in keys
            and all(type(a) is int and a for _, a in terms)
            and math.gcd(den, num, *(a for _, a in terms)) == 1
            and (x.q, x.logs) == (F(num, den), tuple((p, F(a, den)) for p, a in terms)))


scalars = st.one_of(st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=9),
                    st.sampled_from(["0", "-0", "1", "-1", "-3/4", "5/2", "6/4", "7"]))


def _scale_reference(x, r):
    r = F(r)
    return LogReal.make(x.q * r, {p: c * r for p, c in x.logs})


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(logreals(), scalars)
def test_scale_by_an_int_a_fraction_or_a_string_equals_the_make_reference(x, r):
    got, want = x.scale(r), _scale_reference(x, r)
    assert (got.q, got.logs) == (want.q, want.logs) and _canonical(got)
    assert got == want and hash(got) == hash(want)
    assert _typed_views(got) and _stored_form(got)
    if F(r) == 0:
        assert got == lr_zero() and got.logs == ()


def test_scale_refuses_what_is_not_a_rational():
    for bad in (True, 1.5, "x", None):
        with pytest.raises(UsageError):
            lr_log2_int(3).scale(bad)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(logreals(), logreals())
def test_equal_values_are_equal_and_hash_alike_on_every_path(a, b):
    s = a + b
    paths = [
        _reference(a, b, 1),
        LogReal.make(s.q, dict(s.logs)),
        LogReal(s.q, s.logs),
        LogReal.from_json(s.to_json()),
        pickle.loads(pickle.dumps(s)),
        copy.copy(s),
        copy.deepcopy(s),
        (s - b) + b,
        s.scale(3).scale(F(1, 3)),
        s - lr_zero(),
    ]
    hash(paths[4])  # a hash read before the copies are made is not carried into them
    for x in paths + [pickle.loads(pickle.dumps(paths[4])), copy.copy(paths[4])]:
        assert x == s and s == x and not x != s
        assert hash(x) == hash(s) == hash((x.q, x.logs))
        assert repr(x) == repr(s) and x.to_json() == s.to_json()
        assert _typed_views(x) and _stored_form(x)
    assert len({s, *paths}) == 1


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(logreals(), logreals(), st.booleans(), st.integers(-6, 6), st.integers(1, 5))
def test_cmp_pow2_on_forms_built_by_arithmetic(a, b, subtract, n, d):
    z = a - b if subtract else a + b
    assume(z.sign() > 0)
    e = F(n, d)
    if e.denominator == 1:  # exact: the sign of z - 2**e
        want = lr_compare(z, lr_from_rational(F(2) ** e.numerator))
    else:  # 2**e is irrational; floats decide where they are far apart
        f, g = z.approx(), 2.0 ** (n / d)
        assume(abs(f - g) > 1e-9 * g)
        want = (f > g) - (f < g)
    assert lr_cmp_pow2(z, e) == want
    assert lr_cmp_pow2(_reference(a, b, -1 if subtract else 1), e) == want


def test_every_constructor_gives_fraction_views_over_a_canonical_form():
    x = lr_log2_int(360).scale(F(-2, 9)) + F(5, 6)
    values = [
        lr(3), lr(F(-3, 4)), lr("7/2"), lr(x), lr_zero(), lr_from_rational("-5/10"),
        lr_log2_int(1), lr_log2_int(720), lr_log2_fraction(F(9, 40)),
        LogReal.make(F(1, 2), {2: F(1, 2), 3: 0, 5: "-2/6"}), LogReal(F(3, 2), ((3, F(1, 2)),)),
        LogReal.from_json({"q": "4/6", "logs": {"3": "2/4", "7": "0"}}),
        x, x + x, x - x, x.scale(0), x.scale(-3), x + 1, x - F(5, 6),
    ]
    for v in values:
        assert _typed_views(v) and _stored_form(v), v
    assert lr(x) is x
    assert x - x == lr_zero() and (x - x)._form == (1, 0, ())


def test_a_logreal_payload_with_an_unread_key_is_refused():
    """A misspelled "logs" was read as absent, dropping the log term."""
    with pytest.raises(UsageError, match="unknown key 'lgos'"):
        LogReal.from_json({"q": "5", "lgos": {"3": "1"}})
    assert LogReal.from_json({"q": "5"}) == lr_from_rational(5)


# repr, JSON and hash read the stored integer form; the Fraction views q and
# logs, as they were read before, are the reference

_P = 2**61 - 1  # sys.hash_info.modulus on 64-bit builds: a denominator hashing to inf


def _repr_reference(x):
    parts = [str(x.q)] if (x.q or not x.logs) else []
    parts += [f"{c}*log2({p})" for p, c in x.logs]
    return "LogReal(" + " + ".join(parts) + ")"


def _json_reference(x):
    return {"q": f"{x.q.numerator}/{x.q.denominator}",
            "logs": {str(p): f"{c.numerator}/{c.denominator}" for p, c in x.logs}}


wide = st.one_of(st.fractions(min_value=-(10**30), max_value=10**30, max_denominator=10**20),
                 st.sampled_from([F(0), F(-1), F(1), F(-1, 3), F(1, _P), F(-5, 2 * _P), F(_P)]))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(wide, st.dictionaries(st.sampled_from([2, 3, 5, 7, 11]), wide, max_size=4),
       st.sampled_from(["both", "rational", "logs"]))
def test_repr_json_and_hash_of_the_form_equal_the_fraction_view_reference(q, logs, shape):
    x = LogReal.make(0 if shape == "logs" else q, {} if shape == "rational" else logs)
    assert repr(x) == _repr_reference(x)
    assert x.to_json() == _json_reference(x)
    assert hash(x) == hash((x.q, x.logs)) == hash(LogReal(x.q, x.logs))
    assert LogReal.from_json(x.to_json()) == x


def test_hash_keeps_the_numeric_hash_corner_cases():
    """-1 hashes as -2, and a denominator that the hash modulus divides as
    +-inf, in the coefficients as in q."""
    for q, logs in [(F(-1), {}), (F(-1), {3: F(-1)}), (F(1, _P), {}), (F(-2, _P), {5: F(3, _P)}),
                    (F(0), {3: F(_P - 1)}), (F(_P + 1, 7), {})]:
        x = LogReal.make(q, logs)
        assert hash(x) == hash((x.q, x.logs)), (q, logs)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(logreals(), st.fractions(min_value=-8, max_value=8, max_denominator=6),
       st.fractions(min_value=-8, max_value=8, max_denominator=6))
def test_compare_of_equal_log_parts_agrees_with_the_merge_path(x, r, s):
    a, b = x + r, x + s  # one log part; equal denominators where r and s allow
    assert a.logs == b.logs
    want = (a - b).sign()  # the merge of a and -b, signed
    assert lr_compare(a, b) == want == -lr_compare(b, a) == (r > s) - (r < s)
    assert lr_compare(a, a) == 0 == lr_compare(a, LogReal(a.q, a.logs))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(logreals(), min_size=1, max_size=6))
def test_least_of_forms_is_the_builtin_min(xs):
    assert lr_min(xs) is min(xs)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(logreals(), st.integers(1, 70), logreals())
def test_minus_log2_equals_the_chain_of_differences(x, n, y):
    got, want = lr_minus_log2(x, n, y), x - lr_log2_int(n) - y
    assert got == want and got._form == want._form and _stored_form(got)
    with pytest.raises(UsageError):
        lr_minus_log2(x, 0, y)
