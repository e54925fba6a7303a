import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creaturelab.errors import UsageError
from creaturelab.logreal import (
    LogReal,
    lr_cmp_pow2,
    lr_compare,
    lr_from_rational,
    lr_log2_fraction,
    lr_log2_int,
    lr_zero,
)

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
    assert lr_log2_int(1).is_zero()
    assert lr_log2_int(1024) == lr_from_rational(10)


def test_log2_int_rejects_bad_input():
    with pytest.raises(UsageError):
        lr_log2_int(0)
    with pytest.raises(UsageError):
        lr_log2_int(-8)


def test_canonical_form_drops_zero_coeffs():
    x = lr_log2_int(3) - lr_log2_int(3)
    assert x.is_zero()
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
    assert (a - a).is_zero()
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
    signs = []
    sign = LogReal.sign

    def counting_sign(self):
        signs.append(self)
        return sign(self)

    monkeypatch.setattr(LogReal, "sign", counting_sign)
    assert lr_compare(lr_from_rational(F(3, 2)), lr_from_rational(F(-7, 4))) == 1
    assert signs == []
    log3, log5 = lr_log2_int(3), lr_log2_int(5)
    cases = [
        (lr_from_rational(F(8, 5)), log3, 1),  # 3^5 = 243 < 256 = 2^8
        (log3, lr_from_rational(F(19, 12)), 1),  # 3^12 = 531441 > 2^19
        (log3, log5, -1),
        (log3.scale(2), lr_log2_int(9), 0),
    ]
    for a, b, want in cases:
        signs.clear()
        assert lr_compare(a, b) == want
        assert signs == [a - b]


@given(ints)
@settings(max_examples=100, deadline=None)
def test_sign_of_difference(n):
    x = lr_log2_int(n + 1) - lr_log2_int(n)
    assert x.sign() == (1 if n >= 1 else 0)
