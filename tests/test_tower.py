import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creaturelab.errors import Indeterminate, UsageError
from creaturelab.tower import TowerNat, add, lit, mul, pow_, ref, tower_compare


def test_exact_eval_small():
    e = add(pow_(lit(2), lit(10)), mul(lit(5), lit(3)))
    assert e.eval_exact() == 1024 + 15


def test_exact_eval_budget():
    # 2^(2^10) has 1025 bits, well within budget
    e = pow_(2, pow_(2, 10))
    v = e.eval_exact()
    assert v == 2 ** (2**10)
    # 2^(2^25) exceeds the bit budget and must not materialize
    big = pow_(2, pow_(2, 25))
    assert big.eval_exact() is None


def test_compare_exact_values():
    assert tower_compare(lit(7), lit(7)) == 0
    assert tower_compare(lit(8), lit(7)) == 1
    assert tower_compare(pow_(2, 100), pow_(10, 30)) == 1  # 2^100 > 10^30


def test_compare_beyond_budget():
    # oracle: 2^(2^30) vastly exceeds 10^300; decided via log bounds
    a = pow_(2, pow_(2, 30))
    b = pow_(10, 300)
    assert tower_compare(a, b) == 1
    assert tower_compare(b, a) == -1


def test_a_literal_past_the_bit_budget_is_bounded_from_its_own_integer():
    # 2^(2^21) has 2^21 + 1 bits, past the budget, so eval_exact gives None;
    # the literal's log bounds read its own integer
    big = lit(1 << (1 << 21))
    assert big.eval_exact() is None
    assert tower_compare(big, lit(3)) == 1
    assert tower_compare(lit(3), big) == -1
    assert tower_compare(big, pow_(2, (1 << 21) - 1)) == 1
    assert tower_compare(big, pow_(2, (1 << 21) + 1)) == -1


def test_a_literal_past_the_digit_limit_prints_by_bit_length():
    # str of an int stops at 4,300 digits, so the Indeterminate message for
    # two equal values past the budget names the literal by its bit length
    big = lit(1 << (1 << 21))
    assert repr(big) == "<2097153-bit literal>" and repr(lit(1 << 4095)) == str(1 << 4095)
    message = r"^cannot order <2097153-bit literal> and \(2 \*\* 2097152\)"
    with pytest.raises(Indeterminate, match=message):
        tower_compare(big, pow_(2, 1 << 21))


def test_compare_towers():
    # 2^(2^(2^10)) vs 3^(3^100): left is a tower of height 3, right of height 2
    a = pow_(2, pow_(2, pow_(2, 10)))
    b = pow_(3, pow_(3, 100))
    assert tower_compare(a, b) == 1


def test_structural_equality_shortcut():
    a = pow_(2, pow_(2, pow_(2, pow_(2, 64))))
    b = pow_(2, pow_(2, pow_(2, pow_(2, 64))))
    assert tower_compare(a, b) == 0


def test_equal_refs_bound_to_different_values_are_not_equal():
    big = pow_(2, pow_(2, 30))
    a = ref("x", {"x": big})
    b = ref("x", {"x": add(big, 1)})
    assert a == b and a.has_ref() and not big.has_ref()
    with pytest.raises(Indeterminate):
        tower_compare(big, add(big, 1))
    with pytest.raises(Indeterminate):
        tower_compare(a, b)


def test_indeterminate_on_close_giants():
    a = pow_(2, pow_(2, pow_(2, 40)))
    b = mul(2, pow_(2, pow_(2, pow_(2, 40))))
    with pytest.raises(Indeterminate):
        tower_compare(a, b)


def test_refs_resolve_through_env():
    env = {}
    env["base"] = pow_(2, 16)
    e = mul(ref("base", env), 2)
    assert e.eval_exact() == 2**17
    with pytest.raises(UsageError):
        ref("missing", env).eval_exact()


def test_literals_must_be_positive():
    with pytest.raises(UsageError):
        lit(0)


def test_a_ref_evaluates_to_its_binding():
    r = ref("x", {"x": lit(4)})
    assert r.eval_exact() == 4


small = st.integers(min_value=1, max_value=50)


@st.composite
def towers(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return lit(draw(small))
    op = draw(st.sampled_from(["add", "mul", "pow"]))
    a = draw(towers(depth=depth + 1))
    b = draw(towers(depth=depth + 1))
    if op == "add":
        return add(a, b)
    if op == "mul":
        return mul(a, b)
    return pow_(a, lit(draw(st.integers(min_value=1, max_value=6))))


@given(towers(), towers())
@settings(max_examples=150, deadline=None)
def test_compare_agrees_with_exact_eval_when_available(x, y):
    vx, vy = x.eval_exact(), y.eval_exact()
    if vx is None or vy is None:
        return
    assert tower_compare(x, y) == (vx > vy) - (vx < vy)


@given(towers())
@settings(max_examples=100, deadline=None)
def test_log_bounds_bracket_true_value(e):
    v = e.eval_exact()
    if v is None or v < 4:
        return
    import math

    lo, hi = e.log_bounds(1)
    assert lo <= math.log2(v) + 1e-9
    assert math.log2(v) <= hi + 1e-9


def test_depth_zero_bound_of_an_evaluable_value_is_the_value():
    for v in (2**60 + 1, 2**60, 2**1000 - 1, 3**700, 1):
        assert lit(v).log_bounds(0) == (v, v)
    assert pow_(2, 60).log_bounds(0) == (2**60, 2**60)


def _decimal_log2(x, prec=80):
    with localcontext() as ctx:
        ctx.prec = prec
        return Decimal(x).ln() / Decimal(2).ln()


@pytest.mark.parametrize("j", [2, 3, 5, 8, 16, 31, 53, 60, 64, 100, 1000])
def test_brackets_near_powers_of_two(j):
    near = [2**j - 1, 2**j, 2**j + 1]
    assert all(lit(v).log_bounds(0) == (v, v) for v in near)
    b1 = [lit(v).log_bounds(1) for v in near]
    b2 = [lit(v).log_bounds(2) for v in near]
    # depth 1: exact at the power, inside (j - 1, j + 1) around it, and
    # ordered; disjoint while the gap, about 1.44 * 2**-j, exceeds the
    # bracket width of a few 2**-64
    assert b1[1] == (j, j)
    assert j - 1 < b1[0][0] <= b1[0][1] <= j <= b1[2][0] <= b1[2][1] < j + 1
    if j <= 56:
        assert b1[0][1] < j < b1[2][0]
    # depth 2 of 2**j is log2(j): exact when j is a power of two
    if j & (j - 1) == 0:
        assert b2[1] == (j.bit_length() - 1,) * 2
    # every bracket holds the value, by an 80-digit reference whose own
    # error is far below the 2**-60 width of the bracket
    slack = Fraction(1, 10**60)
    for v, (lo1, hi1), (lo2, hi2) in zip(near, b1, b2):
        l1 = Fraction(_decimal_log2(v))
        l2 = Fraction(_decimal_log2(_decimal_log2(v)))
        assert lo1 - slack <= l1 <= hi1 + slack and hi1 - lo1 < Fraction(1, 2**60)
        assert lo2 - slack <= l2 <= hi2 + slack and hi2 - lo2 < Fraction(1, 2**58)


def test_log_of_a_power_of_a_power_adds_the_logs():
    # log2 log2 (X**Y) = log2(Y) + log2 log2 X = 2**30 + 2**30 exceeds the
    # 2**30 + 100 of the right side; a max-plus-one bound said the opposite
    x = pow_(2, pow_(2, pow_(2, 30)))
    y = pow_(2, pow_(2, 30))
    right = pow_(2, pow_(2, add(pow_(2, 30), 100)))
    assert tower_compare(pow_(x, y), right) == 1
    assert tower_compare(right, pow_(x, y)) == -1


def test_a_power_of_one_is_not_bounded_below_by_its_exponent():
    # 1**huge + 5 = 6 < 100: the bounds may refuse, but never say greater
    small = add(pow_(1, pow_(2, pow_(2, 25))), 5)
    try:
        assert tower_compare(small, lit(100)) == -1
    except Indeterminate:
        pass


@st.composite
def wide_towers(draw, depth=0):
    """Trees with n-ary sums and products and bases of 1."""
    if depth >= 3 or draw(st.booleans()):
        return lit(draw(st.sampled_from([1, 2, 3, 4, 5, 7, 16, 50, 1000, 2**20 + 1])))
    op = draw(st.sampled_from(["add", "mul", "pow"]))
    if op == "pow":
        return pow_(draw(wide_towers(depth=depth + 1)), lit(draw(st.integers(1, 6))))
    parts = [draw(wide_towers(depth=depth + 1)) for _ in range(draw(st.integers(2, 4)))]
    return add(*parts) if op == "add" else mul(*parts)


@given(wide_towers())
@settings(max_examples=300, deadline=None)
def test_structural_bounds_contain_the_iterated_logs(e):
    if e.bits_upper() > 4000:
        return
    v = e.eval_exact()
    with pytest.MonkeyPatch.context() as mp:
        # only literals evaluate, so every inner node takes its structural rule
        mp.setattr(TowerNat, "eval_exact", lambda self: self.n if self.op == "lit" else None)
        bounds = [e.log_bounds(k) for k in range(5)]
    assert bounds[0][0] <= v <= bounds[0][1]

    def dec(b):
        return Decimal(Fraction(b).numerator) / Fraction(b).denominator

    with localcontext() as ctx:
        ctx.prec = 120
        x, eps = Decimal(v), Decimal(10) ** -60
        for lo, hi in bounds[1:]:
            if x <= 0:
                break
            x = x.ln() / Decimal(2).ln()
            assert lo == -math.inf or dec(lo) <= x + eps
            assert hi == math.inf or x - eps <= dec(hi)
