import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creaturelab.errors import Indeterminate, UsageError
from creaturelab.tower import add, lit, mul, pow_, ref, tower_compare


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
    # 2^(2^30) is past the bit budget, so even the far smaller 10^300 is
    # not ordered against it: exact or refuse
    a = pow_(2, pow_(2, 30))
    b = pow_(10, 300)
    with pytest.raises(Indeterminate, match="within the bit budget$"):
        tower_compare(a, b)
    with pytest.raises(Indeterminate):
        tower_compare(b, a)


def test_a_literal_past_the_bit_budget_is_bounded_from_its_own_integer():
    # 2^(2^21) has 2^21 + 1 bits, read off its own integer: past the budget,
    # so eval_exact gives None and every comparison with another tree refuses
    big = lit(1 << (1 << 21))
    assert big.bits_upper() == (1 << 21) + 1
    assert big.eval_exact() is None
    for other in (lit(3), pow_(2, (1 << 21) - 1), pow_(2, (1 << 21) + 1)):
        with pytest.raises(Indeterminate):
            tower_compare(big, other)
        with pytest.raises(Indeterminate):
            tower_compare(other, big)


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
    with pytest.raises(Indeterminate):
        tower_compare(a, b)


def test_structural_equality_shortcut():
    a = pow_(2, pow_(2, pow_(2, pow_(2, 64))))
    b = pow_(2, pow_(2, pow_(2, pow_(2, 64))))
    assert tower_compare(a, b) == 0


def test_equal_refs_are_not_compared():
    # two refs of one name are equal trees, but a ref is unbound, so
    # comparing them refuses as evaluating them does, not with 0
    big = pow_(2, pow_(2, 30))
    a, b = ref("x"), ref("x")
    assert a == b and hash(a) == hash(b) and a.has_ref() and not big.has_ref()
    with pytest.raises(Indeterminate):
        tower_compare(big, add(big, 1))
    with pytest.raises(UsageError, match="unbound reference 'x'"):
        tower_compare(a, b)
    with pytest.raises(UsageError, match="unbound reference 'x'"):
        tower_compare(add(big, a), add(big, b))


def test_indeterminate_on_close_giants():
    a = pow_(2, pow_(2, pow_(2, 40)))
    b = mul(2, pow_(2, pow_(2, pow_(2, 40))))
    with pytest.raises(Indeterminate):
        tower_compare(a, b)


def test_an_unbound_ref_is_refused():
    with pytest.raises(UsageError, match="^unbound reference 'k'$"):
        ref("k").eval_exact()
    for e in (mul(ref("base"), 2), pow_(2, ref("base")), pow_(ref("base"), 2)):
        with pytest.raises(UsageError, match="^unbound reference 'base'$"):
            e.eval_exact()


def test_literals_must_be_positive():
    with pytest.raises(UsageError):
        lit(0)


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


@pytest.mark.parametrize("j", [2, 3, 5, 8, 16, 31, 53, 60, 64, 100, 1000])
def test_brackets_near_powers_of_two(j):
    # 2**j - 1 < 2**j < 2**j + 1 are ordered exactly, however each is
    # written, and 2**j is equal to itself as a literal and as a power
    near = [lit(2**j - 1), pow_(2, j), add(pow_(2, j), 1)]
    for a, x in enumerate(near):
        for b, y in enumerate(near):
            assert tower_compare(x, y) == (a > b) - (a < b)
    assert tower_compare(lit(2**j), pow_(2, j)) == 0
    assert tower_compare(mul(pow_(2, j - 1), 2), pow_(2, j)) == 0


def test_log_of_a_power_of_a_power_adds_the_logs():
    # log2 log2 (X**Y) = log2(Y) + log2 log2 X = 2**30 + 2**30 exceeds the
    # 2**30 + 100 of the right side, but both sides are past the bit budget,
    # so the comparison is refused, not decided by bounds on the logs
    x = pow_(2, pow_(2, pow_(2, 30)))
    y = pow_(2, pow_(2, 30))
    right = pow_(2, pow_(2, add(pow_(2, 30), 100)))
    with pytest.raises(Indeterminate):
        tower_compare(pow_(x, y), right)
    with pytest.raises(Indeterminate):
        tower_compare(right, pow_(x, y))


def test_a_power_of_one_is_not_bounded_below_by_its_exponent():
    # 1**huge + 5 = 6 < 100, but the exponent is past the bit budget, so
    # the bit bound is infinite and the comparison is refused, never greater
    small = add(pow_(1, pow_(2, pow_(2, 25))), 5)
    with pytest.raises(Indeterminate):
        tower_compare(small, lit(100))

