import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creaturelab.errors import Indeterminate, UsageError
from creaturelab.tower import TowerNat, add, lit, mul, pow_, ref, tower_compare


def test_exact_eval_small():
    e = (lit(2) ** lit(10)) + lit(5) * lit(3)
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


def test_json_roundtrip():
    e = add(pow_(2, pow_(2, 25)), mul(3, 7))
    j = e.to_json()
    back = TowerNat.from_json(j)
    assert back == e
    assert TowerNat.from_json({"lit": 9}) == lit(9)
    r = TowerNat.from_json({"ref": "x"}, env={"x": lit(4)})
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
