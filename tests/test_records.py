"""The value classes: constructor, repr, ==, hash and immutability.

Reprs reach command output (LogReal in `atomic homogenize` reports,
Possibility in `ml check` diagnostics), and equality and hashing decide
dictionary keys and successor checks, so each is pinned here.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from creaturelab.atomic import PropertyCertificate, ScaleBudget
from creaturelab.conditions import FiniteCondition, NameTable
from creaturelab.errors import UsageError
from creaturelab.logreal import LogReal, lr_log2_int, lr_zero
from creaturelab.mlcore import MlCreature, Possibility
from creaturelab.params import ParamRow, _LevelSpec
from creaturelab.tower import TowerNat, add, lit, ref


def _frozen(obj, name):
    with pytest.raises(AttributeError):
        setattr(obj, name, getattr(obj, name))
    with pytest.raises(AttributeError):
        delattr(obj, name)


def test_logreal():
    a = LogReal(Fraction(3, 2), ((3, Fraction(1, 2)),))
    assert repr(a) == "LogReal(3/2 + 1/2*log2(3))"
    assert repr(LogReal(Fraction(0))) == "LogReal(0)"
    assert repr(lr_log2_int(12)) == "LogReal(2 + 1*log2(3))"
    b = LogReal(q=Fraction(3, 2), logs=((3, Fraction(1, 2)),))
    assert a == b and hash(a) == hash(b) == hash((a.q, a.logs))
    assert LogReal(Fraction(1)).logs == ()
    assert a != LogReal(Fraction(3, 2)) and a != (a.q, a.logs)
    _frozen(a, "q")


def test_tower_nat():
    x = TowerNat("lit", n=3)
    assert repr(x) == "3" and repr(add(lit(2), ref("k"))) == "(2 + @k)"
    assert x == TowerNat(op="lit", args=(), n=3, name="")
    # == and hash read the four fields
    r1, r2 = ref("k"), TowerNat("ref", name="k")
    assert r1 == r2 and hash(r1) == hash(r2) == hash(("ref", (), 0, "k"))
    assert r1 != ref("j")
    assert TowerNat("add", (x, x)) != TowerNat("mul", (x, x))
    with pytest.raises(UsageError):
        TowerNat("lit", n=0)
    _frozen(x, "n")


def test_possibility():
    nu = Possibility.make(1, {"e0", "a0"}, {(0, "e0"): 1, (0, "a0"): 0})
    assert repr(nu) == "Possibility(n=1, cols=('a0', 'e0'), vals=(0, 1))"
    same = Possibility((1, ("a0", "e0"), (0, 1)))
    # == and hash are the tuple's
    assert nu == same and hash(nu) == hash(same) == hash((1, ("a0", "e0"), (0, 1)))
    assert nu != Possibility((1, nu.cols, (1, 1)))
    _frozen(nu, "vals")


def test_scale_budget():
    assert repr(ScaleBudget()) == "ScaleBudget(max_base_size=65536, max_creature_count=1048576)"
    b = ScaleBudget(4, max_creature_count=8)
    assert repr(b) == "ScaleBudget(max_base_size=4, max_creature_count=8)"
    assert b == ScaleBudget(max_base_size=4, max_creature_count=8)
    assert hash(b) == hash((4, 8)) and b != ScaleBudget(4)
    _frozen(b, "max_base_size")


def test_ml_creature():
    c = MlCreature(1, frozenset({"e0"}), {"e0": (0, 1)}, {})
    assert repr(c) == ("MlCreature(n=1, u=frozenset({'e0'}), w_eps={'e0': (0, 1)}, "
                       "w_alpha={}, d=LogReal(0))")
    assert c.d == lr_zero()
    k = MlCreature(n=1, u=frozenset({"e0"}), w_eps={"e0": (0, 1)}, w_alpha={}, d=lr_zero())
    assert c == k and c != MlCreature(1, c.u, {"e0": (1,)}, {})
    c.d = lr_log2_int(3)
    assert c != k
    with pytest.raises(TypeError):
        hash(c)


def test_property_certificate():
    assert repr(PropertyCertificate("valid")) == (
        "PropertyCertificate(kind='valid', params={}, verdict=False, witness=None, "
        "counterexample=None, param_hash='', mode='')")
    full = PropertyCertificate("halving", {"x": Fraction(1, 2)}, True, ((0, 1), 0), None,
                               "abc", "class-reps")
    assert repr(full) == (
        "PropertyCertificate(kind='halving', params={'x': Fraction(1, 2)}, verdict=True, "
        "witness=((0, 1), 0), counterexample=None, param_hash='abc', mode='class-reps')")
    assert full == PropertyCertificate(kind="halving", params={"x": Fraction(1, 2)},
                                       verdict=True, witness=((0, 1), 0),
                                       param_hash="abc", mode="class-reps")
    a, b = PropertyCertificate("valid"), PropertyCertificate("valid")
    assert a.params is not b.params  # a fresh dict per instance
    a.verdict = True
    assert a != b
    with pytest.raises(TypeError):
        hash(a)


def test_finite_condition_and_name_table():
    p = FiniteCondition(0, 2, {(0, "e0"): 1}, {})
    assert repr(p) == ("FiniteCondition(trnklg=0, height=2, trunk={(0, 'e0'): 1}, "
                       "creatures={}, floors={})")
    assert p == FiniteCondition(trnklg=0, height=2, trunk={(0, "e0"): 1}, creatures={})
    assert p.floors is not FiniteCondition(0, 2, {}, {}).floors
    p.floors = {1: Fraction(2)}
    assert p != FiniteCondition(0, 2, {(0, "e0"): 1}, {})
    nu = Possibility.make(1, {"e0"}, {(0, "e0"): 1})
    r = NameTable({1: 1}, {1: {nu: 3}}, {1: 4})
    assert repr(r) == ("NameTable(modulus={1: 1}, values={1: {Possibility(n=1, cols=('e0',), "
                       "vals=(1,)): 3}}, bound={1: 4})")
    assert r == NameTable(modulus={1: 1}, values={1: {nu: 3}}, bound={1: 4})
    assert r != NameTable({1: 1}, {1: {nu: 2}}, {1: 4})
    for obj in (p, r):
        with pytest.raises(TypeError):
            hash(obj)


def test_param_row_and_level_spec():
    row = ParamRow(0, {"a": lit(2)}, {"a": "formula-exact"})
    assert repr(row) == ("ParamRow(n=0, fields={'a': 2}, provenance={'a': 'formula-exact'}, "
                         "f_list=[], g_list=[])")
    assert row == ParamRow(n=0, fields={"a": lit(2)}, provenance={"a": "formula-exact"},
                           f_list=[], g_list=[])
    assert row.f_list is not ParamRow(0, {}, {}).f_list
    spec = _LevelSpec(2, [3, 3], 9, 2, 16, 32, 8)
    assert repr(spec) == ("_LevelSpec(kstar=2, slot_sizes=[3, 3], height=9, maxposs=2, "
                          "maxsupp=16, gmin=32, bmin=8)")
    assert spec == _LevelSpec(kstar=2, slot_sizes=[3, 3], height=9, maxposs=2, maxsupp=16,
                              gmin=32, bmin=8)
    assert spec != _LevelSpec(2, [3, 3], 9, 2, 16, 32, 9)
    for obj in (row, spec):
        with pytest.raises(TypeError):
            hash(obj)


def test_frozen_values_copy_and_pickle():
    values = [LogReal(Fraction(3, 2), ((3, Fraction(1, 2)),)), add(lit(2), ref("k")),
              ScaleBudget(4), Possibility.make(1, {"e0"}, {(0, "e0"): 1})]
    for x in values:
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and repr(y) == repr(x)
    assert copy.copy(values[1]).args is values[1].args and copy.copy(values[3]).u == values[3].u
