"""Tests for decisive ordering, product homogenization, and separation."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creaturelab.atomic import (
    ExplicitAtomicParameter,
    ReservoirFamily,
    SubsetLadderFamily,
    decisive_order,
    disjoint_successors,
    homogenize_product,
    subset_log_family,
    toy_witness_pair,
)
from creaturelab.errors import CapacityExceeded, NotDecisive
from creaturelab.logreal import lr_from_rational

LR = lr_from_rational


def seeded_function(seed, range_size=2):
    """Deterministic pseudo-random function on creature-point tuples."""

    def F(pt):
        digest = hashlib.sha256(f"{seed}:{pt}".encode()).digest()
        return digest[0] % range_size

    return F


def test_decisive_order_picks_the_cheap_coordinate_first():
    ps, ws = toy_witness_pair()
    order, new_ws = decisive_order(ps, ws, Fraction(1, 4))
    assert order == [0, 1]  # the 8-point ladder commits to 3 points
    assert ps[0].val_size(new_ws[0]) == 3
    # the lead coordinate actually shrank; the other stayed big
    assert ps[0].in_succ(new_ws[0], ws[0])
    assert ps[1].in_succ(new_ws[1], ws[1])
    for p, w0, w1 in zip(ps, ws, new_ws):
        assert p.nor(w1) >= p.nor(w0) - LR(Fraction(1, 4))


def test_decisive_order_needs_hereditary_bigness():
    p = subset_log_family(8)
    w = tuple(range(8))
    # the second coordinate must survive a 2^7-way split, but splitting the
    # log family into singletons kills the norm outright
    with pytest.raises(NotDecisive):
        decisive_order([p, p], [w, w], Fraction(1, 4))


def test_homogenize_constant_function():
    ps, ws = toy_witness_pair()
    cur, value, report = homogenize_product(ps, ws, lambda pt: 1, 2)
    assert value == 1


def test_homogenize_range_capacity():
    ps, ws = toy_witness_pair()
    with pytest.raises(CapacityExceeded):
        homogenize_product(ps, ws, lambda pt: 0, 5)  # 5 > 2^2


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_homogenize_seeded_functions(seed):
    ps, ws = toy_witness_pair()
    F = seeded_function(seed)
    cur, value, report = homogenize_product(ps, ws, F, 2)
    # constancy on the full final product
    import itertools

    grids = [sorted(p.val(w)) for p, w in zip(ps, cur)]
    assert all(F(pt) == value for pt in itertools.product(*grids))
    # each coordinate lost at most half a norm unit, exactly accounted
    for p, w0, w1, row in zip(ps, ws, cur, report):
        assert p.in_succ(w1, w0)
        assert row["loss"] == p.nor(w0) - p.nor(w1)
        assert row["loss"] <= LR(Fraction(1, 2))


def test_disjoint_successors_shapes():
    p = subset_log_family(8)
    # generic overlap
    v1, v2 = disjoint_successors(p, (0, 1, 2, 3, 4, 5), (3, 4, 5, 6, 7), 1)
    assert p.val(v1).isdisjoint(p.val(v2))
    assert p.nor(v1) >= p.nor((0, 1, 2, 3, 4, 5)) - LR(1)
    assert p.nor(v2) >= p.nor((3, 4, 5, 6, 7)) - LR(1)
    # already disjoint: untouched
    assert disjoint_successors(p, (0, 1), (6, 7), Fraction(1, 2)) == ((0, 1), (6, 7))
    # w2 is a single point inside w1: w1 steps around it
    v1, v2 = disjoint_successors(p, (0, 1, 2, 3), (3,), 1)
    assert p.val(v1).isdisjoint(p.val(v2))
    assert v2 == (3,)


def test_disjoint_successors_falls_back_to_the_probe_and_re_shrinks_it():
    # W1 = {0, 1, 2} and W2 = {2}, x = 2.  The probe (the one successor of
    # two points above nor(W1) - 1) is P = {1, 2}; the best successor inside
    # the points outside W2 is S1 = {1}, too weak, so v1 falls back to P.
    # P still shares 2 and W2 has nothing outside it, so P is shrunk around
    # 2 to S1, which keeps nor(W1) - x.
    q = lr_from_rational
    vals = {"W1": {0, 1, 2}, "P": {1, 2}, "A": {0, 1}, "S0": {0}, "S1": {1}, "W2": {2}}
    nors = {"W1": q(4), "P": q(Fraction(7, 2)), "A": q(2), "S0": q(1),
            "S1": q(Fraction(5, 2)), "W2": q(4)}
    succs = {"W1": set(vals) - {"W2"}, "P": {"P", "S1"}, "A": {"A", "S0", "S1"},
             "S0": {"S0"}, "S1": {"S1"}, "W2": {"W2"}}
    calls = []

    class Spy(ExplicitAtomicParameter):
        def best_successor_within(self, w, allowed):
            calls.append((w, set(allowed)))
            return super().best_successor_within(w, allowed)

    p = Spy("fallbacks", {0, 1, 2}, vals, nors, succs)
    assert disjoint_successors(p, "W1", "W2", 2) == ("S1", "W2")
    assert calls == [("W1", {0, 1}), ("W2", {2}), ("P", {1})]


def test_disjoint_successors_refuses_impossible_budgets():
    p = subset_log_family(8)
    with pytest.raises(NotDecisive):
        # identical creatures, budget too small to give up half the points
        disjoint_successors(p, (0, 1), (0, 1), Fraction(1, 4))


def _bitmap_function(seed):
    """A seeded 0/1 function on the criterion-6 product, counting its calls."""
    width = 1 << 16  # reservoir points are s * 16384 + t < 2^16
    bits = random.Random(seed).randbytes(width)  # one bit per point of 8 x 2^16
    calls = [0]

    def F(point):
        calls[0] += 1
        i = point[0] * width + point[1]
        return bits[i >> 3] >> (i & 7) & 1

    return F, calls


# (seed, first 16 hex digits of sha256(repr((ws, value, report))), F calls)
HOMOGENIZE_PINS = [
    (7, "16c34d8f9f49e469", 53382),
    (11, "32f80b772e0ece71", 55447),
    (2024, "12ece341ddf8b2dc", 55495),
]


@pytest.mark.parametrize("seed, digest, calls", HOMOGENIZE_PINS)
def test_homogenize_output_and_F_calls_are_pinned(seed, digest, calls):
    ps, ws = toy_witness_pair()
    F, counter = _bitmap_function(seed)
    out = homogenize_product(ps, ws, F, 2)
    assert hashlib.sha256(repr(out).encode()).hexdigest()[:16] == digest
    assert counter[0] == calls


def _recorded(F):
    """F, and a sha256 fed repr(point) of every point F receives, in order."""
    seen = hashlib.sha256()

    def G(point):
        seen.update(repr(point).encode() + b"\n")
        return F(point)

    return G, seen


def _stateful_function(seed):
    """Criterion 6's F: a random bit per unordered point, drawn on first
    access, so the table depends on the order of F's calls."""
    rng = random.Random(seed)
    table = {}

    def F(point):
        key = tuple(sorted(map(repr, point)))
        if key not in table:
            table[key] = rng.randint(0, 1)
        return table[key]

    return F


def _f_sequence_case(case):
    """(params, ws, F) for one F-sequence pin."""
    ps, ws = toy_witness_pair()
    if case.startswith("bitmap-"):
        return ps, ws, _bitmap_function(int(case[7:]))[0]
    if case == "stateful":
        return ps, ws, _stateful_function(7)
    F = _bitmap_function(7)[0]
    if case == "swapped":  # [reservoir, selector]: slot 1 is eliminated last
        return ps[::-1], ws[::-1], lambda point: F(point[::-1])
    # one reservoir coordinate: the coloring has width 1 and no held slot
    r = ReservoirFamily()
    return [r], [r.top()], lambda point: F((0,) + point)


# (case, first 16 hex digits of sha256(repr(output)), of the F sequence)
F_SEQUENCE_PINS = [
    ("bitmap-7", "16c34d8f9f49e469", "111cf1a529304e01"),
    ("bitmap-11", "32f80b772e0ece71", "6c994bfdd5320045"),
    ("bitmap-2024", "12ece341ddf8b2dc", "206700129d5432f0"),
    ("stateful", "7e4ef78befcd53d7", "b65ecfd54f68701b"),
    ("swapped", "75864f6ca2ad1f4b", "8c1011a10b65bd8d"),
    ("one-coordinate", "15e56141e6e20ad8", "62ba0763262375d9"),
]


@pytest.mark.parametrize("case, out_digest, calls_digest", F_SEQUENCE_PINS)
def test_homogenize_F_call_sequence_is_pinned(case, out_digest, calls_digest):
    ps, ws, F = _f_sequence_case(case)
    G, seen = _recorded(F)
    out = homogenize_product(ps, ws, G, 2)
    assert hashlib.sha256(repr(out).encode()).hexdigest()[:16] == out_digest
    assert seen.hexdigest()[:16] == calls_digest


class _FlatLadder(SubsetLadderFamily):
    """Subsets of a small base, all of norm 2, whose small successor keeps
    the first k points: bigness holds for every B, and k sets the place of
    the coordinate in the decisive order."""

    def __init__(self, n, k):
        super().__init__(f"flat-{n}", n, {size: 2 for size in range(1, n + 1)})
        self.k = k

    def small_successor(self, w, x):
        return w[: self.k]


def _pointwise_calls(params, ws, F, x):
    """The points homogenize_product hands F, built one at a time: each
    elimination step colors the points of its coordinate, in order, by F
    over the product of the cheaper coordinates (each eliminated coordinate
    held at its least value), keeps the first class of highest norm, and
    the replay then walks the final product."""
    calls = []

    def G(point):
        calls.append(point)
        return F(point)

    order, cur = decisive_order(params, ws, x)
    reps = [None] * len(params)
    for pos in reversed(range(len(params))):
        j, earlier = order[pos], order[:pos]
        p = params[j]
        grids = [sorted(params[i].val(cur[i])) for i in earlier]
        classes = {}
        for a in sorted(p.val(cur[j])):
            color = []
            for combo in itertools.product(*grids):
                point = list(reps)
                for i, value in zip(earlier, combo):
                    point[i] = value
                point[j] = a
                color.append(G(tuple(point)))
            classes.setdefault(tuple(color), []).append(a)
        best = None
        for cls in classes.values():
            v = p.best_successor_within(cur[j], frozenset(cls))
            if best is None or p.nor(v) > p.nor(best):
                best = v
        cur[j] = best
        reps[j] = min(p.val(best))
    grids = [sorted(p.val(w)) for p, w in zip(params, cur)]
    G(tuple(g[0] for g in grids))
    for point in itertools.product(*grids):
        G(point)
    return cur, calls


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_homogenize_three_coordinates_matches_pointwise_reference(seed):
    ps = [_FlatLadder(4, 3), _FlatLadder(3, 2), _FlatLadder(5, 4)]
    ws = [p.top() for p in ps]
    x = Fraction(1, 6)
    assert decisive_order(ps, ws, x)[0] == [1, 0, 2]
    F = seeded_function(seed, range_size=3)
    calls = []

    def G(point):
        calls.append(point)
        return F(point)

    cur, value, report = homogenize_product(ps, ws, G, 3)
    ref_cur, ref_calls = _pointwise_calls(ps, ws, F, x)
    assert cur == ref_cur
    assert calls == ref_calls
    grids = [sorted(p.val(w)) for p, w in zip(ps, cur)]
    assert {F(pt) for pt in itertools.product(*grids)} == {value}
