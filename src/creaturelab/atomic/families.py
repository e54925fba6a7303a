"""Concrete creature families used throughout the test bench.

Four shapes cover everything the checkers and transforms need:

- SubsetLadderFamily: creatures are the nonempty subsets of a small base,
  the norm is a monotone function of the subset size, successors are the
  nonempty subsets.  Covers the plain log-norm family, capped ladders, and
  flat plateau families.
- HalvingPairFamily: pairs (v, e) of a subset and a drift level; raising e
  lowers the norm, which is what makes an honest halving search possible.
- ReservoirFamily: two-phase creatures over a small "selector" side S and a
  large "reservoir" side T.  While S has at least two points the norm reads
  off |S|; committing to a single selector switches the norm to a rung
  ladder over |T|.  Constructed so that pigeonhole class sizes under a
  B-coloring always land on a rung within 1/4 of the current norm.
- TrivialTwoPointFamily: a three-creature family whose only non-singleton
  creature carries the requested maximal norm below or at 1.
"""

from __future__ import annotations

import itertools
import json
from collections import defaultdict
from fractions import Fraction
from operator import lt

from ..errors import CapacityExceeded, UsageError
from ..logreal import LogReal, lr, lr_log2_fraction, lr_log2_int
from .base import LADDER_LIMIT, AtomicParameter


def _is_point_set(v, n) -> bool:
    """Is v a nonempty strictly increasing tuple of points in range(n)?  Ids
    of any other shape or type answer False; a point's type must be int
    itself, so a bool is no point.  The type test runs first, so the
    comparisons never meet a non-int; strictly increasing puts every point
    between the two ends."""
    return (
        isinstance(v, tuple)
        and len(v) >= 1
        and set(map(type, v)) == {int}
        and 0 <= v[0]
        and v[-1] < n
        and all(map(lt, v, v[1:]))
    )


class SubsetLadderFamily(AtomicParameter):
    """Nonempty subsets of {0..n-1}; nor = f(|val|); succ = subsets."""

    size_monotone_all_subsets = True
    symmetric = True

    def __init__(self, name: str, base_size: int, norms_by_size):
        if not 1 <= base_size <= LADDER_LIMIT:
            raise UsageError(f"subset ladder base size must be in 1..{LADDER_LIMIT}")
        if not callable(norms_by_size):
            missing = [k for k in range(1, base_size + 1) if k not in norms_by_size]
            if missing:
                raise UsageError(f"{name}: norms_by_size lacks sizes {missing}")
        self.name = name
        self.n = base_size
        self._norm = {}
        prev = None
        for k in range(1, base_size + 1):
            v = lr(norms_by_size(k) if callable(norms_by_size) else norms_by_size[k])
            if prev is not None and v < prev:
                raise UsageError(f"{name}: norm not monotone at size {k}")
            self._norm[k] = v
            prev = v

    def base(self):
        return frozenset(range(self.n))

    def ids(self):
        pts = range(self.n)
        for k in range(1, self.n + 1):
            for c in itertools.combinations(pts, k):
                yield c

    def has(self, w):
        return _is_point_set(w, self.n)

    def val(self, w):
        return frozenset(w)

    def val_size(self, w):
        return len(w)

    def nor(self, w):
        return self._norm[len(w)]

    def norm_of_size(self, k):
        return self._norm[k]

    def succ_ids(self, w):
        for k in range(1, len(w) + 1):
            yield from itertools.combinations(w, k)

    def in_succ(self, v, w):
        return self.has(v) and set(v) <= set(w)

    def best_successor_within(self, w, allowed):
        inter = tuple(sorted(set(w) & set(allowed)))
        return inter if inter else None

    def class_key(self, w):
        return len(w)

    def class_reps(self):
        return [tuple(range(k)) for k in range(1, self.n + 1)]

    def succ_class_reps(self, w):
        return [w[:k] for k in range(1, len(w) + 1)]

    def small_successor(self, w, x):
        floor = self.nor(w) - x
        for k in range(1, len(w) + 1):
            if self._norm[k] > floor:
                return w[:k]
        return None

    def top(self):
        return tuple(range(self.n))

    def describe(self):
        return json.dumps(
            {
                "kind": "subset-ladder",
                "n": self.n,
                "norms": {k: self._norm[k].to_json() for k in self._norm},
            },
            sort_keys=True,
        )


def subset_log_family(base_size: int, name: str = "subset-log") -> SubsetLadderFamily:
    """Norm = log2 of the value-set size."""
    return SubsetLadderFamily(name, base_size, lambda k: lr_log2_int(k))


def capped_ladder(m_max, base_size: int = 8, name: str = "capped-ladder") -> SubsetLadderFamily:
    """Singletons at 15/16, pairs at 1, then 1/2 + log2(k)/2 capped at m_max."""
    m_max = lr(m_max)

    def f(k):
        if k == 1:
            return lr(Fraction(15, 16))
        if k == 2:
            return lr(1)
        v = lr(Fraction(1, 2)) + lr_log2_int(k).scale(Fraction(1, 2))
        return v if v < m_max else m_max

    return SubsetLadderFamily(name, base_size, f)


def plateau_family(height, base_size: int, name: str = "plateau") -> SubsetLadderFamily:
    """Constant norm for every value set of size >= 2; singletons below 1.

    Shrinking never costs norm as long as two points survive, which keeps
    multi-level constructions loss-free on the component side.
    """
    h = lr(height)
    return SubsetLadderFamily(name, base_size, lambda k: lr(Fraction(15, 16)) if k == 1 else h)


class TrivialTwoPointFamily(AtomicParameter):
    """{top, s0, s1} on a two-point base; top carries norm 0 <= m_max <= 1."""

    explicit = True
    symmetric = True

    def __init__(self, m_max):
        self.name = "two-point"
        self.m = lr(m_max)
        if not self.m <= lr(1):
            raise UsageError("two-point family only carries norms at or below 1")
        if self.m.sign() < 0:
            raise UsageError("two-point family norms must be nonnegative")
        self._small = self.m.scale(Fraction(15, 16))

    def base(self):
        return frozenset({0, 1})

    def ids(self):
        return ["top", "s0", "s1"]

    def has(self, w):
        return w in ("top", "s0", "s1")

    def val(self, w):
        return frozenset({0, 1}) if w == "top" else frozenset({int(w[1])})

    def nor(self, w):
        return self.m if w == "top" else self._small

    def succ_ids(self, w):
        return iter(["top", "s0", "s1"]) if w == "top" else iter([w])

    def in_succ(self, v, w):
        return v == w or w == "top"

    def describe(self):
        return json.dumps({"kind": "two-point", "m": self.m.to_json()})


class HalvingPairFamily(AtomicParameter):
    """Pairs (v, e): v a nonempty subset of {0..n-1}, e a half-integer drift
    in [0, 4].  nor = log2(floor(log2 |v|) - e), clipped to 0 when the
    argument is at most 1.  Successors shrink v or raise e.

    The drift coordinate gives every high-norm creature an honest half:
    bump e, and any strong successor of the half can be re-based to drift
    e(w) without touching its value set.

    Creature ids are (tuple(sorted(v)), 2*e).
    """

    symmetric = True

    E_STEPS = 9  # e in {0, 1/2, ..., 4}

    def __init__(self, base_size: int = 16, name: str = "halving-pairs"):
        if not 1 <= base_size <= LADDER_LIMIT:
            raise UsageError(f"halving-pair base size must be in 1..{LADDER_LIMIT}")
        self.name = name
        self.n = base_size
        self._nor_memo = {}  # (size, e2) -> norm; n * E_STEPS keys over the creatures

    def base(self):
        return frozenset(range(self.n))

    def ids(self):
        pts = range(self.n)
        for k in range(1, self.n + 1):
            for c in itertools.combinations(pts, k):
                for e2 in range(self.E_STEPS):
                    yield (c, e2)

    def has(self, w):
        try:
            v, e2 = w
        except (TypeError, ValueError):
            return False
        return _is_point_set(v, self.n) and type(e2) is int and 0 <= e2 < self.E_STEPS

    def val(self, w):
        return frozenset(w[0])

    def val_size(self, w):
        return len(w[0])

    @staticmethod
    def _floor_log2(k: int) -> int:
        return k.bit_length() - 1

    def nor_key(self, size: int, e2: int) -> LogReal:
        key = (size, e2)
        hit = self._nor_memo.get(key)
        if hit is None:
            arg = Fraction(2 * self._floor_log2(size) - e2, 2)
            hit = self._nor_memo[key] = lr(0) if arg <= 1 else lr_log2_fraction(arg)
        return hit

    def nor(self, w):
        v, e2 = w
        return self.nor_key(len(v), e2)

    def succ_ids(self, w):
        v, e2 = w
        for k in range(1, len(v) + 1):
            for c in itertools.combinations(v, k):
                for e in range(e2, self.E_STEPS):
                    yield (c, e)

    def in_succ(self, u, w):
        return self.has(u) and set(u[0]) <= set(w[0]) and u[1] >= w[1]

    def best_successor_within(self, w, allowed):
        inter = tuple(sorted(set(w[0]) & set(allowed)))
        if not inter:
            return None
        return (inter, w[1])

    def class_key(self, w):
        return (len(w[0]), w[1])

    def class_reps(self):
        for k in range(1, self.n + 1):
            for e2 in range(self.E_STEPS):
                yield (tuple(range(k)), e2)

    def succ_class_reps(self, w):
        v, e2 = w
        for k in range(1, len(v) + 1):
            for e in range(e2, self.E_STEPS):
                yield (v[:k], e)

    def describe(self):
        return json.dumps({"kind": "halving-pairs", "n": self.n})


class ReservoirFamily(AtomicParameter):
    """Two-phase creatures (S, T) over a 4-point selector base and a large
    reservoir.  val = S x T.  Free phase (|S| >= 2, T untouched): nor reads
    |S|.  Committed phase (|S| = 1): nor is a rung ladder over |T| whose
    thresholds fall by a factor of 8, so any coloring into at most 8 colors
    has a class landing at most one rung down (a loss below 1/4).

    Ids: ("free", s_tuple) with the full reservoir, or ("com", s, t_tuple).
    """

    symmetric = False  # selector and reservoir points are interchangeable
    # separately, which the class hooks below encode directly.

    S_SIZE = 4
    T_SIZE = 16384
    # (threshold, norm): norm applies to reservoir sizes >= threshold
    RUNGS = [
        (16384, Fraction(65, 32)),
        (2048, Fraction(58, 32)),
        (256, Fraction(51, 32)),
        (32, Fraction(44, 32)),
        (2, Fraction(37, 32)),
        (1, Fraction(15, 16)),
    ]
    NOR_S = {2: Fraction(60, 32), 3: Fraction(60, 32), 4: Fraction(65, 32)}

    def __init__(self, name: str = "reservoir"):
        self.name = name

    def base(self):
        # pairs encoded as s * T_SIZE + t
        return frozenset(range(self.S_SIZE * self.T_SIZE))

    def ids(self):
        raise CapacityExceeded("reservoir family is intensional; its creatures are not enumerable")

    def has(self, w):
        if not isinstance(w, tuple) or not w:
            return False
        if w[0] == "free" and len(w) == 2:
            return _is_point_set(w[1], self.S_SIZE) and len(w[1]) >= 2
        if w[0] == "com" and len(w) == 3:
            s, t = w[1], w[2]
            return type(s) is int and 0 <= s < self.S_SIZE and _is_point_set(t, self.T_SIZE)
        return False

    def _pairs(self, s_points, t_points):
        return frozenset(s * self.T_SIZE + t for s in s_points for t in t_points)

    def val(self, w):
        if w[0] == "free":
            return self._pairs(w[1], range(self.T_SIZE))
        return self._pairs((w[1],), w[2])

    def val_size(self, w):
        if w[0] == "free":
            return len(w[1]) * self.T_SIZE
        return len(w[2])

    def rung_norm(self, t_size: int) -> LogReal:
        for threshold, norm in self.RUNGS:
            if t_size >= threshold:
                return lr(norm)
        raise UsageError("empty reservoir")

    def nor(self, w):
        if w[0] == "free":
            return lr(self.NOR_S[len(w[1])])
        return self.rung_norm(len(w[2]))

    def succ_ids(self, w):
        raise CapacityExceeded("reservoir successors are not enumerable; use in_succ")

    def in_succ(self, v, w):
        if not (self.has(v) and self.has(w)):
            return False
        if w[0] == "free":
            if v[0] == "free":
                return set(v[1]) <= set(w[1]) and self.nor(v) <= self.nor(w)
            return v[1] in w[1] and self.nor(v) <= self.nor(w)
        return (
            v[0] == "com"
            and v[1] == w[1]
            and set(v[2]) <= set(w[2])
            and self.nor(v) <= self.nor(w)
        )

    def class_key(self, w):
        if w[0] == "free":
            return ("free", len(w[1]))
        return ("com", len(w[2]))

    def top(self):
        return ("free", tuple(range(self.S_SIZE)))

    # -- hooks consumed by the checkers and transforms -------------------------

    def small_successor(self, w, x):
        floor = self.nor(w) - x
        if w[0] == "com":
            ts = w[2]
        else:
            ts = tuple(range(self.T_SIZE))
        s = w[1][0] if w[0] == "free" else w[1]
        for threshold, norm in reversed(self.RUNGS):
            if lr(norm) > floor and threshold <= len(ts) and lr(norm) <= self.nor(w):
                return ("com", s, ts[:threshold])
        return None

    def hereditary_bigness_classes(self, w, B: int, x):
        """Per successor class with norm >= 1: the guaranteed witness norm
        under any coloring into at most B colors, via pigeonhole on the
        reservoir (committing the selector first when still free).

        Yields (class_key, class_norm, witness_norm): every free class, then
        one committed class per breakpoint segment, by increasing reservoir
        size, and w's own class among them.  Over the sizes t, class_norm =
        rung_norm(t) moves only at a rung threshold thr, and witness_norm =
        rung_norm(ceil(t / B)) only where ceil(t / B) reaches a threshold,
        at t = B * (thr - 1) + 1.  Between consecutive segment starts (1,
        every thr and every B * (thr - 1) + 1) both norms are constant, and
        so is whether the class fails.  The first failing size is therefore
        a segment start, and a checker that stops at the first failure
        reports the same class as a walk over every size.  w's own class is
        yielded so that a lookup by class_key finds a committed w of any
        size.
        """
        one = lr(1)
        starts = {1}
        if w[0] == "free":
            top = self.T_SIZE
            for s_size in range(2, len(w[1]) + 1):
                class_nor = lr(self.NOR_S[s_size])
                if class_nor >= one:
                    witness = self.rung_norm(-(-top // B))
                    yield (("free", s_size), class_nor, witness)
        else:
            top = len(w[2])
            starts.add(top)
        for threshold, _ in self.RUNGS:
            starts.update((threshold, B * (threshold - 1) + 1))
        for t in sorted(t for t in starts if t <= top):
            class_nor = self.rung_norm(t)
            if class_nor >= one:
                witness = self.rung_norm(-(-t // B))
                yield (("com", t), class_nor, witness)

    def bigness_witness(self, w, colors, x):
        """Successor on which a concrete coloring is constant, with norm
        above nor(w) - x: the largest color class of the first selector, in
        order, whose class clears that floor.

        `colors(points)` yields the color of each val pair s * T_SIZE + t,
        in order (see `ops._constant_witness`); each selector's points are
        colored in one stream, in increasing t."""
        floor = self.nor(w) - x
        if w[0] == "free":
            s_points, t_points = w[1], range(self.T_SIZE)
        else:
            s_points, t_points = (w[1],), w[2]
        for s in s_points:
            classes = defaultdict(list)
            for t, c in zip(t_points, colors(map((s * self.T_SIZE).__add__, t_points))):
                classes[c].append(t)
            cand = ("com", s, tuple(max(classes.values(), key=len)))
            if floor < self.nor(cand) <= self.nor(w):
                return cand
        return None

    def describe(self):
        return json.dumps(
            {
                "kind": "reservoir",
                "s": self.S_SIZE,
                "t": self.T_SIZE,
                "rungs": [[t, str(n)] for t, n in self.RUNGS],
                "nor_s": {k: str(v) for k, v in self.NOR_S.items()},
            },
            sort_keys=True,
        )


def toy_witness_pair():
    """A selector-ladder parameter and a reservoir parameter with their top
    creatures, both above norm 2: the standard two-coordinate input for the
    product homogenizer."""
    small = SubsetLadderFamily(
        "selector-ladder",
        8,
        {
            1: Fraction(15, 16),
            2: Fraction(53, 32),
            3: Fraction(60, 32),
            4: Fraction(60, 32),
            5: Fraction(62, 32),
            6: Fraction(62, 32),
            7: Fraction(62, 32),
            8: Fraction(65, 32),
        },
    )
    big = ReservoirFamily()
    return [small, big], [small.top(), big.top()]
