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
from fractions import Fraction

from ..errors import UsageError
from ..logreal import LogReal, lr_log2_fraction, lr_log2_int
from .base import AtomicParameter, frac, lr


class SubsetLadderFamily(AtomicParameter):
    """Nonempty subsets of {0..n-1}; nor = f(|val|); succ = subsets."""

    size_monotone_all_subsets = True
    symmetric = True

    def __init__(self, name: str, base_size: int, norms_by_size):
        if base_size < 1 or base_size > 16:
            raise UsageError("subset ladder base size must be in 1..16")
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
        return (
            isinstance(w, tuple)
            and len(w) >= 1
            and tuple(sorted(set(w))) == w
            and all(0 <= p < self.n for p in w)
        )

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

    def max_norm(self):
        return self._norm[self.n]

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
    """{top, s0, s1} on a two-point base; top carries norm m_max <= 1."""

    explicit = True
    symmetric = True

    def __init__(self, m_max):
        self.name = "two-point"
        self.m = lr(m_max)
        if not self.m <= lr(1):
            raise UsageError("two-point family only carries norms at or below 1")
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

    def max_norm(self):
        return self.m

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
        return (
            isinstance(v, tuple)
            and len(v) >= 1
            and tuple(sorted(set(v))) == v
            and all(0 <= p < self.n for p in v)
            and 0 <= e2 < self.E_STEPS
        )

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
            arg = frac(self._floor_log2(size)) - frac(e2) / 2
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

    def max_norm(self):
        return self.nor_key(self.n, 0)

    def half_candidate(self, w, x):
        """Smallest drift bump whose norm stays above nor(w) - x."""
        v, e2 = w
        floor = self.nor(w) - x
        best = None
        for e in range(e2 + 1, self.E_STEPS):
            if self.nor_key(len(v), e) > floor:
                best = (v, e)  # keep bumping while the norm allows
            else:
                break
        return best

    def unhalve_candidate(self, w, h, u):
        """Re-base a successor of the half onto w's drift level."""
        return (u[0], w[1])

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
        raise UsageError("reservoir family is intensional; no id enumeration")

    def has(self, w):
        try:
            kind = w[0]
        except (TypeError, IndexError):
            return False
        if kind == "free":
            s = w[1]
            return (
                isinstance(s, tuple)
                and 2 <= len(s) <= self.S_SIZE
                and tuple(sorted(set(s))) == s
                and all(0 <= p < self.S_SIZE for p in s)
            )
        if kind == "com":
            s, t = w[1], w[2]
            return (
                isinstance(s, int)
                and 0 <= s < self.S_SIZE
                and isinstance(t, tuple)
                and len(t) >= 1
                and tuple(sorted(set(t))) == t
                and all(0 <= p < self.T_SIZE for p in t)
            )
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
        raise UsageError("reservoir successors are not enumerable; use in_succ")

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

    def max_norm(self):
        return lr(self.NOR_S[self.S_SIZE])

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

        Yields (class_key, class_norm, witness_norm) for every class that
        the hereditary check must cover.
        """
        one = lr(1)
        if w[0] == "free":
            t_full = self.T_SIZE
            for s_size in range(2, len(w[1]) + 1):
                class_nor = lr(self.NOR_S[s_size])
                if class_nor >= one:
                    witness = self.rung_norm(-(-t_full // B))
                    yield (("free", s_size), class_nor, witness)
            t_sizes = range(1, t_full + 1)
        else:
            t_sizes = range(1, len(w[2]) + 1)
        for t in t_sizes:
            class_nor = self.rung_norm(t)
            if class_nor >= one:
                witness = self.rung_norm(-(-t // B))
                yield (("com", t), class_nor, witness)

    def bigness_witness(self, w, color, B: int, x):
        """Successor on which `color` (a function on val pairs) is constant,
        with norm above nor(w) - x, for a concrete coloring: the largest
        color class of the first selector, in order, whose class clears
        that floor."""
        floor = self.nor(w) - x
        if w[0] == "free":
            s_points, t_points = w[1], range(self.T_SIZE)
        else:
            s_points, t_points = (w[1],), w[2]
        for s in s_points:
            classes = {}
            for t in t_points:
                classes.setdefault(color(s * self.T_SIZE + t), []).append(t)
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
