"""Base classes for atomic creature systems.

An atomic parameter bundles a finite base set with an indexed family of
creatures.  Each creature owns a nonempty value set (a subset of the base),
a nonnegative norm, and a set of admissible strengthenings ("successors").
Families may be explicit (everything tabulated) or intensional (membership
and successor enumeration given by code).  Intensional families declare
structural hooks that the checkers are allowed to rely on; a checker that
needs a hook the family does not provide fails loudly instead of sampling.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Iterator

from ..errors import CapacityExceeded, UsageError
from ..logreal import LogReal

# Explicit tabulation is refused above this creature count.
EXPLICIT_LIMIT = 1 << 16
# Largest base of a subset-ladder or halving-pair family (2^16 value sets).
LADDER_LIMIT = 16
# Largest exponent of a behavior-tuple coloring (atomic and multi-level).
TUPLE_CAP = 24
# Largest trunk or possibility set an enumeration materializes.
ENUM_CAP = 1 << 20


def id_to_json(v):
    """Creature ids are nested tuples of scalars; JSON stores tuples as arrays."""
    return [id_to_json(x) for x in v] if isinstance(v, tuple) else v


def id_from_json(v):
    return tuple(id_from_json(x) for x in v) if isinstance(v, list) else v


def unique_dict(pairs, what="key"):
    """dict(pairs), refusing a key listed twice (ValueError): a document
    that repeats a key is malformed, not read last-wins."""
    pairs = list(pairs)
    out = dict(pairs)
    if len(out) != len(pairs):
        seen = set()
        for k, _ in pairs:
            if k in seen:
                raise ValueError(f"{what} {k!r} is listed twice")
            seen.add(k)
    return out


class AtomicParameter:
    """Interface shared by explicit tables and intensional families."""

    name: str = "atomic"
    # Structural declarations checkers may rely on.
    explicit: bool = False
    # All nonempty value-subsets are creatures and the norm depends only on
    # the value-set size, monotonically.  Licenses the analytic bigness mode.
    size_monotone_all_subsets: bool = False
    # Permutations of the base set act as automorphisms, so verdicts only
    # depend on the class key.  Licenses class-representative iteration,
    # and on intensional families the size-class walk of exhaustive
    # bigness: a block's best successor norm depends only on its size.
    # The checkers walk `class_reps` and `succ_class_reps` for every family;
    # only a symmetric family may override them.  Contract:
    # `succ_class_reps(w)` yields one successor of w per class; for every w
    # and every successor h of w, the successors of h in one class form a
    # single orbit of the base permutations that fix val(w) and val(h) (for
    # h = w: those that fix val(w)); and nor, val, in_succ and
    # best_successor_within commute with those permutations.
    # SubsetLadderFamily and HalvingPairFamily satisfy it; families that
    # keep the default reps (all ids and successor ids, as
    # TrivialTwoPointFamily does) satisfy it trivially.
    symmetric: bool = False

    def base(self) -> frozenset:
        raise NotImplementedError

    def ids(self) -> Iterable:
        raise NotImplementedError

    def has(self, w) -> bool:
        raise NotImplementedError

    def val(self, w) -> frozenset:
        raise NotImplementedError

    def val_size(self, w) -> int:
        return len(self.val(w))

    def nor(self, w) -> LogReal:
        raise NotImplementedError

    def succ_ids(self, w) -> Iterator:
        """All successors of w, including w itself."""
        raise NotImplementedError

    def in_succ(self, v, w) -> bool:
        return any(v == u for u in self.succ_ids(w))

    # -- optional structure hooks ---------------------------------------------

    def norm_of_size(self, k: int) -> LogReal:
        raise UsageError(f"{self.name}: norm is not a pure function of size")

    def best_successor_within(self, w, allowed: frozenset):
        """Max-norm successor of w whose values lie inside `allowed`,
        or None.  Default: linear scan."""
        best = None
        best_nor = None
        for v in self.succ_ids(w):
            if not self.val(v) <= allowed:
                continue
            nv = self.nor(v)
            if best is None or nv > best_nor:
                best, best_nor = v, nv
        return best

    def class_key(self, w):
        """Key identifying w up to base-set automorphism (only meaningful
        when `symmetric` is set)."""
        return w

    def class_reps(self) -> Iterable:
        """One creature per automorphism class."""
        return self.ids()

    def succ_class_reps(self, w) -> Iterable:
        """One successor of w per automorphism class of successors."""
        return self.succ_ids(w)

    def top(self):
        """The first maximal-norm creature among the class representatives."""
        best = best_nor = None
        for w in self.class_reps():
            n = self.nor(w)
            if best is None or n > best_nor:
                best, best_nor = w, n
        if best is None:
            raise UsageError(f"{self.name}: empty creature set")
        return best

    def max_norm(self) -> LogReal:
        return self.nor(self.top())

    def small_successor(self, w, x: LogReal):
        """Successor of minimal value-set size with nor > nor(w) - x,
        or None."""
        floor = self.nor(w) - x
        best = None
        best_size = None
        for v in self.succ_ids(w):
            if self.nor(v) > floor:
                sz = self.val_size(v)
                if best is None or sz < best_size:
                    best, best_size = v, sz
        return best

    # -- identity ---------------------------------------------------------------

    def describe(self) -> str:
        raise NotImplementedError

    def param_hash(self) -> str:
        """sha256 of describe(), computed once per instance: a parameter
        does not change after it is built."""
        h = vars(self).get("_param_hash")
        if h is None:
            h = self._param_hash = hashlib.sha256(self.describe().encode()).hexdigest()[:16]
        return h


class ExplicitAtomicParameter(AtomicParameter):
    """Fully tabulated parameter: creature id -> (val, nor, succ set)."""

    explicit = True

    def __init__(self, name, base, vals, nors, succs):
        if len(vals) > EXPLICIT_LIMIT:
            raise CapacityExceeded(
                f"{len(vals)} creatures exceed the explicit limit {EXPLICIT_LIMIT}"
            )
        self.name = name
        self._base = frozenset(base)
        self._vals = {w: frozenset(v) for w, v in vals.items()}
        self._nors = dict(nors)
        self._succs = {w: frozenset(s) for w, s in succs.items()}

    def base(self):
        return self._base

    def ids(self):
        return list(self._vals)

    def has(self, w):
        try:
            return w in self._vals
        except TypeError:  # an unhashable id names no creature
            return False

    def val(self, w):
        return self._vals[w]

    def nor(self, w):
        return self._nors[w]

    def succ_ids(self, w):
        return iter(self._succs[w])

    def in_succ(self, v, w):
        return v in self._succs[w]

    def describe(self) -> str:
        body = {
            "name": self.name,
            "base": sorted(self._base),
            "creatures": {
                str(w): {
                    "val": sorted(self._vals[w]),
                    "nor": self._nors[w].to_json(),
                    "succ": sorted(str(v) for v in self._succs[w]),
                }
                for w in sorted(self._vals, key=str)
            },
        }
        return json.dumps(body, sort_keys=True)
