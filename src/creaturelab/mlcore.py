"""Level-indexed creatures over a two-kind index universe.

An index is either a mu-index ("selector", values in range(kstar(m)) at
level m) or an alpha-index bound to a mu-index via eps_of (values in
range(fmax(m))).  A level-n creature c consists of:

- an eps-closed support u (with every bound alpha its selector is present),
- one atomic creature per mu-index in u (over the level's star parameter),
- one atomic creature per (alpha-index, selector value k) with k in the
  value set of the selector's creature (over the level's k-th slot
  parameter),
- a halving component d >= 0.

A trunk of height n assigns a value to every (level m < n, index) cell;
c extends any trunk by one level: the selector picks k from its creature's
values, the alpha picks a value from the slot creature chosen by k.  The
creature's norm is log2(z) / maxposs(n) with

    z = (minimum atomic norm) - log2(|u|) - d,

clipped to zero when z <= 1.  Norms themselves leave the exact field, so
every norm comparison here is carried out on z against an exact power of
two (lr_cmp_pow2); no check in this module uses floating tolerance.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import itemgetter, mul

from .errors import (
    CapacityExceeded,
    DomainMismatch,
    Indeterminate,
    NormTooSmall,
    NotNice,
    PreconditionFailed,
    TypeMismatch,
    UsageError,
    ZeroNorm,
    refuse_unread,
)
from .atomic.base import ENUM_CAP, TUPLE_CAP, id_from_json, id_to_json, unique_dict
from .logreal import LogReal, lr, lr_cmp_pow2, lr_from_rational, lr_log2_int, lr_zero
from .records import Record


class IndexUniverse:
    """Finite two-kind index set with the alpha -> mu binding map."""

    def __init__(self, mu_part, alpha_part, eps_of):
        self.mu_part = frozenset(mu_part)
        self.alpha_part = frozenset(alpha_part)
        self.eps_of = dict(eps_of)
        if self.mu_part & self.alpha_part:
            raise UsageError("index kinds must be disjoint")
        if set(self.eps_of) != self.alpha_part:
            raise UsageError("eps_of must be total on the alpha part")
        if not set(self.eps_of.values()) <= self.mu_part:
            raise UsageError("eps_of must land in the mu part")
        indices = self.mu_part | self.alpha_part
        if len(set(map(str, indices))) != len(indices):
            raise UsageError("indices must have distinct str forms: columns are sorted by str")

    def __contains__(self, i):
        return i in self.mu_part or i in self.alpha_part

    def is_mu(self, i) -> bool:
        return i in self.mu_part

    def closure(self, indices) -> frozenset:
        """Smallest eps-closed superset."""
        out = set(indices)
        out |= {self.eps_of[i] for i in indices if i in self.alpha_part}
        return frozenset(out)

    def is_closed(self, indices) -> bool:
        return self.closure(indices) == frozenset(indices)


class Possibility(tuple):
    """Trunk of height n: a value for every cell (m < n, i in u).  cols is u
    sorted by str, and cell (m, cols[j]) holds vals[m * len(cols) + j].  A
    possibility is the tuple (n, cols, vals), built as
    Possibility((n, cols, vals)); construction, ==, hash, pickling and
    copying are the tuple's, and u is derived from cols.  Only make and
    from_json check their input; derived possibilities share cols with
    their source."""

    __slots__ = ()

    n = property(itemgetter(0))
    cols = property(itemgetter(1))
    vals = property(itemgetter(2))

    @property
    def u(self) -> frozenset:
        return frozenset(self[1])

    def __repr__(self):
        return f"Possibility(n={self.n!r}, cols={self.cols!r}, vals={self.vals!r})"

    @staticmethod
    def make(n, u, assignment) -> "Possibility":
        u = frozenset(u)
        cols = tuple(sorted(u, key=str))
        if assignment.keys() != {(m, i) for m in range(n) for i in cols}:
            raise DomainMismatch("assignment must cover exactly n x u")
        return Possibility((n, cols, tuple(assignment[(m, i)] for m in range(n) for i in cols)))

    @property
    def values(self) -> tuple:
        """Sorted tuple of ((m, i), v)."""
        n, cols, vals = self
        return tuple(zip(itertools.product(range(n), cols), vals))

    def get(self, m, i):
        n, cols, vals = self
        if not 0 <= m < n or i not in cols:
            raise KeyError((m, i))
        return vals[m * len(cols) + cols.index(i)]

    def as_dict(self) -> dict:
        return dict(self.values)

    def extend(self, level: dict) -> "Possibility":
        """One-level extension: level maps each i in u to a value."""
        n, cols, vals = self
        if level.keys() != self.u:
            raise DomainMismatch("extension must cover exactly u")
        return Possibility((n + 1, cols, vals + tuple(map(level.__getitem__, cols))))

    def restrict_height(self, m) -> "Possibility":
        n, cols, vals = self
        if not 0 <= m <= n:
            raise DomainMismatch(f"cannot restrict height {n} to {m}")
        return Possibility((m, cols, vals[: m * len(cols)]))

    def restrict_indices(self, u2) -> "Possibility":
        n, cols, vals = self
        u2, u = frozenset(u2), frozenset(cols)
        if u2 == u:
            return self
        if not u2 <= u:
            raise DomainMismatch("can only restrict to a subset of u")
        keep = [j for j, i in enumerate(cols) if i in u2]
        return Possibility((n, tuple(cols[j] for j in keep), tuple(
            vals[m * len(cols) + j] for m in range(n) for j in keep)))

    def to_json(self):
        return {
            "n": self.n,
            "u": list(self.cols),
            "values": [[m, i, v] for (m, i), v in self.values],
        }

    @staticmethod
    def from_json(obj) -> "Possibility":
        return Possibility.make(
            obj["n"], obj["u"],
            unique_dict((((m, i), v) for m, i, v in obj["values"]), "possibility cell"),
        )


def _trunk_space(n, u: frozenset, profile):
    """(cols, sizes) of the height-n trunks over u: flat cell j ranges over
    range(sizes[j])."""
    if not u:
        raise UsageError("u must be nonempty")
    cols = tuple(sorted(u, key=str))
    U = profile.universe
    sizes = [profile.kstar(m) if U.is_mu(i) else profile.fmax(m) for m in range(n) for i in cols]
    return cols, sizes


def poss_enumerate(n, u, profile) -> list:
    """All trunks of height n over u, smallest-cell-first product order;
    more than ENUM_CAP are refused before any is built."""
    u = frozenset(u)
    cols, sizes = _trunk_space(n, u, profile)
    for total in itertools.accumulate(sizes, mul):
        if total > ENUM_CAP:
            raise CapacityExceeded(f"{total}+ trunks exceed the enumeration cap")
    return [Possibility((n, cols, vals))
            for vals in itertools.product(*map(range, sizes))]


class MlCreature(Record):
    """Level n, support u, the atomic creatures w_eps (mu-index -> creature
    id in star_param(n)) and w_alpha ((alpha-index, k) -> creature id in
    slot_param(n, k)), and the halving component d (default zero)."""

    __slots__ = ("n", "u", "w_eps", "w_alpha", "d")

    def __init__(self, n: int, u: frozenset, w_eps: dict, w_alpha: dict, d: LogReal | None = None):
        self.n = n
        self.u = u
        self.w_eps = w_eps
        self.w_alpha = w_alpha
        self.d = lr_zero() if d is None else d

    def copy(self) -> "MlCreature":
        return MlCreature(self.n, self.u, dict(self.w_eps), dict(self.w_alpha), self.d)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "u": sorted(self.u, key=str),
            "w_eps": [[i, id_to_json(w)] for i, w in sorted(self.w_eps.items(), key=lambda kv: str(kv[0]))],
            "w_alpha": [[a, k, id_to_json(w)] for (a, k), w in sorted(
                self.w_alpha.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))],
            "d": self.d.to_json(),
        }

    @staticmethod
    def from_json(obj, n=None) -> "MlCreature":
        """Inverse of to_json; a fragment keys its creatures by level and
        passes that level as n instead of storing an "n" field.  A key
        that to_json does not write is refused."""
        fields = MlCreature.__slots__  # n, then the fields a fragment's creature holds
        refuse_unread(obj, fields if n is None else fields[1:], "creature")
        return MlCreature(
            obj["n"] if n is None else n,
            frozenset(unique_dict(((i, i) for i in obj["u"]), "support index")),
            unique_dict(((i, id_from_json(w)) for i, w in obj["w_eps"]), "w_eps index"),
            unique_dict((((a, k), id_from_json(w)) for a, k, w in obj["w_alpha"]),
                        "w_alpha slot"),
            LogReal.from_json(obj["d"]),
        )


def ml_validate(c: MlCreature, profile) -> None:
    """Raise on any shape violation; silent when c is well-formed."""
    U = profile.universe
    if not c.u or not all(i in U for i in c.u):
        raise DomainMismatch("support must be a nonempty subset of the universe")
    if not U.is_closed(c.u):
        raise DomainMismatch("support must be eps-closed")
    if len(c.u) > profile.maxsupp(c.n):
        raise CapacityExceeded(f"support {len(c.u)} exceeds maxsupp {profile.maxsupp(c.n)}")
    mus = {i for i in c.u if U.is_mu(i)}
    alphas = c.u - mus
    if set(c.w_eps) != mus:
        raise DomainMismatch("one star creature per mu-index, no extras")
    star = profile.star_param(c.n)
    for eps, w in c.w_eps.items():
        if not star.has(w):
            raise DomainMismatch(f"unknown star creature at {eps}")
    demanded = {(alpha, k) for alpha in alphas for k in star.val(c.w_eps[U.eps_of[alpha]])}
    if c.w_alpha.keys() != demanded:
        raise DomainMismatch("slot creatures must match the selector values exactly")
    for (alpha, k), w in c.w_alpha.items():
        if not profile.slot_param(c.n, k).has(w):
            raise DomainMismatch(f"unknown slot creature at {(alpha, k)}")
    if c.d.sign() < 0:
        raise UsageError("d must be nonnegative")


def _level_count(c: MlCreature, profile) -> int:
    """The number of c's one-level rows, from value counts alone (no row is
    built): the product over selectors of the sum, over a selector's
    values, of the product of its bound slots' value counts."""
    U, star = profile.universe, profile.star_param(c.n)
    width = {e: dict.fromkeys(star.val(c.w_eps[e]), 1) for e in c.u if U.is_mu(e)}
    for i in c.u - width.keys():
        for k in width[U.eps_of[i]]:
            width[U.eps_of[i]][k] *= profile.slot_param(c.n, k).val_size(c.w_alpha[i, k])
    return math.prod(sum(w.values()) for w in width.values())


def _level_rows(c: MlCreature, cols, profile, fill=()) -> list:
    """c's one-level rows over cols (a superset of c's support): selector
    values vary slowest, then the slot columns in cols order, the last
    fastest.  A column outside c's support takes its value from fill's
    (column, value) pairs.  More than ENUM_CAP rows are refused unbuilt:
    the count is read off the sorted value lists the rows are built from."""
    U, star = profile.universe, profile.star_param(c.n)
    eps_of = U.eps_of
    mus = [i for i in cols if i in c.u and U.is_mu(i)]
    picks = {e: sorted(star.val(c.w_eps[e])) for e in mus}
    # a slot column's sorted values, by the value its selector picks
    slots = {i: {k: sorted(profile.slot_param(c.n, k).val(c.w_alpha[i, k]))
                 for k in picks[eps_of[i]]} for i in cols if i in c.u and not U.is_mu(i)}
    width = {e: dict.fromkeys(ks, 1) for e, ks in picks.items()}  # rows per selector value
    for i, by_k in slots.items():
        for k, values in by_k.items():
            width[eps_of[i]][k] *= len(values)
    count = math.prod(sum(w.values()) for w in width.values())
    if count > ENUM_CAP:
        raise CapacityExceeded(f"{count} level-{c.n} rows exceed the enumeration cap")
    rows = []
    for ks in itertools.product(*picks.values()):
        pick = dict(itertools.chain(fill, zip(mus, ks)))
        rows += itertools.product(*[slots[i][pick[eps_of[i]]] if i in slots else (pick[i],)
                                    for i in cols])
    return rows


def ml_val(c: MlCreature, eta: Possibility, profile) -> list:
    """All one-step extensions of eta through c (restricted to c's support
    when eta lives on a larger index set): eta followed by each of c's
    one-level rows, which do not depend on eta."""
    if eta.n != c.n or not c.u <= eta.u:
        raise DomainMismatch("trunk height or domain does not fit the creature")
    eta = eta.restrict_indices(c.u)
    n, cols, vals = eta
    return [Possibility((n + 1, cols, vals + row))
            for row in _level_rows(c, cols, profile)]


# ---------------------------------------------------------------------------
# norm
# ---------------------------------------------------------------------------


def ml_minnor(c: MlCreature, profile) -> LogReal:
    """The least norm of c's atomic creatures."""
    star = profile.star_param(c.n)
    norms = [star.nor(w) for w in c.w_eps.values()]
    norms += [profile.slot_param(c.n, k).nor(w) for (_, k), w in c.w_alpha.items()]
    if not norms:
        raise UsageError("creature has no atomic components")
    return min(norms)


def ml_nor_z(c: MlCreature, profile) -> LogReal:
    """The argument of the norm's logarithm; nor(c) = log2(z)/maxposs when
    z > 1 and 0 otherwise."""
    return ml_minnor(c, profile) - lr_log2_int(len(c.u)) - c.d


def ml_norm_positive(c: MlCreature, profile) -> bool:
    return ml_nor_z(c, profile) > lr_from_rational(1)


def ml_norm_cmp(c: MlCreature, n: int, profile, threshold) -> int:
    """Order of nor(c) versus the threshold: -1, 0, or +1.

    A rational threshold t is decided exactly, as z against 2**(maxposs * t).
    An irrational threshold raises Indeterminate: lr_cmp_pow2 takes
    rational exponents only.
    """
    _at_level(n, c)
    t = lr(threshold)
    z = ml_nor_z(c, profile)
    if z <= lr_from_rational(1):
        return -t.sign()  # nor clips to 0
    if t.is_rational():
        return lr_cmp_pow2(z, profile.maxposs(n) * t.q)
    raise Indeterminate("irrational norm thresholds are not supported exactly")


def _at_level(n, *creatures):
    """Refuse an operation at level n on a creature of another level."""
    for c in creatures:
        if c.n != n:
            raise DomainMismatch(f"level mismatch: a level-{c.n} creature at level {n}")


def _norm_drop_ok(z_before: LogReal, z_after: LogReal, k: int) -> bool:
    """nor_after >= nor_before - k/maxposs, on the z scale: either the
    before-norm already clips below k/maxposs, or 2^k * z_after >= z_before."""
    if lr_cmp_pow2(z_before, Fraction(k)) <= 0:
        return True
    return z_after.scale(Fraction(2 ** k)) >= z_before


# ---------------------------------------------------------------------------
# successorship
# ---------------------------------------------------------------------------


def ml_successor_check(d: MlCreature, c: MlCreature, n: int, profile, enumerate_axiom=False):
    """Is d a successor of c?  Componentwise atomic successorship over c's
    support, support growth with eps-closure, non-decreasing halving
    component.  With enumerate_axiom, additionally decides the restriction
    property on the trunks over d's support: every extension through d, cut
    down to c's support, is an extension through c.  An extension is its
    trunk followed by one of the creature's one-level rows, which never
    read the trunk, so the property is the same at every trunk: each row of
    d, projected onto c's columns, is a row of c.  `_rows_within` decides
    that exactly from the value sets, one selector block at a time, and
    builds no row and no trunk, so nothing is capped.  No trunk means it
    holds vacuously, and a failure names the first trunk.

    Returns (ok, diagnostics).
    """
    if d.n != n or c.n != n:
        return False, ["level mismatch"]
    diagnostics = []
    U = profile.universe
    if not c.u <= d.u:
        diagnostics.append("support must not shrink")
    if d.d < c.d:
        diagnostics.append("halving component must not decrease")
    star = profile.star_param(n)
    for eps, w in c.w_eps.items():
        if eps not in d.w_eps or not star.in_succ(d.w_eps[eps], w):
            diagnostics.append(f"star component at {eps} is not a successor")
    picks = {eps: star.val(w) for eps, w in d.w_eps.items()}
    for (alpha, k) in c.w_alpha:
        if alpha not in d.u:
            diagnostics.append(f"slot owner {alpha} missing")
            continue
        if k not in picks[U.eps_of[alpha]]:
            continue  # selector dropped k; slot is no longer demanded
        if (alpha, k) not in d.w_alpha or not profile.slot_param(n, k).in_succ(
            d.w_alpha[(alpha, k)], c.w_alpha[(alpha, k)]
        ):
            diagnostics.append(f"slot component at {(alpha, k)} is not a successor")

    if enumerate_axiom and not diagnostics:
        cols, sizes = _trunk_space(n, d.u, profile)
        if all(sizes) and not _rows_within(d, c, profile):
            first = Possibility((n, cols, (0,) * len(sizes)))
            diagnostics.append(f"restriction axiom fails at {first}")
    return not diagnostics, diagnostics


def _rows_within(d: MlCreature, c: MlCreature, profile) -> bool:
    """Is every one-level row of d, projected onto c's columns (c's support
    lies inside d's), a row of c?  Per selector e a creature's rows form a
    block: a value k of e's creature, then the product of e's bound slots'
    value sets at k; the rows are the product of the blocks.  k heads a row
    of d when every d slot bound to e is nonempty at k.  A selector of d
    that heads none leaves d without rows, and the property holds.
    Otherwise every projected block is nonempty, so their product lies
    within c's rows iff each block lies within c's: every heading k is in
    c's value set for e, and at k each c slot bound to e has d's value set
    inside c's.  No row is built."""
    U, n = profile.universe, d.n
    star = profile.star_param(n)
    bound = {}  # a selector of d -> its bound slots in d
    for a in d.u:
        if not U.is_mu(a):
            bound.setdefault(U.eps_of[a], []).append(a)
    heads = {}
    for e in d.u:
        if U.is_mu(e):
            heads[e] = [k for k in star.val(d.w_eps[e]) if all(
                profile.slot_param(n, k).val_size(d.w_alpha[a, k]) for a in bound.get(e, ()))]
            if not heads[e]:
                return True
    for e in c.u:
        if U.is_mu(e):
            values = star.val(c.w_eps[e])
            slots = [a for a in bound.get(e, ()) if a in c.u]
            for k in heads[e]:
                if k not in values:
                    return False
                slot = profile.slot_param(n, k)
                if not all(slot.val(d.w_alpha[a, k]) <= slot.val(c.w_alpha[a, k]) for a in slots):
                    return False
    return True


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def ml_halve(c: MlCreature, n: int, profile) -> MlCreature:
    """Same creature with half the remaining norm headroom burned into d."""
    _at_level(n, c)
    return _halved(c, ml_nor_z(c, profile))


def _halved(c: MlCreature, z: LogReal) -> MlCreature:
    """ml_halve(c) given z = ml_nor_z(c)."""
    if z <= lr_from_rational(1):
        raise ZeroNorm("halving needs positive norm")
    out = c.copy()
    out.d = c.d + z.scale(Fraction(1, 2))
    return out


def ml_unhalve(dcr: MlCreature, c: MlCreature, n: int, profile) -> MlCreature:
    """Reset the halving component of a positive-norm successor of
    ml_halve(c) back to c's level; the result is a successor of c losing at
    most 1/maxposs(n) of c's norm."""
    _at_level(n, dcr, c)
    z = ml_nor_z(c, profile)
    half = _halved(c, z)
    ok, diag = ml_successor_check(dcr, half, n, profile)
    if not ok:
        raise PreconditionFailed(f"not a successor of the half: {diag}")
    if not ml_norm_positive(dcr, profile):
        raise PreconditionFailed("unhalving needs a positive-norm successor")
    out = dcr.copy()
    out.d = c.d
    ok, diag = ml_successor_check(out, c, n, profile)
    if not ok:
        raise PreconditionFailed(f"unhalved creature fails replay: {diag}")
    if not _norm_drop_ok(z, ml_nor_z(out, profile), 1):
        raise NormTooSmall("unhalving lost more than 1/maxposs of norm")
    return out


def ml_local_type(c: MlCreature, enumeration, profile) -> tuple:
    """Isomorphism type of c over an ordered listing of its support."""
    if sorted(enumeration, key=str) != sorted(c.u, key=str) or len(set(enumeration)) != len(
        enumeration
    ):
        raise DomainMismatch("enumeration must list the support exactly once")
    U = profile.universe
    pos = {i: j for j, i in enumerate(enumeration)}
    kinds = tuple(U.is_mu(i) for i in enumeration)
    linkage = tuple(
        pos[U.eps_of[i]] if not U.is_mu(i) else None for i in enumeration
    )
    comps = []
    for i in enumeration:
        if U.is_mu(i):
            comps.append(("eps", c.w_eps[i]))
        else:
            comps.append(
                ("alpha", tuple(sorted((k, w) for (a, k), w in c.w_alpha.items() if a == i)))
            )
    return (c.d, len(c.u), kinds, linkage, tuple(comps))


def ml_merge(c1: MlCreature, c2: MlCreature, enum1, enum2, n: int, profile) -> MlCreature:
    """Union of two creatures of the same local type on overlapping or
    disjoint supports."""
    _at_level(n, c1, c2)
    t1 = ml_local_type(c1, enum1, profile)
    t2 = ml_local_type(c2, enum2, profile)
    if t1 != t2:
        raise TypeMismatch("local types differ")
    shared = c1.u & c2.u
    for j, (i1, i2) in enumerate(zip(enum1, enum2)):
        if (i1 in shared or i2 in shared) and i1 != i2:
            raise TypeMismatch("enumerations must agree on the shared support")
    z1 = ml_nor_z(c1, profile)
    if lr_cmp_pow2(z1, Fraction(profile.maxposs(n))) <= 0:  # nor <= 1
        raise NormTooSmall("merge needs norm above 1")
    if 2 * len(c1.u) >= profile.maxsupp(n):
        # a support at half capacity already forces norm zero
        raise NormTooSmall("merged support would exceed the norm-zero threshold")

    out = MlCreature(
        n,
        c1.u | c2.u,
        {**c2.w_eps, **c1.w_eps},
        {**c2.w_alpha, **c1.w_alpha},
        c1.d,
    )
    ml_validate(out, profile)
    for orig in (c1, c2):
        ok, diag = ml_successor_check(out, orig, n, profile)
        if not ok:
            raise TypeMismatch(f"merge fails successor replay: {diag}")
    if not _norm_drop_ok(z1, ml_nor_z(out, profile), 1):
        raise NormTooSmall("merge lost more than 1/maxposs of norm")
    return out


def ml_enlarge(c: MlCreature, new_index, n: int, profile) -> MlCreature:
    """Grow the support by one index (plus its selector when eps-closure
    demands it), filling the new positions with maximal-norm creatures."""
    _at_level(n, c)
    if new_index in c.u:
        return c
    U = profile.universe
    if new_index not in U:
        raise DomainMismatch(f"{new_index} is not in the universe")
    grown = U.closure(c.u | {new_index})
    if 2 * (len(c.u) + 2) > profile.maxsupp(n):
        raise CapacityExceeded("support too close to capacity to enlarge")

    out = c.copy()
    out.u = grown
    star = profile.star_param(n)
    for eps in grown - c.u:
        if U.is_mu(eps):
            out.w_eps[eps] = star.top()
    for alpha in grown - c.u:
        if not U.is_mu(alpha):
            sel = out.w_eps[U.eps_of[alpha]]
            for k in sorted(star.val(sel)):
                out.w_alpha[(alpha, k)] = profile.slot_param(n, k).top()
    ml_validate(out, profile)
    if not _norm_drop_ok(ml_nor_z(c, profile), ml_nor_z(out, profile), 1):
        raise NormTooSmall("enlarging lost more than 1/maxposs of norm")
    return out


# ---------------------------------------------------------------------------
# homogenization
# ---------------------------------------------------------------------------


def _prune_orphan_slots(c: MlCreature, profile) -> None:
    """Drop c's slot creatures whose selector value their star no longer has."""
    star = profile.star_param(c.n)
    U = profile.universe
    for (a, k) in list(c.w_alpha):
        if k not in star.val(c.w_eps[U.eps_of[a]]):
            del c.w_alpha[(a, k)]


def _shrink_within(p, w, keep):
    v = p.best_successor_within(w, frozenset(keep))
    if v is None:
        raise NotNice("no successor inside a color class")
    return v


def _eliminate(coords, ids, param, color, fixed, side):
    """Shrink ids[x] (a creature of param(x)) for each coordinate x, last
    first, until color no longer depends on them.  Each value v of x is
    colored by its behavior tuple: color(f, point) for every f in fixed and
    every point of the earlier coordinates' grids, with v at x and the later
    coordinates held at their least values; x keeps the first largest class.
    Returns the point that holds every coordinate at its least value."""
    def grid(x):
        return sorted(param(x).val(ids[x]))

    for j in range(len(coords) - 1, -1, -1):
        grids = [grid(x) for x in coords[:j]]
        if len(fixed) * math.prod(map(len, grids)) > TUPLE_CAP:
            raise CapacityExceeded(f"{side}-side behavior tuple too wide")
        held = tuple(grid(x)[0] for x in coords[j + 1:])
        classes = {}
        for v in grid(coords[j]):
            key = tuple(color(f, combo + (v,) + held)
                        for f in fixed for combo in itertools.product(*grids))
            classes.setdefault(key, []).append(v)
        x = coords[j]
        ids[x] = _shrink_within(param(x), ids[x], max(classes.values(), key=len))
    return tuple(grid(x)[0] for x in coords)


def ml_homogenize(c: MlCreature, n: int, profile, G, range_size: int):
    """Shrink c (same support, componentwise) until G, a function on the
    one-step extensions of every height-n trunk over u, only depends on the
    trunk.  Returns (d, G_prime) with G_prime a dict trunk -> value.

    Elimination is sequential with behavior-tuple colorings (_eliminate):
    slot creatures first, once per (trunk, selector choice), then the
    selector creatures, with the trunks as a fixed leading coordinate.
    Loss is bounded by one full norm unit, checked exactly on z.
    """
    _at_level(n, c)
    if range_size < 1:
        raise UsageError("range_size must be positive")
    etas = poss_enumerate(n, c.u, profile)
    U = profile.universe
    out = c.copy()
    star = profile.star_param(n)
    mus = sorted((i for i in c.u if U.is_mu(i)), key=str)
    alphas = sorted((i for i in c.u if not U.is_mu(i)), key=str)

    cells = mus + alphas

    def slot(s):
        return profile.slot_param(n, s[1])

    def color(trunk, avals):
        eta, ks = trunk
        return G(eta.extend(dict(zip(cells, ks + avals))))

    # phase 1: make G constant in the alpha values of every (trunk,
    # selector choice); table holds G with the slots at their least values
    table = {}
    for eta in etas:
        for ks in itertools.product(*(sorted(star.val(out.w_eps[e])) for e in mus)):
            active = [(a, ks[mus.index(U.eps_of[a])]) for a in alphas]
            least = _eliminate(active, out.w_alpha, slot, color, ((eta, ks),), "alpha")
            table[eta, ks] = color((eta, ks), least)

    # phase 2: make the table constant in the selector choices
    _eliminate(mus, out.w_eps, lambda e: star, lambda eta, ks: table[eta, ks], etas, "mu")
    _prune_orphan_slots(out, profile)

    ml_validate(out, profile)
    ok, diag = ml_successor_check(out, c, n, profile)
    if not ok:
        raise NotNice(f"homogenized creature fails successor replay: {diag}")
    if not _norm_drop_ok(ml_nor_z(c, profile), ml_nor_z(out, profile), profile.maxposs(n)):
        raise NormTooSmall("homogenization lost more than one norm unit")

    # exact replay: G through the result depends only on the trunk
    rows = _level_rows(out, tuple(sorted(c.u, key=str)), profile)
    g_prime = {}
    for eta in etas:
        values = {G(Possibility((n + 1, eta.cols, eta.vals + row))) for row in rows}
        if len(values) != 1:
            raise NotNice(f"homogenization replay failed at {eta}")
        g_prime[eta] = values.pop()
    return out, g_prime
