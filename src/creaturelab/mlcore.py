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
from dataclasses import dataclass, field
from fractions import Fraction

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
)
from .logreal import LogReal, lr_cmp_pow2, lr_from_rational, lr_log2_int, lr_zero

_ENUM_CAP = 1 << 20  # largest trunk set poss_enumerate will materialize
_TUPLE_CAP = 24  # largest exponent in a behavior-tuple coloring


def _lr(x) -> LogReal:
    return x if isinstance(x, LogReal) else lr_from_rational(Fraction(x))


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


@dataclass(frozen=True)
class Possibility:
    """Trunk of height n: a value for every cell (m < n, i in u)."""

    n: int
    u: frozenset
    values: tuple  # sorted tuple of ((m, i), v)

    @staticmethod
    def make(n, u, assignment) -> "Possibility":
        u = frozenset(u)
        cells = {(m, i) for m in range(n) for i in u}
        if set(assignment) != cells:
            raise DomainMismatch("assignment must cover exactly n x u")
        values = tuple(sorted(assignment.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))))
        return Possibility(n, u, values)

    def get(self, m, i):
        return dict(self.values)[(m, i)]

    def as_dict(self) -> dict:
        return dict(self.values)

    def extend(self, level_values: dict) -> "Possibility":
        """One-level extension: level_values maps each i in u to a value."""
        if set(level_values) != set(self.u):
            raise DomainMismatch("extension must cover exactly u")
        a = self.as_dict()
        for i, v in level_values.items():
            a[(self.n, i)] = v
        return Possibility.make(self.n + 1, self.u, a)

    def restrict_height(self, m) -> "Possibility":
        return Possibility.make(
            m, self.u, {cell: v for cell, v in self.values if cell[0] < m}
        )

    def restrict_indices(self, u2) -> "Possibility":
        u2 = frozenset(u2)
        if not u2 <= self.u:
            raise DomainMismatch("can only restrict to a subset of u")
        return Possibility.make(
            self.n, u2, {cell: v for cell, v in self.values if cell[1] in u2}
        )

    def to_json(self):
        return {
            "n": self.n,
            "u": sorted(self.u, key=str),
            "values": [[m, i, v] for (m, i), v in self.values],
        }

    @staticmethod
    def from_json(obj) -> "Possibility":
        return Possibility.make(
            obj["n"], obj["u"], {(m, i): v for m, i, v in obj["values"]}
        )


def _cell_size(profile, m, i) -> int:
    return profile.kstar(m) if profile.universe.is_mu(i) else profile.fmax(m)


def poss_enumerate(n, u, profile) -> list:
    """All trunks of height n over u, smallest-cell-first product order."""
    u = frozenset(u)
    if not u:
        raise UsageError("u must be nonempty")
    cells = sorted(
        ((m, i) for m in range(n) for i in u), key=lambda c: (c[0], str(c[1]))
    )
    total = 1
    for m, i in cells:
        total *= _cell_size(profile, m, i)
        if total > _ENUM_CAP:
            raise CapacityExceeded(f"{total}+ trunks exceed the enumeration cap")
    out = []
    for combo in itertools.product(*(range(_cell_size(profile, m, i)) for m, i in cells)):
        out.append(Possibility.make(n, u, dict(zip(cells, combo))))
    return out


@dataclass
class MlCreature:
    n: int
    u: frozenset
    w_eps: dict  # mu-index -> atomic creature id in star_param(n)
    w_alpha: dict  # (alpha-index, k) -> atomic creature id in slot_param(n, k)
    d: LogReal = field(default_factory=lr_zero)

    def copy(self) -> "MlCreature":
        return MlCreature(self.n, self.u, dict(self.w_eps), dict(self.w_alpha), self.d)

    def components(self, profile):
        """Yield (key, parameter, creature id) over every atomic slot."""
        for eps, w in sorted(self.w_eps.items(), key=lambda kv: str(kv[0])):
            yield ("eps", eps), profile.star_param(self.n), w
        for (alpha, k), w in sorted(self.w_alpha.items(), key=lambda kv: str(kv[0])):
            yield ("alpha", alpha, k), profile.slot_param(self.n, k), w


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
    demanded = {
        (alpha, k) for alpha in alphas for k in sorted(star.val(c.w_eps[U.eps_of[alpha]]))
    }
    if set(c.w_alpha) != demanded:
        raise DomainMismatch("slot creatures must match the selector values exactly")
    for (alpha, k), w in c.w_alpha.items():
        if not profile.slot_param(c.n, k).has(w):
            raise DomainMismatch(f"unknown slot creature at {(alpha, k)}")
    if c.d < lr_zero():
        raise UsageError("d must be nonnegative")


def ml_val(c: MlCreature, eta: Possibility, profile) -> list:
    """All one-step extensions of eta through c (restricted to c's support
    when eta lives on a larger index set)."""
    if eta.n != c.n or not c.u <= eta.u:
        raise DomainMismatch("trunk height or domain does not fit the creature")
    if eta.u != c.u:
        eta = eta.restrict_indices(c.u)
    U = profile.universe
    star = profile.star_param(c.n)
    mus = sorted((i for i in c.u if U.is_mu(i)), key=str)
    alphas = sorted((i for i in c.u if not U.is_mu(i)), key=str)
    out = []
    for ks in itertools.product(*(sorted(star.val(c.w_eps[e])) for e in mus)):
        pick = dict(zip(mus, ks))
        slot_vals = [
            sorted(profile.slot_param(c.n, pick[U.eps_of[a]]).val(c.w_alpha[(a, pick[U.eps_of[a]])]))
            for a in alphas
        ]
        for avals in itertools.product(*slot_vals):
            level = dict(pick)
            level.update(zip(alphas, avals))
            out.append(eta.extend(level))
    return out


# ---------------------------------------------------------------------------
# norm
# ---------------------------------------------------------------------------


def ml_minnor(c: MlCreature, profile) -> LogReal:
    best = None
    for _, p, w in c.components(profile):
        nw = p.nor(w)
        if best is None or nw < best:
            best = nw
    if best is None:
        raise UsageError("creature has no atomic components")
    return best


def ml_nor_z(c: MlCreature, profile) -> LogReal:
    """The argument of the norm's logarithm; nor(c) = log2(z)/maxposs when
    z > 1 and 0 otherwise."""
    return ml_minnor(c, profile) - lr_log2_int(len(c.u)) - c.d


def ml_norm_positive(c: MlCreature, profile) -> bool:
    return ml_nor_z(c, profile) > lr_from_rational(1)


def ml_norm_cmp(c: MlCreature, n: int, profile, threshold) -> int:
    """Order of nor(c) versus the threshold: -1, 0, or +1."""
    if n != c.n:
        raise DomainMismatch("level mismatch")
    t = _lr(threshold)
    z = ml_nor_z(c, profile)
    if z <= lr_from_rational(1):
        return -t.sign()  # nor clips to 0
    if t.is_rational():
        return lr_cmp_pow2(z, profile.maxposs(n) * t.q)
    raise Indeterminate("irrational norm thresholds are not supported exactly")


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
    component.  With enumerate_axiom, additionally replays the restriction
    property on actual trunk extensions.

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
    for (alpha, k) in c.w_alpha:
        if alpha not in d.u:
            diagnostics.append(f"slot owner {alpha} missing")
            continue
        if k not in star.val(d.w_eps[U.eps_of[alpha]]):
            continue  # selector dropped k; slot is no longer demanded
        if (alpha, k) not in d.w_alpha or not profile.slot_param(n, k).in_succ(
            d.w_alpha[(alpha, k)], c.w_alpha[(alpha, k)]
        ):
            diagnostics.append(f"slot component at {(alpha, k)} is not a successor")

    if enumerate_axiom and not diagnostics:
        # restriction axiom: every extension through d, cut down to c's
        # support, is an extension through c
        for eta in poss_enumerate(n, d.u, profile):
            eta_c = eta.restrict_indices(c.u)
            allowed = {nu.restrict_indices(c.u).values for nu in ml_val(c, eta_c, profile)}
            for nu in ml_val(d, eta, profile):
                if nu.restrict_indices(c.u).values not in allowed:
                    diagnostics.append(f"restriction axiom fails at {eta}")
                    break
            if diagnostics:
                break
    return not diagnostics, diagnostics


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def ml_halve(c: MlCreature, n: int, profile) -> MlCreature:
    """Same creature with half the remaining norm headroom burned into d."""
    z = ml_nor_z(c, profile)
    if z <= lr_from_rational(1):
        raise ZeroNorm("halving needs positive norm")
    out = c.copy()
    out.d = c.d + z.scale(Fraction(1, 2))
    return out


def ml_unhalve(dcr: MlCreature, c: MlCreature, n: int, profile) -> MlCreature:
    """Reset the halving component of a positive-norm successor of
    ml_halve(c) back to c's level; the result is a successor of c losing at
    most 1/maxposs(n) of c's norm."""
    half = ml_halve(c, n, profile)
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
    if not _norm_drop_ok(ml_nor_z(c, profile), ml_nor_z(out, profile), 1):
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


def _shrink_within(p, w, keep):
    v = p.best_successor_within(w, frozenset(keep))
    if v is None:
        raise NotNice("no successor inside a color class")
    return v


def ml_homogenize(c: MlCreature, n: int, profile, G, range_size: int):
    """Shrink c (same support, componentwise) until G, a function on the
    one-step extensions of every height-n trunk over u, only depends on the
    trunk.  Returns (d, G_prime) with G_prime a dict trunk -> value.

    Elimination is sequential with behavior-tuple colorings: slot creatures
    first (per selector choice), then the selector creatures themselves.
    Loss is bounded by one full norm unit, checked exactly on z.
    """
    if range_size < 1:
        raise UsageError("range_size must be positive")
    etas = poss_enumerate(n, c.u, profile)
    U = profile.universe
    out = c.copy()
    star = profile.star_param(n)
    mus = sorted((i for i in c.u if U.is_mu(i)), key=str)
    alphas = sorted((i for i in c.u if not U.is_mu(i)), key=str)

    def slot_of(alpha, ks):
        return (alpha, ks[U.eps_of[alpha]])

    # phase 1: for every (trunk, selector-choice) pair, make G constant in
    # the alpha values by shrinking the active slot creatures
    table = {}
    for eta in etas:
        for ks_combo in itertools.product(*(sorted(star.val(out.w_eps[e])) for e in mus)):
            ks = dict(zip(mus, ks_combo))
            active = [slot_of(a, ks) for a in alphas]
            for j in range(len(active) - 1, -1, -1):
                dom = 1
                for s in active[:j]:
                    dom *= profile.slot_param(n, s[1]).val_size(out.w_alpha[s])
                if dom > _TUPLE_CAP:
                    raise CapacityExceeded("alpha-side behavior tuple too wide")
                grids = [
                    sorted(profile.slot_param(n, s[1]).val(out.w_alpha[s]))
                    for s in active[:j]
                ]
                reps = {
                    s: min(profile.slot_param(n, s[1]).val(out.w_alpha[s]))
                    for s in active[j + 1 :]
                }

                def evaluate(a_value, combo):
                    level = dict(ks)
                    for s, v in zip(active[:j], combo):
                        level[s[0]] = v
                    level[active[j][0]] = a_value
                    for s, v in reps.items():
                        level[s[0]] = v
                    return G(eta.extend(level))

                p = profile.slot_param(n, active[j][1])
                w = out.w_alpha[active[j]]
                classes = {}
                for a_value in sorted(p.val(w)):
                    key = tuple(evaluate(a_value, combo) for combo in itertools.product(*grids))
                    classes.setdefault(key, []).append(a_value)
                keep = max(classes.values(), key=len)
                out.w_alpha[active[j]] = _shrink_within(p, w, keep)
            level = dict(ks)
            for a in alphas:
                level[a] = min(profile.slot_param(n, slot_of(a, ks)[1]).val(out.w_alpha[slot_of(a, ks)]))
            table[(eta, ks_combo)] = G(eta.extend(level))

    # phase 2: make the table constant in the selector choices by shrinking
    # the star creatures, one at a time
    for j in range(len(mus) - 1, -1, -1):
        dom = len(etas)
        for e in mus[:j]:
            dom *= star.val_size(out.w_eps[e])
        if dom > _TUPLE_CAP:
            raise CapacityExceeded("mu-side behavior tuple too wide")
        grids = [sorted(star.val(out.w_eps[e])) for e in mus[:j]]
        reps = [min(star.val(out.w_eps[e])) for e in mus[j + 1 :]]

        def star_key(k):
            key = []
            for eta in etas:
                for combo in itertools.product(*grids):
                    full = tuple(combo) + (k,) + tuple(reps)
                    key.append(table[(eta, full)])
            return tuple(key)

        w = out.w_eps[mus[j]]
        classes = {}
        for k in sorted(star.val(w)):
            classes.setdefault(star_key(k), []).append(k)
        keep = max(classes.values(), key=len)
        out.w_eps[mus[j]] = _shrink_within(star, w, keep)

    # drop slots whose selector value no longer occurs
    for alpha in alphas:
        live = star.val(out.w_eps[U.eps_of[alpha]])
        for (a, k) in list(out.w_alpha):
            if a == alpha and k not in live:
                del out.w_alpha[(a, k)]

    ml_validate(out, profile)
    ok, diag = ml_successor_check(out, c, n, profile)
    if not ok:
        raise NotNice(f"homogenized creature fails successor replay: {diag}")
    if not _norm_drop_ok(ml_nor_z(c, profile), ml_nor_z(out, profile), profile.maxposs(n)):
        raise NormTooSmall("homogenization lost more than one norm unit")

    # exact replay: G through the result depends only on the trunk
    g_prime = {}
    for eta in etas:
        values = {G(nu) for nu in ml_val(out, eta, profile)}
        if len(values) != 1:
            raise NotNice(f"homogenization replay failed at {eta}")
        g_prime[eta] = values.pop()
    return out, g_prime
