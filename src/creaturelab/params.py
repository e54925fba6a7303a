"""The capacity recursion and desk-scale profiles.

The real recursion produces, per level n, seven interlocking capacities
(maxposs, maxnor, maxsupp, Bmin, kstar, gmin, fmax plus the slot sequences
f_{n,m}, g_{n,m}).  The "set" fields are exact tower expressions; the
"pick large" fields are resolved as the minimal strict choice where
computable and carried as symbolic references otherwise (kstar and the f's
depend on a constructed regular parameter whose size no enumerable budget
reaches past level 0).  Every field carries a provenance tag.

Toy profiles replace the towers with small numbers and plateau-norm atomic
families so the creature transforms run at desk scale.  Their numbers need
not honor the recursion, so no capacity is assumed from it downstream: the
transforms take their capacities from the profile explicitly and fail
loudly.  The recursion itself is checked exactly, by params_validate.
"""

from __future__ import annotations

from .atomic import plateau_family
from .atomic.base import LADDER_LIMIT
from .errors import Indeterminate, SizeInfeasible, UsageError, refuse_unread
from .mlcore import IndexUniverse
from .records import Record
from .tower import TowerNat, add, lit, mul, pow_, ref, tower_compare


def _sym(name: str) -> TowerNat:
    """Unbound symbolic field; comparisons involving it are refused."""
    return ref(name)

# ---------------------------------------------------------------------------
# exact rows
# ---------------------------------------------------------------------------


class ParamRow(Record):
    __slots__ = ("n", "fields", "provenance", "f_list", "g_list")

    def __init__(self, n: int, fields: dict, provenance: dict,
                 f_list: list | None = None, g_list: list | None = None):
        self.n = n
        self.fields = fields  # name -> TowerNat
        self.provenance = provenance  # name -> provenance tag
        self.f_list = [] if f_list is None else f_list  # slot sizes f_{n,m}, m = 0, 1
        self.g_list = [] if g_list is None else g_list  # slot floors g_{n,m}, m = 0, 1

    def to_json(self):
        return {
            "n": self.n,
            "fields": {k: v.to_json() for k, v in self.fields.items()},
            "provenance": dict(self.provenance),
            "f_list": [v.to_json() for v in self.f_list],
            "g_list": [v.to_json() for v in self.g_list],
        }


def _minimal_above(*bounds):
    """Least natural strictly above every bound: 1 + max."""
    out = bounds[0]
    for b in bounds[1:]:
        if out.has_ref() or b.has_ref():
            # symbolic operand: the sum stands in for the max, still
            # strictly above both, no longer literally minimal
            out = add(out, b)
            continue
        try:
            if tower_compare(out, b) < 0:
                out = b
        except Indeterminate:
            out = add(out, b)
    return add(lit(1), out)


def _pow_n(base, n, t):
    """base ** (n * t); the level-0 zero factor collapses the power to 1."""
    if n == 0:
        return lit(1)
    return pow_(base, mul(lit(n), t))


def _one_plus_n(n, t):
    """1 + n * t with the same zero-factor collapse."""
    if n == 0:
        return lit(1)
    return add(lit(1), mul(lit(n), t))


def params_exact(n: int) -> ParamRow:
    """Row n of the capacity recursion, exact or symbolic per field."""
    if n < 0:
        raise UsageError("levels start at 0")
    if n == 0:
        fmax_prev = lit(1)
        maxsupp_prev = lit(1)
    else:
        prev = params_exact(n - 1)
        fmax_prev = prev.fields["fmax"]
        maxsupp_prev = prev.fields["maxsupp"]

    maxposs = add(lit(1), _pow_n(fmax_prev, n, maxsupp_prev))
    maxnor = add(lit(1), _pow_n(lit(2), n, maxposs))
    maxsupp = add(lit(1), pow_(lit(2), maxnor))
    bmin = _minimal_above(
        _pow_n(fmax_prev, n, pow_(fmax_prev, _one_plus_n(n, maxsupp))),
        mul(lit(2), mul(maxsupp, maxsupp)),
    )
    # the base size of a Bmin-regular parameter of maximal norm maxnor is
    # constructor-determined; no enumerable construction reaches it
    kstar = _sym(f"NICE_SIZE(Bmin({n}), maxnor({n}))")
    gmin = _minimal_above(
        mul(
            _pow_n(fmax_prev, n, maxsupp),
            mul(maxposs, pow_(kstar, maxsupp)),
        ),
        _pow_n(fmax_prev, n, fmax_prev),
    )
    f0 = _sym(f"NICE_SIZE(g({n},0), maxnor({n}))")
    g1 = _minimal_above(pow_(f0, pow_(f0, kstar)))
    f1 = _sym(f"NICE_SIZE(g({n},1), maxnor({n}))")
    fmax = _sym(f"f({n}, kstar({n})-1)")

    return ParamRow(
        n,
        {
            "maxposs": maxposs,
            "maxnor": maxnor,
            "maxsupp": maxsupp,
            "Bmin": bmin,
            "kstar": kstar,
            "gmin": gmin,
            "fmax": fmax,
        },
        {
            "maxposs": "formula-exact",
            "maxnor": "formula-exact",
            "maxsupp": "formula-exact",
            "Bmin": "minimal-choice",
            "kstar": "constructor-dependent",
            "gmin": "minimal-choice",
            "fmax": "constructor-dependent",
        },
        f_list=[f0, f1],
        g_list=[gmin, g1],
    )


def params_validate(row: ParamRow) -> list:
    """Re-check every recursion inequality on a row against row n - 1; one
    report entry per item, with verdict holds / relaxed / constructor-dependent."""
    n = row.n
    prev = params_exact(n - 1) if n > 0 else None
    fmax_prev = prev.fields["fmax"] if prev else lit(1)
    maxsupp_prev = prev.fields["maxsupp"] if prev else lit(1)
    f = row.fields

    checks = [
        ("maxposs-formula", f["maxposs"],
         add(lit(1), _pow_n(fmax_prev, n, maxsupp_prev)), False),
        ("maxnor-formula", f["maxnor"],
         add(lit(1), _pow_n(lit(2), n, f["maxposs"])), False),
        ("maxsupp-formula", f["maxsupp"],
         add(lit(1), pow_(lit(2), f["maxnor"])), False),
        ("Bmin-vs-support", f["Bmin"], mul(lit(2), mul(f["maxsupp"], f["maxsupp"])), True),
        ("Bmin-vs-branching", f["Bmin"],
         _pow_n(fmax_prev, n, pow_(fmax_prev, _one_plus_n(n, f["maxsupp"]))), True),
        ("gmin-vs-reading", f["gmin"],
         mul(_pow_n(fmax_prev, n, f["maxsupp"]),
                      mul(f["maxposs"], pow_(f["kstar"], f["maxsupp"]))), True),
        ("gmin-vs-trunks", f["gmin"], _pow_n(fmax_prev, n, fmax_prev), True),
    ]
    if len(row.f_list) > 0 and len(row.g_list) > 1:
        checks.append(
            ("gslot-vs-fslot", row.g_list[1],
             pow_(row.f_list[0], pow_(row.f_list[0], f["kstar"])), True)
        )

    report = []
    for name, lhs, rhs, strict in checks:
        if lhs.has_ref() or rhs.has_ref():
            report.append({"item": name, "verdict": "constructor-dependent"})
            continue
        equal_required = not strict and name.endswith("formula")
        try:
            order = tower_compare(lhs, rhs)
        except Indeterminate:
            report.append({"item": name, "verdict": "indeterminate"})
            continue
        if equal_required:
            report.append({"item": name, "verdict": "holds" if order == 0 else "relaxed"})
        else:
            report.append({"item": name, "verdict": "holds" if order > 0 else "relaxed"})
    report.append({"item": "kstar-niceness", "verdict": "constructor-dependent"})
    report.append({"item": "fslot-niceness", "verdict": "constructor-dependent"})
    return report


# ---------------------------------------------------------------------------
# toy profiles
# ---------------------------------------------------------------------------


class _LevelSpec(Record):
    __slots__ = ("kstar", "slot_sizes", "height", "maxposs", "maxsupp", "gmin", "bmin")

    def __init__(self, kstar: int, slot_sizes: list, height: int, maxposs: int,
                 maxsupp: int, gmin: int, bmin: int):
        self.kstar = kstar
        self.slot_sizes = slot_sizes  # one size per selector value
        self.height = height  # plateau norm of every atomic family at this level
        self.maxposs = maxposs
        self.maxsupp = maxsupp
        self.gmin = gmin
        self.bmin = bmin


class ToyProfile:
    """Desk-scale capacity profile with per-level atomic families.

    All atomic families are plateau ladders: full norm `height` on every
    value set of size two or more.  A plateau family is never regular, and
    the counts are the caller's, so the profile honors the recursion only
    where the caller's numbers do; each transform reads the capacity it
    needs from here and checks against it.

    The profile owns its families: each level's star family and each
    (level, slot) family is built once, here, and every call hands out the
    same object, so callers must not mutate them.
    """

    def __init__(self, universe: IndexUniverse, levels: list):
        self.universe = universe
        self._levels = levels
        self._stars = [plateau_family(r.height, r.kstar, name=f"star-{n}")
                       for n, r in enumerate(levels)]
        self._slots = [
            [plateau_family(r.height, s, name=f"slot-{n}-{k}") for k, s in enumerate(r.slot_sizes)]
            for n, r in enumerate(levels)
        ]
        self._fmax = [max(r.slot_sizes) for r in levels]

    @property
    def height(self) -> int:
        return len(self._levels)

    def _row(self, n: int) -> _LevelSpec:
        """Level n's spec; n must be an int (not a bool) in range(height)."""
        if type(n) is not int or not 0 <= n < len(self._levels):
            raise UsageError(f"profile has no level {n!r}")
        return self._levels[n]

    def kstar(self, n):
        return self._row(n).kstar

    def fmax(self, n):
        self._row(n)  # refuses a missing level
        return self._fmax[n]

    def maxposs(self, n):
        return self._row(n).maxposs

    def maxsupp(self, n):
        return self._row(n).maxsupp

    def gmin(self, n):
        return self._row(n).gmin

    def bmin(self, n):
        return self._row(n).bmin

    def slot_size(self, n, k):
        self.slot_param(n, k)  # refuses a missing level or selector value
        return self._levels[n].slot_sizes[k]

    # the two hottest lookups check in their own frame and call _row only
    # to refuse a missing level

    def star_param(self, n):
        if type(n) is not int or not 0 <= n < len(self._levels):
            self._row(n)
        return self._stars[n]

    def slot_param(self, n, k):
        if type(n) is not int or not 0 <= n < len(self._levels):
            self._row(n)
        if type(k) is not int or not 0 <= k < self._levels[n].kstar:
            raise UsageError(f"selector value {k!r} out of range at level {n}")
        return self._slots[n][k]


# A count field stays below 2**_COUNT_BITS: desk scale, far past any count a
# fragment can enumerate, and far below the towers of the recursion.
_COUNT_BITS = 1 << 12
_COUNT_DEFAULTS = {"height": 9, "maxposs": 2, "maxsupp": 16, "gmin": 32, "bmin": 8}


def _size(n, s):
    """A kstar or slot size: an int (not a bool) in 1..LADDER_LIMIT."""
    if type(s) is not int:
        raise UsageError(f"level {n}: sizes must be integers, got {s!r}")
    if s < 1:
        raise UsageError(f"level {n}: sizes must be positive")
    if s > LADDER_LIMIT:
        raise SizeInfeasible(
            f"level {n}: base size {s} exceeds the subset-ladder limit; "
            "true recursion magnitudes are not materializable"
        )
    return s


def _count(n, raw, name):
    """A count field of level n (or its default): an int (not a bool) >= 0
    of at most _COUNT_BITS bits."""
    x = raw.get(name, _COUNT_DEFAULTS[name])
    if type(x) is not int or x < 0:
        raise UsageError(f"level {n}: {name} must be a nonnegative integer, got {x!r}")
    if x.bit_length() > _COUNT_BITS:
        raise SizeInfeasible(f"level {n}: {name} has more than {_COUNT_BITS} bits; "
                             "toy profiles stay at desk scale")
    return x


def make_toy_profile(spec: dict) -> ToyProfile:
    """Build a ToyProfile from a plain dict:

    {"universe": {"mu": [...], "alpha": [...], "eps_of": {...}},
     "levels": [{"kstar": int, "slot_sizes": int | [int, ...],
                 "height": int, "maxposs": int, "maxsupp": int,
                 "gmin": int, "bmin": int}, ...]}

    A key outside this shape is refused.  Every number is an int (bools
    are refused): kstar and the slot sizes positive, the other fields
    nonnegative.  Requesting true recursion magnitudes (a size past the
    subset-ladder limit, or a count field of more than _COUNT_BITS bits)
    raises SizeInfeasible.
    """
    try:
        uni = spec["universe"]
        universe = IndexUniverse(uni["mu"], uni["alpha"], uni.get("eps_of", {}))
        raw_levels = spec["levels"]
    except (KeyError, TypeError) as exc:
        raise UsageError(f"malformed profile spec: {exc}") from exc
    refuse_unread(spec, {"universe", "levels"}, "profile")
    refuse_unread(uni, {"mu", "alpha", "eps_of"}, "universe")

    levels = []
    for n, raw in enumerate(raw_levels):
        refuse_unread(raw, {"kstar", "slot_sizes", *_COUNT_DEFAULTS}, f"level {n}")
        kstar = _size(n, raw["kstar"])
        sizes = raw["slot_sizes"]
        if isinstance(sizes, int):
            sizes = [sizes] * kstar
        if len(sizes) != kstar:
            raise UsageError(f"level {n}: need one slot size per selector value")
        levels.append(_LevelSpec(kstar, [_size(n, s) for s in sizes],
                                 **{name: _count(n, raw, name) for name in _COUNT_DEFAULTS}))
    return ToyProfile(universe, levels)


def resolve_nice_size(M: int, m_max):
    """Base size of the constructed (M, m_max)-regular parameter, when one
    exists within budget; the resolution step for the symbolic kstar/f
    fields."""
    from .atomic.niceness import make_nice

    p = make_nice(M, m_max)
    return len(p.base())
