"""The capacity recursion and desk-scale profiles.

The real recursion produces, per level n, seven interlocking capacities
(maxposs, maxnor, maxsupp, Bmin, kstar, gmin, fmax plus the slot sequences
f_{n,m}, g_{n,m}).  The "set" fields are exact tower expressions; the
"pick large" fields are resolved as the minimal strict choice where
computable and carried as symbolic references otherwise (kstar and the f's
depend on a constructed regular parameter whose size no enumerable budget
reaches past level 0).  Every field carries a provenance tag.

Toy profiles replace the towers with small numbers and plateau-norm atomic
families so the creature transforms run at desk scale.  Each recursion
inequality is then re-checked and classified as holds or relaxed; a relaxed
capacity is never silently assumed downstream; the transforms take their
capacities from the profile explicitly and fail loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .atomic import plateau_family
from .atomic.niceness import make_nice
from .errors import Indeterminate, SizeInfeasible, UsageError
from .mlcore import IndexUniverse
from .tower import TowerNat, add, lit, mul, pow_, ref, tower_compare


def _sym(name: str) -> TowerNat:
    """Unbound symbolic field; comparisons involving it are refused."""
    return ref(name, env=None)

# ---------------------------------------------------------------------------
# exact rows
# ---------------------------------------------------------------------------

_PROVENANCE = ("formula-exact", "minimal-choice", "constructor-dependent", "toy-override")


@dataclass
class ParamRow:
    n: int
    fields: dict  # name -> TowerNat
    provenance: dict  # name -> provenance tag
    f_list: list = field(default_factory=list)  # slot sizes f_{n,m}, m = 0, 1
    g_list: list = field(default_factory=list)  # slot floors g_{n,m}, m = 0, 1

    def to_json(self):
        return {
            "n": self.n,
            "fields": {k: v.to_json() for k, v in self.fields.items()},
            "provenance": dict(self.provenance),
            "f_list": [v.to_json() for v in self.f_list],
            "g_list": [v.to_json() for v in self.g_list],
        }

    @staticmethod
    def from_json(obj) -> "ParamRow":
        return ParamRow(
            obj["n"],
            {k: TowerNat.from_json(v) for k, v in obj["fields"].items()},
            dict(obj["provenance"]),
            [TowerNat.from_json(v) for v in obj["f_list"]],
            [TowerNat.from_json(v) for v in obj["g_list"]],
        )


def _minimal_above(*bounds):
    """Least natural strictly above every bound: 1 + max."""
    out = bounds[0]
    for b in bounds[1:]:
        if _has_ref(out) or _has_ref(b):
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


def _has_ref(t: TowerNat) -> bool:
    obj = t.to_json()

    def walk(o):
        if isinstance(o, dict):
            if "ref" in o:
                return True
            return any(walk(a) for a in o.get("args", []))
        return False

    return walk(obj)


def params_validate(row: ParamRow, prev: ParamRow | None = None) -> list:
    """Re-check every recursion inequality on a row; one report entry per
    item, with verdict holds / relaxed / constructor-dependent."""
    n = row.n
    if prev is None and n > 0:
        prev = params_exact(n - 1)
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
        if _has_ref(lhs) or _has_ref(rhs):
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


@dataclass
class _LevelSpec:
    kstar: int
    slot_sizes: list  # one size per selector value
    height: object  # plateau norm of every atomic family at this level
    maxposs: int
    maxsupp: int
    gmin: int
    bmin: int


class ToyProfile:
    """Desk-scale capacity profile with per-level atomic families.

    All atomic families are plateau ladders: full norm `height` on every
    value set of size two or more.  The constraint report states, per
    recursion item, whether the toy numbers honor it or relax it; relaxed
    entries list the operations that must receive capacities explicitly.

    The profile owns its families: each level's star family and each
    (level, slot) family is built once, here, and every call hands out the
    same object, so callers must not mutate them.
    """

    def __init__(self, universe: IndexUniverse, levels: list, report: list):
        self.universe = universe
        self._levels = levels
        self.report = report
        self._stars = [plateau_family(r.height, r.kstar, name=f"star-{n}")
                       for n, r in enumerate(levels)]
        self._slots = [
            [plateau_family(r.height, s, name=f"slot-{n}-{k}") for k, s in enumerate(r.slot_sizes)]
            for n, r in enumerate(levels)
        ]

    @property
    def height(self) -> int:
        return len(self._levels)

    def _row(self, n: int) -> _LevelSpec:
        try:
            return self._levels[n]
        except IndexError:
            raise UsageError(f"profile has no level {n}") from None

    def kstar(self, n):
        return self._row(n).kstar

    def fmax(self, n):
        return max(self._row(n).slot_sizes)

    def maxposs(self, n):
        return self._row(n).maxposs

    def maxsupp(self, n):
        return self._row(n).maxsupp

    def gmin(self, n):
        return self._row(n).gmin

    def bmin(self, n):
        return self._row(n).bmin

    def slot_size(self, n, k):
        row = self._row(n)
        if not 0 <= k < row.kstar:
            raise UsageError(f"selector value {k} out of range at level {n}")
        return row.slot_sizes[k]

    def star_param(self, n):
        self._row(n)  # refuses a missing level
        return self._stars[n]

    def slot_param(self, n, k):
        self.slot_size(n, k)  # refuses a missing level or selector value
        return self._slots[n][k]

    def describe(self):
        return json.dumps(
            {
                "levels": [
                    {
                        "kstar": r.kstar,
                        "slots": r.slot_sizes,
                        "height": str(r.height),
                        "maxposs": r.maxposs,
                        "maxsupp": r.maxsupp,
                        "gmin": r.gmin,
                        "bmin": r.bmin,
                    }
                    for r in self._levels
                ],
                "mu": sorted(self.universe.mu_part, key=str),
                "alpha": sorted(self.universe.alpha_part, key=str),
            },
            sort_keys=True,
        )


_RELAX_CONSUMERS = {
    "maxposs-formula": ["poss_enumerate", "ml_homogenize", "pull_back_labelling"],
    "maxnor-formula": ["ml_enlarge", "check_nice"],
    "maxsupp-formula": ["ml_merge", "ml_enlarge"],
    "Bmin-vs-support": ["cond_separate_support"],
    "gmin-vs-reading": ["cover_step"],
    "slot-niceness": ["ml_homogenize", "evade_step"],
}


def make_toy_profile(spec: dict) -> ToyProfile:
    """Build a ToyProfile from a plain dict:

    {"universe": {"mu": [...], "alpha": [...], "eps_of": {...}},
     "levels": [{"kstar": int, "slot_sizes": int | [int, ...],
                 "height": int, "maxposs": int, "maxsupp": int,
                 "gmin": int, "bmin": int}, ...]}

    Requesting true recursion magnitudes (any size past the explicit
    enumeration limit) raises SizeInfeasible.
    """
    try:
        uni = spec["universe"]
        universe = IndexUniverse(uni["mu"], uni["alpha"], uni.get("eps_of", {}))
        raw_levels = spec["levels"]
    except (KeyError, TypeError) as exc:
        raise UsageError(f"malformed profile spec: {exc}") from exc

    levels = []
    for n, raw in enumerate(raw_levels):
        sizes = raw["slot_sizes"]
        if isinstance(sizes, int):
            sizes = [sizes] * raw["kstar"]
        if len(sizes) != raw["kstar"]:
            raise UsageError(f"level {n}: need one slot size per selector value")
        for s in list(sizes) + [raw["kstar"]]:
            if s < 1:
                raise UsageError(f"level {n}: sizes must be positive")
            if s > 16:
                raise SizeInfeasible(
                    f"level {n}: base size {s} exceeds the subset-ladder limit; "
                    "true recursion magnitudes are not materializable"
                )
        levels.append(
            _LevelSpec(
                kstar=raw["kstar"],
                slot_sizes=list(sizes),
                height=raw.get("height", 9),
                maxposs=raw.get("maxposs", 2),
                maxsupp=raw.get("maxsupp", 16),
                gmin=raw.get("gmin", 32),
                bmin=raw.get("bmin", 8),
            )
        )

    report = _toy_report(levels)
    return ToyProfile(universe, levels, report)


def _toy_report(levels) -> list:
    """Classify each recursion item on the toy numbers."""
    report = []
    fmax_prev, maxsupp_prev = 1, 1
    for n, row in enumerate(levels):
        fmax = max(row.slot_sizes)

        def entry(item, holds, margin):
            report.append(
                {
                    "level": n,
                    "item": item,
                    "verdict": "holds" if holds else f"relaxed({margin})",
                    "requires_explicit_capacity": [] if holds else _RELAX_CONSUMERS.get(item, []),
                }
            )

        need = 1 + fmax_prev ** (n * maxsupp_prev)
        entry("maxposs-formula", row.maxposs >= need, row.maxposs - need)
        need = 1 + 2 ** (n * row.maxposs)
        # the plateau height stands in for maxnor
        entry("maxnor-formula", row.height >= need, row.height - need)
        need = 1 + 2 ** row.height
        entry("maxsupp-formula", row.maxsupp >= need, row.maxsupp - need)
        need = 2 * row.maxsupp ** 2
        entry("Bmin-vs-support", row.bmin > need, row.bmin - need - 1)
        need = fmax_prev ** (n * maxsupp_prev) * row.maxposs * row.kstar ** min(row.maxsupp, 8)
        entry("gmin-vs-reading", row.gmin > need, row.gmin - need - 1)
        # a plateau family is never Bmin-regular: its small blocks keep no
        # norm, so the niceness items are relaxed by construction
        entry("slot-niceness", False, "plateau")
        fmax_prev, maxsupp_prev = fmax, row.maxsupp
    return report


def resolve_nice_size(M: int, m_max):
    """Base size of the constructed (M, m_max)-regular parameter, when one
    exists within budget; the resolution step for the symbolic kstar/f
    fields."""
    p = make_nice(M, m_max)
    return len(p.base())
