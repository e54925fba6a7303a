"""Finite condition fragments and the fragment-level transform algorithms.

A fragment is a trunk (explicit values below a cut) plus one level creature
per level from the cut up to a finite height.  Supports grow with the level;
an index entering the support at level n has its earlier values recorded in
the trunk.  On top of the fragment calculus (poss, order, conjunction with a
possibility) this module implements the transform pipeline:

- cond_separate_support: make the selector value sets pairwise disjoint
  across the mu-indices of every level.
- pull_back_labelling / rapid_read: push the decision height of a labelling
  (or of a name table) down by per-level homogenization.
- halving_step: one oracle-driven decide-or-halve sweep over the trunk
  possibilities at a cut.
- cover_step / evade_step: read a name's level value into a small value
  table keyed by one selector block, then shrink another index's slots so
  its values avoid the table.

Every transform replays its post-condition by enumeration before returning,
and every norm bound is checked exactly on the z-scale (no floats).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import itemgetter

from .errors import (
    CapacityExceeded,
    DependsOnBeta,
    DomainMismatch,
    ModulusTooDeep,
    NormTooSmall,
    NotSeparated,
    OracleInconsistent,
    PreconditionFailed,
    UsageError,
)
from .atomic.base import ENUM_CAP, unique_dict
from .atomic.ops import disjoint_successors
from .logreal import as_fraction
from .records import Record
from .mlcore import (
    MlCreature,
    Possibility,
    _level_count,
    _level_rows,
    _prune_orphan_slots,
    ml_halve,
    ml_homogenize,
    ml_norm_cmp,
    ml_successor_check,
    ml_validate,
    poss_enumerate,
)

# ---------------------------------------------------------------------------
# fragments
# ---------------------------------------------------------------------------


class FiniteCondition(Record):
    """Trunk + creatures for levels trnklg <= n < height.

    trunk maps cells (m, i) to values and covers, for every index i in the
    domain, exactly the levels m below the level where i enters the support.
    floors optionally declares a norm floor per level, checked by the
    validator; it makes explicit which infinite condition the fragment
    approximates.
    """

    __slots__ = ("trnklg", "height", "trunk", "creatures", "floors")

    def __init__(self, trnklg: int, height: int, trunk: dict, creatures: dict,
                 floors: dict | None = None):
        self.trnklg = trnklg
        self.height = height
        self.trunk = trunk  # (m, i) -> value
        self.creatures = creatures  # n -> MlCreature
        self.floors = {} if floors is None else floors  # n -> Fraction norm floor

    def copy(self) -> "FiniteCondition":
        return FiniteCondition(
            self.trnklg,
            self.height,
            dict(self.trunk),
            {n: c.copy() for n, c in self.creatures.items()},
            dict(self.floors),
        )

    @property
    def levels(self):
        return range(self.trnklg, self.height)

    def supp(self, n) -> frozenset:
        """Support at level n, clamped to the fragment's level range."""
        return self.creatures[min(max(n, self.trnklg), self.height - 1)].u

    @property
    def dom(self) -> frozenset:
        return self.supp(self.height - 1)

    def entry_level(self, i) -> int:
        for n in self.levels:
            if i in self.creatures[n].u:
                return n
        raise DomainMismatch(f"{i!r} is not in the fragment's domain")

    def to_json(self):
        return {
            "trnklg": self.trnklg,
            "height": self.height,
            "trunk": [[m, i, v] for (m, i), v in sorted(
                self.trunk.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))],
            "creatures": {
                str(n): {k: v for k, v in c.to_json().items() if k != "n"}
                for n, c in self.creatures.items()
            },
            "floors": [[n, str(f)] for n, f in sorted(self.floors.items())],
        }

    @staticmethod
    def from_json(obj) -> "FiniteCondition":
        creatures = unique_dict(((int(n), MlCreature.from_json(c, int(n)))
                                 for n, c in obj["creatures"].items()), "creature level")
        return FiniteCondition(
            obj["trnklg"],
            obj["height"],
            unique_dict((((m, i), v) for m, i, v in obj["trunk"]), "trunk cell"),
            creatures,
            unique_dict(((n, as_fraction(f)) for n, f in obj.get("floors", [])),
                        "norm floor level"),
        )


def cond_validate(p: FiniteCondition, profile) -> None:
    """Raise on any fragment shape violation; silent when p is well-formed."""
    if type(p.trnklg) is not int or type(p.height) is not int:
        raise UsageError("trnklg and height must be integers")
    if not 0 <= p.trnklg < p.height:
        raise UsageError("need 0 <= trnklg < height")
    # lengths first: a huge height must not build its level set
    if len(p.creatures) != len(p.levels) or set(p.creatures) != set(p.levels):
        raise DomainMismatch("one creature per level from trnklg to height-1")
    U = profile.universe
    prev = None
    for n in p.levels:
        c = p.creatures[n]
        if c.n != n:
            raise DomainMismatch(f"creature at level {n} is labelled {c.n}")
        ml_validate(c, profile)
        if prev is not None and not prev <= c.u:
            raise DomainMismatch(f"support must not shrink at level {n}")
        prev = c.u
    cells = {
        (m, i) for i in p.dom for m in range(p.entry_level(i))
    }
    if set(p.trunk) != cells:
        raise DomainMismatch("trunk must cover exactly the below-entry cells")
    for (m, i), v in p.trunk.items():
        size = profile.kstar(m) if U.is_mu(i) else profile.fmax(m)
        if type(v) is not int or not 0 <= v < size:
            raise DomainMismatch(f"trunk value {v!r} at {(m, i)} out of range")
    if not p.floors.keys() <= set(p.levels):
        raise DomainMismatch("norm floors must name levels of the fragment")
    for n, floor in p.floors.items():
        if ml_norm_cmp(p.creatures[n], n, profile, floor) <= 0:
            raise NormTooSmall(f"declared norm floor fails at level {n}")
    # |poss(p, n)| is the product of the row counts of the levels below n
    count = 1
    for n in p.levels:
        if count >= profile.maxposs(n):
            raise CapacityExceeded(f"possibility count at level {n} reaches maxposs")
        count *= _level_count(p.creatures[n], profile)


# ---------------------------------------------------------------------------
# poss and order
# ---------------------------------------------------------------------------


def _level_rules(p: FiniteCondition, m: int, cols, profile) -> list:
    """The local characterization of poss at level m, over rows of values in
    cols order, as (column, None, allowed values) for a trunk or selector
    cell and (column, selector column, {selector value: allowed values})
    for a slot cell: an index's cells below its entry level hold its trunk
    values, and each cell above lies in the value set of its level's
    creature (for an alpha, of the slot its selector's value picks)."""
    U, c = profile.universe, p.creatures.get(m)  # no creature below the cut
    if c is None:
        return [(j, None, {p.trunk[m, i]}) for j, i in enumerate(cols)]
    star, families, slots = profile.star_param(m), {}, {}
    for (a, s), w in c.w_alpha.items():
        if s not in families:
            families[s] = profile.slot_param(m, s)
        slots.setdefault(a, {})[s] = families[s].val(w)
    at = {i: j for j, i in enumerate(cols)}
    return [(j, None, {p.trunk[m, i]}) if i not in c.u
            else (j, None, star.val(c.w_eps[i])) if U.is_mu(i)
            else (j, at[U.eps_of[i]], slots.get(i, {}))
            for j, i in enumerate(cols)]


class PossSpace:
    """poss(p, n) over cols, supp(p, n) sorted by str: the trunk times the
    product of the level creatures' rows, earlier levels varying slowest (an
    index that enters later reads its cells from the trunk).  A space reads
    each level's rules (_level_rules) when built and its rows on the first
    read of levels, which checks each level's row set once against its
    rules: each rule reads one level, so a branch passes iff its rows do (a
    level without rows leaves no branch to check).  len, lazy iteration,
    space[k] and `nu in space` (the rules alone) cap nothing.  A space
    reads p when read, so a caller consumes it before mutating p."""

    __slots__ = ("p", "n", "profile", "cols", "rules", "_levels")

    def __init__(self, p: FiniteCondition, n: int, profile):
        if not 0 <= n <= p.height:
            raise UsageError(f"height {n} outside [0, {p.height}]")
        self.p, self.n, self.profile, self._levels = p, n, profile, None
        self.cols = tuple(sorted(p.supp(n), key=str))
        self.rules = [_level_rules(p, m, self.cols, profile) for m in range(n)]

    @property
    def levels(self) -> list:
        """The rows over cols of each level below n."""
        if self._levels is None:
            p, cols = self.p, self.cols
            levels = [[tuple(p.trunk[m, i] for i in cols)] if m < p.trnklg
                      else _level_rows(p.creatures[m], cols, self.profile,
                                       [(i, p.trunk[m, i]) for i in cols if (m, i) in p.trunk])
                      for m in range(self.n)]
            for m, rows in enumerate(levels) if all(levels) else ():
                for j, sel, ok in self.rules[m]:
                    seen = set(map(itemgetter(j) if sel is None else itemgetter(sel, j), rows))
                    if not (seen <= ok if sel is None else all(v in ok.get(k, ()) for k, v in seen)):
                        raise UsageError(f"characterizations disagree at level {m}, index {cols[j]!r}")
            self._levels = levels
        return self._levels

    def __len__(self) -> int:
        return math.prod(map(len, self.levels))

    def __iter__(self):
        n, cols = self.n, self.cols
        return (Possibility((n, cols, sum(rows, ()))) for rows in itertools.product(*self.levels))

    def __getitem__(self, k: int) -> Possibility:
        """The k-th branch in iteration order: k in mixed radix, the last level fastest."""
        if not 0 <= k < len(self):
            raise IndexError(f"branch {k} outside [0, {len(self)})")
        rows = []
        for level in reversed(self.levels):
            k, r = divmod(k, len(level))
            rows.append(level[r])
        return Possibility((self.n, self.cols, sum(reversed(rows), ())))

    def __contains__(self, nu: Possibility) -> bool:
        n, cols, v = nu
        if n != self.n or cols != self.cols:
            return False
        for b, rules in zip(range(0, n * len(cols), len(cols)), self.rules):
            for j, sel, ok in rules:
                if v[b + j] not in (ok if sel is None else ok.get(v[b + sel], ())):
                    return False
        return True


def cond_poss(p: FiniteCondition, n: int, profile, method="inductive"):
    """poss(p, n) over supp(p, n): for "inductive" the PossSpace, refused past
    ENUM_CAP branches (the only cap on the branch product); for "local" the
    list of raw trunks that pass the local characterization alone."""
    space = PossSpace(p, n, profile)
    if method == "local":
        return [nu for nu in poss_enumerate(n, p.supp(n), profile) if nu in space]
    if method != "inductive":
        raise UsageError(f"unknown method {method!r}")
    if len(space) > ENUM_CAP:
        raise CapacityExceeded("possibility walk exceeds the enumeration cap")
    return space


def cond_poss_contains(p: FiniteCondition, nu: Possibility, profile) -> bool:
    """Is nu in poss(p, nu.n)?  Decided by the local characterization."""
    return nu in PossSpace(p, nu.n, profile)


def cond_leq(q: FiniteCondition, p: FiniteCondition, profile):
    """Is q a strengthening of p?  Returns (ok, diagnostics); the four
    clauses are domain growth, support agreement over p's domain, creature
    successorship, and trunk membership in poss(p, h), where q's trunk is cut
    to h, the lower of trnklg(q) and p's height."""
    diagnostics = []
    if q.trnklg < p.trnklg:
        diagnostics.append("trunk length must not decrease")
        return False, diagnostics
    if not p.dom <= q.dom:
        diagnostics.append("domain must not shrink")
    top = min(q.height, p.height)
    for n in range(q.trnklg, top):
        if q.supp(n) & p.dom != p.supp(n):
            diagnostics.append(f"support over p's domain differs at level {n}")
    for n in range(q.trnklg, top):
        ok, diag = ml_successor_check(q.creatures[n], p.creatures[n], n, profile)
        if not ok:
            diagnostics.append(f"level {n}: {'; '.join(diag)}")
    h = min(q.trnklg, p.height)
    want = p.supp(h)
    cells = {(m, i): q.trunk.get((m, i)) for m in range(h) for i in want}
    if None in cells.values():
        diagnostics.append("trunk does not cover p's support at the cut")
    elif not cond_poss_contains(p, Possibility.make(h, want, cells), profile):
        diagnostics.append("trunk is not a possibility of p")
    return not diagnostics, diagnostics


def cond_and(p: FiniteCondition, eta: Possibility, n: int, u, profile) -> FiniteCondition:
    """Conjunction with a possibility: raise the trunk cut to n and overwrite
    the trunk by eta on n x u; untouched cells keep p's values verbatim."""
    u = frozenset(u)
    if not p.trnklg <= n < p.height:
        raise DomainMismatch(f"cut {n} outside [{p.trnklg}, {p.height})")
    low = p.supp(n - 1) if n > p.trnklg else frozenset()
    if not (low <= u <= p.dom):
        raise DomainMismatch("u must sit between the lower support and the domain")
    if eta.n != n or eta.u != u:
        raise DomainMismatch("eta must be a height-n possibility over u")
    trunk = {
        cell: v for cell, v in p.trunk.items() if not (cell[1] in u and cell[0] < n)
    }
    trunk.update(eta.as_dict())
    q = FiniteCondition(
        n,
        p.height,
        trunk,
        {m: p.creatures[m].copy() for m in range(n, p.height)},
        {m: f for m, f in p.floors.items() if m >= n},
    )
    cond_validate(q, profile)
    return q


# ---------------------------------------------------------------------------
# separated support
# ---------------------------------------------------------------------------


def cond_separate_support(p: FiniteCondition, profile) -> FiniteCondition:
    """Shrink the selector creatures of every level until their value sets
    are pairwise disjoint across the level's mu-indices."""
    q = p.copy()
    U = profile.universe
    for n in q.levels:
        c = q.creatures[n]
        mus = sorted((i for i in c.u if U.is_mu(i)), key=str)
        pairs = len(mus) * (len(mus) - 1) // 2
        if 2 * pairs >= profile.bmin(n):
            raise NormTooSmall(
                f"level {n}: {pairs} selector pairs exhaust the disjointness budget"
            )
        star = profile.star_param(n)
        x = Fraction(2, profile.bmin(n))
        for a, b in itertools.combinations(mus, 2):
            c.w_eps[a], c.w_eps[b] = disjoint_successors(star, c.w_eps[a], c.w_eps[b], x)
        _prune_orphan_slots(c, profile)
        ml_validate(c, profile)
        ok, diag = ml_successor_check(c, p.creatures[n], n, profile)
        if not ok:
            raise NormTooSmall(f"level {n} separation fails replay: {diag}")
        if not cond_is_separated(q, n, profile):
            raise NotSeparated(f"level {n}: selector value sets still overlap after separation")
    ok, diag = cond_leq(q, p, profile)
    if not ok:
        raise NormTooSmall(f"separated fragment fails order replay: {diag}")
    return q


def cond_is_separated(p: FiniteCondition, n: int, profile) -> bool:
    c = p.creatures[n]
    star = profile.star_param(n)
    U = profile.universe
    vals = [star.val(c.w_eps[i]) for i in sorted(c.u, key=str) if U.is_mu(i)]
    return all(x.isdisjoint(y) for x, y in itertools.combinations(vals, 2))


# ---------------------------------------------------------------------------
# name tables, pull-back, rapid reading
# ---------------------------------------------------------------------------


class NameTable(Record):
    """A continuous name with an explicit decision modulus: the level-n value
    is a function of the possibility at height modulus[n]."""

    __slots__ = ("modulus", "values", "bound")

    def __init__(self, modulus: dict, values: dict, bound: dict):
        self.modulus = modulus  # n -> decision height h(n)
        self.values = values  # n -> {Possibility at height h(n): value}
        self.bound = bound  # n -> values at level n lie in range(bound[n])

    def levels(self):
        return sorted(self.values)

    def to_json(self):
        return {
            "modulus": [[n, h] for n, h in sorted(self.modulus.items())],
            "bound": [[n, b] for n, b in sorted(self.bound.items())],
            "values": {
                str(n): [[nu.to_json(), v] for nu, v in sorted(
                    tbl.items(), key=lambda kv: kv[0].values)]
                for n, tbl in self.values.items()
            },
        }

    @staticmethod
    def from_json(obj) -> "NameTable":
        return NameTable(
            unique_dict(((n, h) for n, h in obj["modulus"]), "modulus level"),
            unique_dict((
                (int(n), unique_dict(((Possibility.from_json(nu), v) for nu, v in tbl),
                                     f"level-{n} possibility"))
                for n, tbl in obj["values"].items()), "values level"),
            unique_dict(((n, b) for n, b in obj["bound"]), "bound level"),
        )


def name_validate(r: NameTable, p: FiniteCondition, profile) -> None:
    """Raise on a table that is no name over p; silent when r is one.  A
    decision height past the fragment is ModulusTooDeep, checked first."""
    for n, h in r.modulus.items():
        if h > p.height:
            raise ModulusTooDeep(f"h({n}) = {h} exceeds the fragment height")
    if not set(r.modulus) == set(r.values) == set(r.bound):
        raise DomainMismatch("modulus, values and bound must share their levels")
    hs = [r.modulus[n] for n in r.levels()]
    if any(b > a for a, b in zip(hs[1:], hs)):
        raise DomainMismatch("the decision modulus must be non-decreasing")
    for n in r.levels():
        keys = set(r.values[n])
        want = set(cond_poss(p, r.modulus[n], profile))
        if keys != want:
            raise DomainMismatch(f"level {n} table keys differ from poss at h({n})")
        if not all(0 <= v < r.bound[n] for v in r.values[n].values()):
            raise DomainMismatch(f"level {n} values leave the declared bound")


def name_value(r: NameTable, n: int, nu: Possibility, p: FiniteCondition, profile):
    """The decided level-n value along a branch of height >= modulus[n]."""
    h = r.modulus[n]
    key = nu.restrict_height(h).restrict_indices(p.supp(h))
    return r.values[n][key]


def name_decided_at(r: NameTable, n: int, t: int, p: FiniteCondition, profile) -> bool:
    """Does the level-n value factor through the height-t possibility?"""
    if t >= r.modulus[n]:
        return True
    seen = {}
    for nu in cond_poss(p, r.modulus[n], profile):
        key = nu.restrict_height(t).restrict_indices(p.supp(t))
        v = r.values[n][nu]
        if seen.setdefault(key, v) != v:
            return False
    return True


_OUTSIDE = object()  # labelling value for trunks outside poss(p, .)


def pull_back_labelling(p: FiniteCondition, M: int, n: int, psi: dict, profile):
    """Shrink levels M..n-1 so the labelling psi on poss(p, n) factors
    through the height-M possibility.  Returns (q, psi_M)."""
    if not p.trnklg <= M <= n <= p.height:
        raise UsageError("need trnklg <= M <= n <= height")
    if set(psi) != set(cond_poss(p, n, profile)):
        raise DomainMismatch("psi must be keyed by poss(p, n) exactly")
    q = p.copy()
    psi_next = dict(psi)
    for l in range(n - 1, M - 1, -1):
        c = q.creatures[l]
        # indices entering at l + 1 hold trunk values below it: cutting them loses nothing
        psi_cut = {nu.restrict_indices(c.u): v for nu, v in psi_next.items()}

        def G(nu):
            return psi_cut.get(nu, _OUTSIDE)

        range_size = len(set(psi_next.values())) + 1
        shrunk, gp = ml_homogenize(c, l, profile, G, range_size)
        q.creatures[l] = shrunk
        psi_next = {eta: gp[eta] for eta in cond_poss(q, l, profile)}
    ok, diag = cond_leq(q, p, profile)
    if not ok:
        raise CapacityExceeded(f"pull-back fails order replay: {diag}")
    for nu in cond_poss(q, n, profile):
        key = nu.restrict_height(M).restrict_indices(q.supp(M))
        if psi[nu] != psi_next[key]:
            raise CapacityExceeded(f"pull-back replay failed at {nu}")
    return q, psi_next


def rapid_read(p: FiniteCondition, M: int, r: NameTable, profile) -> FiniteCondition:
    """Strengthen p above M so that, for every n > M, the name values at
    levels <= n are decided by the height-n possibility."""
    if not p.trnklg <= M < p.height:
        raise UsageError("cut M outside the fragment")
    name_validate(r, p, profile)
    q = p
    for n in sorted(r.levels(), reverse=True):
        target = max(n, M + 1)
        if r.modulus[n] <= target:
            continue
        psi = {
            nu: r.values[n][nu]
            for nu in cond_poss(q, r.modulus[n], profile)
        }
        q, _ = pull_back_labelling(q, target, r.modulus[n], psi, profile)
    for n in r.levels():
        if not name_decided_at(r, n, max(n, M + 1), q, profile):
            raise CapacityExceeded(f"rapid-reading replay failed at level {n}")
    return q


# ---------------------------------------------------------------------------
# halving step
# ---------------------------------------------------------------------------


def halving_step(p: FiniteCondition, M: int, n_floor, oracle, profile):
    """One decide-or-halve sweep: for each possibility at the cut, either
    adopt an oracle witness (decide) or halve every creature above the cut.
    Returns (q, case_log)."""
    if not p.trnklg <= M < p.height:
        raise UsageError("cut M outside the fragment")
    n_floor = as_fraction(n_floor)
    if n_floor < 1:
        raise UsageError("the norm floor must be at least 1")
    for m in range(M, p.height):
        if ml_norm_cmp(p.creatures[m], m, profile, n_floor) <= 0:
            raise PreconditionFailed(f"norm floor {n_floor} fails at level {m}")

    q = p.copy()
    case_log = []
    for eta in cond_poss(p, M, profile):
        candidate = cond_and(q, eta, M, q.supp(M), profile)
        witness = oracle(candidate)
        if witness is None:
            for m in range(M, q.height):
                q.creatures[m] = ml_halve(q.creatures[m], m, profile)
            case_log.append(("half", eta))
            continue
        ok, diag = cond_leq(witness, candidate, profile)
        if not ok:
            raise OracleInconsistent(f"witness fails order replay: {diag}")
        if witness.height != q.height or witness.dom != q.dom:
            raise OracleInconsistent("witness must keep the fragment's shape")
        for m in range(M, q.height):
            if witness.supp(m) != q.supp(m):
                raise OracleInconsistent(f"witness changes the support at level {m}")
            if ml_norm_cmp(witness.creatures[m], m, profile, n_floor - 1) <= 0:
                raise OracleInconsistent(f"witness norm below {n_floor - 1} at level {m}")
        for m in range(M, q.height):
            q.creatures[m] = witness.creatures[m].copy()
        case_log.append(("dec", eta))

    for m in range(M, q.height):
        if ml_norm_cmp(q.creatures[m], m, profile, n_floor - 1) <= 0:
            raise NormTooSmall(f"halving sweep fell below {n_floor - 1} at level {m}")
    ok, diag = cond_leq(q, p, profile)
    if not ok:
        raise OracleInconsistent(f"sweep result fails order replay: {diag}")
    return q, case_log


# ---------------------------------------------------------------------------
# cover and evade
# ---------------------------------------------------------------------------


def _selector_block(p: FiniteCondition, n: int, eps0, profile) -> list:
    U = profile.universe
    if eps0 not in p.supp(n) or not U.is_mu(eps0):
        raise DomainMismatch(f"{eps0!r} is not a level-{n} selector index")
    block = [eps0] + sorted(
        (a for a in p.supp(n) if not U.is_mu(a) and U.eps_of[a] == eps0), key=str
    )
    return block


def _block_key(block, cols, m):
    """Reads the block's (index, value) pairs at level m of values over cols."""
    at = [m * len(cols) + cols.index(i) for i in block]
    return lambda vals: tuple(zip(block, map(vals.__getitem__, at)))


def cover_step(p: FiniteCondition, n: int, r: NameTable, eps0, profile):
    """Tabulate the decided level-n name value against the level-n values of
    one selector block.  Returns (q_n, Y) with Y small per block key."""
    if n not in p.levels:
        raise UsageError(f"level {n} outside the fragment")
    if not cond_is_separated(p, n, profile):
        raise NotSeparated(f"level {n} selector value sets overlap")
    if n not in r.modulus:
        raise UsageError(f"the name table has no level-{n} entry")
    if r.modulus[n] > n + 1:
        raise ModulusTooDeep(f"the level-{n} value must be decided at height {n + 1}")
    if ml_norm_cmp(p.creatures[n], n, profile, 2) <= 0:
        raise PreconditionFailed(f"cover needs norm above 2 at level {n}")
    block = _selector_block(p, n, eps0, profile)
    key_of = _block_key(block, tuple(sorted(p.supp(n + 1), key=str)), n)
    table = {}
    for nu in cond_poss(p, n + 1, profile):  # at modulus n + 1, nu is name_value's key
        try:
            v = r.values[n][nu] if r.modulus[n] == n + 1 else name_value(r, n, nu, p, profile)
        except KeyError as exc:
            raise DomainMismatch(f"the name table has no level-{n} value at {nu}") from exc
        table.setdefault(key_of(nu.vals), set()).add(v)
    g = profile.gmin(n)
    for key, vals in table.items():
        if len(vals) >= g:
            raise CapacityExceeded(
                f"cover table holds {len(vals)} values at {key}, bound {g}"
            )
    Y = {"level": n, "indices": list(block), "table": {k: sorted(v) for k, v in table.items()}}
    return p.creatures[n].copy(), Y


def cover_validate(Y: dict, p: FiniteCondition, profile) -> None:
    """Raise DomainMismatch unless every key of the cover table Y gives its
    indices values that some level-n row of p gives them: each (index,
    value) pair passes level n's rules over the indices, which must be
    eps-closed so that a slot's rule reads its selector in the key.  No row
    is built."""
    n, block = Y["level"], Y["indices"]
    if not profile.universe.is_closed(block):
        raise DomainMismatch(f"the cover table's indices {block} are not eps-closed")
    rules = _level_rules(p, n, block, profile)
    for key in Y["table"]:
        v = [x for _, x in key]
        if not all(v[j] in (ok if sel is None else ok.get(v[sel], ())) for j, sel, ok in rules):
            raise DomainMismatch(f"table key {key} is no level-{n} row's values")


def evade_step(p: FiniteCondition, n: int, Y: dict, beta, profile) -> MlCreature:
    """Shrink beta's slot creatures at level n so that every branch value at
    beta avoids the cover table along its own branch.

    Evading reads only level-n cells, so both walks go over the creature's
    rows: each lies on a branch, as poss(p, n) is nonempty for a validated
    fragment (were it empty, rows would forbid more, never less)."""
    U = profile.universe
    if n not in p.levels or Y.get("level") != n:
        raise UsageError("Y must cover the requested level")
    if not {"indices", "table"} <= Y.keys():
        raise UsageError("Y must hold the cover's indices and table")
    block = Y["indices"]
    if beta in block:
        raise DependsOnBeta(f"the cover table reads {beta!r}'s slot")
    if U.is_mu(beta) or beta not in p.supp(n):
        raise DomainMismatch(f"{beta!r} is not a level-{n} slot index")
    if not set(block) <= p.supp(n):
        raise DomainMismatch(f"the cover table's indices are not level-{n} support indices")
    if ml_norm_cmp(p.creatures[n], n, profile, 2) <= 0:
        raise PreconditionFailed(f"evading needs norm above 2 at level {n}")

    c = p.creatures[n].copy()
    cols = tuple(sorted(c.u, key=str))
    key_of, table = _block_key(block, cols, 0), Y["table"]
    sel = U.eps_of[beta]
    at_sel, at_beta = cols.index(sel), cols.index(beta)
    # per selector value of beta's star, the values the branch table can
    # force anywhere; beta's slot must outsize this union
    forbidden = {k: set() for k in profile.star_param(n).val(c.w_eps[sel])}
    for row in _level_rows(p.creatures[n], cols, profile):
        forbidden[row[at_sel]].update(table.get(key_of(row), ()))
    for k, bad in sorted(forbidden.items()):
        slot = profile.slot_param(n, k)
        w = c.w_alpha[(beta, k)]
        keep = slot.val(w) - bad
        if not keep:
            raise CapacityExceeded(
                f"the table exhausts beta's slot at selector value {k}"
            )
        v = slot.best_successor_within(w, frozenset(keep))
        if v is None:
            raise CapacityExceeded(
                f"no successor of beta's slot avoids the table at {k}"
            )
        c.w_alpha[(beta, k)] = v
    ml_validate(c, profile)
    ok, diag = ml_successor_check(c, p.creatures[n], n, profile)
    if not ok:
        raise CapacityExceeded(f"evading fails successor replay: {diag}")

    for row in _level_rows(c, cols, profile):
        if row[at_beta] in table.get(key_of(row), ()):
            raise CapacityExceeded(f"evading replay failed at level-{n} row {dict(zip(cols, row))}")
    return c
