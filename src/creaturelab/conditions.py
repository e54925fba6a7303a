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

from dataclasses import dataclass, field
from fractions import Fraction

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
from .atomic.ops import disjoint_successors
from .logreal import LogReal
from .mlcore import (
    MlCreature,
    Possibility,
    ml_halve,
    ml_homogenize,
    ml_nor_z,
    ml_norm_cmp,
    ml_successor_check,
    ml_val,
    ml_validate,
    poss_enumerate,
)

_POSS_CAP = 1 << 20  # largest possibility set any fragment walk materializes


def _id_from_json(v):
    return tuple(_id_from_json(x) for x in v) if isinstance(v, list) else v


# ---------------------------------------------------------------------------
# fragments
# ---------------------------------------------------------------------------


@dataclass
class FiniteCondition:
    """Trunk + creatures for levels trnklg <= n < height.

    trunk maps cells (m, i) to values and covers, for every index i in the
    domain, exactly the levels m below the level where i enters the support.
    floors optionally declares a norm floor per level, checked by the
    validator; it makes explicit which infinite condition the fragment
    approximates.
    """

    trnklg: int
    height: int
    trunk: dict  # (m, i) -> value
    creatures: dict  # n -> MlCreature
    floors: dict = field(default_factory=dict)  # n -> Fraction norm floor

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

    def trunk_possibility(self) -> Possibility:
        """The trunk as a height-trnklg possibility over the base support."""
        u = self.supp(self.trnklg)
        cells = {(m, i): self.trunk[(m, i)] for i in u for m in range(self.trnklg)}
        return Possibility.make(self.trnklg, u, cells)

    def to_json(self):
        return {
            "trnklg": self.trnklg,
            "height": self.height,
            "trunk": [[m, i, v] for (m, i), v in sorted(
                self.trunk.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))],
            "creatures": {
                str(n): {
                    "u": sorted(c.u, key=str),
                    "w_eps": [[i, w] for i, w in sorted(c.w_eps.items(), key=lambda kv: str(kv[0]))],
                    "w_alpha": [[a, k, w] for (a, k), w in sorted(
                        c.w_alpha.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))],
                    "d": c.d.to_json(),
                }
                for n, c in self.creatures.items()
            },
            "floors": [[n, str(f)] for n, f in sorted(self.floors.items())],
        }

    @staticmethod
    def from_json(obj) -> "FiniteCondition":
        creatures = {}
        for n_str, c in obj["creatures"].items():
            n = int(n_str)
            creatures[n] = MlCreature(
                n,
                frozenset(c["u"]),
                {i: _id_from_json(w) for i, w in c["w_eps"]},
                {(a, k): _id_from_json(w) for a, k, w in c["w_alpha"]},
                LogReal.from_json(c["d"]),
            )
        return FiniteCondition(
            obj["trnklg"],
            obj["height"],
            {(m, i): v for m, i, v in obj["trunk"]},
            creatures,
            {n: Fraction(f) for n, f in obj.get("floors", [])},
        )


def cond_validate(p: FiniteCondition, profile) -> None:
    """Raise on any fragment shape violation; silent when p is well-formed."""
    if not 0 <= p.trnklg < p.height:
        raise UsageError("need 0 <= trnklg < height")
    if set(p.creatures) != set(p.levels):
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
        if not 0 <= v < size:
            raise DomainMismatch(f"trunk value {v} at {(m, i)} out of range")
    for n, floor in p.floors.items():
        if ml_norm_cmp(p.creatures[n], n, profile, floor) <= 0:
            raise NormTooSmall(f"declared norm floor fails at level {n}")
    for n in p.levels:
        if len(cond_poss(p, n, profile)) >= profile.maxposs(n):
            raise CapacityExceeded(f"possibility count at level {n} reaches maxposs")


# ---------------------------------------------------------------------------
# poss and order
# ---------------------------------------------------------------------------


def _lift(nu: Possibility, u2: frozenset, trunk: dict) -> Possibility:
    """Grow a possibility's index set, filling new cells from the trunk."""
    if nu.u == u2:
        return nu
    cells = nu.as_dict()
    for i in u2 - nu.u:
        for m in range(nu.n):
            cells[(m, i)] = trunk[(m, i)]
    return Possibility.make(nu.n, u2, cells)


def cond_poss(p: FiniteCondition, n: int, profile, method="inductive") -> list:
    """The possibilities of p at height n, over supp(p, n).

    "inductive" walks the levels extending through each creature (each
    member is re-checked against the local characterization); "local"
    filters the raw trunk enumeration by the local characterization alone.
    """
    if not 0 <= n <= p.height:
        raise UsageError(f"height {n} outside [0, {p.height}]")
    if method == "local":
        return [
            nu
            for nu in poss_enumerate(n, p.supp(n), profile)
            if cond_poss_contains(p, nu, profile)
        ]
    if method != "inductive":
        raise UsageError(f"unknown method {method!r}")
    out = [p.trunk_possibility().restrict_height(min(n, p.trnklg))] if n <= p.trnklg else None
    if out is not None:
        return out
    out = [p.trunk_possibility()]
    for m in range(p.trnklg, n):
        c = p.creatures[m]
        nxt = []
        for eta in out:
            nxt.extend(
                _lift(nu, p.supp(m + 1), p.trunk) for nu in ml_val(c, eta, profile)
            )
        if len(nxt) > _POSS_CAP:
            raise CapacityExceeded("possibility walk exceeds the enumeration cap")
        out = nxt
    for nu in out:
        if not cond_poss_contains(p, nu, profile):
            raise UsageError(f"characterizations disagree at {nu}")
    return out


def cond_poss_contains(p: FiniteCondition, nu: Possibility, profile) -> bool:
    """Local characterization: trunk agreement below each index's entry
    level, one-step creature membership on every level band above."""
    n = nu.n
    if nu.u != p.supp(n):
        return False
    got = nu.as_dict()
    for i in nu.u:
        for m in range(min(n, p.entry_level(i))):
            if got[(m, i)] != p.trunk[(m, i)]:
                return False
    U = profile.universe
    for m in range(p.trnklg, n):
        c = p.creatures[m]
        star = profile.star_param(m)
        for i in c.u:
            if U.is_mu(i):
                if got[(m, i)] not in star.val(c.w_eps[i]):
                    return False
        for i in c.u:
            if not U.is_mu(i):
                k = got[(m, U.eps_of[i])]
                w = c.w_alpha.get((i, k))
                if w is None or got[(m, i)] not in profile.slot_param(m, k).val(w):
                    return False
    return True


def cond_leq(q: FiniteCondition, p: FiniteCondition, profile):
    """Is q a strengthening of p?  Returns (ok, diagnostics); the four
    clauses are domain growth, support agreement over p's domain, creature
    successorship, and trunk membership in poss(p, trnklg(q))."""
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
    if q.trnklg <= p.height:
        eta = q.trunk_possibility()
        want = p.supp(q.trnklg)
        if want <= eta.u:
            if not cond_poss_contains(p, eta.restrict_indices(want), profile):
                diagnostics.append("trunk is not a possibility of p")
        else:
            diagnostics.append("trunk does not cover p's support at the cut")
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


def _prune_orphan_slots(c: MlCreature, profile) -> None:
    star = profile.star_param(c.n)
    U = profile.universe
    for (a, k) in list(c.w_alpha):
        if k not in star.val(c.w_eps[U.eps_of[a]]):
            del c.w_alpha[(a, k)]


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
        for a in range(len(mus)):
            for b in range(a + 1, len(mus)):
                v1, v2 = disjoint_successors(
                    star, c.w_eps[mus[a]], c.w_eps[mus[b]], x
                )
                c.w_eps[mus[a]], c.w_eps[mus[b]] = v1, v2
        _prune_orphan_slots(c, profile)
        ml_validate(c, profile)
        ok, diag = ml_successor_check(c, p.creatures[n], n, profile)
        if not ok:
            raise NormTooSmall(f"level {n} separation fails replay: {diag}")
        for a in range(len(mus)):
            for b in range(a + 1, len(mus)):
                if not star.val(c.w_eps[mus[a]]).isdisjoint(star.val(c.w_eps[mus[b]])):
                    raise NotSeparated(
                        f"level {n}: {mus[a]} and {mus[b]} still overlap after separation"
                    )
    ok, diag = cond_leq(q, p, profile)
    if not ok:
        raise NormTooSmall(f"separated fragment fails order replay: {diag}")
    return q


def cond_is_separated(p: FiniteCondition, n: int, profile) -> bool:
    c = p.creatures[n]
    star = profile.star_param(n)
    U = profile.universe
    vals = [star.val(c.w_eps[i]) for i in sorted(c.u, key=str) if U.is_mu(i)]
    return all(
        vals[a].isdisjoint(vals[b])
        for a in range(len(vals))
        for b in range(a + 1, len(vals))
    )


# ---------------------------------------------------------------------------
# name tables, pull-back, rapid reading
# ---------------------------------------------------------------------------


@dataclass
class NameTable:
    """A continuous name with an explicit decision modulus: the level-n value
    is a function of the possibility at height modulus[n]."""

    modulus: dict  # n -> decision height h(n)
    values: dict  # n -> {Possibility at height h(n): value}
    bound: dict  # n -> values at level n lie in range(bound[n])

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
            {n: h for n, h in obj["modulus"]},
            {
                int(n): {Possibility.from_json(nu): v for nu, v in tbl}
                for n, tbl in obj["values"].items()
            },
            {n: b for n, b in obj["bound"]},
        )


def name_validate(r: NameTable, p: FiniteCondition, profile) -> None:
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
        u_next = q.supp(l + 1)

        def G(nu):
            lifted = _lift(nu, u_next, q.trunk)
            return psi_next.get(lifted, _OUTSIDE)

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
    for n in r.levels():
        if r.modulus[n] > p.height:
            raise ModulusTooDeep(f"h({n}) = {r.modulus[n]} exceeds the fragment height")
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
    n_floor = Fraction(n_floor)
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


def _block_key(nu: Possibility, n: int, block) -> tuple:
    return tuple((i, nu.get(n, i)) for i in block)


def cover_step(p: FiniteCondition, n: int, r: NameTable, eps0, profile):
    """Tabulate the decided level-n name value against the level-n values of
    one selector block.  Returns (q_n, Y) with Y small per block key."""
    if n not in p.levels:
        raise UsageError(f"level {n} outside the fragment")
    if not cond_is_separated(p, n, profile):
        raise NotSeparated(f"level {n} selector value sets overlap")
    if r.modulus.get(n) is None or r.modulus[n] > n + 1:
        raise ModulusTooDeep(f"the level-{n} value must be decided at height {n + 1}")
    if ml_norm_cmp(p.creatures[n], n, profile, 2) <= 0:
        raise PreconditionFailed(f"cover needs norm above 2 at level {n}")
    block = _selector_block(p, n, eps0, profile)
    table = {}
    for nu in cond_poss(p, n + 1, profile):
        key = _block_key(nu, n, block)
        table.setdefault(key, set()).add(name_value(r, n, nu, p, profile))
    g = profile.gmin(n)
    for key, vals in table.items():
        if len(vals) >= g:
            raise CapacityExceeded(
                f"cover table holds {len(vals)} values at {key}, bound {g}"
            )
    Y = {"level": n, "indices": list(block), "table": {k: sorted(v) for k, v in table.items()}}
    return p.creatures[n].copy(), Y


def evade_step(p: FiniteCondition, n: int, Y: dict, beta, profile) -> MlCreature:
    """Shrink beta's slot creatures at level n so that every branch value at
    beta avoids the cover table along its own branch."""
    U = profile.universe
    if n not in p.levels or Y.get("level") != n:
        raise UsageError("Y must cover the requested level")
    if beta in Y["indices"]:
        raise DependsOnBeta(f"the cover table reads {beta!r}'s slot")
    if U.is_mu(beta) or beta not in p.supp(n):
        raise DomainMismatch(f"{beta!r} is not a level-{n} slot index")
    if ml_norm_cmp(p.creatures[n], n, profile, 2) <= 0:
        raise PreconditionFailed(f"evading needs norm above 2 at level {n}")

    c = p.creatures[n].copy()
    star = profile.star_param(n)
    sel = U.eps_of[beta]
    block = Y["indices"]
    # per selector value of beta's star, the values the branch table can
    # force anywhere; beta's slot must outsize this union
    forbidden = {k: set() for k in star.val(c.w_eps[sel])}
    for nu in cond_poss(p, n + 1, profile):
        key = _block_key(nu, n, block)
        forbidden[nu.get(n, sel)].update(Y["table"].get(key, ()))
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

    q = p.copy()
    q.creatures[n] = c
    for nu in cond_poss(q, n + 1, profile):
        key = _block_key(nu, n, block)
        if nu.get(n, beta) in Y["table"].get(key, ()):
            raise CapacityExceeded(f"evading replay failed at {nu}")
    return c
