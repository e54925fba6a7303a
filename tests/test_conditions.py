"""Condition fragments: poss calculus, order, and the transform pipeline."""

import hashlib
import json
from fractions import Fraction

import pytest

from creaturelab import conditions
from creaturelab.atomic import SubsetLadderFamily
from creaturelab.conditions import (
    FiniteCondition,
    NameTable,
    cond_and,
    cond_is_separated,
    cond_leq,
    cond_poss,
    cond_poss_contains,
    cond_separate_support,
    cond_validate,
    cover_step,
    evade_step,
    halving_step,
    name_decided_at,
    name_validate,
    name_value,
    pull_back_labelling,
    rapid_read,
)
from creaturelab.errors import (
    CapacityExceeded,
    DependsOnBeta,
    DomainMismatch,
    ModulusTooDeep,
    NotSeparated,
    OracleInconsistent,
    UsageError,
)
from creaturelab.mlcore import MlCreature, ml_norm_cmp
from creaturelab.params import make_toy_profile

# chain profile: one selector index, growing selector ranges, used for the
# poss calculus and rapid reading
CHAIN_UNI = {"mu": ["e"], "alpha": [], "eps_of": {}}
CHAIN_LEVELS = [
    {"kstar": 1, "slot_sizes": 1, "height": 9,
     "maxposs": 4, "maxsupp": 16, "gmin": 32, "bmin": 8},
    {"kstar": 2, "slot_sizes": 1, "height": 9,
     "maxposs": 4, "maxsupp": 16, "gmin": 32, "bmin": 8},
    {"kstar": 16, "slot_sizes": 1, "height": 9,
     "maxposs": 64, "maxsupp": 16, "gmin": 32, "bmin": 8},
]

# wide profile: two selector blocks at one working level, plateau height 19
# so the level norm clears 2 (z = 19 - log2(4) = 17 > 2^(2*2))
WIDE_UNI = {"mu": ["e0", "e1"], "alpha": ["a0", "a1"],
            "eps_of": {"a0": "e0", "a1": "e1"}}
WIDE_LVL = {"kstar": 4, "slot_sizes": 8, "height": 19,
            "maxposs": 2, "maxsupp": 16, "gmin": 32, "bmin": 8}


def chain_profile():
    return make_toy_profile({"universe": CHAIN_UNI, "levels": CHAIN_LEVELS})


def wide_profile():
    return make_toy_profile({"universe": WIDE_UNI, "levels": [WIDE_LVL, WIDE_LVL]})


def chain_fragment(prof):
    return FiniteCondition(
        trnklg=1,
        height=3,
        trunk={(0, "e"): 0},
        creatures={
            1: MlCreature(1, frozenset({"e"}), {"e": prof.star_param(1).top()}, {}),
            2: MlCreature(2, frozenset({"e"}), {"e": prof.star_param(2).top()}, {}),
        },
    )


def wide_fragment(prof):
    u = frozenset({"e0", "e1", "a0", "a1"})
    star = prof.star_param(1)
    w_alpha = {(a, k): prof.slot_param(1, k).top()
               for a in ("a0", "a1") for k in range(4)}
    return FiniteCondition(
        1, 2, {(0, i): 0 for i in u},
        {1: MlCreature(1, u, {"e0": star.top(), "e1": star.top()}, w_alpha)},
    )


def seeded_name(p, prof, levels, bound, seed=0):
    mod, vals, bnd = {}, {}, {}
    for n in levels:
        mod[n] = n + 1
        bnd[n] = bound
        vals[n] = {
            nu: int(hashlib.sha256(
                f"{seed}:{n}:{sorted(nu.values)!r}".encode()).hexdigest(), 16) % bound
            for nu in cond_poss(p, n + 1, prof)
        }
    return NameTable(mod, vals, bnd)


# fragment shape


def test_validate_accepts_and_roundtrips():
    prof = chain_profile()
    p = chain_fragment(prof)
    cond_validate(p, prof)
    back = FiniteCondition.from_json(json.loads(json.dumps(p.to_json())))
    cond_validate(back, prof)
    assert back.to_json() == p.to_json()
    assert p.dom == frozenset({"e"})
    assert p.entry_level("e") == 1


def test_validate_rejects_broken_fragments():
    prof = chain_profile()

    p = chain_fragment(prof)
    del p.trunk[(0, "e")]
    with pytest.raises(DomainMismatch):
        cond_validate(p, prof)

    p = chain_fragment(prof)
    p.trunk[(0, "e")] = 5  # kstar(0) = 1
    with pytest.raises(DomainMismatch):
        cond_validate(p, prof)

    p = chain_fragment(prof)
    del p.creatures[2]
    with pytest.raises(DomainMismatch):
        cond_validate(p, prof)

    p = chain_fragment(prof)
    p.trnklg = 3
    with pytest.raises(UsageError):
        cond_validate(p, prof)


def test_validate_enforces_the_possibility_cap():
    levels = json.loads(json.dumps(CHAIN_LEVELS))
    levels[2]["maxposs"] = 2  # poss(p, 2) = 2 reaches it
    prof = make_toy_profile({"universe": CHAIN_UNI, "levels": levels})
    with pytest.raises(CapacityExceeded):
        cond_validate(chain_fragment(prof), prof)


def test_validate_checks_declared_floors():
    from creaturelab.errors import NormTooSmall

    prof = wide_profile()
    p = wide_fragment(prof)
    p.floors = {1: Fraction(2)}
    cond_validate(p, prof)
    p.floors = {1: Fraction(3)}
    with pytest.raises(NormTooSmall):
        cond_validate(p, prof)


# poss calculus


def test_poss_counts_and_base_case():
    prof = chain_profile()
    p = chain_fragment(prof)
    assert [len(cond_poss(p, n, prof)) for n in (1, 2, 3)] == [1, 2, 32]
    base = cond_poss(p, 1, prof)
    assert base == [p.trunk_possibility()]
    assert len(cond_poss(p, 0, prof)) == 1  # below the cut: trunk restriction


def test_poss_inductive_equals_local():
    prof = chain_profile()
    p = chain_fragment(prof)
    for n in (1, 2, 3):
        assert set(cond_poss(p, n, prof)) == set(cond_poss(p, n, prof, "local"))
    # a narrower two-block profile keeps the raw enumeration tractable
    lvl = dict(WIDE_LVL, slot_sizes=4)
    prof_w = make_toy_profile({"universe": WIDE_UNI, "levels": [lvl, lvl]})
    q = wide_fragment(prof_w)
    assert set(cond_poss(q, 2, prof_w)) == set(cond_poss(q, 2, prof_w, "local"))


def test_poss_predensity():
    # every top possibility extends exactly one mid-height possibility
    prof = chain_profile()
    p = chain_fragment(prof)
    mids = cond_poss(p, 2, prof)
    for nu in cond_poss(p, 3, prof):
        hits = [eta for eta in mids
                if nu.restrict_height(2).restrict_indices(eta.u) == eta]
        assert len(hits) == 1


def test_poss_distinctness():
    # norms above 1 leave every pair of indices separable at the next level
    prof = wide_profile()
    p = wide_fragment(prof)
    tops = cond_poss(p, 2, prof)
    for i in ("e0", "a0", "e1", "a1"):
        for j in ("e0", "a0", "e1", "a1"):
            if i != j:
                assert any(nu.get(1, i) != nu.get(1, j) for nu in tops)


# order and conjunction


def test_leq_reflexive_and_conjunction():
    prof = chain_profile()
    p = chain_fragment(prof)
    ok, diag = cond_leq(p, p, prof)
    assert ok and diag == []
    for eta in cond_poss(p, 2, prof):
        q = cond_and(p, eta, 2, p.supp(2), prof)
        ok, diag = cond_leq(q, p, prof)
        assert ok, diag
        assert q.trnklg == 2
        assert len(cond_poss(q, 3, prof)) == 16


def test_conjunction_at_the_cut_is_identity_shaped():
    prof = chain_profile()
    p = chain_fragment(prof)
    q = cond_and(p, p.trunk_possibility(), 1, p.supp(1), prof)
    assert q.trunk == p.trunk and q.trnklg == p.trnklg


def test_conjunction_with_a_non_possibility_is_not_below():
    prof = chain_profile()
    p = chain_fragment(prof)
    import itertools

    from creaturelab.mlcore import Possibility

    member = {nu.values for nu in cond_poss(p, 2, prof)}
    stranger = None
    for v0, v1 in itertools.product(range(1), range(2)):
        cand = Possibility.make(2, {"e"}, {(0, "e"): v0, (1, "e"): v1})
        if cand.values not in member:
            stranger = cand
    if stranger is None:
        # the level-1 creature admits both selector values; force a stranger
        star = prof.star_param(1)
        p.creatures[1].w_eps["e"] = star.best_successor_within(
            star.top(), frozenset({0}))
        stranger = Possibility.make(2, {"e"}, {(0, "e"): 0, (1, "e"): 1})
    q = cond_and(p, stranger, 2, p.supp(2), prof)
    ok, diag = cond_leq(q, p, prof)
    assert not ok and any("trunk" in m for m in diag)


def test_leq_rejects_support_meddling():
    prof = wide_profile()
    p = wide_fragment(prof)
    q = p.copy()
    smaller = wide_fragment(prof)
    smaller.creatures = {1: MlCreature(
        1, frozenset({"e0", "a0"}),
        {"e0": prof.star_param(1).top()},
        {("a0", k): prof.slot_param(1, k).top() for k in range(4)})}
    smaller.trunk = {(0, i): 0 for i in ("e0", "a0")}
    cond_validate(smaller, prof)
    ok, diag = cond_leq(smaller, q, prof)
    assert not ok


# separated support


def test_separate_support():
    prof = wide_profile()
    p = wide_fragment(prof)
    assert not cond_is_separated(p, 1, prof)
    s = cond_separate_support(p, prof)
    assert cond_is_separated(s, 1, prof)
    ok, diag = cond_leq(s, p, prof)
    assert ok, diag
    star = prof.star_param(1)
    a = star.val(s.creatures[1].w_eps["e0"])
    b = star.val(s.creatures[1].w_eps["e1"])
    assert a.isdisjoint(b) and len(a) >= 2 and len(b) >= 2


def test_separate_support_refuses_an_overlap_it_did_not_remove(monkeypatch):
    # a separation step that leaves the value sets overlapping must be
    # refused with a typed error, also under python -O
    monkeypatch.setattr(conditions, "disjoint_successors", lambda p, w1, w2, x: (w1, w2))
    prof = wide_profile()
    with pytest.raises(NotSeparated):
        cond_separate_support(wide_fragment(prof), prof)


def test_separate_support_single_selector_is_identity():
    prof = chain_profile()
    p = chain_fragment(prof)
    s = cond_separate_support(p, prof)
    assert s.to_json() == p.to_json()


# name tables


def test_name_validate_and_value():
    prof = wide_profile()
    p = cond_separate_support(wide_fragment(prof), prof)
    r = seeded_name(p, prof, [1], 4)
    name_validate(r, p, prof)
    for nu in cond_poss(p, 2, prof):
        assert name_value(r, 1, nu, p, prof) == r.values[1][nu]
    back = NameTable.from_json(json.loads(json.dumps(r.to_json())))
    assert back.to_json() == r.to_json()

    broken = NameTable({1: 2}, {1: dict(list(r.values[1].items())[:-1])}, {1: 4})
    with pytest.raises(DomainMismatch):
        name_validate(broken, p, prof)


# pull-back and rapid reading


def test_pull_back_labelling_factors_through_the_cut():
    prof = chain_profile()
    p = chain_fragment(prof)
    psi = {nu: int(hashlib.sha256(repr(sorted(nu.values)).encode()).hexdigest(), 16) % 2
           for nu in cond_poss(p, 3, prof)}
    q, psi_m = pull_back_labelling(p, 2, 3, psi, prof)
    ok, diag = cond_leq(q, p, prof)
    assert ok, diag
    assert set(psi_m) == set(cond_poss(q, 2, prof))
    for nu in cond_poss(q, 3, prof):
        key = nu.restrict_height(2).restrict_indices(q.supp(2))
        assert psi[nu] == psi_m[key]


def test_pull_back_constant_labelling_is_free():
    prof = chain_profile()
    p = chain_fragment(prof)
    psi = {nu: 3 for nu in cond_poss(p, 3, prof)}
    q, psi_m = pull_back_labelling(p, 1, 3, psi, prof)
    assert set(psi_m.values()) == {3}
    assert q.to_json() == p.to_json()


def test_rapid_read_toy_instances():
    prof = chain_profile()
    for seed in range(10):
        p = chain_fragment(prof)
        r = seeded_name(p, prof, [1, 2], 2, seed=seed)
        q = rapid_read(p, 1, r, prof)
        ok, diag = cond_leq(q, p, prof)
        assert ok, diag
        for n in (1, 2):
            assert name_decided_at(r, n, max(n, 2), q, prof)


def test_rapid_read_trunk_decided_name_is_free():
    prof = chain_profile()
    p = chain_fragment(prof)
    r = NameTable({1: 1}, {1: {nu: 1 for nu in cond_poss(p, 1, prof)}}, {1: 2})
    q = rapid_read(p, 1, r, prof)
    assert q.to_json() == p.to_json()


def test_rapid_read_modulus_too_deep():
    prof = chain_profile()
    p = chain_fragment(prof)
    r = NameTable({3: 4}, {3: {}}, {3: 2})
    with pytest.raises((ModulusTooDeep, DomainMismatch)):
        rapid_read(p, 1, r, prof)


# halving step


def test_halving_step_all_half():
    prof = wide_profile()
    p = cond_separate_support(wide_fragment(prof), prof)
    q, log = halving_step(p, 1, 2, lambda cand: None, prof)
    assert [case for case, _ in log] == ["half"]
    from creaturelab.logreal import lr_from_rational

    assert q.creatures[1].d == lr_from_rational(Fraction(17, 2))
    ok, diag = cond_leq(q, p, prof)
    assert ok, diag
    assert ml_norm_cmp(q.creatures[1], 1, prof, 1) > 0  # floor - 1


def test_halving_step_all_dec():
    prof = wide_profile()
    p = cond_separate_support(wide_fragment(prof), prof)

    def oracle(cand):
        w = cand.copy()
        c = w.creatures[1]
        for key in list(c.w_alpha):
            slot = prof.slot_param(1, key[1])
            vals = sorted(slot.val(c.w_alpha[key]))[:4]
            c.w_alpha[key] = slot.best_successor_within(
                c.w_alpha[key], frozenset(vals))
        return w

    q, log = halving_step(p, 1, 2, oracle, prof)
    assert [case for case, _ in log] == ["dec"]
    assert q.creatures[1].d == p.creatures[1].d
    ok, diag = cond_leq(q, p, prof)
    assert ok, diag


def test_halving_step_inconsistent_oracle():
    prof = wide_profile()
    p = cond_separate_support(wide_fragment(prof), prof)

    def bad_oracle(cand):
        w = cand.copy()
        star = prof.star_param(1)
        w.creatures[1].w_eps["e0"] = star.top()  # not a successor: regrows
        return w

    with pytest.raises(OracleInconsistent):
        halving_step(p, 1, 2, bad_oracle, prof)


# cover and evade


def test_cover_step_tabulates_and_bounds():
    prof = wide_profile()
    p = cond_separate_support(wide_fragment(prof), prof)
    r = seeded_name(p, prof, [1], 4)
    q_n, Y = cover_step(p, 1, r, "e0", prof)
    assert Y["indices"] == ["e0", "a0"]
    g = prof.gmin(1)
    for key, vals in Y["table"].items():
        assert len(vals) < g
    # every branch's decided value lies in the table at its own key
    for nu in cond_poss(p, 2, prof):
        key = tuple((i, nu.get(1, i)) for i in Y["indices"])
        assert name_value(r, 1, nu, p, prof) in Y["table"][key]


def test_cover_step_constant_name_gives_singletons():
    prof = wide_profile()
    p = cond_separate_support(wide_fragment(prof), prof)
    r = NameTable({1: 2}, {1: {nu: 3 for nu in cond_poss(p, 2, prof)}}, {1: 4})
    _, Y = cover_step(p, 1, r, "e0", prof)
    assert all(vals == [3] for vals in Y["table"].values())


def test_cover_step_requires_separation():
    prof = wide_profile()
    p = wide_fragment(prof)
    r = seeded_name(p, prof, [1], 4)
    with pytest.raises(NotSeparated):
        cover_step(p, 1, r, "e0", prof)


def test_evade_step_avoids_the_table():
    prof = wide_profile()
    p = cond_separate_support(wide_fragment(prof), prof)
    for seed in range(10):
        r = seeded_name(p, prof, [1], 4, seed=seed)
        _, Y = cover_step(p, 1, r, "e0", prof)
        c = evade_step(p, 1, Y, "a1", prof)
        q = p.copy()
        q.creatures[1] = c
        ok, diag = cond_leq(q, p, prof)
        assert ok, diag
        for nu in cond_poss(q, 2, prof):
            key = tuple((i, nu.get(1, i)) for i in Y["indices"])
            assert nu.get(1, "a1") not in Y["table"].get(key, ())


def test_evade_step_depends_on_beta():
    prof = wide_profile()
    p = cond_separate_support(wide_fragment(prof), prof)
    r = seeded_name(p, prof, [1], 4)
    _, Y = cover_step(p, 1, r, "e0", prof)
    with pytest.raises(DependsOnBeta):
        evade_step(p, 1, Y, "a0", prof)


def test_evade_step_empty_table_is_identity():
    prof = wide_profile()
    p = cond_separate_support(wide_fragment(prof), prof)
    Y = {"level": 1, "indices": ["e0", "a0"], "table": {}}
    c = evade_step(p, 1, Y, "a1", prof)
    assert c.w_alpha == p.creatures[1].w_alpha


def test_cover_then_evade_compose():
    prof = wide_profile()
    p = cond_separate_support(wide_fragment(prof), prof)
    r = seeded_name(p, prof, [1], 4, seed=5)
    _, Y = cover_step(p, 1, r, "e0", prof)
    q = p.copy()
    q.creatures[1] = evade_step(p, 1, Y, "a1", prof)
    cond_validate(q, prof)
    # the cover post-condition survives the evade shrink
    for nu in cond_poss(q, 2, prof):
        key = tuple((i, nu.get(1, i)) for i in Y["indices"])
        assert name_value(r, 1, nu, q, prof) in Y["table"][key]
        assert nu.get(1, "a1") not in Y["table"][key]


def test_cover_and_evade_build_each_family_once(monkeypatch):
    built = []
    init = SubsetLadderFamily.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(SubsetLadderFamily, "__init__", counting_init)
    prof = wide_profile()
    p = cond_separate_support(wide_fragment(prof), prof)
    r = seeded_name(p, prof, [1], 4, seed=5)
    _, Y = cover_step(p, 1, r, "e0", prof)
    evade_step(p, 1, Y, "a1", prof)
    levels, kstar = prof.height, WIDE_LVL["kstar"]
    assert len(built) <= levels * (1 + kstar), sorted(set(built))
