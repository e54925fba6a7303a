"""Condition fragments: poss calculus, order, and the transform pipeline."""

import hashlib
import itertools
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creaturelab import conditions, mlcore
from creaturelab.atomic import SubsetLadderFamily
from creaturelab.conditions import (
    FiniteCondition,
    NameTable,
    _selector_block,
    cond_and,
    cond_is_separated,
    cond_leq,
    cond_poss,
    cond_poss_contains,
    cond_separate_support,
    cond_validate,
    cover_step,
    cover_validate,
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
    NormTooSmall,
    NotSeparated,
    OracleInconsistent,
    PreconditionFailed,
    UsageError,
)
from creaturelab.mlcore import (
    MlCreature,
    Possibility,
    _level_count,
    _level_rows,
    ml_homogenize,
    ml_norm_cmp,
    ml_successor_check,
    ml_val,
)
from creaturelab.params import make_toy_profile

from test_mlcore import top_creature

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


# growing profile: e1 and a1 enter the support at level 3 of a height-4
# fragment, so every level below reads their cells from the trunk
GROW_LVL = {"kstar": 3, "slot_sizes": 2, "height": 4,
            "maxposs": 600, "maxsupp": 16, "gmin": 32, "bmin": 8}


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


def trunk_possibility(p):
    """p's trunk as a height-trnklg possibility over the base support."""
    u = p.supp(p.trnklg)
    return Possibility.make(p.trnklg, u, {(m, i): p.trunk[m, i] for i in u for m in range(p.trnklg)})


def wide_fragment(prof):
    u = frozenset({"e0", "e1", "a0", "a1"})
    star = prof.star_param(1)
    w_alpha = {(a, k): prof.slot_param(1, k).top()
               for a in ("a0", "a1") for k in range(4)}
    return FiniteCondition(
        1, 2, {(0, i): 0 for i in u},
        {1: MlCreature(1, u, {"e0": star.top(), "e1": star.top()}, w_alpha)},
    )


def grow_profile():
    return make_toy_profile({"universe": WIDE_UNI, "levels": [GROW_LVL] * 4})


def grow_fragment():
    low = frozenset({"e0", "a0"})
    trunk = {(0, "e0"): 1, (0, "a0"): 0, (0, "e1"): 2, (0, "a1"): 1,
             (1, "e1"): 0, (1, "a1"): 1, (2, "e1"): 1, (2, "a1"): 0}
    return FiniteCondition(1, 4, trunk, {
        1: MlCreature(1, low, {"e0": (0, 1)}, {("a0", 0): (0, 1), ("a0", 1): (0, 1)}),
        2: MlCreature(2, low, {"e0": (2,)}, {("a0", 2): (0, 1)}),
        3: MlCreature(3, low | {"e1", "a1"}, {"e0": (0, 1), "e1": (1, 2)},
                      {(a, k): (0, 1) for a, k in [("a0", 0), ("a0", 1), ("a1", 1), ("a1", 2)]}),
    })


def cut_profile():
    return make_toy_profile({"universe": CHAIN_UNI, "levels": [CHAIN_LEVELS[1]] * 4})


def above_cut_pair(value):
    """p of height 2 whose level-1 selector keeps only 0, and q with its cut
    at 3, above p's height, whose trunk puts value at level 1."""
    e = frozenset({"e"})
    p = FiniteCondition(1, 2, {(0, "e"): 0}, {1: MlCreature(1, e, {"e": (0,)}, {})})
    q = FiniteCondition(3, 4, {(0, "e"): 0, (1, "e"): value, (2, "e"): 0},
                        {3: MlCreature(3, e, {"e": (0, 1)}, {})})
    return p, q


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
    with pytest.raises(CapacityExceeded, match="^possibility count at level 2 reaches maxposs$"):
        cond_validate(chain_fragment(prof), prof)


def test_only_poss_refuses_a_walk_past_the_enumeration_cap(monkeypatch):
    # validation counts the branches and builds none, so only the walk that
    # builds their product refuses it
    prof = chain_profile()
    p = chain_fragment(prof)
    monkeypatch.setattr(conditions, "ENUM_CAP", 1)  # poss(p, 2) has 2 branches
    cond_validate(p, prof)
    with pytest.raises(CapacityExceeded, match="^possibility walk exceeds the enumeration cap$"):
        cond_poss(p, 2, prof)


def test_validate_builds_no_level_row(monkeypatch):
    # the counts |poss(p, n)| are products of level row counts, so no row
    # is built; poss at the top builds each level once
    calls, rows = [], conditions._level_rows

    def counted(c, *args):
        calls.append(c.n)
        return rows(c, *args)

    monkeypatch.setattr(conditions, "_level_rows", counted)
    p, prof = grow_fragment(), grow_profile()
    cond_validate(p, prof)
    # the order check and membership read the rules alone
    assert cond_leq(p, p, prof) == (True, [])
    assert cond_poss_contains(p, trunk_possibility(p), prof)
    assert calls == []
    space = cond_poss(p, p.height, prof)
    assert len(space) == len(list(space)) == len(list(space)) == 128
    assert calls == [1, 2, 3]


# four levels of 1,024 rows (one selector with 4 values binding two
# 16-value slots): 2^40 possibilities at the top, past ENUM_CAP
TALL_UNI = {"mu": ["e0"], "alpha": ["a0", "a1"], "eps_of": {"a0": "e0", "a1": "e0"}}
TALL_LVL = {"kstar": 4, "slot_sizes": 16, "height": 4,
            "maxposs": 1 << 41, "maxsupp": 16, "gmin": 32, "bmin": 8}


def tall_fragment(maxposs=1 << 41):
    prof = make_toy_profile({"universe": TALL_UNI,
                             "levels": [dict(TALL_LVL, maxposs=maxposs)] * 4})
    creatures = {n: top_creature(prof, n, {"e0", "a0", "a1"}) for n in range(4)}
    return FiniteCondition(0, 4, {}, creatures), prof


def test_validate_counts_possibilities_past_the_enumeration_cap():
    p, prof = tall_fragment()
    assert [_level_count(c, prof) for c in p.creatures.values()] == [1024] * 4
    cond_validate(p, prof)
    assert cond_leq(p, p, prof) == (True, [])
    assert len(cond_poss(p, 1, prof)) == 1024
    with pytest.raises(CapacityExceeded, match="^possibility walk exceeds the enumeration cap$"):
        cond_poss(p, 3, prof)
    # the count is exact past the cap: 2^30 possibilities at level 3
    cond_validate(*tall_fragment(maxposs=(1 << 30) + 1))
    p, prof = tall_fragment(maxposs=1 << 30)
    with pytest.raises(CapacityExceeded, match="^possibility count at level 3 reaches maxposs$"):
        cond_validate(p, prof)


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
    assert list(base) == [trunk_possibility(p)]
    assert len(cond_poss(p, 0, prof)) == 1  # below the cut: trunk restriction


def test_poss_and_membership_refuse_a_height_above_the_fragment():
    prof = chain_profile()
    p = chain_fragment(prof)
    nu = Possibility.make(4, {"e"}, {(m, "e"): 0 for m in range(4)})
    for ask in (lambda: cond_poss(p, 4, prof), lambda: cond_poss_contains(p, nu, prof)):
        with pytest.raises(UsageError, match=r"^height 4 outside \[0, 3\]$"):
            ask()


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


def test_poss_of_a_growing_support_reads_the_trunk():
    prof = grow_profile()
    p = grow_fragment()
    cond_validate(p, prof)
    assert [len(cond_poss(p, n, prof)) for n in range(5)] == [1, 1, 4, 8, 128]
    for n in range(4):
        assert set(cond_poss(p, n, prof)) == set(cond_poss(p, n, prof, "local"))
    # below level 3, e1 and a1 hold their trunk values on every branch
    assert {(nu.get(1, "e1"), nu.get(2, "a1")) for nu in cond_poss(p, 4, prof)} == {(0, 0)}


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
    q = cond_and(p, trunk_possibility(p), 1, p.supp(1), prof)
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


def test_leq_checks_a_trunk_cut_above_p():
    prof = cut_profile()
    p, q = above_cut_pair(1)
    cond_validate(p, prof)
    cond_validate(q, prof)
    assert cond_leq(q, p, prof) == (False, ["trunk is not a possibility of p"])
    # the same trunk with the cut at p's height is refused for the same reason
    low = FiniteCondition(2, 4, {(m, "e"): v for (m, _), v in q.trunk.items() if m < 2}, {
        2: MlCreature(2, frozenset({"e"}), {"e": (0, 1)}, {}), 3: q.creatures[3]})
    assert cond_leq(low, p, prof) == (False, ["trunk is not a possibility of p"])
    assert cond_leq(above_cut_pair(0)[1], p, prof) == (True, [])


def test_leq_reads_p_s_indices_entering_q_late_from_q_s_trunk():
    # e0 and a0 enter q at level 3, above q's cut 2 = p's height: q's trunk
    # holds their cells below p's height
    prof = grow_profile()
    low = frozenset({"e0", "a0"})
    p = FiniteCondition(1, 2, {(0, "e0"): 1, (0, "a0"): 0}, {
        1: MlCreature(1, low, {"e0": (0, 1)}, {("a0", 0): (0, 1), ("a0", 1): (0, 1)})})
    trunk = {(m, i): 0 for m in range(3) for i in ("e0", "a0")}
    trunk.update({(0, "e0"): 1, (0, "e1"): 2, (0, "a1"): 1, (1, "e1"): 0, (1, "a1"): 1})
    q = FiniteCondition(2, 4, trunk, {
        2: MlCreature(2, frozenset({"e1", "a1"}), {"e1": (0, 1)}, {("a1", 0): (0,), ("a1", 1): (1,)}),
        3: grow_fragment().creatures[3]})
    cond_validate(p, prof)
    cond_validate(q, prof)
    assert cond_leq(q, p, prof) == (True, [])
    q.trunk[(1, "e0")] = 2
    assert cond_leq(q, p, prof) == (False, ["trunk is not a possibility of p"])


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


def test_name_validate_refuses_a_decision_height_past_the_fragment():
    # checked before the table's keys, which would ask cond_poss for a
    # height outside the fragment
    prof = wide_profile()
    p = wide_fragment(prof)
    with pytest.raises(ModulusTooDeep, match=r"h\(1\) = 3 exceeds the fragment height"):
        name_validate(NameTable({1: 3}, {1: {}}, {1: 2}), p, prof)


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


def _low_support_fragment():
    """Height 3 over the wide universe: e0 and a0 at levels 1 and 2, so the
    domain leaves e1 and a1 free to enter.  Level 2 has 4 possibilities, so
    maxposs is 5, and the plateau height keeps every norm above 2."""
    lvl = {"kstar": 2, "slot_sizes": 2, "height": 2000,
           "maxposs": 5, "maxsupp": 16, "gmin": 32, "bmin": 8}
    prof = make_toy_profile({"universe": WIDE_UNI, "levels": [lvl] * 3})
    u = frozenset({"e0", "a0"})
    creatures = {n: MlCreature(n, u, {"e0": prof.star_param(n).top()},
                               {("a0", k): prof.slot_param(n, k).top() for k in range(2)})
                 for n in (1, 2)}
    return prof, FiniteCondition(1, 3, {(0, "e0"): 0, (0, "a0"): 0}, creatures)


def _grow(c, prof):
    """c with e1 and a1 added at their top creatures."""
    star = prof.star_param(c.n)
    c.u = c.u | {"e1", "a1"}
    c.w_eps["e1"] = star.top()
    c.w_alpha.update({("a1", k): prof.slot_param(c.n, k).top() for k in range(2)})


def _singleton_selector(c, prof):
    star = prof.star_param(c.n)
    c.w_eps["e0"] = star.best_successor_within(c.w_eps["e0"], frozenset({0}))


@pytest.mark.parametrize("change, level, message", [
    (_grow, 2, "witness must keep the fragment's shape"),  # the domain grows
    (_grow, 1, "witness changes the support at level 1"),
    (_singleton_selector, 1, "witness norm below 1 at level 1"),
])
def test_halving_step_refuses_an_oracle_witness_that_passes_the_order_replay(
        change, level, message):
    prof, p = _low_support_fragment()

    def oracle(cand):
        w = cand.copy()
        change(w.creatures[level], prof)
        assert cond_leq(w, cand, prof) == (True, [])
        return w

    with pytest.raises(OracleInconsistent, match=message):
        halving_step(p, 1, 2, oracle, prof)
    # the same fragment with a silent oracle halves
    _, log = halving_step(p, 1, 2, lambda cand: None, prof)
    assert [case for case, _ in log] == ["half"]


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


def test_cover_step_refuses_a_table_entry_at_the_gmin_bound():
    small = make_toy_profile({"universe": WIDE_UNI, "levels": [dict(WIDE_LVL, gmin=2)] * 2})
    p = cond_separate_support(wide_fragment(small), small)
    r = seeded_name(p, small, [1], 4)
    with pytest.raises(CapacityExceeded, match=r"cover table holds \d+ values at .*, bound 2"):
        cover_step(p, 1, r, "e0", small)
    # a constant name leaves one value per entry, below the bound
    r = NameTable({1: 2}, {1: {nu: 3 for nu in cond_poss(p, 2, small)}}, {1: 4})
    assert all(vals == [3] for vals in cover_step(p, 1, r, "e0", small)[1]["table"].values())


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


def test_evade_step_refuses_cover_indices_outside_the_level():
    prof = wide_profile()
    p = cond_separate_support(wide_fragment(prof), prof)
    Y = {"level": 1, "indices": ["zz"], "table": {}}
    with pytest.raises(DomainMismatch, match="not level-1 support indices"):
        evade_step(p, 1, Y, "a1", prof)


def test_cover_validate_reads_the_level_rules(monkeypatch):
    prof = wide_profile()
    p = cond_separate_support(wide_fragment(prof), prof)
    _, Y = cover_step(p, 1, seeded_name(p, prof, [1], 4), "e0", prof)
    monkeypatch.setattr(conditions, "_level_rows", None)  # no row is built
    cover_validate(Y, p, prof)
    e0, a0 = sorted(Y["table"])[0]
    slot = {v for (_, k), (_, v) in Y["table"] if k == e0[1]}
    for key, why in [
        ((("e0", 99), a0), r"is no level-1 row's values"),
        ((e0, ("a0", max(slot) + 1)), r"is no level-1 row's values"),
    ]:
        with pytest.raises(DomainMismatch, match=why):
            cover_validate(dict(Y, table={**Y["table"], key: [0]}), p, prof)
    with pytest.raises(DomainMismatch, match="not eps-closed"):
        cover_validate({"level": 1, "indices": ["a0"], "table": {}}, p, prof)


def test_evade_step_replay_still_refuses_a_shrink_that_misses(monkeypatch):
    # a slot family that never shrinks leaves beta on the table; the row
    # replay must refuse the result
    prof = wide_profile()
    p = cond_separate_support(wide_fragment(prof), prof)
    _, Y = cover_step(p, 1, seeded_name(p, prof, [1], 4), "e0", prof)
    monkeypatch.setattr(SubsetLadderFamily, "best_successor_within", lambda self, w, keep: w)
    with pytest.raises(CapacityExceeded, match="evading replay failed"):
        evade_step(p, 1, Y, "a1", prof)


def test_poss_still_refuses_a_row_outside_its_value_set(monkeypatch):
    rows = conditions._level_rows

    def stray(c, cols, profile, fill=()):
        first, *rest = rows(c, cols, profile, fill)
        return [(profile.kstar(c.n),) + first[1:], *rest]

    monkeypatch.setattr(conditions, "_level_rows", stray)
    prof = chain_profile()
    with pytest.raises(UsageError, match="characterizations disagree"):
        cond_poss(chain_fragment(prof), 2, prof)


def _with_stray_row(monkeypatch, level, change):
    """Patch cond_poss's rows so that level's rows end in a copy of the
    first one with change's (index, value) pairs applied."""
    rows = conditions._level_rows

    def stray(c, cols, profile, fill=()):
        out = rows(c, cols, profile, fill)
        if c.n == level:
            row = {**dict(zip(cols, out[0])), **change}
            out = out + [tuple(map(row.get, cols))]
        return out

    monkeypatch.setattr(conditions, "_level_rows", stray)


def _two_slot_fragment(prof):
    """One level over the wide profile where a0's slots differ by selector
    value: {0, 1} at e0 = 0 and {2, 3} at e0 = 1."""
    u = frozenset({"e0", "e1", "a0", "a1"})
    return FiniteCondition(1, 2, {(0, i): 0 for i in u}, {1: MlCreature(
        1, u, {"e0": (0, 1), "e1": (2, 3)},
        {("a0", 0): (0, 1), ("a0", 1): (2, 3), ("a1", 2): (0, 1), ("a1", 3): (0, 1)})})


@pytest.mark.parametrize("fragment, profile, level, change, height", [
    # a0 = 2 lies in a0's slot at e0 = 1, not in the one e0 = 0 picks
    (_two_slot_fragment, wide_profile, 1, {"e0": 0, "a0": 2}, 2),
    # e1 enters at level 3: its level-1 cell must hold the trunk's 0
    (lambda prof: grow_fragment(), grow_profile, 1, {"e1": 1}, 4),
], ids=["slot-of-another-selector", "trunk-filled-cell"])
def test_poss_checks_each_row_against_its_own_level(monkeypatch, fragment, profile, level,
                                                     change, height):
    prof = profile()
    p = fragment(prof)
    assert cond_poss(p, height, prof)
    _with_stray_row(monkeypatch, level, change)
    with pytest.raises(UsageError, match="characterizations disagree"):
        cond_poss(p, height, prof)


def test_poss_with_a_rowless_level_is_empty(monkeypatch):
    # no branch passes through a level without rows, so a stray row at
    # another level is never on a branch and nothing disagrees
    prof = grow_profile()
    _with_stray_row(monkeypatch, 1, {"e1": 1})
    rows = conditions._level_rows
    monkeypatch.setattr(conditions, "_level_rows", lambda c, *args: [] if c.n == 2 else rows(c, *args))
    assert list(cond_poss(grow_fragment(), 4, prof)) == []


def test_cover_step_refuses_a_name_table_without_a_branch_value():
    prof = wide_profile()
    p = cond_separate_support(wide_fragment(prof), prof)
    r = seeded_name(p, prof, [1], 4)
    del r.values[1][cond_poss(p, 2, prof)[0]]
    with pytest.raises(DomainMismatch, match="no level-1 value at"):
        cover_step(p, 1, r, "e0", prof)
    # the same through name_value, for a value decided below height 2
    r = NameTable({1: 1}, {1: {}}, {1: 4})
    with pytest.raises(DomainMismatch, match="no level-1 value at"):
        cover_step(p, 1, r, "e0", prof)


@pytest.mark.parametrize("field", ["indices", "table"])
def test_evade_step_refuses_a_cover_without_its_fields(field):
    prof = wide_profile()
    p = cond_separate_support(wide_fragment(prof), prof)
    Y = {"level": 1, "indices": ["e0", "a0"], "table": {}}
    del Y[field]
    with pytest.raises(UsageError, match="indices and table"):
        evade_step(p, 1, Y, "a1", prof)


def _level_row_walks():
    """(creature, call) for each entry point that walks one level's rows: the
    separated wide fragment's level 1, and a level-0 creature, whose single
    trunk keeps the trunk enumeration under any cap."""
    prof = wide_profile()
    p = cond_separate_support(wide_fragment(prof), prof)
    c = top_creature(prof, 0, p.creatures[1].u)
    eta = cond_poss(p, 0, prof)[0].restrict_indices(c.u)
    Y = {"level": 1, "indices": ["e0", "a0"], "table": {}}
    return prof, {
        "cond_poss": (p.creatures[1], lambda: cond_poss(p, 2, prof)),
        "evade_step": (p.creatures[1], lambda: evade_step(p, 1, Y, "a1", prof)),
        "ml_val": (c, lambda: ml_val(c, eta, prof)),
        "ml_homogenize": (c, lambda: ml_homogenize(c, 0, prof, lambda nu: 0, 1)),
    }


@pytest.mark.parametrize("entry", ["cond_poss", "evade_step", "ml_val", "ml_homogenize"])
def test_level_rows_over_the_cap_are_refused(monkeypatch, entry):
    prof, walks = _level_row_walks()
    c, call = walks[entry]
    count = len(_level_rows(c, tuple(sorted(c.u, key=str)), prof))
    monkeypatch.setattr(mlcore, "ENUM_CAP", count)
    call()
    monkeypatch.setattr(mlcore, "ENUM_CAP", count - 1)
    with pytest.raises(CapacityExceeded, match=f"^{count} level-{c.n} rows exceed"):
        call()


def test_successor_check_answers_past_the_row_cap(monkeypatch):
    """The enumerated successor check reads value sets and builds no row,
    so the level-0 creature of the walks above is decided past the cap,
    for itself and for a successor that drops a selector value."""
    prof, walks = _level_row_walks()
    c, _ = walks["ml_val"]
    d = c.copy()
    d.w_eps["e0"] = (0,)
    d.w_alpha = {(a, k): w for (a, k), w in c.w_alpha.items() if a != "a0" or k == 0}
    count = _level_count(c, prof)
    monkeypatch.setattr(mlcore, "ENUM_CAP", count - 1)
    assert ml_successor_check(c, c, 0, prof, enumerate_axiom=True) == (True, [])
    assert ml_successor_check(d, c, 0, prof, enumerate_axiom=True) == (True, [])
    assert ml_successor_check(c, d, 0, prof, enumerate_axiom=True)[0] is False


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


# the level-row walks against the per-branch walks they replace


def _ref_poss(p, n, prof):
    """poss(p, n) branch by branch: each branch extends through ml_val and
    then grows to the next level's support, the new cells read from the
    trunk."""
    if n <= p.trnklg:
        return [trunk_possibility(p).restrict_height(n)]
    out = [trunk_possibility(p)]
    for m in range(p.trnklg, n):
        u = p.supp(m + 1)
        out = [Possibility.make(m + 1, u, {**nu.as_dict(), **{
            (l, i): p.trunk[(l, i)] for l in range(m + 1) for i in u - nu.u}})
            for eta in out for nu in ml_val(p.creatures[m], eta, prof)]
    return out


def _ref_level_rows(c, cols, prof, fill=()):
    """c's one-level rows, one selector pick and one row at a time."""
    U = prof.universe
    star = prof.star_param(c.n)
    mus = [i for i in cols if i in c.u and U.is_mu(i)]
    alphas = [i for i in cols if i in c.u and not U.is_mu(i)]
    for ks in itertools.product(*(sorted(star.val(c.w_eps[e])) for e in mus)):
        pick = dict(itertools.chain(fill, zip(mus, ks)))
        slot_vals = [
            sorted(prof.slot_param(c.n, pick[U.eps_of[a]]).val(c.w_alpha[(a, pick[U.eps_of[a]])]))
            for a in alphas
        ]
        for avals in itertools.product(*slot_vals):
            pick.update(zip(alphas, avals))
            yield tuple(map(pick.__getitem__, cols))


def _ref_evade(p, n, Y, beta, prof):
    """evade_step's shrink with the forbidden sets and the replay read off
    every branch of height n + 1."""
    sel = prof.universe.eps_of[beta]

    def key(nu):
        return tuple((i, nu.get(n, i)) for i in Y["indices"])

    c = p.creatures[n].copy()
    forbidden = {k: set() for k in prof.star_param(n).val(c.w_eps[sel])}
    for nu in _ref_poss(p, n + 1, prof):
        forbidden[nu.get(n, sel)].update(Y["table"].get(key(nu), ()))
    for k, bad in sorted(forbidden.items()):
        slot, w = prof.slot_param(n, k), c.w_alpha[(beta, k)]
        keep = slot.val(w) - bad
        c.w_alpha[(beta, k)] = slot.best_successor_within(w, frozenset(keep)) if keep else None
        if c.w_alpha[(beta, k)] is None:
            raise CapacityExceeded(f"slot at {k}")
    q = p.copy()
    q.creatures[n] = c
    if any(nu.get(n, beta) in Y["table"].get(key(nu), ()) for nu in _ref_poss(q, n + 1, prof)):
        raise CapacityExceeded("replay")
    return c


# plateau height 19 and maxposs 2: a level creature whose components all
# hold two or more values clears the norm 2 that evading needs
_SEED_PROFILE = make_toy_profile({"universe": WIDE_UNI, "levels": [
    dict(GROW_LVL, height=19, maxposs=2)] * 4})


def _draw_fragment(data, prof):
    """A shape-valid fragment of one or two levels whose support grows at
    the second level unless it is already full; the creature at the cut
    keeps two or more values in every component."""
    U = prof.universe
    every = U.mu_part | U.alpha_part
    trnklg = data.draw(st.integers(0, 2))
    height = trnklg + data.draw(st.integers(1, 2))
    u = U.closure(data.draw(st.sets(st.sampled_from(sorted(every)), min_size=1)))
    creatures = {}
    for m in range(trnklg, height):
        if m > trnklg and u != every:
            u = U.closure(u | data.draw(st.sets(st.sampled_from(sorted(every - u)), min_size=1)))
        star = prof.star_param(m)
        least = 2 if m == trnklg else 1

        def pick(top):
            return tuple(sorted(data.draw(st.sets(st.sampled_from(top), min_size=least))))

        w_eps = {e: pick(star.top()) for e in sorted(u) if U.is_mu(e)}
        w_alpha = {(a, k): pick(prof.slot_param(m, k).top())
                   for a in sorted(u) if not U.is_mu(a) for k in w_eps[U.eps_of[a]]}
        creatures[m] = MlCreature(m, u, w_eps, w_alpha)
    p = FiniteCondition(trnklg, height, {}, creatures)
    p.trunk = {(m, i): data.draw(st.integers(0, (prof.kstar(m) if U.is_mu(i) else prof.fmax(m)) - 1))
               for i in sorted(p.dom) for m in range(p.entry_level(i))}
    return p


def _outcome(f, *args):
    try:
        return f(*args)
    except CapacityExceeded:
        return CapacityExceeded


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_level_row_walks_match_the_branch_walks(data):
    prof = _SEED_PROFILE
    p = _draw_fragment(data, prof)
    for n in range(p.height + 1):
        space = cond_poss(p, n, prof)
        got, want = list(space), _ref_poss(p, n, prof)
        assert got == want and [nu.u for nu in got] == [nu.u for nu in want]
        # indexing and membership agree with the iteration; a branch with
        # one cell moved is in the space iff it is a branch (-1 never is)
        assert [space[k] for k in range(len(space))] == got
        assert all(nu in space for nu in got)
        if got and n:
            _, cols, vals = data.draw(st.sampled_from(got))
            j, branches = data.draw(st.integers(0, len(vals) - 1)), set(got)
            for x in range(-1, 17):
                moved = Possibility((n, cols, vals[:j] + (x,) + vals[j + 1:]))
                assert (moved in space) == (moved in branches)
    n, U = p.trnklg, prof.universe
    betas = sorted(a for a in p.supp(n) if not U.is_mu(a))
    if not betas:
        return
    beta = data.draw(st.sampled_from(betas))
    block = [i for i in sorted(p.supp(n)) if U.is_mu(i) and i != U.eps_of[beta]]
    if not block:
        return
    block = _selector_block(p, n, block[0], prof)
    sizes = [range(prof.kstar(n) if U.is_mu(i) else prof.fmax(n)) for i in block]
    table = {tuple(zip(block, vals)): data.draw(st.sets(st.sampled_from(range(prof.fmax(n)))))
             for vals in itertools.product(*sizes)}
    Y = {"level": n, "indices": block, "table": {k: v for k, v in table.items() if v}}
    assert _outcome(evade_step, p, n, Y, beta, prof) == _outcome(_ref_evade, p, n, Y, beta, prof)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_level_rows_keep_the_per_pick_order(data):
    """Every level's rows over its own support and over each later, larger
    support (the new columns read from the trunk)."""
    grow = data.draw(st.booleans())
    prof = grow_profile() if grow else _SEED_PROFILE
    p = grow_fragment() if grow else _draw_fragment(data, prof)
    for m in p.levels:
        c = p.creatures[m]
        for u in {c.u} | {p.supp(n) for n in range(m, p.height)}:
            cols = tuple(sorted(u, key=str))
            fill = [(i, p.trunk[m, i]) for i in cols if i not in c.u]
            rows = _level_rows(c, cols, prof, fill)
            assert rows == list(_ref_level_rows(c, cols, prof, fill))
            assert _level_count(c, prof) == len(rows)


# input refusals: each raises its own type with its own message


def _on_chain(f, *args):
    prof = chain_profile()
    return f(chain_fragment(prof), *args, prof)


def _on_wide(f, *args):
    prof = wide_profile()
    return f(wide_fragment(prof), *args, prof)


def _validate_relabelled(p, prof):
    c = p.creatures[2]
    p.creatures[2] = MlCreature(1, c.u, c.w_eps, c.w_alpha)
    cond_validate(p, prof)


def _validate_shrinking():
    p = grow_fragment()
    p.creatures[3] = MlCreature(3, frozenset({"e0"}), {"e0": (0, 1)}, {})
    cond_validate(p, grow_profile())


def _conjoin(p, n, u, height, prof):
    eta = Possibility.make(height, {"e"}, {(m, "e"): 0 for m in range(height)})
    return cond_and(p, eta, n, u, prof)


def _name_changed(p, change, prof):
    r = seeded_name(p, prof, [1, 2], 2)
    change(r)
    name_validate(r, p, prof)


def _leave_bound(r):
    r.values[1][next(iter(r.values[1]))] = 2


def _separate_on_a_tight_budget():
    # bmin 2: the one pair of selectors e0, e1 already spends it
    prof = make_toy_profile({"universe": WIDE_UNI, "levels": [dict(WIDE_LVL, bmin=2)] * 2})
    return cond_separate_support(wide_fragment(prof), prof)


def _cover(level):
    return {"level": level, "indices": ["e0"], "table": {}}


def _evade_below_norm_2():
    # the growing profile's level 3 norm does not clear 2
    return evade_step(grow_fragment(), 3, _cover(3), "a1", grow_profile())


NO_NAME = NameTable({}, {}, {})

REFUSALS = {
    "validate-relabelled": (lambda: _on_chain(_validate_relabelled),
                            DomainMismatch, "creature at level 2 is labelled 1"),
    "validate-shrinking": (_validate_shrinking,
                           DomainMismatch, "support must not shrink at level 3"),
    "poss-method": (lambda: cond_poss(chain_fragment(chain_profile()), 2, chain_profile(), "raw"),
                    UsageError, "unknown method 'raw'"),
    "and-cut": (lambda: _on_chain(_conjoin, 0, {"e"}, 0),
                DomainMismatch, "cut 0 outside [1, 3)"),
    "and-support": (lambda: _on_chain(_conjoin, 2, set(), 2),
                    DomainMismatch, "u must sit between the lower support and the domain"),
    "and-eta": (lambda: _on_chain(_conjoin, 1, {"e"}, 2),
                DomainMismatch, "eta must be a height-n possibility over u"),
    "separate-budget": (_separate_on_a_tight_budget, NormTooSmall,
                        "level 1: 1 selector pairs exhaust the disjointness budget"),
    "name-decreasing": (lambda: _on_chain(_name_changed, lambda r: r.modulus.update({1: 3, 2: 2})),
                        DomainMismatch, "the decision modulus must be non-decreasing"),
    "name-bound": (lambda: _on_chain(_name_changed, _leave_bound),
                   DomainMismatch, "level 1 values leave the declared bound"),
    "pull-back-range": (lambda: _on_chain(pull_back_labelling, 0, 2, {}),
                        UsageError, "need trnklg <= M <= n <= height"),
    "pull-back-keys": (lambda: _on_chain(pull_back_labelling, 1, 2, {}),
                       DomainMismatch, "psi must be keyed by poss(p, n) exactly"),
    "rapid-read-cut": (lambda: _on_chain(rapid_read, 0, NO_NAME),
                       UsageError, "cut M outside the fragment"),
    "halving-cut": (lambda: _on_chain(halving_step, 3, 1, None),
                    UsageError, "cut M outside the fragment"),
    "halving-floor-below-1": (lambda: _on_chain(halving_step, 1, Fraction(1, 2), None),
                              UsageError, "the norm floor must be at least 1"),
    "halving-floor-fails": (lambda: _on_chain(halving_step, 1, 10**6, None),
                            PreconditionFailed, "norm floor 1000000 fails at level 1"),
    "selector-block": (lambda: _on_wide(_selector_block, 1, "a0"),
                       DomainMismatch, "'a0' is not a level-1 selector index"),
    "cover-level": (lambda: _on_chain(cover_step, 5, NO_NAME, "e"),
                    UsageError, "level 5 outside the fragment"),
    "cover-modulus": (lambda: _on_chain(cover_step, 1, NameTable({1: 3}, {1: {}}, {1: 2}), "e"),
                      ModulusTooDeep, "the level-1 value must be decided at height 2"),
    "evade-level": (lambda: _on_wide(evade_step, 1, _cover(0), "a1"),
                    UsageError, "Y must cover the requested level"),
    "evade-selector": (lambda: _on_wide(evade_step, 1, _cover(1), "e1"),
                       DomainMismatch, "'e1' is not a level-1 slot index"),
    "evade-norm": (_evade_below_norm_2,
                   PreconditionFailed, "evading needs norm above 2 at level 3"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_malformed_inputs_are_refused_by_type_and_message(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_leq_and_decided_at_answer_no():
    prof = chain_profile()
    p = chain_fragment(prof)
    q = cond_and(p, cond_poss(p, 2, prof)[0], 2, {"e"}, prof)
    assert cond_leq(p, q, prof) == (False, ["trunk length must not decrease"])
    # a name whose level-1 value differs on the two height-2 branches above
    # the one height-1 branch
    r = NameTable({1: 2}, {1: {nu: k for k, nu in enumerate(cond_poss(p, 2, prof))}}, {1: 2})
    name_validate(r, p, prof)
    assert not name_decided_at(r, 1, 1, p, prof) and name_decided_at(r, 1, 2, p, prof)
