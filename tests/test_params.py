"""Capacity recursion rows and desk-scale profiles."""

import functools
import json
import operator

import pytest

import creaturelab.params as params_module
from creaturelab.atomic import plateau_family
from creaturelab.errors import SizeInfeasible, UsageError
from creaturelab.tower import tower_compare
from creaturelab.params import (
    make_toy_profile,
    params_exact,
    params_validate,
    resolve_nice_size,
)

TOY_SPEC = {
    "universe": {"mu": ["e0", "e1"], "alpha": ["a0", "a1"],
                 "eps_of": {"a0": "e0", "a1": "e1"}},
    "levels": [
        {"kstar": 2, "slot_sizes": 4, "height": 9,
         "maxposs": 2, "maxsupp": 16, "gmin": 32, "bmin": 8},
        {"kstar": 3, "slot_sizes": [4, 5, 6], "height": 9,
         "maxposs": 2, "maxsupp": 16, "gmin": 32, "bmin": 8},
    ],
}


# exact recursion, level 0: every set field is a closed natural


def test_level_zero_values():
    row = params_exact(0)
    f = row.fields
    assert f["maxposs"].eval_exact() == 2
    assert f["maxnor"].eval_exact() == 2
    assert f["maxsupp"].eval_exact() == 5
    assert f["Bmin"].eval_exact() == 51


def test_level_zero_symbolic_fields():
    row = params_exact(0)
    assert row.fields["kstar"].to_json() == {"ref": "NICE_SIZE(Bmin(0), maxnor(0))"}
    assert row.provenance["kstar"] == "constructor-dependent"
    assert row.provenance["fmax"] == "constructor-dependent"
    assert row.provenance["maxposs"] == "formula-exact"
    assert row.provenance["Bmin"] == "minimal-choice"
    assert len(row.f_list) == 2 and len(row.g_list) == 2


def test_level_one_builds_on_level_zero():
    row = params_exact(1)
    # maxposs(1) = 1 + fmax(0)^maxsupp(0) stays symbolic through fmax(0)
    with pytest.raises(UsageError):
        row.fields["maxposs"].eval_exact()
    blob = json.dumps(row.fields["maxposs"].to_json())
    assert "f(0, kstar(0)-1)" in blob


def test_negative_level_rejected():
    with pytest.raises(UsageError):
        params_exact(-1)


def test_validate_level_zero():
    verdicts = {e["item"]: e["verdict"] for e in params_validate(params_exact(0))}
    assert verdicts["maxposs-formula"] == "holds"
    assert verdicts["maxnor-formula"] == "holds"
    assert verdicts["maxsupp-formula"] == "holds"
    assert verdicts["Bmin-vs-support"] == "holds"
    assert verdicts["Bmin-vs-branching"] == "holds"
    # anything through kstar or the f's cannot be settled numerically
    assert verdicts["gmin-vs-reading"] == "constructor-dependent"
    assert verdicts["kstar-niceness"] == "constructor-dependent"


def test_validate_catches_a_doctored_row():
    row = params_exact(0)
    from creaturelab.tower import lit

    row.fields["maxsupp"] = lit(4)
    verdicts = {e["item"]: e["verdict"] for e in params_validate(row)}
    assert verdicts["maxsupp-formula"] == "relaxed"


def test_every_row_comparison_is_decided_by_exact_evaluation(monkeypatch):
    """Building and validating rows 0..30 compares only numbers within the
    bit budget: no comparison is an identical-tree 0 or a refusal.  This
    fails the day a row needs more than exact comparison."""
    calls = []

    def traced(a, b):
        calls.append(a.eval_exact() is not None and b.eval_exact() is not None)
        return tower_compare(a, b)

    monkeypatch.setattr(params_module, "tower_compare", traced)
    for n in range(31):
        params_validate(params_exact(n))
    assert calls and all(calls), f"{calls.count(False)} of {len(calls)} calls not exact"


def test_resolve_nice_size_small_regimes():
    assert resolve_nice_size(1, 1) == 2
    assert resolve_nice_size(3, 1) == 2


# toy profiles


def test_toy_profile_accessors():
    prof = make_toy_profile(TOY_SPEC)
    assert prof.height == 2
    assert prof.kstar(0) == 2 and prof.kstar(1) == 3
    assert prof.fmax(0) == 4 and prof.fmax(1) == 6
    assert prof.slot_size(1, 2) == 6
    assert prof.maxposs(0) == 2 and prof.maxsupp(0) == 16
    assert prof.gmin(0) == 32 and prof.bmin(0) == 8
    with pytest.raises(UsageError):
        prof.slot_size(1, 3)
    with pytest.raises(UsageError):
        prof.kstar(2)


def test_toy_profile_families():
    prof = make_toy_profile(TOY_SPEC)
    star = prof.star_param(0)
    assert len(star.base()) == 2
    from creaturelab.logreal import lr_from_rational

    assert star.max_norm() == lr_from_rational(9)
    slot = prof.slot_param(1, 1)
    assert len(slot.base()) == 5
    # plateau shape: full norm on every value set of size two or more
    for w in slot.ids():
        if slot.val_size(w) >= 2:
            assert slot.nor(w) == slot.max_norm()


def test_toy_profile_hands_out_one_family_per_slot():
    prof = make_toy_profile(TOY_SPEC)
    for n in range(prof.height):
        star = prof.star_param(n)
        assert prof.star_param(n) is star
        assert star.name == f"star-{n}"
        assert star.describe() == plateau_family(9, prof.kstar(n)).describe()
        for k in range(prof.kstar(n)):
            slot = prof.slot_param(n, k)
            assert prof.slot_param(n, k) is slot
            assert slot.name == f"slot-{n}-{k}"
            assert slot.describe() == plateau_family(9, prof.slot_size(n, k)).describe()
    with pytest.raises(UsageError):
        prof.star_param(2)
    with pytest.raises(UsageError):
        prof.slot_param(0, 2)
    with pytest.raises(UsageError):
        prof.slot_param(2, 0)


@pytest.mark.parametrize("lookup, args, message", [
    ("star_param", (2,), "profile has no level 2"),
    ("star_param", (-1,), "profile has no level -1"),
    ("star_param", (True,), "profile has no level True"),
    ("fmax", (2,), "profile has no level 2"),
    ("slot_param", (2, 0), "profile has no level 2"),
    ("slot_param", (False, 0), "profile has no level False"),
    ("slot_param", (2, 9), "profile has no level 2"),  # the level is checked first
    ("slot_param", (0, 2), "selector value 2 out of range at level 0"),
    ("slot_param", (1, -1), "selector value -1 out of range at level 1"),
    ("slot_param", (1, True), "selector value True out of range at level 1"),
    ("slot_size", (1, 3), "selector value 3 out of range at level 1"),
    ("slot_size", (3, 0), "profile has no level 3"),
])
def test_toy_profile_lookups_refuse_with_their_messages(lookup, args, message):
    prof = make_toy_profile(TOY_SPEC)
    with pytest.raises(UsageError) as info:
        getattr(prof, lookup)(*args)
    assert str(info.value) == message


def test_toy_profile_rejects_true_magnitudes():
    spec = json.loads(json.dumps(TOY_SPEC))
    spec["levels"][0]["slot_sizes"] = 17
    with pytest.raises(SizeInfeasible):
        make_toy_profile(spec)


def test_toy_profile_shape_errors():
    spec = json.loads(json.dumps(TOY_SPEC))
    spec["levels"][1]["slot_sizes"] = [4, 5]
    with pytest.raises(UsageError):
        make_toy_profile(spec)
    with pytest.raises(UsageError):
        make_toy_profile({"levels": []})


@pytest.mark.parametrize("field, value", [
    ("kstar", True), ("kstar", 2.0), ("slot_sizes", [4, True]), ("slot_sizes", "44"),
    ("height", True), ("height", 9.0), ("height", "9"), ("height", -1), ("maxposs", None),
    ("maxsupp", False), ("gmin", 1.5), ("bmin", -8),
])
def test_toy_profile_numbers_must_be_integers(field, value):
    spec = json.loads(json.dumps(TOY_SPEC))
    spec["levels"][0][field] = value
    with pytest.raises(UsageError, match="^level 0: "):
        make_toy_profile(spec)



@pytest.mark.parametrize("where, what, key", [
    ((), "profile", "level"),
    (("universe",), "universe", "epsof"),
    (("levels", 1), "level 1", "g_min"),
], ids=["top", "universe", "level"])
def test_toy_profile_refuses_a_key_it_does_not_read(where, what, key):
    """A misspelled field is refused, not read as absent with its default."""
    spec = json.loads(json.dumps(TOY_SPEC))
    functools.reduce(operator.getitem, where, spec)[key] = 2
    with pytest.raises(UsageError, match=f"^{what}: unknown key '{key}'$"):
        make_toy_profile(spec)
