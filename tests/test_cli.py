"""Command line: exit codes, artifact writing, determinism, replayability."""

import argparse
import ast
import contextlib
import copy
import functools
import hashlib
import io
import json
import operator
import os
import random
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creaturelab.atomic import PropertyCertificate, replay_certificate, toy_witness_pair
from creaturelab import cli
from creaturelab.cli import main
from creaturelab.conditions import (
    FiniteCondition,
    NameTable,
    cond_leq,
    cond_poss,
    cond_poss_contains,
    cond_separate_support,
    cover_step,
)
from creaturelab.mlcore import MlCreature, Possibility
from creaturelab.params import make_toy_profile
from creaturelab.serialize import (
    atomic_param_from_json,
    creature_from_json,
    creature_to_json,
    id_to_json,
    parse_rational,
    read_json,
    write_json,
)
from creaturelab.errors import UsageError

from test_conditions import (
    CHAIN_LEVELS,
    CHAIN_UNI,
    GROW_LVL,
    WIDE_LVL,
    WIDE_UNI,
    _SEED_PROFILE,
    _draw_fragment,
    above_cut_pair,
    chain_fragment,
    chain_profile,
    grow_fragment,
    grow_profile,
    seeded_name,
    wide_fragment,
    wide_profile,
)
from test_mlcore import UNI, profile as ml_profile, top_creature


@pytest.fixture
def files(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return write, tmp_path


def run(args, out=None):
    argv = list(args)
    if out:
        argv += ["--out", str(out)]
    return main(argv)


# serialization helpers


def test_write_json_is_atomic_and_stable(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"b": 2, "a": 1})
    first = path.read_bytes()
    write_json(path, {"a": 1, "b": 2})
    assert path.read_bytes() == first
    assert not [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]


def test_parse_rational():
    from fractions import Fraction

    assert parse_rational("3/2") == Fraction(3, 2)
    assert parse_rational("1.5") == Fraction(3, 2)
    assert parse_rational("log2(8)") == 3
    with pytest.raises(UsageError):
        parse_rational("log2(5)")
    with pytest.raises(UsageError):
        parse_rational("three")
    with pytest.raises(UsageError):
        parse_rational("log2(x)")


def test_registry_rejects_unknown_kind():
    with pytest.raises(UsageError):
        atomic_param_from_json({"kind": "mystery"})
    with pytest.raises(UsageError):
        atomic_param_from_json(["not", "a", "dict"])


def test_creature_json_roundtrip():
    prof = wide_profile()
    c = wide_fragment(prof).creatures[1]
    again = creature_from_json(json.loads(json.dumps(creature_to_json(c))))
    assert again == c


# params


def test_params_level_zero(files):
    write, tmp = files
    out = tmp / "row.json"
    assert run(["params", "--level", "0"], out) == 0
    doc = read_json(out)
    assert doc["resolved"]["maxsupp"] == 5
    assert doc["resolved"]["Bmin"] == 51
    assert all(e["verdict"] in ("holds", "constructor-dependent")
               for e in doc["report"])


def test_params_level_one_validates_against_the_row_below(files):
    # params_validate builds the level-0 row itself
    write, tmp = files
    out = tmp / "row1.json"
    assert run(["params", "--level", "1"], out) == 0
    doc = read_json(out)
    assert doc["row"]["n"] == 1
    assert all(e["verdict"] in ("holds", "constructor-dependent")
               for e in doc["report"])


def test_params_cache_roundtrip(files):
    # no row cache any more: two reruns recompute the same bytes
    write, tmp = files
    out1, out2 = tmp / "r1.json", tmp / "r2.json"
    assert run(["params", "--level", "0"], out1) == 0
    assert run(["params", "--level", "0"], out2) == 0
    assert out1.read_bytes() == out2.read_bytes()


# atomic


def test_atomic_verify_axioms_and_exit_codes(files):
    write, tmp = files
    toyh = write("toyh.json", {"kind": "halving-pairs", "base_size": 8})
    toya = write("toya.json", {"kind": "subset-log", "base_size": 8})
    assert run(["atomic", "verify", "--in", toyh, "--property", "axioms"],
               tmp / "a.json") == 0
    assert run(["atomic", "verify", "--in", toyh, "--property", "halving",
                "--x", "3/2"], tmp / "b.json") == 0
    # failure still writes a replayable counterexample certificate
    cx = tmp / "cx.json"
    assert run(["atomic", "verify", "--in", toya, "--property", "halving",
                "--x", "1"], cx) == 1
    cert = PropertyCertificate.from_json(read_json(cx)["certificate"])
    assert not cert.verdict and cert.counterexample is not None
    assert replay_certificate(atomic_param_from_json({"kind": "subset-log",
                                                      "base_size": 8}), cert)


def test_atomic_verify_reads_a_two_point_document(files):
    write, tmp = files
    doc = write("two.json", {"kind": "two-point", "m_max": "1/2"})
    out = tmp / "two_axioms.json"
    assert run(["atomic", "verify", "--in", doc, "--property", "axioms"], out) == 0
    cert = read_json(out)["certificate"]
    assert cert["kind"] == "valid" and cert["verdict"] is True


def test_atomic_verify_usage_errors(files):
    write, tmp = files
    toya = write("toya.json", {"kind": "subset-log", "base_size": 8})
    assert run(["atomic", "verify", "--in", toya, "--property", "big"]) == 2
    assert run(["atomic", "verify", "--in", str(tmp / "missing.json"),
                "--property", "axioms"]) == 2
    assert run(["atomic", "bogus-subcommand"]) == 2


@pytest.mark.parametrize("prop", ["nice", "halving"])
def test_reservoir_verify_is_refused_as_infeasible(files, capsys, prop):
    # a well-formed document: the refusal is a capacity, not a usage error
    write, tmp = files
    res = write("res.json", {"kind": "reservoir"})
    assert run(["atomic", "verify", "--in", res, "--property", prop,
                "--M", "2", "--m-max", "65/32", "--x", "1/4"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("infeasible: CapacityExceeded: reservoir")


def test_reservoir_exhaustive_bigness_is_refused_as_infeasible(files, capsys):
    # past the 16-point cap of the partition game: a capacity, not a usage error
    write, tmp = files
    res = write("res.json", {"kind": "reservoir"})
    assert run(["atomic", "verify", "--in", res, "--property", "big",
                "--B", "2", "--mode", "exhaustive"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("infeasible: CapacityExceeded: reservoir")


@pytest.mark.parametrize("mode, code, err", [
    ("analytic", 3, "infeasible: ModeUnsound: reservoir"),
    ("exhaustive", 3, "infeasible: CapacityExceeded: reservoir"),
])
def test_hereditary_bigness_keeps_the_requested_mode(files, capsys, mode, code, err):
    # the same refusal with and without --hereditary
    write, tmp = files
    res = write("res.json", {"kind": "reservoir"})
    argv = ["atomic", "verify", "--in", res, "--property", "big", "--B", "4", "--x", "1/4",
            "--mode", mode]
    for extra in ([], ["--hereditary"]):
        assert run(argv + extra) == code
        out, got = capsys.readouterr()
        assert out == "" and got.startswith(err)


def test_atomic_verify_decisive(files, capsys):
    write, tmp = files
    pairs = write("pairs.json", {"kind": "halving-pairs", "base_size": 4})
    argv = ["atomic", "verify", "--in", pairs, "--property", "decisive"]
    assert run(argv + ["--K", "2", "--m", "1", "--x", "3/2"], tmp / "yes.json") == 0
    cert = PropertyCertificate.from_json(read_json(tmp / "yes.json")["certificate"])
    assert cert.kind == "decisive" and cert.verdict and cert.mode == "hereditary"
    assert cert.params["K"] == 2 and cert.params["m"] == 1
    # K = 1 admits no small successor of norm above nor(w) - 1/4
    assert run(argv + ["--K", "1", "--m", "1", "--x", "1/4"], tmp / "no.json") == 1
    cert = PropertyCertificate.from_json(read_json(tmp / "no.json")["certificate"])
    assert not cert.verdict and cert.counterexample["missing"] == "small"
    pair = atomic_param_from_json({"kind": "halving-pairs", "base_size": 4})
    assert replay_certificate(pair, cert)
    capsys.readouterr()
    for missing in (["--K", "2"], ["--m", "1"], []):
        assert run(argv + missing) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == ("usage error: --K and --m are required for the "
                                     "decisiveness check\n")


def test_exhaustive_bigness_on_sixteen_points_is_quick(files):
    # the size-class walk decides the 16-point subset ladder without the
    # 3^16 bit-mask game
    write, tmp = files
    path = write("log16.json", {"kind": "subset-log", "base_size": 16})
    start = time.perf_counter()
    assert run(["atomic", "verify", "--in", path, "--property", "big", "--B", "4",
                "--x", "1", "--mode", "exhaustive"], tmp / "big.json") == 1
    assert time.perf_counter() - start < 5.0
    cert = PropertyCertificate.from_json(read_json(tmp / "big.json")["certificate"])
    assert cert.mode == "class-reps" and not cert.verdict
    assert cert.counterexample == tuple(tuple(range(k, k + 4)) for k in range(0, 16, 4))
    assert replay_certificate(atomic_param_from_json({"kind": "subset-log",
                                                      "base_size": 16}), cert)


@pytest.mark.parametrize("doc", [
    {"kind": "ladder", "base_size": 4},
    {"kind": "plateau", "base_size": 4},
    {"kind": "capped-ladder"},
    {"kind": "ladder", "base_size": 2, "norms_by_size": ["1/2", "1"]},
    {"kind": "halving-pairs", "base_size": "8"},
    {"kind": "halving-pairs", "base_size": 0},
    {"kind": "ladder", "base_size": 3, "norms_by_size": {"1": "1/2", "2": "1"}},
    {"kind": "ladder", "base_size": 1, "norms_by_size": {"one": "1/2"}},
])
def test_malformed_atomic_documents_are_usage_errors(files, doc):
    write, tmp = files
    path = write("bad.json", doc)
    assert run(["atomic", "verify", "--in", path, "--property", "axioms"]) == 2


@pytest.mark.parametrize("size", [30, 10**9])
def test_oversized_halving_pairs_are_refused_at_once(files, size):
    write, tmp = files
    path = write("big.json", {"kind": "halving-pairs", "base_size": size})
    start = time.perf_counter()
    assert run(["atomic", "verify", "--in", path, "--property", "halving",
                "--x", "3/2"]) == 2
    assert time.perf_counter() - start < 1.0


def test_default_witness_is_the_top_creature(files):
    write, tmp = files
    path = write("toyh.json", {"kind": "halving-pairs", "base_size": 16})
    cmd = ["atomic", "verify", "--in", path, "--property", "halving", "--x", "3/2"]
    top = json.dumps(id_to_json((tuple(range(16)), 0)))
    assert run(cmd, tmp / "default.json") == 0
    assert run(cmd + ["--w", top], tmp / "given.json") == 0
    assert (tmp / "default.json").read_bytes() == (tmp / "given.json").read_bytes()


def test_a_creature_that_is_its_own_half_is_halvable(files):
    # every positive-norm successor of w re-bases onto w as itself
    write, tmp = files
    doc = {"kind": "halving-pairs", "base_size": 16}
    path = write("toyh.json", doc)
    w = [[0, 1, 2, 3], 0]
    assert run(["atomic", "verify", "--in", path, "--property", "halving",
                "--w", json.dumps(w), "--x", "1/4"], tmp / "own.json") == 0
    cert = PropertyCertificate.from_json(read_json(tmp / "own.json")["certificate"])
    assert cert.verdict and cert.witness["half"] == ((0, 1, 2, 3), 0)
    assert replay_certificate(atomic_param_from_json(doc), cert)


def test_import_leaves_sympy_out():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = "import sys, creaturelab.cli; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_import_leaves_mpmath_out():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = "import sys, creaturelab.cli; print('mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


_IMPORT_PROBE = """\
import contextlib, io, sys
import creaturelab.cli
dataclasses = "dataclasses" in sys.modules
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = creaturelab.cli.main(sys.argv[1:])
print(dataclasses, code, *sorted(sys.modules))
"""

_LAYERS = {"creaturelab.mlcore", "creaturelab.conditions", "creaturelab.params",
           "creaturelab.tower"}


def _fresh_process(code, *argv):
    """The stdout of python -c code argv... in a fresh interpreter on src."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run([sys.executable, "-c", code, *argv],
                          env=env, capture_output=True, text=True, check=True).stdout


def _command_modules(files, command):
    """[dataclasses loaded by the CLI import, exit code, *modules loaded] of
    one command run in a fresh process."""
    write, _ = files
    inputs = _pin_inputs(write)
    return _fresh_process(_IMPORT_PROBE, *(inputs.get(a, a) for a in command.split())).split()


@pytest.mark.parametrize("command, absent", [
    ("atomic verify --in {toyh} --property axioms", _LAYERS),
    ("ml norm --profile {wide_profile} --in {creature}", {"creaturelab.conditions"}),
    ("params --level 0", {"creaturelab.conditions"}),
], ids=["atomic", "ml", "params"])
def test_each_command_group_loads_only_its_layers(files, command, absent):
    """A fresh process per command: importing the CLI loads no dataclasses,
    and running a command loads only the layers its group uses."""
    dataclasses, code, *modules = _command_modules(files, command)
    assert dataclasses == "False" and code == "0"
    assert "creaturelab.atomic" in modules and not absent & set(modules)


_ATOMIC_CHECKS = {"creaturelab.atomic.checks", "creaturelab.atomic.ops",
                  "creaturelab.atomic.certificates", "creaturelab.atomic.niceness"}


@pytest.mark.parametrize("command", [
    "ml norm --profile {wide_profile} --in {creature}",
    "ml norm --profile {wide_profile} --in {creature} --threshold 2",
    "ml halve --profile {wide_profile} --in {creature}",
    "params --level 0",
    "cond poss --profile {wide_profile} --in {wide}",
    "cond leq --profile {wide_profile} --in {sep} --against {wide}",
    "cond rapid-read --profile {chain_profile} --in {chain} --name {chain_name} --M 1",
    "cond cover --profile {wide_profile} --in {sep} --n 1 --eps e0 --name {wide_name}",
    "cond evade --profile {wide_profile} --in {sep} --n 1 --cover {cover} --beta a1",
    "demo distinguish --profile {wide_profile} --in {wide} --i e0 --j e1",
], ids=["ml-norm", "ml-norm-threshold", "ml-halve", "params", "cond-poss", "cond-leq",
        "cond-rapid-read", "cond-cover", "cond-evade", "demo-distinguish"])
def test_ml_and_params_commands_load_no_atomic_check(files, command):
    """These commands build families but never check or transform one, so
    the atomic checks, ops, certificates and niceness stay unloaded; so do
    the cond and demo commands other than cond separate."""
    _, code, *modules = _command_modules(files, command)
    assert code == "0" and "creaturelab.atomic.families" in modules
    assert not _ATOMIC_CHECKS & set(modules)


def test_cond_separate_loads_the_atomic_ops(files):
    """Separation shrinks selectors with disjoint_successors, so it loads
    the atomic ops, checks and certificates (and not the niceness)."""
    _, code, *modules = _command_modules(files, "cond separate --profile {wide_profile} --in {wide}")
    assert code == "0"
    assert _ATOMIC_CHECKS & set(modules) == _ATOMIC_CHECKS - {"creaturelab.atomic.niceness"}


def test_the_atomic_package_loads_its_checks_on_first_use():
    """A name of the checks, ops, certificates or niceness, read from the
    package or imported from it, loads all four at once; other names stay
    unknown."""
    probe = """\
import sys
import creaturelab.atomic as A
before = [m for m in sys.argv[1:] if m in sys.modules]
f = A.homogenize_product
from creaturelab.atomic import toy_witness_pair, PropertyCertificate
from creaturelab.atomic.ops import homogenize_product
print(before, f is homogenize_product, all(m in sys.modules for m in sys.argv[1:]),
      hasattr(A, "no_such_name"), toy_witness_pair.__module__)
"""
    out = _fresh_process(probe, *sorted(_ATOMIC_CHECKS))
    assert out.split() == ["[]", "True", "True", "False", "creaturelab.atomic.families"]


def test_atomic_make_nice(files):
    write, tmp = files
    out = tmp / "nice.json"
    assert run(["atomic", "make-nice", "--M", "1", "--m-max", "15/8"], out) == 0
    assert read_json(out)["certificate"]["verdict"] is True
    assert run(["atomic", "make-nice", "--M", "2", "--m-max", "2"]) == 3


LADDER_SPEC = {
    "kind": "ladder", "name": "selector-ladder", "base_size": 8,
    "norms_by_size": {"1": "15/16", "2": "53/32", "3": "60/32", "4": "60/32",
                      "5": "62/32", "6": "62/32", "7": "62/32", "8": "65/32"},
}


def test_atomic_homogenize_order_disjoint(files):
    write, tmp = files
    _, ws = toy_witness_pair()
    prod = _criterion6_product(write)
    hom = tmp / "hom.json"
    assert run(["atomic", "homogenize", "--in", prod, "--range", "2",
                "--seed", "5"], hom) == 0
    doc = read_json(hom)
    assert doc["seed"] == 5 and doc["value"] in (0, 1)
    assert run(["atomic", "order", "--in", prod, "--x", "1/4"],
               tmp / "ord.json") == 0
    dis = write("dis.json", {"param": LADDER_SPEC, "w1": id_to_json(ws[0]),
                             "w2": id_to_json(ws[0])})
    out = tmp / "dis_out.json"
    assert run(["atomic", "disjoint", "--in", dis, "--x", "1"], out) == 0
    got = read_json(out)
    assert not set(got["val1"]) & set(got["val2"])


def _criterion6_product(write):
    _, ws = toy_witness_pair()
    return write("prod.json", {"coordinates": [
        {"param": LADDER_SPEC, "w": id_to_json(ws[0])},
        {"param": {"kind": "reservoir"}, "w": id_to_json(ws[1])},
    ]})


# (seed, first 16 hex digits of sha256 of the output file); F colours a
# point by sha256 of repr((seed, point))
HOMOGENIZE_CLI_PINS = [(5, "77c0b770f6f41753"), (2024, "4c43ec0817b7c972")]


@pytest.mark.parametrize("seed, digest", HOMOGENIZE_CLI_PINS)
def test_atomic_homogenize_output_bytes_are_pinned(files, seed, digest):
    write, tmp = files
    prod = _criterion6_product(write)
    out = tmp / "hom.json"
    assert run(["atomic", "homogenize", "--in", prod, "--seed", str(seed)], out) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest


def test_atomic_homogenize_builds_no_value_set_it_does_not_colour(files, monkeypatch):
    """F hashes the point itself, so the command never ranks the reservoir
    top's 65,536 values; the elimination steps read smaller creatures."""
    from creaturelab.atomic.families import ReservoirFamily

    sizes = []
    val = ReservoirFamily.val

    def recording_val(self, w):
        v = val(self, w)
        sizes.append(len(v))
        return v

    monkeypatch.setattr(ReservoirFamily, "val", recording_val)
    prod = _criterion6_product(files[0])
    assert run(["atomic", "homogenize", "--in", prod, "--seed", "5"], files[1] / "hom.json") == 0
    assert sizes and ReservoirFamily.S_SIZE * ReservoirFamily.T_SIZE not in sizes


@pytest.mark.parametrize("seed", [5, 2024])
def test_atomic_homogenize_colours_a_point_whatever_the_input(files, seed):
    """A point's colour does not depend on the creatures --in names, so
    homogenizing the output tuple again finds the same constant value."""
    write, tmp = files
    prod = _criterion6_product(write)
    assert run(["atomic", "homogenize", "--in", prod, "--seed", str(seed)], tmp / "a.json") == 0
    first = read_json(tmp / "a.json")
    coords = read_json(prod)["coordinates"]
    again = write("again.json", {"coordinates": [
        dict(c, w=id_to_json(ast.literal_eval(w))) for c, w in zip(coords, first["ws"])]})
    assert run(["atomic", "homogenize", "--in", again, "--seed", str(seed)], tmp / "b.json") == 0
    assert read_json(tmp / "b.json")["value"] == first["value"]


@pytest.mark.parametrize("w", ["[]", "[7]", '["a"]'])
def test_atomic_verify_refuses_w_outside_the_parameter(files, capsys, w):
    write, tmp = files
    doc = write("log4.json", {"kind": "subset-log", "base_size": 4})
    out = tmp / "cert.json"
    assert run(["atomic", "verify", "--in", doc, "--property", "big", "--B", "2",
                "--w", w, "--mode", "exhaustive"], out) == 2
    err = capsys.readouterr().err
    assert "not a creature" in err and doc in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["homogenize", "order"])
def test_atomic_product_refuses_w_outside_the_parameter(files, capsys, command):
    write, tmp = files
    prod = write("prod.json", {"coordinates": [{"param": LADDER_SPEC, "w": [9]}]})
    assert run(["atomic", command, "--in", prod]) == 2
    err = capsys.readouterr().err
    assert "(9,) is not a creature" in err and prod in err


def test_atomic_disjoint_refuses_w_outside_the_parameter(files, capsys):
    write, tmp = files
    dis = write("dis.json", {"param": LADDER_SPEC, "w1": [], "w2": [0, 1]})
    assert run(["atomic", "disjoint", "--in", dis]) == 2
    err = capsys.readouterr().err
    assert "() is not a creature" in err and dis in err


# ml


@pytest.fixture
def wide_files(files):
    write, tmp = files
    prof = write("wide_profile.json",
                 {"universe": WIDE_UNI, "levels": [WIDE_LVL, WIDE_LVL]})
    frag = write("wide_frag.json", wide_fragment(wide_profile()).to_json())
    cre = write("creature.json",
                creature_to_json(wide_fragment(wide_profile()).creatures[1]))
    return write, tmp, prof, frag, cre


def test_ml_check_norm_halve(wide_files):
    write, tmp, prof, frag, cre = wide_files
    assert run(["ml", "check", "--profile", prof, "--in", cre],
               tmp / "chk.json") == 0
    assert run(["ml", "norm", "--profile", prof, "--in", cre,
                "--threshold", "2"], tmp / "n.json") == 0
    assert run(["ml", "norm", "--profile", prof, "--in", cre,
                "--threshold", "9"], tmp / "n9.json") == 1
    halved = tmp / "halved.json"
    assert run(["ml", "halve", "--profile", prof, "--in", cre], halved) == 0
    # the halved creature is a legitimate successor of the original
    assert run(["ml", "check", "--profile", prof, "--in", str(halved_creature(halved, tmp)),
                "--against", cre], tmp / "s.json") == 0


def test_ml_norm_without_a_threshold_reports_z_only(wide_files):
    write, tmp, prof, frag, cre = wide_files
    out = tmp / "z.json"
    assert run(["ml", "norm", "--profile", prof, "--in", cre], out) == 0
    doc = read_json(out)
    assert set(doc) == {"creature", "z_approx"}
    assert doc["creature"] == read_json(cre)


def test_ml_check_reports_an_ill_typed_star_id_as_a_verdict(wide_files, capsys):
    write, tmp, prof, frag, cre = wide_files
    doc = read_json(cre)
    doc["w_eps"] = [[i, ["a"] if i == "e0" else w] for i, w in doc["w_eps"]]
    assert run(["ml", "check", "--profile", prof, "--in", write("bad.json", doc)]) == 1
    assert "DomainMismatch: unknown star creature at e0" in capsys.readouterr().err


@pytest.mark.parametrize("w", [[7], {}])
@pytest.mark.parametrize("command", [["norm"], ["halve"], ["merge", "--in2", "{in}"],
                                     ["enlarge", "--index", "e0"],
                                     ["homogenize", "--range", "1"]])
def test_ml_transforms_refuse_creatures_outside_the_profile(wide_files, capsys, command, w):
    write, tmp, prof, frag, cre = wide_files
    doc = read_json(cre)
    doc["w_eps"] = [[i, w if i == "e0" else v] for i, v in doc["w_eps"]]
    bad = write("bad.json", doc)
    argv = ["ml", command[0], "--profile", prof, "--in", bad] + command[1:]
    assert run([bad if a == "{in}" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and bad in err and "unknown star creature" in err


@pytest.mark.parametrize("enumerate_axiom", [False, True])
def test_ml_check_refuses_a_parent_outside_the_profile(wide_files, capsys, enumerate_axiom):
    write, tmp, prof, frag, cre = wide_files
    doc = read_json(cre)
    doc["w_alpha"] = [s for s in doc["w_alpha"] if s[:2] != ["a0", 3]]  # a demanded slot
    parent = write("parent.json", doc)
    argv = ["ml", "check", "--profile", prof, "--in", cre, "--against", parent]
    assert run(argv + ["--enumerate"] * enumerate_axiom) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and parent in err and "slot creatures" in err


def halved_creature(halved, tmp):
    doc = read_json(halved)["creature"]
    path = tmp / "halved_creature.json"
    path.write_text(json.dumps(doc))
    return path


def test_ml_merge_enlarge_homogenize(wide_files):
    write, tmp, prof, frag, cre = wide_files
    assert run(["ml", "merge", "--profile", prof, "--in", cre, "--in2", cre],
               tmp / "m.json") == 0
    assert run(["ml", "enlarge", "--profile", prof, "--in", cre,
                "--index", "e0"], tmp / "e.json") == 0
    assert run(["ml", "enlarge", "--profile", prof, "--in", cre,
                "--index", "nowhere"]) == 1


def test_ml_homogenize(files):
    write, tmp = files
    lvl = {"kstar": 4, "slot_sizes": 3, "height": 9,
           "maxposs": 2, "maxsupp": 16, "gmin": 32, "bmin": 8}
    prof_path = write("ml_profile.json", {"universe": UNI, "levels": [lvl, lvl]})
    prof = ml_profile(height=9, kstar=4, slot=3)
    cre = write("small_creature.json",
                creature_to_json(top_creature(prof, 1, {"e0", "a0"})))
    hom = tmp / "h.json"
    assert run(["ml", "homogenize", "--profile", prof_path, "--in", cre,
                "--range", "1", "--seed", "2"], hom) == 0
    assert read_json(hom)["seed"] == 2


# cond


@pytest.fixture
def chain_files(files):
    write, tmp = files
    prof = write("chain_profile.json",
                 {"universe": CHAIN_UNI, "levels": CHAIN_LEVELS})
    cp = chain_profile()
    p = chain_fragment(cp)
    frag = write("chain_frag.json", p.to_json())
    name = write("chain_name.json",
                 seeded_name(p, cp, [1, 2], 2, seed=3).to_json())
    return write, tmp, prof, frag, name


def test_cond_poss_and_leq(chain_files):
    write, tmp, prof, frag, name = chain_files
    out = tmp / "poss.json"
    assert run(["cond", "poss", "--profile", prof, "--in", frag], out) == 0
    assert read_json(out)["count"] == 32
    assert run(["cond", "leq", "--profile", prof, "--in", frag,
                "--against", frag], tmp / "leq.json") == 0


def test_cond_rapid_read_writes_extension(chain_files):
    write, tmp, prof, frag, name = chain_files
    out = tmp / "rr.json"
    assert run(["cond", "rapid-read", "--profile", prof, "--in", frag,
                "--name", name, "--M", "1"], out) == 0
    cp = chain_profile()
    q = FiniteCondition.from_json(read_json(out)["fragment"])
    ok, _ = cond_leq(q, chain_fragment(cp), cp)
    assert ok


def test_cond_separate_halve_cover_evade(files):
    write, tmp = files
    prof = write("wide_profile.json",
                 {"universe": WIDE_UNI, "levels": [WIDE_LVL, WIDE_LVL]})
    wp = wide_profile()
    p = wide_fragment(wp)
    frag = write("wide_frag.json", p.to_json())
    sep_out = tmp / "sep.json"
    assert run(["cond", "separate", "--profile", prof, "--in", frag],
               sep_out) == 0
    sep = FiniteCondition.from_json(read_json(sep_out)["fragment"])
    sep_path = write("wide_sep.json", sep.to_json())
    assert run(["cond", "halve-step", "--profile", prof, "--in", frag,
                "--M", "1", "--floor", "1", "--oracle", "never"],
               tmp / "hs.json") == 0
    name = write("wide_name.json",
                 seeded_name(sep, wp, [1], 2, seed=1).to_json())
    cover = tmp / "cover.json"
    assert run(["cond", "cover", "--profile", prof, "--in", sep_path,
                "--n", "1", "--eps", "e0", "--name", name], cover) == 0
    ev = tmp / "evade.json"
    assert run(["cond", "evade", "--profile", prof, "--in", sep_path,
                "--n", "1", "--cover", str(cover), "--beta", "a1"], ev) == 0
    creature_from_json(read_json(ev)["creature"])
    # evading an index the cover depends on is refused
    assert run(["cond", "evade", "--profile", prof, "--in", sep_path,
                "--n", "1", "--cover", str(cover), "--beta", "a0"]) == 1


def test_cond_halve_step_with_an_accepting_oracle_decides_every_branch(files):
    # the oracle returns each candidate itself, so every trunk branch is
    # decided and the fragment comes back unchanged
    write, tmp = files
    prof = write("wide_profile.json",
                 {"universe": WIDE_UNI, "levels": [WIDE_LVL, WIDE_LVL]})
    wp = wide_profile()
    p = wide_fragment(wp)
    frag = write("wide_frag.json", p.to_json())
    out = tmp / "hs_accept.json"
    assert run(["cond", "halve-step", "--profile", prof, "--in", frag,
                "--M", "1", "--oracle", "accept"], out) == 0
    doc = read_json(out)
    assert doc["fragment"] == read_json(frag)
    assert doc["cases"] == [["dec", nu.to_json()] for nu in cond_poss(p, 1, wp)]


def _broken_fragments(doc):
    """The wide fragment with trunk cell (0, "a0") removed, and with e0's
    star id replaced by one no ladder creature has."""
    no_cell = dict(doc, trunk=[t for t in doc["trunk"] if t[:2] != [0, "a0"]])
    top = dict(doc["creatures"]["1"])
    top["w_eps"] = [[i, {} if i == "e0" else w] for i, w in top["w_eps"]]
    return {"no-cell": no_cell, "star-id": dict(doc, creatures={"1": top})}


@pytest.mark.parametrize("broken", ["no-cell", "star-id"])
@pytest.mark.parametrize("command", [
    "cond leq --profile {prof} --in {bad} --against {frag}",
    "cond leq --profile {prof} --in {frag} --against {bad}",
    "cond separate --profile {prof} --in {bad}",
    "cond rapid-read --profile {prof} --in {bad} --name {name} --M 1",
    "cond halve-step --profile {prof} --in {bad} --M 1",
    "cond cover --profile {prof} --in {bad} --n 1 --eps e0 --name {name}",
    "cond evade --profile {prof} --in {bad} --n 1 --cover {cover} --beta a1",
])
def test_cond_commands_refuse_fragments_outside_the_profile(files, capsys, command, broken):
    write, tmp = files
    wp = wide_profile()
    sep = cond_separate_support(wide_fragment(wp), wp)
    paths = {
        "{prof}": write("wide_profile.json", {"universe": WIDE_UNI, "levels": [WIDE_LVL, WIDE_LVL]}),
        "{frag}": write("wide_sep.json", sep.to_json()),
        "{bad}": write("bad.json", _broken_fragments(sep.to_json())[broken]),
        "{name}": write("wide_name.json", seeded_name(sep, wp, [1], 2, seed=1).to_json()),
        "{cover}": write("cover.json", {"level": 1, "indices": ["e0"], "table": {}}),
    }
    assert run([paths.get(a, a) for a in command.split()]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and paths["{bad}"] in err
    assert "holds no fragment of the profile" in err


def test_a_universe_whose_indices_share_a_str_is_refused(files, capsys):
    # 1 and "1" would tie in the str column order
    write, tmp = files
    lvl = {"kstar": 2, "slot_sizes": 2, "height": 4,
           "maxposs": 8, "maxsupp": 16, "gmin": 32, "bmin": 8}
    prof = write("tie_profile.json", {"universe": {"mu": [1, "1"], "alpha": [], "eps_of": {}},
                                      "levels": [lvl, lvl]})
    frag = write("tie_frag.json", {
        "trnklg": 1, "height": 2, "trunk": [[0, 1, 0], [0, "1", 1]],
        "creatures": {"1": {"u": [1, "1"], "w_eps": [[1, [0, 1]], ["1", [0]]],
                            "w_alpha": [], "d": {"q": "0"}}}})
    assert run(["cond", "poss", "--profile", prof, "--in", frag]) == 2
    assert capsys.readouterr().err == (
        "usage error: indices must have distinct str forms: columns are sorted by str\n")


def test_cond_modulus_too_deep_is_exit_three(chain_files):
    write, tmp, prof, frag, name = chain_files
    cp = chain_profile()
    p = chain_fragment(cp)
    r = seeded_name(p, cp, [1], 2)
    r.modulus[1] = p.height + 5
    deep = write("deep_name.json", r.to_json())
    assert run(["cond", "rapid-read", "--profile", prof, "--in", frag,
                "--name", deep, "--M", "1"]) == 3


# demo


def test_demo_generic_sample_deterministic(chain_files):
    write, tmp, prof, frag, name = chain_files
    a, b = tmp / "s1.json", tmp / "s2.json"
    assert run(["demo", "generic-sample", "--profile", prof, "--in", frag,
                "--seed", "7"], a) == 0
    assert run(["demo", "generic-sample", "--profile", prof, "--in", frag,
                "--seed", "7"], b) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = read_json(a)
    assert doc["seed"] == 7 and doc["count"] == 32


def test_demo_distinguish(files):
    write, tmp = files
    prof = write("wide_profile.json",
                 {"universe": WIDE_UNI, "levels": [WIDE_LVL, WIDE_LVL]})
    frag = write("wide_frag.json", wide_fragment(wide_profile()).to_json())
    out = tmp / "dist.json"
    assert run(["demo", "distinguish", "--profile", prof, "--in", frag,
                "--i", "e0", "--j", "e1"], out) == 0
    doc = read_json(out)
    assert doc["value_i"] != doc["value_j"]
    assert run(["demo", "distinguish", "--profile", prof, "--in", frag,
                "--i", "e0", "--j", "missing"]) == 2


def test_demo_distinguish_fails_when_every_branch_agrees(files, capsys):
    # e0 and e1 both keep only the value 0, at the trunk and at level 1
    write, tmp = files
    prof = write("wide_profile.json",
                 {"universe": WIDE_UNI, "levels": [WIDE_LVL, WIDE_LVL]})
    frag = write("same_frag.json", {
        "trnklg": 1, "height": 2, "trunk": [[0, "e0", 0], [0, "e1", 0]],
        "creatures": {"1": {"u": ["e0", "e1"], "w_eps": [["e0", [0]], ["e1", [0]]],
                            "w_alpha": [], "d": {"q": "0"}}}})
    assert run(["demo", "distinguish", "--profile", prof, "--in", frag,
                "--i", "e0", "--j", "e1"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "i": "e0", "j": "e1",
        "failure": "every branch agrees on the two indices at every level"}


def _list_walk_demos(p, prof, seed, i, j):
    """Both demos' results read off the list of every top branch."""
    branches = cond_poss(p, p.height, prof)
    nu = branches[random.Random(seed).randrange(len(branches))]
    sample = {"seed": seed, "count": len(branches), "branch": nu.to_json()}
    for nu in branches:
        for n in range(nu.n):
            a, b = nu.get(n, i), nu.get(n, j)
            if a != b:
                return sample, (0, {"level": n, "i": i, "j": j, "value_i": a, "value_j": b,
                                    "branch": nu.to_json()})
    return sample, (1, {"i": i, "j": j,
                        "failure": "every branch agrees on the two indices at every level"})


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_demos_read_the_level_rows_as_the_branch_list_does(data):
    """The demos pick their branch from the level rows; a walk over the list
    of every top branch picks the same one."""
    prof = _SEED_PROFILE
    p = _draw_fragment(data, prof)
    seed = data.draw(st.integers(0, 2 ** 32))
    order = data.draw(st.permutations(sorted(p.dom)))  # i == j only on a one-index domain
    i, j = order[0], order[-1]
    sample, dist = _list_walk_demos(p, prof, seed, i, j)
    args = argparse.Namespace(seed=seed, i=str(i), j=str(j))
    assert json.dumps(cli._cmd_demo_generic_sample(args, prof, p)) == json.dumps((0, sample))
    assert json.dumps(cli._cmd_demo_distinguish(args, prof, p)) == json.dumps(dist)


# malformed documents of every kind: exit 2 with the file named


def _malformed_cases(prof, frag):
    lvl = {"slot_sizes": 1, "height": 9}
    return {
        "profile": (["cond", "poss", "--profile", "{bad}", "--in", frag],
                    {"universe": CHAIN_UNI, "levels": [lvl]}),
        "creature": (["ml", "check", "--profile", prof, "--in", "{bad}"],
                     {"n": 1, "u": ["e0"]}),
        "creature-type": (["ml", "check", "--profile", prof, "--in", "{bad}"],
                          {"n": 1, "u": 5, "w_eps": [], "w_alpha": [], "d": {"q": "0"}}),
        "fragment": (["cond", "poss", "--profile", prof, "--in", "{bad}"],
                     {"trnklg": 0, "height": 2, "trunk": []}),
        "fragment-type": (["cond", "poss", "--profile", prof, "--in", "{bad}"], ["no", "dict"]),
        "name": (["cond", "rapid-read", "--profile", prof, "--in", frag, "--name", "{bad}",
                  "--M", "1"], {"values": {}, "bound": []}),
        "product": (["atomic", "order", "--in", "{bad}"], {"coordinates": [{"w": [0]}]}),
        "product-type": (["atomic", "order", "--in", "{bad}"], [1, 2]),
        "disjoint": (["atomic", "disjoint", "--in", "{bad}"],
                     {"param": {"kind": "subset-log", "base_size": 4}, "w1": [0]}),
        "cover": (["cond", "evade", "--profile", prof, "--in", frag, "--n", "1",
                   "--cover", "{bad}", "--beta", "a1"], {"level": 1, "indices": []}),
        "cover-key": (["cond", "evade", "--profile", prof, "--in", frag, "--n", "1",
                       "--cover", "{bad}", "--beta", "a1"],
                      {"level": 1, "indices": [], "table": {"not json": [1]}}),
    }


@pytest.mark.parametrize("kind", sorted(_malformed_cases("p", "f")))
def test_malformed_documents_are_usage_errors(chain_files, capsys, kind):
    write, tmp, prof, frag, name = chain_files
    argv, doc = _malformed_cases(prof, frag)[kind]
    bad = write("bad.json", doc)
    assert run([bad if a == "{bad}" else a for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: malformed document") and bad in err


@pytest.mark.parametrize("where", ["creature-d", "fragment-floor"])
def test_unreadable_rationals_in_documents_are_usage_errors(chain_files, where):
    write, tmp, prof, frag, name = chain_files
    if where == "creature-d":
        doc = {"n": 1, "u": ["e0"], "w_eps": [["e0", [0]]], "w_alpha": [], "d": {"q": "1/0"}}
        argv = ["ml", "check", "--profile", prof, "--in", write("bad.json", doc)]
    else:
        doc = dict(read_json(frag), floors=[[1, "1/0"]])
        argv = ["cond", "poss", "--profile", prof, "--in", write("bad.json", doc)]
    assert run(argv) == 2


# output bytes of the fragment and multi-level commands, pinned


def _shrunk(c, prof):
    """A successor of c: e0's selector keeps {0, 1}, a1's slot 2 keeps {0, 5}."""
    star, slot = prof.star_param(1), prof.slot_param(1, 2)
    out = c.copy()
    out.w_eps["e0"] = star.best_successor_within(c.w_eps["e0"], frozenset({0, 1}))
    out.w_alpha = {(a, k): w for (a, k), w in c.w_alpha.items() if a != "a0" or k < 2}
    out.w_alpha[("a1", 2)] = slot.best_successor_within(c.w_alpha[("a1", 2)], frozenset({0, 5}))
    return out


def _pin_docs():
    """The input documents of the pinned commands: placeholder -> (file
    name, JSON document)."""
    cp, wp = chain_profile(), wide_profile()
    chain, wide = chain_fragment(cp), wide_fragment(wp)
    sep = cond_separate_support(wide, wp)
    wide_name = seeded_name(sep, wp, [1], 2, seed=1)
    _, cover = cover_step(sep, 1, wide_name, "e0", wp)
    ml_lvl = {"kstar": 4, "slot_sizes": 3, "height": 9,
              "maxposs": 2, "maxsupp": 16, "gmin": 32, "bmin": 8}
    small = top_creature(ml_profile(height=9, kstar=4, slot=3), 1, {"e0", "a0"})
    # sixteen selector values over two trunks: a binary coloring cannot
    # exhaust the norm (the fragment-pipeline bench homogenizes the same)
    sel_levels = [dict(ml_lvl, kstar=2), dict(ml_lvl, kstar=16)]
    sel_profile = make_toy_profile({"universe": UNI, "levels": sel_levels})
    _, tops = toy_witness_pair()
    below, above = above_cut_pair(1)
    return {
        "{chain_profile}": ("chain_profile.json", {"universe": CHAIN_UNI, "levels": CHAIN_LEVELS}),
        "{chain}": ("chain_frag.json", chain.to_json()),
        "{chain_name}": ("chain_name.json", seeded_name(chain, cp, [1, 2], 2, seed=3).to_json()),
        "{wide_profile}": ("wide_profile.json",
                           {"universe": WIDE_UNI, "levels": [WIDE_LVL, WIDE_LVL]}),
        "{wide}": ("wide_frag.json", wide.to_json()),
        "{grow_profile}": ("grow_profile.json", {"universe": WIDE_UNI, "levels": [GROW_LVL] * 4}),
        "{grow}": ("grow_frag.json", grow_fragment().to_json()),
        "{cut_profile}": ("cut_profile.json", {"universe": CHAIN_UNI, "levels": [CHAIN_LEVELS[1]] * 4}),
        "{below}": ("below_frag.json", below.to_json()),
        "{above}": ("above_frag.json", above.to_json()),
        "{sep}": ("wide_sep.json", sep.to_json()),
        "{wide_name}": ("wide_name.json", wide_name.to_json()),
        "{cover}": ("cover.json", dict(cover, table={
            json.dumps(list(k)): v for k, v in cover["table"].items()})),
        "{creature}": ("creature.json", creature_to_json(wide.creatures[1])),
        "{shrunk}": ("shrunk.json", creature_to_json(_shrunk(wide.creatures[1], wp))),
        "{ml_profile}": ("ml_profile.json", {"universe": UNI, "levels": [ml_lvl, ml_lvl]}),
        "{small}": ("small_creature.json", creature_to_json(small)),
        "{sel_profile}": ("sel_profile.json", {"universe": UNI, "levels": sel_levels}),
        "{selector}": ("selector.json", creature_to_json(top_creature(sel_profile, 1, {"e0"}))),
        "{toyh}": ("toyh.json", {"kind": "halving-pairs", "base_size": 8}),
        "{toya}": ("toya.json", {"kind": "subset-log", "base_size": 8}),
        "{prod}": ("prod.json", {"coordinates": [
            {"param": LADDER_SPEC, "w": id_to_json(tops[0])},
            {"param": {"kind": "reservoir"}, "w": id_to_json(tops[1])}]}),
        "{dis}": ("dis.json", {"param": LADDER_SPEC, "w1": id_to_json(tops[0]),
                               "w2": id_to_json(tops[0])}),
        # a JSON true where a rational belongs
        "{bool_d}": ("bool_d.json", dict(creature_to_json(wide.creatures[1]), d={"q": True})),
        "{bool_floor}": ("bool_floor.json", dict(wide.to_json(), floors=[[1, True]])),
        "{bool_ladder}": ("bool_ladder.json",
                          {"kind": "ladder", "base_size": 1, "norms_by_size": {"1": True}}),
    }


def _pin_inputs(write):
    """The input documents of the pinned commands, written, keyed by placeholder."""
    return {key: write(name, doc) for key, (name, doc) in _pin_docs().items()}


# (command, exit code, first 16 hex digits of the sha256 of its stdout)
CLI_OUTPUT_PINS = [
    ("cond poss --profile {chain_profile} --in {chain}", 0, "2ab5015443df1f11"),
    ("cond poss --profile {chain_profile} --in {chain} --method local", 0, "2ab5015443df1f11"),
    ("cond poss --profile {wide_profile} --in {wide} --n 2", 0, "2c46f81e56f2a1c1"),
    ("cond poss --profile {grow_profile} --in {grow}", 0, "377a5da36702f5a0"),
    ("cond poss --profile {grow_profile} --in {grow} --n 3", 0, "f9bda2689c8f491a"),
    ("cond rapid-read --profile {chain_profile} --in {chain} --name {chain_name} --M 1", 0, "df2f752598635413"),
    ("cond separate --profile {wide_profile} --in {wide}", 0, "9517636962c98e1a"),
    ("cond halve-step --profile {wide_profile} --in {wide} --M 1 --floor 1", 0, "2997132b84faf10c"),
    ("cond cover --profile {wide_profile} --in {sep} --n 1 --eps e0 --name {wide_name}", 0, "a028db03cdf75a3d"),
    ("ml homogenize --profile {ml_profile} --in {small} --range 1 --seed 2", 0, "e25e223aca924adc"),
    ("ml homogenize --profile {sel_profile} --in {selector} --range 2 --seed 2", 0, "9ed6f4199ea4b2a9"),
    ("ml merge --profile {wide_profile} --in {creature} --in2 {creature}", 0, "a14739fd13f1439b"),
    ("ml check --profile {wide_profile} --in {shrunk} --against {creature} --enumerate", 0, "754ee023e577aaf0"),
    ("ml check --profile {wide_profile} --in {creature} --against {shrunk} --enumerate", 1, "d6c06532797bb404"),
    ("ml enlarge --profile {ml_profile} --in {small} --index a1", 0, "8de08f4c86ea279e"),
    ("demo distinguish --profile {wide_profile} --in {wide} --i e0 --j e1", 0, "ab2dcc184096857b"),
    ("demo generic-sample --profile {chain_profile} --in {chain} --seed 7", 0, "0942f3e9fb00d0ed"),
    ("params --level 0", 0, "4dbcc81c9e91c22b"),
    ("params --level 1", 0, "7d67eb64bfef7a95"),
    ("params --level 2", 0, "a6434c282714f5c6"),
    ("params --level 8", 0, "22c378100394f5c0"),
    ("atomic verify --in {toyh} --property axioms", 0, "773f3d0fc52c6e18"),
    ("atomic verify --in {toyh} --property halving --x 3/2", 0, "6e24184f58960eb1"),
    ("atomic verify --in {toya} --property halving --x 1", 1, "0d31be2f37b86d11"),
    ("atomic verify --in {toya} --property big --B 2 --x 1", 0, "69a3c536afb63351"),
    ("atomic verify --in {toya} --property big --B 8 --x 2", 1, "43a4dc39f2a1291a"),
    ("atomic verify --in {toya} --property big --B 2 --w [0,true,2,3]", 2, "e3b0c44298fc1c14"),
    ("atomic verify --in {toyh} --property halving --w [[0,1,2,3],true]", 2, "e3b0c44298fc1c14"),
    ("atomic make-nice --M 1 --m-max 7/4", 0, "d2f60ac89dff4a3e"),
    ("atomic order --in {prod} --x 1/4", 0, "7869f5149580596b"),
    ("atomic disjoint --in {dis} --x 1", 0, "304e7f609a480243"),
    ("ml check --profile {wide_profile} --in {creature}", 0, "ff965d1b75e95c9b"),
    ("ml norm --profile {wide_profile} --in {creature} --threshold 2", 0, "bec114c9422f95ce"),
    ("ml norm --profile {wide_profile} --in {creature} --threshold 9", 1, "52a1da52295f3d0e"),
    ("ml halve --profile {wide_profile} --in {creature}", 0, "2ecafb522fb4c0ec"),
    ("cond leq --profile {wide_profile} --in {sep} --against {wide}", 0, "c3502724a5235164"),
    ("cond leq --profile {wide_profile} --in {wide} --against {sep}", 1, "845ca2e5a50c500e"),
    ("cond leq --profile {cut_profile} --in {above} --against {below}", 1, "f6d9fb3cb8a1d126"),
    ("cond evade --profile {wide_profile} --in {sep} --n 1 --cover {cover} --beta a1", 0, "36d799dc9022b78d"),
    ("ml norm --profile {wide_profile} --in {bool_d}", 2, "e3b0c44298fc1c14"),
    ("cond poss --profile {wide_profile} --in {bool_floor}", 2, "e3b0c44298fc1c14"),
    ("atomic verify --in {bool_ladder} --property axioms", 2, "e3b0c44298fc1c14"),
]


@pytest.mark.parametrize("command, code, digest", CLI_OUTPUT_PINS)
def test_cli_output_bytes_are_pinned(files, capsys, command, code, digest):
    write, tmp = files
    inputs = _pin_inputs(write)
    assert run([inputs.get(a, a) for a in command.split()]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("command", [
    "ml norm --profile {wide_profile} --in {bool_d}",
    "cond poss --profile {wide_profile} --in {bool_floor}",
    "atomic verify --in {bool_ladder} --property axioms",
])
def test_a_bool_in_a_document_is_not_read_as_a_rational(files, capsys, command):
    """A creature's d, a fragment's norm floor and a ladder norm that are
    JSON true are refused (exit 2), not read as 1."""
    write, tmp = files
    inputs = _pin_inputs(write)
    assert run([inputs.get(a, a) for a in command.split()]) == 2
    assert "usage error: not a rational: True" in capsys.readouterr().err


# malformed fields of ml, cond and demo input documents: exit 2, never a traceback


_DROP = object()  # mutation marker: remove the field instead of setting it


def _mutated(doc, path, value):
    """A deep copy of doc with the field at path (keys and list indices)
    removed (value _DROP), replaced by value(field) (value a function), or
    set to a fresh copy of value."""
    doc = copy.deepcopy(doc)
    *head, last = path
    parent = functools.reduce(operator.getitem, head, doc)
    if value is _DROP:
        del parent[last]
    elif callable(value):
        parent[last] = value(parent[last])
    else:
        parent[last] = copy.deepcopy(value)
    return doc


def _run_mutated(directory, command, target, path, value):
    """Run command on the pinned documents with target's field at path
    mutated; stderr is dropped and the output goes to a file."""
    docs, paths = _pin_docs_once(), {}
    argv = command.split()
    for a in argv:
        if a in docs:
            name, doc = docs[a]
            paths[a] = str(directory / name)
            with open(paths[a], "w") as f:
                json.dump(_mutated(doc, path, value) if a == target else doc, f)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([paths.get(a, a) for a in argv] + ["--out", str(directory / "out.json")])
    return code, err.getvalue()


@functools.lru_cache(maxsize=1)
def _pin_docs_once():
    return _pin_docs()


_WIDE_POSS = "cond poss --profile {wide_profile} --in {wide}"
_COVER = "cond cover --profile {wide_profile} --in {sep} --n 1 --eps e0 --name {wide_name}"
_RAPID = "cond rapid-read --profile {chain_profile} --in {chain} --name {chain_name} --M 1"
_EVADE = "cond evade --profile {wide_profile} --in {sep} --n 1 --cover {cover} --beta a1"
_COVER_KEY = '[["e0", 0], ["a0", 0]]'  # the first block key of the pinned cover table

# (command, document, path, value): each once ended in a traceback, or in a
# verdict where the document should have been refused
REFUSED_FIELDS = {
    "creature-level-negative": ("ml norm --profile {wide_profile} --in {creature} --threshold 1",
                                "{creature}", ("n",), -1),
    "creature-level-list": ("ml norm --profile {wide_profile} --in {creature}",
                            "{creature}", ("n",), [1]),
    "creature-level-bool": ("ml check --profile {wide_profile} --in {creature}",
                            "{creature}", ("n",), True),
    "fragment-height-float": (_WIDE_POSS, "{wide}", ("height",), 1.5),
    "fragment-height-null": (_WIDE_POSS, "{wide}", ("height",), None),
    "fragment-trnklg-float": (_WIDE_POSS, "{wide}", ("trnklg",), 0.5),
    "fragment-trunk-string": (_WIDE_POSS, "{wide}", ("trunk", 0, 2), "x"),
    "fragment-trunk-level": (_WIDE_POSS, "{wide}", ("trunk", 0, 0), 0.0),
    "fragment-floor-level": (_WIDE_POSS, "{wide}", ("floors",), [["x", "1"]]),
    "demo-height-null": ("demo generic-sample --profile {chain_profile} --in {chain}",
                         "{chain}", ("height",), None),
    "cover-name-missing-branch": (_COVER, "{wide_name}", ("values", "1", 0), _DROP),
    "rapid-read-modulus-key": (_RAPID, "{chain_name}", ("modulus", 0, 0), "x"),
    "rapid-read-value-dict": (_RAPID, "{chain_name}", ("values", "1", 0, 1), {}),
    # a possibility key that misses a cell of its height
    "rapid-read-key-cells": (_RAPID, "{chain_name}", ("values", "1", 0, 0, "values"), []),
    "evade-indices-int": (_EVADE, "{cover}", ("indices",), 5),
    "evade-indices-stray": (_EVADE, "{cover}", ("indices",), ["e0", "zz"]),
    "evade-indices-unhashable": (_EVADE, "{cover}", ("indices",), [["e0"]]),
    # cover table entries that name no block key or no list of ints
    "evade-table-string": (_EVADE, "{cover}", ("table", _COVER_KEY), "xyz"),
    "evade-table-key-scalar": (_EVADE, "{cover}", ("table", "5"), [0]),
    "evade-table-float": (_EVADE, "{cover}", ("table", _COVER_KEY), [1.5]),
    # a table key whose values no level-1 row gives the block (e0 picks 0 or 1)
    "evade-table-key-value": (_EVADE, "{cover}", ("table",),
                              lambda t: dict(t, **{'[["e0", 99], ["a0", 0]]': [0]})),
    # a key that no decoder reads, each once read as absent with exit 0: the
    # misspelled log term of d was dropped (d read 5), the misspelled base
    # size left the default base-16 family, and the extra keys were ignored
    "creature-d-unread-key": ("ml norm --profile {wide_profile} --in {creature}", "{creature}",
                              ("d",), {"q": "5", "lgos": {"3": "1"}}),
    "creature-unread-key": ("ml norm --profile {wide_profile} --in {creature}", "{creature}",
                            ("colour",), 1),
    "fragment-creature-level-key": (_WIDE_POSS, "{wide}", ("creatures", "1", "n"), 1),
    "family-unread-key": ("atomic verify --in {toya} --property axioms", "{toya}",
                          ("base_sise",), 4),
    "product-family-unread-key": ("atomic order --in {prod} --x 1/4", "{prod}",
                                  ("coordinates", 1, "param", "base_size"), 4),
    # the misspelled floors were read as no floor (exit 0, where a floor of
    # 100 at level 1 fails with exit 1); the other keys were ignored
    "fragment-floors-misspelled": (_WIDE_POSS, "{wide}", ("flors",), [[1, "100"]]),
    "fragment-unread-key": (_WIDE_POSS, "{wide}", ("colour",), 1),
    "name-table-unread-key": (_RAPID, "{chain_name}", ("modulos",), [[1, 2]]),
    "possibility-unread-key": (_RAPID, "{chain_name}", ("values", "1", 0, 0, "colour"), 1),
    "product-unread-key": ("atomic order --in {prod} --x 1/4", "{prod}", ("colour",), 1),
    "product-coordinate-unread-key": ("atomic order --in {prod} --x 1/4", "{prod}",
                                      ("coordinates", 0, "colour"), 1),
    "disjoint-unread-key": ("atomic disjoint --in {dis} --x 1", "{dis}", ("colour",), 1),
    "cover-unread-key": (_EVADE, "{cover}", ("colour",), 1),
}


@pytest.mark.parametrize("case", sorted(REFUSED_FIELDS))
def test_malformed_fields_are_usage_errors(tmp_path, case):
    code, err = _run_mutated(tmp_path, *REFUSED_FIELDS[case])
    assert code == 2 and err.startswith("usage error:"), err


@pytest.mark.parametrize("key, code", [("gmin", 3), ("g_min", 2)])
def test_a_misspelled_profile_field_is_a_usage_error(tmp_path, key, code):
    """A gmin of 2 bounds the cover table below its 4 values (exit 3);
    spelled g_min it was read as absent, and the default 32 answered
    (exit 0)."""
    got, err = _run_mutated(tmp_path, _COVER, "{wide_profile}", ("levels",),
                            lambda levels: [dict(lvl, **{key: 2}) for lvl in levels])
    assert got == code, err
    assert ("unknown key 'g_min'" in err) == (code == 2), err


def test_a_cover_that_lists_an_index_twice_is_a_usage_error(tmp_path):
    """Indices e0, a0, e0 let one key give e0 two values, which no row
    gives; the cover is refused (exit 2), not read as a key that never
    matches a row."""
    docs, argv = _pin_docs_once(), _EVADE.split()
    cover = {"level": 1, "indices": ["e0", "a0", "e0"],
             "table": {'[["e0", 0], ["a0", 0], ["e0", 1]]': [0]}}
    for a in argv:
        if a in docs:
            (tmp_path / docs[a][0]).write_text(json.dumps(cover if a == "{cover}" else docs[a][1]))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(tmp_path / docs[a][0]) if a in docs else a for a in argv]
                    + ["--out", str(tmp_path / "out.json")])
    assert code == 2 and "must name one level's support indices" in err.getvalue(), err.getvalue()


def _twice(j, entry=None):
    """A list with its j-th item listed again, as entry when given."""
    return lambda items: items + [items[j] if entry is None else entry]


def _alias(key, alias):
    """A JSON object with the value at key also under alias."""
    return lambda obj: dict(obj, **{alias: obj[key]})


# (command, document, path, change): a key listed twice, each once read
# last-wins with exit 0
REPEATED_KEYS = {
    "fragment-trunk-cell": (_WIDE_POSS + " --n 1", "{wide}", ("trunk",),
                            _twice(0, [0, "a0", 1])),
    "fragment-creature-level": (_WIDE_POSS, "{wide}", ("creatures",), _alias("1", "01")),
    "fragment-floor-level": (_WIDE_POSS, "{wide}", ("floors",), [[1, "1"], [1, "1/2"]]),
    "creature-w-eps": ("ml norm --profile {wide_profile} --in {creature}", "{creature}",
                       ("w_eps",), _twice(0)),
    "creature-w-alpha": ("ml norm --profile {wide_profile} --in {creature}", "{creature}",
                         ("w_alpha",), _twice(0, ["a0", 0, [0, 1]])),
    "creature-support": ("ml norm --profile {wide_profile} --in {creature}", "{creature}",
                         ("u",), _twice(0)),
    "fragment-creature-support": (_WIDE_POSS, "{wide}", ("creatures", "1", "u"), _twice(0)),
    "name-modulus": (_COVER, "{wide_name}", ("modulus",), _twice(0)),
    "name-bound": (_COVER, "{wide_name}", ("bound",), _twice(0)),
    "name-values-level": (_COVER, "{wide_name}", ("values",), _alias("1", "01")),
    "name-possibility": (_COVER, "{wide_name}", ("values", "1"), _twice(0)),
    "name-possibility-cell": (_COVER, "{wide_name}", ("values", "1", 0, 0, "values"),
                              _twice(0)),
    "cover-table-key": (_EVADE, "{cover}", ("table",),
                        _alias(_COVER_KEY, _COVER_KEY.replace(", ", ","))),
}


@pytest.mark.parametrize("case", sorted(REPEATED_KEYS))
def test_a_key_listed_twice_is_a_usage_error(tmp_path, case):
    command, target, path, change = REPEATED_KEYS[case]
    code, err = _run_mutated(tmp_path, command, target, path, change)
    name = _pin_docs_once()[target][0]
    assert code == 2 and err.startswith("usage error: malformed document"), err
    assert name in err and "is listed twice" in err, err


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"1" * 5000],
                         ids=["not-utf8", "int-past-digit-limit"])
def test_undecodable_json_is_a_usage_error(tmp_path, capsys, content):
    """Bytes that are not UTF-8, and an int past Python's 4,300-digit str
    limit, are malformed JSON (exit 2), not a traceback."""
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    assert main(["atomic", "verify", "--in", str(path), "--property", "axioms"]) == 2
    assert capsys.readouterr().err.startswith(f"usage error: malformed JSON in {path}: ")


def test_a_json_object_key_listed_twice_is_a_usage_error(tmp_path):
    """json.load keeps the last of two equal keys; read_json refuses them."""
    text = json.dumps(_pin_docs_once()["{creature}"][1])
    path = tmp_path / "creature.json"
    path.write_text(text.replace('{"n": 1,', '{"n": 1, "n": 2,', 1))
    with pytest.raises(UsageError, match="^malformed JSON in .*creature.json: "
                                         "JSON object key 'n' is listed twice$"):
        read_json(path)
    prof = tmp_path / "profile.json"
    prof.write_text(json.dumps(_pin_docs_once()["{wide_profile}"][1]))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["ml", "norm", "--profile", str(prof), "--in", str(path)]) == 2
    assert err.getvalue().startswith(f"usage error: malformed JSON in {path}")


def _cli_child(tmp_path, command, target, change, address_space=1 << 30):
    """Run command on the pinned documents, target's document updated by
    change, in a child limited to address_space bytes (1 GiB by default)
    and 60 s, so a runaway allocation ends the child, not the machine."""
    argv = []
    for a in command.split():
        if a in _pin_docs_once():
            name, doc = _pin_docs_once()[a]
            path = tmp_path / name
            path.write_text(json.dumps(change(copy.deepcopy(doc)) if a == target else doc))
            a = str(path)
        argv.append(a)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))
    return subprocess.run([sys.executable, "-m", "creaturelab.cli"] + argv, env=env,
                          capture_output=True, text=True, timeout=60, preexec_fn=limit)


def _big_fragment(tmp_path, height, maxposs):
    """Profile and fragment files of height levels of 1,024 rows each (one
    selector with 4 values binding two 16-value slots)."""
    a = ["a0", "a1"]
    lvl = {"kstar": 4, "slot_sizes": 16, "height": 4, "maxposs": maxposs, "maxsupp": 16,
           "gmin": 32, "bmin": 8}
    c = {"u": ["e0"] + a, "w_eps": [["e0", [0, 1, 2, 3]]],
         "w_alpha": [[i, k, list(range(16))] for i in a for k in range(4)], "d": {"q": "0"}}
    prof, frag = tmp_path / f"big_profile_{height}.json", tmp_path / f"big_{height}.json"
    prof.write_text(json.dumps({"universe": {"mu": ["e0"], "alpha": a,
                                             "eps_of": dict.fromkeys(a, "e0")},
                                "levels": [lvl] * height}))
    frag.write_text(json.dumps({"trnklg": 0, "height": height, "trunk": [],
                                "creatures": dict.fromkeys(map(str, range(height)), c)}))
    return prof, frag


def test_running_out_of_memory_is_a_one_line_exit_3(tmp_path):
    """cond poss --n 2 on a fragment of 2^20 possibilities (1,024 rows per
    level) lists ENUM_CAP branches, more than 200,000 KB of address space
    holds: the MemoryError is a refusal (exit 3, one line), not a
    traceback with exit 1."""
    prof, frag = _big_fragment(tmp_path, 3, 1 << 21)
    out = _cli_child(tmp_path, f"cond poss --profile {prof} --in {frag} --n 2", None,
                     None, address_space=200000 * 1024)
    assert out.returncode == 3 and out.stdout == "", out.stderr[-300:]
    assert out.stderr.startswith("infeasible: MemoryError") and out.stderr.count("\n") == 1


@pytest.mark.parametrize("command, code, err", [
    ("cond poss --n 1", 0, ""),
    ("cond leq --against {frag}", 0, ""),
    ("cond poss --n 2", 3, "infeasible: MemoryError"),
    ("demo distinguish --i e0 --j a0", 0, ""),
    ("demo generic-sample --seed 7", 0, ""),
])
def test_a_fragment_past_the_enumeration_cap_loads_within_200_mb(tmp_path, command, code, err):
    """Four levels of 1,024 rows, 2^40 possibilities at the top: loading
    counts them and builds no row, and the demos read the level rows
    without building a branch list, so what fits in 200,000 KB answers;
    the 2^20 branches at height 2 do not fit."""
    prof, frag = _big_fragment(tmp_path, 4, 1 << 41)
    argv = f"{command.format(frag=frag)} --profile {prof} --in {frag}"
    out = _cli_child(tmp_path, argv, None, None, address_space=200000 * 1024)
    assert out.returncode == code and out.stderr.startswith(err), out.stderr[-300:]
    if command.startswith("demo"):
        doc, profile = json.loads(out.stdout), make_toy_profile(read_json(prof))
        p = FiniteCondition.from_json(read_json(frag))
        assert cond_poss_contains(p, Possibility.from_json(doc["branch"]), profile)
        assert doc.get("count", 1 << 40) == 1099511627776


def test_running_out_of_recursion_depth_is_a_one_line_exit_3(capsys, monkeypatch):
    def deep(result, out_path):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("creaturelab.cli._emit", deep)
    assert run(["params", "--level", "0"]) == 3
    assert capsys.readouterr().err == ("infeasible: RecursionError: "
                                       "maximum recursion depth exceeded\n")


def test_a_huge_fragment_height_is_refused_without_building_its_levels(tmp_path):
    out = _cli_child(tmp_path, _WIDE_POSS, "{wide}", lambda doc: dict(doc, height=10**12))
    assert out.returncode == 2 and "one creature per level" in out.stderr, out.stderr[-300:]


def _set_level_field(level, field, value):
    def change(doc):
        doc["levels"][level][field] = value
        return doc
    return change


# (level, field, value, exit code): a profile number that once hung the
# profile's constraint report, exhausted memory, raised an untyped
# ValueError or was accepted; the report's bit budget once refused the
# exit-0 numbers, which the profile only stores and compares
PROFILE_NUMBERS = [
    (0, "height", 10**12, 0),
    (0, "height", 20000, 0),
    (0, "height", True, 2),
    (1, "maxposs", 10**12, 0),
    (1, "maxposs", 2049, 0),
    (0, "maxsupp", 10**12, 0),
    (0, "kstar", 10**12, 3),
    (0, "gmin", 1.5, 2),
    # past the 4,096-bit bound on a count field
    pytest.param(0, "gmin", 1 << 5000, 3, id="0-gmin-2**5000-3"),
]


@pytest.mark.parametrize("level, field, value, code", PROFILE_NUMBERS)
def test_profile_numbers_are_typed_and_bounded(tmp_path, level, field, value, code):
    out = _cli_child(tmp_path, "ml check --profile {wide_profile} --in {creature}",
                     "{wide_profile}", _set_level_field(level, field, value))
    prefix = {0: "", 2: "usage error:", 3: "infeasible: SizeInfeasible: level"}[code]
    assert out.returncode == code and out.stderr.startswith(prefix), out.stderr[-300:]


def _int_named(doc):
    """doc with the mu indices e0 and e1 renamed to the ints 0 and 1."""
    if isinstance(doc, dict):
        return {k: _int_named(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_int_named(x) for x in doc]
    return {"e0": 0, "e1": 1}.get(doc, doc) if isinstance(doc, str) else doc


def _int_inputs(write):
    """The pinned commands' documents with e0 and e1 renamed to 0 and 1."""
    return {key: write(name, _int_named(doc)) for key, (name, doc) in _pin_docs().items()}


@pytest.mark.parametrize("command, code, err", [
    ("demo distinguish --profile {wide_profile} --in {wide} --i 0 --j 1", 0, ""),
    ("ml enlarge --profile {ml_profile} --in {small} --index 1", 0, ""),
    ("cond cover --profile {wide_profile} --in {sep} --n 1 --eps 0 --name {wide_name}", 0, ""),
    # text that names no index reaches the command unchanged
    ("demo distinguish --profile {wide_profile} --in {wide} --i 0 --j e1", 2,
     "index 'e1' is not in the fragment's domain"),
])
def test_an_option_names_an_int_index_by_its_str(files, capsys, command, code, err):
    """Each index option resolves through the universe, so an int index is
    named by its str."""
    inputs = _int_inputs(files[0])
    assert run([inputs.get(a, a) for a in command.split()]) == code
    assert err in capsys.readouterr().err


_INT_LEVEL = {"kstar": 2, "slot_sizes": 2, "height": 4, "maxposs": 8, "maxsupp": 16,
              "gmin": 32, "bmin": 8}


@pytest.mark.parametrize("enum, error", [
    # both lists name the support, so merge gets past them to its norm check
    ("0,1", "NormTooSmall"),
    ("1,0", "NormTooSmall"),
    ("0", "DomainMismatch: enumeration must list the support exactly once"),
])
def test_ml_merge_enumerations_name_int_indices_by_their_str(files, capsys, enum, error):
    write, tmp = files
    prof = write("int_profile.json", {"universe": {"mu": [0, 1], "alpha": [], "eps_of": {}},
                                      "levels": [_INT_LEVEL, _INT_LEVEL]})
    cre = write("int_creature.json", {"n": 1, "u": [0, 1], "w_eps": [[0, [0, 1]], [1, [0, 1]]],
                                      "w_alpha": [], "d": {"q": "0"}})
    argv = ["ml", "merge", "--profile", prof, "--in", cre, "--in2", cre]
    assert run(argv + ["--enum", enum, "--enum2", enum]) == 1
    assert error in capsys.readouterr().err
    assert run(argv) == 1 and "NormTooSmall" in capsys.readouterr().err


def test_a_name_table_without_the_level_is_a_usage_error(tmp_path):
    """cond cover refuses a name table with no entry at its level as a usage
    error naming the level, not as a decision height past the fragment."""
    empty = tmp_path / "empty_name.json"
    empty.write_text(json.dumps({"modulus": [], "values": {}, "bound": []}))
    code, err = _run_mutated(tmp_path, _COVER.replace("{wide_name}", str(empty)), None, (), None)
    assert (code, err) == (2, "usage error: the name table has no level-1 entry\n")


def test_a_name_table_past_the_fragment_stays_modulus_too_deep(tmp_path):
    """The cover loader checks decision heights before the table's keys."""
    code, err = _run_mutated(tmp_path, _COVER, "{wide_name}", ("modulus", 0, 1), 9)
    assert code == 3 and "ModulusTooDeep" in err


def _paths(doc, depth=2):
    """Every path of at most depth keys or list indices into doc."""
    if depth == 0 or not isinstance(doc, (dict, list)):
        return []
    keys = list(doc) if isinstance(doc, dict) else range(len(doc))
    return [(k,) + rest for k in keys for rest in [()] + _paths(doc[k], depth - 1)]


FUZZ_COMMANDS = [
    "atomic verify --in {toyh} --property axioms",
    "atomic verify --in {toyh} --property halving --x 3/2",
    "atomic verify --in {toya} --property big --B 2 --x 1",
    "atomic homogenize --in {prod} --range 2",
    "atomic order --in {prod} --x 1/4",
    "atomic disjoint --in {dis} --x 1",
    "ml check --profile {wide_profile} --in {shrunk} --against {creature} --enumerate",
    "ml norm --profile {wide_profile} --in {creature} --threshold 1",
    "ml halve --profile {wide_profile} --in {creature}",
    "ml merge --profile {wide_profile} --in {creature} --in2 {creature}",
    "ml enlarge --profile {ml_profile} --in {small} --index a1",
    "ml homogenize --profile {ml_profile} --in {small} --range 1",
    "cond poss --profile {chain_profile} --in {chain}",
    "cond leq --profile {wide_profile} --in {sep} --against {wide}",
    "cond separate --profile {wide_profile} --in {wide}",
    _RAPID,
    "cond halve-step --profile {wide_profile} --in {wide} --M 1",
    _COVER,
    _EVADE,
    "demo generic-sample --profile {chain_profile} --in {chain} --seed 7",
    "demo distinguish --profile {wide_profile} --in {wide} --i e0 --j e1",
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


FUZZ_VALUES = [_DROP, None, "x", -1, 1.5, True, [], {}, 10**12]


@functools.lru_cache(maxsize=None)
def _fuzz_paths(target):
    """The fields of target's document that the fuzz test mutates: every
    field at depth <= 2; in a profile also each level's numbers, and in a
    product document each coordinate's parameter fields and id (depth 4)."""
    doc = _pin_docs_once()[target][1]
    if target.endswith("profile}"):
        return _paths(doc) + [p for p in _paths(doc, 3) if len(p) == 3 and p[0] == "levels"]
    return _paths(doc, 4 if target == "{prod}" else 2)


@settings(max_examples=450, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_documents_never_raise(fuzz_dir, data):
    """Drop one field of one input document, or set it to a value of the
    wrong kind: every command answers with an exit code."""
    command = data.draw(st.sampled_from(FUZZ_COMMANDS))
    target = data.draw(st.sampled_from(sorted({a for a in command.split() if a.startswith("{")})))
    path = data.draw(st.sampled_from(_fuzz_paths(target)))
    value = data.draw(st.sampled_from(FUZZ_VALUES))
    code, _ = _run_mutated(fuzz_dir, command, target, path, value)
    assert 0 <= code <= 3


@pytest.mark.parametrize("option", ["--M", "--m-max", "--budget-bits"])
@pytest.mark.parametrize("value", FUZZ_VALUES, ids=lambda v: "drop" if v is _DROP else repr(v))
def test_mutated_make_nice_specs_never_raise(capsys, option, value):
    """make-nice reads its parameter spec from options, not a document."""
    spec = {"--M": "1", "--m-max": "7/4", "--budget-bits": "20"}
    if value is _DROP:
        del spec[option]
    else:
        spec[option] = json.dumps(value)
    assert 0 <= run(["atomic", "make-nice"] + [a for kv in spec.items() for a in kv]) <= 3
