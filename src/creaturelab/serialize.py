"""JSON input/output for the command line.

Readers turn JSON documents into atomic parameters and level creatures only
(fragments and name tables are read in `conditions`, profiles by
`params.make_toy_profile`); the writer is atomic: it writes to a temporary
file in the target directory and renames it into place, so a crashed run
never leaves a partial output behind.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction

from .errors import UsageError, refuse_unread
from .logreal import as_fraction
from .atomic.base import id_from_json, id_to_json, unique_dict
from .atomic import (
    HalvingPairFamily,
    ReservoirFamily,
    SubsetLadderFamily,
    TrivialTwoPointFamily,
    capped_ladder,
    plateau_family,
    subset_log_family,
)


def _object(pairs):
    """A JSON object; a key it lists twice is refused, not read last-wins."""
    return unique_dict(pairs, "JSON object key")


def read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_object)
    except FileNotFoundError:
        raise UsageError(f"input file not found: {path}")
    except ValueError as exc:  # bad JSON, a repeated key, bytes not UTF-8, a 4,300+ digit int
        raise UsageError(f"malformed JSON in {path}: {exc}")


def write_json(path, obj) -> None:
    """Serialize obj to path atomically (temp file + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def parse_rational(text) -> Fraction:
    """Parse a rational literal: '3', '3/2', '1.5', or 'log2(8)' for an
    integer power-of-two logarithm.  A bool is refused (as_fraction)."""
    if isinstance(text, (int, Fraction)):
        return as_fraction(text)
    s = str(text).strip()
    if s.startswith("log2(") and s.endswith(")"):
        try:
            inner = int(s[5:-1])
        except ValueError:
            raise UsageError(f"not a rational literal: {text!r}")
        if inner < 1 or inner & (inner - 1):
            raise UsageError(f"log2 literal needs a power of two, got {inner}")
        return Fraction(inner.bit_length() - 1)
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"not a rational literal: {text!r}")


_REQUIRED = object()
_RATIONAL = (int, float, str)
# the fields each kind of atomic parameter document reads besides "kind"
_KIND_FIELDS = {
    "subset-log": ("base_size", "name"),
    "capped-ladder": ("m_max", "base_size", "name"),
    "plateau": ("height", "base_size", "name"),
    "two-point": ("m_max",),
    "halving-pairs": ("base_size",),
    "reservoir": (),
    "ladder": ("norms_by_size", "base_size", "name"),
}


def _field(obj, kind, name, types, default=_REQUIRED):
    """obj[name] checked against `types`; a missing or ill-typed field is a
    UsageError naming the parameter kind and the field."""
    if name not in obj:
        if default is _REQUIRED:
            raise UsageError(f"{kind!r} parameter document needs a {name!r} field")
        return default
    value = obj[name]
    if isinstance(value, bool) or not isinstance(value, types):
        expected = " or ".join(t.__name__ for t in types)
        raise UsageError(f"{kind!r} parameter field {name!r} must be {expected}, "
                         f"got {type(value).__name__}")
    return value


def atomic_param_from_json(obj):
    """Build an atomic parameter from a registry document {'kind': ..., ...};
    a key that its kind does not read is refused."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise UsageError("atomic parameter document needs a 'kind' field")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _KIND_FIELDS:
        raise UsageError(f"unknown atomic parameter kind: {kind!r}")
    refuse_unread(obj, ("kind",) + _KIND_FIELDS[kind], f"{kind!r} parameter document")

    def get(name, types, default=_REQUIRED):
        return _field(obj, kind, name, types, default)

    if kind == "subset-log":
        return subset_log_family(get("base_size", (int,), 16),
                                 name=get("name", (str,), "subset-log"))
    if kind == "capped-ladder":
        return capped_ladder(parse_rational(get("m_max", _RATIONAL)),
                             base_size=get("base_size", (int,), 8),
                             name=get("name", (str,), "capped-ladder"))
    if kind == "plateau":
        return plateau_family(parse_rational(get("height", _RATIONAL)),
                              get("base_size", (int,)),
                              name=get("name", (str,), "plateau"))
    if kind == "two-point":
        return TrivialTwoPointFamily(parse_rational(get("m_max", _RATIONAL)))
    if kind == "halving-pairs":
        return HalvingPairFamily(base_size=get("base_size", (int,), 16))
    if kind == "reservoir":
        return ReservoirFamily()
    # "ladder", the one kind left
    raw = get("norms_by_size", (dict,))
    base_size = get("base_size", (int,))
    try:
        norms = {int(k): parse_rational(v) for k, v in raw.items()}
    except ValueError:
        raise UsageError(f"'ladder' parameter field 'norms_by_size' needs integer sizes, "
                         f"got {sorted(raw)}")
    return SubsetLadderFamily(get("name", (str,), "ladder"), base_size, norms)


def creature_to_json(c) -> dict:
    return c.to_json()


def creature_from_json(obj, n=None):
    """MlCreature.from_json, imported on first use: commands that read no
    creature never load mlcore."""
    from .mlcore import MlCreature

    return MlCreature.from_json(obj, n)
