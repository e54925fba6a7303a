"""Portable records of check outcomes.

A certificate pins the check kind, its numeric arguments, the verdict, and
either a witness or a counterexample, together with a hash of the parameter
it was computed against.  Certificates replay: feeding one back into
`replay_certificate` re-verifies the recorded object against the live
parameter instead of trusting the stored verdict.
"""

from __future__ import annotations

import json

from ..errors import UsageError
from ..records import Record


def _encode(x):
    """JSON-safe encoding of ids, norms and nested structures."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if hasattr(x, "to_json"):
        return {"_lr": x.to_json()}
    if isinstance(x, float):
        return x
    if isinstance(x, (list, tuple)):
        return {"_seq": [_encode(v) for v in x], "_tuple": isinstance(x, tuple)}
    if isinstance(x, (set, frozenset)):
        return {"_set": sorted(_encode(v) for v in x)}
    if isinstance(x, dict):
        return {"_map": [[_encode(k), _encode(v)] for k, v in x.items()]}
    raise UsageError(f"cannot serialize {type(x).__name__} in a certificate")


def _decode(x):
    if isinstance(x, dict):
        if "_lr" in x:
            from ..logreal import LogReal

            return LogReal.from_json(x["_lr"])
        if "_seq" in x:
            seq = [_decode(v) for v in x["_seq"]]
            return tuple(seq) if x.get("_tuple") else seq
        if "_set" in x:
            return frozenset(_decode(v) for v in x["_set"])
        if "_map" in x:
            return {_decode(k): _decode(v) for k, v in x["_map"]}
    return x


class PropertyCertificate(Record):
    """Outcome of one property check, sufficient to replay it."""

    __slots__ = ("kind", "params", "verdict", "witness", "counterexample", "param_hash", "mode")

    def __init__(self, kind: str, params: dict | None = None, verdict: bool = False,
                 witness=None, counterexample=None, param_hash: str = "", mode: str = ""):
        self.kind = kind  # "bigness" | "halving" | "decisive" | "nice" | "valid"
        self.params = {} if params is None else params
        self.verdict = verdict
        self.witness = witness
        self.counterexample = counterexample
        self.param_hash = param_hash
        self.mode = mode

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "params": {k: _encode(v) for k, v in self.params.items()},
            "verdict": self.verdict,
            "witness": _encode(self.witness),
            "counterexample": _encode(self.counterexample),
            "param_hash": self.param_hash,
            "mode": self.mode,
        }

    @staticmethod
    def from_json(obj: dict) -> "PropertyCertificate":
        try:
            return PropertyCertificate(
                kind=obj["kind"],
                params={k: _decode(v) for k, v in obj["params"].items()},
                verdict=bool(obj["verdict"]),
                witness=_decode(obj.get("witness")),
                counterexample=_decode(obj.get("counterexample")),
                param_hash=obj.get("param_hash", ""),
                mode=obj.get("mode", ""),
            )
        except (KeyError, TypeError) as exc:
            raise UsageError(f"malformed certificate: {exc}") from exc

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @staticmethod
    def loads(text: str) -> "PropertyCertificate":
        return PropertyCertificate.from_json(json.loads(text))
