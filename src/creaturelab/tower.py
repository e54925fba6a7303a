"""Natural numbers of tower-exponential size, with decidable-ish comparison.

A TowerNat is an expression tree over positive integers with +, *, ** and
named references.  Values small enough to materialize (at most 2**20 bits)
are evaluated exactly.  Larger values are compared through rigorous interval
bounds on iterated base-2 logarithms: B(e, k) brackets log2(log2(...(e)...))
with k logs.  When neither exact evaluation nor the bounds separate two
expressions, comparison raises Indeterminate rather than guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import mpmath

from .errors import Indeterminate, UsageError

__all__ = [
    "TowerNat",
    "lit",
    "add",
    "mul",
    "pow_",
    "ref",
    "tower_compare",
]

# Budget for exact evaluation: values up to 2**(2**20), comfortable for ints.
_MAX_BITS = 1 << 20
# Depth of iterated-log bounding before giving up.
_MAX_LOG_DEPTH = 6
_PREC = 96


@dataclass(frozen=True)
class TowerNat:
    """op in {'lit', 'add', 'mul', 'pow', 'ref'}."""

    op: str
    args: tuple = ()
    n: int = 0
    name: str = ""
    env: Optional[dict] = field(default=None, compare=False, hash=False)

    # -- construction --------------------------------------------------------

    def __post_init__(self):
        if self.op == "lit" and self.n < 1:
            raise UsageError("tower literals must be >= 1")

    def __add__(self, other):
        return add(self, _coerce(other))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __pow__(self, other):
        return pow_(self, _coerce(other))

    # -- exact evaluation -----------------------------------------------------

    def bits_upper(self) -> float:
        """Cheap float upper bound on log2(value); inf when it overflows."""
        if self.op == "lit":
            return math.log2(self.n) if self.n > 1 else 0.0
        if self.op == "ref":
            return self._deref().bits_upper()
        a = [x.bits_upper() for x in self.args]
        if self.op == "add":
            return max(a) + 1.0
        if self.op == "mul":
            return sum(a) + len(a)
        if self.op == "pow":
            base_bits = a[0] + 1.0
            try:
                ev = self.args[1].eval_exact()
            except Indeterminate:
                return math.inf
            if ev is None or ev > (1 << 62):
                return math.inf
            return base_bits * float(ev)
        raise UsageError(f"unknown op {self.op!r}")

    def eval_exact(self) -> Optional[int]:
        """The integer value, or None if it exceeds the bit budget."""
        ub = self.bits_upper()
        if ub > _MAX_BITS:
            return None
        return self._eval()

    def _eval(self) -> int:
        if self.op == "lit":
            return self.n
        if self.op == "ref":
            return self._deref()._eval()
        vals = [x._eval() for x in self.args]
        if self.op == "add":
            return sum(vals)
        if self.op == "mul":
            r = 1
            for v in vals:
                r *= v
            return r
        if self.op == "pow":
            return vals[0] ** vals[1]
        raise UsageError(f"unknown op {self.op!r}")

    def has_ref(self) -> bool:
        """Does the tree contain a named reference?"""
        return self.op == "ref" or any(a.has_ref() for a in self.args)

    def _deref(self) -> "TowerNat":
        if self.env is None or self.name not in self.env:
            raise UsageError(f"unbound reference {self.name!r}")
        return self.env[self.name]

    # -- iterated-log interval bounds -----------------------------------------

    def log_bounds(self, k: int) -> tuple[float, float]:
        """(lo, hi) bracketing log2 applied k times to the value.

        Requires the value to stay >= 2 through every log lift, which callers
        guarantee by only increasing k when the previous bounds sit above 1.
        Returns floats; -inf/inf mark failure to bound from that side.
        """
        if k == 0:
            v = self.eval_exact()
            if v is not None:
                if v.bit_length() <= 1000:
                    return (float(v), float(v))
                # too big for a float; a clamped power-of-two lower bound
                # still separates anything float-sized
                return (2.0 ** min(1000.0, float(v.bit_length() - 1)), math.inf)
            return (2.0 ** min(1000.0, self.bits_lower(1)[0]), math.inf)
        v = self.eval_exact()
        if v is not None:
            x = mpmath.mpf(v)
            for _ in range(k):
                if x < 1:
                    return (-math.inf, math.inf)
                x = mpmath.log(x, 2)
            f = float(x)
            return (f * (1 - 1e-12) - 1e-9, f * (1 + 1e-12) + 1e-9)
        return self.bits_lower(k)

    def bits_lower(self, k: int) -> tuple[float, float]:
        """Structural (lo, hi) for the k-fold log2, k >= 1, value too big."""
        if self.op == "ref":
            return self._deref().log_bounds(k)
        if self.op == "lit":
            return self.log_bounds(k)  # lit is always exact
        if self.op == "add":
            bs = [x.log_bounds(k) for x in self.args]
            lo = max(b[0] for b in bs)
            hi = max(b[1] for b in bs)
            # log2(a+b) <= max(log2 a, log2 b) + 1, and the +1 shrinks
            # under further logs, so +1 on hi is sound at any depth k >= 1.
            return (lo, hi + 1.0)
        if self.op == "mul":
            bs = [x.log_bounds(k) for x in self.args]
            if k == 1:
                return (sum(b[0] for b in bs), sum(b[1] for b in bs))
            lo = max(b[0] for b in bs)
            hi = max(b[1] for b in bs)
            return (lo, hi + 1.0)
        if self.op == "pow":
            x, y = self.args
            if k == 1:
                # log2(x**y) = y * log2(x)
                ylo, yhi = y.log_bounds(0)
                xlo, xhi = x.log_bounds(1)
                if math.isinf(yhi) or math.isinf(xhi):
                    lo = ylo * max(xlo, 0.0)
                    return (lo, math.inf)
                return (ylo * max(xlo, 0.0), yhi * max(xhi, 0.0))
            if k == 2:
                # log2 log2 (x**y) = log2(y) + log2 log2 x  when log2 x >= 1;
                # bracketed by treating the sum at depth 1 of each part.
                ylo, yhi = y.log_bounds(1)
                xlo, xhi = x.log_bounds(2)
                lo = _guarded_sum_lo(ylo, xlo)
                hi = ylo_hi_sum(yhi, xhi)
                return (lo, hi)
            # k >= 3: max rule on the two depth-(k) pieces, slack +1 at k-1
            # absorbed into one extra unit on hi.
            ylo, yhi = y.log_bounds(k - 1)
            xlo, xhi = x.log_bounds(k)
            return (max(ylo, xlo), max(yhi, xhi) + 1.0)
        raise UsageError(f"unknown op {self.op!r}")

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        if self.op == "lit":
            return {"lit": self.n}
        if self.op == "ref":
            return {"ref": self.name}
        return {"op": self.op, "args": [a.to_json() for a in self.args]}

    @staticmethod
    def from_json(obj, env: Optional[dict] = None) -> "TowerNat":
        if isinstance(obj, int):
            return lit(obj)
        if not isinstance(obj, dict):
            raise UsageError(f"not a TowerNat payload: {obj!r}")
        if "lit" in obj:
            return lit(int(obj["lit"]))
        if "ref" in obj:
            return TowerNat("ref", name=obj["ref"], env=env)
        args = tuple(TowerNat.from_json(a, env) for a in obj["args"])
        op = obj["op"]
        if op not in ("add", "mul", "pow"):
            raise UsageError(f"unknown op {op!r}")
        return TowerNat(op, args)

    def __repr__(self) -> str:
        if self.op == "lit":
            return str(self.n)
        if self.op == "ref":
            return f"@{self.name}"
        sym = {"add": " + ", "mul": " * ", "pow": " ** "}[self.op]
        return "(" + sym.join(repr(a) for a in self.args) + ")"


def _guarded_sum_lo(a: float, b: float) -> float:
    if math.isinf(a) and a < 0:
        return b
    if math.isinf(b) and b < 0:
        return a
    return _lse_lo(a, b)


def _lse_lo(a: float, b: float) -> float:
    # log2(2**a + 2**b) >= max(a, b); lower bound for the depth-2 pow sum.
    return max(a, b)


def ylo_hi_sum(a: float, b: float) -> float:
    if math.isinf(a) or math.isinf(b):
        return math.inf
    # log2(2**a + 2**b) <= max + 1.
    return max(a, b) + 1.0


def lit(n: int) -> TowerNat:
    return TowerNat("lit", n=int(n))


def add(*args) -> TowerNat:
    return TowerNat("add", tuple(_coerce(a) for a in args))


def mul(*args) -> TowerNat:
    return TowerNat("mul", tuple(_coerce(a) for a in args))


def pow_(base, exp) -> TowerNat:
    return TowerNat("pow", (_coerce(base), _coerce(exp)))


def ref(name: str, env: dict) -> TowerNat:
    return TowerNat("ref", name=name, env=env)


def _coerce(x) -> TowerNat:
    if isinstance(x, TowerNat):
        return x
    if isinstance(x, int):
        return lit(x)
    raise UsageError(f"cannot interpret {x!r} as TowerNat")


def tower_compare(a: TowerNat, b: TowerNat) -> int:
    """-1, 0, 1; raises Indeterminate when the bounds cannot separate."""
    a = _coerce(a)
    b = _coerce(b)
    va, vb = a.eval_exact(), b.eval_exact()
    if va is not None and vb is not None:
        return (va > vb) - (va < vb)
    if a == b and not a.has_ref():
        # structural equality is sound only for reference-free trees: env
        # takes no part in ==, so two equal refs may be bound differently
        return 0
    for k in range(1, _MAX_LOG_DEPTH + 1):
        alo, ahi = a.log_bounds(k)
        blo, bhi = b.log_bounds(k)
        if alo > bhi:
            return 1
        if ahi < blo:
            return -1
        # only keep lifting while both values are provably large enough
        if alo <= 1.0 or blo <= 1.0:
            break
    raise Indeterminate(f"cannot order {a!r} and {b!r} within bound depth")
