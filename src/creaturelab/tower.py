"""Natural numbers of tower-exponential size, with decidable-ish comparison.

A TowerNat is an expression tree over positive integers with +, *, ** and
named references.  Values small enough to materialize (at most 2**20 bits)
are evaluated exactly.  Larger values are compared through exact rational
bounds on iterated base-2 logarithms: log_bounds(k) brackets
log2(log2(...(e)...)) with k logs, from logreal's integer enclosure of
log2(n) and the structural rules in bits_lower.  When neither exact
evaluation nor the bounds separate two expressions, comparison raises
Indeterminate rather than guessing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .errors import Indeterminate, UsageError
from .logreal import _log2_range
from .records import Frozen

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
# Fraction bits of every log2 bracket.
_LOG_BITS = 64
# Longer literals print by bit length: Python's int -> str stops at 4,300 digits.
_REPR_BITS = 4096


class TowerNat(Frozen):
    """op in {'lit', 'add', 'mul', 'pow', 'ref'}; env (the bindings of a
    ref) stays out of == and hash."""

    __slots__ = ("op", "args", "n", "name", "env")

    # -- construction --------------------------------------------------------

    def __init__(self, op: str, args: tuple = (), n: int = 0, name: str = "",
                 env: Optional[dict] = None):
        if op == "lit" and n < 1:
            raise UsageError("tower literals must be >= 1")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "env", env)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.op, self.args, self.n, self.name)
                    == (other.op, other.args, other.n, other.name))
        return NotImplemented

    def __hash__(self):
        return hash((self.op, self.args, self.n, self.name))

    # -- exact evaluation -----------------------------------------------------

    def bits_upper(self):
        """Upper bound on the bit length of the value; inf when it overflows."""
        if self.op == "lit":
            return self.n.bit_length()
        if self.op == "ref":
            return self._deref().bits_upper()
        a = [x.bits_upper() for x in self.args]
        if self.op == "add":
            return max(a) + 1
        if self.op == "mul":
            return sum(a)
        if self.op == "pow":
            ev = self.args[1].eval_exact()
            if ev is None or ev > (1 << 62):
                return math.inf
            return a[0] * ev
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

    def log_bounds(self, k: int) -> tuple:
        """(lo, hi) bracketing log2 applied k times to the value.

        The ends are exact ints or Fractions; -inf / inf mark a side that is
        not bounded, as when a log would be taken of a value below 1.
        """
        # a literal bounds itself from its own integer, past the bit budget too
        v = self.n if self.op == "lit" else self.eval_exact()
        if v is not None:
            lo = hi = v
            for _ in range(k):
                if lo < 1:
                    return (-math.inf, math.inf)
                a, b = _log2_range(Fraction(lo), Fraction(hi), _LOG_BITS)
                lo, hi = Fraction(a, 1 << _LOG_BITS), Fraction(b, 1 << _LOG_BITS)
            return (lo, hi)
        if k == 0:
            # too big to evaluate: 2**floor(log2 lower bound), capped at the budget
            return (1 << min(math.floor(self.bits_lower(1)[0]), _MAX_BITS), math.inf)
        return self.bits_lower(k)

    def bits_lower(self, k: int) -> tuple:
        """Structural (lo, hi) for the k-fold log2, k >= 1, value too big."""
        if self.op == "ref":
            return self._deref().log_bounds(k)
        if self.op in ("add", "mul"):
            bs = [x.log_bounds(k) for x in self.args]
            if self.op == "mul" and k == 1:
                return (sum(b[0] for b in bs), sum(b[1] for b in bs))
            # log2 of a sum, and log2 log2 of a product, of n parts exceed the
            # max of the same logs of the parts by at most ceil(log2 n), a
            # slack that shrinks under further logs
            return (max(b[0] for b in bs), max(b[1] for b in bs) + (len(bs) - 1).bit_length())
        if self.op == "pow":
            x, y = self.args
            if k == 1:
                # log2(x**y) = y * log2(x)
                ylo, yhi = y.log_bounds(0)
                xlo, xhi = x.log_bounds(1)
                return (ylo * max(xlo, 0), math.inf if math.inf in (yhi, xhi) else yhi * xhi)
            if k == 2:
                # log2 log2 (x**y) = log2(y) + log2 log2 x exactly; for x = 1
                # the -inf lower bound of log2 log2 1 carries over
                ylo, yhi = y.log_bounds(1)
                xlo, xhi = x.log_bounds(2)
                return (ylo + xlo, yhi + xhi)
            # k >= 3: log2 of that sum lies in [max, max + 1] of the logs of
            # its terms, once x >= 2 makes both terms nonnegative
            ylo, yhi = y.log_bounds(k - 1)
            xlo, xhi = x.log_bounds(k)
            lo = max(ylo, xlo) if x.log_bounds(1)[0] >= 1 else -math.inf
            return (lo, max(yhi, xhi) + 1)
        raise UsageError(f"unknown op {self.op!r}")

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        if self.op == "lit":
            return {"lit": self.n}
        if self.op == "ref":
            return {"ref": self.name}
        return {"op": self.op, "args": [a.to_json() for a in self.args]}

    def __repr__(self) -> str:
        if self.op == "lit":
            bits = self.n.bit_length()
            return str(self.n) if bits <= _REPR_BITS else f"<{bits}-bit literal>"
        if self.op == "ref":
            return f"@{self.name}"
        sym = {"add": " + ", "mul": " * ", "pow": " ** "}[self.op]
        return "(" + sym.join(repr(a) for a in self.args) + ")"


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
