"""Natural numbers of tower-exponential size, compared exactly or not at all.

A TowerNat is an expression tree over positive integers with +, *, ** and
named references.  A value whose bit bound (bits_upper) is at most 2**20
bits is evaluated exactly, and tower_compare orders two such values by their
integers.  Past that budget only identical trees compare, as equal; every
other comparison raises Indeterminate rather than guessing.  A reference is
an unbound symbol: evaluating a tree that holds one raises UsageError.
"""

from __future__ import annotations

import math
from typing import Optional

from .errors import Indeterminate, UsageError
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
# Longer literals print by bit length: Python's int -> str stops at 4,300 digits.
_REPR_BITS = 4096


class TowerNat(Frozen):
    """op in {'lit', 'add', 'mul', 'pow', 'ref'}."""

    __slots__ = ("op", "args", "n", "name")

    # -- construction --------------------------------------------------------

    def __init__(self, op: str, args: tuple = (), n: int = 0, name: str = ""):
        if op == "lit" and n < 1:
            raise UsageError("tower literals must be >= 1")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "name", name)

    # -- exact evaluation -----------------------------------------------------

    def bits_upper(self):
        """Upper bound on the bit length of the value; inf when it overflows."""
        if self.op == "lit":
            return self.n.bit_length()
        if self.op == "ref":
            raise UsageError(f"unbound reference {self.name!r}")
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
        # bits_upper ran first, so the tree holds no ref
        if self.op == "lit":
            return self.n
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


def ref(name: str) -> TowerNat:
    return TowerNat("ref", name=name)


def _coerce(x) -> TowerNat:
    if isinstance(x, TowerNat):
        return x
    if isinstance(x, int):
        return lit(x)
    raise UsageError(f"cannot interpret {x!r} as TowerNat")


def tower_compare(a: TowerNat, b: TowerNat) -> int:
    """-1, 0, 1 by exact evaluation within the bit budget; 0 for identical
    trees past it.  Anything else raises Indeterminate, and a tree holding a
    ref raises UsageError, as evaluating it does."""
    a = _coerce(a)
    b = _coerce(b)
    va, vb = a.eval_exact(), b.eval_exact()
    if va is not None and vb is not None:
        return (va > vb) - (va < vb)
    if a == b:
        return 0
    raise Indeterminate(f"cannot order {a!r} and {b!r} within the bit budget")
