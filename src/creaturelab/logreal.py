"""Exact arithmetic in the group Q + sum_p Q*log2(p).

A LogReal is a rational plus a finite rational combination of base-2 logarithms
of primes.  The family {1} u {log2 p : p prime} is linearly independent over Q,
so equality is decidable symbolically from the canonical form; order is decided
by adaptive-precision interval evaluation, doubling the working precision until
the interval excludes zero.  That loop terminates because a nonzero element is
nonzero as a real number.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import mpmath
import sympy

from .errors import Indeterminate, UsageError

__all__ = [
    "LogReal",
    "lr_zero",
    "lr_from_rational",
    "lr_log2_int",
    "lr_log2_fraction",
    "lr_compare",
    "lr_cmp_pow2",
]

_START_PREC = 64
_MAX_PREC = 1 << 16


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise UsageError(f"not a rational: {x!r}")


@dataclass(frozen=True)
class LogReal:
    """Canonical form: prime keys sorted, zero coefficients absent."""

    q: Fraction
    logs: tuple[tuple[int, Fraction], ...] = ()

    @staticmethod
    def make(q, logs: Mapping[int, Fraction] | None = None) -> "LogReal":
        q = _as_fraction(q)
        items = []
        if logs:
            for p in sorted(logs):
                c = _as_fraction(logs[p])
                if c == 0:
                    continue
                if p < 2 or not sympy.isprime(p):
                    raise UsageError(f"log base entry {p} is not a prime")
                if p == 2:
                    q += c  # log2(2) = 1 folds into the rational part
                    continue
                items.append((p, c))
        return LogReal(q, tuple(items))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "LogReal") -> "LogReal":
        other = _coerce(other)
        acc = dict(self.logs)
        for p, c in other.logs:
            acc[p] = acc.get(p, Fraction(0)) + c
        return LogReal.make(self.q + other.q, acc)

    __radd__ = __add__

    def __neg__(self) -> "LogReal":
        return LogReal(-self.q, tuple((p, -c) for p, c in self.logs))

    def __sub__(self, other: "LogReal") -> "LogReal":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "LogReal":
        return _coerce(other) + (-self)

    def scale(self, r) -> "LogReal":
        """Multiply by a rational scalar."""
        r = _as_fraction(r)
        if r == 0:
            return lr_zero()
        return LogReal(self.q * r, tuple((p, c * r) for p, c in self.logs))

    def __mul__(self, r) -> "LogReal":
        return self.scale(r)

    __rmul__ = __mul__

    # -- predicates ---------------------------------------------------------

    def is_rational(self) -> bool:
        return not self.logs

    def is_zero(self) -> bool:
        return self.q == 0 and not self.logs

    def sign(self) -> int:
        """Exact sign: -1, 0 or 1."""
        if self.is_zero():
            return 0
        if self.is_rational():
            return -1 if self.q < 0 else 1
        return _interval_sign(self)

    # -- comparisons (total order) -------------------------------------------

    def __lt__(self, other) -> bool:
        return lr_compare(self, _coerce(other)) < 0

    def __le__(self, other) -> bool:
        return lr_compare(self, _coerce(other)) <= 0

    def __gt__(self, other) -> bool:
        return lr_compare(self, _coerce(other)) > 0

    def __ge__(self, other) -> bool:
        return lr_compare(self, _coerce(other)) >= 0

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "q": f"{self.q.numerator}/{self.q.denominator}",
            "logs": {str(p): f"{c.numerator}/{c.denominator}" for p, c in self.logs},
        }

    @staticmethod
    def from_json(obj) -> "LogReal":
        if not isinstance(obj, dict) or "q" not in obj:
            raise UsageError(f"not a LogReal payload: {obj!r}")
        logs = {int(p): Fraction(v) for p, v in obj.get("logs", {}).items()}
        return LogReal.make(Fraction(obj["q"]), logs)

    def __repr__(self) -> str:
        parts = [str(self.q)] if (self.q or not self.logs) else []
        for p, c in self.logs:
            parts.append(f"{c}*log2({p})")
        return "LogReal(" + " + ".join(parts) + ")"

    def approx(self, dps: int = 15) -> float:
        with mpmath.workdps(dps + 5):
            v = mpmath.mpf(self.q.numerator) / self.q.denominator
            for p, c in self.logs:
                v += mpmath.mpf(c.numerator) / c.denominator * mpmath.log(p, 2)
            return float(v)


def _coerce(x) -> LogReal:
    if isinstance(x, LogReal):
        return x
    if isinstance(x, (int, Fraction)):
        return lr_from_rational(x)
    raise UsageError(f"cannot interpret {x!r} as LogReal")


def lr_zero() -> LogReal:
    return LogReal(Fraction(0))


def lr_from_rational(r) -> LogReal:
    return LogReal(_as_fraction(r))


def lr_log2_int(n: int) -> LogReal:
    """log2 of a positive integer, as an exact combination of prime logs."""
    if not isinstance(n, int) or n < 1:
        raise UsageError(f"lr_log2_int needs a positive integer, got {n!r}")
    if n == 1:
        return lr_zero()
    logs = {int(p): Fraction(int(e)) for p, e in sympy.factorint(n).items()}
    return LogReal.make(0, logs)


def lr_log2_fraction(r) -> LogReal:
    """log2 of a positive rational."""
    r = _as_fraction(r)
    if r <= 0:
        raise UsageError("lr_log2_fraction needs a positive rational")
    return lr_log2_int(r.numerator) - lr_log2_int(r.denominator)


def _interval_value(x: LogReal):
    """Interval enclosure of x at the current mpmath.iv precision."""
    iv = mpmath.iv.mpf
    v = iv(x.q.numerator) / iv(x.q.denominator)
    ln2 = mpmath.iv.log(iv(2))
    for p, c in x.logs:
        v += (iv(c.numerator) / iv(c.denominator)) * mpmath.iv.log(iv(p)) / ln2
    return v


def _interval_sign(x: LogReal) -> int:
    """Sign of a provably nonzero LogReal via widening-precision intervals."""
    prec = _START_PREC
    saved = mpmath.iv.prec
    try:
        while prec <= _MAX_PREC:
            mpmath.iv.prec = prec
            v = _interval_value(x)
            if v > 0:
                return 1
            if v < 0:
                return -1
            prec *= 2
    finally:
        mpmath.iv.prec = saved
    raise Indeterminate(f"sign of {x!r} undecided at precision {_MAX_PREC}")


def lr_compare(a: LogReal, b: LogReal) -> int:
    """Total order: -1, 0, 1.  Equality is decided symbolically."""
    a, b = _coerce(a), _coerce(b)
    if not a.logs and not b.logs:
        return (a.q > b.q) - (a.q < b.q)
    return (a - b).sign()


def lr_cmp_pow2(z: LogReal, e: Fraction) -> int:
    """Compare a positive LogReal z against 2**e for rational e.

    Integer e is handled exactly (2**e is rational).  For fractional e we
    compare log2-values by intervals; z is either rational (then != 2**e, an
    irrational) or involves a prime log (then transcendental by Baker, while
    2**e is algebraic), so separation is guaranteed and the loop terminates.
    """
    z = _coerce(z)
    e = _as_fraction(e)
    if z.sign() <= 0:
        return -1  # 2**e > 0 always
    if e.denominator == 1:
        return lr_compare(z, lr_from_rational(Fraction(2) ** e))
    prec = _START_PREC
    saved = mpmath.iv.prec
    try:
        while prec <= _MAX_PREC:
            mpmath.iv.prec = prec
            iv = mpmath.iv.mpf
            v = _interval_value(z)
            lz = mpmath.iv.log(v) / mpmath.iv.log(iv(2))
            ev = iv(e.numerator) / iv(e.denominator)
            if lz > ev:
                return 1
            if lz < ev:
                return -1
            prec *= 2
    finally:
        mpmath.iv.prec = saved
    raise Indeterminate(f"compare {z!r} vs 2**{e} undecided")
