"""Exact arithmetic in the group Q + sum_p Q*log2(p).

A LogReal is a rational plus a finite rational combination of base-2 logarithms
of primes.  The family {1} u {log2 p : p prime} is linearly independent over Q,
so equality is decidable symbolically from the canonical form.  Order is one
integer comparison: with D the least common denominator, D*x = Q + sum
a_p*log2(p) = log2(2**Q * prod p**a_p), so the sign of x is the order of two
products of prime powers, which differ by unique factorization.  Past
_POWER_BITS bits of powers, and for `approx` and `lr_cmp_pow2`, the
answer is read off integer enclosures instead: `_log2_bracket`
gives integers lo <= 2**bits * log2(n) <= hi, with `bits` doubled until the
enclosure is tight enough.  That loop terminates because a nonzero element is
nonzero as a real number; past _MAX_PREC bits it refuses with Indeterminate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from .errors import CapacityExceeded, Indeterminate, UsageError
from .records import Frozen

__all__ = [
    "LogReal",
    "as_fraction",
    "lr",
    "lr_zero",
    "lr_from_rational",
    "lr_log2_int",
    "lr_log2_fraction",
    "lr_compare",
    "lr_cmp_pow2",
]

# bits of the first enclosure and of the last one tried before Indeterminate;
# a sign reaches them only past _POWER_BITS
_START_PREC = 32
_MAX_PREC = 1 << 16
# the largest sum of bit lengths for which a sign forms the prime powers
# themselves: a two-prime comparison there costs about as much as the first
# 32-bit enclosure
_POWER_BITS = 1 << 14

# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, 2015); at or above it primality is refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981
# Trial division runs up to this factor; every n below its square factors
# by trial division alone.
_TRIAL_LIMIT = 1 << 16


def as_fraction(x) -> Fraction:
    """The one coercion to Fraction: an int, a Fraction or a rational
    string.  A bool is refused, not read as 0 or 1."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)) and not isinstance(x, bool):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise UsageError(f"not a rational: {x!r}")


def _is_prime(n: int) -> bool:
    """Exact primality: trial division by the Miller-Rabin bases, then
    Miller-Rabin.  Raises CapacityExceeded where that test is not exact."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _MR_BASES[-1] ** 2:
        return True
    if n >= _MR_EXACT_BELOW:
        raise CapacityExceeded(f"primality of {n} is not decided exactly above 3.3e24")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factorize(n: int) -> dict:
    """Prime factorization {p: e} of a positive integer: trial division up
    to _TRIAL_LIMIT, then a primality test on the cofactor.  A composite
    cofactor without a factor below the limit raises CapacityExceeded."""
    out = {}
    d = 2
    while d * d <= n and d <= _TRIAL_LIMIT:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        if not _is_prime(n):
            raise CapacityExceeded(f"{n} has no prime factor below {_TRIAL_LIMIT}")
        out[n] = out.get(n, 0) + 1
    return out


def _merge_logs(a: tuple, b: tuple, sign: int) -> tuple:
    """The log terms of a + sign * b for canonical a and b, canonical: keys
    sorted, a coefficient that cancels dropped."""
    if not b:
        return a
    acc = dict(a)
    for p, c in b:
        c = acc.pop(p, 0) + c if sign > 0 else acc.pop(p, 0) - c
        if c:
            acc[p] = c
    return tuple(sorted(acc.items()))


class LogReal(Frozen):
    """Canonical form: prime keys sorted, zero coefficients absent, no key
    2 (log2(2) = 1 is rational), so equal forms are equal values.  make and
    from_json are the validating entry points; arithmetic on canonical
    values builds canonical values directly."""

    __slots__ = ("q", "logs")

    def __init__(self, q: Fraction, logs: tuple[tuple[int, Fraction], ...] = ()):
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "logs", logs)

    # the partition games rank norms through sets and dicts
    # (checks._ranks), so == and hash are spelled out, not read from
    # __slots__ as Frozen's are
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.q, self.logs) == (other.q, other.logs)
        return NotImplemented

    def __hash__(self):
        return hash((self.q, self.logs))

    @staticmethod
    def make(q, logs: Mapping[int, Fraction] | None = None) -> "LogReal":
        q = as_fraction(q)
        items = []
        if logs:
            for p in sorted(logs):
                c = as_fraction(logs[p])
                if c == 0:
                    continue
                if p < 2 or not _is_prime(p):
                    raise UsageError(f"log base entry {p} is not a prime")
                if p == 2:
                    q += c  # log2(2) = 1 folds into the rational part
                    continue
                items.append((p, c))
        return LogReal(q, tuple(items))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "LogReal") -> "LogReal":
        other = lr(other)
        return LogReal(self.q + other.q, _merge_logs(self.logs, other.logs, 1))

    def __sub__(self, other: "LogReal") -> "LogReal":
        other = lr(other)
        return LogReal(self.q - other.q, _merge_logs(self.logs, other.logs, -1))

    def scale(self, r) -> "LogReal":
        """Multiply by a rational scalar."""
        r = as_fraction(r)
        if r == 0:
            return lr_zero()
        return LogReal(self.q * r, tuple((p, c * r) for p, c in self.logs))

    # -- predicates ---------------------------------------------------------

    def is_rational(self) -> bool:
        return not self.logs

    def sign(self) -> int:
        """Exact sign: -1, 0 or 1."""
        if not self.logs:
            n = self.q.numerator
            return (n > 0) - (n < 0)
        _, q, terms = _integer_form(self)
        return _form_sign(q, terms)

    # -- comparisons (total order) -------------------------------------------

    def __lt__(self, other) -> bool:
        return lr_compare(self, other) < 0

    def __le__(self, other) -> bool:
        return lr_compare(self, other) <= 0

    def __gt__(self, other) -> bool:
        return lr_compare(self, other) > 0

    def __ge__(self, other) -> bool:
        return lr_compare(self, other) >= 0

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
        logs = {int(p): as_fraction(v) for p, v in obj.get("logs", {}).items()}
        return LogReal.make(as_fraction(obj["q"]), logs)

    def __repr__(self) -> str:
        parts = [str(self.q)] if (self.q or not self.logs) else []
        for p, c in self.logs:
            parts.append(f"{c}*log2({p})")
        return "LogReal(" + " + ".join(parts) + ")"

    def approx(self) -> float:
        """The float nearest the value: the one both ends of an enclosure
        round to (int / int division rounds correctly)."""
        den, q, terms = _integer_form(self)
        for lo, hi, bits in _enclosures(q, terms):
            scale = den << bits
            if lo / scale == hi / scale:
                return lo / scale
        raise Indeterminate(f"float of {self!r} undecided at precision {_MAX_PREC}")


def lr(x) -> LogReal:
    """The one coercion to LogReal: a LogReal, an int, a Fraction or a
    rational string."""
    return x if isinstance(x, LogReal) else LogReal(as_fraction(x))


def lr_zero() -> LogReal:
    return LogReal(Fraction(0))


def lr_from_rational(r) -> LogReal:
    return LogReal(as_fraction(r))


def lr_log2_int(n: int) -> LogReal:
    """log2 of a positive integer, as an exact combination of prime logs."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise UsageError(f"lr_log2_int needs a positive integer, got {n!r}")
    factors = _factorize(n)  # ascending primes
    return LogReal(Fraction(factors.pop(2, 0)), tuple((p, Fraction(e)) for p, e in factors.items()))


def lr_log2_fraction(r) -> LogReal:
    """log2 of a positive rational."""
    r = as_fraction(r)
    if r <= 0:
        raise UsageError("lr_log2_fraction needs a positive rational")
    return lr_log2_int(r.numerator) - lr_log2_int(r.denominator)


def _log2_bracket(n: int, bits: int) -> tuple[int, int]:
    """Integers lo <= 2**bits * log2(n) <= hi for an integer n >= 1.

    With e = bit_length(n) - 1, n = 2**e * m and m in [1, 2).  m is held in
    fixed point with P = bits + 8 fraction bits twice, y rounded down and z
    up.  Each of `bits` rounds doubles the exponent counts c and d, squares
    y and z (each rounding its way), and halves either one that reaches 2,
    adding 1 to its count.  By induction, after i rounds
        2**(e*2**i + c) * y / 2**P <= n**(2**i) <= 2**(e*2**i + d) * z / 2**P
    with 1 <= y / 2**P < 2 and 1 <= z / 2**P <= 2, so lo = e*2**bits + c and
    hi = e*2**bits + d + [z > 2**P].  The rounding loss, at most
    2**(bits - P + 3) in the logarithm, keeps hi - lo <= 2 (a power of two
    gives lo == hi).
    """
    e = n.bit_length() - 1
    prec = bits + 8
    one, two = 1 << prec, 2 << prec
    shift = e - prec
    if shift >= 0:
        y = n >> shift
        z = y + (n & ((1 << shift) - 1) != 0)
    else:
        y = z = n << -shift
    c = d = 0
    for _ in range(bits):
        y = y * y >> prec
        z = -(-z * z >> prec)
        c, d = 2 * c, 2 * d
        if y >= two:
            y, c = y >> 1, c + 1
        if z >= two:
            z, d = (z + 1) >> 1, d + 1
    return (e << bits) + c, (e << bits) + d + (z > one)


def _log2_range(lo: Fraction, hi: Fraction, bits: int) -> tuple[int, int]:
    """Integers a <= 2**bits * log2(lo) and 2**bits * log2(hi) <= b; 0 < lo <= hi."""
    a = _log2_bracket(lo.numerator, bits)[0] - _log2_bracket(lo.denominator, bits)[1]
    b = _log2_bracket(hi.numerator, bits)[1] - _log2_bracket(hi.denominator, bits)[0]
    return a, b


def _integer_form(x: LogReal) -> tuple[int, int, list]:
    """(den, q, terms) with den * x = q + sum a * log2(p) over terms (p, a):
    den the least common denominator of x, q and each a integers."""
    den = math.lcm(x.q.denominator, *(c.denominator for _, c in x.logs))
    q = x.q.numerator * (den // x.q.denominator)
    return den, q, [(p, c.numerator * (den // c.denominator)) for p, c in x.logs]


def _enclosures(q: int, terms):
    """(lo, hi, bits) with integers lo <= 2**bits * (q + sum a * log2(p)) <= hi
    over terms (p, a), for bits doubling from _START_PREC to _MAX_PREC."""
    bits = _START_PREC
    while bits <= _MAX_PREC:
        lo = hi = q << bits
        for p, a in terms:
            plo, phi = _log2_bracket(p, bits)
            lo += a * (plo if a > 0 else phi)
            hi += a * (phi if a > 0 else plo)
        yield lo, hi, bits
        bits *= 2


def _interval_sign(q: int, terms) -> int:
    """Sign of a provably nonzero q + sum a * log2(p) from its enclosures."""
    for lo, hi, _ in _enclosures(q, terms):
        if lo > 0:
            return 1
        if hi < 0:
            return -1
    form = " + ".join([str(q)] + [f"{a}*log2({p})" for p, a in terms])
    raise Indeterminate(f"sign of {form} undecided at precision {_MAX_PREC}")


def _form_sign(q: int, terms) -> int:
    """Sign of q + sum a * log2(p) over terms (p, a) with q and each a
    integers and the p odd primes, a nonzero form unless terms is empty.

    The form is log2(2**q * prod p**a), so its sign is the order of
    N = 2**max(q, 0) * prod_{a > 0} p**a against M = 2**max(-q, 0) *
    prod_{a < 0} p**-a, and N == M only for the zero form (unique
    factorization).  The powers are formed while their bit lengths sum to at
    most _POWER_BITS; past that the enclosures decide, so a huge coefficient
    costs no huge power.
    """
    if abs(q) + sum(abs(a) * p.bit_length() for p, a in terms) > _POWER_BITS:
        return _interval_sign(q, terms)
    num = den = 1
    for p, a in terms:
        if a > 0:
            num *= p**a
        else:
            den *= p**-a
    if q > 0:
        num <<= q
    else:
        den <<= -q
    return (num > den) - (num < den)


def lr_compare(a: LogReal, b: LogReal) -> int:
    """Total order: -1, 0, 1.  Equality is decided symbolically.

    With a log present, a - b is read as one integer form over the least
    common denominator of both, built from the numerators and denominators
    directly; if its logs cancel, its rational part decides."""
    a, b = lr(a), lr(b)
    aq, bq = a.q, b.q
    if not a.logs and not b.logs:
        x, y = aq.numerator * bq.denominator, bq.numerator * aq.denominator
        return (x > y) - (x < y)
    den = math.lcm(aq.denominator, bq.denominator, *(c.denominator for _, c in a.logs),
                   *(c.denominator for _, c in b.logs))
    terms = {p: c.numerator * (den // c.denominator) for p, c in a.logs}
    for p, c in b.logs:
        t = terms.pop(p, 0) - c.numerator * (den // c.denominator)
        if t:
            terms[p] = t
    q = aq.numerator * (den // aq.denominator) - bq.numerator * (den // bq.denominator)
    if not terms:
        return (q > 0) - (q < 0)
    return _form_sign(q, terms.items())


def lr_cmp_pow2(z: LogReal, e: Fraction) -> int:
    """Compare a positive LogReal z against 2**e for rational e.

    A rational z = a/b against an integer e is decided by bit lengths: with
    k = bit_length(a) - bit_length(b), 2**(k-1) < z < 2**(k+1), so only
    e == k is compared exactly, by a shift of at most the bit length of a
    or b.  In every other case z != 2**e.  For e = n/d in lowest terms with
    d > 1, z is either rational (then != 2**e, an irrational) or involves a
    prime log (then transcendental by Baker, while 2**e is algebraic).  For
    integer e (d = 1), z involves a prime log, so it is irrational while
    2**e is not.  Hence d * log2(z) != n and the enclosures separate them:
    from lo <= scale * z <= hi, log2(z) lies between the brackets of
    log2(lo / scale) and log2(hi / scale).  No power of z or of 2 is formed
    beyond the size of z itself.
    """
    z = lr(z)
    e = as_fraction(e)
    if z.sign() <= 0:
        return -1  # 2**e > 0 always
    if z.is_rational() and e.denominator == 1:
        num, den = z.q.numerator, z.q.denominator
        k = num.bit_length() - den.bit_length()
        if e != k:
            return 1 if e < k else -1
        num, den = (num, den << k) if k >= 0 else (num << -k, den)
        return (num > den) - (num < den)
    den, q, terms = _integer_form(z)
    for lo, hi, bits in _enclosures(q, terms):
        scale = den << bits
        if lo > 0:
            a, b = _log2_range(Fraction(lo, scale), Fraction(hi, scale), bits)
            if a * e.denominator > e.numerator << bits:
                return 1
            if b * e.denominator < e.numerator << bits:
                return -1
    raise Indeterminate(f"compare {z!r} vs 2**{e} undecided")
