"""Exact arithmetic in the group Q + sum_p Q*log2(p).

A LogReal x is stored as its integer form den * x = num + sum a*log2(p):
den > 0, num and each a integers, the primes p sorted, no zero a, no key 2
(log2(2) = 1 is rational) and gcd(den, num, every a) = 1.  As {1} u
{log2 p : p prime} is linearly independent over Q, equal values have equal
forms.  Arithmetic, order, repr, JSON and hash work on these integers;
`q` and `logs` are read-only Fraction views.  The sign of x is that of
num + sum a*log2(p) = log2(2**num * prod p**a): the order of two products
of prime powers, which differ by unique factorization.  Past _POWER_BITS
bits of powers, and for `approx` and `lr_cmp_pow2`, integer enclosures
decide: `_log2_bracket` gives lo <= 2**bits * log2(n) <= hi, with `bits`
doubled until the enclosure is tight enough.  That terminates, as a
nonzero element is nonzero as a real; past _MAX_PREC bits it refuses with
Indeterminate.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Mapping

from .errors import CapacityExceeded, Indeterminate, UsageError, refuse_unread
from .records import Frozen

__all__ = ["LogReal", "as_fraction", "lr", "lr_zero", "lr_from_rational", "lr_log2_int",
           "lr_log2_fraction", "lr_minus_log2", "lr_compare", "lr_min", "lr_cmp_pow2"]

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


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of as_fraction(x); an int builds no Fraction."""
    if type(x) is int:
        return x, 1
    x = as_fraction(x)
    return x.numerator, x.denominator


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


class LogReal(Frozen):
    """_form is the integer form (den, num, terms) of the module docstring.
    make and from_json validate; LogReal(q, logs) takes canonical views as q
    and logs give them, and arithmetic builds canonical forms directly."""

    __slots__ = ("_form", "_hash")

    def __init__(self, q: Fraction, logs: tuple[tuple[int, Fraction], ...] = ()):
        den = math.lcm(q.denominator, *(c.denominator for _, c in logs))
        _set_form(self, (den, q.numerator * (den // q.denominator),
                         tuple((p, c.numerator * (den // c.denominator)) for p, c in logs)))

    @property
    def q(self) -> Fraction:
        """The rational part."""
        return Fraction(self._form[1], self._form[0])

    @property
    def logs(self) -> tuple[tuple[int, Fraction], ...]:
        """The coefficient of each log2(p), primes ascending."""
        den, _, terms = self._form
        return tuple((p, Fraction(a, den)) for p, a in terms)

    # the partition games rank norms through sets and dicts (checks._ranks),
    # so == and hash are spelled out, not read from __slots__ as Frozen's are
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._form == other._form
        return NotImplemented

    def __hash__(self):  # hash((q, logs)), kept after the first call
        try:
            return self._hash
        except AttributeError:
            den, num, terms = self._form
            _set_hash(self, hash((_hash_ratio(num, den),
                                  tuple((p, _hash_ratio(a, den)) for p, a in terms))))
            return self._hash

    def __reduce__(self):
        return LogReal, (self.q, self.logs)

    @staticmethod
    def make(q, logs: Mapping[int, Fraction] | None = None) -> "LogReal":
        q = as_fraction(q)
        items = []
        for p in sorted(logs or ()):
            c = as_fraction(logs[p])
            if c and (p < 2 or not _is_prime(p)):
                raise UsageError(f"log base entry {p} is not a prime")
            if p == 2:
                q += c  # log2(2) = 1 folds into the rational part
            elif c:
                items.append((p, c))
        return LogReal(q, tuple(items))

    def __add__(self, other: "LogReal") -> "LogReal":
        return _reduced(*_merge(self, lr(other), 1))

    def __sub__(self, other: "LogReal") -> "LogReal":
        return _reduced(*_merge(self, lr(other), -1))

    def scale(self, r) -> "LogReal":
        """Multiply by a rational scalar."""
        n, d = _ratio(r)
        den, num, terms = self._form
        return _reduced(den * d, num * n, {p: a * n for p, a in terms if n})

    def is_rational(self) -> bool:
        return not self._form[2]

    def sign(self) -> int:
        """Exact sign: -1, 0 or 1."""
        _, num, terms = self._form
        return _form_sign(num, terms) if terms else (num > 0) - (num < 0)

    def __lt__(self, other) -> bool:
        return lr_compare(self, other) < 0

    def __le__(self, other) -> bool:
        return lr_compare(self, other) <= 0

    def __gt__(self, other) -> bool:
        return lr_compare(self, other) > 0

    def __ge__(self, other) -> bool:
        return lr_compare(self, other) >= 0

    def to_json(self) -> dict:
        den, num, terms = self._form
        return {"q": _str_ratio(num, den), "logs": {str(p): _str_ratio(a, den) for p, a in terms}}

    @staticmethod
    def from_json(obj) -> "LogReal":
        if not isinstance(obj, dict) or "q" not in obj:
            raise UsageError(f"not a LogReal payload: {obj!r}")
        refuse_unread(obj, ("q", "logs"), "LogReal payload")
        logs = {int(p): as_fraction(v) for p, v in obj.get("logs", {}).items()}
        return LogReal.make(as_fraction(obj["q"]), logs)

    def __repr__(self) -> str:  # the JSON rationals as str(Fraction) writes them
        den, num, terms = self._form
        parts = [_str_ratio(num, den).removesuffix("/1")] if num or not terms else []
        parts += [f"{_str_ratio(a, den).removesuffix('/1')}*log2({p})" for p, a in terms]
        return "LogReal(" + " + ".join(parts) + ")"

    def approx(self) -> float:
        """The nearest float: both ends of an enclosure round to it (int / int rounds exactly)."""
        den, num, terms = self._form
        for lo, hi, bits in _enclosures(num, terms):
            scale = den << bits
            if lo / scale == hi / scale:
                return lo / scale
        raise Indeterminate(f"float of {self!r} undecided at precision {_MAX_PREC}")


_new = object.__new__
_set_form, _set_hash = (vars(LogReal)[f].__set__ for f in LogReal.__slots__)


def _str_ratio(m: int, n: int) -> str:
    """m/n (n > 0) in lowest terms, as "m/n"."""
    g = math.gcd(m, n)
    return f"{m // g}/{n // g}"


def _hash_ratio(m: int, n: int) -> int:
    """hash(Fraction(m, n)) for n > 0 by the library reference's rule for
    rationals; it lies strictly between -P and P, so it is its own hash."""
    g, P = math.gcd(m, n), sys.hash_info.modulus
    m, n = m // g, n // g
    h = sys.hash_info.inf if n % P == 0 else abs(m) * pow(n, -1, P) % P
    return -2 if m < 0 and h == 1 else -h if m < 0 else h


def _lr(form: tuple[int, int, tuple]) -> LogReal:
    """The LogReal of a canonical integer form, unchecked."""
    x = _new(LogReal)
    _set_form(x, form)
    return x


def _merge(a: LogReal, b: LogReal, sign: int) -> tuple[int, int, dict]:
    """(den, num, terms) with den * (a + sign * b) = num + sum c * log2(p) over
    terms {p: c}, no c zero, den the least common multiple of a's and b's."""
    (da, na, ta), (db, nb, tb) = a._form, b._form
    den = da if da == db else math.lcm(da, db)
    ma, mb = den // da, sign * (den // db)
    terms = dict(ta) if ma == 1 else {p: c * ma for p, c in ta}
    for p, c in tb:
        c = terms.pop(p, 0) + c * mb
        if c:
            terms[p] = c
    return den, na * ma + nb * mb, terms


def _reduced(den: int, num: int, terms: dict) -> LogReal:
    """The LogReal den * x = num + sum c * log2(p) over terms {p: c} (den > 0,
    no c zero), canonical: primes sorted, each integer over the gcd of all."""
    terms = tuple(sorted(terms.items())) if terms else ()
    g = math.gcd(den, num)
    if g != 1 and terms:
        g = math.gcd(g, *[c for _, c in terms])
    if g != 1:
        den, num, terms = den // g, num // g, tuple((p, c // g) for p, c in terms)
    return _lr((den, num, terms))


def lr(x) -> LogReal:
    """The one coercion to LogReal: a LogReal, an int, a Fraction or a rational string."""
    return x if isinstance(x, LogReal) else lr_from_rational(x)


def lr_zero() -> LogReal:
    return _lr((1, 0, ()))


def lr_from_rational(r) -> LogReal:
    num, den = _ratio(r)
    return _lr((den, num, ()))


def lr_log2_int(n: int) -> LogReal:
    """log2 of a positive integer, as an exact combination of prime logs."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise UsageError(f"lr_log2_int needs a positive integer, got {n!r}")
    if not n & (n - 1):  # a power of two
        return _lr((1, n.bit_length() - 1, ()))
    factors = _factorize(n)  # ascending primes
    return _lr((1, factors.pop(2, 0), tuple(factors.items())))


def lr_minus_log2(x: LogReal, n: int, y: LogReal) -> LogReal:
    """x - log2(n) - y for a positive integer n: the three integer forms
    merged over one denominator, then reduced once."""
    (dx, nx, tx), (dy, ny, ty), (_, e, tn) = x._form, y._form, lr_log2_int(n)._form
    den = dx if dx == dy else math.lcm(dx, dy)
    mx, my = den // dx, den // dy
    num = nx * mx - ny * my - e * den
    if not (tx or ty or tn):
        g = math.gcd(den, num)
        return _lr((den // g, num // g, ()))
    terms = {}
    for t, m in ((tx, mx), (ty, -my), (tn, -den)):
        for p, c in t:
            terms[p] = terms.get(p, 0) + c * m
    return _reduced(den, num, {p: c for p, c in terms.items() if c})


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
    """Total order: -1, 0, 1, decided symbolically: by numerators over one
    denominator and log part, else by the sign of a - b's integer form."""
    if a is b:
        return 0
    a, b = lr(a), lr(b)
    (da, na, ta), (db, nb, tb) = a._form, b._form
    if da == db and ta == tb:
        return (na > nb) - (na < nb)
    if not ta and not tb:
        x, y = na * db, nb * da
        return (x > y) - (x < y)
    _, q, terms = _merge(a, b, -1)
    return _form_sign(q, terms.items()) if terms else (q > 0) - (q < 0)


def lr_min(xs: list) -> LogReal:
    """min(xs) for a nonempty list of LogReals, with no call where den and
    log part agree."""
    least = xs[0]
    for x in xs[1:]:
        (dl, nl, tl), (dx, nx, tx) = least._form, x._form
        if nx < nl if dl == dx and tl == tx else lr_compare(x, least) < 0:
            least = x
    return least


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
    log2(lo / scale) and log2(hi / scale), each in lowest terms.  No power
    of z or of 2 is formed beyond the size of z itself.
    """
    z = lr(z)
    en, ed = _ratio(e)
    if z.sign() <= 0:
        return -1  # 2**e > 0 always
    den, num, terms = z._form
    if not terms and ed == 1:
        k = num.bit_length() - den.bit_length()
        if en != k:
            return 1 if en < k else -1
        num, den = (num, den << k) if k >= 0 else (num << -k, den)
        return (num > den) - (num < den)
    for lo, hi, bits in _enclosures(num, terms):
        if lo > 0:
            scale = den << bits
            g, h = math.gcd(lo, scale), math.gcd(hi, scale)
            a = _log2_bracket(lo // g, bits)[0] - _log2_bracket(scale // g, bits)[1]
            b = _log2_bracket(hi // h, bits)[1] - _log2_bracket(scale // h, bits)[0]
            if a * ed > en << bits:
                return 1
            if b * ed < en << bits:
                return -1
    raise Indeterminate(f"compare {z!r} vs 2**{Fraction(en, ed)} undecided")
