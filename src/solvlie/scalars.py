"""Exact scalars: rationals and real quadratic extensions Q(sqrt(d)).

A scalar is an ``int``, a ``fractions.Fraction``, or a :class:`QuadExt`.
Rational values always stay in the first two representations (``QuadExt``
results with a vanishing irrational part collapse back to a rational), so a
value is irrational exactly when it is a ``QuadExt``.  All arithmetic is
exact; there is no floating point anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Union

from .errors import FieldMismatch, Unsupported

Rational = Union[int, Fraction]
Scalar = Union[int, Fraction, "QuadExt"]

ZERO = Fraction(0)
ONE = Fraction(1)


def is_rational(x) -> bool:
    return isinstance(x, (int, Fraction))


def as_fraction(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def compact(x: Scalar) -> Scalar:
    """Collapse integral fractions to int; keeps arithmetic on the int
    fast path wherever values stay integral."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def exdiv(x: Scalar, y: Scalar) -> Scalar:
    """Exact division; never falls back to float like int / int would."""
    if isinstance(x, int) and isinstance(y, int):
        return Fraction(x, y)
    return x / y


def sign_rational(x: Rational) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def square_free_split(n: int) -> tuple[int, int]:
    """Write n > 0 as s*s*d with d square-free; returns (s, d)."""
    if n <= 0:
        raise ValueError("square_free_split needs a positive integer")
    s, d = 1, 1
    p = 2
    # After removing primes up to the cube root, the cofactor has at most
    # two prime factors, so it is a square, a prime, or square-free.
    while p * p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    if n > 1:
        r = isqrt(n)
        if r * r == n:
            s *= r
        else:
            d *= n
    return s, d


class QuadExt:
    """a + b*sqrt(d) with rational a, b; b != 0; d > 1 square-free.

    Mixed arithmetic with rationals is supported.  Mixing two different
    radicands raises :class:`FieldMismatch`; one computation lives in a
    single quadratic field.

    Outside input goes through ``QuadExt(...)`` or :meth:`make`, which
    splits the square part off d.  Arithmetic results are built by
    :func:`_quad` instead: every operand already carries a square-free d,
    and so does every sum, product and quotient of them, so factoring d
    again (trial division up to its cube root) would find nothing new.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Rational, b: Rational, d: int):
        if b == 0 or d <= 1:
            raise ValueError("QuadExt needs b != 0 and square-free d > 1")
        self.a = as_fraction(a)
        self.b = as_fraction(b)
        self.d = d

    @staticmethod
    def make(a: Rational, b: Rational, d: int) -> Scalar:
        """Build a + b*sqrt(d), collapsing to a rational when b == 0."""
        if b == 0:
            return as_fraction(a)
        s, d0 = square_free_split(d)
        if d0 == 1:
            return as_fraction(a) + as_fraction(b) * s
        return QuadExt(a, as_fraction(b) * s, d0)

    def conjugate(self) -> "QuadExt":
        return _quad(self.a, -self.b, self.d)

    def norm(self) -> Rational:
        return self.a * self.a - self.b * self.b * self.d

    def _coerce(self, other) -> tuple:
        if is_rational(other):
            return other, 0
        if isinstance(other, QuadExt):
            if other.d != self.d:
                lo, hi = sorted((self.d, other.d))
                raise FieldMismatch(f"the input mixes the radicands {lo} and {hi}; "
                                    "one Q(sqrt(d)) per input is supported")
            return other.a, other.b
        return NotImplemented, NotImplemented

    def __add__(self, other):
        oa, ob = self._coerce(other)
        if oa is NotImplemented:
            return NotImplemented
        return _quad(self.a + oa, self.b + ob, self.d)

    __radd__ = __add__

    def __neg__(self):
        return _quad(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        oa, ob = self._coerce(other)
        if oa is NotImplemented:
            return NotImplemented
        a, b = self.a, self.b
        if not ob:
            return _quad(a * oa, b * oa, self.d)
        return _quad(a * oa + b * ob * self.d, a * ob + b * oa, self.d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero norm in QuadExt.inverse")
        return _quad(exdiv(self.a, n), exdiv(-self.b, n), self.d)

    def __truediv__(self, other):
        if is_rational(other):
            if other == 0:
                raise ZeroDivisionError
            return _quad(exdiv(self.a, other), exdiv(self.b, other), self.d)
        if isinstance(other, QuadExt):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        if is_rational(other):
            return self.inverse() * other
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out: Scalar = ONE
        base: Scalar = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if is_rational(other):
            return False  # b != 0 by invariant
        if isinstance(other, QuadExt):
            return self.d == other.d and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def sign(self) -> int:
        sa, sb = sign_rational(self.a), sign_rational(self.b)
        if sa == 0:
            return sb
        if sa == sb:
            return sa
        # opposite signs: compare |a| with |b|*sqrt(d) exactly
        return sa * sign_rational(self.a * self.a - self.b * self.b * self.d)

    def __bool__(self):
        return True  # b != 0, so never zero

    def __lt__(self, other):
        return scalar_sign(self - other) < 0

    def __le__(self, other):
        return scalar_sign(self - other) <= 0

    def __gt__(self, other):
        return scalar_sign(self - other) > 0

    def __ge__(self, other):
        return scalar_sign(self - other) >= 0

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    def __float__(self):
        return float(self.a) + float(self.b) * (self.d ** 0.5)

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, {self.d})"

    def __str__(self):
        return format_scalar(self)


def _quad(a: Rational, b: Rational, d: int) -> Scalar:
    """a + b*sqrt(d) for a d already known square-free (an arithmetic
    result): no re-factoring, no re-validation, and a, b stored as ints
    when integral.  Collapses to a Fraction when b == 0."""
    if b == 0:
        return as_fraction(a)
    x = object.__new__(QuadExt)
    x.a, x.b, x.d = compact(a), compact(b), d
    return x


def scalar_sign(x: Scalar) -> int:
    if isinstance(x, QuadExt):
        return x.sign()
    return sign_rational(x)


def scalar_abs(x: Scalar) -> Scalar:
    return x if scalar_sign(x) >= 0 else -x


def sqrt_exact(r: Rational):
    """Exact square root of a nonnegative rational: a rational or a QuadExt.

    Square roots of irrational elements of Q(sqrt(d)) are not taken yet:
    they raise :class:`Unsupported`, which the CLI reports as out of regime."""
    if isinstance(r, QuadExt):
        raise Unsupported(f"square root of the quadratic irrational {format_scalar(r)}")
    r = as_fraction(r)
    if r < 0:
        raise ValueError("sqrt_exact needs a nonnegative rational")
    if r == 0:
        return ZERO
    s, d = square_free_split(r.numerator * r.denominator)
    coeff = Fraction(s, r.denominator)
    if d == 1:
        return coeff
    return QuadExt(0, coeff, d)


def nth_root_rational(r: Rational, m: int):
    """Exact real m-th root of r when it is rational, else None."""
    r = as_fraction(r)
    if m <= 0:
        raise ValueError("m must be positive")
    if r == 0:
        return ZERO
    if r < 0 and m % 2 == 0:
        return None
    neg = r < 0
    p, q = abs(r.numerator), r.denominator
    rp = _int_nth_root(p, m)
    rq = _int_nth_root(q, m)
    if rp is None or rq is None:
        return None
    root = Fraction(rp, rq)
    return -root if neg else root


def _int_nth_root(n: int, m: int):
    if n == 0:
        return 0
    lo, hi = 1, 1
    while hi ** m < n:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** m < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo ** m == n else None


def format_rational(x: Rational) -> str:
    f = as_fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def format_scalar(x: Scalar) -> str:
    if isinstance(x, QuadExt):
        return f"{format_rational(x.a)} + {format_rational(x.b)}*sqrt({x.d})"
    return format_rational(x)
