"""Exact scalars: rationals and real quadratic extensions Q(sqrt(d)).

A scalar is an ``int``, a :class:`Rat` or a :class:`QuadExt`, and each
value has one representation: an integral value is an ``int``, any other
rational a ``Rat`` (a ``fractions.Fraction`` subclass, n/d in lowest terms
with d >= 2), and an irrational one a ``QuadExt``, stored as
(A + B*sqrt(d)) / D over ints with one common denominator.  Arithmetic on
them runs on ints, takes one gcd per result (two for a rational product or
quotient) and returns the canonical value again, so only values from
outside need converting: :func:`compact` turns a plain ``Fraction`` into
an ``int`` or a ``Rat``.  Results are built by the trusted constructors
:func:`_rat` and :func:`_quad`.  All arithmetic is exact; there is no
floating point anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Union

from .errors import FieldMismatch, Unsupported

Rational = Union[int, "Rat"]
Scalar = Union[int, "Rat", "QuadExt"]


class Rat(Fraction):
    """A rational that is not an integer: n/d in lowest terms with d >= 2.

    A ``Fraction`` subclass, so it compares and hashes as the equal
    ``Fraction`` and reads as one wherever a ``Fraction`` is expected; its
    ``repr`` is a ``Fraction``'s too.  Its operators run on the int pairs
    (n, d) of an ``int``, a ``Rat`` or a plain ``Fraction`` operand, take
    one gcd per result (two for ``*`` and ``/``) and return the canonical
    value: an ``int`` when it is integral, else a ``Rat``.  Any other
    operand gets ``NotImplemented``, so a ``QuadExt`` runs its own mixed
    arithmetic and a float raises ``TypeError``.

    Results are built by :func:`_rat`, which trusts its ints;
    ``Rat(...)`` takes ``Fraction``'s arguments and returns the canonical
    value, so it is an ``int`` when that value is integral.
    """

    __slots__ = ()

    def __new__(cls, numerator=0, denominator=None):
        return _canonical(Fraction(numerator, denominator))

    def __repr__(self):
        return f"Fraction({self._numerator}, {self._denominator})"

    def __add__(a, b):
        t = type(b)
        if t is Rat:
            return _sum(a._numerator, a._denominator, b._numerator, b._denominator)
        if t is int:
            d = a._denominator
            return _rat(a._numerator + b * d, d)  # coprime to d, d >= 2
        o = _num_den(b)
        return NotImplemented if o is None else _sum(a._numerator, a._denominator, *o)

    __radd__ = __add__

    def __sub__(a, b):
        t = type(b)
        if t is Rat:
            return _sum(a._numerator, a._denominator, -b._numerator, b._denominator)
        if t is int:
            d = a._denominator
            return _rat(a._numerator - b * d, d)
        o = _num_den(b)
        return NotImplemented if o is None else _sum(a._numerator, a._denominator, -o[0], o[1])

    def __rsub__(a, b):
        if type(b) is int:
            d = a._denominator
            return _rat(b * d - a._numerator, d)
        o = _num_den(b)
        return NotImplemented if o is None else _sum(o[0], o[1], -a._numerator, a._denominator)

    def __mul__(a, b):
        t = type(b)
        if t is Rat:
            return _product(a._numerator, a._denominator, b._numerator, b._denominator)
        if t is int:
            d = a._denominator
            g = gcd(b, d)
            if g == 1:
                return _rat(a._numerator * b, d)  # coprime to d, d >= 2
            d //= g
            n = a._numerator * (b // g)
            return n if d == 1 else _rat(n, d)
        o = _num_den(b)
        return NotImplemented if o is None else _product(a._numerator, a._denominator, *o)

    __rmul__ = __mul__

    def __truediv__(a, b):
        t = type(b)
        if t is Rat:
            return _product(a._numerator, a._denominator, b._denominator, b._numerator)
        o = (b, 1) if t is int else _num_den(b)
        if o is None:
            return NotImplemented
        if not o[0]:
            raise ZeroDivisionError(f"Fraction({a._numerator}, 0)")
        return _product(a._numerator, a._denominator, o[1], o[0])

    def __rtruediv__(a, b):
        o = (b, 1) if type(b) is int else _num_den(b)
        if o is None:
            return NotImplemented
        return _product(o[0], o[1], a._denominator, a._numerator)

    def __eq__(a, b):
        t = type(b)
        if t is int:
            return False  # a Rat is never integral
        if t is Rat:
            return a._numerator == b._numerator and a._denominator == b._denominator
        return Fraction.__eq__(a, b)

    __hash__ = Fraction.__hash__

    def __bool__(a):
        return True  # zero is the int 0

    def __neg__(a):
        return _rat(-a._numerator, a._denominator)

    def __pos__(a):
        return a

    def __abs__(a):
        return a if a._numerator > 0 else _rat(-a._numerator, a._denominator)

    def __pow__(a, b):
        if not isinstance(b, int):
            return NotImplemented
        n, d = a._numerator, a._denominator
        if b > 0:
            return _rat(n**b, d**b)
        if b == 0:
            return 1
        n, d = d ** -b, n ** -b
        if d < 0:
            n, d = -n, -d
        return n if d == 1 else _rat(n, d)


_new = object.__new__


def _rat(n: int, d: int) -> Rat:
    """n / d for coprime ints with d >= 2: no gcd, no checks."""
    x = _new(Rat)
    x._numerator = n
    x._denominator = d
    return x


def _sum(n1: int, d1: int, n2: int, d2: int) -> Rational:
    """n1/d1 + n2/d2 for lowest-terms pairs with d1, d2 >= 1."""
    n, d = n1 * d2 + n2 * d1, d1 * d2
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return n if d == 1 else _rat(n, d)


def _product(n1: int, d1: int, n2: int, d2: int) -> Rational:
    """(n1/d1) * (n2/d2) for lowest-terms pairs with d1 >= 1 and d2 != 0:
    the cross gcds leave the product in lowest terms."""
    g1, g2 = gcd(n1, d2), gcd(n2, d1)
    n = (n1 // g1) * (n2 // g2)
    d = (d1 // g2) * (d2 // g1)
    if d < 0:
        n, d = -n, -d
    return n if d == 1 else _rat(n, d)


def _num_den(x):
    """(numerator, denominator) of an int or a Fraction, else None.  A
    QuadExt is turned away first: an ABC isinstance check is slow."""
    if type(x) is QuadExt:
        return None
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    return None


def _canonical(x: Fraction) -> Rational:
    return x._numerator if x._denominator == 1 else _rat(x._numerator, x._denominator)


def is_rational(x) -> bool:
    return isinstance(x, (int, Fraction))


def as_rational(x) -> Rational:
    """An int or a Fraction in canonical form; TypeError otherwise."""
    if isinstance(x, (int, Fraction)):
        return compact(x)
    raise TypeError(f"not an exact rational: {x!r}")


def compact(x: Scalar) -> Scalar:
    """The canonical form of an exact scalar, for values from outside: a
    ``Fraction`` that is not a ``Rat`` becomes an ``int`` when it is
    integral and a ``Rat`` otherwise.  Every other value, and so every
    arithmetic result, is returned as it is."""
    t = type(x)
    if t is not int and t is not Rat and t is not QuadExt and isinstance(x, Fraction):
        return _canonical(x)
    return x


def exdiv(x: Scalar, y: Scalar) -> Scalar:
    """Exact division; never falls back to float like int / int would.
    An integral quotient of two ints is an ``int``."""
    if isinstance(x, int) and isinstance(y, int):
        return _rational(x, y)
    return x / y


def sign_rational(x: Rational) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


# Trial division stops at this divisor: the cube root of the largest
# radicand a document may spell out (`jsonio.MAX_RADICAND`), so every
# such radicand is factored in full.
MAX_TRIAL_DIVISOR = 10**6


def square_free_split(n: int) -> tuple[int, int]:
    """Write n > 0 as s*s*d with d square-free; returns (s, d).

    Primes are divided out up to MAX_TRIAL_DIVISOR at most.  A cofactor
    left at least that bound cubed is resolved only when it is a square;
    otherwise the split raises :class:`Unsupported`, since finding the
    square-free part of an integer is as hard as factoring it."""
    if n <= 0:
        raise ValueError("square_free_split needs a positive integer")
    s, d = 1, 1
    p = 2
    # After removing primes up to the cube root, the cofactor has at most
    # two prime factors, so it is a square, a prime, or square-free.
    while p * p * p <= n:
        if p > MAX_TRIAL_DIVISOR:
            r = isqrt(n)
            if r * r != n:
                raise Unsupported(
                    f"radicand with a {n.bit_length()}-bit cofactor that has no prime factor"
                    f" up to {MAX_TRIAL_DIVISOR}: its square-free part is not computed"
                )
            return s * r, d
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
    """(A + B*sqrt(d)) / D over ints; d > 1 square-free.

    The storage is canonical: ``D >= 1``, ``gcd(A, B, D) == 1`` and
    ``B != 0``, so two values are equal exactly when their fields are.
    The rational parts a = A/D and b = B/D are read-only properties.

    Mixed arithmetic with rationals is supported.  Mixing two different
    radicands raises :class:`FieldMismatch`; one computation lives in a
    single quadratic field.

    Outside input goes through ``QuadExt(a, b, d)``, which rejects a d
    that is not square-free, or :meth:`make`, which splits the square part
    off d and hands the rest to :meth:`from_split`.  Arithmetic results
    are built by :func:`_quad` from ints instead: every operand already
    carries a square-free d, and so does every sum, product and quotient
    of them, so factoring d again (trial division up to its cube root)
    would find nothing new.
    """

    __slots__ = ("A", "B", "D", "d")

    def __init__(self, a: Rational, b: Rational, d: int):
        if b == 0 or d <= 1 or square_free_split(d)[0] != 1:
            raise ValueError("QuadExt needs b != 0 and square-free d > 1")
        self._fill(a, b, d)

    def _fill(self, a: Rational, b: Rational, d: int):
        a, b = as_rational(a), as_rational(b)
        # with a and b in lowest terms, their common denominator already
        # leaves gcd(A, B, D) == 1
        den = lcm(a.denominator, b.denominator)
        self.A = a.numerator * (den // a.denominator)
        self.B = b.numerator * (den // b.denominator)
        self.D = den
        self.d = d

    @staticmethod
    def from_split(a: Rational, b: Rational, d: int) -> "QuadExt":
        """a + b*sqrt(d) with b != 0 and a d > 1 that the caller has
        already made square-free with ``square_free_split``: d is not
        factored again."""
        x = object.__new__(QuadExt)
        x._fill(a, b, d)
        return x

    @staticmethod
    def make(a: Rational, b: Rational, d: int) -> Scalar:
        """Build a + b*sqrt(d), collapsing to a rational (an int when it
        is integral) when b == 0 or d is a square."""
        a, b = as_rational(a), as_rational(b)
        if b == 0:
            return a
        s, d0 = square_free_split(d)
        if d0 == 1:
            return a + b * s
        return QuadExt.from_split(a, b * s, d0)

    @property
    def a(self) -> Rational:
        return _rational(self.A, self.D)

    @property
    def b(self) -> Rational:
        return _rational(self.B, self.D)

    def conjugate(self) -> "QuadExt":
        return _quad(self.A, -self.B, self.D, self.d)

    def norm(self) -> Rational:
        A, B, D = self.A, self.B, self.D
        return _rational(A * A - B * B * self.d, D * D)

    def _ints(self, other):
        """other as ints (p, q, r), other = (p + q sqrt(d)) / r with r >= 1,
        or None for a type that does not mix with QuadExt."""
        t = type(other)
        if t is int:
            return other, 0, 1
        if t is Rat:
            return other._numerator, 0, other._denominator
        if t is QuadExt:
            if other.d != self.d:
                lo, hi = sorted((self.d, other.d))
                raise FieldMismatch(f"the input mixes the radicands {lo} and {hi}; "
                                    "one Q(sqrt(d)) per input is supported")
            return other.A, other.B, other.D
        if isinstance(other, (int, Fraction)):
            return other.numerator, 0, other.denominator
        return None

    def __add__(self, other):
        o = self._ints(other)
        if o is None:
            return NotImplemented
        p, q, r = o
        A, B, D = self.A, self.B, self.D
        return _quad(A * r + p * D, B * r + q * D, D * r, self.d)

    __radd__ = __add__

    def __neg__(self):
        return _quad(-self.A, -self.B, self.D, self.d)

    def __sub__(self, other):
        o = self._ints(other)
        if o is None:
            return NotImplemented
        p, q, r = o
        A, B, D = self.A, self.B, self.D
        return _quad(A * r - p * D, B * r - q * D, D * r, self.d)

    def __rsub__(self, other):
        o = self._ints(other)
        if o is None:
            return NotImplemented
        p, q, r = o
        A, B, D = self.A, self.B, self.D
        return _quad(p * D - A * r, q * D - B * r, D * r, self.d)

    def __mul__(self, other):
        o = self._ints(other)
        if o is None:
            return NotImplemented
        p, q, r = o
        A, B, D, d = self.A, self.B, self.D, self.d
        return _quad(A * p + B * q * d, A * q + B * p, D * r, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        return self.__rtruediv__(1)

    def __truediv__(self, other):
        o = self._ints(other)
        if o is None:
            return NotImplemented
        p, q, r = o
        d = self.d
        n = p * p - q * q * d
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        # times r (p - q sqrt d) / n
        A, B = self.A, self.B
        return _quad(r * (A * p - B * q * d), r * (B * p - A * q), self.D * n, d)

    def __rtruediv__(self, other):
        o = self._ints(other)
        if o is None:
            return NotImplemented
        p, q, r = o
        A, B, D, d = self.A, self.B, self.D, self.d
        n = A * A - B * B * d
        if n == 0:
            raise ZeroDivisionError("zero norm in QuadExt.inverse")
        # (p + q sqrt d) / r times D (A - B sqrt d) / n
        return _quad(D * (p * A - q * B * d), D * (q * A - p * B), r * n, d)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out: Scalar = 1
        base: Scalar = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return (self.A == other.A and self.B == other.B and self.D == other.D
                    and self.d == other.d)
        if is_rational(other):
            return False  # B != 0 by invariant
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def sign(self) -> int:
        # D > 0, so the sign is that of A + B sqrt(d)
        A, B = self.A, self.B
        sa, sb = sign_rational(A), sign_rational(B)
        if sa == 0 or sa == sb:
            return sb
        # opposite signs: compare |A| with |B|*sqrt(d) exactly
        return sa * sign_rational(A * A - B * B * self.d)

    def __bool__(self):
        return True  # B != 0, so never zero

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


def _rational(n: int, den: int) -> Rational:
    """n / den for ints: an int when integral, else a Rat; one gcd."""
    if den == 1:
        return n
    if not den:
        raise ZeroDivisionError(f"Fraction({n}, 0)")
    g = gcd(n, den)
    if den < 0:
        g = -g
    if g != 1:
        n //= g
        den //= g
    return n if den == 1 else _rat(n, den)


def _quad(A: int, B: int, D: int, d: int) -> Scalar:
    """(A + B sqrt d) / D for any ints with D != 0 and a d already known
    square-free (an arithmetic result): no re-factoring, no re-validation,
    one gcd.  Collapses to an int or a Rat when B == 0."""
    if not B:
        return _rational(A, D)
    if D != 1:
        g = gcd(A, B, D)
        if D < 0:
            g = -g
        if g != 1:
            A, B, D = A // g, B // g, D // g
    x = object.__new__(QuadExt)
    x.A, x.B, x.D, x.d = A, B, D, d
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
    r = as_rational(r)
    if r < 0:
        raise ValueError("sqrt_exact needs a nonnegative rational")
    if r == 0:
        return 0
    # p and q are coprime, so p q is a square exactly when both are: a
    # square's root is read off isqrt, and only a non-square is factored
    p, q = r.numerator, r.denominator
    sp, sq = isqrt(p), isqrt(q)
    if sp * sp == p and sq * sq == q:
        return _rational(sp, sq)
    s, d = square_free_split(p * q)
    return QuadExt.from_split(0, _rational(s, q), d)


def nth_root_rational(r: Rational, m: int):
    """Exact real m-th root of r when it is rational, else None."""
    r = as_rational(r)
    if m <= 0:
        raise ValueError("m must be positive")
    if r == 0:
        return 0
    if r < 0 and m % 2 == 0:
        return None
    neg = r < 0
    p, q = abs(r.numerator), r.denominator
    rp = _int_nth_root(p, m)
    rq = _int_nth_root(q, m)
    if rp is None or rq is None:
        return None
    root = _rational(rp, rq)
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


def _decimal(n: int) -> str:
    """``str(n)`` of any length.  Python refuses to convert an int of more
    digits than ``sys.get_int_max_str_digits()`` (4,300 by default), a
    guard for reading untrusted text; a number the program computed is
    printed whole, split by a power of ten into parts under the limit."""
    try:
        return str(n)
    except ValueError:
        if n < 0:
            return "-" + _decimal(-n)
        k = n.bit_length() * 3 // 20  # about half the decimal digits
        hi, lo = divmod(n, 10**k)
        return _decimal(hi) + _decimal(lo).rjust(k, "0")


def format_rational(x: Rational) -> str:
    f = as_rational(x)
    if f.denominator == 1:
        return _decimal(f.numerator)
    return f"{_decimal(f.numerator)}/{_decimal(f.denominator)}"


def format_scalar(x: Scalar) -> str:
    if isinstance(x, QuadExt):
        return f"{format_rational(x.a)} + {format_rational(x.b)}*sqrt({x.d})"
    return format_rational(x)
