import importlib.util
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from solvlie.errors import FieldMismatch, Unsupported
from solvlie.scalars import (
    QuadExt,
    Rat,
    compact,
    exdiv,
    nth_root_rational,
    scalar_abs,
    scalar_sign,
    sqrt_exact,
    square_free_split,
)


def test_square_free_split():
    assert square_free_split(1) == (1, 1)
    assert square_free_split(4) == (2, 1)
    assert square_free_split(8) == (2, 2)
    assert square_free_split(72) == (6, 2)
    assert square_free_split(30) == (1, 30)
    assert square_free_split(49 * 5) == (7, 5)
    with pytest.raises(ValueError):
        square_free_split(0)


def test_square_free_split_stops_at_the_trial_divisor_bound():
    # 10^18 - 1 is the largest input radicand; it is still split in full
    p = 10**24 + 7  # its cofactor past 10^6 is neither small nor a square
    assert square_free_split(10**18 - 1) == (9, (10**18 - 1) // 81)
    assert square_free_split(2 * p * p) == (p, 2)  # a square cofactor is resolved
    with pytest.raises(Unsupported, match="-bit cofactor"):
        square_free_split(4 * p)


def test_quadext_rejects_a_radicand_with_a_square_factor():
    for d in (4, 8, 12, 18, 4 * 999999999989):
        with pytest.raises(ValueError):
            QuadExt(0, 1, d)
    # make splits the square part off instead
    assert QuadExt.make(0, 1, 4) == 2
    assert QuadExt.make(Fraction(1, 2), 1, 8) == QuadExt(Fraction(1, 2), 2, 2)


def test_sqrt_exact_rational_and_irrational():
    assert sqrt_exact(Fraction(9, 4)) == Fraction(3, 2)
    r = sqrt_exact(Fraction(8))
    assert isinstance(r, QuadExt) and r == QuadExt(0, 2, 2)
    assert r * r == 8
    r = sqrt_exact(Fraction(3, 2))  # sqrt(6)/2
    assert r == QuadExt(0, Fraction(1, 2), 6)
    assert r * r == Fraction(3, 2)
    with pytest.raises(ValueError):
        sqrt_exact(Fraction(-1))


def test_nth_root_rational():
    assert nth_root_rational(Fraction(27, 8), 3) == Fraction(3, 2)
    assert nth_root_rational(Fraction(-27, 8), 3) == Fraction(-3, 2)
    assert nth_root_rational(Fraction(16), 4) == 2
    assert nth_root_rational(Fraction(2), 2) is None
    assert nth_root_rational(Fraction(-4), 2) is None


def test_quadext_field_ops():
    x = QuadExt(1, 1, 2)
    y = QuadExt(Fraction(1, 2), -1, 2)
    s = x + y
    assert s == Fraction(3, 2) and not isinstance(s, QuadExt)
    # B == 0 collapses to a rational, an int when it is integral
    s = x + QuadExt(2, -1, 2)
    assert s == 3 and type(s) is int
    p = QuadExt(1, 1, 2) * QuadExt(1, -1, 2)
    assert p == -1 and type(p) is int
    assert x * x == QuadExt(3, 2, 2)
    assert (x - x) == 0 and type(x - x) is int
    assert 1 / x == QuadExt(-1, 1, 2)
    assert x / x == 1 and type(x / x) is int
    assert x ** 3 == QuadExt(7, 5, 2)
    assert x ** -1 == QuadExt(-1, 1, 2)
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            _ = x / zero
    with pytest.raises(FieldMismatch):
        _ = QuadExt(0, 1, 2) + QuadExt(0, 1, 3)


def test_quadext_make_normalizes_radicand():
    # sqrt(8) = 2 sqrt(2)
    assert QuadExt.make(0, 1, 8) == QuadExt(0, 2, 2)
    assert QuadExt.make(3, 0, 5) == 3
    assert QuadExt.make(1, 2, 4) == 5  # perfect-square radicand collapses


def test_integral_values_leave_the_scalar_boundary_as_int():
    # one representation per integral rational, as arithmetic results have
    for got, want in (
        (QuadExt.make(3, 0, 5), 3),
        (QuadExt.make(1, 2, 4), 5),
        (sqrt_exact(4), 2),
        (sqrt_exact(Fraction(0)), 0),
        (nth_root_rational(Fraction(-8), 3), -2),
        (nth_root_rational(Fraction(0), 2), 0),
    ):
        assert type(got) is int and got == want
    for got, want in (
        (QuadExt.make(Fraction(1, 2), 0, 5), Fraction(1, 2)),
        (QuadExt.make(Fraction(1, 3), Fraction(1, 2), 4), Fraction(4, 3)),
        (sqrt_exact(Fraction(9, 4)), Fraction(3, 2)),
        (nth_root_rational(Fraction(-27, 8), 3), Fraction(-3, 2)),
    ):
        assert type(got) is Rat and got == want


def test_sign_and_order():
    assert scalar_sign(QuadExt(0, 1, 2)) == 1
    assert scalar_sign(QuadExt(0, -1, 2)) == -1
    # 3 - 2 sqrt(2) > 0 but 1 - sqrt(2) < 0
    assert scalar_sign(QuadExt(3, -2, 2)) == 1
    assert scalar_sign(QuadExt(1, -1, 2)) == -1
    assert QuadExt(0, 1, 2) < 2
    assert QuadExt(0, 1, 2) > 1
    assert scalar_abs(QuadExt(-1, -1, 2)) == QuadExt(1, 1, 2)
    assert sorted([QuadExt(0, 1, 2), 1, Fraction(3, 2)]) == [
        1,
        QuadExt(0, 1, 2),
        Fraction(3, 2),
    ]


def test_exdiv_and_compact_never_float():
    assert exdiv(1, 2) == Fraction(1, 2)
    assert exdiv(4, 2) == 2 and type(exdiv(4, 2)) is int
    assert exdiv(6, -3) == -2 and type(exdiv(6, -3)) is int
    assert exdiv(-7, 2) == Fraction(-7, 2) and type(exdiv(-7, 2)) is Rat
    assert compact(Fraction(4, 2)) == 2 and isinstance(compact(Fraction(4, 2)), int)
    assert compact(Fraction(1, 2)) == Fraction(1, 2)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@given(a=rationals, b=rationals, c=rationals, d=rationals)
def test_quadext_ring_laws(a, b, c, d):
    x = QuadExt.make(a, b, 2)
    y = QuadExt.make(c, d, 2)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) * x == x * x + y * x
    if y != 0:
        q = exdiv(x, y)
        assert q * y == x


@given(a=rationals, b=rationals)
def test_quadext_sign_matches_float(a, b):
    x = QuadExt.make(a, b, 3)
    if isinstance(x, QuadExt):
        approx = float(a) + float(b) * 3 ** 0.5
        if abs(approx) > 1e-9:
            assert scalar_sign(x) == (1 if approx > 0 else -1)


def test_json_readers_factor_each_radicand_once(monkeypatch):
    import solvlie.jsonio as jsonio

    calls = []
    real = jsonio.square_free_split

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(jsonio, "square_free_split", counting)
    big = 4 * 999999999989  # 2^2 times a 12-digit prime

    def q(a, b, d):
        return {"a": a, "b": b, "d": d}

    m = jsonio.matrix_from_json([[q("1", "2", big), q("0", "1/3", big)],
                                 [q("-5", "1", big), q("1/2", "7", 36)]])
    assert calls == [big, 36]
    assert [list(row) for row in m.data] == [
        [QuadExt.make(1, 2, big), QuadExt.make(0, Fraction(1, 3), big)],
        [QuadExt.make(-5, 1, big), Fraction(85, 2)]]
    assert m.data[0][0].d == 999999999989 and m.data[0][0].b == 4
    calls.clear()
    t = jsonio.algebra_from_json({"dim": 2, "brackets": [
        {"i": 1, "j": 2, "coeffs": [q("0", "1", 8), q("3", "-1", 8)]}]})
    assert calls == [8]
    assert t.brackets[(0, 1)] == (QuadExt.make(0, 1, 8), QuadExt.make(3, -1, 8))


def test_arithmetic_never_refactors_the_radicand(monkeypatch):
    import solvlie.scalars as scalars

    calls = []
    real = scalars.square_free_split

    def counting(n):
        calls.append(n)
        return real(n)

    # QuadExt(a, b, d) checks d, so the operands are built first
    pairs = [(QuadExt(1, 2, d), QuadExt(Fraction(-1, 3), Fraction(1, 2), d))
                for d in (2, 3)]
    monkeypatch.setattr(scalars, "square_free_split", counting)
    for x, y in pairs:
        for other in (y, 3, Fraction(-2, 5)):
            for r in (x + other, other + x, x - other, other - x, x * other,
                      other * x, x / other, other / x):
                assert r is not None
        for r in (x.inverse(), x.conjugate(), x ** 3, x ** -2, -x, x - x):
            assert r is not None
    assert calls == []


def _reference(op, a, b, c, e, d):
    """(a + b sqrt d) op (c + e sqrt d) by the textbook formula, built
    through the public, re-factoring constructor."""
    if op == "+":
        return QuadExt.make(a + c, b + e, d)
    if op == "-":
        return QuadExt.make(a - c, b - e, d)
    if op == "*":
        return QuadExt.make(a * c + b * e * d, a * e + b * c, d)
    n = c * c - e * e * d  # "/": multiply by the conjugate over the norm
    return QuadExt.make((a * c - b * e * d) / n, (b * c - a * e) / n, d)


def _parts(x):
    return (x.a, x.b) if isinstance(x, QuadExt) else (x,)


@given(
    d=st.sampled_from((2, 3, 5, 6, 7)),
    a=rationals, b=rationals, c=rationals, e=rationals,
    op=st.sampled_from(("+", "-", "*", "/")),
    int_operand=st.booleans(),
)
def test_quadext_ops_match_textbook_formula(d, a, b, c, e, op, int_operand):
    if int_operand:
        c, e = Fraction(c.numerator), Fraction(0)
    x = QuadExt.make(a, b, d)
    y = compact(c) if e == 0 else QuadExt.make(c, e, d)
    if op == "/" and y == 0:
        return
    got = {"+": lambda: x + y, "-": lambda: x - y, "*": lambda: x * y,
           "/": lambda: exdiv(x, y)}[op]()
    want = _reference(op, a, b, c, e, d)
    assert got == want
    # a rational exactly when the irrational part cancels
    assert isinstance(got, QuadExt) == isinstance(want, QuadExt)
    assert not any(isinstance(p, float) for p in _parts(got))
    if isinstance(x, QuadExt):
        for r in (x.inverse(), x.conjugate(), x ** 2, x ** -1, -x):
            assert not any(isinstance(p, float) for p in _parts(r))
        assert x * x.inverse() == 1
        assert x * x.conjugate() == x.norm()


# ----------------------------------------------------------------------
# QuadExt against a reference: a + b sqrt(d) as a pair of Fractions,
# with the textbook formulas
# ----------------------------------------------------------------------

RADICANDS = (2, 3, 5, 6, 7)
MISMATCH = "the input mixes the radicands {} and {}; one Q(sqrt(d)) per input is supported"


def _pair(x):
    if isinstance(x, QuadExt):
        return Fraction(x.a), Fraction(x.b)
    return Fraction(x), Fraction(0)


def _ref_mul(x, y, d):
    (a, b), (c, e) = x, y
    return a * c + b * e * d, a * e + b * c


def _ref_inverse(x, d):
    a, b = x
    n = a * a - b * b * d
    return a / n, -b / n


def _ref_binary(op, x, y, d):
    (a, b), (c, e) = x, y
    if op == "+":
        return a + c, b + e
    if op == "-":
        return a - c, b - e
    if op == "*":
        return _ref_mul(x, y, d)
    return _ref_mul(x, _ref_inverse(y, d), d)


def _ref_sign(x, d):
    a, b = x
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa == 0 or sa == sb:
        return sb
    n = a * a - b * b * d
    return sa * ((n > 0) - (n < 0))


def _rational_type(f: Fraction):
    return int if f.denominator == 1 else Rat


def _agrees(got, want, d):
    """got is the reference value ``want``, in the canonical form: a
    QuadExt on reduced ints when irrational, else an int when integral and
    a Rat otherwise."""
    a, b = want
    if b == 0:
        assert not isinstance(got, QuadExt)
        assert got == a and type(got) is _rational_type(a)
        return
    assert isinstance(got, QuadExt) and got.d == d
    assert (got.a, got.b) == (a, b)
    assert type(got.a) is _rational_type(a) and type(got.b) is _rational_type(b)
    A, B, D = got.A, got.B, got.D
    assert all(type(v) is int for v in (A, B, D))
    assert D >= 1 and B != 0 and gcd(A, B, D) == 1


nonzero_rationals = rationals.filter(bool)


def operands(d):
    """An int, a Fraction or a QuadExt over Q(sqrt(d))."""
    return st.one_of(
        st.integers(-6, 6),
        rationals,
        st.builds(lambda a, b: QuadExt(a, b, d), rationals, nonzero_rationals),
    )


def quads(d):
    return st.builds(lambda a, b: QuadExt(a, b, d), rationals, nonzero_rationals)


BINARY = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
          "*": lambda x, y: x * y, "/": lambda x, y: x / y}


@given(d=st.sampled_from(RADICANDS), op=st.sampled_from(tuple(BINARY)),
       quad_left=st.booleans(), data=st.data())
def test_quadext_binary_ops_match_the_fraction_pair_reference(d, op, quad_left, data):
    x, y = data.draw(quads(d)), data.draw(operands(d))
    if not quad_left:
        x, y = y, x
    if op == "/" and y == 0:
        with pytest.raises(ZeroDivisionError):
            BINARY[op](x, y)
        return
    _agrees(BINARY[op](x, y), _ref_binary(op, _pair(x), _pair(y), d), d)
    want_sign = _ref_sign(_ref_binary("-", _pair(x), _pair(y), d), d)
    assert (x < y, x <= y, x > y, x >= y) == (
        want_sign < 0, want_sign <= 0, want_sign > 0, want_sign >= 0)
    assert (x == y) == (_pair(x) == _pair(y)) == (y == x)


@given(d=st.sampled_from(RADICANDS), x=st.data(), n=st.integers(-3, 3))
def test_quadext_unary_ops_match_the_fraction_pair_reference(d, x, n):
    x = x.draw(quads(d))
    p = _pair(x)
    _agrees(-x, (-p[0], -p[1]), d)
    _agrees(x.conjugate(), (p[0], -p[1]), d)
    _agrees(x.inverse(), _ref_inverse(p, d), d)
    norm = p[0] * p[0] - p[1] * p[1] * d
    assert x.norm() == norm and type(x.norm()) is _rational_type(norm)
    assert x.sign() == _ref_sign(p, d)
    _agrees(abs(x), p if _ref_sign(p, d) >= 0 else (-p[0], -p[1]), d)
    want = (Fraction(1), Fraction(0))
    for _ in range(abs(n)):
        want = _ref_mul(want, p if n > 0 else _ref_inverse(p, d), d)
    _agrees(x ** n, want, d)


@given(d=st.sampled_from(RADICANDS), data=st.data())
def test_equal_quadext_values_hash_equal(d, data):
    x, y = data.draw(quads(d)), data.draw(operands(d))
    for z in (x + y - y, (x * 7) / 7, x.conjugate().conjugate(),
              QuadExt(x.a, x.b, d), QuadExt.make(x.a, x.b, d)):
        assert z == x and hash(z) == hash(x)
    if y != 0:
        z = x * y / y
        assert z == x and hash(z) == hash(x)
    assert hash(x) == hash((x.a, x.b, x.d))


@given(d=st.sampled_from(RADICANDS), e=st.sampled_from(RADICANDS), data=st.data(),
       op=st.sampled_from(tuple(BINARY)))
def test_mixed_radicands_raise_the_same_field_mismatch(d, e, data, op):
    if d == e:
        return
    x, y = data.draw(quads(d)), data.draw(quads(e))
    with pytest.raises(FieldMismatch) as info:
        BINARY[op](x, y)
    assert str(info.value) == MISMATCH.format(min(d, e), max(d, e))
    assert x != y


def test_quadext_exposes_rational_a_b_d_read_only():
    """jsonio, format_scalar, repr and the benchmark's oracle read a
    QuadExt through exactly a, b and d."""
    from solvlie.jsonio import scalar_to_json
    from solvlie.scalars import format_scalar

    x = QuadExt(Fraction(1, 2), Fraction(6, 2), 5)
    assert (x.a, x.b, x.d) == (Fraction(1, 2), 3, 5)
    assert type(x.a) is Rat and type(x.b) is int and type(x.d) is int
    for name in ("a", "b"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    assert (x.a, x.b) == (Fraction(1, 2), 3)
    assert format_scalar(x) == "1/2 + 3*sqrt(5)"
    assert scalar_to_json(x) == {"a": "1/2", "b": "3", "d": 5}
    assert repr(x) == "QuadExt(Fraction(1, 2), 3, 5)"
    assert (x.A, x.B, x.D) == (1, 6, 2)
    path = Path(__file__).resolve().parent.parent / "benchmark" / "checker.py"
    spec = importlib.util.spec_from_file_location("benchmark_checker", path)
    checker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checker)
    got = checker.exact(x)
    assert (got.a, got.b, got.d) == (Fraction(1, 2), 3, 5)


# ----------------------------------------------------------------------
# Rat against fractions.Fraction as the reference
# ----------------------------------------------------------------------

plain = st.fractions(min_value=-50, max_value=50, max_denominator=40)
rats = plain.filter(lambda f: f.denominator > 1).map(compact)


def rat_operands():
    """An int, a plain Fraction or a Rat."""
    return st.one_of(st.integers(-30, 30), plain, rats)


def _canonical_rational(got, want: Fraction):
    """got is the reference value ``want`` as an int when it is integral,
    else as a Rat with the same numerator and denominator."""
    assert got == want and want == got
    assert type(got) is _rational_type(want)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


COMPARE = {"<": lambda x, y: x < y, "<=": lambda x, y: x <= y, ">": lambda x, y: x > y,
           ">=": lambda x, y: x >= y, "==": lambda x, y: x == y, "!=": lambda x, y: x != y}


@given(x=rats, y=rat_operands(), op=st.sampled_from(tuple(BINARY)))
def test_rat_binary_ops_match_fraction(x, y, op):
    assert type(x) is Rat
    fx, fy = Fraction(x), Fraction(y)
    assert type(fx) is Fraction
    if op == "/" and y == 0:
        with pytest.raises(ZeroDivisionError):
            BINARY[op](x, y)
    else:
        _canonical_rational(BINARY[op](x, y), BINARY[op](fx, fy))
    _canonical_rational(BINARY[op](y, x), BINARY[op](fy, fx))
    for name, cmp in COMPARE.items():
        assert cmp(x, y) == cmp(fx, fy), name
        assert cmp(y, x) == cmp(fy, fx), name


@given(x=rats, y=rats, e=st.sampled_from(RADICANDS), data=st.data(),
       op=st.sampled_from(tuple(BINARY)))
def test_rat_mixes_with_quadext_in_both_orders(x, y, e, data, op):
    q = data.draw(quads(e))
    for left, right in ((x, q), (q, x)):
        _agrees(BINARY[op](left, right), _ref_binary(op, _pair(left), _pair(right), e), e)
        want_sign = _ref_sign(_ref_binary("-", _pair(left), _pair(right), e), e)
        assert (left < right, left <= right, left > right, left >= right) == (
            want_sign < 0, want_sign <= 0, want_sign > 0, want_sign >= 0)
        assert left != right and not left == right
    # Rat with Rat stays rational
    _canonical_rational(BINARY[op](x, y), BINARY[op](Fraction(x), Fraction(y)))


@given(x=rats, n=st.integers(-4, 4))
def test_rat_unary_ops_match_fraction(x, n):
    f = Fraction(x)
    _canonical_rational(-x, -f)
    _canonical_rational(+x, +f)
    _canonical_rational(abs(x), abs(f))
    _canonical_rational(x ** n, f ** n)
    assert bool(x) and bool(f)


@given(x=rats)
def test_rat_reads_and_hashes_as_the_equal_fraction(x):
    import copy
    import pickle

    f = Fraction(x)
    assert isinstance(x, Fraction)
    assert x == f and f == x and hash(x) == hash(f)
    assert {x: 1}[f] == 1 and {f: 1}[x] == 1
    assert repr(x) == repr(f) == f"Fraction({f.numerator}, {f.denominator})"
    assert str(x) == str(f)
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is Rat and y == x
    assert float(x) == float(f)
    with pytest.raises(ZeroDivisionError):
        x / 0
    with pytest.raises(ZeroDivisionError):
        x / Fraction(0)
    with pytest.raises(TypeError):
        x + 0.5  # a float never mixes into exact arithmetic


@given(n=st.integers(-10**6, 10**6), d=st.integers(2, 10**6))
def test_trusted_rat_equals_fraction_field_for_field(n, d):
    from math import gcd as _gcd

    from solvlie.scalars import _rat

    if _gcd(n, d) != 1:
        return
    got, want = _rat(n, d), Fraction(n, d)
    assert type(got) is Rat
    assert (got._numerator, got._denominator) == (want._numerator, want._denominator)
    assert got == want and hash(got) == hash(want)


def test_rat_constructor_and_exdiv_return_the_canonical_value():
    assert Rat(1, 2) == Fraction(1, 2) and type(Rat(1, 2)) is Rat
    assert Rat(4, -2) == -2 and type(Rat(4, -2)) is int
    assert type(Rat("3/6")) is Rat and Rat("3/6") == Fraction(1, 2)
    assert type(compact(Fraction(3, 6))) is Rat
    assert type(exdiv(Rat(1, 2), Rat(1, 4))) is int and exdiv(Rat(1, 2), 2) == Fraction(1, 4)
    with pytest.raises(ZeroDivisionError):
        Rat(1, 0)
    with pytest.raises(ZeroDivisionError):
        exdiv(1, 0)
