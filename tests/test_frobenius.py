"""Rational canonical form tests.

The oracle used for invariant factors is the classical minor-gcd Smith
computation on the characteristic matrix xI - m: d_k is the monic gcd of
all k x k minors, and the k-th invariant factor is d_k / d_{k-1}.  It
shares only the primitive polynomial arithmetic with the implementation
under test, which runs a cyclic decomposition instead.
"""

import itertools
import random
from fractions import Fraction

from solvlie.frobenius import (
    companion,
    frobenius_form,
    invariant_factors,
    min_poly,
    pdeg,
    pdivmod,
    pgcd,
    pmonic,
    pmul,
    pnormalize,
    pquo,
    similar,
    similarity_witness,
)
from solvlie.matrices import Mat, det, inverse


def padd(p, q):
    n = max(len(p), len(q))
    return pnormalize(
        [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]
    )


def poly_det(rows):
    """Determinant of a matrix of polynomials by Laplace expansion."""
    n = len(rows)
    if n == 1:
        return pnormalize(rows[0][0])
    out = []
    for j in range(n):
        if not pnormalize(rows[0][j]):
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = pmul(rows[0][j], poly_det(minor))
        if j % 2 == 1:
            term = [-c for c in term]
        out = padd(out, term)
    return pnormalize(out)


def smith_invariant_factors_oracle(m: Mat):
    """Invariant factors of m via gcds of minors of xI - m."""
    n = m.rows
    cm = [
        [
            pnormalize([-m[i, j], 1] if i == j else [-m[i, j]])
            for j in range(n)
        ]
        for i in range(n)
    ]
    dets = [[Fraction(1)]]  # d_0 = 1
    for k in range(1, n + 1):
        g = []
        for rows_sel in itertools.combinations(range(n), k):
            for cols_sel in itertools.combinations(range(n), k):
                sub = [[cm[i][j] for j in cols_sel] for i in rows_sel]
                g = pgcd(g, poly_det(sub))
                if pdeg(g) == 0 and g:
                    break
            if pdeg(g) == 0 and g:
                break
        dets.append(pmonic(g))
    factors = []
    for k in range(1, n + 1):
        f = pquo(dets[k], dets[k - 1])
        if pdeg(f) >= 1:
            factors.append(pmonic(f))
    return factors


def block_diag(mats):
    n = sum(m.rows for m in mats)
    rows = [[0] * n for _ in range(n)]
    off = 0
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                rows[off + i][off + j] = m[i, j]
        off += m.rows
    return Mat(rows)


def test_examples():
    f, p = frobenius_form(Mat([[0, 1], [0, 0]]))
    assert f == [[0, 0, 1]]  # single invariant factor x^2
    assert inverse(p) @ Mat([[0, 1], [0, 0]]) @ p == companion([0, 0, 1])
    f, _ = frobenius_form(Mat.identity(3))
    assert f == [[-1, 1]] * 3  # x - 1 three times


def test_derived_example_against_minor_gcd_oracle():
    m = Mat([[0, 1, 0], [0, 0, 0], [0, 0, 1]])
    expect = smith_invariant_factors_oracle(m)
    got, p = frobenius_form(m)
    assert got == expect
    assert inverse(p) @ m @ p == block_diag([companion(f) for f in got])


def test_invariant_factors_match_oracle_randomly():
    rng = random.Random(21)
    for _ in range(25):
        n = rng.choice((2, 2, 3))
        m = Mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        assert invariant_factors(m) == smith_invariant_factors_oracle(m)


def test_divisibility_chain_and_block_form():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.choice((2, 3, 4, 5))
        m = Mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        factors, p = frobenius_form(m)
        assert sum(pdeg(f) for f in factors) == n
        for a, b in zip(factors, factors[1:]):
            assert not pdivmod(b, a)[1]  # a divides b
        assert det(p) != 0
        assert inverse(p) @ m @ p == block_diag([companion(f) for f in factors])


def test_similarity_invariant_under_conjugation():
    rng = random.Random(8)
    for _ in range(25):
        n = rng.choice((2, 3))
        m = Mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        while True:
            p = Mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            if det(p) != 0:
                break
        assert invariant_factors(m) == invariant_factors(inverse(p) @ m @ p)


def brute_force_similar(a: Mat, b: Mat, rng, tries=4000) -> bool:
    """Search oracle: random small integer conjugators confirm positives."""
    n = a.rows
    for _ in range(tries):
        p = Mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if det(p) != 0 and inverse(p) @ a @ p == b:
            return True
    return False


def test_similar_agrees_with_brute_force_search():
    rng = random.Random(31)
    confirmed = 0
    for _ in range(60):
        n = rng.choice((2, 3))
        a = Mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        b = Mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if similar(a, b):
            # positives must be confirmed by an explicit witness
            c = similarity_witness(a, b)
            assert inverse(c) @ a @ c == b
            confirmed += 1
        else:
            # the search must not find a conjugator the test refuted
            assert not brute_force_similar(a, b, rng, tries=300)
    assert confirmed >= 1  # a == b happens; make sure the branch ran


def test_min_poly():
    assert min_poly(Mat.identity(3)) == [-1, 1]
    assert min_poly(Mat([[0, 1], [0, 0]])) == [0, 0, 1]
    m = Mat([[0, 1, 0], [0, 0, 0], [0, 0, 1]])
    # x^2 (x - 1) = x^3 - x^2
    assert min_poly(m) == [0, 0, -1, 1]


def _canonical(x):
    from solvlie.scalars import QuadExt, Rat

    t = type(x)
    return t is int or t is QuadExt or (t is Rat and x.denominator >= 2)


def test_companion_converts_plain_fractions():
    """`companion` is public: plain `Fraction` coefficients come out as
    ints and `Rat`s, so its characteristic polynomial is canonical too."""
    from solvlie.matrices import char_poly
    from solvlie.scalars import QuadExt

    for p in (
        [Fraction(-3, 2), Fraction(4, 1), Fraction(0), Fraction(1)],
        [Fraction(5, 3), Fraction(-2, 1), Fraction(1)],
        [QuadExt(Fraction(1, 2), Fraction(1, 1), 2), Fraction(6, 3), Fraction(1)],
    ):
        c = companion(p)
        assert all(_canonical(x) for row in c.data for x in row)
        cp = char_poly(c)
        assert cp == p and all(_canonical(x) for x in cp)
