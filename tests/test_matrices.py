import random
from fractions import Fraction

import pytest

from solvlie.errors import DimensionError, ImpossibleBranch, NonCommuting, SingularInput
from solvlie.matrices import (
    Echelon,
    Mat,
    char_poly,
    common_eigenvector,
    cyclic_conjugator_2x2,
    det,
    eigendirections_2x2,
    first_non_kernel,
    inverse,
    kernel_basis,
    rank,
    row_space,
    rref,
    solve,
    spectral_classify_2x2,
)
from solvlie.scalars import QuadExt, exdiv


def test_char_poly_examples():
    # direct expansions
    assert char_poly(Mat([[1, 0], [0, 0]])) == [0, -1, 1]  # x^2 - x
    assert char_poly(Mat([[0, 1], [0, 0]])) == [0, 0, 1]  # x^2
    # singular 2x2 with trace t has characteristic polynomial x^2 - t x
    for m in (Mat([[3, 1], [6, 2]]), Mat([[2, 4], [1, 2]])):
        assert det(m) == 0
        t = m.trace()
        assert char_poly(m) == [0, -t, 1]


def test_char_poly_requires_square():
    with pytest.raises(DimensionError):
        char_poly(Mat([[1, 2, 3], [4, 5, 6]]))


def test_char_poly_conjugation_invariant():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.choice((2, 3, 4))
        m = Mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        while True:
            p = Mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            if det(p) != 0:
                break
        assert char_poly(inverse(p) @ m @ p) == char_poly(m)


def test_elimination_basics():
    a = Mat([[2, 4], [6, 9]])
    assert det(a) == -6
    assert inverse(a) @ a == Mat.identity(2)
    assert rank(Mat([[1, 2], [2, 4]])) == 1
    assert kernel_basis(Mat([[1, 2], [2, 4]])) == [(-2, 1)]
    assert row_space(Mat([[2, 4], [1, 2]])) == [(1, 2)]
    assert solve(Mat([[1, 1], [0, 1]]), (3, 2)) == (1, 2)
    assert solve(Mat([[1, 1], [1, 1]]), (0, 1)) is None


def test_first_non_kernel_probes_unit_vectors_in_order():
    assert first_non_kernel(Mat([[0, 1], [0, 0]])) == (0, 1)
    assert first_non_kernel(Mat([[0, 0, 0], [2, 0, 1], [0, 0, 0]])) == (1, 0, 0)
    for m in (Mat([[0, 0], [0, 0]]), Mat([[0, 0, 0], [0, 0, 0], [0, 0, 0]])):
        with pytest.raises(ImpossibleBranch, match="zero matrix"):
            first_non_kernel(m)


def test_spectral_classify_variants():
    sc = spectral_classify_2x2(Mat([[1, 0], [0, 3]]))
    assert sc.kind == "real_distinct" and (sc.mu1, sc.mu2) == (1, 3)
    sc = spectral_classify_2x2(Mat([[1, 1], [0, 1]]))
    assert sc.kind == "repeated_jordan" and sc.mu1 == 1
    sc = spectral_classify_2x2(Mat([[5, 0], [0, 5]]))
    assert sc.kind == "repeated_diagonalizable" and sc.mu1 == 5
    # roots of x^2 - 2x + 2 are 1 +- i by the quadratic formula
    sc = spectral_classify_2x2(Mat([[1, -1], [1, 1]]))
    assert sc.kind == "complex_pair" and sc.re == 1 and sc.im2 == 1
    # irrational eigenvalues land in a quadratic extension
    sc = spectral_classify_2x2(Mat([[0, 2], [1, 0]]))
    assert sc.mu1 == QuadExt(0, -1, 2) and sc.mu2 == QuadExt(0, 1, 2)


def test_spectral_classify_conjugation_invariant():
    rng = random.Random(3)
    for _ in range(40):
        m = Mat([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        while True:
            p = Mat([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
            if det(p) != 0:
                break
        a = spectral_classify_2x2(m)
        b = spectral_classify_2x2(inverse(p) @ m @ p)
        assert a.kind == b.kind
        assert (a.mu1, a.mu2, a.re, a.im2) == (b.mu1, b.mu2, b.re, b.im2)


def test_common_eigenvector_examples():
    assert common_eigenvector(Mat([[1, 0], [0, 0]]), Mat([[0, 0], [0, 1]])) == (1, 0)
    assert common_eigenvector(Mat([[0, 1], [0, 0]]), Mat.identity(2)) == (1, 0)
    assert common_eigenvector(Mat([[0, 1], [-1, 0]]), Mat.identity(2)) is None


def test_common_eigenvector_checks_commutation():
    with pytest.raises(NonCommuting):
        common_eigenvector(Mat([[1, 0], [0, 0]]), Mat([[0, 1], [0, 0]]))


def test_common_eigenvector_is_simultaneous():
    rng = random.Random(9)
    for _ in range(40):
        a = Mat([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
        s, t = rng.randint(-2, 2), rng.randint(-2, 2)
        b = Mat.identity(2).scale(s) + a.scale(t)
        if spectral_classify_2x2(a).kind == "complex_pair":
            assert common_eigenvector(a, b) is None or t == 0
            continue
        if spectral_classify_2x2(b).kind == "complex_pair":
            continue
        v = common_eigenvector(a, b)
        assert v is not None
        for m in (a, b):
            w = m.apply(v)
            # w is proportional to v
            assert w[0] * v[1] == w[1] * v[0]


def test_eigendirections_cover_scalar_case():
    dirs = eigendirections_2x2(Mat.identity(2).scale(Fraction(7)))
    assert ((1, 0) in [d for _, d in dirs]) and ((0, 1) in [d for _, d in dirs])



def _complex_pair(rng, entry):
    while True:
        m = Mat([[entry(rng) for _ in range(2)] for _ in range(2)])
        t, d = m.trace(), det(m)
        if t * t - 4 * d < 0:
            return m


def _invertible(rng, entry):
    while True:
        p = Mat([[entry(rng) for _ in range(2)] for _ in range(2)])
        if det(p) != 0:
            return p


def test_cyclic_conjugator_matches_the_frobenius_witness():
    # the reference is the Frobenius witness that classify used before
    from solvlie.frobenius import similarity_witness

    entries = (
        lambda r: r.randint(-4, 4),
        lambda r: Fraction(r.randint(-4, 4), r.randint(1, 3)),
        lambda r: QuadExt.make(r.randint(-3, 3), Fraction(r.randint(-2, 2), r.randint(1, 2)), 2),
    )
    quarter_turn = Mat([[0, 1], [-1, 0]])
    rng = random.Random(41)
    pairs = []
    for entry in entries:
        for _ in range(20):
            # propsim_classify_gl2's pair: cA onto the companion matrix
            # [[0, -j], [1, j]] of its characteristic polynomial, c = j / tr
            a = _complex_pair(rng, entry)
            t = a.trace()
            if t != 0:
                j = exdiv(t * t, det(a))
                pairs.append((a.scale(exdiv(j, t)), Mat([[0, -j], [1, j]])))
            # classify_n2._plane_complex_data's pair: a unit rotation onto
            # the quarter turn
            p = _invertible(rng, entry)
            pairs.append((inverse(p) @ quarter_turn @ p, quarter_turn))
    assert len(pairs) >= 100
    for m, target in pairs:
        c = cyclic_conjugator_2x2(m, target)
        assert c == similarity_witness(m, target)
        assert inverse(c) @ m @ c == target


def test_from_columns_checks_as_the_constructor_does():
    from solvlie.scalars import Rat

    m = Mat.from_columns([[Fraction(4, 2), Fraction(1, 3)], [0, Fraction(0)]])
    assert m == Mat([[2, 0], [Fraction(1, 3), 0]])
    assert [type(x) for row in m.data for x in row] == [int, int, Rat, int]
    with pytest.raises(TypeError):
        Mat.from_columns([[1.5, 0], [0, 1]])
    with pytest.raises(DimensionError):
        Mat.from_columns([])


def _eliminated_2x2(m):
    """det, inverse (None when singular) and kernel of a 2x2 matrix by the
    elimination the larger sizes run: the product of the `Echelon` pivot
    values with the sign of their columns, the right half of rref([m | I]),
    and the free-column vectors of rref(m)."""
    e = Echelon()
    d = 1
    for row in m.data:
        piv = e.add(row)
        d = 0 if piv is None or d == 0 else d * piv
    if d and e.pivots == [1, 0]:
        d = -d
    red, pivots = rref(Mat([list(row) + [int(i == j) for j in range(2)] for i, row in enumerate(m.data)]))
    inv = None if pivots[:2] != (0, 1) else [row[2:] for row in red.data]
    red, pivots = rref(m)
    kern = []
    for fc in (c for c in range(2) if c not in pivots):
        v = [0, 0]
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -red.data[r][fc]
        kern.append(tuple(v))
    return d, inv, kern


def test_2x2_closed_forms_equal_elimination():
    # equal values of equal types (int, Rat, QuadExt): a closed form that
    # left an integral Rat or a rational QuadExt behind would differ here
    def typed(x):
        if isinstance(x, (list, tuple)):
            return [typed(y) for y in x]
        return (x, type(x))

    rng = random.Random(17)
    s2 = QuadExt(0, 1, 2)
    rational = [0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)]
    singular = 0
    for kinds in (rational, rational + [s2, 1 + s2, Fraction(1, 3) * s2]):
        for _ in range(1500):
            a, b, c, d = (rng.choice(kinds) for _ in range(4))
            f = rng.choice(kinds)
            m = Mat(rng.choice(([[a, b], [c, d]], [[a, b], [f * a, f * b]], [[f * a, a], [f * c, c]])))
            want_det, want_inv, want_kern = _eliminated_2x2(m)
            assert typed(det(m)) == typed(want_det), m
            assert typed(kernel_basis(m)) == typed(want_kern), m
            if want_inv is None:
                singular += 1
                with pytest.raises(SingularInput):
                    inverse(m)
            else:
                assert typed(inverse(m).data) == typed(want_inv), m
    assert singular >= 1000
