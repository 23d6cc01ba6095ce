import itertools
import random
from fractions import Fraction

import pytest

from solvlie.catalog import (
    codim2_algebra,
    scramble_tensor,
    codim2_az_fixtures,
    tensor_from_brackets,
)
from solvlie.codim2 import (
    LEFT,
    RIGHT,
    codim2_isomorphic,
    codim2_tensor,
    normalize_codim2,
)
from solvlie.errors import NotInClass, ShapeMismatch, Unsupported
from solvlie.liealg import LieAlgebra
from solvlie.matrices import Mat, inverse
from solvlie.propsim import prop_similar
from solvlie.scalars import QuadExt


def test_left_block_example_n4():
    t = tensor_from_brackets(4, [(4, 1, {1: 1}), (4, 3, {2: 1})])
    f = normalize_codim2(LieAlgebra(t))
    assert f.case == "structure_matrix" and f.shape == LEFT
    assert f.a_inner == Mat([[1]])
    assert f.a_bar == Mat([[1, 0], [0, 0]])


def test_right_block_example_n5():
    t = tensor_from_brackets(5, [(5, 2, {1: 1}), (5, 3, {2: 1}), (5, 4, {3: 1})])
    f = normalize_codim2(LieAlgebra(t))
    assert f.shape == RIGHT and f.a_bar.rows == 3


def test_decomposable_cases():
    # [Y, Z] = 0 with invertible a_Z
    t = tensor_from_brackets(5, [(5, 1, {1: 1}), (5, 2, {2: 1}), (5, 3, {3: 1})])
    f = normalize_codim2(LieAlgebra(t))
    assert f.case == "decomposable" and f.inner.dim == 4
    assert f.inner.solvable
    # nonsingular a_Z with [Z, Y] != 0: the correction kills the bracket
    t = tensor_from_brackets(
        5, [(5, 1, {1: 1}), (5, 2, {2: 1}), (5, 3, {3: 1}), (5, 4, {1: 2, 3: -1})]
    )
    f = normalize_codim2(LieAlgebra(t))
    assert f.case == "decomposable"
    # the witness actually decouples the last coordinate
    moved = t.transform(f.witness.matrix, f.witness.inverse)
    n = t.n
    for (i, j), vec in moved.brackets.items():
        assert j != n - 1 and vec[n - 1] == 0


def test_unsupported_two_dimensional_span():
    t = tensor_from_brackets(4, [(3, 1, {1: 1}), (4, 2, {2: 1})])
    with pytest.raises(Unsupported):
        normalize_codim2(LieAlgebra(t))


SL2 = [(1, 2, {2: 2}), (1, 3, {3: -2}), (2, 3, {1: 1})]
# R^2 acting on h3 = span(X1, X2, X3) by diag(1, 0, 1) and diag(0, 1, 1)
R2_SEMI_H3 = [
    (1, 2, {3: 1}),
    (4, 1, {1: 1}),
    (4, 3, {3: 1}),
    (5, 2, {2: 1}),
    (5, 3, {3: 1}),
]


def test_not_in_class_reasons():
    with pytest.raises(NotInClass) as err:
        normalize_codim2(tensor_from_brackets(3, [(3, 1, {1: 1}), (3, 2, {2: 2})]))
    assert err.value.reason == "DimensionTooSmall"
    # derived ideal too small
    with pytest.raises(NotInClass) as err:
        normalize_codim2(tensor_from_brackets(4, [(4, 1, {1: 1})]))
    assert err.value.reason == "DerivedDimNotCodim2"
    # sl2 + R^2: the derived series stops at sl2
    with pytest.raises(NotInClass) as err:
        normalize_codim2(tensor_from_brackets(5, SL2))
    assert err.value.reason == "NotSolvable"
    with pytest.raises(NotInClass) as err:
        normalize_codim2(tensor_from_brackets(5, R2_SEMI_H3))
    assert err.value.reason == "DerivedNotAbelian"


def test_witness_reproduces_structure_tensor():
    for name, az in codim2_az_fixtures():
        alg = codim2_algebra(az)
        f = normalize_codim2(alg)
        moved = alg.tensor.transform(f.witness.matrix, f.witness.inverse)
        assert moved == codim2_tensor(f.a_bar), name


def test_adjoint_span_guard_on_fixtures():
    from solvlie.liealg import adjoint_algebra_t

    for name, az in codim2_az_fixtures():
        alg = codim2_algebra(az)
        _, dim = adjoint_algebra_t(alg.tensor)
        assert dim in (1, 2), name


def test_fixture_pairwise_non_isomorphic():
    forms = [normalize_codim2(codim2_algebra(az)) for _, az in codim2_az_fixtures()]
    for f1, f2 in itertools.combinations(forms, 2):
        assert not codim2_isomorphic(f1, f2).isomorphic


def test_left_vs_right_always_distinct():
    rng = random.Random(2)
    lefts, rights = [], []
    for name, az in codim2_az_fixtures():
        f = normalize_codim2(codim2_algebra(az))
        (lefts if f.shape == LEFT else rights).append(f)
    from solvlie.matrices import rank

    for f1 in lefts:
        for f2 in rights:
            v = codim2_isomorphic(f1, f2)
            assert not v.isomorphic
            # scale/conjugation invariant separating the shapes: the rank
            # drops under squaring exactly when the kernel sits in the image
            assert rank(f1.a_bar @ f1.a_bar) == rank(f1.a_bar)
            assert rank(f2.a_bar @ f2.a_bar) == rank(f2.a_bar) - 1


def test_round_trip_and_m_f_soundness():
    rng = random.Random(10)
    for name, az in codim2_az_fixtures():
        alg = codim2_algebra(az)
        f0 = normalize_codim2(alg)
        for seed in range(8):
            st, _ = scramble_tensor(alg.tensor, rng.random())
            f1 = normalize_codim2(st)
            assert f1.shape == f0.shape
            assert prop_similar(f0.a_bar, f1.a_bar, want_witness=False).equivalent
            v = codim2_isomorphic(f0, f1)
            assert v.isomorphic and v.m_f is not None
            # exact bracket transport
            assert codim2_tensor(f1.a_bar).transform(v.m_f, inverse(v.m_f)) == codim2_tensor(
                f0.a_bar
            )


def test_scale_in_a_third_field_gives_no_m_f():
    # c = sqrt6 / 2 takes the sqrt2 structure matrix to the sqrt3 one; no
    # witness C is formed over a third field, so neither is M_f
    r2, r3 = QuadExt(0, 1, 2), QuadExt(0, 1, 3)
    f2 = normalize_codim2(codim2_algebra(Mat([[r2, 0, 0], [0, -r2, 0], [0, 0, 0]])))
    f3 = normalize_codim2(codim2_algebra(Mat([[r3, 0, 0], [0, -r3, 0], [0, 0, 0]])))
    v = codim2_isomorphic(f2, f3)
    assert v.isomorphic and v.c == QuadExt(0, Fraction(1, 2), 6) and v.m_f is None


def test_identical_forms_give_identity_scale():
    f = normalize_codim2(codim2_algebra(codim2_az_fixtures()[0][1]))
    v = codim2_isomorphic(f, f)
    assert v.isomorphic and v.c == 1


def test_shape_mismatch_errors():
    f = normalize_codim2(codim2_algebra(codim2_az_fixtures()[0][1]))
    t = tensor_from_brackets(
        6, [(6, 1, {1: 1}), (6, 2, {2: 2}), (6, 3, {3: 3}), (6, 5, {4: 1})]
    )
    g = normalize_codim2(LieAlgebra(t))
    with pytest.raises(ShapeMismatch):
        codim2_isomorphic(f, g)


def test_left_block_inner_similarity_consistency():
    # left-padded forms are equivalent exactly when the inner blocks are
    a = Mat([[1, 2], [0, 3]])
    p = Mat([[1, 1], [0, 1]])
    b = (inverse(p) @ a @ p).scale(Fraction(2))
    fa = normalize_codim2(codim2_algebra(Mat([[a[0, 0], a[0, 1], 0], [a[1, 0], a[1, 1], 0], [0, 0, 0]])))
    fb = normalize_codim2(codim2_algebra(Mat([[b[0, 0], b[0, 1], 0], [b[1, 0], b[1, 1], 0], [0, 0, 0]])))
    assert prop_similar(a, b, want_witness=False).equivalent
    assert codim2_isomorphic(fa, fb).isomorphic
