"""The independent checker accepts hand-computed answers and rejects them
with one entry changed.  Run: python3 -m pytest benchmark/tests"""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checker as ck  # noqa: E402

# Input basis X1 = Y1, X2 = Y2 - Y1, X3 = Y3 of the algebra
# [Y3, Y1] = Y1, [Y3, Y2] = 2 Y2 (G3_2_1 with lambda = 2), so that
# [X3, X1] = X1 and [X3, X2] = X1 + 2 X2.  The witness columns are the
# Y_i in X coordinates.
INPUT = (3, {(0, 2): (-1, 0, 0), (1, 2): (-1, -2, 0)})
WITNESS = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]


def test_transport_accepts_hand_computed_witness():
    assert ck.transports(INPUT, WITNESS, ck.canonical_table("G3_2_1", lam=2))


def test_transport_rejects_changed_entry():
    bad = [row[:] for row in WITNESS]
    bad[0][1] = 2
    assert not ck.transports(INPUT, bad, ck.canonical_table("G3_2_1", lam=2))


def test_transport_rejects_singular_witness():
    # every bracket of the zero algebra transports, so only the rank test
    # can reject this witness
    zero = (2, {})
    assert not ck.transports(zero, [[1, 1], [1, 1]], zero)


def test_transport_and_inverse_round_trip():
    s = [[1, 2, 0], [0, 1, 0], [3, 0, 1]]
    s_inv = [[1, -2, 0], [0, 1, 0], [-3, 6, 1]]
    assert ck.matmul(s, s_inv) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    moved = ck.transport(INPUT, s, s_inv)
    assert ck.transports(INPUT, s, moved)


def test_quadratic_witness_of_proportional_similarity():
    # A = [[0, 2], [1, 0]] has eigenvectors (sqrt2, 1) and (-sqrt2, 1) for
    # the eigenvalues sqrt2 and -sqrt2, so C^-1 A C = diag(sqrt2, -sqrt2).
    r2 = ck.surd(0, 1, 2)
    a = [[r2, 0], [0, -r2]]
    b = [[0, 2], [1, 0]]
    cmat = [[r2, -r2], [1, 1]]
    assert ck.is_prop_similar_witness(a, b, 1, cmat)
    bad = [row[:] for row in cmat]
    bad[1][0] = 2
    assert not ck.is_prop_similar_witness(a, b, 1, bad)
    # c = 2 relates 2A to the doubled target
    assert ck.is_prop_similar_witness(a, [[0, 4], [2, 0]], 2, cmat)


def test_scale_invariant_proves_inequivalence_only_when_true():
    # diag(1, 2) and diag(1, 3) have eigenvalue ratios 2 and 3
    assert ck.proves_not_prop_similar([[1, 0], [0, 2]], [[1, 0], [0, 3]])
    # diag(2, 4) = 2 diag(1, 2): proportionally similar, never "proven" apart
    assert not ck.proves_not_prop_similar([[1, 0], [0, 2]], [[2, 0], [0, 4]])
    # a nilpotent Jordan block and the zero-padded identity differ in rank
    # profile
    assert ck.proves_not_prop_similar([[0, 1], [0, 0]], [[1, 0], [0, 0]])


def test_series_dims_of_heisenberg_plus_line():
    # [X1, X2] = X3 with a fourth central coordinate
    heis = (4, {(0, 1): (0, 0, 1, 0)})
    assert ck.series_dims(heis) == {"derived": [4, 1, 0], "lower_central": [4, 1, 0], "center": 2}


def test_json_scalars_are_reduced():
    assert ck.from_json_scalar("6/4") == Fraction(3, 2)
    assert ck.from_json_scalar({"a": "1", "b": "1", "d": 8}) == ck.surd(1, 2, 2)
    assert ck.from_json_scalar({"a": "1", "b": "3", "d": 9}) == 10
