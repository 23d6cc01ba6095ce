import random
from fractions import Fraction

import pytest

from solvlie import labels
from solvlie.catalog import (
    aff_c,
    aff_r,
    aff_r_plus_aff_r,
    aff_r_plus_heis,
    build,
    build_tensor,
    codim2_algebra,
    g3_2_1,
    g3_2_3,
    g4_2_3,
    g5p2k_2,
    g6p2k_2_1,
    g6p2k_2_2,
    heisenberg,
    l6gamma,
    morozov_check,
    scramble,
    scramble_change,
    codim2_az_fixtures,
    tensor_from_brackets,
)
from solvlie.errors import ParamOutOfDomain
from solvlie.harness import corpus_labels
from solvlie.labels import ClassLabel
from solvlie.liealg import BasisChange, LieAlgebra, derived_series_t, validate
from solvlie.matrices import Mat, det, inverse


def test_heisenberg_bracket_table():
    t = heisenberg(1)
    assert t.bracket_basis(0, 1) == (0, 0, 1)
    t = heisenberg(3)
    assert t.n == 7
    assert t.bracket_basis(2, 3) == (0,) * 6 + (1,)


def test_param_domains():
    with pytest.raises(ParamOutOfDomain):
        heisenberg(0)
    with pytest.raises(ParamOutOfDomain):
        g3_2_1(0)
    with pytest.raises(ParamOutOfDomain):
        g3_2_3(Fraction(4))
    with pytest.raises(ParamOutOfDomain):
        g5p2k_2(-1)
    with pytest.raises(ParamOutOfDomain):
        aff_r_plus_heis(0)
    with pytest.raises(ParamOutOfDomain):
        l6gamma(0)


def test_every_corpus_tensor_validates_with_right_derived_dim():
    for lab in corpus_labels():
        t = build_tensor(lab)
        assert validate(t).ok, lab
        ds = derived_series_t(t)
        assert len(ds[1]) == 2, lab
        assert not ds[-1], lab  # solvable


def test_families_subcase_examples():
    # k = 0 chain tail starts right after the acting pair
    t = g6p2k_2_2(0)
    assert t.bracket_basis(2, 0) == (0, 1, 0, 0, 0, 0)
    assert t.bracket_basis(2, 3) == (1, 0, 0, 0, 0, 0)
    assert t.bracket_basis(4, 5) == (0, 1, 0, 0, 0, 0)
    t = g6p2k_2_1(0)
    assert t.bracket_basis(2, 0) == (1, 0, 0, 0, 0, 0)
    t = g5p2k_2(1)
    assert t.n == 7 and t.bracket_basis(5, 6) == (0, 1, 0, 0, 0, 0, 0)
    t = l6gamma(Fraction(1))
    assert t.bracket_basis(0, 2) == (0, 0, 0, 0, 1, 0)
    assert t.bracket_basis(0, 3) == (0, 0, 0, 0, 0, 1)
    assert t.bracket_basis(1, 2) == (0, 0, 0, 0, 0, 1)
    assert t.bracket_basis(1, 3) == (0, 0, 0, 0, 1, 0)


def test_scramble_contract():
    alg = LieAlgebra(build_tensor(ClassLabel(labels.G4_2_1)))
    s1, bc1 = scramble(alg, 42)
    s2, bc2 = scramble(alg, 42)
    assert s1.tensor == s2.tensor and bc1.matrix == bc2.matrix
    s3, _ = scramble(alg, 43)
    assert det(bc1.matrix) in (1, -1)
    s0, bc0 = scramble(alg, 7, steps=0)
    assert s0.tensor == alg.tensor and bc0.matrix == Mat.identity(4)
    back = s1.change_basis(BasisChange(bc1.inverse))
    assert back.tensor == alg.tensor
    for seed in range(10):
        assert det(scramble_change(5, seed).matrix) in (1, -1)


def _scramble_product(n, seed, steps=None):
    """The scramble as the product of its elementary matrices, the form
    `scramble_change` replaced: same draws, one n x n product per step."""
    rng = random.Random(seed)
    if steps is None:
        steps = 2 * n + 2
    t = Mat.identity(n)
    for _ in range(steps):
        op = rng.randrange(4) if n > 1 else 3
        if op <= 1:
            i, j = rng.sample(range(n), 2)
            lam = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
            e = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
            e[i][j] = lam
            t = t @ Mat(e)
        elif op == 2:
            i, j = rng.sample(range(n), 2)
            perm = list(range(n))
            perm[i], perm[j] = perm[j], perm[i]
            t = t @ Mat([[1 if perm[r] == c else 0 for c in range(n)] for r in range(n)])
        else:
            i = rng.randrange(n)
            e = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
            e[i][i] = -1
            t = t @ Mat(e)
    return t


def test_scramble_change_matches_the_elementary_product():
    """The column and row operations give the product of the elementary
    matrices, and the carried inverse is the one elimination gives, with
    every entry an int."""
    rng = random.Random(31)
    for n in range(1, 14):
        cases = [(rng.random(), None) for _ in range(12)] + [(s, None) for s in range(6)]
        cases += [(rng.random(), 0), (3, 0), (n, 1), (n, 3 * n)]
        for seed, steps in cases:
            bc = scramble_change(n, seed, steps)
            assert bc.matrix == _scramble_product(n, seed, steps), (n, seed, steps)
            assert bc.inverse == inverse(bc.matrix), (n, seed, steps)
            for m in (bc.matrix, bc.inverse):
                assert all(type(x) is int for row in m.data for x in row)


def test_morozov_checks_pass_exactly():
    for rep in morozov_check():
        assert rep.ok, (rep.gamma, rep.detail)


def test_morozov_detects_wrong_transform():
    from solvlie.catalog import morozov_transform_positive
    from solvlie.liealg import direct_sum

    # feeding the positive-branch transform a negated table must fail
    t = l6gamma(Fraction(-1))
    bc = BasisChange(morozov_transform_positive(Fraction(1)))
    moved = t.transform(bc.matrix, bc.inverse)
    assert moved != direct_sum(heisenberg(1), heisenberg(1))


def test_az_fixture_shapes():
    rows = codim2_az_fixtures()
    assert len(rows) == 5
    for name, az in rows:
        alg = codim2_algebra(az)
        assert validate(alg.tensor).ok
        ds = derived_series_t(alg.tensor)
        assert len(ds[1]) == 3


def test_build_rejects_unknown():
    with pytest.raises(ParamOutOfDomain):
        build(ClassLabel(labels.TWO_STEP_NILPOTENT))
