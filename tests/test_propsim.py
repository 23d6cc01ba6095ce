import json
import random
from fractions import Fraction

import pytest

import solvlie.frobenius
from solvlie.cli import run
from solvlie.errors import DimensionMismatch, FieldMismatch, SingularInput
from solvlie.frobenius import companion, similar, similarity_witness
from solvlie.jsonio import matrix_to_json
from solvlie.matrices import Mat, char_poly, det, inverse
from solvlie.propsim import EXACT, PropSimVerdict, prop_similar, propsim_classify_gl2
from solvlie.scalars import QuadExt


def test_reflexive_trivial():
    a = Mat([[1, 2], [3, 4]])
    v = prop_similar(a, a)
    assert v.equivalent and v.c == 1 and v.verify(a, a)


def test_exact_scalar_multiple():
    v = prop_similar(Mat([[1, 0], [0, 2]]), Mat([[3, 0], [0, 6]]))
    assert v.equivalent and v.c == 3


def test_refuted_after_trace_match():
    # trace match forces c = 4/3, but then det(cA) = 32/9 != 3
    a, b = Mat([[1, 0], [0, 2]]), Mat([[1, 0], [0, 3]])
    assert Fraction(4, 3) * a.trace() == b.trace()
    assert Fraction(4, 3) ** 2 * det(a) == Fraction(32, 9) != det(b)
    assert not prop_similar(a, b).equivalent


def test_half_scale_with_swap():
    a, b = Mat([[1, 0], [0, 2]]), Mat([[1, 0], [0, Fraction(1, 2)]])
    v = prop_similar(a, b)
    assert v.equivalent and v.c == Fraction(1, 2)
    assert v.verify(a, b)


def test_nilpotent_pair_ignores_scale():
    a, b = Mat([[0, 5], [0, 0]]), Mat([[0, -3], [0, 0]])
    v = prop_similar(a, b)
    assert v.equivalent and v.c == 1 and v.verify(a, b)
    assert not prop_similar(a, Mat([[1, 0], [0, 0]])).equivalent
    assert not prop_similar(Mat([[1, 0], [0, 0]]), a).equivalent


def reference_prop_similar(a, b, want_witness):
    """prop_similar with the zero and nilpotent branches it had in front
    of its scale loop; any other pair goes to prop_similar itself."""
    n = a.rows
    if a.is_zero() or b.is_zero():
        if a.is_zero() and b.is_zero():
            return PropSimVerdict(True, 1, Mat.identity(n) if want_witness else None)
        return PropSimVerdict(False)
    nil_a, nil_b = (all(c == 0 for c in char_poly(m)[:-1]) for m in (a, b))
    if nil_a or nil_b:
        if nil_a != nil_b:
            return PropSimVerdict(False)
        if not want_witness:
            return PropSimVerdict(True, 1) if similar(a, b) else PropSimVerdict(False)
        cmat = similarity_witness(b, a)
        return PropSimVerdict(False) if cmat is None else PropSimVerdict(True, 1, cmat)
    return prop_similar(a, b, want_witness)


def test_zero_and_nilpotent_pairs_match_the_former_branches():
    # zero, nilpotent (strictly triangular, also conjugated), shifted
    # nilpotent and random matrices, every ordered pair, with and without
    # a witness: same verdict, same c (and its type), same witness
    rng = random.Random(31)
    calls = nilpotent = 0
    for n in range(1, 5):
        mats = [Mat([[0] * n for _ in range(n)])]
        for _ in range(4):
            nil = Mat([[rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)])
            p = _rand_gl(rng, n)
            mats += [nil, inverse(p) @ nil @ p, nil + Mat.identity(n).scale(rng.choice((1, -2)))]
        mats += [Mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]) for _ in range(3)]
        for a in mats:
            for b in mats:
                for want in (True, False):
                    got = prop_similar(a, b, want)
                    ref = reference_prop_similar(a, b, want)
                    assert got == ref and type(got.c) is type(ref.c), (a, b, want)
                    calls += 1
                    nilpotent += got.equivalent and not any(char_poly(a)[:-1])
    assert calls == 2 * sum((1 + 4 * 3 + 3) ** 2 for _ in range(4))
    assert nilpotent >= 100


def test_quadratic_extension_scale():
    # c^2 = 2 is forced; the verdict stays exact over Q(sqrt(2))
    a = Mat([[0, 2], [1, 0]])
    b = Mat([[0, 4], [1, 0]])
    v = prop_similar(a, b)
    assert v.equivalent and v.mode == EXACT
    assert v.c == QuadExt(0, 1, 2)
    assert v.verify(a, b)


def _companion(*low_first):
    """Companion matrix of the monic polynomial with these lower coefficients."""
    return companion([Fraction(x) for x in low_first] + [Fraction(1)])


def test_high_degree_scale_is_decided_exactly():
    # c^k = b_k / a_k has no root of degree <= 2: the verdict is still exact,
    # without c or a witness
    v = prop_similar(_companion(-2, 0, 0), _companion(-4, 0, 0))  # c = 2^(1/3)
    assert v.equivalent and v.mode == EXACT and v.c is None and v.witness is None
    assert prop_similar(_companion(-1, 0, 0), _companion(-2, 0, 0)).equivalent
    assert prop_similar(_companion(-2, 0, 0, 0), _companion(-4, 0, 0, 0)).equivalent  # c = 2^(1/4)
    # c^4 = -2 has no real root
    assert not prop_similar(_companion(-2, 0, 0, 0), _companion(4, 0, 0, 0)).equivalent
    # x^n - 1 against x^n - 2x - 2: c^n = 2 fits the constant term only
    assert not prop_similar(_companion(-1, 0, 0), _companion(-2, -2, 0)).equivalent
    assert not prop_similar(_companion(-1, 0, 0, 0), _companion(-2, -2, 0, 0)).equivalent
    assert not prop_similar(_companion(-2, 0, 0), Mat([[0, 0, 4], [1, 0, 0], [0, 1, 1]])).equivalent


def test_irrational_scaling_ratio_is_decided_exactly():
    s2 = QuadExt(0, 1, 2)
    # the trace ratio c = (2 + sqrt2) / (1 + sqrt2) = sqrt2 maps the
    # eigenvalues sqrt2, 1 to 2, sqrt2, not to 1, 1 + sqrt2
    a = Mat([[s2, 1], [0, 1]])
    assert not prop_similar(a, Mat([[1, 1], [0, 1 + s2]])).equivalent
    # k = 1: the irrational ratio is c itself
    v = prop_similar(a, a.scale(s2))
    assert v.equivalent and v.c == s2 and v.verify(a, a.scale(s2))
    # c^2 = sqrt2: equivalent, and c = 2^(1/4) is not constructed
    v = prop_similar(Mat([[0, 1], [1, 0]]), Mat([[0, s2], [1, 0]]))
    assert v.equivalent and v.c is None and v.witness is None
    with pytest.raises(FieldMismatch):
        prop_similar(a, Mat([[QuadExt(0, 1, 3), 1], [0, 1]]))


def test_scale_in_a_third_field_comes_without_witness():
    # B = c A with c = sqrt6 / 2: c * A would mix sqrt2 and sqrt6, so the
    # verdict comes with c and without C, whether or not C is asked for
    s2, s3 = QuadExt(0, 1, 2), QuadExt(0, 1, 3)
    a, b = Mat([[s2, 0], [0, -s2]]), Mat([[s3, 0], [0, -s3]])
    for want_witness in (True, False):
        v = prop_similar(a, b, want_witness=want_witness)
        assert v.equivalent and v.c == QuadExt(0, Fraction(1, 2), 6) and v.witness is None


def _rand_gl(rng, n):
    while True:
        p = Mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if det(p) != 0:
            return p


def _reference_pairs(rng, count):
    """(a, b) with b = c P^-1 a P: cyclic, block-repeated (non-cyclic) and
    nilpotent a over Z and Q(sqrt2), c rational, sqrt2 or 1 + sqrt2."""
    s2 = QuadExt(0, 1, 2)
    for _ in range(count):
        n = rng.choice((2, 3, 4))
        entries = [-2, -1, 0, 1, 2, 3] + ([s2, 1 + s2, -s2] if rng.random() < 0.4 else [])
        kind = rng.choice(("cyclic", "repeated", "nilpotent"))
        if kind == "nilpotent":
            a = Mat([[rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)])
        elif kind == "repeated":
            m = rng.choice((1, 2)) if n == 4 else 1
            block = [[rng.choice(entries) for _ in range(m)] for _ in range(m)]
            a = Mat([[block[i % m][j % m] if i // m == j // m else 0 for j in range(n)] for i in range(n)])
        else:
            a = Mat([[rng.choice(entries) for _ in range(n)] for _ in range(n)])
        p = _rand_gl(rng, n)
        a = inverse(p) @ a @ p
        c = rng.choice((1, -1, 2, Fraction(1, 2), Fraction(-3, 2), s2, 1 + s2))
        q = _rand_gl(rng, n)
        yield a, (inverse(q) @ a @ q).scale(c)


def test_witness_matches_the_two_step_reference():
    # the reference is the decide-then-witness path: C from the Frobenius
    # forms of B and c*A, each decomposed afresh
    witnessed = 0
    for a, b in _reference_pairs(random.Random(23), 150):
        v = prop_similar(a, b)
        assert v.equivalent, (a, b)
        assert prop_similar(a, b, want_witness=False) == PropSimVerdict(True, v.c)
        if v.c is None:  # c of degree above 2, e.g. (1 + sqrt2)^(1/2)
            assert v.witness is None
            continue
        assert v.witness == similarity_witness(b, a.scale(v.c))
        assert v.verify(a, b)
        witnessed += 1
    assert witnessed >= 100


def _count_decompositions(monkeypatch):
    calls = []
    real = solvlie.frobenius.cyclic_decomposition

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(solvlie.frobenius, "cyclic_decomposition", counted)
    return calls


def test_each_matrix_is_decomposed_once(monkeypatch):
    calls = _count_decompositions(monkeypatch)
    a = Mat([[1, 2, 0], [0, 1, 0], [0, 0, 3]])
    p = Mat([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    nil = Mat([[0, 1, 2], [0, 0, 0], [0, 0, 0]])
    for x, c in ((a, 2), (Mat.identity(3).scale(2), 3), (nil, 1)):
        b = (inverse(p) @ x @ p).scale(c)
        del calls[:]
        assert prop_similar(x, b).verify(x, b)
        assert len(calls) == 2  # B and c*A (A itself when nilpotent)
        del calls[:]
        assert prop_similar(x, b, want_witness=False).equivalent
        assert len(calls) <= 2
    del calls[:]
    assert not prop_similar(a, Mat([[2, 0, 0], [0, 2, 0], [0, 0, 6]])).equivalent
    assert len(calls) <= 2
    # (x^2 - 1)^2 against (x^2 - 4)^2: c = 2 and c = -2 both fit the
    # characteristic polynomial; c = 2 is tried first
    a = Mat([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
    del calls[:]
    assert not prop_similar(a, Mat([[2, 0, 0, 0], [0, -2, 0, 0], [0, 0, -2, 0], [0, 0, 0, 2]])).equivalent
    assert len(calls) == 3  # B, 2A and -2A
    b = Mat([[-2, 1, 0, 0], [0, -2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
    del calls[:]
    v = prop_similar(a, b)
    assert v.c == -2 and v.verify(a, b)
    assert len(calls) == 3  # B, 2A and -2A, whose chains give C


def test_inequivalent_pairs_are_rejected_at_the_characteristic_polynomial(monkeypatch):
    def refuse(m):
        raise AssertionError("decided past the characteristic polynomial")

    monkeypatch.setattr(solvlie.frobenius, "invariant_factors", refuse)
    monkeypatch.setattr(solvlie.frobenius, "frobenius_form", refuse)
    s2 = QuadExt(0, 1, 2)
    pairs = [
        # k = 1: c = 8/5 from the traces, then 7 c^2 != 17
        (Mat([[1, 2, 0], [0, 1, 0], [0, 0, 3]]), Mat([[1, 0, 0], [0, 2, 0], [0, 0, 5]])),
        # k = 2: c^2 = -1 has no real root
        (Mat([[0, 1], [1, 0]]), Mat([[0, 1], [-1, 0]])),
        # rational and Q(sqrt2) entries: the traces fix c, the determinants refute it
        (Mat([[Fraction(1, 2), 1], [0, Fraction(1, 3)]]), Mat([[1, Fraction(2, 3)], [0, Fraction(1, 2)]])),
        (Mat([[s2, 1], [0, 1]]), Mat([[1, 1], [0, 1 + s2]])),
    ]
    for a, b in pairs:
        for want_witness in (True, False):
            assert prop_similar(a, b, want_witness=want_witness) == PropSimVerdict(False)


def test_mixed_radicands_raise_field_mismatch_with_exit_2(tmp_path, capsys):
    s2, s3 = QuadExt(0, 1, 2), QuadExt(0, 1, 3)
    message = "error: the input mixes the radicands 2 and 3; one Q(sqrt(d)) per input is supported"
    pairs = [
        (Mat([[s2, 1], [0, s3]]), Mat.identity(2)),  # within one matrix
        (Mat([[s2, 0], [0, 1]]), Mat([[s3, 0], [0, 1]])),  # across the pair
    ]
    for i, (a, b) in enumerate(pairs):
        paths = []
        for name, m in (("a", a), ("b", b)):
            paths.append(tmp_path / f"{name}{i}.json")
            paths[-1].write_text(json.dumps(matrix_to_json(m)))
        for witness in ([], ["--witness"]):
            with pytest.raises(FieldMismatch):
                prop_similar(a, b, want_witness=bool(witness))
            assert run(["propsim", *witness, *map(str, paths)]) == 2
            out = capsys.readouterr()
            assert out.out == "" and out.err.strip().splitlines() == [message]


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        prop_similar(Mat.identity(2), Mat.identity(3))


def test_equivalence_relation_laws_on_random_pairs():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.choice((2, 3))
        a = Mat([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        while True:
            p = Mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            if det(p) != 0:
                break
        c = rng.choice((1, -1, 2, Fraction(1, 2), Fraction(-3, 2)))
        b = (inverse(p) @ a @ p).scale(c)
        v = prop_similar(a, b)
        assert v.equivalent, (a, b, c)
        if v.mode == EXACT:
            assert v.verify(a, b)
            # symmetry: the witness inverts
            back = prop_similar(b, a)
            assert back.equivalent
            if back.mode == EXACT:
                assert back.verify(b, a)
                assert back.c * v.c == 1 or a.is_zero()


def test_gl2_classification_examples():
    cls = propsim_classify_gl2(Mat([[2, 0], [0, 6]]))
    assert cls.family == "diag" and cls.lam == 3
    assert cls.j == Fraction(16, 3)  # tr^2/det of diag(2, 6) = 64/12
    cls = propsim_classify_gl2(Mat([[5, 1], [0, 5]]))
    assert cls.family == "jordan" and cls.j == 4
    cls = propsim_classify_gl2(Mat([[1, -1], [1, 1]]))
    assert cls.family == "rotation" and cls.j == 2 and cls.cos_sign == 1
    cls = propsim_classify_gl2(Mat([[0, -5], [5, 0]]))
    assert cls.family == "rotation" and cls.j == 0 and cls.cos_sign == 0
    with pytest.raises(SingularInput):
        propsim_classify_gl2(Mat([[1, 0], [0, 0]]))


def test_gl2_witness_identity():
    rng = random.Random(4)
    for _ in range(50):
        a = Mat([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        if det(a) == 0:
            continue
        cls = propsim_classify_gl2(a)
        assert (inverse(cls.cmat) @ a @ cls.cmat).scale(cls.c) == cls.rep


def test_j_is_a_class_invariant_and_never_splits_redundant_pairs():
    rng = random.Random(6)
    for _ in range(30):
        a = Mat([[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        if det(a) == 0:
            continue
        while True:
            p = Mat([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
            if det(p) != 0:
                break
        c = rng.choice((1, -1, 2, Fraction(-1, 2)))
        b = (inverse(p) @ a @ p).scale(c)
        assert propsim_classify_gl2(a).j == propsim_classify_gl2(b).j
        assert propsim_classify_gl2(a).family == propsim_classify_gl2(b).family
    # j(diag(1, lam)) == j(diag(1, 1/lam)), and the classifier normalizes
    for lam in (Fraction(3), Fraction(-2), Fraction(5, 2)):
        c1 = propsim_classify_gl2(Mat([[1, 0], [0, lam]]))
        c2 = propsim_classify_gl2(Mat([[1, 0], [0, Fraction(1, 1) / lam]]))
        assert c1.j == c2.j and c1.lam == c2.lam
    # j(rotation(phi)) == j(rotation(pi - phi))
    c1 = propsim_classify_gl2(Mat([[1, -1], [1, 1]]))
    c2 = propsim_classify_gl2(Mat([[-1, -1], [1, -1]]))
    assert c1.j == c2.j and c1.cos_sign == -c2.cos_sign
    v = prop_similar(Mat([[1, -1], [1, 1]]), Mat([[-1, -1], [1, -1]]))
    assert v.equivalent and v.c == -1


def test_rotation_scale_in_quadratic_extension():
    # zero trace, determinant 2: the scale is 1/sqrt(2)
    cls = propsim_classify_gl2(Mat([[0, -2], [1, 0]]))
    assert cls.family == "rotation" and cls.j == 0
    assert isinstance(cls.c, QuadExt)
