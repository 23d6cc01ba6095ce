import random
import time
from fractions import Fraction

import pytest

from solvlie import catalog, labels
from solvlie.classify_n2 import (
    _adjoint_line_normalize,
    _assert_chain_clean,
    _case1_shape,
    _case2_shape,
    _classify_frame,
    _invertible_action_pipeline,
    _plane_normalize,
    classify_n2,
)
from solvlie.catalog import build, build_tensor, scramble_tensor, tensor_from_brackets
from solvlie.errors import ImpossibleBranch, NotInClass, SingularInput
from solvlie.harness import corpus_labels, expected_key
from solvlie.labels import ClassLabel
from solvlie.liealg import Frame, LieAlgebra, StructureTensor, derived_ideal_t, standard_basis, validate
from solvlie.matrices import Mat, inverse


def test_two_step_nilpotent_regime():
    t = tensor_from_brackets(6, [(1, 2, {5: 1}), (3, 4, {6: 1})])
    c = classify_n2(LieAlgebra(t))
    assert c.label.family == labels.TWO_STEP_NILPOTENT
    assert c.witness.canonical is None


def test_two_step_witness_is_audited():
    """The two-step regime's witness is the opening's basis change, and it
    passes the same transport audit: scrambled inputs verify, and a frame
    whose total no longer carries the input onto its tensor is refused."""
    base = tensor_from_brackets(6, [(1, 2, {5: 1}), (3, 4, {6: 1})])
    for seed in range(5):
        st, _ = scramble_tensor(base, seed)
        w = classify_n2(st).witness.transform
        assert w.inverse @ w.matrix == Mat.identity(6)
        g1 = derived_ideal_t(st)
        pipe = Frame(st, g1)
        assert _classify_frame(pipe).witness.transform.matrix == w.matrix
        pipe = Frame(st, g1)
        pipe._tot_cols[2] = tuple(2 * x for x in pipe._tot_cols[2])
        with pytest.raises(ImpossibleBranch, match="witness transport failed"):
            _classify_frame(pipe)


def test_aff_c_and_chain_examples():
    c = classify_n2(LieAlgebra(catalog.aff_c()))
    assert c.label.family == labels.G4_2_4_AFFC and c.label.abelian_ext == 0
    t = tensor_from_brackets(
        7, [(3, 1, {2: 1}), (3, 4, {1: 1}), (4, 5, {2: 1}), (6, 7, {2: 1})]
    )
    c = classify_n2(LieAlgebra(t))
    assert c.label.family == labels.G5P2K_2 and c.label.k == 1 and c.label.abelian_ext == 0


def test_not_in_class_reasons():
    sl2 = tensor_from_brackets(3, [(1, 2, {2: 2}), (1, 3, {3: -2}), (2, 3, {1: 1})])
    with pytest.raises(NotInClass) as exc:
        classify_n2(LieAlgebra(sl2))
    assert exc.value.reason == "NotSolvable"
    with pytest.raises(NotInClass) as exc:
        classify_n2(LieAlgebra(catalog.heisenberg(2)))
    assert exc.value.reason == "DerivedDimNot2"
    bad = StructureTensor(3, {(0, 1): (1, 0, 0), (0, 2): (0, 1, 0)})
    with pytest.raises(NotInClass) as exc:
        classify_n2(bad)
    assert exc.value.reason == "JacobiFails"


def test_nonsingular_pipeline_examples():
    # diag(2, -2) scales to diag(1, -1)
    t = tensor_from_brackets(3, [(3, 1, {1: 2}), (3, 2, {2: -2})])
    c = classify_n2(LieAlgebra(t))
    assert c.label.family == labels.G3_2_1 and c.label.lam == -1
    # jordan shape with junk brackets toward the abelian tail
    t = tensor_from_brackets(
        5,
        [(3, 1, {1: 3}), (3, 2, {1: 3, 2: 3}), (3, 4, {1: 7, 2: -2}), (3, 5, {1: 1, 2: 1})],
    )
    assert validate(t).ok
    c = classify_n2(LieAlgebra(t))
    assert c.label.family == labels.G3_2_2 and c.label.abelian_ext == 2
    # pure quarter turn
    t = tensor_from_brackets(3, [(3, 1, {2: 5}), (3, 2, {1: -5})])
    c = classify_n2(LieAlgebra(t))
    assert c.label.family == labels.G3_2_3 and c.label.j == 0


def test_adjoint_line_renumbering_inside_pipeline():
    # take the projector family and hide the acting vector at position 5
    base = build_tensor(ClassLabel(labels.G4_2_1, abelian_ext=1))
    # swap X3 and X5 so the pipeline has to renumber, then perturb X5 by X3
    order = [0, 1, 4, 3, 2]
    perm = base.permute(order)
    c = classify_n2(perm)
    assert c.label.family == labels.G4_2_1 and c.label.abelian_ext == 1


def test_singular_pipeline_examples():
    t = tensor_from_brackets(4, [(3, 1, {1: 1}), (3, 4, {2: 1})])
    assert classify_n2(LieAlgebra(t)).label.family == labels.G4_2_1
    t = tensor_from_brackets(4, [(3, 2, {1: 1}), (3, 4, {2: 1})])
    assert classify_n2(LieAlgebra(t)).label.family == labels.G4_2_2
    t = tensor_from_brackets(7, [(3, 1, {1: 1}), (4, 5, {2: 1})])
    c = classify_n2(LieAlgebra(t))
    assert c.label.family == labels.AFFR_PLUS_HEIS and c.label.m == 1
    assert c.label.abelian_ext == 2


def test_commuting_pair_pipeline_examples():
    t = tensor_from_brackets(4, [(3, 1, {1: 1}), (4, 2, {2: 1})])
    assert classify_n2(LieAlgebra(t)).label.family == labels.AFFR_PLUS_AFFR
    # commuting upper-triangular pair with one common eigendirection
    t = tensor_from_brackets(
        4, [(3, 1, {1: 2}), (3, 2, {1: 3, 2: 2}), (4, 1, {1: 5}), (4, 2, {1: 1, 2: 5})]
    )
    assert validate(t).ok
    c = classify_n2(LieAlgebra(t))
    assert c.label.family == labels.G4_2_3 and c.label.lam == 0
    # complex eigenvalues with determinant 1
    t = tensor_from_brackets(
        5, [(3, 1, {1: 1, 2: 1}), (3, 2, {1: -2, 2: -1}), (4, 1, {1: 1}), (4, 2, {2: 1})]
    )
    c = classify_n2(LieAlgebra(t))
    assert c.label.family == labels.G4_2_4_AFFC and c.label.abelian_ext == 1


def test_jordan_pair_with_nonzero_parameter_is_decomposable():
    """The pair ([[0,1],[0,lam]], I) with lam != 0 is simultaneously
    diagonalizable, so those members coincide with the split family; only
    lam = 0 is a genuinely new class."""
    for lam in (1, -1, 2, Fraction(-3, 2)):
        c = classify_n2(build(ClassLabel(labels.G4_2_3, lam=Fraction(lam))))
        assert c.label.family == labels.AFFR_PLUS_AFFR
        # and an explicit exact witness certifies it
        w = c.witness
        moved = build_tensor(ClassLabel(labels.G4_2_3, lam=Fraction(lam))).transform(
            w.transform.matrix, w.transform.inverse
        )
        assert moved == w.canonical


def test_witness_soundness_on_scrambles():
    rng = random.Random(0)
    labs = [
        ClassLabel(labels.G3_2_1, lam=Fraction(5, 2)),
        ClassLabel(labels.G3_2_3, j=Fraction(1)),
        ClassLabel(labels.G5P2K_2, k=0, abelian_ext=1),
        ClassLabel(labels.G6P2K_2_2, k=1),
        ClassLabel(labels.AFFR_PLUS_HEIS, m=2),
        ClassLabel(labels.G4_2_4_AFFC),
    ]
    for lab in labs:
        t = build_tensor(lab)
        for seed in range(10):
            st, _ = scramble_tensor(t, rng.random())
            c = classify_n2(st)
            moved = st.transform(c.witness.transform.matrix, c.witness.transform.inverse)
            assert moved == c.witness.canonical
            assert moved == build_tensor(c.label)


def test_invariance_of_keys_under_scrambles():
    rng = random.Random(99)
    for lab in corpus_labels()[::7]:
        t = build_tensor(lab)
        want = expected_key(lab)
        for seed in range(8):
            st, _ = scramble_tensor(t, rng.random())
            assert classify_n2(st).label.key == want


def test_mutual_exclusivity_under_random_conjugation():
    """Canonical tensors of distinct class keys are never connected by a
    random basis change."""
    rng = random.Random(123)
    labs = [
        ClassLabel(labels.G4_2_1),
        ClassLabel(labels.G4_2_2),
        ClassLabel(labels.G4_2_3, lam=Fraction(0)),
        ClassLabel(labels.G4_2_4_AFFC),
        ClassLabel(labels.AFFR_PLUS_AFFR),
        ClassLabel(labels.G3_2_1, lam=Fraction(2), abelian_ext=1),
        ClassLabel(labels.G3_2_2, abelian_ext=1),
        ClassLabel(labels.G3_2_3, j=Fraction(2), abelian_ext=1),
    ]
    tensors = [build_tensor(lab) for lab in labs]
    attempts = 0
    while attempts < 500:
        i, j = rng.randrange(len(labs)), rng.randrange(len(labs))
        if i == j:
            continue
        st, _ = scramble_tensor(tensors[i], rng.random())
        assert st != tensors[j]
        attempts += 1


def test_dimension_bookkeeping():
    for lab in corpus_labels()[::5]:
        t = build_tensor(lab)
        c = classify_n2(t)
        core = build_tensor(
            ClassLabel(
                c.label.family,
                abelian_ext=0,
                lam=c.label.lam,
                j=c.label.j,
                cos_sign=c.label.cos_sign,
                k=c.label.k,
                m=c.label.m,
            )
        )
        assert core.n + c.label.abelian_ext == t.n


def test_classify_at_the_dimension_bound_is_fast():
    # the frame reads each pair's bracket from the table and the witness
    # transports back only its moved columns, so a table with three
    # brackets classifies at the CLI's dimension bound in well under a second
    from solvlie.jsonio import MAX_DIM

    lab = ClassLabel(labels.G3_2_2, abelian_ext=MAX_DIM - 3)
    t = build_tensor(lab)
    start = time.perf_counter()
    c = classify_n2(t)
    assert time.perf_counter() - start < 5.0
    assert c.label == lab and c.witness.canonical == t
    w = c.witness.transform
    assert t.transform(w.matrix, w.inverse) == c.witness.canonical


def test_classify_at_the_dimension_bound_reads_brackets_linearly(monkeypatch):
    # the steps read X_a's brackets and the far brackets off the running
    # table, not off every basis pair (about n^2 / 2 reads each)
    from solvlie.jsonio import MAX_DIM

    reads = []
    real = Frame.bracket
    monkeypatch.setattr(Frame, "bracket", lambda fr, i, j: reads.append(1) or real(fr, i, j))
    lab = ClassLabel(labels.G3_2_2, abelian_ext=MAX_DIM - 3)
    assert classify_n2(build_tensor(lab)).label == lab
    assert len(reads) <= 20 * MAX_DIM


def _hand_frame(n, brackets):
    """A frame on a table built by hand, X_1, X_2 in front; the table need
    not be a Lie algebra."""
    return Frame(tensor_from_brackets(n, brackets), standard_basis(n)[:2])


def test_line_normalization_refuses_a_surviving_adjoint(monkeypatch):
    # a_X4 = a_X3; with the step that subtracts X_3 from X_4 skipped,
    # a_X4 survives
    fr = _hand_frame(4, [(3, 1, {1: 1}), (4, 1, {1: 1})])
    flat = fr.flat_adjoints()
    monkeypatch.setattr(Frame, "step_cols", lambda fr, repl: None)
    with pytest.raises(ImpossibleBranch, match="left a nonzero adjoint"):
        _adjoint_line_normalize(fr, flat, 0)


def test_invertible_action_refuses_a_far_bracket():
    fr = _hand_frame(5, [(3, 1, {1: 1}), (3, 2, {2: 1}), (4, 5, {1: 1})])
    with pytest.raises(ImpossibleBranch, match="beyond X3 must vanish"):
        _invertible_action_pipeline(fr, fr.adjoint(2))


@pytest.mark.parametrize(
    "shape, a3_bracket", [(_case1_shape, (3, 1, {1: 1})), (_case2_shape, (3, 1, {2: 1}))]
)
def test_singular_shapes_refuse_an_x1_component_in_a_far_bracket(shape, a3_bracket):
    fr = _hand_frame(5, [a3_bracket, (4, 5, {1: 1, 2: 3})])
    a3 = fr.adjoint(2)
    args = (fr, a3, a3.trace()) if shape is _case1_shape else (fr, a3)
    with pytest.raises(ImpossibleBranch, match="X1-component of a far bracket"):
        shape(*args)


# (a_X3, a_X4) on span(X_1, X_2): (0, I) and (diag(1, 0), diag(0, 1))
IDENTITY_PAIR = [(4, 1, {1: 1}), (4, 2, {2: 1})]
SPLIT_PAIR = [(3, 1, {1: 1}), (4, 2, {2: 1})]
LEFT = "is left after absorbing"
FAR = "far brackets must vanish"


@pytest.mark.parametrize(
    "pair, bracket, message",
    [
        (IDENTITY_PAIR, (3, 5, {1: 1}), LEFT),
        (IDENTITY_PAIR, (5, 6, {2: 1}), FAR),
        (SPLIT_PAIR, (3, 5, {2: 1}), LEFT),
        (SPLIT_PAIR, (5, 6, {1: 1}), FAR),
    ],
    ids=["identity-pair-bracket", "identity-pair-far", "split-pair-bracket", "split-pair-far"],
)
def test_plane_tail_refuses_leftover_brackets(pair, bracket, message):
    """A bracket of X_3 with X_5 that no shift of X_5 clears, or one
    beyond X_4, is refused; the data leave the pair as it is."""
    fr = _hand_frame(6, pair + [bracket])
    label = ClassLabel(labels.AFFR_PLUS_AFFR, abelian_ext=2)
    with pytest.raises(ImpossibleBranch, match=message):
        _plane_normalize(fr, False, Mat.identity(2), None, (fr.adjoint(2), fr.adjoint(3)), label)


@pytest.mark.parametrize(
    "brackets",
    [
        IDENTITY_PAIR + [(3, 5, {1: 1})],
        SPLIT_PAIR + [(3, 5, {2: 1})],
        # the brackets cancel in the sum, so no shift is made
        IDENTITY_PAIR + [(3, 5, {1: 1}), (4, 5, {1: -1})],
    ],
    ids=["identity-pair", "split-pair", "cancelling-sum"],
)
def test_absorb_refuses_a_bracket_it_cannot_clear(brackets):
    fr = _hand_frame(6, brackets)
    with pytest.raises(ImpossibleBranch, match=LEFT):
        fr.absorb([2, 3], range(4, 6))


def test_absorb_refuses_a_singular_sum():
    # a_X3 = diag(1, 0) and a_X4 = 0 sum to a singular s
    fr = _hand_frame(5, [(3, 1, {1: 1}), (3, 5, {2: 1})])
    t, total = fr.t, fr.total
    with pytest.raises(SingularInput):
        fr.absorb([2, 3], [4])
    assert fr.t is t and fr.total == total


def test_absorb_shifts_y_by_the_inverse_image_of_the_z_bracket():
    """The codimension-2 step: with a_Z invertible on the 3-dimensional
    ideal, Y becomes Y - a_Z^-1 [Z, Y], and [Z, Y] vanishes."""
    a_z = Mat([[1, 2, 0], [0, 1, 1], [1, 0, 3]])
    w = (2, -1, 4)
    br = [(5, c + 1, {r + 1: a_z[r, c] for r in range(3)}) for c in range(3)]
    br.append((5, 4, {r + 1: x for r, x in enumerate(w)}))
    fr = Frame(tensor_from_brackets(5, br), standard_basis(5)[:3])
    assert fr.adjoint(4) == a_z and fr.bracket(4, 3) == w
    fr.absorb([4], [3])
    u = inverse(a_z).apply(w)
    assert fr.total.col(3) == (-u[0], -u[1], -u[2], 1, 0)
    assert fr.bracket(4, 3) == (0, 0, 0)
    assert fr.witness().matrix == fr.total


def test_chain_check_refuses_a_wrong_pair_list():
    # component X_2: [X_3, X_4] = 1 (anchored), [X_5, X_6] = 1 (a pair)
    fr = _hand_frame(7, [(3, 4, {2: 1}), (5, 6, {2: 1}), (6, 7, {1: 1})])
    block = [3, 4, 5, 6]
    _assert_chain_clean(fr, 2, block, 3, [(4, 5)])
    wrong = ((3, []), (3, [(4, 6)]), (3, [(5, 4)]), (None, [(4, 5)]), (3, [(4, 5), (3, 6)]))
    for anchored, pairs in wrong:
        with pytest.raises(ImpossibleBranch, match="chain normalization left"):
            _assert_chain_clean(fr, 2, block, anchored, pairs)


def test_a_square_discriminant_is_not_factored(monkeypatch):
    # a_X3 = diag(1, x) has the discriminant (1 - x)^2, whose root is read
    # off isqrt: trial division of its 28-digit numerator took seconds
    import solvlie.scalars

    def refuse(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(solvlie.scalars, "square_free_split", refuse)
    x = Fraction(10**14, 3)
    c = classify_n2(tensor_from_brackets(3, [(3, 1, {1: 1}), (3, 2, {2: x})]))
    assert c.label == ClassLabel(labels.G3_2_1, lam=x, j=c.label.j)
    assert solvlie.scalars.sqrt_exact((1 - x) ** 2) == x - 1
