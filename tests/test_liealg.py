import random
from fractions import Fraction

import pytest

from solvlie.catalog import (
    aff_c,
    aff_r,
    g3_2_1,
    heisenberg,
    l6gamma,
    morozov_transform_positive,
    scramble_change,
    tensor_from_brackets,
)
from solvlie.errors import (
    ImpossibleBranch,
    NonAbelianDerivedIdeal,
    SingularInput,
    SingularTransform,
)
from solvlie.jsonio import algebra_from_json, algebra_to_json, dumps
from solvlie.liealg import (
    BasisChange,
    Frame,
    LieAlgebra,
    StructureTensor,
    abelian_tensor,
    adjoint_algebra_t,
    bracket_span,
    derived_ideal_t,
    derived_series_t,
    direct_sum,
    lower_central_series_t,
    standard_basis,
    validate,
)
from solvlie.matrices import Mat, det, inverse, solve
from solvlie.scalars import QuadExt, Rat


def test_validate_examples():
    h3 = heisenberg(1)
    assert validate(h3).ok
    assert validate(aff_c()).ok
    bad = StructureTensor(3, {(0, 1): (1, 0, 0), (0, 2): (0, 1, 0)})
    rep = validate(bad)
    # expanding the Jacobi sum by hand: [[X1,X2],X3] = [X1,X3] = X2,
    # the other two terms vanish, so the residual is X2 at triple (1,2,3)
    assert not rep.ok and rep.triple == (1, 2, 3) and rep.residual == (0, 1, 0)


def test_change_basis_identity_and_swap():
    h3 = LieAlgebra(heisenberg(1))
    same = h3.change_basis(BasisChange.identity(3))
    assert same.tensor == h3.tensor
    swapped = h3.change_basis(BasisChange(Mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]])))
    assert swapped.tensor.bracket_basis(0, 1) == (0, 0, -1)


def test_change_basis_rejects_singular():
    with pytest.raises(SingularTransform):
        BasisChange(Mat([[1, 1], [1, 1]]))


def test_l6gamma_splits_into_two_heisenberg_blocks():
    for gamma in (Fraction(4), Fraction(1), Fraction(9, 4)):
        alg = LieAlgebra(l6gamma(gamma))
        t = BasisChange(morozov_transform_positive(gamma))
        moved = alg.change_basis(t)
        assert moved.tensor == direct_sum(heisenberg(1), heisenberg(1))


def test_derived_series_examples():
    abelian = LieAlgebra(StructureTensor(4, {}))
    assert [len(b) for b in abelian.derived_series] == [4, 0]
    affc = LieAlgebra(aff_c())
    assert [len(b) for b in affc.derived_series] == [4, 2, 0]
    assert affc.solvable
    # [X3,X2] = X1, [X3,X4] = X2: solvable and 3-step nilpotent
    g422 = LieAlgebra(tensor_from_brackets(4, [(3, 2, {1: 1}), (3, 4, {2: 1})]))
    assert g422.solvable and g422.nilpotent and g422.nilpotency_step == 3


def test_central_series_examples():
    h3 = LieAlgebra(heisenberg(1))
    assert [len(b) for b in h3.lower_central_series] == [3, 1, 0]
    assert h3.nilpotency_step == 2
    assert h3.center == [(0, 0, 1)]
    affr = LieAlgebra(aff_r())
    assert not affr.nilpotent
    assert [len(b) for b in affr.lower_central_series] == [2, 1]
    # five-dimensional chain algebra: center = X2,
    # C2 = span(X1, X2, X5), C3 = everything (derived by hand)
    g52 = LieAlgebra(
        tensor_from_brackets(5, [(3, 1, {2: 1}), (3, 4, {1: 1}), (4, 5, {2: 1})])
    )
    assert g52.nilpotency_step == 3
    assert g52.upper_central_dims == [1, 3, 5]


def test_adjoint_algebra_examples():
    affc = LieAlgebra(aff_c())
    mats, dim = affc.adjoint_algebra()
    assert dim == 2
    flat = Mat.from_columns(
        [[m[r, c] for r in range(2) for c in range(2)] for m in mats]
    )
    assert solve(flat, (0, -1, 1, 0)) is not None  # contains the quarter turn
    assert solve(flat, (1, 0, 0, 1)) is not None  # contains the identity
    # derived ideal inside the center: the span collapses
    twostep = direct_sum(heisenberg(1), heisenberg(1))
    mats, dim = adjoint_algebra_t(twostep)
    assert dim == 0
    lam = Fraction(-3)
    mats, dim = LieAlgebra(g3_2_1(lam)).adjoint_algebra()
    assert dim == 1 and mats[0] == Mat([[1, 0], [0, lam]])


def test_adjoint_algebra_requires_abelian_ideal():
    # derived ideal of sl2 is sl2 itself: not abelian
    sl2 = tensor_from_brackets(
        3, [(1, 2, {2: 2}), (1, 3, {3: -2}), (2, 3, {1: 1})]
    )
    assert validate(sl2).ok
    with pytest.raises(NonAbelianDerivedIdeal):
        adjoint_algebra_t(sl2)


def test_change_basis_is_group_action():
    rng = random.Random(12)
    alg = LieAlgebra(aff_c())
    for seed in range(5):
        t1 = scramble_change(4, seed)
        t2 = scramble_change(4, seed + 100)
        lhs = alg.change_basis(t1).change_basis(t2)
        rhs = alg.change_basis(t1.then(t2))
        assert lhs.tensor == rhs.tensor


def test_then_carries_the_inverse_elimination_gives():
    """`then` composes the two carried inverses; the result is the inverse
    that eliminating the product gives, over Q and Q(sqrt2) as well."""
    rng = random.Random(41)
    changes = [scramble_change(4, seed) for seed in range(4)] + [BasisChange.identity(4)]
    while len(changes) < 10:
        m = Mat([[rng.choice((0, 1, -2, Fraction(1, 3), QuadExt.make(0, 1, 2))) for _ in range(4)]
                 for _ in range(4)])
        if det(m) != 0:
            changes.append(BasisChange(m))
    for a in changes:
        for b in changes:
            ab = a.then(b)
            assert ab.matrix == a.matrix @ b.matrix
            assert ab.inverse == inverse(ab.matrix)


def test_series_invariant_under_basis_change():
    rng = random.Random(77)
    samples = [
        LieAlgebra(heisenberg(2)),
        LieAlgebra(aff_c()),
        LieAlgebra(tensor_from_brackets(5, [(3, 1, {2: 1}), (3, 4, {1: 1}), (4, 5, {2: 1})])),
    ]
    for alg in samples:
        for seed in range(6):
            moved = alg.change_basis(scramble_change(alg.dim, seed))
            assert [len(b) for b in moved.derived_series] == [
                len(b) for b in alg.derived_series
            ]
            assert [len(b) for b in moved.lower_central_series] == [
                len(b) for b in alg.lower_central_series
            ]
            assert moved.upper_central_dims == alg.upper_central_dims
            assert len(moved.center) == len(alg.center)
            assert moved.solvable == alg.solvable
            assert moved.nilpotent == alg.nilpotent


def test_one_parameter_family_search():
    """No small-integer extension of [X1,X2] = X2 produces a valid algebra
    whose derived ideal is exactly span(X1, X2): a non-abelian 2-dim
    derived ideal cannot satisfy the Jacobi identity."""
    import itertools

    hits = 0
    for b13 in itertools.product(range(-2, 3), repeat=3):
        for b23 in itertools.product(range(-2, 3), repeat=3):
            t = StructureTensor(3, {(0, 1): (0, 1, 0), (0, 2): b13, (1, 2): b23})
            if not validate(t).ok:
                continue
            g1 = bracket_span(t, standard_basis(3), standard_basis(3))
            if g1 == [(1, 0, 0), (0, 1, 0)]:
                hits += 1
    assert hits == 0


def test_schur_jacobson_bound_on_corpus():
    from solvlie.harness import corpus_labels
    from solvlie import catalog

    for lab in corpus_labels()[:30]:
        t = catalog.build_tensor(lab)
        k = len(bracket_span(t, standard_basis(t.n), standard_basis(t.n)))
        _, dim = adjoint_algebra_t(t)
        assert dim <= (k * k) // 4 + 1


def _reference_series(t, lower):
    """The derived (lower=False) or lower central series as it was built
    before the first term came from the table: every bracket of the
    previous basis with itself (or with the full basis), all n^2 pairs."""
    full = standard_basis(t.n)
    series = [full]
    for _ in range(t.n + 1):
        nxt = bracket_span(t, full if lower else series[-1], series[-1])
        if len(nxt) == len(series[-1]):
            break
        series.append(nxt)
        if not nxt:
            break
    return series


def test_series_match_the_all_pairs_formulation():
    from solvlie import catalog
    from solvlie.harness import corpus_labels

    sl2 = tensor_from_brackets(3, [(1, 2, {2: 2}), (1, 3, {3: -2}), (2, 3, {1: 1})])
    r2_semi_h3 = tensor_from_brackets(
        5,
        [(1, 2, {3: 1}), (4, 1, {1: 1}), (4, 3, {3: 1}), (5, 2, {2: 1}), (5, 3, {3: 1})],
    )
    samples = [sl2, direct_sum(sl2, abelian_tensor(2)), heisenberg(1), r2_semi_h3]
    assert all(validate(t).ok for t in samples)
    samples += [catalog.scramble_tensor(t, 3)[0] for t in samples]
    for i, lab in enumerate(corpus_labels()):
        samples.append(catalog.scramble_tensor(catalog.build_tensor(lab), i)[0])
    for t in samples:
        assert derived_series_t(t) == _reference_series(t, lower=False)
        assert lower_central_series_t(t) == _reference_series(t, lower=True)
    # the four named algebras: perfect, non-solvable, nilpotent, and a
    # solvable one with a non-abelian derived ideal
    assert [len(b) for b in derived_series_t(sl2)] == [3]
    assert [len(b) for b in derived_series_t(samples[1])] == [5, 3]
    assert [len(b) for b in lower_central_series_t(heisenberg(1))] == [3, 1, 0]
    assert [len(b) for b in derived_series_t(r2_semi_h3)] == [5, 3, 1, 0]


def test_json_round_trip_bit_exact():
    alg = tensor_from_brackets(
        4, [(3, 2, {1: Fraction(1, 2)}), (3, 4, {2: -2})]
    )
    blob = dumps(algebra_to_json(alg))
    again = algebra_from_json(__import__("json").loads(blob))
    assert again == alg
    assert dumps(algebra_to_json(again)) == blob


def _scrambled_corpus_frame(index, seed):
    from solvlie import catalog
    from solvlie.harness import corpus_labels

    t, _ = catalog.scramble_tensor(catalog.build_tensor(corpus_labels()[index]), seed)
    return Frame(t, derived_series_t(t)[1])


def _typed(m):
    return [[(x, type(x)) for x in row] for row in m.data]


def _assert_is_the_elimination_inverse(fr, got):
    """`got`, the witness of `fr`, next to `BasisChange(fr.total)`, the
    n x 2n rref inverse kept as the reference: matrix and inverse agree
    entry by entry and type by type."""
    want = BasisChange(fr.total)
    assert _typed(got.matrix) == _typed(want.matrix)
    assert _typed(got.inverse) == _typed(want.inverse)
    return got


def test_frame_steps_keep_tensor_and_total_consistent():
    rng = random.Random(5)
    for index, seed in ((15, 1), (27, 2), (47, 3)):
        fr = _scrambled_corpus_frame(index, seed)
        n = fr.n
        # the ideal sits in front: its brackets stay inside X_1..X_k
        assert all(fr.adjoint(i).shape == (fr.k, fr.k) for i in range(n))
        for _ in range(8):
            kind = rng.choice(("shear", "mixing", "perm"))
            if kind == "perm":
                order = list(range(n))
                rng.shuffle(order)
                fr.step_perm(order)
                continue
            a, b = rng.sample(range(n), 2)
            repl = {}
            for j in (a, b):
                repl[j] = dict(enumerate([0 if i in (a, b) else rng.randint(-2, 2) for i in range(n)]))
            if kind == "shear":
                # canonical entries, as a frame's steps take them
                repl[a][a] = rng.choice((1, -1, 2, Rat(1, 3)))
                repl[b][b] = rng.choice((1, -2, Rat(-3, 2)))
            else:
                # columns a, b become e_a + e_b and e_a - e_b (plus tails)
                repl[a][a], repl[a][b] = 1, 1
                repl[b][a], repl[b][b] = 1, -1
            fr.step_cols(repl)
            total = fr.total
            assert fr.t == fr.input.transform(total, inverse(total))
            _assert_is_the_elimination_inverse(fr, fr.witness())
        # three columns at once: the block A on them is neither diagonal
        # nor a permutation and holds a Q(sqrt 2) entry
        a, b, c = rng.sample(range(n), 3)
        block = {a: (1, 0, 1), b: (1, 1, 0), c: (0, QuadExt(0, 1, 2), 1)}
        repl = {}
        for j, (xa, xb, xc) in block.items():
            repl[j] = dict(enumerate([rng.randint(-2, 2) for _ in range(n)]))
            repl[j][a], repl[j][b], repl[j][c] = xa, xb, xc
        fr.step_cols(repl)
        total = fr.total
        assert any(isinstance(x, QuadExt) for row in total.data for x in row)
        assert fr.t == fr.input.transform(total, inverse(total))
        w = _assert_is_the_elimination_inverse(fr, fr.witness())
        assert any(isinstance(x, QuadExt) for row in w.inverse.data for x in row)
        # a singular block A is refused before the frame changes
        before_t, before_total = fr.t, fr.total
        repl = {a: {a: 1}, b: {a: 2}}
        repl[b][c] = 1  # outside the block: A = [[1, 2], [0, 0]] stays singular
        with pytest.raises(SingularInput):
            fr.step_cols(repl)
        assert fr.t is before_t and fr.total == before_total


def _basis_change_opening(tensor, rows):
    """The frame opening as the basis change it stands for, kept as the
    reference: each row replaces the column of its pivot (`step_cols`),
    then the rows move to the front (`step_perm`)."""
    n = tensor.n
    fr = object.__new__(Frame)
    fr.input = fr.t = tensor
    fr.n, fr.k = n, len(rows)
    fr._tot_cols = standard_basis(n)
    pivots = [next(c for c, x in enumerate(row) if x != 0) for row in rows]
    fr.step_cols({p: dict(enumerate(row)) for p, row in zip(pivots, rows)})
    fr.step_perm(pivots + [c for c in range(n) if c not in pivots])
    return fr


def test_front_load_matches_the_basis_change_opening():
    """The opening read at the pivots gives the tensor and the total of
    the basis change, entry by entry and type by type, on `fuzz` inputs,
    scrambled corpus and codim-2 algebras, and random rational and
    Q(sqrt2) tables, most of them failing Jacobi."""
    from solvlie import catalog
    from solvlie.harness import corpus_labels, fuzz_stream

    def typed(vecs):
        return [[(x, type(x)) for x in v] for v in vecs]

    inputs = list(fuzz_stream(random.Random(7), 100, max_dim=8))
    for i, lab in enumerate(corpus_labels()):
        inputs.append(catalog.scramble_tensor(catalog.build_tensor(lab), i)[0])
    for i, (_, a_z) in enumerate(catalog.codim2_az_fixtures()):
        inputs.append(catalog.scramble_tensor(catalog.codim2_algebra(a_z).tensor, i)[0])
    tables = _random_tensors(random.Random(43), 300)
    assert sum(1 for t in tables if not validate(t)) >= 100
    assert any(isinstance(x, QuadExt) for t in tables for v in t.brackets.values() for x in v)
    for t in inputs + tables:
        rows = derived_ideal_t(t)
        got, want = Frame(t, rows), _basis_change_opening(t, rows)
        keys = sorted(got.t.brackets)
        assert keys == sorted(want.t.brackets), t
        assert typed(got.t.brackets[k] for k in keys) == typed(want.t.brackets[k] for k in keys), t
        assert typed(got._tot_cols) == typed(want._tot_cols), t


def test_frame_inverts_a_diagonal_block_without_elimination(monkeypatch):
    import solvlie.liealg

    t = _scrambled_corpus_frame(47, 3).input
    rows = derived_series_t(t)[1]
    eliminations = []
    real = solvlie.liealg.inverse
    monkeypatch.setattr(solvlie.liealg, "inverse", lambda m: eliminations.append(m) or real(m))
    fr = Frame(t, rows)
    assert eliminations == []  # the opening is read off the input
    n, s2 = fr.n, QuadExt(0, 1, 2)
    for diag in ((2, Fraction(-1, 3)), (s2, 1 + s2)):
        repl = {0: {}, n - 1: {}}
        repl[0][0], repl[0][1] = diag[0], 1
        repl[n - 1][n - 1], repl[n - 1][2] = diag[1], -2
        fr.step_cols(repl)
        total = fr.total
        assert fr.t == fr.input.transform(total, real(total))
    assert eliminations == []
    # a zero on the diagonal is refused before the frame changes
    before_t, before_total = fr.t, fr.total
    repl = {0: {0: 0}, 1: {1: 1}}
    repl[0][2] = 1
    with pytest.raises(SingularInput):
        fr.step_cols(repl)
    assert fr.t is before_t and fr.total == before_total
    fr.step_cols({})  # no columns is no step
    assert fr.t is before_t and fr.total == before_total


def test_witness_inverse_matches_the_elimination_on_normal_forms(monkeypatch):
    """Every witness `classify_n2` and `normalize_codim2` return, on `fuzz`
    inputs, scrambled corpus labels and scrambled codim-2 fixtures, has the
    inverse the elimination of its total gives."""
    from solvlie import catalog
    from solvlie.classify_n2 import classify_n2
    from solvlie.codim2 import normalize_codim2
    from solvlie.errors import SolvlieError
    from solvlie.harness import corpus_labels, fuzz_stream

    real, audited = Frame.witness, []

    def witness(fr, target=None):
        audited.append(fr.n)
        return _assert_is_the_elimination_inverse(fr, real(fr, target))

    monkeypatch.setattr(Frame, "witness", witness)
    for t in fuzz_stream(random.Random(7), 300, max_dim=8):
        try:
            classify_n2(t)
        except SolvlieError:
            pass
    for i, lab in enumerate(corpus_labels()):
        classify_n2(catalog.scramble_tensor(catalog.build_tensor(lab), i)[0])
    for i, (_, a_z) in enumerate(catalog.codim2_az_fixtures()):
        normalize_codim2(catalog.scramble_tensor(catalog.codim2_algebra(a_z).tensor, i)[0])
    assert len(audited) >= 350


def test_a_long_abelian_tail_reaches_no_large_inverse(monkeypatch):
    """G3_2_2 + R^197: only the moved columns of the total are inverted,
    so no matrix larger than the 3 x 3 core reaches an elimination."""
    import solvlie.liealg
    from solvlie import catalog, labels
    from solvlie.classify_n2 import classify_n2
    from solvlie.labels import ClassLabel

    shapes = []
    real = solvlie.liealg.inverse
    monkeypatch.setattr(solvlie.liealg, "inverse", lambda m: shapes.append(m.shape) or real(m))
    c = classify_n2(catalog.build_tensor(ClassLabel(labels.G3_2_2, abelian_ext=197)))
    assert c.label.family == labels.G3_2_2 and c.label.abelian_ext == 197
    assert c.witness.transform.inverse.shape == (200, 200)
    assert all(r <= 3 and q <= 3 for r, q in shapes), shapes


def test_frame_witness_rejects_a_broken_audit():
    fr = _scrambled_corpus_frame(27, 1)
    fr.witness(fr.t)
    with pytest.raises(ImpossibleBranch):
        fr.witness(abelian_tensor(fr.n))
    fr.t = abelian_tensor(fr.n)  # running tensor no longer what the total gives
    with pytest.raises(ImpossibleBranch):
        fr.witness()


def test_frame_witness_rejects_a_corrupted_total():
    rng = random.Random(13)
    rejected = singular = 0
    for index, seed in ((15, 1), (27, 2), (47, 3)):
        fr = _scrambled_corpus_frame(index, seed)
        good = list(fr._tot_cols)
        for _ in range(6):
            j, r = rng.randrange(fr.n), rng.randrange(fr.n)
            col = list(good[j])
            col[r] = col[r] + rng.choice((1, -1, Fraction(1, 2)))
            fr._tot_cols = good[:j] + [tuple(col)] + good[j + 1 :]
            bad = fr.total
            if det(bad) == 0:
                singular += 1
                with pytest.raises(SingularTransform):
                    fr.witness()
                continue
            # a change of an entry along an automorphism of the running
            # tensor is still a witness; the audit must agree with the
            # forward transport either way
            if fr.input.transform(bad, inverse(bad)) == fr.t:
                assert fr.witness().matrix == bad
                continue
            rejected += 1
            with pytest.raises(ImpossibleBranch):
                fr.witness()
        # a repeated column makes the total singular, and so does a zero
        # column among unit ones (a 1 x 1 diagonal block that is 0)
        for cols in (good[:1] * 2 + good[2:], [(0,) * fr.n] + standard_basis(fr.n)[1:]):
            fr._tot_cols = cols
            singular += 1
            with pytest.raises(SingularTransform):
                fr.witness()
        fr._tot_cols = good
        assert fr.witness().matrix == fr.total
    assert rejected >= 10 and singular >= 6


def _dense_ad_columns(t):
    """For each basis vector e_j, the n x n matrix sending x to [x, e_j],
    built from every pair (i, j), zero brackets included."""
    n = t.n
    return [Mat.from_columns([t.bracket_basis(i, j) for i in range(n)]) for j in range(n)]


def _reference_upper_central_dims(t):
    """The per-round loop: C_k rebuilt from its reduced basis every round,
    and the kernel basis taken to reduced echelon form again."""
    from solvlie.liealg import span_rows
    from solvlie.matrices import Echelon, kernel_basis

    n = t.n
    ads = _dense_ad_columns(t)
    current, dims = [], []
    for _ in range(n + 1):
        if len(current) == n:
            break
        span = Echelon()
        for v in current:
            span.add(v)
        proj_rows = []
        for m in ads:
            proj_rows.extend(Mat.from_columns([span.reduce(m.col(i)) for i in range(n)]).data)
        nxt = span_rows(kernel_basis(Mat(proj_rows)))
        if len(nxt) == len(current):
            break
        dims.append(len(nxt))
        current = nxt
    return dims


def test_upper_central_dims_match_the_per_round_rebuild():
    from solvlie import catalog
    from solvlie.harness import corpus_labels
    from solvlie.liealg import upper_central_dims_t

    samples = [heisenberg(1), heisenberg(2), aff_r(), l6gamma(2), l6gamma(QuadExt(1, 1, 2))]
    for i, lab in enumerate(corpus_labels()):
        t = catalog.build_tensor(lab)
        samples += [t, catalog.scramble_tensor(t, i)[0]]
    seen = set()
    for t in samples:
        dims = upper_central_dims_t(t)
        assert dims == _reference_upper_central_dims(t)
        seen.add(tuple(dims))
    # centerless algebras and nilpotent chains alike
    assert () in seen and any(len(d) >= 2 for d in seen)


def _dense_center(t):
    from solvlie.liealg import span_rows
    from solvlie.matrices import kernel_basis

    stacked = [row for m in _dense_ad_columns(t) for row in m.data]
    return span_rows(kernel_basis(Mat(stacked)))


def _dense_derived_series(t):
    """The derived series with every bracket formed by the all-table
    `StructureTensor.bracket`."""
    from solvlie.liealg import span_rows

    series = [standard_basis(t.n)]
    nxt = span_rows(list(t.brackets.values()))
    while len(nxt) < len(series[-1]):
        series.append(nxt)
        if not nxt:
            break
        nxt = span_rows([t.bracket(u, v) for a, u in enumerate(nxt) for v in nxt[a + 1 :]])
    return series


def test_series_and_center_match_the_dense_systems():
    """The series, the center and the lower central series read only the
    nonzero brackets; they equal the all-pairs forms, on corpus algebras,
    their scrambles, Q(sqrt2) tables and tables that fail Jacobi."""
    from solvlie import catalog
    from solvlie.harness import corpus_labels
    from solvlie.liealg import center_t, span_rows

    samples = [heisenberg(2), aff_r(), l6gamma(QuadExt(1, 1, 2)), abelian_tensor(3)]
    for i, lab in enumerate(corpus_labels()[::3]):
        t = catalog.build_tensor(lab)
        samples += [t, catalog.scramble_tensor(t, i)[0]]
    samples += _random_tensors(random.Random(43), 60)
    for t in samples:
        assert derived_series_t(t) == _dense_derived_series(t)
        assert center_t(t) == _dense_center(t)
        full = standard_basis(t.n)
        for sub in lower_central_series_t(t)[1:]:
            dense = [t.bracket(u, v) for u in full for v in sub]
            assert bracket_span(t, full, sub) == span_rows(dense)


def _dense_transform(t, tm, tinv):
    """The pair loop `StructureTensor.transform` ran before it became the
    sparse transport with every column replaced."""
    cols = tm.columns()
    out = {}
    for i in range(t.n):
        for j in range(i + 1, t.n):
            w = t.bracket(cols[i], cols[j])
            if any(x != 0 for x in w):
                out[(i, j)] = tinv.apply(w)
    return StructureTensor(t.n, out)


def test_transform_matches_the_dense_pair_loop():
    from solvlie import catalog
    from solvlie.harness import corpus_labels

    rng = random.Random(23)
    cases = []
    for i, lab in enumerate(corpus_labels()):
        t = catalog.build_tensor(lab)
        cases.append((t, scramble_change(t.n, i)))
        if t.n <= 6:
            # a dense basis change over Q(sqrt2)
            while True:
                m = Mat([[QuadExt.make(rng.randint(-2, 2), rng.randint(-1, 1), 2)
                          for _ in range(t.n)] for _ in range(t.n)])
                if det(m) != 0:
                    break
            cases.append((t, BasisChange(m)))
    assert sum(1 for _, bc in cases if bc.matrix.rows <= 6) >= 40
    for t, bc in cases:
        for tm, tinv in ((bc.matrix, bc.inverse), (bc.inverse, bc.matrix)):
            # the same stored pairs with equal values
            assert t.transform(tm, tinv).brackets == _dense_transform(t, tm, tinv).brackets


def test_lie_algebra_computes_no_series_until_one_is_read(monkeypatch):
    import solvlie.liealg
    from solvlie import catalog
    from solvlie.codim2 import normalize_codim2
    from solvlie.harness import corpus_labels
    from solvlie.liealg import center_t, upper_central_dims_t

    series = {
        "derived_series_t": derived_series_t,
        "lower_central_series_t": lower_central_series_t,
        "upper_central_dims_t": upper_central_dims_t,
        "center_t": center_t,
    }

    def refuse(t):
        raise AssertionError("a series was computed before it was read")

    for name in series:
        monkeypatch.setattr(solvlie.liealg, name, refuse)
    built = []
    for i, lab in enumerate(corpus_labels()):
        alg = catalog.build(lab)
        scrambled, bc = catalog.scramble(alg, i)
        built += [alg, scrambled, scrambled.change_basis(bc), LieAlgebra(catalog.build_tensor(lab))]
    split = tensor_from_brackets(5, [(5, 1, {1: 1}), (5, 2, {2: 1}), (5, 3, {3: 1})])
    form = normalize_codim2(LieAlgebra(split))
    assert form.case == "decomposable"
    built.append(form.inner)
    monkeypatch.undo()
    for alg in built:
        t = alg.tensor
        assert alg.derived_series == derived_series_t(t)
        assert alg.lower_central_series == lower_central_series_t(t)
        assert alg.upper_central_dims == upper_central_dims_t(t)
        assert alg.center == center_t(t)
        assert alg.solvable == (not derived_series_t(t)[-1])


def _dense_validate(t):
    """The all-triples loop `validate` ran before it visited only the
    triples that touch a nonzero bracket: (ok, triple, residual)."""
    n = t.n
    basis = standard_basis(n)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                r = (0,) * n
                for p, q, s in ((i, j, k), (k, i, j), (j, k, i)):
                    bpq = t.bracket_basis(p, q)
                    if any(x != 0 for x in bpq):
                        r = tuple(a + b for a, b in zip(r, t.bracket(bpq, basis[s])))
                if any(x != 0 for x in r):
                    return False, (i + 1, j + 1, k + 1), r
    return True, None, None


def _random_tensors(rng, count):
    """Seeded tables with n = 2..7 over int, Fraction or Q(sqrt2) entries,
    most of them not Lie algebras."""
    out = []
    for _ in range(count):
        n = rng.randint(2, 7)
        kind = rng.randrange(3)
        brackets = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    vec = []
                    for _ in range(n):
                        x = rng.choice((0, 0, 0, 1, -1, 2))
                        if kind == 1:
                            x = Fraction(x, rng.randint(1, 3))
                        elif kind == 2 and rng.random() < 0.3:
                            x = x * QuadExt(1, 1, 2)
                        vec.append(x)
                    brackets[(i, j)] = vec
        out.append(StructureTensor(n, brackets))
    return out


def test_validate_matches_the_all_triples_loop():
    from solvlie.harness import fuzz_stream

    fuzz = list(fuzz_stream(random.Random(7), 300, max_dim=8))
    tables = _random_tensors(random.Random(41), 400)
    failing = []
    for t in fuzz + tables:
        rep = validate(t)
        assert (rep.ok, rep.triple, rep.residual) == _dense_validate(t)
        if not rep.ok:
            failing.append(rep)
            # compacted, as the JSON writer prints them
            assert not any(isinstance(x, Fraction) and x.denominator == 1 for x in rep.residual)
    assert len(failing) >= 200
    assert any(isinstance(x, QuadExt) for rep in failing for x in rep.residual)
    assert any(isinstance(x, Fraction) for rep in failing for x in rep.residual)


def _assert_canonical(x):
    """x is in its one representation: an int, a non-integral Rat or a
    QuadExt.  A plain Fraction would send every later operation on it down
    fractions' slow path."""
    t = type(x)
    assert t is int or t is QuadExt or (t is Rat and x.denominator >= 2), repr(x)


def _check_built_tensor(t):
    """The invariants the checking constructor enforces, held by a tensor
    the program built without it."""
    assert t == StructureTensor(t.n, t.brackets)
    for (i, j), vec in t.brackets.items():
        assert 0 <= i < j < t.n
        assert len(vec) == t.n and any(x != 0 for x in vec)
        for x in vec:
            _assert_canonical(x)


def test_built_tensors_hold_the_checked_invariants(monkeypatch):
    from solvlie import catalog
    from solvlie.classify_n2 import classify_n2
    from solvlie.codim2 import normalize_codim2
    from solvlie.harness import corpus_labels, fuzz_stream

    import solvlie.liealg

    # the basis-change transforms, the relabellings and a frame's opening
    built = {"transform_sparse": [], "permute": [], "_front_loaded": []}
    for name, seen in built.items():
        owner = solvlie.liealg if name == "_front_loaded" else StructureTensor
        real = getattr(owner, name)

        def recording(*args, real=real, seen=seen):
            out = real(*args)
            seen.append(out)
            return out

        monkeypatch.setattr(owner, name, recording)
    for t in fuzz_stream(random.Random(7), 60, max_dim=8):
        classify_n2(t)
    for i, lab in enumerate(corpus_labels()):
        for seed in (i, 100 + i):  # two scrambles: the steps permute, the opening does not
            t, _ = catalog.scramble_tensor(catalog.build_tensor(lab), seed)
            classify_n2(t)
    for i, (_, a_z) in enumerate(catalog.codim2_az_fixtures()):
        alg = catalog.codim2_algebra(a_z)
        normalize_codim2(alg)
        normalize_codim2(catalog.scramble_tensor(alg.tensor, i)[0])
    # rational and Q(sqrt2) basis changes whose products turn integral
    rng = random.Random(3)
    half = Fraction(1, 2)
    for lab in corpus_labels()[:30]:
        t = catalog.build_tensor(lab)
        n = t.n
        while True:
            m = Mat([[rng.choice((0, 0, 1, 2, half, -half, QuadExt(0, half, 2)))
                      for _ in range(n)] for _ in range(n)])
            if det(m) != 0:
                break
        bc = BasisChange(m)
        t.transform(bc.matrix, bc.inverse)
        t.transform(bc.inverse, bc.matrix)
    assert len(built["transform_sparse"]) > 1000 and len(built["permute"]) > 200
    assert len(built["_front_loaded"]) > 200
    for outs in built.values():
        for t in outs:
            _check_built_tensor(t)


def _table_transform_sparse(t, repl, inv_cols):
    """`StructureTensor.transform_sparse` as it was before it read the
    bracket adjacency: each touched pair's bracket by the all-table
    `bracket`, against standard basis vectors for the untouched ones.
    Returns the bracket dict, in the order it was built."""
    n = t.n
    touched = set(repl)

    def reexpress(w):
        out = [0 if r in touched else x for r, x in enumerate(w)]
        for j, c in inv_cols.items():
            if w[j]:
                for r, x in enumerate(c):
                    if x:
                        out[r] = out[r] + w[j] * x
        return tuple(out)

    out = {}
    for (i, j), vec in t.brackets.items():
        if i not in touched and j not in touched:
            w = reexpress(vec)
            if any(x != 0 for x in w):
                out[(i, j)] = w
    basis = standard_basis(n)
    for i in sorted(touched):
        for j in range(n):
            if j == i or (j in touched and j < i):
                continue
            w = t.bracket(repl[i], repl.get(j, basis[j]))
            if any(x != 0 for x in w):
                w = reexpress(w)
            if any(x != 0 for x in w):
                out[(i, j) if i < j else (j, i)] = w if i < j else tuple(-x for x in w)
    return out


def _random_replacement(rng, n, kinds):
    """Columns replaced in the identity (one to all of them, several in
    most draws) by random canonical vectors, with the matching columns of
    the inverse: the inverse of such a matrix is the identity on the
    untouched columns too."""
    while True:
        cols = sorted(rng.sample(range(n), rng.randint(1, n)))
        m = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        for c in cols:
            for r in range(n):
                m[r][c] = rng.choice(kinds)
        mat = Mat(m)
        if det(mat) != 0:
            inv = inverse(mat)
            return {c: mat.col(c) for c in cols}, {c: inv.col(c) for c in cols}


def test_transform_sparse_matches_the_all_table_loop(monkeypatch):
    """The adjacency transform builds the same bracket dict, key order
    included, as the loop that called the all-table `bracket` for every
    touched pair: on the calls a classify makes on `fuzz` and scrambled
    corpus inputs, and on random replacements of several columns (so
    touched-touched pairs occur) of Q(sqrt2) tables and tables that fail
    Jacobi."""
    from solvlie import catalog
    from solvlie.classify_n2 import classify_n2
    from solvlie.harness import corpus_labels, fuzz_stream

    calls = []
    real = StructureTensor.transform_sparse

    def recording(self, repl, inv_cols):
        calls.append((self, dict(repl), dict(inv_cols)))
        return real(self, repl, inv_cols)

    monkeypatch.setattr(StructureTensor, "transform_sparse", recording)
    for t in fuzz_stream(random.Random(7), 60, max_dim=8):
        classify_n2(t)
    for i, lab in enumerate(corpus_labels()):
        for seed in (i, 100 + i):
            classify_n2(catalog.scramble_tensor(catalog.build_tensor(lab), seed)[0])
    monkeypatch.undo()
    recorded = len(calls)
    rng = random.Random(29)
    half, s2 = Rat(1, 2), QuadExt(0, 1, 2)
    for t in _random_tensors(random.Random(31), 120):
        for _ in range(2):
            repl, inv_cols = _random_replacement(rng, t.n, (0, 0, 1, -1, 2, half, s2))
            calls.append((t, repl, inv_cols))
    assert recorded > 1000
    assert sum(1 for t, _, _ in calls[recorded:] if not validate(t)) >= 100
    several = 0
    for t, repl, inv_cols in calls:
        got = t.transform_sparse(repl, inv_cols)
        assert list(got.brackets.items()) == list(_table_transform_sparse(t, repl, inv_cols).items())
        _check_built_tensor(got)
        several += len(repl) >= 2 and bool(got.brackets)
    assert several >= 200


def test_built_matrices_hold_only_canonical_scalars(monkeypatch):
    """Every matrix the program builds unchecked (`_mat`), and in
    particular the classify witnesses, the codim-2 M_f and the propsim C,
    holds ints, non-integral Rats and QuadExts only, also when the inputs
    carry plain Fractions."""
    from importlib import import_module

    from solvlie import catalog
    from solvlie.classify_n2 import classify_n2
    from solvlie.codim2 import codim2_isomorphic, normalize_codim2
    from solvlie.harness import corpus_labels, fuzz_stream
    from solvlie.propsim import prop_similar

    built = []
    real = import_module("solvlie.matrices")._mat

    def recording(data):
        m = real(data)
        built.append(m)
        return m

    for name in ("matrices", "liealg", "catalog", "classify_n2", "codim2", "propsim", "frobenius"):
        monkeypatch.setattr(import_module(f"solvlie.{name}"), "_mat", recording)
    named = []
    for t in fuzz_stream(random.Random(11), 40, max_dim=7):
        w = classify_n2(t).witness.transform
        named += [w.matrix, w.inverse]
    labs = corpus_labels()
    for i, lab in enumerate(labs[::2] + labs[1::2]):
        t, _ = catalog.scramble_tensor(catalog.build_tensor(lab), i)
        named.append(classify_n2(t).witness.transform.matrix)
    rng = random.Random(5)
    for _, a_z in catalog.codim2_az_fixtures(Fraction(3, 2)):
        alg = catalog.codim2_algebra(a_z)
        f0 = normalize_codim2(alg)
        f1 = normalize_codim2(catalog.scramble_tensor(alg.tensor, rng.random())[0])
        v = codim2_isomorphic(f0, f1)
        assert v.isomorphic and v.m_f is not None
        named += [f1.witness.matrix, f1.a_bar, f1.a_inner, v.m_f]
    half, s2 = Fraction(1, 2), QuadExt(0, 1, 2)
    witnessed = 0
    for n in (2, 3, 3, 4):
        for c in (1, -1, half, Fraction(-3, 2), s2):
            a = Mat([[rng.choice((0, 1, -2, half, Fraction(-1, 3))) for _ in range(n)]
                     for _ in range(n)])
            while True:
                p = Mat([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
                if det(p) != 0:
                    break
            v = prop_similar(a, (inverse(p) @ a @ p).scale(c))
            assert v.equivalent
            if v.witness is not None:
                assert v.verify(a, (inverse(p) @ a @ p).scale(c))
                named.append(v.witness)
                _assert_canonical(v.c)
                witnessed += 1
    assert witnessed >= 10 and len(named) > 100 and len(built) > 4000
    for m in named + built:
        for row in m.data:
            for x in row:
                _assert_canonical(x)
