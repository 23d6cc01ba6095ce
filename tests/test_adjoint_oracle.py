"""`adjoint_algebra_t` against the dense path it replaced, kept here as the
reference: every bracket of a standard basis vector with a basis vector
of g' formed by the loop over the whole table, and its coordinates found
by one `solve` per column.  The two must give the same canonical basis
of the adjoint span, or both refuse a non-abelian g'.  The independent
adjoints that `classify_n2` and `normalize_codim2` dispatch on must be
those the dense path finds by rank.

`Frame.clear_adjoints` against the three clearing paths it replaced, kept
here as references: the adjoint line's lead-entry ratios, the adjoint
plane's permutation and one `solve` per vector, and the codimension-2
swap of Y and Z and shift Y -= y Z.  Each must leave the same tensor and
total and find the same number of generators, or both must refuse."""

import random
from fractions import Fraction

from solvlie import catalog
from solvlie.catalog import codim2_algebra, codim2_az_fixtures, scramble_tensor, tensor_from_brackets
from solvlie.classify_n2 import _classify_frame
from solvlie.codim2 import _normalize_frame
from solvlie.errors import ImpossibleBranch, NonAbelianDerivedIdeal
from solvlie.harness import corpus_labels, fuzz_stream
from solvlie.liealg import (
    BasisChange,
    Frame,
    LieAlgebra,
    StructureTensor,
    abelian_tensor,
    adjoint_algebra_t,
    derived_ideal_t,
    span_rows,
)
from solvlie.matrices import Mat, _mat, det, solve, span_coordinates, vec_is_zero
from solvlie.scalars import QuadExt, exdiv


def dense_bracket(t, u, v):
    out = [0] * t.n
    for (i, j), c in t.brackets.items():
        s = u[i] * v[j] - u[j] * v[i]
        if s != 0:
            for k, ck in enumerate(c):
                if ck != 0:
                    out[k] = out[k] + s * ck
    return tuple(out)


def reference_flats(t, g1):
    """a_{e_i} for every standard basis vector e_i, flattened row by row
    in the basis g1 of an abelian g'."""
    k = len(g1)
    base = _mat(zip(*g1))
    flat = []
    for i in range(t.n):
        e = tuple(1 if q == i else 0 for q in range(t.n))
        cols = [solve(base, dense_bracket(t, e, b)) for b in g1]
        assert all(c is not None for c in cols)
        flat.append(tuple(cols[c][r] for r in range(k) for c in range(k)))
    return flat


def reference_adjoint_algebra(t):
    """(mats, dim) as the dense path computed them; g' != 0."""
    g1 = derived_ideal_t(t)
    k = len(g1)
    for a in range(k):
        for b in range(a + 1, k):
            if not vec_is_zero(dense_bracket(t, g1[a], g1[b])):
                raise NonAbelianDerivedIdeal("derived ideal is not abelian")
    rows = span_rows(reference_flats(t, g1))
    return [_mat([row[r * k : (r + 1) * k] for r in range(k)]) for row in rows], len(rows)


def outcome(fn, t):
    try:
        return fn(t)
    except NonAbelianDerivedIdeal:
        return "non-abelian"


def random_tables(seed, count):
    """Sparse tables with n = 2..6, Jacobi or not: g' = 0, abelian and
    non-abelian g' all occur."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 6)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        table = {}
        for i, j in rng.sample(pairs, rng.randint(0, min(len(pairs), 4))):
            v = [0] * n
            for m in rng.sample(range(n), rng.randint(1, 2)):
                v[m] = rng.choice((-2, -1, 1, 2))
            table[(i, j)] = tuple(v)
        yield StructureTensor(n, table)


SL2 = tensor_from_brackets(3, [(1, 2, {2: 2}), (1, 3, {3: -2}), (2, 3, {1: 1})])


def reference_gens(t, g1):
    """In the dense flats of the vectors off the pivots of g1 (the frame's
    order), the first nonzero one, the first independent of it, and so
    on: the positions that raise the rank of those before."""
    pivots = {next(q for q, x in enumerate(row) if x) for row in g1}
    flat = [f for i, f in enumerate(reference_flats(t, g1)) if i not in pivots]
    return [i for i in range(len(flat)) if len(span_rows(flat[: i + 1])) > len(span_rows(flat[:i]))]


def test_adjoint_algebra_agrees_with_the_dense_path():
    inputs = [catalog.build_tensor(lab) for lab in corpus_labels()]
    inputs += list(fuzz_stream(random.Random(23), 300))
    inputs += [codim2_algebra(az).tensor for _, az in codim2_az_fixtures()]
    inputs += [*random_tables(23, 600), SL2]
    seen = set()
    for t in inputs:
        got = outcome(adjoint_algebra_t, t)
        g1 = derived_ideal_t(t)
        if not g1:
            assert got == ([], 0), t
            seen.add("g' = 0")
            continue
        assert got == outcome(reference_adjoint_algebra, t), t
        seen.add(got if got == "non-abelian" else got[1])
        if got != "non-abelian":
            # the independent adjoints `classify_n2` and `normalize_codim2`
            # dispatch on
            gens = span_coordinates(Frame(t, g1).flat_adjoints())[0]
            assert gens == reference_gens(t, g1), t
            seen.add((len(g1), len(gens)))
    assert seen >= {"g' = 0", "non-abelian", 0, 1, 2, (2, 0), (2, 1), (2, 2), (3, 1)}
    assert outcome(adjoint_algebra_t, SL2) == "non-abelian"


def test_abelian_algebra_has_an_empty_adjoint_algebra():
    assert LieAlgebra(abelian_tensor(3)).adjoint_algebra() == ([], 0)


def rank_gens(flat):
    """The positions that raise the rank of the vectors before them."""
    return [i for i in range(len(flat)) if len(span_rows(flat[: i + 1])) > len(span_rows(flat[:i]))]


def reference_line(pipe, flat, gen):
    """The adjoint line: the generator to X_3, then X_i -= alpha X_3 with
    alpha the ratio of a_{X_i} to a_{X_3} at a_{X_3}'s lead entry."""
    n = pipe.n
    if gen != 0:
        order = list(range(n))
        order[2], order[gen + 2] = order[gen + 2], order[2]
        pipe.step_perm(order)
        flat = [flat[o - 2] for o in order[2:]]
    lead = next(q for q, x in enumerate(flat[0]) if x != 0)
    reps = {}
    for i in range(3, n):
        alpha = exdiv(flat[i - 2][lead], flat[0][lead])
        if alpha != 0:
            reps[i] = {i: 1, 2: -alpha}
    pipe.step_cols(reps)


def reference_plane(pipe, flat, gens):
    """The adjoint plane: the generators to X_3, X_4, then one `solve` per
    X_i, i >= 5, for its coordinates over them."""
    n = pipe.n
    pos3, pos4 = gens[0] + 2, gens[1] + 2
    order = list(range(n))
    order[2], order[pos3] = order[pos3], order[2]
    i4 = order.index(pos4)
    order[3], order[i4] = order[i4], order[3]
    pipe.step_perm(order)
    flat = [flat[o - 2] for o in order[2:]]
    reps = {}
    stacked = _mat(zip(flat[0], flat[1]))
    for i in range(4, n):
        alpha, beta = solve(stacked, flat[i - 2])
        if alpha != 0 or beta != 0:
            reps[i] = {i: 1, 2: -alpha, 3: -beta}
    pipe.step_cols(reps)


def reference_classify_clear(pipe):
    flat = pipe.flat_adjoints()
    gens = rank_gens(flat)
    if len(gens) > 2:
        raise ImpossibleBranch("adjoint span exceeds the commutative bound")
    if len(gens) == 1:
        reference_line(pipe, flat, gens[0])
    elif len(gens) == 2:
        reference_plane(pipe, flat, gens)
    return len(gens)


def reference_codim2_clear(fr):
    """Y and Z trade places when a_Z = 0; then Y -= y Z, y the ratio of
    a_Y to a_Z at a_Z's lead entry."""
    n = fr.n
    a_y, a_z = fr.adjoint(n - 2), fr.adjoint(n - 1)
    dim = len(rank_gens([sum(a_y.data, ()), sum(a_z.data, ())]))
    if dim != 1:
        return dim
    if a_z.is_zero():
        fr.step_perm(list(range(n - 2)) + [n - 1, n - 2])
        a_y, a_z = a_z, a_y
    if not a_y.is_zero():
        r, c = next((r, c) for r in range(n - 2) for c in range(n - 2) if a_z[r, c] != 0)
        fr.step_cols({n - 2: {n - 2: 1, n - 1: -exdiv(a_y[r, c], a_z[r, c])}})
    return 1


def over_sqrt2(rng, t):
    """t in a random basis with entries in Q(sqrt 2)."""
    while True:
        m = Mat([[rng.choice((0, 0, 1, -1, Fraction(1, 2), QuadExt(0, 1, 2))) for _ in range(t.n)]
                 for _ in range(t.n)])
        if det(m) != 0:
            bc = BasisChange(m)
            return t.transform(bc.matrix, bc.inverse)


class Cleared(Exception):
    """Stops a normalization right after its `clear_adjoints` step."""


def stop_after_clearing(monkeypatch):
    real = Frame.clear_adjoints

    def stop(fr, *args):
        raise Cleared(real(fr, *args), fr.t, fr.total)

    monkeypatch.setattr(Frame, "clear_adjoints", stop)


def cleared(clear, t):
    """(generators, tensor, total) of the frame that moves g' to the front,
    after `clear`; the message when it refuses."""
    fr = Frame(t, derived_ideal_t(t))
    try:
        dim = clear(fr)
    except Cleared as exc:
        return exc.args
    except ImpossibleBranch as exc:
        return str(exc)
    return dim, fr.t, fr.total


def test_adjoint_clearing_matches_the_line_and_plane_paths(monkeypatch):
    rng = random.Random(32)
    inputs = [scramble_tensor(catalog.build_tensor(lab), rng.random())[0]
              for lab in corpus_labels() for _ in range(3)]
    fuzz = list(fuzz_stream(random.Random(32), 400))
    inputs += fuzz + [over_sqrt2(rng, t) for t in fuzz[::3]]
    inputs += list(random_tables(32, 600))
    seen = set()
    for t in inputs:
        g1 = derived_ideal_t(t)
        if len(g1) != 2 or any(j < 2 for _, j in Frame(t, g1).t.brackets):
            continue
        want = cleared(reference_classify_clear, t)
        with monkeypatch.context() as m:
            stop_after_clearing(m)
            got = cleared(_classify_frame, t)
        assert got == want, t
        seen.add(got if isinstance(got, str) else got[0])
        if any(isinstance(x, QuadExt) for vec in t.brackets.values() for x in vec):
            seen.add("Q(sqrt d)")
    assert seen >= {0, 1, 2, "adjoint span exceeds the commutative bound", "Q(sqrt d)"}


def test_adjoint_clearing_matches_the_codim2_swap_and_shift(monkeypatch):
    invertible_az = tensor_from_brackets(5, [(5, 1, {1: 1}), (5, 2, {2: 1}), (5, 3, {3: 1})])
    rng = random.Random(32)
    seen = set()
    for base in [codim2_algebra(az).tensor for _, az in codim2_az_fixtures()] + [invertible_az]:
        for t in [base] + [scramble_tensor(base, rng.random())[0] for _ in range(6)]:
            want = cleared(reference_codim2_clear, t)
            with monkeypatch.context() as m:
                stop_after_clearing(m)
                got = cleared(_normalize_frame, t)
            assert got == want, t
            seen.add(got[0])
            entry = Frame(t, derived_ideal_t(t))
            if not entry.adjoint(t.n - 2).is_zero():
                seen.add("a_Z = 0" if entry.adjoint(t.n - 1).is_zero() else "a_Y, a_Z != 0")
    assert seen >= {1, "a_Y, a_Z != 0"}
