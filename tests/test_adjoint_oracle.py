"""`adjoint_algebra_t` against the dense path it replaced, kept here as the
reference: every bracket of a standard basis vector with a basis vector
of g' formed by the loop over the whole table, and its coordinates found
by one `solve` per column.  The two must give the same canonical basis
of the adjoint span, or both refuse a non-abelian g'.  The independent
adjoints that `classify_n2` and `normalize_codim2` dispatch on must be
those the dense path finds by rank."""

import random

from solvlie import catalog
from solvlie.catalog import codim2_algebra, codim2_az_fixtures, tensor_from_brackets
from solvlie.errors import NonAbelianDerivedIdeal
from solvlie.harness import corpus_labels, fuzz_stream
from solvlie.liealg import (
    Frame,
    LieAlgebra,
    StructureTensor,
    abelian_tensor,
    adjoint_algebra_t,
    derived_ideal_t,
    span_rows,
)
from solvlie.matrices import _mat, independent_rows, solve, vec_is_zero


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
            gens = independent_rows(Frame(t, g1).flat_adjoints())
            assert gens == reference_gens(t, g1), t
            seen.add((len(g1), len(gens)))
    assert seen >= {"g' = 0", "non-abelian", 0, 1, 2, (2, 0), (2, 1), (2, 2), (3, 1)}
    assert outcome(adjoint_algebra_t, SL2) == "non-abelian"


def test_abelian_algebra_has_an_empty_adjoint_algebra():
    assert LieAlgebra(abelian_tensor(3)).adjoint_algebra() == ([], 0)
