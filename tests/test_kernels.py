"""The exact kernels that skip zero factors against their plain loop forms.

The reference functions below are the kernels as they were before zero
factors were skipped: every product is formed, zero or not.  Skipping a
product whose factor is zero changes no value, so the results must be
equal, on integer, rational and Q(sqrt(d)) entries alike, half of them zero.
``rref`` and ``det`` run on ``matrices.Echelon``; ``ref_det`` expands by
permutations (Leibniz) and shares no elimination with them.  ``char_poly``
is checked against ``ref_det(tI - A)`` at integer points t, and
``local_min_poly``, which reads the annihilator off its tagged Krylov
span, against the coefficients that one more ``solve`` on the chain gives.
"""

import itertools
import random
from fractions import Fraction

from solvlie.frobenius import local_min_poly, pnormalize
from solvlie.liealg import StructureTensor
from solvlie.matrices import Echelon, Mat, char_poly, det, inverse, rref, solve
from solvlie.scalars import QuadExt, exdiv

KINDS = ("int", "fraction", "quad2", "quad3")


def _scalar(rng, kind):
    """A random entry of the given kind; zero half of the time."""
    if rng.random() < 0.5:
        return 0
    a = rng.randint(-4, 4)
    if kind == "int":
        return a
    b = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if kind == "fraction":
        return Fraction(a, rng.randint(1, 3)) or b
    return QuadExt.make(a, b, int(kind[-1]))


def _mat(rng, kind, r, c):
    return Mat([[_scalar(rng, kind) for _ in range(c)] for _ in range(r)])


def _invertible(rng, kind, n):
    while True:
        m = _mat(rng, kind, n, n)
        if det(m) != 0:
            return m


def _tensor(rng, kind, n):
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                brackets[(i, j)] = [_scalar(rng, kind) for _ in range(n)]
    return StructureTensor(n, brackets)


def ref_matmul(a, b):
    return Mat(
        [[sum(a.data[i][k] * b.data[k][j] for k in range(a.cols)) for j in range(b.cols)]
         for i in range(a.rows)]
    )


def ref_apply(m, v):
    return tuple(sum(m.data[i][j] * v[j] for j in range(m.cols)) for i in range(m.rows))


def ref_rref(m):
    a = [list(r) for r in m.data]
    nr, nc = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        piv = a[r][c]
        if piv != 1:
            a[r] = [exdiv(x, piv) for x in a[r]]
        for i in range(nr):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return Mat(a), tuple(pivots)


def ref_det(m):
    """Leibniz expansion: the signed sum over all permutations."""
    n = m.rows
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i) if perm[j] > perm[i])
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term = term * m.data[i][j]
        total = total + term
    return total


def ref_local_min_poly(m, v):
    """The annihilator by a second elimination: solve for the next Krylov
    vector in the chain's columns."""
    chain = [tuple(v)]
    span = Echelon()
    span.add(chain[0])
    w = m.apply(chain[-1])
    while span.add(w) is not None:
        chain.append(w)
        w = m.apply(w)
    coeffs = solve(Mat.from_columns(chain), w)
    return pnormalize([-c for c in coeffs] + [1]), chain


def ref_bracket(t, u, v):
    out = [0] * t.n
    for (i, j), c in t.brackets.items():
        s = u[i] * v[j] - u[j] * v[i]
        if s != 0:
            for k, ck in enumerate(c):
                if ck != 0:
                    out[k] = out[k] + s * ck
    return tuple(out)


def ref_transform(t, m, minv):
    n = t.n
    cols = m.columns()
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = ref_bracket(t, cols[i], cols[j])
            if any(x != 0 for x in w):
                out[(i, j)] = ref_apply(minv, w)
    return StructureTensor(n, out)


def test_matmul_and_apply_match_the_loop_forms():
    rng = random.Random(41)
    for kind in KINDS:
        for _ in range(25):
            r, k, c = (rng.randint(1, 5) for _ in range(3))
            a, b = _mat(rng, kind, r, k), _mat(rng, kind, k, c)
            assert a @ b == ref_matmul(a, b)
            v = tuple(_scalar(rng, kind) for _ in range(k))
            assert a.apply(v) == ref_apply(a, v)


def test_rref_matches_the_loop_form():
    rng = random.Random(43)
    for kind in KINDS:
        for _ in range(25):
            m = _mat(rng, kind, rng.randint(1, 5), rng.randint(1, 6))
            assert rref(m) == ref_rref(m)
        m = _invertible(rng, kind, 4)
        assert inverse(m) @ m == Mat.identity(4)


def test_det_matches_the_leibniz_expansion():
    rng = random.Random(53)
    singular = 0
    for kind in KINDS:
        for _ in range(30):
            n = rng.randint(1, 5)
            m = _mat(rng, kind, n, n)
            if rng.random() < 0.25 and n > 1:
                # a row that is a multiple of another makes m singular
                rows = [list(r) for r in m.data]
                i, j = rng.sample(range(n), 2)
                rows[i] = [3 * x for x in rows[j]]
                m = Mat(rows)
            d = det(m)
            assert d == ref_det(m)
            singular += d == 0
    assert singular >= 10


def ref_reduce(m, v):
    """v minus its part in the row space of m, by the reference reduced
    rows: each row is 0 at every other pivot, so it subtracts v's entry at
    its own pivot times that row."""
    red, pivots = ref_rref(m)
    w = list(v)
    for row, p in zip(red.data, pivots):
        f = v[p]
        w = [x - f * y for x, y in zip(w, row)]
    return w


def test_echelon_grows_with_the_rank_and_reduces_into_its_span():
    """Each row as added is 1 at its own pivot and 0 before it and at the
    pivots of the rows added earlier; reducing by those rows gives what
    reducing by the fully reduced rows gives, and `rref` ends at the
    reference form."""
    rng = random.Random(59)
    for kind in KINDS:
        for _ in range(20):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            m = _mat(rng, kind, r, c)
            e = Echelon()
            rank = 0
            for i in range(r):
                got = e.add(m.data[i])
                grown = len(ref_rref(Mat(m.data[: i + 1]))[1])
                assert (got is None) == (grown == rank)
                rank = grown
                v = [_scalar(rng, kind) for _ in range(c)]
                w = e.reduce(v)
                assert all(w[p] == 0 for p in e.pivots)
                # v - reduce(v) lies in the span: the rank does not grow
                part = tuple(x - y for x, y in zip(v, w))
                assert len(ref_rref(Mat(list(m.data[: i + 1]) + [part]))[1]) == rank
                assert w == ref_reduce(Mat(m.data[: i + 1]), v)
            for k, (row, p) in enumerate(zip(e.rows, e.pivots)):
                assert row[p] == 1 and all(x == 0 for x in row[:p])
                assert all(row[q] == 0 for q in e.pivots[:k])
            red, pivots = ref_rref(m)
            order = sorted(range(e.dim), key=e.pivots.__getitem__)
            assert [e.pivots[i] for i in order] == list(pivots)
            assert rref(m) == (red, pivots)


def _special(rng, kind, n):
    """A zero, nilpotent, scalar or singular n x n matrix."""
    shape = rng.choice(("zero", "nilpotent", "scalar", "singular"))
    if shape == "zero":
        return Mat([[0] * n for _ in range(n)])
    if shape == "nilpotent":
        return Mat([[_scalar(rng, kind) if j > i else 0 for j in range(n)] for i in range(n)])
    if shape == "scalar":
        return Mat.identity(n).scale(_scalar(rng, kind) or 2)
    rows = [list(r) for r in _mat(rng, kind, n, n).data]
    rows[-1] = [3 * x for x in rows[0]] if n > 1 else [0]
    return Mat(rows)


def test_char_poly_matches_the_determinant_at_integer_points():
    rng = random.Random(61)
    for kind in KINDS:
        for n in range(1, 7):
            for m in [_mat(rng, kind, n, n), _special(rng, kind, n), _special(rng, kind, n)]:
                p = char_poly(m)
                assert len(p) == n + 1 and p[-1] == 1
                for t in range(-(n // 2), n + 1 - n // 2):
                    value = sum(c * t**j for j, c in enumerate(p))
                    assert value == ref_det(Mat.identity(n).scale(t) - m), (kind, m, t)


def test_local_min_poly_matches_the_solve_on_its_chain():
    rng = random.Random(67)
    eigen = 0
    for kind in KINDS:
        for _ in range(12):
            n = rng.randint(1, 5)
            m = rng.choice((_mat(rng, kind, n, n), _special(rng, kind, n)))
            vectors = [tuple(_scalar(rng, kind) for _ in range(n)), (0,) * n]
            vectors += [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
            for v in vectors:
                poly, chain = local_min_poly(m, v)
                assert (poly, chain) == ref_local_min_poly(m, v), (kind, m, v)
                eigen += len(chain) == 1
    assert eigen >= 20  # eigenvectors, the zero vector among them
    assert local_min_poly(Mat([[2, 0], [0, 3]]), (0, 5)) == ([-3, 1], [(0, 5)])
    assert local_min_poly(Mat([[2, 0], [0, 3]]), (0, 0)) == ([0, 1], [(0, 0)])


def test_bracket_and_transform_match_the_loop_forms():
    rng = random.Random(47)
    for kind in KINDS:
        for _ in range(6):
            n = rng.randint(2, 5)
            t = _tensor(rng, kind, n)
            for _ in range(5):
                u = [_scalar(rng, kind) for _ in range(n)]
                v = [_scalar(rng, kind) for _ in range(n)]
                assert t.bracket(u, v) == ref_bracket(t, u, v)
            m = _invertible(rng, kind, n)
            minv = inverse(m)
            moved = t.transform(m, minv)
            assert moved == ref_transform(t, m, minv)
            assert moved.transform(minv, m) == t
