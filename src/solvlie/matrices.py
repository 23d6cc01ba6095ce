"""Exact dense matrices over the rationals or a quadratic extension.

Everything is computed by exact elimination over the scalar field, and
:class:`Echelon` is the one routine that eliminates: ``rref``, ``det``,
``inverse``, ``solve``, ``kernel_basis``, ``row_space`` and ``rank`` run on
it, and so do the Krylov spans of the Frobenius decomposition and the
quotients of the central series.  The 2x2 matrices, the adjoint
restrictions of a 2-dimensional derived ideal, take closed forms instead:
``det`` is ad - bc, ``inverse`` the adjugate over the determinant, and
``kernel_basis`` the vector of the one reduced row, each equal to what
elimination gives.  A matrix is invertible exactly when its
determinant is nonzero, which is always checked and never assumed.
``char_poly`` does not eliminate: it runs the trace recursion on the
matrix with its denominators cleared, in integer (or integral Q(sqrt(d)))
arithmetic, and scales each coefficient back.  The recursion is one
generator, ``char_coefficients``, which yields the coefficients as they
become known: proportional similarity compares two matrices' coefficients
as they are yielded and rules a pair out at the first coefficient that no
scale matches, and ``char_poly`` is the list of all of them.  A 2x2
matrix is conjugated onto a target with the same characteristic
polynomial through its cyclic vector e1 (``cyclic_conjugator_2x2``), with
no canonical form.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DimensionError, ImpossibleBranch, NonCommuting, SingularInput
from .records import Record
from .scalars import QuadExt, Scalar, compact, exdiv, scalar_sign, sqrt_exact

Vec = tuple


class Mat:
    """Immutable row-major matrix of exact scalars.

    ``Mat(data)`` checks data from outside: it must be non-empty and
    rectangular, a float entry raises TypeError, and a plain ``Fraction``
    entry is converted to its canonical ``int`` or ``Rat``;
    ``from_columns`` checks its entries the same way.  The matrices the
    program builds from canonical entries (``@``, ``+``, ``-``, ``scale``,
    ``transpose``, ``identity``, ``rref``, ``inverse``, and its own
    column lists as ``_mat(zip(*cols))``) come from :func:`_mat`, which
    checks nothing.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable[Scalar]]):
        self.data = tuple(tuple(map(_exact_entry, row)) for row in data)
        self.rows = len(self.data)
        if self.rows == 0:
            raise DimensionError("empty matrix")
        self.cols = len(self.data[0])
        if any(len(r) != self.cols for r in self.data):
            raise DimensionError("ragged rows")

    @staticmethod
    def identity(n: int) -> "Mat":
        return _mat([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def from_columns(cols: Sequence[Sequence[Scalar]]) -> "Mat":
        """The matrix with the given columns, checked as ``Mat(...)`` is."""
        return Mat(zip(*cols))

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i: int) -> Vec:
        return self.data[i]

    def col(self, j: int) -> Vec:
        return tuple(self.data[i][j] for i in range(self.rows))

    def columns(self) -> list:
        return [self.col(j) for j in range(self.cols)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            return False
        return all(
            self.data[i][j] == other.data[i][j]
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def __hash__(self):
        return hash(self.data)

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return _mat([[x + y for x, y in zip(r, s)] for r, s in zip(self.data, other.data)])

    def __sub__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return _mat([[x - y for x, y in zip(r, s)] for r, s in zip(self.data, other.data)])

    def __neg__(self) -> "Mat":
        return self.scale(-1)

    def scale(self, c: Scalar) -> "Mat":
        c = _exact_entry(c)
        return _mat([[c * x for x in row] for row in self.data])

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise DimensionError(f"{self.shape} @ {other.shape}")
        # products with a zero factor are skipped, not formed
        orows = [[(j, x) for j, x in enumerate(row) if x] for row in other.data]
        out = []
        for ri in self.data:
            acc: list = [0] * other.cols
            for k, a in enumerate(ri):
                if a:
                    for j, b in orows[k]:
                        acc[j] = acc[j] + a * b
            out.append(acc)
        return _mat(out)

    def apply(self, v: Sequence[Scalar]) -> Vec:
        if len(v) != self.cols:
            raise DimensionError("vector length mismatch")
        nz = [(j, x) for j, x in enumerate(v) if x]
        return tuple(sum(row[j] * x for j, x in nz if row[j]) for row in self.data)

    def transpose(self) -> "Mat":
        return _mat(zip(*self.data))

    @property
    def shape(self):
        return (self.rows, self.cols)

    def trace(self) -> Scalar:
        self._require_square()
        return sum(self.data[i][i] for i in range(self.rows))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def _same_shape(self, other: "Mat"):
        if self.shape != other.shape:
            raise DimensionError(f"{self.shape} vs {other.shape}")

    def _require_square(self):
        if not self.is_square:
            raise DimensionError("square matrix required")

    def __repr__(self):
        return f"Mat({[list(r) for r in self.data]})"


def _exact_entry(x):
    if isinstance(x, float):
        raise TypeError("float entry leaked into an exact matrix")
    return compact(x)


def _mat(data: Iterable[Iterable[Scalar]]) -> Mat:
    """A matrix the program built: non-empty rectangular rows of canonical
    exact scalars.  No checks."""
    m = object.__new__(Mat)
    m.data = rows = tuple(map(tuple, data))
    m.rows = len(rows)
    m.cols = len(rows[0])
    return m


def vec_is_zero(v: Sequence[Scalar]) -> bool:
    # exact: a zero entry is falsy (the int 0 or a plain Fraction(0)), and
    # every Rat and QuadExt is nonzero
    return not any(v)


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * x for x in v)


def normalize_leading(v: Sequence[Scalar]) -> Vec:
    """Scale so the first nonzero entry is 1 (canonical direction vector)."""
    for x in v:
        if x != 0:
            return tuple(exdiv(y, x) for y in v)
    return tuple(v)


class Echelon:
    """Incremental row echelon form: the one elimination routine.

    Each row is 1 at its own pivot and 0 at the pivots of the rows added
    before it; rows stay in the order they were added, ``pivots[i]`` being
    row i's pivot column.  Reducing in that order leaves a vector 0 at
    every pivot, and that reduction is unique, so ``reduce``, ``det``'s
    pivot values and ``local_min_poly``'s tags are those of a fully
    reduced form; only ``rref`` back-substitutes, once.  Each row's
    nonzero off-pivot entries are cached as (column, value) pairs, so
    reducing by it forms no product with a zero factor.
    """

    __slots__ = ("rows", "pivots", "_nz")

    def __init__(self):
        self.rows: list[list] = []
        self.pivots: list[int] = []
        self._nz: list[list] = []

    def reduce(self, v: Sequence[Scalar]) -> list:
        """v minus its part in the span: 0 at every pivot."""
        w = list(v)
        for p, nz in zip(self.pivots, self._nz):
            f = w[p]
            if f:
                w[p] = 0
                for q, x in nz:
                    w[q] = w[q] - f * x
        return w

    def add(self, v: Sequence[Scalar]) -> Optional[Scalar]:
        """Extend the span by v.  Returns the pivot value of v's reduction
        before it is scaled to 1, or None when v is already in the span."""
        return self.add_reduced(self.reduce(v))

    def add_reduced(self, w: list) -> Optional[Scalar]:
        """``add`` for a w that ``reduce`` returned: w is not reduced again,
        and becomes the new row."""
        for p, piv in enumerate(w):
            if piv:
                break
        else:
            return None
        w[p] = 1
        nz = []
        for q in range(p + 1, len(w)):
            x = w[q]
            if x:
                if piv != 1:
                    x = w[q] = exdiv(x, piv)
                nz.append((q, x))
        self.rows.append(w)
        self.pivots.append(p)
        self._nz.append(nz)
        return piv

    @property
    def dim(self) -> int:
        return len(self.rows)


def independent_rows(vectors: Sequence[Sequence[Scalar]]) -> list[int]:
    """Positions of the vectors outside the span of those before them, in
    one forward pass; their number is the dimension of the span."""
    span = Echelon()
    return [i for i, v in enumerate(vectors) if span.add(v) is not None]


def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns."""
    e = Echelon()
    for row in m.data:
        e.add(row)
    rows, pivots, nzs = e.rows, e.pivots, e._nz
    # back-substitution, from the last row up: the rows after row i are
    # already 0 at every other pivot, so clearing row i at their pivots
    # keeps it 0 at the pivots of the rows before it
    for i in range(e.dim - 2, -1, -1):
        row = rows[i]
        cleared = False
        for k in range(i + 1, e.dim):
            p = pivots[k]
            f = row[p]
            if f:
                cleared = True
                row[p] = 0
                for q, x in nzs[k]:
                    row[q] = row[q] - f * x
        if cleared:
            nzs[i] = [(q, x) for q, x in enumerate(row) if x and q != pivots[i]]
    order = sorted(range(e.dim), key=pivots.__getitem__)
    zero = [0] * m.cols
    out = [rows[i] for i in order] + [zero] * (m.rows - e.dim)
    return _mat(out), tuple(pivots[i] for i in order)


def rank(m: Mat) -> int:
    return len(rref(m)[1])


def det(m: Mat) -> Scalar:
    """ad - bc for a 2x2 matrix; else the product of the pivot values,
    times the sign of the pivot columns' permutation."""
    m._require_square()
    if m.rows == 2:
        (a, b), (c, d) = m.data
        return a * d - b * c
    e = Echelon()
    out: Scalar = 1
    for row in m.data:
        piv = e.add(row)
        if piv is None:
            return 0
        out = out * piv
    p = e.pivots
    inversions = sum(1 for i in range(len(p)) for j in range(i) if p[j] > p[i])
    return -out if inversions % 2 else out


def inverse(m: Mat) -> Mat:
    """The adjugate over the determinant for a 2x2 matrix; else the right
    half of the reduced echelon form of [m | I].  SingularInput when m is
    not invertible."""
    m._require_square()
    n = m.rows
    if n == 2:
        (a, b), (c, d) = m.data
        dt = a * d - b * c
        if not dt:
            raise SingularInput("matrix is not invertible")
        return _mat(((exdiv(d, dt), exdiv(-b, dt)), (exdiv(-c, dt), exdiv(a, dt))))
    a = [list(m.data[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    red, pivots = rref(_mat(a))
    if len(pivots) < n or pivots[n - 1] >= n:
        raise SingularInput("matrix is not invertible")
    return _mat(row[n:] for row in red.data)


def kernel_basis(m: Mat) -> list[Vec]:
    """Basis of the right null space, from the reduced echelon form.

    One vector per free column, in ascending column order, with a 1 in the
    free position; this is the deterministic tie-break used everywhere.
    A singular 2x2 matrix [[a, b], [c, d]] has the vector of its one
    reduced row, (-b/a, 1) or (-d/c, 1), or (1, 0) when its first column
    is 0 and it is not, read off without elimination.
    """
    if m.shape == (2, 2):
        (a, b), (c, d) = m.data
        if a:
            return [] if a * d != b * c else [(-exdiv(b, a), 1)]
        if c:
            return [] if b else [(-exdiv(d, c), 1)]
        return [(1, 0)] if b or d else [(1, 0), (0, 1)]
    red, pivots = rref(m)
    pivset = set(pivots)
    free = [c for c in range(m.cols) if c not in pivset]
    basis = []
    for fc in free:
        v: list = [0] * m.cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -red.data[r][fc]
        basis.append(tuple(v))
    return basis


def first_non_kernel(m: Mat) -> Vec:
    """The first unit vector that m does not send to 0; ImpossibleBranch
    on the zero matrix."""
    for i in range(m.cols):
        if any(row[i] for row in m.data):
            return tuple(1 if k == i else 0 for k in range(m.cols))
    raise ImpossibleBranch("zero matrix has no non-kernel vector")


def row_space(m: Mat) -> list[Vec]:
    """Canonical (reduced echelon) basis of the row space; subspace equality
    is plain equality of these row lists."""
    red, pivots = rref(m)
    return [red.data[i] for i in range(len(pivots))]


def solve(m: Mat, b: Sequence[Scalar]) -> Optional[Vec]:
    """One solution of m x = b, or None when inconsistent.

    Free coordinates are set to zero, so the solution is deterministic.
    """
    if len(b) != m.rows:
        raise DimensionError("rhs length mismatch")
    aug = _mat([list(m.data[i]) + [compact(b[i])] for i in range(m.rows)])
    red, pivots = rref(aug)
    if pivots and pivots[-1] == m.cols:
        return None
    x: list = [0] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = red.data[r][m.cols]
    return tuple(x)


def char_coefficients(m: Mat) -> Iterator[Scalar]:
    """c_1, c_2, ..., c_n of det(xI - m), c_k the coefficient of x^(n-k),
    each yielded as soon as it is known.

    Uses the trace recursion (Faddeev-LeVerrier): M_1 = A, c_1 = -tr M_1,
    M_k = A (M_(k-1) + c_(k-1) I) and c_k = -tr(M_k) / k.  The trace is
    read as sum A_il (M_(k-1) + c_(k-1) I)_li, so c_k needs no product; the
    product M_k is formed only when c_(k+1) is asked for, and a caller
    that stops after c_k never forms it.  It runs on A = L m, L the least
    common multiple of every denominator in m (a Q(sqrt(d)) entry's
    common denominator D), as nested lists: A's entries are integers or
    Q(sqrt(d)) values with integer parts, and so is every c_k, since it is
    a polynomial in them with integer coefficients.  So the division by k
    is exact, and a remainder raises ImpossibleBranch.  c_k of L m is L^k
    times c_k of m, which is divided out as each c_k is yielded.
    """
    m._require_square()
    n = m.rows
    den = 1
    for row in m.data:
        for x in row:
            den = lcm(den, x.D if isinstance(x, QuadExt) else x.denominator)
    a = [[x * den for x in row] for row in m.data]
    # A's nonzero entries by row: no product with a zero factor is formed
    nz = [[(j, x) for j, x in enumerate(row) if x] for row in a]
    mk = a
    ck = -sum(row[i] for i, row in enumerate(a))
    yield exdiv(ck, den) if den != 1 else ck
    for k in range(2, n + 1):
        if k > 2:
            # M_(k-1) = A (M_(k-2) + c_(k-2) I), formed now that c_k is wanted
            shifted = [[(j, y) for j, y in enumerate(row) if y] for row in mk]
            mk = []
            for anz in nz:
                acc: list = [0] * n
                for l, x in anz:
                    for j, y in shifted[l]:
                        acc[j] = acc[j] + x * y
                mk.append(acc)
        for i, row in enumerate(mk):  # M_(k-1) + c_(k-1) I, in place
            row[i] = row[i] + ck
        tr = sum(x * mk[l][i] for i, anz in enumerate(nz) for l, x in anz)
        ck = _exact_quotient(-tr, k)
        yield exdiv(ck, den**k) if den != 1 else ck


def char_poly(m: Mat) -> list:
    """Coefficients of det(xI - m), low degree first, leading coefficient
    1: the list of ``char_coefficients``, reversed, then the 1.  A caller
    that compares coefficients, as ``prop_similar`` does, reads the
    generator instead, so that a pair is ruled out at the first
    coefficient that no scale matches without the rest being computed."""
    coeffs = list(char_coefficients(m))
    coeffs.reverse()
    coeffs.append(1)
    return coeffs


def _exact_quotient(x: Scalar, k: int) -> Scalar:
    """x / k for an integer, or a Q(sqrt(d)) value with integer parts,
    that k divides."""
    q = exdiv(x, k)
    integral = (q.D if isinstance(q, QuadExt) else q.denominator) == 1
    if not integral:
        raise ImpossibleBranch(f"trace recursion: {k} does not divide {x}")
    return q


class SpectralClass2x2(Record):
    """Discriminant-based eigenvalue classification of a 2x2 matrix.

    kind is one of "real_distinct" (mu1 < mu2, exact, possibly in a
    quadratic extension), "repeated_diagonalizable" / "repeated_jordan"
    (mu1 == mu2), or "complex_pair" (eigenvalues re +- i*sqrt(im2), im2 > 0).
    """

    __slots__ = ("kind", "mu1", "mu2", "re", "im2")

    def __init__(
        self,
        kind: str,
        mu1: Optional[Scalar] = None,
        mu2: Optional[Scalar] = None,
        re: Optional[Scalar] = None,
        im2: Optional[Scalar] = None,
    ):
        self._set(kind, mu1, mu2, re, im2)


def spectral_classify_2x2(m: Mat) -> SpectralClass2x2:
    if m.shape != (2, 2):
        raise DimensionError("2x2 matrix required")
    t = m.trace()
    d = det(m)
    disc = t * t - 4 * d
    s = scalar_sign(disc)
    if s > 0:
        root = sqrt_exact(disc)
        mu1 = exdiv(t - root, 2)
        mu2 = exdiv(t + root, 2)
        return SpectralClass2x2("real_distinct", mu1=mu1, mu2=mu2)
    if s == 0:
        mu = exdiv(t, 2)
        if m == Mat.identity(2).scale(mu):
            return SpectralClass2x2("repeated_diagonalizable", mu1=mu, mu2=mu)
        return SpectralClass2x2("repeated_jordan", mu1=mu, mu2=mu)
    return SpectralClass2x2("complex_pair", re=exdiv(t, 2), im2=exdiv(-disc, 4))


def cyclic_conjugator_2x2(m: Mat, target: Mat) -> Mat:
    """C with C^-1 m C = target, for 2x2 matrices with one characteristic
    polynomial for which e1 is cyclic (as for every complex pair):
    [e1, m e1] @ inverse([e1, target e1]), since both Krylov bases carry
    their matrix onto the same companion matrix."""
    e1 = (1, 0)
    krylov = _mat(zip(e1, m.apply(e1)))
    return krylov @ inverse(_mat(zip(e1, target.apply(e1))))


def eigenvector_2x2(m: Mat, mu: Scalar) -> Vec:
    """The canonical (leading entry 1) eigenvector of a non-scalar 2x2
    matrix m for its eigenvalue mu, whose eigenspace is a line."""
    return normalize_leading(kernel_basis(m - Mat.identity(2).scale(mu))[0])


def eigendirections_2x2(m: Mat) -> list[tuple[Scalar, Vec]]:
    """All real eigendirections (eigenvalue, canonical vector); empty for a
    complex pair.  A scalar matrix contributes both standard directions."""
    sc = spectral_classify_2x2(m)
    if sc.kind == "complex_pair":
        return []
    if sc.kind == "repeated_diagonalizable":
        return [(sc.mu1, (1, 0)), (sc.mu1, (0, 1))]
    eigs = [sc.mu1] if sc.kind == "repeated_jordan" else [sc.mu1, sc.mu2]
    return [(mu, eigenvector_2x2(m, mu)) for mu in eigs]


def common_eigenvector(m1: Mat, m2: Mat) -> Optional[Vec]:
    """Simultaneous eigenvector of a commuting 2x2 pair with real spectra.

    Returns None when either matrix has a complex eigenvalue pair.  When
    several directions qualify, the lexicographically largest normalized
    one is returned (so (1, 0) beats (0, 1)).  A non-scalar member spans
    the pair's algebra with I (its centralizer is span(I, m)), so the
    common eigendirections are its own; two scalars share every direction.
    """
    if m1.shape != (2, 2) or m2.shape != (2, 2):
        raise DimensionError("2x2 matrices required")
    if m1 @ m2 != m2 @ m1:
        raise NonCommuting("matrices do not commute")
    m = m2 if m1 == Mat.identity(2).scale(m1[0, 0]) else m1
    # int, Rat and QuadExt compare exactly with <, so tuples compare as they are
    return max((v for _, v in eigendirections_2x2(m)), default=None)
