"""Structure-constant Lie algebras: validation, basis change, series.

Basis indices are 0-based internally; human-facing output (validation
reports, JSON) is 1-based.  A structure tensor stores only pairs i < j with
a nonzero bracket vector; skew symmetry and bilinearity hold by
construction.  Subspaces are kept as reduced-echelon row lists, so subspace
equality is plain list equality; they are computed, and vectors reduced
modulo them, by ``matrices.Echelon``, the one elimination routine.
Every basis change runs through ``transform_sparse``; ``transform``
replaces every column.  The one exception is a ``Frame``'s opening onto
an ideal that holds every bracket: in the basis of the ideal's
reduced-echelon rows and the input vectors off their pivots, a bracket's
coordinates are its entries at the pivots, so the opening tensor is read
off the input there (``_front_loaded``) and the witness audit checks it
with every later step.  Every inverse a ``Frame`` forms, of a step or of
the witness total, is the block formula ``_inverse_columns``;
``BasisChange(matrix)`` eliminates, for matrices from outside only.
``StructureTensor(n, brackets)`` checks outside data; the tensors the
program builds itself (``transform_sparse``, ``permute``,
``_front_loaded``) hold the invariants by construction and skip the
checks.
The tensor layer reads a table through ``_adjacency``, the nonzero
entries of each nonzero bracket under both of its index orders, built
once per call and never cached on the tensor: ``validate`` visits only
the basis triples that touch a nonzero bracket, ``transform_sparse`` forms
a replaced vector's brackets from the basis brackets it involves, and the
series and the center set up their linear systems from the nonzero
brackets alone.  The bracket of two vectors has one path: u's row
``_ad_row``, then ``_bracket_from`` against v.  The adjoint restrictions
to an ideal have one reader, the ``Frame`` that moves the ideal to the
front (``Frame.adjoint``, ``Frame.flat_adjoints``).  Clearing brackets
with vectors whose summed adjoint is invertible, by shifting the other
vectors by elements of the ideal, has one path too, ``Frame.absorb``; so
has clearing adjoints, by moving the generators of their span to given
slots and shifting every other vector by its combination of them,
``Frame.clear_adjoints``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping, Optional, Sequence

from .errors import (
    DimensionError,
    ImpossibleBranch,
    NonAbelianDerivedIdeal,
    NotInClass,
    SingularInput,
    SingularTransform,
)
from .matrices import (
    Echelon,
    Mat,
    Vec,
    _mat,
    inverse,
    kernel_basis,
    row_space,
    span_coordinates,
    vec_is_zero,
)
from .records import Record
from .scalars import Scalar, compact, exdiv


class StructureTensor:
    """Skew-symmetric bracket table [X_i, X_j] = sum_k c_ijk X_k, i < j."""

    __slots__ = ("n", "brackets")

    def __init__(self, n: int, brackets: Mapping[tuple, Sequence[Scalar]]):
        if n < 1:
            raise DimensionError("dimension must be >= 1")
        self.n = n
        table = {}
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < j < n):
                raise DimensionError(f"bad bracket index pair ({i}, {j})")
            v = tuple(compact(x) for x in coeffs)
            if len(v) != n:
                raise DimensionError("bracket vector length mismatch")
            for x in v:
                if isinstance(x, float):
                    raise TypeError("float entry in structure tensor")
            if not vec_is_zero(v):
                table[(i, j)] = v
        self.brackets = table

    def items(self):
        return sorted(self.brackets.items())

    def bracket_basis(self, i: int, j: int) -> Vec:
        if i == j:
            return self.zero_vec()
        if i < j:
            return self.brackets.get((i, j), self.zero_vec())
        v = self.brackets.get((j, i))
        return self.zero_vec() if v is None else tuple(-x for x in v)

    def zero_vec(self) -> Vec:
        return (0,) * self.n

    def bracket(self, u: Sequence[Scalar], v: Sequence[Scalar]) -> Vec:
        return tuple(_dense(_bracket_from(_ad_row(_adjacency(self), u), v).items(), self.n))

    def transform(self, t: Mat, tinv: Mat) -> "StructureTensor":
        """Tensor in the basis given by the columns of t."""
        if t.shape != (self.n, self.n):
            raise DimensionError("transform size mismatch")
        return self.transform_sparse(dict(enumerate(t.columns())), dict(enumerate(tinv.columns())))

    def transform_sparse(self, repl: Mapping[int, Sequence[Scalar]],
                         inv_cols: Mapping[int, Sequence[Scalar]]) -> "StructureTensor":
        """Transform under a basis change differing from the identity only
        in the columns `repl`; `inv_cols` are the matching columns of the
        inverse.  Pairs of untouched vectors just get re-expressed, and a
        touched vector's brackets are read off the nonzero brackets of the
        basis vectors it involves, so the cost scales with the sparsity,
        not with n^3.  The entries must be canonical (``int``, ``Rat`` or
        ``QuadExt``), as a ``Mat``'s are: ``transform`` is the entry point
        for outside matrices."""
        n = self.n
        touched = set(repl)
        inv_nz = [(j, [(r, x) for r, x in enumerate(c) if x]) for j, c in inv_cols.items()]

        def reexpress(w):
            # untouched coordinates stay and each nonzero touched one adds its
            # inverse column; a first term is stored, not added to 0
            out = None
            for j, c in inv_nz:
                wj = w[j]
                if wj:
                    if out is None:
                        out = list(w)
                        for r in touched:
                            out[r] = 0
                    for r, x in c:
                        o = out[r]
                        out[r] = o + wj * x if o else wj * x
            return tuple(w if out is None else out)

        out = {}
        for (i, j), vec in self.brackets.items():
            if i in touched or j in touched:
                continue
            w = reexpress(vec)
            if any(w):
                out[(i, j)] = w
        adj = _adjacency(self)
        for i in sorted(touched):
            row = _ad_row(adj, repl[i])
            for j in sorted(row.keys() | touched):
                if j == i or (j in touched and j < i):
                    continue
                w = _bracket_from(row, repl[j]) if j in touched else row[j]
                if not any(w.values()):
                    continue
                w = reexpress(_dense(w.items(), n))
                if not any(w):
                    continue
                if i < j:
                    out[(i, j)] = w
                else:
                    out[(j, i)] = tuple(-x for x in w)
        return _tensor(n, out)

    def permute(self, order: Sequence[int]) -> "StructureTensor":
        """Basis relabelling: new X_j is old X_{order[j]}."""
        n = self.n
        pos = [0] * n
        for newi, oldi in enumerate(order):
            pos[oldi] = newi
        out = {}
        for (a, b), vec in self.brackets.items():
            i, j = pos[a], pos[b]
            w = tuple(vec[order[r]] for r in range(n))
            if i < j:
                out[(i, j)] = w
            else:
                out[(j, i)] = tuple(-x for x in w)
        return _tensor(n, out)

    def __eq__(self, other):
        if not isinstance(other, StructureTensor):
            return NotImplemented
        if self.n != other.n:
            return False
        keys = set(self.brackets) | set(other.brackets)
        return all(self.bracket_basis(i, j) == other.bracket_basis(i, j) for i, j in keys)

    def __hash__(self):
        return hash((self.n, tuple(self.items())))

    def __repr__(self):
        parts = ", ".join(f"[{i + 1},{j + 1}]->{list(v)}" for (i, j), v in self.items())
        return f"StructureTensor(n={self.n}, {parts})"


def _tensor(n: int, brackets: dict) -> StructureTensor:
    """A tensor the program built itself: keys 0 <= i < j < n, nonzero
    vectors of length n with canonical exact entries.  No checks."""
    t = object.__new__(StructureTensor)
    t.n = n
    t.brackets = brackets
    return t


def _adjacency(t: StructureTensor) -> list:
    """adj[a][b]: the nonzero (m, c) of [X_a, X_b] = sum c X_m, for every
    pair with a nonzero bracket, in both signs."""
    adj: list = [{} for _ in range(t.n)]
    for (i, j), vec in t.brackets.items():
        nz = [(m, x) for m, x in enumerate(vec) if x]
        adj[i][j] = nz
        adj[j][i] = [(m, -x) for m, x in nz]
    return adj


def _ad_row(adj: list, u: Sequence[Scalar]) -> dict:
    """b -> [u, X_b] as {m: coefficient}, for each b that a nonzero
    bracket [X_a, X_b] with u[a] != 0 reaches."""
    row: dict = {}
    for a, x in enumerate(u):
        if x:
            for b, nz in adj[a].items():
                acc = row.get(b)
                if acc is None:
                    row[b] = {m: x * c for m, c in nz}
                else:
                    for m, c in nz:
                        o = acc.get(m)
                        acc[m] = x * c if o is None else o + x * c
    return row


def _bracket_from(row: dict, v: Sequence[Scalar]) -> dict:
    """[u, v] = sum_b v[b] [u, X_b] as {m: coefficient}, from u's
    ``_ad_row``."""
    acc: dict = {}
    for b, ub in row.items():
        y = v[b]
        if y:
            for m, c in ub.items():
                o = acc.get(m)
                acc[m] = y * c if o is None else o + y * c
    return acc


def _dense(pairs, n: int) -> list:
    """The length-n vector with the given (m, coefficient) entries."""
    out: list = [0] * n
    for m, c in pairs:
        out[m] = c
    return out


class ValidationReport(Record):
    __slots__ = ("ok", "triple", "residual")

    def __init__(
        self,
        ok: bool,
        triple: Optional[tuple] = None,  # 1-based (i, j, k) of the first failure
        residual: Optional[Vec] = None,
    ):
        self._set(ok, triple, residual)

    def __bool__(self):
        return self.ok


def validate(t: StructureTensor) -> ValidationReport:
    """Check the Jacobi identity on the basis triples; a violation is a
    value (first failing triple plus residual), not an exception.

    A triple i < j < k none of whose pairs has a nonzero bracket has a
    zero Jacobi sum, so only the triples that touch a nonzero bracket are
    visited, in lexicographic order, and each term [[X_p, X_q], X_s] is
    formed from the nonzero bracket entries alone."""
    n = t.n
    ad = _adjacency(t)

    def add_term(acc, p, q, s):
        # acc += [[X_p, X_q], X_s] = sum_r c_pq^r [X_r, X_s]
        for r, c in ad[p].get(q, ()):
            for m, y in ad[r].get(s, ()):
                o = acc.get(m)
                acc[m] = c * y if o is None else o + c * y

    for i in range(n):
        adi = ad[i]
        for j in range(i + 1, n):
            if j in adi:
                ks = range(j + 1, n)
            elif adi or ad[j]:
                ks = sorted({k for k in adi if k > j} | {k for k in ad[j] if k > j})
            else:
                continue
            for k in ks:
                acc: dict = {}
                add_term(acc, i, j, k)
                add_term(acc, k, i, j)
                add_term(acc, j, k, i)
                if any(acc.values()):
                    r = tuple(acc.get(m, 0) for m in range(n))
                    return ValidationReport(False, (i + 1, j + 1, k + 1), r)
    return ValidationReport(True)


class BasisChange:
    """Invertible change of basis; columns are the new basis vectors in old
    coordinates.  ``BasisChange(matrix)`` checks a matrix from outside and
    inverts it by elimination; a change built with its inverse, as a
    `Frame`'s witness, comes from `_basis_change`."""

    __slots__ = ("matrix", "inverse")

    def __init__(self, matrix: Mat):
        if not matrix.is_square:
            raise DimensionError("basis change must be square")
        try:
            self.inverse = inverse(matrix)
        except Exception as exc:
            raise SingularTransform(str(exc)) from exc
        self.matrix = matrix

    @staticmethod
    def identity(n: int) -> "BasisChange":
        e = Mat.identity(n)
        return _basis_change(e, e)

    def then(self, other: "BasisChange") -> "BasisChange":
        """First this change, then `other` expressed in the new basis."""
        return _basis_change(self.matrix @ other.matrix, other.inverse @ self.inverse)

    def __repr__(self):
        return f"BasisChange({self.matrix!r})"


def _basis_change(matrix: Mat, inverse: Mat) -> BasisChange:
    """A basis change the program built with its inverse: square matrices
    whose product is the identity.  No checks."""
    b = object.__new__(BasisChange)
    b.matrix = matrix
    b.inverse = inverse
    return b


def _front_loaded(t: StructureTensor, rows: Sequence[Vec], pivots: list, rest: list) -> StructureTensor:
    """``t`` in the basis R_1..R_k, X_c (c in ``rest``), R_r being the
    reduced-echelon rows of an ideal that holds every bracket.

    R_r is 1 at its pivot p_r and 0 at the other pivots, so a vector v of
    the ideal is sum_r v[p_r] R_r: each bracket is read at the pivots,
    and the brackets [R_r, .] are formed at the pivots alone, from the
    input's brackets read there."""
    n, k = t.n, len(rows)
    tail = (0,) * (n - k)
    pos = {c: k + s for s, c in enumerate(rest)}
    adj: list = [{} for _ in range(n)]  # as `_adjacency`, in the coordinates of the R_r
    out = {}
    for (i, j), vec in t.brackets.items():
        nz = [(r, vec[p]) for r, p in enumerate(pivots) if vec[p]]
        if nz:
            adj[i][j] = nz
            adj[j][i] = [(r, -x) for r, x in nz]
            if i in pos and j in pos:
                out[(pos[i], pos[j])] = tuple(vec[p] for p in pivots) + tail
    for r, row in enumerate(rows):
        ad = _ad_row(adj, row)
        for s in range(r + 1, k):
            w = _bracket_from(ad, rows[s])
            if any(w.values()):
                out[(r, s)] = tuple(w.get(q, 0) for q in range(k)) + tail
        for b, w in ad.items():
            if b in pos and any(w.values()):
                out[(r, pos[b])] = tuple(w.get(q, 0) for q in range(k)) + tail
    return _tensor(n, out)


def _inverse_columns(repl: Mapping[int, Sequence[Scalar]], n: int) -> dict:
    """{j: column j of the inverse} of the n x n basis change that differs
    from the identity in the columns `repl` alone, each given dense.
    With those columns first, the change is [[A, 0], [B, I]] and its
    inverse [[A^-1, 0], [-B A^-1, I]]: only A is inverted, and a singular
    A raises SingularInput.  When every column moves, B is empty and the
    columns are A^-1's."""
    cols = sorted(repl)
    block = [[repl[j][i] for j in cols] for i in cols]
    if all(x == 0 for p, row in enumerate(block) for q, x in enumerate(row) if p != q):
        # diagonal, as the block of every shear and rescaling step:
        # inverted entry by entry, to the values `inverse` would give
        if any(row[p] == 0 for p, row in enumerate(block)):
            raise SingularInput("matrix is not invertible")
        a_inv = [[exdiv(1, x) if p == q else 0 for q, x in enumerate(row)]
                 for p, row in enumerate(block)]
    else:
        a_inv = inverse(_mat(block)).data
    if len(cols) == n:
        return dict(zip(cols, zip(*a_inv)))
    # B by columns: the nonzero entries of each replaced column off the block
    b = [[(r, x) for r, x in enumerate(repl[i]) if x and r not in repl] for i in cols]
    inv_cols = {}
    for j, a_col in zip(cols, zip(*a_inv)):
        col: list = [0] * n
        for i, f, b_col in zip(cols, a_col, b):
            if f:
                col[i] = f
                for r, x in b_col:
                    col[r] = col[r] - x * f
        inv_cols[j] = col
    return inv_cols


class Frame:
    """Running tensor plus the accumulated basis change of a normalization.

    Built from a tensor and the reduced-echelon rows R_1..R_k of an ideal
    that holds every bracket (the derived ideal, or one above it), which
    it moves to the front: the opening basis is R_1..R_k, then the X_c
    off the rows' pivots in ascending order, so that X_1..X_k span the
    ideal.  The opening tensor is read off the input at the pivots, with
    no elimination and no transform (see `_front_loaded`).  Every step
    updates the tensor and the total together, and `witness` audits the
    total, the opening included, by transporting the normal form back to
    the input by its inverse.  The adjoint restrictions a_{X_i} to the
    ideal are read off the running table (`adjoint`, `flat_adjoints`).
    `absorb` clears the brackets of vectors with acting vectors whose
    summed adjoint is invertible, and `clear_adjoints` every adjoint
    outside the span's generators, each in one step.
    """

    __slots__ = ("input", "t", "n", "k", "_tot_cols")

    def __init__(self, tensor: StructureTensor, ideal_rows: Sequence[Vec]):
        n, k = tensor.n, len(ideal_rows)
        self.input = tensor
        self.n, self.k = n, k
        pivots = [next(c for c, x in enumerate(row) if x) for row in ideal_rows]
        taken = set(pivots)
        rest = [c for c in range(n) if c not in taken]
        self._tot_cols = [tuple(row) for row in ideal_rows] + [
            (0,) * c + (1,) + (0,) * (n - 1 - c) for c in rest
        ]
        self.t = _front_loaded(tensor, ideal_rows, pivots, rest)

    @property
    def total(self) -> Mat:
        return _mat(zip(*self._tot_cols))

    def step_cols(self, repl: Mapping[int, Mapping[int, Scalar]]):
        """Replace the given columns of the identity by new basis vectors
        in current coordinates, each given as {i: coefficient of X_i}
        (an index not listed is 0); no columns is no step.

        Its inverse is `_inverse_columns` (a singular block raises
        SingularInput and leaves the frame as it was), so the tensor
        always takes the sparse path.
        """
        if not repl:
            return
        n = self.n
        dense = {j: _dense(v.items(), n) for j, v in repl.items()}
        self.t = self.t.transform_sparse(dense, _inverse_columns(dense, n))
        # total @ step differs from total only in the replaced columns
        old = list(self._tot_cols)
        for j, v in repl.items():
            acc = [0] * n
            for i, c in v.items():
                if c != 0:
                    for r, x in enumerate(old[i]):
                        if x != 0:
                            acc[r] = acc[r] + c * x
            self._tot_cols[j] = tuple(acc)

    def absorb(self, acting: Sequence[int], targets: Sequence[int]):
        """Clear every [X_i, X_t], i in `acting`, t in `targets`, by one
        step X_t += u_t with u_t in the front ideal.

        [X_i, X_t + u] = [X_i, X_t] + a_i u, so when s = sum_i a_{X_i} is
        invertible, u_t = -s^-1 sum_i [X_i, X_t] is the only u that can
        clear them all (a singular s raises SingularInput and leaves the
        frame as it was).  ImpossibleBranch when a bracket is left, as
        when no u clears them all."""
        sums = {}
        for t in targets:
            w = self.bracket(acting[0], t)
            for i in acting[1:]:
                w = [x + y for x, y in zip(w, self.bracket(i, t))]
            if any(w):
                sums[t] = w
        if sums:
            s_inv = inverse(sum((self.adjoint(i) for i in acting[1:]), self.adjoint(acting[0])))
            self.step_cols({t: {t: 1, **{r: -x for r, x in enumerate(s_inv.apply(w)) if x}}
                            for t, w in sums.items()})
        if any(any(self.bracket(i, t)) for i in acting for t in targets):
            raise ImpossibleBranch("a bracket with an acting vector is left after absorbing")

    def clear_adjoints(self, candidates: Sequence[int], slots: Sequence[int]) -> int:
        """Move the generators of the span of the a_{X_c}, c in
        `candidates`, to `slots` and make every other candidate's adjoint
        0; returns their number.

        The generators are the candidates, in the order given, whose
        adjoint is outside the span of those before (`span_coordinates`,
        on one read of the adjoints).  Each moves to its slot by a
        transposition, and every other candidate X_c becomes X_c minus
        its combination of the generators, in one step.  More generators
        than slots is ImpossibleBranch, and so is an adjoint that
        survives the shift."""
        k = self.k
        flat = self.flat_adjoints()
        gens, coords = span_coordinates([flat[c - k] for c in candidates])
        if len(gens) > len(slots):
            raise ImpossibleBranch("adjoint span exceeds the commutative bound")
        order = list(range(self.n))
        for g, s in zip(gens, slots):
            p = order.index(candidates[g])
            order[s], order[p] = order[p], order[s]
        self.step_perm(order)
        where = {c: j for j, c in enumerate(order)}
        rest = {where[candidates[i]]: xs for i, xs in coords.items()}
        self.step_cols({j: {j: 1, **{s: -x for s, x in zip(slots, xs) if x}}
                        for j, xs in rest.items() if any(xs)})
        if any(j < k and i in rest for j, i in self.t.brackets):
            raise ImpossibleBranch("clearing the adjoints left a nonzero adjoint")
        return len(gens)

    def step_perm(self, order: Sequence[int]):
        """Column j of the step is e_{order[j]}: new X_j := old X_{order[j]};
        the identity order is no step."""
        if all(o == j for j, o in enumerate(order)):
            return
        self.t = self.t.permute(order)
        self._tot_cols = [self._tot_cols[o] for o in order]

    def bracket(self, i: int, j: int) -> tuple:
        """[X_i, X_j] in the coordinates of X_1..X_k; it must lie there."""
        k = self.k
        vec = self.t.brackets.get((i, j) if i < j else (j, i))
        if vec is None:
            return (0,) * k
        if any(vec[k:]):
            raise ImpossibleBranch("bracket left the front ideal")
        return vec[:k] if i < j else tuple(-x for x in vec[:k])

    def row(self, i: int) -> dict:
        """{j: [X_i, X_j]} for the X_j with a nonzero bracket with X_i, in
        ascending j, read off the running table."""
        js = [b for a, b in self.t.brackets if a == i] + [a for a, b in self.t.brackets if b == i]
        return {j: self.bracket(i, j) for j in sorted(js)}

    def far(self, lo: int) -> dict:
        """{(i, j): [X_i, X_j]} for the nonzero brackets with lo <= i < j."""
        return {(i, j): self.bracket(i, j) for i, j in self.t.brackets if i >= lo}

    def adjoint(self, i: int) -> Mat:
        """ad_{X_i} restricted to span(X_1..X_k), in that basis."""
        return _mat(zip(*[self.bracket(i, j) for j in range(self.k)]))

    def flat_adjoints(self) -> list:
        """a_{X_i} for i = k+1..n, each flattened row by row: entry (r, c)
        of a_{X_i}, coordinate r of [X_i, X_c], is at r * k + c."""
        k = self.k
        out = []
        for i in range(k, self.n):
            cols = [self.bracket(i, c) for c in range(k)]
            out.append(tuple(col[r] for r in range(k) for col in cols))
        return out

    def witness(self, target: Optional[StructureTensor] = None) -> BasisChange:
        """The accumulated basis change, once the running tensor is
        `target` (when one is given) and an independent transport of the
        running tensor back by the exact inverse gives the input.

        Transport is invertible, so this proves the same identity as
        transporting the input forward by the total; it is run from the
        normal form, which has few and sparse brackets, and still checks
        every pair (i, j) exactly.  The inverse comes from the total alone,
        whose unmoved columns are e_j: `_inverse_columns` of the moved
        ones, which alone the transport replaces.  A singular total raises
        SingularTransform."""
        if target is not None and self.t != target:
            raise ImpossibleBranch(f"normalized to {self.t!r}, want {target!r}")
        tot = self._tot_cols
        moved = {
            j: col for j, col in enumerate(tot) if col[j] != 1 or any(col[:j]) or any(col[j + 1 :])
        }
        try:
            inv = _inverse_columns(moved, self.n)
        except SingularInput as exc:
            raise SingularTransform(str(exc)) from exc
        back = self.t.transform_sparse(inv, moved)
        if back != self.input:
            raise ImpossibleBranch(
                f"witness transport failed: got {back!r}, want {self.input!r}"
            )
        # an unmoved column of the inverse is e_j, the total's own column
        return _basis_change(self.total, _mat(zip(*[inv.get(j, col) for j, col in enumerate(tot)])))


def span_rows(vectors: Sequence[Vec]) -> list[Vec]:
    """Reduced-echelon basis of the span; zero vectors are dropped before
    the elimination."""
    nonzero = [v for v in vectors if not vec_is_zero(v)]
    return row_space(_mat(nonzero)) if nonzero else []


def bracket_span(t: StructureTensor, basis_a: Sequence[Vec], basis_b: Sequence[Vec]) -> list[Vec]:
    adj = _adjacency(t)
    vecs = []
    for u in basis_a:
        row = _ad_row(adj, u)
        if row:
            for v in basis_b:
                w = _bracket_from(row, v)
                if any(w.values()):
                    vecs.append(_dense(w.items(), t.n))
    return span_rows(vecs)


def standard_basis(n: int) -> list[Vec]:
    return [(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)]


def derived_ideal_t(t: StructureTensor) -> list[Vec]:
    """[g, g], the span of the table's bracket vectors [X_i, X_j]."""
    return span_rows(list(t.brackets.values()))


def derived_series_t(t: StructureTensor) -> list[list[Vec]]:
    series = [standard_basis(t.n)]
    nxt = derived_ideal_t(t)
    adj = _adjacency(t)
    while len(nxt) < len(series[-1]):
        series.append(nxt)
        if not nxt:
            break
        # [u, u] = 0 and [v, u] = -[u, v]: one bracket per pair a < b
        vecs = []
        for a, u in enumerate(nxt):
            row = _ad_row(adj, u)
            if row:
                for v in nxt[a + 1 :]:
                    w = _bracket_from(row, v)
                    if any(w.values()):
                        vecs.append(_dense(w.items(), t.n))
        nxt = span_rows(vecs)
    return series


def checked_derived_series(t: StructureTensor) -> list[list[Vec]]:
    """The derived series g, g', ..., 0 of a solvable Lie algebra; else NotInClass."""
    rep = validate(t)
    if not rep.ok:
        raise NotInClass("JacobiFails", f"first failing triple {rep.triple}")
    series = derived_series_t(t)
    if series[-1]:
        raise NotInClass("NotSolvable")
    return series


def lower_central_series_t(t: StructureTensor) -> list[list[Vec]]:
    full = standard_basis(t.n)
    series = [full]
    nxt = derived_ideal_t(t)
    while len(nxt) < len(series[-1]):
        series.append(nxt)
        if not nxt:
            break
        nxt = bracket_span(t, full, nxt)
    return series


def _center_system(adj: list, span: Optional[Echelon] = None) -> list[list]:
    """The nonzero rows of the linear map x -> ([x, X_j])_j, each column
    [X_i, X_j] reduced modulo ``span`` when one is given.  Only the
    nonzero brackets of the adjacency ``adj`` are read: the kernel is the
    same as with the n^2 rows of the n ad matrices, zero rows included."""
    n = len(adj)
    rows = []
    for j in range(n):
        by_m: dict = {}  # m -> {i: coefficient of X_m in [X_i, X_j]}
        for i in adj[j]:
            col = adj[i][j]
            if span is not None and span.dim:
                col = [(m, x) for m, x in enumerate(span.reduce(_dense(col, n))) if x]
            for m, x in col:
                by_m.setdefault(m, {})[i] = x
        for m in sorted(by_m):
            rows.append(_dense(by_m[m].items(), n))
    return rows


def center_t(t: StructureTensor) -> list[Vec]:
    n = t.n
    rows = _center_system(_adjacency(t))
    kern = kernel_basis(_mat(rows)) if rows else standard_basis(n)
    return span_rows(kern)


def upper_central_dims_t(t: StructureTensor) -> list[int]:
    """Dimensions of the upper central series until it stabilizes.

    C_(k+1) is the kernel of x -> ([e_i, x] mod C_k)_i.  It contains C_k,
    so one echelon spans every C_k in turn: each round adds the kernel
    basis, whose vectors in C_k are skipped."""
    n = t.n
    adj = _adjacency(t)
    span = Echelon()  # spans C_k, starting at C_0 = 0
    dims = []
    for _ in range(n + 1):
        if span.dim == n:
            break
        rows = _center_system(adj, span)
        kern = kernel_basis(_mat(rows)) if rows else standard_basis(n)
        if len(kern) == span.dim:
            break
        for v in kern:
            span.add(v)
        dims.append(span.dim)
    return dims


def adjoint_algebra_t(t: StructureTensor):
    """Adjoint restriction algebra on the derived ideal g', which must be
    abelian (else NonAbelianDerivedIdeal).

    Returns (the canonical basis of the span of the restrictions a_x as
    matrices in the basis of the reduced-echelon rows of g', its
    dimension), read off the `Frame` that moves g' to the front; ([], 0)
    when g' = 0."""
    g1 = derived_ideal_t(t)
    k = len(g1)
    if k == 0:
        return [], 0
    fr = Frame(t, g1)
    if any(j < k for _, j in fr.t.brackets):
        raise NonAbelianDerivedIdeal("derived ideal is not abelian")
    rows = span_rows(fr.flat_adjoints())
    mats = [_mat([row[r * k : (r + 1) * k] for r in range(k)]) for row in rows]
    return mats, len(mats)


class LieAlgebra:
    """Validated structure tensor with its characteristic data.

    The series and the center are computed on first read and cached (two
    threads reading first may both compute one, to the same value).
    """

    def __init__(self, tensor: StructureTensor):
        self.tensor = tensor

    @cached_property
    def derived_series(self) -> list[list[Vec]]:
        return derived_series_t(self.tensor)

    @cached_property
    def lower_central_series(self) -> list[list[Vec]]:
        return lower_central_series_t(self.tensor)

    @cached_property
    def upper_central_dims(self) -> list[int]:
        return upper_central_dims_t(self.tensor)

    @cached_property
    def center(self) -> list[Vec]:
        return center_t(self.tensor)

    @property
    def solvable(self) -> bool:
        return not self.derived_series[-1]

    @property
    def nilpotent(self) -> bool:
        return not self.lower_central_series[-1]

    @property
    def nilpotency_step(self) -> Optional[int]:
        if self.nilpotent and len(self.lower_central_series) >= 2:
            return len(self.lower_central_series) - 1
        return None

    @property
    def dim(self) -> int:
        return self.tensor.n

    def validate(self) -> ValidationReport:
        return validate(self.tensor)

    def bracket(self, u, v) -> Vec:
        return self.tensor.bracket(u, v)

    def change_basis(self, t: BasisChange) -> "LieAlgebra":
        if t.matrix.rows != self.dim:
            raise DimensionError("basis change dimension mismatch")
        return LieAlgebra(self.tensor.transform(t.matrix, t.inverse))

    def adjoint_algebra(self):
        return adjoint_algebra_t(self.tensor)

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return self.tensor == other.tensor

    def __hash__(self):
        return hash(self.tensor)

    def __repr__(self):
        return f"LieAlgebra({self.tensor!r})"


def direct_sum(*tensors: StructureTensor) -> StructureTensor:
    """Direct sum with blocks in the given order."""
    n = sum(t.n for t in tensors)
    out = {}
    off = 0
    for t in tensors:
        for (i, j), v in t.brackets.items():
            vec: list = [0] * n
            for k, x in enumerate(v):
                vec[off + k] = x
            out[(off + i, off + j)] = tuple(vec)
        off += t.n
    return StructureTensor(n, out)


def abelian_tensor(n: int) -> StructureTensor:
    return StructureTensor(n, {})
