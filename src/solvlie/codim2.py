"""Normalization and isomorphism testing for solvable algebras whose
derived ideal is abelian of codimension 2, in the one-dimensional
adjoint-line regime.

The normalized data is either a splitting G = R + Ghat (decomposable
case), or the pair ([Z, Y] = X_{n-2}, a_Z = Abar) with Abar in one of the
two rank-(n-3) block shapes; two structure matrices give isomorphic
algebras exactly when they are proportionally similar, and the isomorphism
is materialized as a block matrix and checked by exact bracket transport.
The normalizing basis change is audited the same way: `normalize_codim2`
returns a witness only after an independent transport of the normalized
tensor back by its inverse has reproduced the input.

The opening finds the derived ideal g' before it checks anything else.
An abelian g' makes g'' = 0, so the algebra is solvable and the derived
series is not formed: with dim g' = n - 2 the `Frame` moves g' to the
front, where every bracket goes through Y or Z and lies in g'.  The one
Jacobi sum that can be nonzero, [a_Z, a_Y] X_i of (Y, Z, X_i), vanishes
when the adjoint span is a line and is read off [a_Y, a_Z] on a plane.
An input that fails a check, or whose g' has another dimension, runs the
checks on the input in their documented order, so each rejection is
reported as the full checks report it.
"""

from __future__ import annotations

from typing import Optional

from .errors import ImpossibleBranch, NotInClass, ShapeMismatch, Unsupported
from .liealg import (
    BasisChange,
    Frame,
    LieAlgebra,
    StructureTensor,
    checked_derived_series,
    derived_ideal_t,
    vec_is_zero,
)
from .matrices import Mat, _mat, det, independent_rows, inverse, kernel_basis, row_space, solve
from .records import Record
from .scalars import exdiv

LEFT = "left"
RIGHT = "right"


class Codim2Form(Record):
    """Outcome of the codimension-2 normalization.

    For the structure-matrix case the witness carries the input onto the
    basis (X_1..X_{n-2}, Y, Z) with abelian span(X_i), a_Y = 0,
    [Z, Y] = X_{n-2} and a_Z = a_bar of the recorded block shape.  For the
    decomposable case the last basis vector spans the split line and
    `inner` is the complementary (n-1)-dimensional algebra.
    """

    __slots__ = ("case", "witness", "ambient_dim", "shape", "a_inner", "a_bar", "inner")

    def __init__(
        self,
        case: str,  # "decomposable" | "structure_matrix"
        witness: BasisChange,
        ambient_dim: int,
        shape: Optional[str] = None,  # "left" -> [A 0; 0 0], "right" -> [0 A; 0 0]
        a_inner: Optional[Mat] = None,
        a_bar: Optional[Mat] = None,
        inner: Optional[LieAlgebra] = None,
    ):
        self._set(case, witness, ambient_dim, shape, a_inner, a_bar, inner)


def codim2_tensor(a_bar: Mat) -> StructureTensor:
    """Tensor on (X_1..X_{n-2}, Y, Z) with a_Z = a_bar, [Z, Y] = X_{n-2}."""
    k = a_bar.rows
    n = k + 2
    table = {}
    for j in range(k):
        col = a_bar.col(j)
        if not vec_is_zero(col):
            vec = [0] * n
            for i in range(k):
                vec[i] = -col[i]
            table[(j, n - 1)] = tuple(vec)  # [X_j, Z] = -a_bar e_j
    w = [0] * n
    w[k - 1] = -1
    table[(n - 2, n - 1)] = tuple(w)  # [Y, Z] = -X_{n-2}
    return StructureTensor(n, table)


def normalize_codim2(a) -> Codim2Form:
    """Normal form of a solvable algebra with an abelian derived ideal of
    codimension 2; raises NotInClass otherwise.

    The derived ideal g' comes first: with n >= 4 and dim g' = n - 2 the
    frame moves g' to the front, and g' is abelian when no bracket of two
    front vectors is nonzero, which also makes the algebra solvable; the
    Jacobi identity is read off [a_Y, a_Z].  On any failure the
    input is checked in the order JacobiFails, NotSolvable,
    DimensionTooSmall, DerivedDimNotCodim2, DerivedNotAbelian, and the
    first failing check is raised."""
    tensor = a.tensor if isinstance(a, LieAlgebra) else a
    n = tensor.n
    k = n - 2
    g1 = derived_ideal_t(tensor)
    if n < 4 or len(g1) != k:
        _fail(tensor)
    fr = Frame(tensor, g1)
    if any(j < k for _, j in fr.t.brackets):
        _fail(tensor)
    return _normalize_frame(fr)


def _normalize_frame(fr: Frame) -> Codim2Form:
    """The normalization of an input whose frame has its abelian
    codimension-2 derived ideal in front; it is Lie iff [a_Y, a_Z] = 0."""
    n = fr.n
    k = n - 2
    a_y, a_z = fr.adjoint(n - 2), fr.adjoint(n - 1)
    dim_a = len(independent_rows([sum(a_y.data, ()), sum(a_z.data, ())]))
    if dim_a == 0:
        raise ImpossibleBranch("adjoint line cannot vanish when the derived ideal is large")
    if dim_a == 2:
        if a_y @ a_z != a_z @ a_y:
            _fail(fr.input)
        raise Unsupported("two-dimensional adjoint span on a codimension-2 derived ideal")

    if a_z.is_zero():
        fr.step_perm(list(range(n - 2)) + [n - 1, n - 2])
        a_y, a_z = a_z, a_y
    if not a_y.is_zero():
        # Y -= y Z leaves Z, so a_Z, alone
        lead = next(
            (r, c) for r in range(k) for c in range(k) if a_z[r, c] != 0
        )
        y = exdiv(a_y[lead[0], lead[1]], a_z[lead[0], lead[1]])
        fr.step_cols({n - 2: {n - 2: 1, n - 1: -y}})
        if not fr.adjoint(n - 2).is_zero():
            raise ImpossibleBranch("a_Y must vanish after the line correction")

    kern = kernel_basis(a_z)
    r = k - len(kern)
    if r < k - 1:
        raise ImpossibleBranch("rank of a_Z cannot drop below n - 3")
    if r == k:
        # Y -= a_Z^-1 [Z, Y] clears [Z, Y]
        fr.absorb([n - 1], [n - 2])
    w = fr.bracket(n - 1, n - 2)  # [Z, Y] in derived coords

    if vec_is_zero(w):
        # decomposable: move the split line (Y) to the last position
        fr.step_perm(list(range(n - 2)) + [n - 1, n - 2])
        inner_table = {}
        for (i, j), vec in fr.t.brackets.items():
            if i >= n - 1 or j >= n - 1:
                if not vec_is_zero(vec):
                    raise ImpossibleBranch("split line must decouple")
                continue
            if vec[n - 1] != 0:
                raise ImpossibleBranch("split line must decouple")
            inner_table[(i, j)] = tuple(vec[: n - 1])
        inner = LieAlgebra(StructureTensor(n - 1, inner_table))
        return Codim2Form(
            case="decomposable",
            witness=fr.witness(),
            ambient_dim=n,
            inner=inner,
        )

    if r != k - 1:
        raise ImpossibleBranch("indecomposable case requires a singular a_Z")
    kvec = kern[0]
    im_rows = row_space(a_z.transpose())
    in_im = solve(_mat(zip(*im_rows)), kvec) is not None

    if not in_im:
        # B1: derived = Im + Ker; split [Z, Y] accordingly
        sys_cols = [a_z.col(j) for j in range(k)] + [kvec]
        sol = solve(_mat(zip(*sys_cols)), w)
        if sol is None:
            raise ImpossibleBranch("[Z, Y] must decompose along Im + Ker")
        u = sol[:k]
        vcoef = sol[k]
        if vcoef == 0:
            raise ImpossibleBranch("[Z, Y] cannot lie in the image here")
        new_basis = im_rows + [tuple(vcoef * x for x in kvec)]
        step = {j: dict(enumerate(vec)) for j, vec in enumerate(new_basis)}
        step[n - 2] = {n - 2: 1, **{i: -x for i, x in enumerate(u)}}
        fr.step_cols(step)
        shape = LEFT
    else:
        # B2: kernel sits inside the image
        cands = [kvec] + im_rows
        basis = [cands[i] for i in independent_rows(cands)]
        if len(basis) != k - 1:
            raise ImpossibleBranch("image completion failed")
        basis.append(w)
        fr.step_cols({j: dict(enumerate(vec)) for j, vec in enumerate(basis)})
        shape = RIGHT

    a_bar = fr.adjoint(n - 1)
    w = fr.bracket(n - 1, n - 2)
    want = tuple(1 if i == k - 1 else 0 for i in range(k))
    if w != want:
        raise ImpossibleBranch("[Z, Y] must be the last derived basis vector")
    # LEFT is [A 0; 0 0] and RIGHT [0 A; 0 0]: the last row and one column
    # are zero, and A sits in the other k - 1 columns
    zero_col, off = (k - 1, 0) if shape == LEFT else (0, 1)
    ok_shape = not any(a_bar[i, zero_col] for i in range(k)) and not any(a_bar.row(k - 1))
    a_in = _mat([[a_bar[i, j + off] for j in range(k - 1)] for i in range(k - 1)])
    if not ok_shape or det(a_in) == 0:
        raise ImpossibleBranch(f"structure matrix is not in {shape} block shape")
    return Codim2Form(
        case="structure_matrix",
        witness=fr.witness(codim2_tensor(a_bar)),
        ambient_dim=n,
        shape=shape,
        a_inner=a_in,
        a_bar=a_bar,
    )


def _fail(tensor: StructureTensor):
    """Raise NotInClass for the first check the input fails, in the order
    JacobiFails, NotSolvable, DimensionTooSmall, DerivedDimNotCodim2,
    DerivedNotAbelian."""
    series = checked_derived_series(tensor)
    if tensor.n < 4:
        raise NotInClass("DimensionTooSmall", "need n >= 4")
    if len(series[1]) != tensor.n - 2:
        raise NotInClass("DerivedDimNotCodim2", f"dim of derived ideal is {len(series[1])}")
    if series[2]:
        raise NotInClass("DerivedNotAbelian")
    raise ImpossibleBranch("the input passes the checks that its frame failed")


class Codim2IsoVerdict(Record):
    __slots__ = ("isomorphic", "c", "m_f")
    mode = "exact"  # every verdict is exact; kept for JSON readers

    def __init__(self, isomorphic: bool, c: Optional[object] = None, m_f: Optional[Mat] = None):
        self._set(isomorphic, c, m_f)


def codim2_isomorphic(f1: Codim2Form, f2: Codim2Form, want_witness: bool = True) -> Codim2IsoVerdict:
    """Isomorphism of two structure-matrix forms, with the block isomorphism
    matrix when prop_similar returns a witness C (with its scale c).  With
    want_witness=False, neither C nor the matrix is built; the verdict and
    c are the same."""
    if f1.case != "structure_matrix" or f2.case != "structure_matrix":
        raise ShapeMismatch("isomorphism test needs structure-matrix forms")
    if f1.ambient_dim != f2.ambient_dim:
        raise ShapeMismatch("ambient dimensions differ")
    # imported here, so that normalization alone (`solvlie codim2`) does
    # not compile the Frobenius machinery
    from .propsim import prop_similar

    verdict = prop_similar(f1.a_bar, f2.a_bar, want_witness)
    if not verdict.equivalent:
        return Codim2IsoVerdict(False)
    if verdict.witness is None:
        return Codim2IsoVerdict(True, c=verdict.c)
    m_f = _build_m_f(f1.a_bar, f2.a_bar, verdict.c, verdict.witness)
    return Codim2IsoVerdict(True, c=verdict.c, m_f=m_f)


def _build_m_f(a_bar: Mat, b_bar: Mat, c, cmat: Mat) -> Mat:
    """Assemble the isomorphism matrix diag(C, c, 1/c), correcting the
    derived block so it fixes X_{n-2} modulo the image and absorbing the
    leftover image part into the Y column."""
    k = a_bar.rows
    e_last = tuple(1 if i == k - 1 else 0 for i in range(k))
    img = cmat.apply(e_last)
    kappa = img[k - 1]
    if kappa == 0:
        raise ImpossibleBranch("similarity witness degenerates on X_{n-2}")
    cmat = cmat.scale(exdiv(1, kappa))
    img = cmat.apply(e_last)
    v = tuple(img[i] - e_last[i] for i in range(k))
    u = [0] * k
    if not vec_is_zero(v):
        sol = solve(b_bar, v)
        if sol is None:
            raise ImpossibleBranch("Y-column correction must lie in the image")
        u = [c * x for x in sol]
    rows = []
    for i in range(k):
        rows.append([cmat[i, j] for j in range(k)] + [u[i], 0])
    rows.append([0] * k + [c, 0])
    rows.append([0] * k + [0, exdiv(1, c)])
    m_f = _mat(rows)
    # exact bracket transport: the target tensor in the m_f basis is the source
    if codim2_tensor(b_bar).transform(m_f, inverse(m_f)) != codim2_tensor(a_bar):
        raise ImpossibleBranch("isomorphism matrix failed bracket transport")
    return m_f
