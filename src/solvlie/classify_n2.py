"""Classifier for solvable algebras with a 2-dimensional derived ideal.

The normalization runs as a pipeline of elementary basis changes on one
`liealg.Frame`.  The steps are audited, not logged: at the end the
running tensor must be the canonical tensor of the reported class, and
transporting it back by the inverse of the accumulated transform must give
the input tensor.  Dispatch runs on the generators of the
adjoint-restriction span: one step, `Frame.clear_adjoints`, moves them to
X_3 (and X_4) and shifts every other X_i by its combination of them to
a_{X_i} = 0, and their number is the dimension of the span.  None is the
two-step nilpotent regime (labelled, not classified further; its witness
is the opening's basis change, audited the same way against the opening
tensor), one runs the singular/non-singular pipelines on a_{X_3}, two run
the commuting-pair pipeline on both.  That pipeline still checks first that
the pair commutes; then the type of A_G is read off the spectrum of one
generator, since a commuting pair lies in the centralizer span(I, m) of
any non-scalar m among them, so A_G = span(I, m).  The type gives only
data, and one tail normalizes all three types.  Brackets with an
invertible adjoint, or an invertible sum of adjoints, are cleared in one
step, `Frame.absorb`, that shifts the other vectors by elements of g'.

The opening finds the derived ideal g' before it checks anything else.
When dim g' = 2 the algebra is solvable whatever the brackets are: g''
is spanned by the one bracket [u, v] of a basis u, v of g', so
dim g'' <= 1 and g''' = 0.  So the derived series is not formed, and the
Jacobi identity is not checked before the normalization: a result that
is returned proves it.  With a canonical target the audited witness
carries the input onto a canonical Lie algebra; in the two-step regime
g' is central and holds every bracket, so every [[x, y], z] is 0.  When
the normalization raises, the input is checked for the Jacobi identity:
a failure is reported as JacobiFails, and otherwise the normalization's
exception stands.  An input whose g' has another dimension runs the
checks on the input in their documented order (Jacobi, solvability,
dim g'), so each rejection is reported as the full checks report it.
"""

from __future__ import annotations

from typing import Optional

from . import catalog, labels
from .errors import ImpossibleBranch, NotInClass, Unsupported
from .labels import ClassLabel
from .liealg import (
    BasisChange,
    Frame,
    LieAlgebra,
    StructureTensor,
    checked_derived_series,
    derived_ideal_t,
)
from .matrices import (
    Mat,
    _mat,
    cyclic_conjugator_2x2,
    det,
    eigenvector_2x2,
    first_non_kernel,
    inverse,
    kernel_basis,
    solve,
    span_coordinates,
    spectral_classify_2x2,
)
from .propsim import propsim_classify_gl2
from .records import Record
from .scalars import exdiv, format_scalar, is_rational, sqrt_exact


class Witness(Record):
    """Invertible basis change carrying the input onto the canonical
    structure constants of the target class."""

    __slots__ = ("transform", "target", "canonical")

    def __init__(
        self,
        transform: BasisChange,
        target: ClassLabel,
        canonical: Optional[StructureTensor],  # None only for the 2-step regime
    ):
        self._set(transform, target, canonical)


class Classification(Record):
    __slots__ = ("label", "witness")

    def __init__(self, label: ClassLabel, witness: Witness):
        self._set(label, witness)


def _embed_g1(c: Mat) -> dict:
    """Column replacements conjugating the derived-ideal basis by c."""
    return {0: {0: c[0, 0], 1: c[1, 0]}, 1: {0: c[0, 1], 1: c[1, 1]}}


def classify_n2(a) -> Classification:
    """Full classification of a solvable algebra with
    2-dimensional derived ideal; raises NotInClass otherwise.

    Accepts a LieAlgebra or a bare StructureTensor.  The derived ideal g'
    comes first: it must be 2-dimensional, which makes the algebra
    solvable; otherwise the input is checked in the order JacobiFails,
    NotSolvable, DerivedDimNot2, and the first failing check is raised.
    The normalization runs on the frame that moves g' to the front.  A
    classification it returns proves the Jacobi identity (see the module
    docstring); if it raises, an input that fails Jacobi raises
    JacobiFails in its place."""
    tensor = a.tensor if isinstance(a, LieAlgebra) else a
    g1 = derived_ideal_t(tensor)
    if len(g1) != 2:
        _fail(tensor)
    try:
        return _classify_frame(Frame(tensor, g1))
    except Exception as exc:
        error = exc
    checked_derived_series(tensor)  # JacobiFails in place of the error
    raise error


def _classify_frame(pipe: Frame) -> Classification:
    """The normalization of an input whose frame has its 2-dim derived
    ideal in front.  On an input that fails the Jacobi identity any step
    may raise, an ImpossibleBranch check included."""
    if (0, 1) in pipe.t.brackets:
        raise ImpossibleBranch("derived ideal of a validated solvable algebra must be abelian")

    dim = pipe.clear_adjoints(range(2, pipe.n), (2, 3))
    if not dim:
        label = ClassLabel(labels.TWO_STEP_NILPOTENT)
        return Classification(label, Witness(pipe.witness(), label, None))

    if dim == 1:
        a3 = pipe.adjoint(2)
        if det(a3) != 0:
            label = _invertible_action_pipeline(pipe, a3)
        else:
            label = _singular_action_pipeline(pipe, a3)
    else:
        label = _adjoint_plane_pipeline(pipe)

    canonical = catalog.build_tensor(label)
    return Classification(label, Witness(pipe.witness(canonical), label, canonical))


def _fail(tensor: StructureTensor):
    """Raise NotInClass for the first check the input fails, in the order
    JacobiFails, NotSolvable, DerivedDimNot2."""
    g1 = checked_derived_series(tensor)[1]
    if len(g1) != 2:
        raise NotInClass("DerivedDimNot2", f"dim of derived ideal is {len(g1)}")
    raise ImpossibleBranch("the input passes the checks that its frame failed")


# ----------------------------------------------------------------------
# dim A_G = 1
# ----------------------------------------------------------------------


def _invertible_action_pipeline(pipe: Frame, a3: Mat) -> ClassLabel:
    """Non-singular a_{X_3}: the algebra splits off an abelian tail and the
    core is one of the three 3-dimensional families."""
    if pipe.far(3):
        raise ImpossibleBranch("brackets beyond X3 must vanish when a_X3 is invertible")
    pipe.absorb([2], range(3, pipe.n))
    cls = propsim_classify_gl2(a3)
    if not is_rational(cls.j):
        raise Unsupported(f"irrational key j = {format_scalar(cls.j)} of the 3-dimensional action")
    gl2 = _embed_g1(cls.cmat)
    gl2[2] = {2: cls.c}
    pipe.step_cols(gl2)
    d = pipe.n - 3
    if cls.family == "diag":
        return ClassLabel(labels.G3_2_1, abelian_ext=d, lam=cls.lam, j=cls.j)
    if cls.family == "jordan":
        return ClassLabel(labels.G3_2_2, abelian_ext=d)
    return ClassLabel(labels.G3_2_3, abelian_ext=d, j=cls.j, cos_sign=cls.cos_sign)


def _singular_action_pipeline(pipe: Frame, a3: Mat) -> ClassLabel:
    """Singular nonzero a_{X_3}; the trace decides between the projector
    and nilpotent shapes, then chain reduction sorts the skew data."""
    n = pipe.n
    if n < 4:
        raise ImpossibleBranch("singular adjoint with a 2-dim derived ideal needs n >= 4")
    tr = a3.trace()
    if tr != 0:
        _case1_shape(pipe, a3, tr)
        anchored, p = _chain_assemble(pipe, anchor=2)
        if anchored is not None:
            if p == 0:
                return ClassLabel(labels.G4_2_1, abelian_ext=n - 4)
            return ClassLabel(labels.G6P2K_2_1, abelian_ext=n - 6 - 2 * (p - 1), k=p - 1)
        if p == 0:
            raise ImpossibleBranch("case 1 without anchor needs at least one pair")
        return ClassLabel(labels.AFFR_PLUS_HEIS, abelian_ext=n - 3 - 2 * p, m=p)
    _case2_shape(pipe, a3)
    anchored, p = _chain_assemble(pipe, anchor=3)
    if anchored is not None:
        return ClassLabel(labels.G5P2K_2, abelian_ext=n - 5 - 2 * p, k=p)
    if p == 0:
        pipe.step_perm([1, 0] + list(range(2, n)))
        return ClassLabel(labels.G4_2_2, abelian_ext=n - 4)
    return ClassLabel(labels.G6P2K_2_2, abelian_ext=n - 6 - 2 * (p - 1), k=p - 1)


def _case1_shape(pipe: Frame, a3: Mat, tr):
    """Normalize a_{X_3} to the rank-one projector and clear the
    X_1-components of all remaining brackets."""
    shifted = a3 - Mat.identity(2).scale(tr)
    v_eig = kernel_basis(shifted)[0]
    v_ker = kernel_basis(a3)[0]
    gl2 = _embed_g1(_mat(zip(v_eig, v_ker)))
    gl2[2] = {2: exdiv(1, tr)}
    pipe.step_cols(gl2)
    if pipe.adjoint(2) != Mat([[1, 0], [0, 0]]):
        raise ImpossibleBranch("projector normalization failed")
    pipe.step_cols({k: {k: 1, 0: -y} for k, (y, _) in pipe.row(2).items() if k >= 3 and y != 0})
    if any(w[0] != 0 for w in pipe.far(3).values()):
        raise ImpossibleBranch("X1-component of a far bracket survived Jacobi")


def _case2_shape(pipe: Frame, a3: Mat):
    """Nilpotent a_{X_3}: reach [X_3, X_1] = X_2, [X_3, X_4] = X_1 with all
    other [X_3, .] zero."""
    n = pipe.n
    w = first_non_kernel(a3)
    pipe.step_cols(_embed_g1(_mat(zip(w, a3.apply(w)))))
    if pipe.adjoint(2) != Mat([[0, 0], [1, 0]]):
        raise ImpossibleBranch("nilpotent normalization failed")
    pipe.step_cols({k: {k: 1, 0: -c2} for k, (_, c2) in pipe.row(2).items() if k >= 3 and c2 != 0})
    if any(w[0] != 0 for w in pipe.far(3).values()):
        raise ImpossibleBranch("X1-component of a far bracket survived Jacobi")
    k0 = next((k for k, (z, _) in pipe.row(2).items() if k >= 3 and z != 0), None)
    if k0 is None:
        raise ImpossibleBranch("derived ideal cannot be 2-dimensional without a z-coefficient")
    order = list(range(n))
    order[3], order[k0] = order[k0], order[3]
    pipe.step_perm(order)
    pipe.step_cols({3: {3: exdiv(1, pipe.bracket(2, 3)[0])}})
    pipe.step_cols({k: {k: 1, 3: -z} for k, (z, _) in pipe.row(2).items() if k >= 4 and z != 0})
    row = pipe.row(2)
    if row.get(3) != (1, 0) or any(k >= 4 for k in row):
        raise ImpossibleBranch("chain seed normalization failed")


def _chain_normalize(pipe: Frame, anchor: int):
    """Greedy chain reduction of the X_2-component skew data on the block
    X_{anchor+2}..X_n seeded at `anchor`, followed by the parity
    telescopings and the same procedure on the untouched residual.

    The moves run on the skew Gram matrix W of those components inside
    {anchor} + block, read off the table once.  Every move replaces a
    vector of {anchor} + block by a combination of them and leaves X_1,
    X_2 alone, so W transforms by congruence: rescaling X_t by c scales
    row and column t of W by c, and X_t += c X_s adds c times row and
    column s to row and column t.  The moves are composed into one column
    map and applied to the frame in one step, the exact product of the
    moves, and the table is checked afterwards.

    Returns (anchored_partner_or_None, list of pair index tuples, leftover
    indices); afterwards the only nonzero X_2-component brackets inside
    {anchor} + block are [anchor, partner] and the listed pairs, each with
    coefficient one.
    """
    n = pipe.n
    block = list(range(anchor + 1, n))
    gram: dict = {i: {} for i in range(anchor, n)}  # nonzero entries only
    for (i, j), vec in pipe.t.brackets.items():
        if i >= anchor and vec[1] != 0:
            gram[i][j] = vec[1]
            gram[j][i] = -vec[1]
    cols: dict = {}  # {t: {m: c}}: X_t is now sum c X_m of the X_m on entry

    def move(t, comb):
        # X_t := sum c X_m over comb, in current vectors: row and column t
        # of W become the same combination of rows and columns (W[t][t]
        # stays 0 by skew symmetry), and so does X_t over the entry basis
        row, col = {}, {}
        for m, c in comb.items():
            for r, x in gram[m].items():
                if r != t:
                    row[r] = row.get(r, 0) + c * x
            for r, x in cols.get(m, {m: 1}).items():
                col[r] = col.get(r, 0) + c * x
        for r in gram[t]:
            del gram[r][t]
        gram[t] = {r: x for r, x in row.items() if x != 0}
        for r, x in gram[t].items():
            gram[r][t] = -x
        cols[t] = {r: x for r, x in col.items() if x != 0}

    remaining = list(block)
    chains: list[list[int]] = []  # head index, then the chain vertices
    head = anchor
    while True:
        chain = [head]
        while True:
            row = gram[chain[-1]]
            nxt = next((r for r in remaining if r in row), None)
            if nxt is None:
                break
            if row[nxt] != 1:
                move(nxt, {nxt: exdiv(1, row[nxt])})
            for k, x in [(k, row[k]) for k in remaining if k != nxt and k in row]:
                move(k, {k: 1, nxt: -x})
            chain.append(nxt)
            remaining.remove(nxt)
        if len(chain) > 1:
            chains.append(chain)
        # earlier chains are fully decoupled from the residual; seed a pure one
        rest = set(remaining)
        head = next((i for i in remaining if any(j in rest for j in gram[i])), None)
        if head is None:
            break
        remaining.remove(head)

    # telescoping: from the far end toward the head, X_v += X_w two steps
    # down the path, so each one sees already-decoupled tails; they reach
    # the head only for an even number of edges, which decouples it
    anchored = None
    pairs: list[tuple[int, int]] = []
    for verts in chains:
        L = len(verts)
        for pos in range(L - 3, -1, -2):
            move(verts[pos], {verts[pos]: 1, verts[pos + 2]: 1})
        if L % 2:
            # even number of edges: the rest pair up after the head
            first = 1
        elif verts[0] == anchor:
            # odd number of edges: the anchor keeps its partner
            anchored, first = verts[1], 2
        else:
            first = 0
        pairs += [(verts[i], verts[i + 1]) for i in range(first, L - 1, 2)]
    pipe.step_cols({t: col for t, col in cols.items() if col != {t: 1}})
    leftover = [i for i in block if all(i not in p for p in pairs) and i != anchored]
    _assert_chain_clean(pipe, anchor, block, anchored, pairs)
    return anchored, pairs, leftover


def _assert_chain_clean(pipe, anchor, block, anchored, pairs):
    """The X_2-component brackets inside {anchor} + block are exactly
    [a, b] = 1 for the listed pairs and [anchor, anchored]."""
    want = {}
    for a, b in pairs + ([] if anchored is None else [(anchor, anchored)]):
        want[(a, b) if a < b else (b, a)] = 1 if a < b else -1
    idxs = {anchor, *block}
    found = {ij for ij in pipe.far(anchor) if ij[0] in idxs and ij[1] in idxs}
    for i, j in sorted(found | want.keys()):
        val = pipe.bracket(i, j)[1]
        if val != want.get((i, j), 0):
            raise ImpossibleBranch(f"chain normalization left [{i + 1},{j + 1}] component {val}")


def _chain_assemble(pipe: Frame, anchor: int):
    """Chain-normalize the block after `anchor` and order the basis as the
    front X_1..X_{anchor+1}, the anchored partner, the pairs and the
    leftover.  Returns (anchored partner or None, number of pairs)."""
    anchored, pairs, leftover = _chain_normalize(pipe, anchor)
    order = list(range(anchor + 1))
    if anchored is not None:
        order.append(anchored)
    for i, j in pairs:
        order += [i, j]
    order += leftover
    if sorted(order) != list(range(pipe.n)):
        raise ImpossibleBranch("chain assembly permutation is not a bijection")
    pipe.step_perm(order)
    return anchored, len(pairs)


# ----------------------------------------------------------------------
# dim A_G = 2
# ----------------------------------------------------------------------

_I2 = Mat.identity(2)
_QUARTER_TURN = Mat([[0, 1], [-1, 0]])


def _adjoint_plane_pipeline(pipe: Frame) -> ClassLabel:
    """dim A_G = 2, with a_{X_3}, a_{X_4} spanning it and a_{X_i} = 0,
    i >= 5 (`Frame.clear_adjoints`).  After the non-commuting check the
    type of A_G (R + R, C or R[e]/e^2) is the spectral type of
    m = a_{X_3}, or a_{X_4} when a_{X_3} is scalar (see the module
    docstring), read once; it gives the data of the one tail,
    `_plane_normalize`."""
    n = pipe.n
    a3, a4 = pipe.adjoint(2), pipe.adjoint(3)
    if a3 @ a4 != a4 @ a3:
        raise ImpossibleBranch("adjoint pair must commute")
    # the pair is independent, so at most one of them is scalar
    swap = a3 == _I2.scale(a3[0, 0])
    m = a4 if swap else a3
    sc = spectral_classify_2x2(m)
    if sc.kind == "complex_pair":
        data = _plane_complex_data(m, swap, a3, a4, n - 4)
    elif sc.kind == "real_distinct":
        data = _plane_split_data(m, sc, a3, a4, n - 4)
    else:
        data = _plane_one_eigenline_data(a3, a4, n - 4)
    return _plane_normalize(pipe, *data)


def _plane_complex_data(m: Mat, swap: bool, a3: Mat, a4: Mat, ext: int) -> tuple:
    """With m's vector as X_3 (the pair swapped when a_{X_3} is the scalar
    one) and its partner s I + t m, X_4 := (X_4 - t X_3) / s makes
    a_{X_4} = I, then X_3 := alpha X_3 + beta X_4 a rotation."""
    partner = a3 if swap else a4
    coords = span_coordinates([(1, 0, 0, 1), sum(m.data, ()), sum(partner.data, ())])[1].get(2)
    if coords is None or coords[0] == 0:
        raise ImpossibleBranch("commuting partner escaped the centralizer span")
    s, t = coords
    tau = m.trace()
    alpha = exdiv(1, sqrt_exact(det(m) - exdiv(tau * tau, 4)))
    beta = exdiv(-alpha * tau, 2)
    change = _mat([[alpha - exdiv(beta * t, s), exdiv(-t, s)], [exdiv(beta, s), exdiv(1, s)]])
    rot = m.scale(alpha) + _I2.scale(beta)
    conj = None if rot == _QUARTER_TURN else cyclic_conjugator_2x2(rot, _QUARTER_TURN)
    return swap, change, conj, (_QUARTER_TURN, _I2), ClassLabel(labels.G4_2_4_AFFC, abelian_ext=ext)


def _plane_split_data(m: Mat, sc, a3: Mat, a4: Mat, ext: int) -> tuple:
    """g' onto m's two eigenvectors, the common ones of the pair, sorted
    descending; X_3, X_4 onto the combinations that act on them with the
    weights (1, 0) and (0, 1)."""
    dirs = sorted((eigenvector_2x2(m, sc.mu1), eigenvector_2x2(m, sc.mu2)), reverse=True)
    weights = _mat([[next(exdiv(y, x) for x, y in zip(d, a.apply(d)) if x) for a in (a3, a4)]
                    for d in dirs])
    pair = (Mat([[1, 0], [0, 0]]), Mat([[0, 0], [0, 1]]))
    label = ClassLabel(labels.AFFR_PLUS_AFFR, abelian_ext=ext)
    return False, inverse(weights), _mat(zip(*dirs)), pair, label


def _plane_one_eigenline_data(a3: Mat, a4: Mat, ext: int) -> tuple:
    """X_3 := the nilpotent combination mu4 X_3 - mu3 X_4 (mu: half the
    trace) and X_4 := the combination that acts by I; g' onto the Jordan
    basis (N w, w) of that nilpotent N."""
    idc = span_coordinates([sum(a3.data, ()), sum(a4.data, ()), (1, 0, 0, 1)])[1].get(2)
    if idc is None:
        raise ImpossibleBranch("identity must lie in the span in the one-eigenline case")
    mu3, mu4 = exdiv(a3.trace(), 2), exdiv(a4.trace(), 2)
    nil = a3.scale(mu4) - a4.scale(mu3)
    w = first_non_kernel(nil)
    change = _mat([[mu4, idc[0]], [-mu3, idc[1]]])
    label = ClassLabel(labels.G4_2_3, abelian_ext=ext, lam=0)
    return False, change, _mat(zip(nil.apply(w), w)), (Mat([[0, 1], [0, 0]]), _I2), label


def _plane_normalize(pipe: Frame, swap: bool, change: Mat, conj: Optional[Mat],
                     pair: tuple, label: ClassLabel) -> ClassLabel:
    """The shared tail, on a type's data: whether X_3 and X_4 trade places;
    the 2x2 change of X_3, X_4 whose column j is the new X_{3+j} over
    them; the change of basis of g' (None for none); the pair (a_{X_3},
    a_{X_4}) they reach, checked; the label.  Then it absorbs the brackets
    of X_3, X_4 with the X_t, t >= 5, checks that none is left beyond X_4,
    and clears [X_3 + p, X_4 + q] = [X_3, X_4] + a_3 q - a_4 p by p, q in
    g' with the free coordinates zero."""
    n = pipe.n
    c3, c4 = pair
    if swap:
        pipe.step_perm([0, 1, 3, 2] + list(range(4, n)))
    pipe.step_cols({2: {2: change[0, 0], 3: change[1, 0]}, 3: {2: change[0, 1], 3: change[1, 1]}})
    if conj is not None:
        pipe.step_cols(_embed_g1(conj))
    if pipe.adjoint(2) != c3 or pipe.adjoint(3) != c4:
        raise ImpossibleBranch(f"the adjoint pair did not reach its {label.family} form")
    pipe.absorb([2, 3], range(4, n))
    if pipe.far(4):
        raise ImpossibleBranch("far brackets must vanish once the adjoint pair is normal")
    w = pipe.bracket(2, 3)
    if any(w):
        system = _mat([(-c4[r, 0], -c4[r, 1], c3[r, 0], c3[r, 1]) for r in range(2)])
        p0, p1, q0, q1 = solve(system, [-x for x in w])
        pipe.step_cols({j: {j: 1, 0: y, 1: z} for j, y, z in ((2, p0, p1), (3, q0, q1)) if y or z})
    return label
