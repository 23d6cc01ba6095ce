"""Constructors for every canonical family, regression fixtures, and the
deterministic basis scrambler used by the invariance harnesses.

A scramble (`scramble_change`) is built with its inverse, one elementary
step at a time; only the matrices printed in the paper
(`morozov_check`) are inverted by elimination, since they come from
outside."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Sequence

from . import labels
from .errors import ImpossibleBranch, ParamOutOfDomain
from .labels import ClassLabel
from .liealg import (
    BasisChange,
    LieAlgebra,
    StructureTensor,
    _basis_change,
    abelian_tensor,
    direct_sum,
    validate,
)
from .matrices import Mat, _mat
from .records import Record
from .scalars import Scalar, exdiv, scalar_sign, sqrt_exact


def tensor_from_brackets(n: int, brackets: Sequence[tuple]) -> StructureTensor:
    """Build a tensor from 1-based (i, j, coeffs) entries; i > j is allowed
    and handled by skew symmetry.  coeffs is a dict {index: value} or a
    full-length sequence."""
    table: dict = {}
    for i, j, coeffs in brackets:
        if i == j:
            raise ParamOutOfDomain("bracket of a vector with itself")
        if isinstance(coeffs, dict):
            vec = [0] * n
            for k, val in coeffs.items():
                vec[k - 1] = val
        else:
            vec = list(coeffs)
        sign = 1
        a, b = i - 1, j - 1
        if a > b:
            a, b = b, a
            sign = -1
        cur = list(table.get((a, b), [0] * n))
        for idx in range(n):
            cur[idx] = cur[idx] + sign * vec[idx]
        table[(a, b)] = tuple(cur)
    return StructureTensor(n, table)


def aff_r() -> StructureTensor:
    return tensor_from_brackets(2, [(1, 2, {2: 1})])


def aff_c() -> StructureTensor:
    return tensor_from_brackets(
        4,
        [
            (3, 1, {2: -1}),
            (3, 2, {1: 1}),
            (4, 1, {1: 1}),
            (4, 2, {2: 1}),
        ],
    )


def heisenberg(m: int) -> StructureTensor:
    if m < 1:
        raise ParamOutOfDomain("heisenberg needs m >= 1")
    n = 2 * m + 1
    return tensor_from_brackets(
        n, [(2 * l + 1, 2 * l + 2, {n: 1}) for l in range(m)]
    )


def g3_2_1(lam: Scalar) -> StructureTensor:
    if lam == 0:
        raise ParamOutOfDomain("lambda must be nonzero")
    return tensor_from_brackets(3, [(3, 1, {1: 1}), (3, 2, {2: lam})])


def g3_2_2() -> StructureTensor:
    return tensor_from_brackets(3, [(3, 1, {1: 1}), (3, 2, {1: 1, 2: 1})])


def g3_2_3(j: Fraction) -> StructureTensor:
    """Complex-rotation family, keyed by j = tr^2/det in [0, 4).

    The representative is rational: the quarter turn for j = 0, otherwise
    the companion-style matrix [[0, -j], [1, j]], which has the right key
    and a complex eigenvalue pair.
    """
    j = Fraction(j)
    if not (0 <= j < 4):
        raise ParamOutOfDomain("rotation key j must satisfy 0 <= j < 4")
    if j == 0:
        return tensor_from_brackets(3, [(3, 1, {2: 1}), (3, 2, {1: -1})])
    return tensor_from_brackets(3, [(3, 1, {2: 1}), (3, 2, {1: -j, 2: j})])


def g4_2_1() -> StructureTensor:
    return tensor_from_brackets(4, [(3, 1, {1: 1}), (3, 4, {2: 1})])


def g4_2_2() -> StructureTensor:
    return tensor_from_brackets(4, [(3, 2, {1: 1}), (3, 4, {2: 1})])


def g4_2_3(lam: Scalar) -> StructureTensor:
    return tensor_from_brackets(
        4,
        [
            (3, 2, {1: 1, 2: lam}),
            (4, 1, {1: 1}),
            (4, 2, {2: 1}),
        ],
    )


def g5p2k_2(k: int) -> StructureTensor:
    if k < 0:
        raise ParamOutOfDomain("k must be >= 0")
    n = 5 + 2 * k
    br = [(3, 1, {2: 1}), (3, 4, {1: 1})]
    br += [(4 + 2 * i, 5 + 2 * i, {2: 1}) for i in range(k + 1)]
    return tensor_from_brackets(n, br)


def g6p2k_2_1(k: int) -> StructureTensor:
    if k < 0:
        raise ParamOutOfDomain("k must be >= 0")
    n = 6 + 2 * k
    br = [(3, 1, {1: 1}), (3, 4, {2: 1})]
    br += [(5 + 2 * i, 6 + 2 * i, {2: 1}) for i in range(k + 1)]
    return tensor_from_brackets(n, br)


def g6p2k_2_2(k: int) -> StructureTensor:
    if k < 0:
        raise ParamOutOfDomain("k must be >= 0")
    n = 6 + 2 * k
    br = [(3, 1, {2: 1}), (3, 4, {1: 1})]
    br += [(5 + 2 * i, 6 + 2 * i, {2: 1}) for i in range(k + 1)]
    return tensor_from_brackets(n, br)


def aff_r_plus_aff_r() -> StructureTensor:
    return tensor_from_brackets(4, [(3, 1, {1: 1}), (4, 2, {2: 1})])


def aff_r_plus_heis(m: int) -> StructureTensor:
    if m < 1:
        raise ParamOutOfDomain("m must be >= 1")
    n = 3 + 2 * m
    br = [(3, 1, {1: 1})]
    br += [(4 + 2 * i, 5 + 2 * i, {2: 1}) for i in range(m)]
    return tensor_from_brackets(n, br)


def with_abelian_ext(t: StructureTensor, d: int) -> StructureTensor:
    if d < 0:
        raise ParamOutOfDomain("abelian extension dimension must be >= 0")
    if d == 0:
        return t
    return direct_sum(t, abelian_tensor(d))


def build(label: ClassLabel) -> LieAlgebra:
    """Canonical algebra of a class label; every label built here passes
    validate and classifies back to itself."""
    return LieAlgebra(build_tensor(label))


def build_tensor(label: ClassLabel) -> StructureTensor:
    fam = label.family
    if fam == labels.G3_2_1:
        core = g3_2_1(label.lam)
    elif fam == labels.G3_2_2:
        core = g3_2_2()
    elif fam == labels.G3_2_3:
        core = g3_2_3(label.j)
    elif fam == labels.G4_2_1:
        core = g4_2_1()
    elif fam == labels.G4_2_2:
        core = g4_2_2()
    elif fam == labels.G4_2_3:
        core = g4_2_3(label.lam if label.lam is not None else 0)
    elif fam == labels.G4_2_4_AFFC:
        core = aff_c()
    elif fam == labels.G5P2K_2:
        core = g5p2k_2(label.k)
    elif fam == labels.G6P2K_2_1:
        core = g6p2k_2_1(label.k)
    elif fam == labels.G6P2K_2_2:
        core = g6p2k_2_2(label.k)
    elif fam == labels.AFFR_PLUS_AFFR:
        core = aff_r_plus_aff_r()
    elif fam == labels.AFFR_PLUS_HEIS:
        core = aff_r_plus_heis(label.m)
    else:
        raise ParamOutOfDomain(f"no canonical tensor for family {fam}")
    return with_abelian_ext(core, label.abelian_ext)


def scramble_change(n: int, seed, steps: Optional[int] = None) -> BasisChange:
    """Deterministic pseudo-random integer basis change of determinant +-1
    with its inverse: T is the product of ``steps`` (default 2n + 2)
    elementary transvections (multipliers bounded by 4), swaps and sign
    flips.  Each step is applied as a column operation on T and the inverse
    row operation on T^-1, so neither a product nor an elimination is
    formed: the transvection I + lam E_ij adds lam * column i of T to
    column j and subtracts lam * row j of T^-1 from row i."""
    rng = random.Random(seed)
    if steps is None:
        steps = 2 * n + 2
    cols = [[1 if r == c else 0 for r in range(n)] for c in range(n)]  # T by columns
    rows = [[1 if r == c else 0 for c in range(n)] for r in range(n)]  # T^-1 by rows
    for _ in range(steps):
        op = rng.randrange(4) if n > 1 else 3
        if op <= 1:
            i, j = rng.sample(range(n), 2)
            lam = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
            cols[j] = [x + lam * y for x, y in zip(cols[j], cols[i])]
            rows[i] = [x - lam * y for x, y in zip(rows[i], rows[j])]
        elif op == 2:
            i, j = rng.sample(range(n), 2)
            cols[i], cols[j] = cols[j], cols[i]
            rows[i], rows[j] = rows[j], rows[i]
        else:
            i = rng.randrange(n)
            cols[i] = [-x for x in cols[i]]
            rows[i] = [-x for x in rows[i]]
    return _basis_change(_mat(zip(*cols)), _mat(rows))


def scramble(a: LieAlgebra, seed, steps: Optional[int] = None):
    """Scrambled copy plus the basis change (`scramble_change`) that
    produced it."""
    t, bc = scramble_tensor(a.tensor, seed, steps)
    return LieAlgebra(t), bc


def scramble_tensor(t: StructureTensor, seed, steps: Optional[int] = None):
    """Scrambled tensor plus the basis change (`scramble_change`) that
    produced it."""
    bc = scramble_change(t.n, seed, steps)
    return t.transform(bc.matrix, bc.inverse), bc


def l6gamma(gamma: Scalar) -> StructureTensor:
    """Six-dimensional two-step nilpotent family with one parameter."""
    if gamma == 0:
        raise ParamOutOfDomain("gamma must be nonzero")
    return tensor_from_brackets(
        6,
        [
            (1, 3, {5: 1}),
            (1, 4, {6: 1}),
            (2, 3, {6: gamma}),
            (2, 4, {5: 1}),
        ],
    )


def morozov_transform_positive(gamma: Scalar) -> Mat:
    """The printed 6x6 change of basis splitting the gamma > 0 member into
    two Heisenberg blocks; exact over Q(sqrt(gamma))."""
    s = sqrt_exact(gamma)
    sinv = exdiv(1, s)
    return Mat(
        [
            [1, 0, 0, 1, 0, 0],
            [sinv, 0, 0, -sinv, 0, 0],
            [0, 1, 0, 0, 1, 0],
            [0, s, 0, 0, -s, 0],
            [0, 0, 2, 0, 0, 2],
            [0, 0, 2 * s, 0, 0, -2 * s],
        ]
    )


def morozov_transform_negative(gamma: Scalar) -> Mat:
    s = sqrt_exact(-gamma)
    entries = [s, -1, -1, s, -s, -gamma]
    return Mat([[entries[i] if i == j else 0 for j in range(6)] for i in range(6)])


class MorozovReport(Record):
    __slots__ = ("gamma", "ok", "detail")

    def __init__(self, gamma: Scalar, ok: bool, detail: str):
        self._set(gamma, ok, detail)


MOROZOV_GAMMAS = (1, 4, 2, -1, -3)


def morozov_check() -> list[MorozovReport]:
    """Exact verification of the six-dimensional family normalizations at
    each gamma of `MOROZOV_GAMMAS`.

    For gamma > 0 the printed transform must reduce the table to
    [e1,e2]=e3, [e4,e5]=e6 (two Heisenberg blocks); for gamma < 0 the
    diagonal transform must carry the table onto the gamma = -1 member.
    """
    out = []
    for gamma in MOROZOV_GAMMAS:
        t = l6gamma(gamma)
        if scalar_sign(gamma) > 0:
            bc = BasisChange(morozov_transform_positive(gamma))
            got = t.transform(bc.matrix, bc.inverse)
            want = direct_sum(heisenberg(1), heisenberg(1))
        else:
            bc = BasisChange(morozov_transform_negative(gamma))
            got = t.transform(bc.matrix, bc.inverse)
            want = l6gamma(-1)
        if got == want:
            out.append(MorozovReport(gamma, True, "exact"))
        else:
            out.append(MorozovReport(gamma, False, f"residual table {got!r}"))
    return out


def codim2_az_fixtures(lam: Fraction = Fraction(2)) -> list[tuple[str, Mat]]:
    """The five canonical rank-2 a_Z forms on a 3-dimensional derived
    ideal, as concrete rational instances (structure-basis shapes)."""
    rot = Mat([[1, -1, 0], [1, 1, 0], [0, 0, 0]])
    return [
        ("left_diag", Mat([[1, 0, 0], [0, lam, 0], [0, 0, 0]])),
        ("left_jordan", Mat([[1, 1, 0], [0, 1, 0], [0, 0, 0]])),
        ("left_rotation", rot),
        ("right_nilpotent", Mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])),
        ("right_mixed", Mat([[0, 0, 1], [0, 1, 0], [0, 0, 0]])),
    ]


def codim2_algebra(a_z: Mat) -> LieAlgebra:
    """Algebra on basis (X_1..X_k, Y, Z) with abelian span(X_i), a_Y = 0,
    a_Z = a_z, and [Z, Y] = X_k: `codim2.codim2_tensor`, checked."""
    from .codim2 import codim2_tensor

    t = codim2_tensor(a_z)
    if not validate(t).ok:
        raise ImpossibleBranch("codimension-2 structure must satisfy Jacobi")
    return LieAlgebra(t)
