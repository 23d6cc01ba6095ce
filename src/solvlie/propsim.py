"""Proportional similarity: decide whether c*A = C^-1 B C has a solution
with c != 0 and C invertible, producing explicit witnesses.

The scaling c is pinned by characteristic coefficients: if a_k is the first
nonzero coefficient (of x^(n-k)) of A's characteristic polynomial, matching
coefficients forces c^k = b_k / a_k, leaving at most two real candidates.
Rational candidates, and quadratic-irrational ones in the k = 2 regime, are
checked exactly through invariant factors; anything of higher algebraic
degree drops to a high-precision numeric similarity test (mpmath, imported
there and nowhere else) and the verdict is flagged accordingly.  A ratio
b_k / a_k outside Q, possible for entries in Q(sqrt(d)), raises Unsupported.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .errors import DimensionMismatch, ImpossibleBranch, SingularInput, Unsupported
from .frobenius import similar, similarity_witness
from .matrices import Mat, char_poly, det, kernel_basis, normalize_leading, spectral_classify_2x2
from .scalars import (
    QuadExt,
    Scalar,
    exdiv,
    is_rational,
    nth_root_rational,
    scalar_abs,
    scalar_sign,
    sqrt_exact,
)

if TYPE_CHECKING:
    import mpmath

EXACT = "exact"
NUMERIC = "numeric"


@dataclass(frozen=True)
class PropSimVerdict:
    equivalent: bool
    c: Optional[Scalar] = None
    witness: Optional[Mat] = None  # C with c*A = C^-1 B C
    mode: str = EXACT

    def verify(self, a: Mat, b: Mat) -> bool:
        if not (self.equivalent and self.mode == EXACT):
            return False
        from .matrices import inverse

        return a.scale(self.c) == inverse(self.witness) @ b @ self.witness


def _is_nilpotent_char(coeffs: list) -> bool:
    return all(c == 0 for c in coeffs[:-1])


def prop_similar(a: Mat, b: Mat, want_witness: bool = True) -> PropSimVerdict:
    if a.shape != b.shape:
        raise DimensionMismatch(f"{a.shape} vs {b.shape}")
    if not a.is_square:
        raise DimensionMismatch("square matrices required")
    n = a.rows
    if a.is_zero() or b.is_zero():
        if a.is_zero() and b.is_zero():
            return PropSimVerdict(True, Fraction(1), Mat.identity(n) if want_witness else None)
        return PropSimVerdict(False)
    pa, pb = char_poly(a), char_poly(b)
    if _is_nilpotent_char(pa) or _is_nilpotent_char(pb):
        # scaling never changes a nilpotent Jordan structure
        if _is_nilpotent_char(pa) != _is_nilpotent_char(pb):
            return PropSimVerdict(False)
        if not similar(a, b):
            return PropSimVerdict(False)
        cmat = similarity_witness(b, a) if want_witness else None
        return PropSimVerdict(True, Fraction(1), cmat)
    k = next(k for k in range(1, n + 1) if pa[n - k] != 0)
    bk = pb[n - k]
    if bk == 0:
        return PropSimVerdict(False)
    ratio = exdiv(bk, pa[n - k])
    if not is_rational(ratio):
        raise Unsupported(f"c^{k} = {ratio} has an irrational right-hand side")
    candidates = _real_root_candidates(ratio, k)
    if candidates is None:
        return _numeric_branch(a, b, ratio, k)
    for c in candidates:
        if _coeffs_match(pa, pb, c) and similar(a.scale(c), b):
            cmat = similarity_witness(b, a.scale(c)) if want_witness else None
            return PropSimVerdict(True, c, cmat)
    return PropSimVerdict(False)


def _coeffs_match(pa: list, pb: list, c: Scalar) -> bool:
    n = len(pa) - 1
    ck: Scalar = 1
    for k in range(1, n + 1):
        ck = ck * c
        if ck * pa[n - k] != pb[n - k]:
            return False
    return True


def _real_root_candidates(ratio, m: int) -> Optional[list]:
    """Real solutions of c^m = ratio of algebraic degree <= 2, or None."""
    root = nth_root_rational(ratio, m)
    if root is not None:
        return [root, -root] if m % 2 == 0 else [root]
    if m % 2 == 1:
        # a real quadratic irrational never has an odd rational power
        return None
    if ratio < 0:
        return []  # no real root at all
    half = nth_root_rational(ratio, m // 2) if m > 2 else ratio
    if half is None:
        return None
    if half < 0:
        return []
    s = sqrt_exact(half)
    return [s, -s]


def _numeric_branch(a: Mat, b: Mat, ratio, m: int) -> PropSimVerdict:
    import mpmath

    with mpmath.workprec(128):
        mag = mpmath.root(abs(mpmath.mpf(ratio.numerator)) / mpmath.mpf(ratio.denominator), m)
        if m % 2 == 1:
            cands = [mag if ratio > 0 else -mag]
        elif ratio > 0:
            cands = [mag, -mag]
        else:
            return PropSimVerdict(False, mode=NUMERIC)
        bm = _to_mp(b)
        for c in cands:
            if _numeric_similar(_to_mp(a) * c, bm):
                return PropSimVerdict(True, None, None, NUMERIC)
    return PropSimVerdict(False, mode=NUMERIC)


def _to_mp(a: Mat) -> mpmath.matrix:
    import mpmath

    m = mpmath.matrix(a.rows, a.cols)
    for i in range(a.rows):
        for j in range(a.cols):
            x = a[i, j]
            if isinstance(x, QuadExt):
                m[i, j] = mpmath.mpf(x.a.numerator) / x.a.denominator + (
                    mpmath.mpf(x.b.numerator) / x.b.denominator
                ) * mpmath.sqrt(x.d)
            else:
                f = Fraction(x)
                m[i, j] = mpmath.mpf(f.numerator) / f.denominator
    return m


def _numeric_rank(m: mpmath.matrix, tol) -> int:
    a = m.copy()
    rows, cols = a.rows, a.cols
    rk = 0
    for c in range(cols):
        piv, pv = None, tol
        for i in range(rk, rows):
            if abs(a[i, c]) > pv:
                piv, pv = i, abs(a[i, c])
        if piv is None:
            continue
        if piv != rk:
            for j in range(cols):
                a[rk, j], a[piv, j] = a[piv, j], a[rk, j]
        for i in range(rk + 1, rows):
            f = a[i, c] / a[rk, c]
            for j in range(cols):
                a[i, j] -= f * a[rk, j]
        rk += 1
        if rk == rows:
            break
    return rk


def _numeric_similar(am: mpmath.matrix, bm: mpmath.matrix) -> bool:
    import mpmath

    n = am.rows
    norm = max(mpmath.mnorm(am, 1), mpmath.mnorm(bm, 1), mpmath.mpf(1))
    tol = mpmath.mpf("1e-20") * norm
    ea = mpmath.eig(am, left=False, right=False)
    unmatched = list(mpmath.eig(bm, left=False, right=False))
    # pair by distance, not by sorting: conjugates whose real parts differ
    # in the last bits would sort in opposite orders
    for x in ea:
        y = min(unmatched, key=lambda z: abs(x - z))
        if abs(x - y) > tol * 100:
            return False
        unmatched.remove(y)
    eye = mpmath.eye(n)
    seen: list = []
    for mu in ea:
        if any(abs(mu - s) <= tol * 100 for s in seen):
            continue
        seen.append(mu)
        sa = am - mu * eye
        sb = bm - mu * eye
        pa, pb = sa.copy(), sb.copy()
        for _ in range(n):
            if _numeric_rank(pa, tol) != _numeric_rank(pb, tol):
                return False
            pa, pb = pa * sa, pb * sb
    return True


@dataclass(frozen=True)
class GL2Class:
    """Canonical class of an invertible 2x2 matrix under proportional
    similarity.

    family is "diag" (representative diag(1, lam), |lam| >= 1), "jordan"
    (representative [[1,1],[0,1]]), or "rotation" (a complex pair; the
    representative is kept rational, [[0,-j],[1,j]] for j != 0 and the
    quarter turn [[0,-1],[1,0]] for j = 0, and the angle is carried
    symbolically by (cos_sign, j)).  The rational key j = tr^2/det is the
    scale-invariant class key; c and cmat satisfy c * C^-1 A C = rep.
    """

    family: str
    j: Scalar
    rep: Mat
    c: Scalar
    cmat: Mat
    lam: Optional[Scalar] = None
    cos_sign: Optional[int] = None

    @property
    def key(self):
        return (self.family, self.j)


def propsim_classify_gl2(a: Mat) -> GL2Class:
    if a.shape != (2, 2):
        raise DimensionMismatch("2x2 matrix required")
    d = det(a)
    if d == 0:
        raise SingularInput("propsim_classify_gl2 needs det != 0")
    t = a.trace()
    j = exdiv(t * t, d)
    sc = spectral_classify_2x2(a)
    if sc.kind == "complex_pair":
        if t == 0:
            rep = Mat([[0, -1], [1, 0]])
            c = exdiv(1, sqrt_exact(d))
            if scalar_sign(c) < 0:
                c = -c
        else:
            rep = Mat([[0, -j], [1, j]])
            c = exdiv(j, t)
        cmat = similarity_witness(a.scale(c), rep)
        if cmat is None:
            raise ImpossibleBranch("a complex pair is proportionally similar to its rotation")
        cls = GL2Class("rotation", j, rep, c, cmat, cos_sign=scalar_sign(t))
    elif sc.kind == "repeated_jordan":
        mu = sc.mu1
        nil = a.scale(exdiv(1, mu)) - Mat.identity(2)
        w = _first_non_kernel(nil)
        cmat = Mat.from_columns([nil.apply(w), w])
        cls = GL2Class("jordan", j, Mat([[1, 1], [0, 1]]), exdiv(1, mu), cmat)
    elif sc.kind == "repeated_diagonalizable":
        mu = sc.mu1
        cls = GL2Class("diag", j, Mat.identity(2), exdiv(1, mu), Mat.identity(2), lam=Fraction(1))
    else:
        mu1, mu2 = sc.mu1, sc.mu2
        if scalar_sign(scalar_abs(mu2) - scalar_abs(mu1)) >= 0:
            base, other = mu1, mu2
        else:
            base, other = mu2, mu1
        lam = exdiv(other, base)
        v_base = _eigvec(a, base)
        v_other = _eigvec(a, other)
        cmat = Mat.from_columns([v_base, v_other])
        rep = Mat([[1, 0], [0, lam]])
        cls = GL2Class("diag", j, rep, exdiv(1, base), cmat, lam=lam)
    from .matrices import inverse

    if (inverse(cls.cmat) @ a @ cls.cmat).scale(cls.c) != cls.rep:
        raise ImpossibleBranch(f"GL2 normalization of {a!r} missed {cls.rep!r}")
    return cls


def _eigvec(a: Mat, mu: Scalar):
    shifted = a - Mat.identity(2).scale(mu)
    basis = kernel_basis(shifted)
    return normalize_leading(basis[0])


def _first_non_kernel(m: Mat):
    for i in range(m.cols):
        e = tuple(1 if k == i else 0 for k in range(m.cols))
        if not all(x == 0 for x in m.apply(e)):
            return e
    raise AssertionError("zero matrix has no non-kernel vector")
