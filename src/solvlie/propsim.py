"""Proportional similarity: decide whether c*A = C^-1 B C has a solution
with c != 0 and C invertible, producing explicit witnesses.

The scaling c is pinned by characteristic coefficients: if a_k is the first
nonzero coefficient (of x^(n-k)) of A's characteristic polynomial, matching
coefficients forces c^k = b_k / a_k, leaving at most two real candidates,
told apart by their sign.  The coefficients of both polynomials are
compared as the trace recursion yields them (``char_coefficients``): each
one after a_k keeps the candidate signs it matches, and a pair is ruled
out at the first coefficient that no scale matches, before the rest of
either polynomial is computed.  When both polynomials are x^n (the zero
and the nilpotent matrices) scaling changes nothing, and the same loop
ends with k = 1 and c = 1.  Invariant factors do not depend on the field, so
c*A ~ B holds over R exactly when every invariant factor g of B is
c^deg(f) f(x / c) for the matching factor f of A.  That is tested
coefficient by coefficient in the field of the entries, without c itself:
a real q equals c^j exactly when q^k = (b_k / a_k)^j and sign(q) =
sign(c)^j.  Every verdict is exact.  c is returned when c = b_1 / a_1
(k = 1), or when c^k is rational and c has degree at most 2 over Q; for
any other c, and for a c whose radicand cannot be split into its
square-free part within the factoring bound, the verdict comes without
it.  Only a pair whose arithmetic mixes two radicands is refused, and it
is refused wherever the whole polynomials would refuse it: a matrix whose
entries hold two radicands has all its coefficients computed first, and
a difference among the zero coefficients before a_k is read only once
b_k / a_k is formed.

The decision and the witness share one cyclic decomposition per matrix.
When C is wanted and c is constructed, c*A is decomposed in place of A:
its invariant factors are compared with B's, and C = P_B P_cA^-1 comes
from the Krylov chains of the same two decompositions.  C is not formed
when c lies in a quadratic field other than the entries' (c*A would mix
two radicands); the verdict and c are returned without it.

``propsim_classify_gl2`` needs no canonical form: a complex pair has no
real eigenvector, so ``cyclic_conjugator_2x2`` carries c*A onto its
companion representative.  ``prop_similar`` imports the Frobenius code
when it runs, so ``classify`` does not load it.
"""

from __future__ import annotations

from typing import Optional

from .errors import DimensionMismatch, ImpossibleBranch, SingularInput, Unsupported
from .matrices import (
    Mat,
    _mat,
    char_coefficients,
    cyclic_conjugator_2x2,
    det,
    eigenvector_2x2,
    first_non_kernel,
    inverse,
    spectral_classify_2x2,
)
from .records import Record
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

EXACT = "exact"


class PropSimVerdict(Record):
    __slots__ = ("equivalent", "c", "witness")
    mode = EXACT  # every verdict is exact; kept for JSON readers

    def __init__(
        self,
        equivalent: bool,
        c: Optional[Scalar] = None,
        witness: Optional[Mat] = None,  # C with c*A = C^-1 B C
    ):
        self._set(equivalent, c, witness)

    def verify(self, a: Mat, b: Mat) -> bool:
        if not self.equivalent or self.witness is None:
            return False
        return a.scale(self.c) == inverse(self.witness) @ b @ self.witness


def prop_similar(a: Mat, b: Mat, want_witness: bool = True) -> PropSimVerdict:
    from .frobenius import frobenius_form, invariant_factors

    if a.shape != b.shape:
        raise DimensionMismatch(f"{a.shape} vs {b.shape}")
    if not a.is_square:
        raise DimensionMismatch("square matrices required")
    # the coefficients of det(xI - A) and det(xI - B), compared as they are
    # yielded: k is the index of A's first nonzero coefficient, and each
    # later one keeps the signs of c it matches
    k = ratio = None
    zeros_differ = False
    for j, (aj, bj) in enumerate(zip(_coefficients(a), _coefficients(b)), 1):
        if ratio is None:
            if aj == 0:
                # the verdict on the zeros before k waits for the ratio
                zeros_differ = zeros_differ or bj != 0
                continue
            if bj == 0:
                return PropSimVerdict(False)
            k, ratio = j, exdiv(bj, aj)
            if zeros_differ:
                return PropSimVerdict(False)
            if k % 2 == 1:
                signs = [scalar_sign(ratio)]
            else:
                signs = [1, -1] if scalar_sign(ratio) > 0 else []
        else:
            signs = [s for s in signs if _coefficient_scaled(aj, bj, ratio, k, j, s)]
        if not signs:
            return PropSimVerdict(False)
    if ratio is None:
        # characteristic polynomial x^n: scaling never changes a nilpotent
        # Jordan structure, so c = 1 is the one scale to try
        if zeros_differ:
            return PropSimVerdict(False)
        k, ratio, signs = 1, 1, [1]
    fa = fb = None
    for sign in signs:
        c = _exact_scale(ratio, k, sign)
        if want_witness and c is not None and _one_field(c, a, b):
            # c is known before any factor is compared, so c*A is decomposed
            # in place of A: its factors are A's scaled by c, and its chains
            # give the witness
            if fb is None:
                fb, p_b = frobenius_form(b)
            fc, p_c = frobenius_form(a.scale(c))
            if fc == fb:
                return PropSimVerdict(True, c, p_b @ inverse(p_c))
            continue
        if fa is None:
            fa, fb = invariant_factors(a), invariant_factors(b)
        if len(fa) == len(fb) and all(_is_scaled(f, g, ratio, k, sign) for f, g in zip(fa, fb)):
            return PropSimVerdict(True, c)
    return PropSimVerdict(False)


def _one_field(c: Scalar, a: Mat, b: Mat) -> bool:
    """c is rational, or every irrational entry of a and b lies in c's
    field Q(sqrt d); else c*A would mix two radicands."""
    if is_rational(c):
        return True
    return all(x.d == c.d for m in (a, b) for row in m.data for x in row if isinstance(x, QuadExt))


def _coefficients(m: Mat):
    """The coefficients c_1..c_n of det(xI - m) as they are asked for; all
    of them at once when m's entries hold two radicands, so that the mixed
    arithmetic is refused wherever it lies, as when the whole polynomial is
    computed."""
    coeffs = char_coefficients(m)
    if len({x.d for row in m.data for x in row if isinstance(x, QuadExt)}) > 1:
        return list(coeffs)
    return coeffs


def _is_scaled(f: list, g: list, ratio: Scalar, k: int, sign: int) -> bool:
    """g(x) = c^d f(x / c), d = deg f, for the real c with c^k = ratio and
    sign(c) = sign: each coefficient g_j of x^(d-j) is c^j f_j."""
    d = len(f) - 1
    if len(g) != len(f):
        return False
    return all(_coefficient_scaled(f[d - j], g[d - j], ratio, k, j, sign) for j in range(1, d + 1))


def _coefficient_scaled(fj: Scalar, gj: Scalar, ratio: Scalar, k: int, j: int, sign: int) -> bool:
    """gj = c^j fj for the real c with c^k = ratio and sign(c) = sign,
    tested without c: q = gj / fj is c^j exactly when q^k = ratio^j and
    sign(q) = sign^j."""
    if fj == 0 or gj == 0:
        return fj == gj
    q = exdiv(gj, fj)
    return q**k == ratio**j and scalar_sign(q) == sign**j


def _exact_scale(ratio: Scalar, k: int, sign: int) -> Optional[Scalar]:
    """The real c with c^k = ratio and sign(c) = sign when it is ratio
    itself (k = 1), or ratio is rational and c has degree <= 2 with a
    radicand that `sqrt_exact` can split; else None."""
    if not is_rational(ratio):
        return ratio if k == 1 else None
    root = nth_root_rational(ratio, k)
    if root is None and k % 2 == 0:
        # ratio > 0 here; a real quadratic irrational never has an odd
        # rational power, so only even k reach one
        half = nth_root_rational(ratio, k // 2)
        if half is not None:
            try:
                root = sqrt_exact(half)
            except Unsupported:
                # the radicand cannot be split within the factoring bound
                return None
    if root is None:
        return None
    return root if scalar_sign(root) == sign else -root


class GL2Class(Record):
    """Canonical class of an invertible 2x2 matrix under proportional
    similarity.

    family is "diag" (representative diag(1, lam), |lam| >= 1), "jordan"
    (representative [[1,1],[0,1]]), or "rotation" (a complex pair; the
    representative is kept rational, [[0,-j],[1,j]] for j != 0 and the
    quarter turn [[0,-1],[1,0]] for j = 0, and the angle is carried
    symbolically by (cos_sign, j)).  The rational key j = tr^2/det is the
    scale-invariant class key; c and cmat satisfy c * C^-1 A C = rep.
    """

    __slots__ = ("family", "j", "rep", "c", "cmat", "lam", "cos_sign")

    def __init__(
        self,
        family: str,
        j: Scalar,
        rep: Mat,
        c: Scalar,
        cmat: Mat,
        lam: Optional[Scalar] = None,
        cos_sign: Optional[int] = None,
    ):
        self._set(family, j, rep, c, cmat, lam, cos_sign)

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
            rep = _mat([[0, -j], [1, j]])
            c = exdiv(j, t)
        # rep is the companion matrix of cA's characteristic polynomial
        cmat = cyclic_conjugator_2x2(a.scale(c), rep)
        cls = GL2Class("rotation", j, rep, c, cmat, cos_sign=scalar_sign(t))
    elif sc.kind == "repeated_jordan":
        mu = sc.mu1
        nil = a.scale(exdiv(1, mu)) - Mat.identity(2)
        w = first_non_kernel(nil)
        cmat = _mat(zip(nil.apply(w), w))
        cls = GL2Class("jordan", j, Mat([[1, 1], [0, 1]]), exdiv(1, mu), cmat)
    elif sc.kind == "repeated_diagonalizable":
        mu = sc.mu1
        cls = GL2Class("diag", j, Mat.identity(2), exdiv(1, mu), Mat.identity(2), lam=1)
    else:
        mu1, mu2 = sc.mu1, sc.mu2
        if scalar_sign(scalar_abs(mu2) - scalar_abs(mu1)) >= 0:
            base, other = mu1, mu2
        else:
            base, other = mu2, mu1
        lam = exdiv(other, base)
        cmat = _mat(zip(eigenvector_2x2(a, base), eigenvector_2x2(a, other)))
        rep = _mat([[1, 0], [0, lam]])
        cls = GL2Class("diag", j, rep, exdiv(1, base), cmat, lam=lam)
    if (inverse(cls.cmat) @ a @ cls.cmat).scale(cls.c) != cls.rep:
        raise ImpossibleBranch(f"GL2 normalization of {a!r} missed {cls.rep!r}")
    return cls

