"""Rational canonical form over an exact field, with explicit conjugator.

Polynomials are coefficient lists, low degree first, with no trailing
zeros.  The invariant factors f1 | f2 | ... are computed by a cyclic
decomposition: pick a vector of maximal annihilator in the current
quotient, lift it, correct the lift inside the span already built (a
linear solve), and append its Krylov chain.  Krylov spans and the
quotient by the span built so far are kept in a ``matrices.Echelon``, the
one elimination routine; a chain's annihilator is read off the tags its
vectors carry in that span, with no second elimination.  Krylov vectors
start from ``int`` unit vectors, so the chains of an integer matrix hold
integers.  Two matrices over the same field are similar exactly when
their invariant factor lists agree.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import DimensionError, ImpossibleBranch
from .matrices import Echelon, Mat, Vec, _mat, inverse, solve, vec_add, vec_is_zero, vec_scale
from .scalars import Scalar, exdiv

Poly = list


def pnormalize(p: Sequence[Scalar]) -> Poly:
    q = list(p)
    while q and q[-1] == 0:
        q.pop()
    return q


def pdeg(p: Poly) -> int:
    return len(p) - 1  # -1 for the zero polynomial


def pmul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return pnormalize(out)


def pmonic(p: Poly) -> Poly:
    if not p:
        return []
    lead = p[-1]
    if lead == 1:
        return list(p)
    return [exdiv(x, lead) for x in p]


def pdivmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(p)
    quo = [0] * max(0, len(p) - len(q) + 1)
    dq = pdeg(q)
    lead = q[-1]
    while len(r) - 1 >= dq and r:
        r = pnormalize(r)
        if not r or len(r) - 1 < dq:
            break
        c = exdiv(r[-1], lead)
        k = len(r) - 1 - dq
        quo[k] = c
        for i, b in enumerate(q):
            r[k + i] = r[k + i] - c * b
        r = pnormalize(r)
    return pnormalize(quo), pnormalize(r)


def pquo(p: Poly, q: Poly) -> Poly:
    quo, rem = pdivmod(p, q)
    if rem:
        raise ValueError("non-exact polynomial division")
    return quo


def pgcd(p: Poly, q: Poly) -> Poly:
    a, b = pnormalize(p), pnormalize(q)
    while b:
        a, b = b, pdivmod(a, b)[1]
    return pmonic(a)


def pdivides(p: Poly, q: Poly) -> bool:
    """p | q"""
    if not q:
        return True
    if not p:
        return False
    return not pdivmod(q, p)[1]


def coprime_split(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """(P, Q) with P | a, Q | b, P*Q = lcm(a, b), gcd(P, Q) = 1."""
    g = pgcd(a, b)
    p, q = pquo(a, g), list(b)
    while True:
        g2 = pgcd(p, q)
        if pdeg(g2) == 0:
            return pmonic(p), pmonic(q)
        q = pquo(q, g2)
        p = pmul(p, g2)


def papply(p: Poly, m: Mat, v: Vec) -> Vec:
    """p(m) applied to vector v, by Horner."""
    out = tuple(0 for _ in v)
    for c in reversed(p):
        out = m.apply(out)
        if c != 0:
            out = vec_add(out, vec_scale(c, v))
    return out


def companion(p: Poly) -> Mat:
    """Companion matrix of a monic polynomial (columns are images)."""
    n = pdeg(p)
    if n < 1:
        raise ValueError("companion needs degree >= 1")
    cols = []
    for j in range(n - 1):
        col = [0] * n
        col[j + 1] = 1
        cols.append(col)
    cols.append([-c for c in p[:-1]])
    return Mat.from_columns(cols)


def local_min_poly(m: Mat, v: Vec) -> tuple[Poly, list[Vec]]:
    """Monic annihilator of v under m, plus the Krylov chain v, m v, ...

    m^j v enters the span with the unit tag e_j appended.  The first
    m^d v (d >= 1) that reduces to zero in its n coordinates is m^d v
    minus sum_j x_j m^j v, so its tag part is e_d - sum_j x_j e_j: the
    annihilator's coefficients, low degree first.  v always starts the
    chain, so the zero vector gets the chain (0,) and the annihilator x.
    """
    n = len(v)
    chain: list[Vec] = []
    span = Echelon()
    w = tuple(v)
    while True:
        tagged = list(w) + [0] * (n + 1)
        tagged[n + len(chain)] = 1
        r = span.reduce(tagged)
        if chain and vec_is_zero(r[:n]):
            return pnormalize(r[n:]), chain
        span.add_reduced(r)
        chain.append(w)
        w = m.apply(w)


def min_poly(m: Mat) -> Poly:
    m._require_square()
    return _max_vector(m)[1]


def _max_vector(m: Mat) -> tuple[Vec, Poly]:
    """A vector whose annihilator is the minimal polynomial of m."""
    n = m.rows
    best_v: Optional[Vec] = None
    best_f: Poly = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        f, _ = local_min_poly(m, e)
        if best_v is None:
            best_v, best_f = e, f
        elif pdivides(best_f, f):
            best_v, best_f = e, f
        elif not pdivides(f, best_f):
            pp, qq = coprime_split(best_f, f)
            u2 = papply(pquo(best_f, pp), m, best_v)
            v2 = papply(pquo(f, qq), m, e)
            best_v = vec_add(u2, v2)
            best_f = pmul(pp, qq)
        if pdeg(best_f) == n:
            break
    return best_v, best_f


def cyclic_decomposition(m: Mat) -> list[tuple[list[Vec], Poly]]:
    """Krylov chains (generator first) and their annihilators, largest
    annihilator first; the direct sum of the chains is the whole space."""
    m._require_square()
    n = m.rows
    gens: list[tuple[list[Vec], Poly]] = []
    chain_vectors: list[Vec] = []
    span = Echelon()
    while span.dim < n:
        if span.dim == 0:
            v, f = _max_vector(m)
        else:
            pivots = set(span.pivots)
            comp = [c for c in range(n) if c not in pivots]
            # m on the quotient by the span, in the complement coordinates:
            # the image m e_c of each complement vector, reduced by the span
            cols = []
            for c in comp:
                x = span.reduce(m.col(c))
                cols.append([x[q] for q in comp])
            vbar, f = _max_vector(_mat(zip(*cols)))
            lift = [0] * n
            for c, val in zip(comp, vbar):
                lift[c] = val
            v = tuple(lift)
            # correct the lift so its annihilator is exactly f
            r = papply(f, m, v)
            if not vec_is_zero(r):
                sys = _mat(zip(*[papply(f, m, b) for b in chain_vectors]))
                x = solve(sys, r)
                if x is None:
                    raise ImpossibleBranch("cyclic decomposition correction must solve")
                for c, b in zip(x, chain_vectors):
                    if c != 0:
                        v = vec_add(v, vec_scale(-c, b))
                if not vec_is_zero(papply(f, m, v)):
                    raise ImpossibleBranch("corrected lift must be annihilated by f")
        if gens and not pdivides(f, gens[-1][1]):
            raise ImpossibleBranch("invariant factors must divide")
        chain = [v]
        while len(chain) < pdeg(f):
            chain.append(m.apply(chain[-1]))
        for w in chain:
            if span.add(w) is None:
                raise ImpossibleBranch("Krylov chain must be independent")
        chain_vectors += chain
        gens.append((chain, f))
    return gens


def frobenius_form(m: Mat) -> tuple[list[Poly], Mat]:
    """Invariant factors (ascending divisibility) and an invertible P with
    P^-1 m P block diagonal with the matching companion blocks: the
    columns of P are the decomposition's Krylov chains."""
    gens = cyclic_decomposition(m)[::-1]  # ascending
    return [f for _, f in gens], _mat(zip(*[w for chain, _ in gens for w in chain]))


def invariant_factors(m: Mat) -> list[Poly]:
    return [f for _, f in reversed(cyclic_decomposition(m))]


def similar(a: Mat, b: Mat) -> bool:
    """Exact similarity test over the scalar field."""
    if a.shape != b.shape:
        raise DimensionError("shape mismatch")
    if not a.is_square:
        raise DimensionError("square matrices required")
    if a.trace() != b.trace():
        return False
    return invariant_factors(a) == invariant_factors(b)


def similarity_witness(a: Mat, b: Mat) -> Optional[Mat]:
    """Invertible C with C^-1 a C = b, or None when not similar."""
    fa, pa = frobenius_form(a)
    fb, pb = frobenius_form(b)
    if fa != fb:
        return None
    return pa @ inverse(pb)
