"""Exact output checks written without the program's own types.

Everything here uses the standard library only: ``int`` and
``fractions.Fraction`` for rationals and :class:`Surd` for a + b*sqrt(d).
Program values are read by duck typing (``QuadExt`` through its ``a``,
``b``, ``d`` fields, matrices through their rows, tensors through their
bracket tables), so a fault in the program's arithmetic cannot hide a
wrong answer from these checks.

A bracket table is ``(n, {(i, j): coeffs})`` with 0-based ``i < j`` and
coefficient vectors of length ``n``; a matrix is a list of rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class Surd:
    """a + b*sqrt(d) with rational a, b and square-free d > 1."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        self.a, self.b, self.d = a, b, d

    def _parts(self, other):
        if isinstance(other, Surd):
            if other.d != self.d:
                raise ValueError(f"mixed radicands sqrt({self.d}) and sqrt({other.d})")
            return other.a, other.b
        return other, 0

    def __add__(self, other):
        oa, ob = self._parts(other)
        return Surd(self.a + oa, self.b + ob, self.d)

    __radd__ = __add__

    def __neg__(self):
        return Surd(-self.a, -self.b, self.d)

    def __sub__(self, other):
        oa, ob = self._parts(other)
        return Surd(self.a - oa, self.b - ob, self.d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        oa, ob = self._parts(other)
        return Surd(self.a * oa + self.b * ob * self.d, self.a * ob + self.b * oa, self.d)

    __rmul__ = __mul__

    def inverse(self):
        norm = Fraction(self.a * self.a - self.b * self.b * self.d)
        return Surd(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        if isinstance(other, Surd):
            return self * other.inverse()
        return Surd(Fraction(self.a) / other, Fraction(self.b) / other, self.d)

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __eq__(self, other):
        oa, ob = self._parts(other)
        return self.a == oa and self.b == ob

    def __hash__(self):
        return hash((self.a, self.b, self.d)) if self.b else hash(self.a)

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __repr__(self):
        return f"Surd({self.a}, {self.b}, {self.d})"


def _square_free(d: int) -> tuple[int, int]:
    """d = s*s*core with core square-free; returns (s, core)."""
    s, core, p = 1, 1, 2
    while p * p <= d:
        while d % (p * p) == 0:
            d //= p * p
            s *= p
        if d % p == 0:
            d //= p
            core *= p
        p += 1
    return s, core * d


def surd(a, b, d: int):
    """a + b*sqrt(d) in lowest terms: a rational when the root vanishes."""
    s, core = _square_free(d)
    a, b = Fraction(a), Fraction(b) * s
    if b == 0 or core == 1:
        return compact(a + b)
    return Surd(a, b, core)


def compact(x):
    """Integral fractions as int."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def exact(x):
    """A program scalar as int, Fraction or Surd."""
    if isinstance(x, bool):
        raise TypeError("boolean where a scalar was expected")
    if isinstance(x, (int, Fraction)):
        return compact(x)
    if hasattr(x, "a") and hasattr(x, "b") and hasattr(x, "d"):
        return surd(x.a, x.b, int(x.d))
    raise TypeError(f"not an exact scalar: {x!r}")


def from_json_scalar(v):
    """The wire format: "p/q" strings, or {"a": .., "b": .., "d": n}."""
    if isinstance(v, str):
        return compact(Fraction(v))
    if isinstance(v, dict):
        return surd(Fraction(v["a"]), Fraction(v["b"]), int(v["d"]))
    raise ValueError(f"bad scalar {v!r}")


def matrix_of(m) -> list:
    """Rows of a program matrix (anything with a ``data`` row list)."""
    return [[exact(x) for x in row] for row in m.data]


def matrix_from_json(v) -> list:
    return [[from_json_scalar(x) for x in row] for row in v]


def table_of(t) -> tuple:
    """Bracket table of a program tensor (``n`` plus a ``brackets`` dict)."""
    return t.n, {ij: tuple(exact(x) for x in vec) for ij, vec in t.brackets.items()}


def bit_height(x) -> int:
    """Bits of the largest numerator or denominator in an exact scalar."""
    if isinstance(x, Surd):
        return max(bit_height(x.a), bit_height(x.b))
    f = Fraction(x)
    return max(abs(f.numerator).bit_length(), f.denominator.bit_length())


# ----------------------------------------------------------------------
# Exact linear algebra
# ----------------------------------------------------------------------


def _div(x, y):
    if isinstance(x, int) and isinstance(y, int):
        return Fraction(x, y)
    return x / y


def rank(rows: list) -> int:
    """Rank by Gaussian elimination over Q or Q(sqrt(d))."""
    a = [list(r) for r in rows if any(r)]
    if not a:
        return 0
    r = 0
    for c in range(len(a[0])):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, len(a)):
            if a[i][c]:
                f = _div(a[i][c], a[r][c])
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == len(a):
            break
    return r


def matmul(a: list, b: list) -> list:
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), 0) for col in cols] for row in a]


def char_coeffs(m: list) -> list:
    """p_1..p_n with det(xI - m) = x^n + p_1 x^(n-1) + ... + p_n
    (Faddeev-LeVerrier)."""
    n = len(m)
    out = []
    mk = [row[:] for row in m]
    for k in range(1, n + 1):
        p = compact(Fraction(-sum(mk[i][i] for i in range(n)), k))
        out.append(p)
        shifted = [[mk[i][j] + (p if i == j else 0) for j in range(n)] for i in range(n)]
        mk = matmul(m, shifted)
    return out


def rank_profile(m: list) -> list:
    """rank(m), rank(m^2), ..., rank(m^n): unchanged by similarity and by
    any nonzero scale factor."""
    out, p = [], m
    for _ in range(len(m)):
        out.append(rank(p))
        p = matmul(p, m)
    return out


def proves_not_prop_similar(a: list, b: list) -> bool:
    """True when a scale invariant separates a from b, so that no c != 0
    and invertible C give c*a = C^-1 b C.  False means "not proven"."""
    if rank_profile(a) != rank_profile(b):
        return True
    pa, pb = char_coeffs(a), char_coeffs(b)
    if [x == 0 for x in pa] != [x == 0 for x in pb]:
        return True
    # matching coefficients forces pb_i = c^i pa_i for every i
    ratios = [(i, Fraction(y) / Fraction(x)) for i, (x, y) in enumerate(zip(pa, pb), 1) if x]
    for i, r in ratios:
        if i % 2 == 0 and r < 0:
            return True
    for i, ri in ratios:
        for j, rj in ratios:
            if i < j and ri ** j != rj ** i:
                return True
    return False


def is_prop_similar_witness(a: list, b: list, c, cmat: list) -> bool:
    """c != 0, cmat invertible and c*a = cmat^-1 b cmat, checked as
    cmat (c a) = b cmat so no inverse is needed."""
    if not c or rank(cmat) != len(cmat):
        return False
    ca = [[c * x for x in row] for row in a]
    return matmul(cmat, ca) == matmul(b, cmat)


# ----------------------------------------------------------------------
# Bracket tables
# ----------------------------------------------------------------------


def bracket(table: tuple, u, v) -> list:
    n, br = table
    out = [0] * n
    for (i, j), vec in br.items():
        s = u[i] * v[j] - u[j] * v[i]
        if s:
            for k, x in enumerate(vec):
                if x:
                    out[k] = out[k] + s * x
    return out


def _denominator_lcm(values) -> int:
    out = 1
    for x in values:
        parts = (x.a, x.b) if isinstance(x, Surd) else (x,)
        for p in parts:
            if isinstance(p, Fraction):
                out = lcm(out, p.denominator)
    return out


def _scaled(x, scale: int):
    """x * scale, which the caller made integral."""
    if isinstance(x, Surd):
        return Surd(int(x.a * scale), int(x.b * scale), x.d)
    return int(x * scale)


def transports(src: tuple, w: list, dst: tuple) -> bool:
    """True when w is invertible and carries table src onto table dst:
    the columns of w are the new basis in src coordinates, so
    [w_i, w_j]_src = sum_k dst_ijk w_k for all i < j.

    Denominators are cleared first so the bracket sums run on Python
    integers (or integer pairs over Z[sqrt(d)])."""
    n = src[0]
    if dst[0] != n or len(w) != n or any(len(r) != n for r in w):
        return False
    ls = _denominator_lcm(x for vec in src[1].values() for x in vec)
    lw = _denominator_lcm(x for row in w for x in row)
    ld = _denominator_lcm(x for vec in dst[1].values() for x in vec)
    src_entries = [
        (p, q, [(r, _scaled(x, ls)) for r, x in enumerate(vec) if x])
        for (p, q), vec in src[1].items()
    ]
    cols = [[_scaled(w[r][c], lw) for r in range(n)] for c in range(n)]
    dst_br = {ij: [_scaled(x, ld) for x in vec] for ij, vec in dst[1].items()}
    for i in range(n):
        ci = cols[i]
        for j in range(i + 1, n):
            cj = cols[j]
            lhs = [0] * n
            for p, q, ent in src_entries:
                s = ci[p] * cj[q] - ci[q] * cj[p]
                if s:
                    for r, x in ent:
                        lhs[r] = lhs[r] + s * x
            rhs = [0] * n
            for k, x in enumerate(dst_br.get((i, j), ())):
                if x:
                    ck = cols[k]
                    for r in range(n):
                        rhs[r] = rhs[r] + x * ck[r]
            # lhs carries ls * lw^2, rhs carries ld * lw
            if any(ld * lhs[r] != ls * lw * rhs[r] for r in range(n)):
                return False
    return rank(w) == n


def transport(table: tuple, s: list, s_inv: list) -> tuple:
    """The table in the basis given by the columns of s."""
    n, _ = table
    cols = [[s[r][c] for r in range(n)] for c in range(n)]
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = bracket(table, cols[i], cols[j])
            if any(w):
                out[(i, j)] = tuple(
                    compact(sum((s_inv[r][k] * w[k] for k in range(n) if w[k]), 0))
                    for r in range(n)
                )
    return n, out


def series_dims(table: tuple) -> dict:
    """Derived-series, lower-central-series and centre dimensions, each
    series listed until it stabilises (or reaches 0)."""
    n, _ = table
    basis = [[1 if k == i else 0 for k in range(n)] for i in range(n)]

    def span(vectors):
        kept: list = []
        for v in vectors:
            if any(v) and rank(kept + [v]) > len(kept):
                kept.append(v)
        return kept

    def series(step):
        out, cur = [n], basis
        for _ in range(n + 1):
            nxt = span(step(cur))
            if len(nxt) == len(cur):
                break
            out.append(len(nxt))
            cur = nxt
            if not nxt:
                break
        return out

    derived = series(lambda s: [bracket(table, u, v) for a, u in enumerate(s) for v in s[a + 1:]])
    lower = series(lambda s: [bracket(table, e, v) for e in basis for v in s])
    # x is central when [x, e_j] = 0 for every j: one row per (j, coordinate)
    ads = [[bracket(table, basis[i], basis[j]) for i in range(n)] for j in range(n)]
    rows = [[ads[j][i][r] for i in range(n)] for j in range(n) for r in range(n)]
    return {"derived": derived, "lower_central": lower, "center": n - rank(rows)}


# ----------------------------------------------------------------------
# Canonical bracket tables of the classification families
# ----------------------------------------------------------------------


def _from_brackets(n: int, brackets) -> tuple:
    """1-based (i, j, {k: coeff}) entries; i > j is turned round."""
    table: dict = {}
    for i, j, coeffs in brackets:
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        vec = [0] * n
        for k, x in coeffs.items():
            vec[k - 1] = sign * x
        table[(i - 1, j - 1)] = tuple(vec)
    return n, table


def canonical_table(family: str, abelian_ext: int = 0, lam=None, j=None, k=None, m=None):
    """The family table of the classifier's documentation, plus
    ``abelian_ext`` trailing abelian coordinates."""
    if family == "G3_2_1":
        core = _from_brackets(3, [(3, 1, {1: 1}), (3, 2, {2: lam})])
    elif family == "G3_2_2":
        core = _from_brackets(3, [(3, 1, {1: 1}), (3, 2, {1: 1, 2: 1})])
    elif family == "G3_2_3":
        if j == 0:
            core = _from_brackets(3, [(3, 1, {2: 1}), (3, 2, {1: -1})])
        else:
            core = _from_brackets(3, [(3, 1, {2: 1}), (3, 2, {1: -j, 2: j})])
    elif family == "G4_2_1":
        core = _from_brackets(4, [(3, 1, {1: 1}), (3, 4, {2: 1})])
    elif family == "G4_2_2":
        core = _from_brackets(4, [(3, 2, {1: 1}), (3, 4, {2: 1})])
    elif family == "G4_2_3":
        core = _from_brackets(4, [(3, 2, {1: 1, 2: lam}), (4, 1, {1: 1}), (4, 2, {2: 1})])
    elif family == "G4_2_4_AffC":
        core = _from_brackets(
            4, [(3, 1, {2: -1}), (3, 2, {1: 1}), (4, 1, {1: 1}), (4, 2, {2: 1})]
        )
    elif family == "G5p2k_2":
        core = _from_brackets(
            5 + 2 * k,
            [(3, 1, {2: 1}), (3, 4, {1: 1})] + [(4 + 2 * i, 5 + 2 * i, {2: 1}) for i in range(k + 1)],
        )
    elif family in ("G6p2k_2_1", "G6p2k_2_2"):
        first = {1: 1} if family == "G6p2k_2_1" else {2: 1}
        second = {2: 1} if family == "G6p2k_2_1" else {1: 1}
        core = _from_brackets(
            6 + 2 * k,
            [(3, 1, first), (3, 4, second)] + [(5 + 2 * i, 6 + 2 * i, {2: 1}) for i in range(k + 1)],
        )
    elif family == "AffR_plus_AffR":
        core = _from_brackets(4, [(3, 1, {1: 1}), (4, 2, {2: 1})])
    elif family == "AffR_plus_Heis":
        core = _from_brackets(
            3 + 2 * m, [(3, 1, {1: 1})] + [(4 + 2 * i, 5 + 2 * i, {2: 1}) for i in range(m)]
        )
    else:
        raise ValueError(f"no canonical table for family {family}")
    n, br = core
    total = n + abelian_ext
    return total, {ij: vec + (0,) * abelian_ext for ij, vec in br.items()}


def codim2_table(a_bar: list) -> tuple:
    """Basis (X_1..X_k, Y, Z) with abelian span(X_i), [Y, X_i] = 0,
    [Z, X_j] = a_bar e_j and [Z, Y] = X_k."""
    k = len(a_bar)
    n = k + 2
    table = {}
    for j in range(k):
        if any(a_bar[i][j] for i in range(k)):
            table[(j, n - 1)] = tuple(-a_bar[i][j] for i in range(k)) + (0, 0)
    table[(n - 2, n - 1)] = tuple(-1 if i == k - 1 else 0 for i in range(n))
    return n, table


def unimodular(rng, n: int) -> tuple[list, list]:
    """A seeded integer matrix of determinant +-1 and its inverse: 2n + 2
    transvections (multipliers up to 4), swaps and sign flips."""
    s = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
    s_inv = [row[:] for row in s]
    for _ in range(2 * n + 2):
        op = rng.randrange(4) if n > 1 else 3
        if op <= 1:
            i, j = rng.sample(range(n), 2)
            lam = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
            for row in s:  # column j += lam * column i
                row[j] += lam * row[i]
            s_inv[i] = [x - lam * y for x, y in zip(s_inv[i], s_inv[j])]
        elif op == 2:
            i, j = rng.sample(range(n), 2)
            for row in s:
                row[i], row[j] = row[j], row[i]
            s_inv[i], s_inv[j] = s_inv[j], s_inv[i]
        else:
            i = rng.randrange(n)
            for row in s:
                row[i] = -row[i]
            s_inv[i] = [-x for x in s_inv[i]]
    return s, s_inv


def signed_permutation(rng, n: int) -> tuple[list, list]:
    """A seeded signed permutation matrix and its inverse (its transpose):
    a relabelling and reorientation of the basis that leaves coefficient
    sizes unchanged."""
    order = list(range(n))
    rng.shuffle(order)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    s = [[signs[c] if order[c] == r else 0 for c in range(n)] for r in range(n)]
    return s, [list(col) for col in zip(*s)]
