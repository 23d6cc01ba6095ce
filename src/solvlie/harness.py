"""Property-sweep harness: corpus grids, fuzz generators, and the checks
behind the batch `sweep` command.

All randomness flows from one explicit seed; child generators are derived
from (seed, task name), so every report is reproducible bit for bit and
tasks may run in any order.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from . import catalog, labels
from .classify_n2 import classify_n2
from .codim2 import codim2_isomorphic, normalize_codim2
from .errors import ImpossibleBranch, NonAbelianDerivedIdeal, NotInClass
from .labels import ClassLabel
from .liealg import (
    StructureTensor,
    _basis_change,
    adjoint_algebra_t,
    derived_ideal_t,
    derived_series_t,
    lower_central_series_t,
    validate,
)
from .matrices import Mat, det, inverse, kernel_basis
from .propsim import prop_similar
from .scalars import exdiv


def child_rng(seed, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


@dataclass
class Report:
    name: str
    passed: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, detail: str = ""):
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(detail)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def as_json(self) -> dict:
        out = {"name": self.name, "passed": self.passed, "failed": self.failed}
        if self.failures:
            out["failures"] = self.failures
        return out


LAM_SWEEP = (
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(3),
    Fraction(-3),
)
J_SWEEP = (Fraction(0), Fraction(1), Fraction(2), Fraction(3))
K_SWEEP = (0, 1, 2)
M_SWEEP = (1, 2, 3)
D_SWEEP = (0, 1, 3)
MAX_DIM = 12


def _lam_key(lam: Fraction) -> Fraction:
    return exdiv((1 + lam) * (1 + lam), lam)


def corpus_labels() -> list[ClassLabel]:
    """The (family, parameter, abelian-extension) grid used by the
    idempotence sweep; more than 60 points, all of dimension <= 12."""
    pts: list[ClassLabel] = []
    for d in D_SWEEP:
        for lam in LAM_SWEEP:
            pts.append(ClassLabel(labels.G3_2_1, abelian_ext=d, lam=lam, j=_lam_key(lam)))
        pts.append(ClassLabel(labels.G3_2_2, abelian_ext=d))
        for j in J_SWEEP:
            pts.append(ClassLabel(labels.G3_2_3, abelian_ext=d, j=j))
        pts.append(ClassLabel(labels.G4_2_1, abelian_ext=d))
        pts.append(ClassLabel(labels.G4_2_2, abelian_ext=d))
        pts.append(ClassLabel(labels.G4_2_3, abelian_ext=d, lam=Fraction(0)))
        pts.append(ClassLabel(labels.G4_2_4_AFFC, abelian_ext=d))
        for k in K_SWEEP:
            pts.append(ClassLabel(labels.G5P2K_2, abelian_ext=d, k=k))
            pts.append(ClassLabel(labels.G6P2K_2_1, abelian_ext=d, k=k))
            pts.append(ClassLabel(labels.G6P2K_2_2, abelian_ext=d, k=k))
        pts.append(ClassLabel(labels.AFFR_PLUS_AFFR, abelian_ext=d))
        for m in M_SWEEP:
            pts.append(ClassLabel(labels.AFFR_PLUS_HEIS, abelian_ext=d, m=m))
    out = []
    for lab in pts:
        if catalog.build_tensor(lab).n <= MAX_DIM:
            out.append(lab)
    return out


def expected_key(lab: ClassLabel) -> tuple:
    """Classification key the classifier should report for a constructor
    label; identical to lab.key except for the documented lam <-> 1/lam
    normalization of the diagonal family."""
    if lab.family == labels.G3_2_1:
        return (lab.family, lab.abelian_ext, _lam_key(lab.lam))
    return lab.key


def idempotence_sweep(seed, scrambles: int) -> Report:
    rep = Report("corpus_idempotence")
    for lab in corpus_labels():
        t = catalog.build_tensor(lab)
        want = expected_key(lab)
        rng = child_rng(seed, f"idem:{lab}")
        for s in range(scrambles):
            st, _ = catalog.scramble_tensor(t, rng.random())
            try:
                got = classify_n2(st)
                rep.check(got.label.key == want, f"{lab} scramble {s}: got {got.label}")
            except Exception as exc:  # noqa: BLE001 - report, do not crash the sweep
                rep.check(False, f"{lab} scramble {s}: {exc!r}")
    return rep


def _nilpotent(t: StructureTensor) -> bool:
    return not lower_central_series_t(t)[-1]


def odd_dimension_sweep(seed, total: int) -> Report:
    """No classification may be simultaneously indecomposable,
    non-nilpotent, and of odd ambient dimension >= 5."""
    rep = Report("odd_dimension_parity")
    labs = corpus_labels()
    nil = {str(lab): _nilpotent(catalog.build_tensor(lab)) for lab in labs}
    rng = child_rng(seed, "cor2")
    i = 0
    while rep.passed + rep.failed < total:
        lab = labs[i % len(labs)]
        i += 1
        t = catalog.build_tensor(lab)
        st, _ = catalog.scramble_tensor(t, rng.random())
        got = classify_n2(st)
        n = t.n
        bad = (
            not got.label.decomposable
            and not nil[str(lab)]
            and n >= 5
            and n % 2 == 1
        )
        rep.check(not bad, f"{lab}: odd indecomposable non-nilpotent result {got.label}")
    return rep


def derived_ideal_guard_sweep(seed, fuzz_count: int = 300) -> Report:
    """Derived-ideal facts on corpus and fuzzed algebras with dim G1 = 2:
    the ideal is abelian, the adjoint restrictions commute pairwise, and
    their span has dimension at most 2."""
    rep = Report("derived_ideal_guard")
    tensors = [catalog.build_tensor(lab) for lab in corpus_labels()]
    rng = child_rng(seed, "derived-guard")
    tensors += [t for t in fuzz_stream(rng, fuzz_count, max_dim=7)]
    for t in tensors:
        if len(derived_ideal_t(t)) != 2:
            continue
        try:
            mats, dim = adjoint_algebra_t(t)
        except NonAbelianDerivedIdeal:
            rep.check(False, "non-abelian 2-dim derived ideal on validated input")
            continue
        commuting = all(
            a @ b == b @ a for a, b in itertools.combinations(mats, 2)
        )
        # Schur-Jacobson bound on a 2-dim ideal: floor(4/4) + 1 = 2
        rep.check(dim <= 2 and commuting, f"dim {dim} commuting {commuting}")
    return rep


def exhaustive_n3_search() -> Report:
    """Brute force over all 3-dimensional bracket tables with coefficients
    in {-2..2}: no Jacobi-valid table has a non-abelian 2-dimensional
    derived ideal (integer arithmetic fast path)."""
    rep = Report("exhaustive_n3_search")
    rng5 = range(-2, 3)
    vecs = [v for v in itertools.product(rng5, repeat=3)]

    def cross(u, v):
        return (
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        )

    def brack(u, v, b12, b13, b23):
        c12 = u[0] * v[1] - u[1] * v[0]
        c13 = u[0] * v[2] - u[2] * v[0]
        c23 = u[1] * v[2] - u[2] * v[1]
        return tuple(
            c12 * b12[i] + c13 * b13[i] + c23 * b23[i] for i in range(3)
        )

    hits = 0
    checked = 0
    for b12 in vecs:
        for b13 in vecs:
            c_ab = cross(b12, b13)
            for b23 in vecs:
                # rank of span(b12, b13, b23) must be exactly 2
                det3 = c_ab[0] * b23[0] + c_ab[1] * b23[1] + c_ab[2] * b23[2]
                if det3 != 0:
                    continue
                if c_ab != (0, 0, 0):
                    u, v = b12, b13
                elif cross(b12, b23) != (0, 0, 0):
                    u, v = b12, b23
                elif cross(b13, b23) != (0, 0, 0):
                    u, v = b13, b23
                else:
                    continue  # rank <= 1
                w = brack(u, v, b12, b13, b23)
                if w == (0, 0, 0):
                    continue  # abelian derived ideal: fine
                checked += 1
                # Jacobi on the only triple: [[X1,X2],X3] + [[X3,X1],X2]
                # + [[X2,X3],X1], with [X3,X1] = -b13
                j1 = brack(b12, (0, 0, 1), b12, b13, b23)
                j2 = brack((0, 1, 0), b13, b12, b13, b23)
                j3 = brack(b23, (1, 0, 0), b12, b13, b23)
                if all(j1[i] + j2[i] + j3[i] == 0 for i in range(3)):
                    hits += 1
    rep.check(hits == 0, f"{hits} validated non-abelian tables found")
    rep.passed += checked if hits == 0 else 0
    return rep


# ----------------------------------------------------------------------
# Fuzzing
# ----------------------------------------------------------------------


def _rand_vec(rng, n, lo=-2, hi=2):
    return tuple(rng.randint(lo, hi) for _ in range(n))


def _fuzz_table(n: int, mats: list, us: list, kernel_part=None) -> StructureTensor:
    """The table with a_{X_i} = mats[i - 3] on the ideal span(X_1, X_2),
    [X_1, X_2] = 0 and [X_i, X_j] = a_i(u_j) - a_j(u_i), plus
    `kernel_part()` when given, for 3 <= i < j."""
    pad = (0,) * (n - 2)
    table: dict = {}
    for idx, m in enumerate(mats):
        if not m.is_zero():
            table[(0, 2 + idx)] = tuple(-x for x in m.col(0)) + pad
            table[(1, 2 + idx)] = tuple(-x for x in m.col(1)) + pad
    for x, y in itertools.combinations(range(n - 2), 2):
        w = tuple(p - q for p, q in zip(mats[x].apply(us[y]), mats[y].apply(us[x])))
        if kernel_part is not None:
            w = tuple(p + q for p, q in zip(w, kernel_part()))
        table[(2 + x, 2 + y)] = w + pad
    return StructureTensor(n, table)


def fuzz_dim1_tensor(rng: random.Random, n: int) -> Optional[StructureTensor]:
    """Jacobi-consistent random table with a one-dimensional adjoint line:
    a_{X_i} = alpha_i A and [X_i, X_j] = a_i(u_j) - a_j(u_i) + kernel part."""
    a = Mat([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
    if a.is_zero():
        return None
    alphas = [Fraction(1)] + [Fraction(rng.randint(-2, 2)) for _ in range(n - 3)]
    us = [_rand_vec(rng, 2) for _ in range(n - 2)]
    kern = kernel_basis(a)

    def kernel_part():
        if kern and rng.random() < 0.5:
            coef = rng.randint(-2, 2)
            return (coef * kern[0][0], coef * kern[0][1])
        return (0, 0)

    return _fuzz_table(n, [a.scale(al) for al in alphas], us, kernel_part)


def fuzz_dim2_tensor(rng: random.Random, n: int) -> Optional[StructureTensor]:
    """Jacobi-consistent random table with a two-dimensional adjoint span
    built from a commuting pair (A, sI + tA)."""
    if n < 4:
        return None
    a = Mat([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
    if a.is_zero():
        return None
    s = rng.choice((1, -1, 2, -2))
    tco = rng.randint(-2, 2)
    b = Mat.identity(2).scale(s) + a.scale(tco)
    coeffs = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    coeffs += [
        (Fraction(rng.randint(-1, 1)), Fraction(rng.randint(-1, 1)))
        for _ in range(n - 4)
    ]
    mats = [a.scale(al) + b.scale(be) for al, be in coeffs]
    us = [_rand_vec(rng, 2) for _ in range(n - 2)]
    return _fuzz_table(n, mats, us)


def fuzz_sparse_tensor(rng: random.Random, n: int) -> Optional[StructureTensor]:
    """Raw fuzz: a sparse random table with entries in {-2..2}, kept only
    when it passes validate."""
    table = {}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in rng.sample(pairs, min(len(pairs), rng.randint(1, 3))):
        vec = [0] * n
        for _ in range(rng.randint(1, 2)):
            vec[rng.randrange(n)] = rng.randint(-2, 2)
        table[(i, j)] = tuple(vec)
    t = StructureTensor(n, table)
    if not validate(t).ok:
        return None
    return t


def fuzz_stream(rng: random.Random, count: int, max_dim: int = 8) -> Iterable[StructureTensor]:
    """Validated solvable tensors with a 2-dimensional derived ideal,
    scrambled by random unimodular matrices."""
    produced = 0
    while produced < count:
        n = rng.choice((3, 3, 3, 4, 4, 4, 5, 5, 6, 6, 7, min(8, max_dim)))
        n = min(n, max_dim)
        mode = rng.random()
        if mode < 0.45:
            t = fuzz_dim1_tensor(rng, n)
        elif mode < 0.75 and n >= 4:
            t = fuzz_dim2_tensor(rng, n)
        else:
            t = fuzz_sparse_tensor(rng, min(n, 4))
        if t is None:
            continue
        if not validate(t).ok:
            raise ImpossibleBranch("constructed fuzz tensor failed validate")
        series = derived_series_t(t)
        if series[-1]:
            continue  # not solvable (possible for the sparse stream)
        g1 = series[1] if len(series) > 1 else []
        if len(g1) != 2:
            continue
        st, _ = catalog.scramble_tensor(t, rng.random())
        produced += 1
        yield st


def fuzz_completeness(seed, count: int) -> Report:
    rep = Report("fuzz_completeness")
    rng = child_rng(seed, "fuzz")
    for t in fuzz_stream(rng, count):
        try:
            classify_n2(t)
            rep.check(True)
        except NotInClass as exc:
            rep.check(False, f"fall-through: {exc}")
        except Exception as exc:  # noqa: BLE001
            rep.check(False, f"{type(exc).__name__}: {exc}")
    return rep


# ----------------------------------------------------------------------
# Proportional-similarity law sweeps
# ----------------------------------------------------------------------


def _rand_mat(rng, n, lo=-3, hi=3) -> Mat:
    return Mat([[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)])


def _rand_gl(rng, n, lo=-3, hi=3) -> Mat:
    while True:
        m = _rand_mat(rng, n, lo, hi)
        if det(m) != 0:
            return m


def propsim_laws_sweep(seed, pairs: int) -> Report:
    """Equivalence-relation laws with verified witnesses on random 2x2 and
    3x3 integer matrices."""
    rep = Report("propsim_laws")
    rng = child_rng(seed, "propsim-laws")
    for i in range(pairs):
        n = 2 if i % 2 == 0 else 3
        a = _rand_mat(rng, n)
        b = _rand_mat(rng, n)
        # reflexivity with identity witness
        va = prop_similar(a, a)
        rep.check(va.equivalent and va.verify(a, a), "reflexivity")
        v = prop_similar(a, b)
        if v.witness is not None:
            rep.check(v.verify(a, b), "witness identity")
            # symmetry: invert the witness
            back = prop_similar(b, a)
            rep.check(back.equivalent, "symmetry")
            if back.witness is not None:
                rep.check(back.verify(b, a), "symmetric witness")
        # transitivity through a scaled conjugate
        c = rng.choice((1, -1, 2, Fraction(1, 2), 3))
        p = _rand_gl(rng, n, -2, 2)
        bb = (inverse(p) @ a @ p).scale(c)
        v1 = prop_similar(a, bb)
        rep.check(v1.equivalent, f"constructed pair must be equivalent (c={c})")
        if v1.witness is not None:
            rep.check(v1.verify(a, bb), "constructed witness")
    return rep


def padded_block_sweep(seed, pairs: int) -> Report:
    """Block facts: padding by a zero block preserves the left-corner
    equivalence both ways, and the left-corner form is never equivalent to
    the right-corner form."""
    rep = Report("padded_blocks")
    rng = child_rng(seed, "padded-blocks")

    def left_pad(m: Mat) -> Mat:
        n = m.rows
        return Mat(
            [list(m.data[i]) + [0] for i in range(n)] + [[0] * (n + 1)]
        )

    def right_pad(m: Mat) -> Mat:
        n = m.rows
        rows = [[0] + list(m.data[i]) for i in range(n)] + [[0] * (n + 1)]
        return Mat(rows)

    for i in range(pairs):
        a = _rand_gl(rng, 3)
        if i % 2 == 0:
            c = rng.choice((1, -1, 2, Fraction(1, 2)))
            p = _rand_gl(rng, 3, -2, 2)
            b = (inverse(p) @ a @ p).scale(c)
        else:
            b = _rand_gl(rng, 3)
        inner = prop_similar(a, b, want_witness=False)
        padded = prop_similar(left_pad(a), left_pad(b), want_witness=False)
        rep.check(
            inner.equivalent == padded.equivalent,
            f"fact (i) failed: inner {inner.equivalent} padded {padded.equivalent}",
        )
        mixed = prop_similar(left_pad(a), right_pad(b), want_witness=False)
        rep.check(not mixed.equivalent, "fact (iii): mixed shapes compared equal")
    return rep


def padded_block_counterexample() -> tuple[Mat, Mat]:
    """A pair with A not prop-similar to B whose zero-padded right-corner
    forms are similar; found by bounded search over small integer matrices."""
    def right_pad2(m: Mat) -> Mat:
        return Mat(
            [
                [0, 0, m[0, 0], m[0, 1]],
                [0, 0, m[1, 0], m[1, 1]],
                [0, 0, 0, 0],
                [0, 0, 0, 0],
            ]
        )

    cands = []
    for entries in itertools.product(range(-1, 2), repeat=4):
        m = Mat([[entries[0], entries[1]], [entries[2], entries[3]]])
        if det(m) != 0:
            cands.append(m)
    for a in cands:
        for b in cands:
            if prop_similar(a, b, want_witness=False).equivalent:
                continue
            if prop_similar(right_pad2(a), right_pad2(b), want_witness=False).equivalent:
                return a, b
    raise ImpossibleBranch("no counterexample found in the search box")


# ----------------------------------------------------------------------
# Codimension-2 sweep
# ----------------------------------------------------------------------


def codim2_sweep(seed, scrambles: int) -> Report:
    rep = Report("codim2_structure")
    forms = []
    for name, az in catalog.codim2_az_fixtures():
        alg = catalog.codim2_algebra(az)
        forms.append((name, alg, normalize_codim2(alg)))
    for (n1, _, f1), (n2, _, f2) in itertools.combinations(forms, 2):
        v = codim2_isomorphic(f1, f2, want_witness=False)
        rep.check(not v.isomorphic, f"{n1} vs {n2} wrongly isomorphic")
    rng = child_rng(seed, "thm2")
    for name, alg, f0 in forms:
        for s in range(scrambles):
            st, _ = catalog.scramble_tensor(alg.tensor, rng.random())
            f1 = normalize_codim2(st)
            rep.check(f1.shape == f0.shape, f"{name}: shape flipped under scramble")
            v = codim2_isomorphic(f0, f1)
            ok = v.isomorphic and (v.c is None or v.m_f is not None)
            rep.check(ok, f"{name} scramble {s}: round-trip not isomorphic")
    return rep


def morozov_sweep() -> Report:
    rep = Report("morozov")
    for r in catalog.morozov_check():
        rep.check(r.ok, f"gamma={r.gamma}: {r.detail}")
    return rep


def redundancy_witnesses() -> Report:
    """Explicit isomorphisms behind the parameter redundancies: the
    diagonal lam <-> 1/lam pair and the two rotation orientations."""
    rep = Report("redundancy_witnesses")
    # diag(1, 2) algebra vs diag(1, 1/2) algebra
    a2 = catalog.build_tensor(ClassLabel(labels.G3_2_1, lam=Fraction(2)))
    ah = catalog.build_tensor(ClassLabel(labels.G3_2_1, lam=Fraction(1, 2)))
    v = prop_similar(Mat([[1, 0], [0, 2]]), Mat([[1, 0], [0, Fraction(1, 2)]]))
    rep.check(v.equivalent and v.verify(Mat([[1, 0], [0, 2]]), Mat([[1, 0], [0, Fraction(1, 2)]])),
              "matrix-level lam witness")
    # algebra-level witness: swap the eigenlines and rescale the acting vector
    t = Mat([[0, 1, 0], [1, 0, 0], [0, 0, Fraction(1, 2)]])
    rep.check(a2.transform(t, Mat([[0, 1, 0], [1, 0, 0], [0, 0, 2]])) == ah,
              "algebra-level lam witness")
    # rotation phi vs pi - phi at the same key j = 2
    m1 = Mat([[1, -1], [1, 1]])
    m2 = Mat([[-1, -1], [1, -1]])
    v = prop_similar(m1, m2)
    rep.check(v.equivalent and v.c == -1 and v.verify(m1, m2), "rotation pair witness")
    c1 = classify_n2(_three_dim_from(m1))
    c2 = classify_n2(_three_dim_from(m2))
    rep.check(
        c1.label.key == c2.label.key and c1.label.j == 2,
        "rotation orientations must share the class key",
    )
    rep.check(
        c1.label.cos_sign != c2.label.cos_sign,
        "orientations should present opposite cosine signs",
    )
    # the two witnesses compose into an exact isomorphism of the algebras
    w2 = c2.witness.transform
    iso = c1.witness.transform.then(_basis_change(w2.inverse, w2.matrix))
    rep.check(
        _three_dim_from(m1).transform(iso.matrix, iso.inverse) == _three_dim_from(m2),
        "composed rotation isomorphism",
    )
    return rep


def _three_dim_from(a: Mat) -> StructureTensor:
    return catalog.tensor_from_brackets(
        3,
        [
            (3, 1, {1: a[0, 0], 2: a[1, 0]}),
            (3, 2, {1: a[0, 1], 2: a[1, 1]}),
        ],
    )


# ----------------------------------------------------------------------
# Full sweep
# ----------------------------------------------------------------------


def full_sweep(seed=0, scrambles: int = 20) -> dict:
    """Run every property suite; sized for the CLI (the acceptance tests
    run the criteria at their stated larger sizes)."""
    reports = [
        idempotence_sweep(seed, scrambles),
        derived_ideal_guard_sweep(seed, fuzz_count=100),
        odd_dimension_sweep(seed, total=max(200, scrambles * 10)),
        propsim_laws_sweep(seed, pairs=60),
        padded_block_sweep(seed, pairs=30),
        codim2_sweep(seed, scrambles=min(scrambles, 20)),
        morozov_sweep(),
        redundancy_witnesses(),
        fuzz_completeness(seed, count=max(100, scrambles * 5)),
    ]
    reports.sort(key=lambda r: r.name)
    return {
        "seed": seed,
        "scrambles": scrambles,
        "ok": all(r.ok for r in reports),
        "suites": [r.as_json() for r in reports],
    }
