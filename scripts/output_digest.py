"""Print sha256 digests of the outputs that a refactor keeps byte for byte.

Usage, from the repository root:

    python3 scripts/output_digest.py

The seeds are fixed and there are no options.  Each line is a group's
name, its number of outputs and a 16-hex prefix of the sha256 of their
text, so equal lines mean equal labels, witnesses and verdicts.
``tests/test_pinned_outputs.py`` pins every line; after a deliberate
output change, rerun this script and update that one list.  An error is
rendered as its type and message.  The groups:

- ``classify``: 1,500 ``harness.fuzz_stream`` inputs and every corpus
  label under three unimodular scrambles; each output is the label, the
  witness matrix and its inverse.
- ``codim2``: the ``catalog.codim2_az_fixtures`` algebras under scramble
  seeds 0..4; each output is the normal form and its ``codim2_isomorphic``
  verdict against the normal form of the unscrambled algebra.  Then a
  5-dimensional algebra whose a_Z is invertible, under the same seeds; its
  normal form is decomposable, which ``codim2_isomorphic`` does not take,
  so each output is the form alone.
- ``propsim``: ``propsim_pairs`` of sizes 1..4 over Z, Q and Q(sqrt 2)
  from a fixed seed (a matrix with a scaled conjugate and with a random
  partner; nilpotent, zero and traceless pairs; pairs that mix the
  radicands 2 and 3), each run with and without a witness; each output is
  the ``prop_similar`` verdict with c and the witness.
- ``sweep``: the JSON report of ``harness.full_sweep(7, 3)``, as
  ``solvlie sweep --seed 7 --scrambles 3 --format json`` prints it.
- ``classify_fuzz``: 100 ``harness.fuzz_stream`` inputs from another
  seed; each output is the JSON that ``solvlie classify --format json``
  prints.
- ``classify_corpus``: every corpus label under one scramble, as
  ``classify_fuzz``.
- ``complex_pairs_3d``: invertible 2x2 matrices with a complex pair of
  eigenvalues over Q and Q(sqrt 2); each output is the
  ``propsim_classify_gl2`` class, then the ``classify`` JSON of the
  3-dimensional algebra the matrix acts in.
- ``codim2_fixtures``: the codim-2 fixtures and two 5-dimensional
  algebras, each unscrambled and under two scrambles; each output is a
  normal form, or a ``codim2_isomorphic`` verdict against the unscrambled
  form or between two fixtures.
- ``propsim_pairs``: 2x2..4x4 matrices over Z, Q and Q(sqrt 2), each
  against a scaled conjugate and a random partner; each output is the
  verdict, c and the witness.
- ``frobenius``: conjugate pairs (A, B) of sizes 2..5 over Z, Q and
  Q(sqrt 2), dense and with a repeated block; each output is the
  invariant factors of A, then digests of the entry text of the
  ``frobenius_form`` basis P and of ``similarity_witness(B, A)``.
"""

from __future__ import annotations

import hashlib
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from solvlie import catalog, harness  # noqa: E402
from solvlie.classify_n2 import classify_n2  # noqa: E402
from solvlie.codim2 import codim2_isomorphic, normalize_codim2  # noqa: E402
from solvlie.errors import SolvlieError  # noqa: E402
from solvlie.frobenius import frobenius_form, similarity_witness  # noqa: E402
from solvlie.jsonio import algebra_to_json, classification_to_json, dumps, matrix_to_json  # noqa: E402
from solvlie.matrices import Mat, det, inverse  # noqa: E402
from solvlie.propsim import prop_similar, propsim_classify_gl2  # noqa: E402
from solvlie.scalars import QuadExt, Rat, exdiv, format_scalar  # noqa: E402

SEED = 7
FUZZ = 1500
CORPUS_SCRAMBLES = 3
CODIM2_SEEDS = range(5)
PROPSIM_ROUNDS = 4

SQRT2, SQRT3 = QuadExt(0, 1, 2), QuadExt(0, 1, 3)
# c of the scaled conjugates c P^-1 A P
SCALES = (1, -1, 2, Rat(1, 2), -3, SQRT2)
# pairs whose arithmetic mixes the radicands 2 and 3
MIXED_PAIRS = (
    # A's c_2 mixes them, while c_1 already tells the pair apart
    (Mat([[1, SQRT2], [SQRT3, 0]]), Mat([[0, 1], [1, 0]])),
    # b_2 / a_2 mixes them, while c_1 is 0 for A only
    (Mat([[0, SQRT2], [1, 0]]), Mat([[1, 0], [0, SQRT3]])),
    # within one matrix
    (Mat([[SQRT2, 1, 0], [0, 1, SQRT3], [1, 0, 0]]), Mat([[1, 0, 0], [0, 2, 0], [0, 0, 3]])),
    # across the pair
    (Mat([[SQRT2, 1], [1, 0]]), Mat([[SQRT3, 0], [1, 1]])),
)
# 5-dimensional tables: [X5, X_i] = X_i (i = 1..3), and with
# [X5, X4] = 2 X1 - X3 added, a_Z is invertible
SCALING_BRACKETS = [(5, 1, {1: 1}), (5, 2, {2: 1}), (5, 3, {3: 1})]
INVERTIBLE_AZ_BRACKETS = SCALING_BRACKETS + [(5, 4, {1: 2, 3: -1})]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _guarded(fn, *args) -> str:
    try:
        return fn(*args)
    except SolvlieError as exc:
        return f"{type(exc).__name__}: {exc}"


def _mat(m) -> str:
    return "none" if m is None else dumps(matrix_to_json(m))


def _scalar(x) -> str:
    return "none" if x is None else format_scalar(x)


def _classify_repr(t) -> str:
    c = classify_n2(t)
    w = c.witness.transform
    return f"{c.label!r} {w.matrix!r} {w.inverse!r}"


def _classify_json(t) -> str:
    return dumps(classification_to_json(classify_n2(t)))


def _gl2_text(a) -> str:
    cls = propsim_classify_gl2(a)
    return " ".join((cls.family, _scalar(cls.j), _mat(cls.rep), _scalar(cls.c),
                     _mat(cls.cmat), _scalar(cls.lam), str(cls.cos_sign)))


def _form_text(f) -> str:
    inner = None if f.inner is None else dumps(algebra_to_json(f.inner))
    return " ".join((f.case, str(f.shape), _mat(f.a_inner), _mat(f.a_bar),
                     str(inner), _mat(f.witness.matrix)))


def _iso_text(f1, f2) -> str:
    v = codim2_isomorphic(f1, f2)
    return f"{v.isomorphic} {_scalar(v.c)} {_mat(v.m_f)}"


def _propsim_repr(a, b, want_witness: bool) -> str:
    return repr(prop_similar(a, b, want_witness))


def _propsim_text(a, b) -> str:
    v = prop_similar(a, b)
    return f"{v.equivalent} {_scalar(v.c)} {_mat(v.witness)}"


def _entry(rng, field: str):
    num = rng.randint(-3, 3)
    if field == "Z":
        return num
    if field == "Q":
        return Rat(num, rng.randint(1, 3))
    return QuadExt.make(Rat(num, rng.randint(1, 2)), rng.randint(-2, 2), 2)


def _int3(rng):
    return rng.randint(-3, 3)


def _rational(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _quad2(rng):
    return QuadExt.make(rng.randint(-3, 3), Fraction(rng.randint(-2, 2), rng.randint(1, 2)), 2)


def _square(rng, n: int, entry) -> Mat:
    return Mat([[entry(rng) for _ in range(n)] for _ in range(n)])


def _matrix(rng, n: int, field: str, upper: bool = False) -> Mat:
    """A random n x n matrix; strictly upper triangular when `upper`."""
    return Mat([[_entry(rng, field) if j > i or not upper else 0 for j in range(n)]
                for i in range(n)])


def _traceless(m: Mat) -> Mat:
    n = m.rows
    return m - Mat.identity(n).scale(exdiv(m.trace(), n))


def propsim_pairs(rng, rounds: int) -> list:
    """(A, B) pairs of sizes 1..4 over Z, Q and Q(sqrt 2): `MIXED_PAIRS`,
    then per round, size and field a matrix against a scaled conjugate
    c P^-1 A P and against a random partner, a nilpotent and a traceless
    matrix each against a scaled conjugate and a random partner of its
    kind, and the zero matrix against itself, a matrix and a nilpotent
    one (on the Z round only)."""
    pairs = list(MIXED_PAIRS)

    def conjugate(m: Mat) -> Mat:
        p = harness._rand_gl(rng, m.rows)
        return inverse(p) @ m.scale(rng.choice(SCALES)) @ p

    for _ in range(rounds):
        for n in range(1, 5):
            for field in ("Z", "Q", "Q(sqrt 2)"):
                a = _matrix(rng, n, field)
                nil = _matrix(rng, n, field, upper=True)
                tl = _traceless(_matrix(rng, n, field))
                pairs += [
                    (a, conjugate(a)),
                    (a, _matrix(rng, n, field)),
                    (nil, conjugate(nil)),
                    (nil, conjugate(_matrix(rng, n, field, upper=True))),
                    (tl, conjugate(tl)),
                    (tl, _traceless(_matrix(rng, n, field))),
                ]
                if field == "Z":
                    zero = Mat([[0] * n for _ in range(n)])
                    pairs += [(zero, zero), (zero, a), (nil, zero)]
    return pairs


def _complex_pairs(rng, entry, count: int, traceless: bool) -> list:
    """Invertible 2x2 matrices with a complex pair of eigenvalues."""
    out = []
    while len(out) < count:
        a, b, c = entry(rng), entry(rng), entry(rng)
        d = -a if traceless else entry(rng)
        m = Mat([[a, b], [c, d]])
        t = m.trace()
        if det(m) != 0 and t * t - 4 * det(m) < 0:
            out.append(m)
    return out


def _unimodular(rng, n: int) -> Mat:
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1, 2))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return Mat(rows)


def _block_diag(mats) -> Mat:
    n = sum(m.rows for m in mats)
    rows, off = [], 0
    for m in mats:
        rows += [[0] * off + list(r) + [0] * (n - off - m.rows) for r in m.data]
        off += m.rows
    return Mat(rows)


def _entries_text(m: Mat) -> str:
    return ";".join(",".join(format_scalar(x) for x in row) for row in m.data)


def classify_outputs() -> list:
    inputs = list(harness.fuzz_stream(harness.child_rng(SEED, "fuzz"), FUZZ))
    rng = harness.child_rng(SEED, "corpus")
    for lab in harness.corpus_labels():
        t = catalog.build_tensor(lab)
        inputs += [catalog.scramble_tensor(t, rng.random())[0] for _ in range(CORPUS_SCRAMBLES)]
    return [_guarded(_classify_repr, t) for t in inputs]


def codim2_outputs() -> list:
    out = []
    for name, az in catalog.codim2_az_fixtures():
        alg = catalog.codim2_algebra(az)
        f0 = normalize_codim2(alg)
        for seed in CODIM2_SEEDS:
            f = normalize_codim2(catalog.scramble_tensor(alg.tensor, seed)[0])
            v = codim2_isomorphic(f0, f)
            out.append(f"{name} {seed} {f!r} {v!r}")
    # a_Z invertible: [Z, Y] is cleared by shifting Y inside the ideal
    t = catalog.tensor_from_brackets(5, INVERTIBLE_AZ_BRACKETS)
    for seed in CODIM2_SEEDS:
        f = normalize_codim2(catalog.scramble_tensor(t, seed)[0])
        out.append(f"invertible_az {seed} {f!r}")
    return out


def propsim_outputs() -> list:
    pairs = propsim_pairs(harness.child_rng(SEED, "propsim"), PROPSIM_ROUNDS)
    return [_guarded(_propsim_repr, a, b, want) for a, b in pairs for want in (True, False)]


def sweep_outputs() -> list:
    return [dumps(harness.full_sweep(SEED, 3))]


def classify_fuzz_outputs() -> list:
    return [_guarded(_classify_json, t) for t in harness.fuzz_stream(random.Random(7), 100)]


def classify_corpus_outputs() -> list:
    rng = random.Random(11)
    return [_guarded(_classify_json, catalog.scramble_tensor(catalog.build_tensor(lab), rng.random())[0])
            for lab in harness.corpus_labels()]


def complex_pairs_3d_outputs() -> list:
    """Over Q, over Q(sqrt2), and rational pairs scaled by a unit of
    Q(sqrt2), whose key j stays rational, so `classify` runs through;
    each once with a trace and once traceless (the quarter-turn class)."""
    rng = random.Random(5)
    mats = []
    for traceless in (False, True):
        mats += _complex_pairs(rng, _rational, 12, traceless)
        mats += _complex_pairs(rng, _quad2, 12, traceless)
        for m in _complex_pairs(rng, _rational, 12, traceless):
            mats.append(m.scale(QuadExt.make(rng.randint(-2, 2), rng.choice((-1, 1)), 2)))
    out = []
    for m in mats:
        out.append(_guarded(_gl2_text, m))
        out.append(_guarded(_classify_json, harness._three_dim_from(m)))
    return out


def codim2_fixtures_outputs() -> list:
    tensors = [catalog.codim2_algebra(az).tensor for _, az in catalog.codim2_az_fixtures()]
    tensors += [catalog.tensor_from_brackets(5, b) for b in (SCALING_BRACKETS, INVERTIBLE_AZ_BRACKETS)]
    rng = random.Random(13)
    out = []
    forms = []
    for t in tensors:
        f0 = normalize_codim2(t)
        out.append(_form_text(f0))
        for _ in range(2):
            f1 = normalize_codim2(catalog.scramble_tensor(t, rng.random())[0])
            out.append(_form_text(f1))
            if f0.case == "structure_matrix":
                out.append(_iso_text(f0, f1))
        if f0.case == "structure_matrix":
            forms.append(f0)
    out += [_iso_text(f1, f2) for f1, f2 in itertools.combinations(forms, 2)]
    return out


def propsim_pairs_outputs() -> list:
    rng = random.Random(17)
    out = []
    for n in (2, 3, 4):
        for entry in (_int3, _rational, _quad2):
            for _ in range(4):
                a = _square(rng, n, entry)
                p = harness._rand_gl(rng, n)
                c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
                out.append(_guarded(_propsim_text, a, inverse(p) @ a.scale(c) @ p))
                out.append(_guarded(_propsim_text, a, _square(rng, n, entry)))
    return out


def frobenius_outputs() -> list:
    """Each size comes once dense (cyclic) and once with a repeated block,
    so the decomposition has more than one invariant factor."""
    rng = random.Random(2024)
    out = []
    for entry in (_int3, lambda r: _entry(r, "Q"), _quad2):
        for n in (2, 3, 4, 5):
            for repeat in (False, True):
                if repeat:
                    blk = _square(rng, n // 2, entry)
                    d = _block_diag([blk, blk] + ([_square(rng, 1, entry)] if n % 2 else []))
                else:
                    d = _square(rng, n, entry)
                p = _unimodular(rng, n)
                a = inverse(p) @ d @ p
                q = _unimodular(rng, n)
                b = inverse(q) @ a @ q
                factors, basis = frobenius_form(a)
                text = " | ".join(" ".join(format_scalar(x) for x in f) for f in factors)
                out.append(f"{text}; {digest(_entries_text(basis))} "
                           f"{digest(_entries_text(similarity_witness(b, a)))}")
    return out


GROUPS = {
    "classify": classify_outputs,
    "codim2": codim2_outputs,
    "propsim": propsim_outputs,
    "sweep": sweep_outputs,
    "classify_fuzz": classify_fuzz_outputs,
    "classify_corpus": classify_corpus_outputs,
    "complex_pairs_3d": complex_pairs_3d_outputs,
    "codim2_fixtures": codim2_fixtures_outputs,
    "propsim_pairs": propsim_pairs_outputs,
    "frobenius": frobenius_outputs,
}


def digest_line(name: str) -> str:
    """The group's name, its number of outputs and the digest of their text."""
    lines = GROUPS[name]()
    text = "\n".join(lines)
    return f"{name} {len(lines)} {digest(text)}"


def main() -> None:
    for name in GROUPS:
        print(digest_line(name))


if __name__ == "__main__":
    main()
