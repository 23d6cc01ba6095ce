"""Pinned outputs of the classifier, the codim-2 normal form and the
proportional-similarity engine.

Each group renders its outputs to text (the `classify` JSON of the CLI,
matrices and scalars in their canonical text, an error as its type and
message) and compares a sha256 prefix of the whole text with the value
recorded before the change that introduced this file.  A refactor that
keeps every label, witness and verdict byte for byte keeps these digests;
any change in a witness shows here.
"""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from solvlie import catalog, harness
from solvlie.classify_n2 import classify_n2
from solvlie.codim2 import codim2_isomorphic, normalize_codim2
from solvlie.errors import SolvlieError
from solvlie.jsonio import algebra_to_json, dumps, matrix_to_json
from solvlie.matrices import Mat, det, inverse
from solvlie.propsim import prop_similar, propsim_classify_gl2
from solvlie.scalars import QuadExt, format_scalar


def _mat(m) -> str:
    return "none" if m is None else dumps(matrix_to_json(m))


def _scalar(x) -> str:
    return "none" if x is None else format_scalar(x)


def _guarded(fn, *args) -> str:
    try:
        return fn(*args)
    except SolvlieError as exc:
        return f"{type(exc).__name__}: {exc}"


def _classify_json(t) -> str:
    c = classify_n2(t)
    canonical = c.witness.canonical
    return dumps({
        "family": c.label.family,
        "params": c.label.params(),
        "abelian_ext": c.label.abelian_ext,
        "witness": matrix_to_json(c.witness.transform.matrix),
        "canonical": algebra_to_json(canonical) if canonical is not None else None,
    })


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


def _propsim_text(a, b) -> str:
    v = prop_similar(a, b)
    return f"{v.equivalent} {_scalar(v.c)} {_mat(v.witness)}"


def classify_fuzz() -> list:
    stream = harness.fuzz_stream(random.Random(7), 100)
    return [_guarded(_classify_json, t) for t in stream]


def classify_corpus() -> list:
    rng = random.Random(11)
    out = []
    for lab in harness.corpus_labels():
        st, _ = catalog.scramble_tensor(catalog.build_tensor(lab), rng.random())
        out.append(_guarded(_classify_json, st))
    return out


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


def _quad2(rng):
    return QuadExt.make(rng.randint(-3, 3), Fraction(rng.randint(-2, 2), rng.randint(1, 2)), 2)


def _rational(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def complex_pairs_3d() -> list:
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


def codim2_fixtures() -> list:
    tensors = [catalog.codim2_algebra(az).tensor for _, az in catalog.codim2_az_fixtures()]
    tensors += [
        catalog.tensor_from_brackets(5, [(5, 1, {1: 1}), (5, 2, {2: 1}), (5, 3, {3: 1})]),
        catalog.tensor_from_brackets(
            5, [(5, 1, {1: 1}), (5, 2, {2: 1}), (5, 3, {3: 1}), (5, 4, {1: 2, 3: -1})]
        ),
    ]
    rng = random.Random(13)
    out = []
    forms = []
    for t in tensors:
        f0 = normalize_codim2(t)
        out.append(_form_text(f0))
        for _ in range(2):
            st, _ = catalog.scramble_tensor(t, rng.random())
            f1 = normalize_codim2(st)
            out.append(_form_text(f1))
            if f0.case == "structure_matrix":
                out.append(_iso_text(f0, f1))
        if f0.case == "structure_matrix":
            forms.append(f0)
    for f1, f2 in itertools.combinations(forms, 2):
        out.append(_iso_text(f1, f2))
    return out


def propsim_pairs() -> list:
    rng = random.Random(17)
    out = []
    for n in (2, 3, 4):
        for entry in (lambda r: r.randint(-3, 3), _rational, _quad2):
            for _ in range(4):
                a = Mat([[entry(rng) for _ in range(n)] for _ in range(n)])
                p = harness._rand_gl(rng, n)
                c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
                b = inverse(p) @ a.scale(c) @ p
                out.append(_guarded(_propsim_text, a, b))
                other = Mat([[entry(rng) for _ in range(n)] for _ in range(n)])
                out.append(_guarded(_propsim_text, a, other))
    return out


GROUPS = {
    "classify_fuzz": classify_fuzz,
    "classify_corpus": classify_corpus,
    "complex_pairs_3d": complex_pairs_3d,
    "codim2_fixtures": codim2_fixtures,
    "propsim_pairs": propsim_pairs,
}

PINNED = {
    "classify_fuzz": "9f41a491f32db9c0",
    "classify_corpus": "5393ca86d9145f2b",
    "complex_pairs_3d": "7fda793208f1cae2",
    "codim2_fixtures": "4b09b7f1699de7a8",
    "propsim_pairs": "bc488e74cf8c0c2c",
}


def digest(group: str) -> str:
    text = "\n".join(GROUPS[group]())
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_outputs_are_pinned(group):
    assert digest(group) == PINNED[group]
