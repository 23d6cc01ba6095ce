"""The dim A_G = 2 dispatch of `classify_n2` against the common-eigendirection
path it replaced, kept here as the reference: both spectra classified, the
eigendirections of the first non-scalar matrix filtered for being common
to the pair, deduplicated and sorted.  The pipeline reads one spectrum, of
the first non-scalar generator m, since A_G = span(I, m); the two must
agree on the case, on the split directions and on the X_3 / X_4 swap of the
complex case, over Z, Q and Q(sqrt 2)."""

import importlib
import random
import sys
from fractions import Fraction

import pytest

from solvlie import catalog, labels
from solvlie.catalog import scramble_tensor, tensor_from_brackets
from solvlie.errors import SolvlieError
from solvlie.labels import ClassLabel
from solvlie.matrices import (
    Mat,
    common_eigenvector,
    det,
    inverse,
    kernel_basis,
    normalize_leading,
    spectral_classify_2x2,
)
from solvlie.scalars import QuadExt, exdiv, scalar_sign

# the module, not the function the package exports under the same name
cn2 = importlib.import_module("solvlie.classify_n2")

SQRT2 = QuadExt(0, 1, 2)
I2 = Mat.identity(2)


def reference_eigendirections_2x2(m):
    sc = spectral_classify_2x2(m)
    if sc.kind == "complex_pair":
        return []
    if sc.kind == "repeated_diagonalizable":
        return [(sc.mu1, (1, 0)), (sc.mu1, (0, 1))]
    eigs = [sc.mu1] if sc.kind == "repeated_jordan" else [sc.mu1, sc.mu2]
    out = []
    for mu in eigs:
        shifted = m - Mat.identity(2).scale(mu)
        for v in kernel_basis(shifted):
            out.append((mu, normalize_leading(v)))
    return out


def reference_common_eigendirections_2x2(m1, m2):
    """All common eigendirections of a commuting pair, sorted (largest
    first); None when either spectrum is complex.  (The deleted
    `has_real_eigenvalues` property is spelled out.)"""
    s1 = spectral_classify_2x2(m1)
    s2 = spectral_classify_2x2(m2)
    if not (s1.kind != "complex_pair" and s2.kind != "complex_pair"):
        return None
    if s1.kind != "repeated_diagonalizable":
        cands = [v for _, v in reference_eigendirections_2x2(m1)]
    elif s2.kind != "repeated_diagonalizable":
        cands = [v for _, v in reference_eigendirections_2x2(m2)]
    else:
        cands = [(1, 0), (0, 1)]
    # commuting partners preserve 1-dim eigenspaces, but filter defensively
    out = []
    for v in cands:
        w1, w2 = m1.apply(v), m2.apply(v)
        if _is_multiple(w1, v) and _is_multiple(w2, v):
            out.append(v)
    seen = []
    for v in out:
        if v not in seen:
            seen.append(v)
    # int, Rat and QuadExt compare exactly with <, so tuples sort as they are
    seen.sort(reverse=True)
    return seen if seen else None


def _is_multiple(w, v) -> bool:
    # v is nonzero; check w = c v for some scalar c
    for i, x in enumerate(v):
        if x != 0:
            c = exdiv(w[i], x)
            return all(w[j] == c * v[j] for j in range(len(v)))
    return False


def reference_reading(a3, a4):
    """(case, detail) as the parent pipeline dispatched: the complex case
    with its swap (a_{X_3} not itself a complex pair), the split case with
    its directions, or the one-eigenline case."""
    s3 = spectral_classify_2x2(a3)
    s4 = spectral_classify_2x2(a4)
    if s3.kind == "complex_pair" or s4.kind == "complex_pair":
        return "complex", spectral_classify_2x2(a3).kind != "complex_pair"
    dirs = reference_common_eigendirections_2x2(a3, a4)
    assert dirs is not None
    if len(dirs) >= 2:
        return "split", dirs
    return "one_eigenline", None


class Reached(Exception):
    pass


def record_cases(monkeypatch):
    """Stop the pipeline where the type's data is produced, with the case
    and its detail: the complex case's X_3 / X_4 swap, the split case's
    directions (the columns of its change of basis of g')."""
    split = cn2._plane_split_data
    monkeypatch.setattr(cn2, "_plane_complex_data", lambda m, swap, *rest: _stop("complex", swap))
    monkeypatch.setattr(cn2, "_plane_split_data", lambda *args: _stop("split", split(*args)[2].columns()))
    monkeypatch.setattr(cn2, "_plane_one_eigenline_data", lambda *args: _stop("one_eigenline", None))


def _stop(case, detail):
    raise Reached(case, detail)


def outcome(fn, *args):
    try:
        return fn(*args)
    except Reached as r:
        return r.args
    except SolvlieError as exc:
        return type(exc).__name__, str(exc)


def entry(rng, field):
    if field == "Z":
        return rng.randint(-3, 3)
    q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return q if field == "Q" else q + rng.randint(-2, 2) * SQRT2


def random_mat(rng, field):
    return Mat([[entry(rng, field) for _ in range(2)] for _ in range(2)])


def conjugated(rng, field, core):
    while True:
        p = random_mat(rng, field)
        if det(p) != 0:
            return p @ core @ inverse(p)


def disc_sign(m):
    t = m.trace()
    return scalar_sign(t * t - 4 * det(m))


def generator(rng, field, kind):
    """A non-scalar m of the given spectral kind.  A split m over Z may
    have irrational eigenvalues; over Q and Q(sqrt 2) it is conjugated from
    a diagonal whose entries differ by a rational, so its discriminant has
    a square root there ("any" may leave one without: Unsupported)."""
    while True:
        if kind == "jordan":
            mu = entry(rng, field)
            m = conjugated(rng, field, Mat([[mu, 1], [0, mu]]))
        elif kind == "split" and field != "Z":
            mu = entry(rng, field)
            m = conjugated(rng, field, Mat([[mu, 0], [0, mu + rng.choice((-2, -1, Fraction(1, 2), 3))]]))
        else:
            m = random_mat(rng, field)
            if (kind == "complex" and disc_sign(m) >= 0) or (kind == "split" and disc_sign(m) <= 0):
                continue
        if m != I2.scale(m[0, 0]):
            return m


def pair(rng, field, shape, m):
    """(a_{X_3}, a_{X_4}) = (alpha I + beta m, gamma I + delta m),
    independent, with a_{X_3} != 0 and the scalar one as `shape` says."""
    while True:
        alpha, beta, gamma, delta = (entry(rng, field) for _ in range(4))
        if shape == "a3 scalar":
            beta = 0
        elif shape == "a4 scalar":
            delta = 0
        elif beta == 0 or delta == 0:
            continue
        if alpha * delta - beta * gamma != 0:
            return I2.scale(alpha) + m.scale(beta), I2.scale(gamma) + m.scale(delta)


def plane_tensor(a3, a4, u):
    """[X_3, X_c] = a3 e_c, [X_4, X_c] = a4 e_c, [X_3, X_4] = u: g' is
    span(X_1, X_2), in front, so the frame reads a3 and a4 as they are."""
    br = [(i, c + 1, {1: a[0, c], 2: a[1, c]}) for i, a in ((3, a3), (4, a4)) for c in range(2)]
    br.append((3, 4, {1: u[0], 2: u[1]}))
    return tensor_from_brackets(4, br)


def reference_first(a3, a4):
    dirs = outcome(reference_common_eigendirections_2x2, a3, a4)
    return dirs if isinstance(dirs, tuple) else (dirs[0] if dirs else None)


def test_plane_reading_matches_the_common_eigendirection_path(monkeypatch):
    """Where the reference refuses the pair because a_{X_4} = gamma I +
    delta a_{X_3} with an irrational delta has a discriminant without a
    square root in Q(sqrt 2), the pipeline reads a_{X_3} alone, and reads
    it as the reference reads the pair (a_{X_3}, I)."""
    rng = random.Random(2718)
    record_cases(monkeypatch)
    seen = set()
    count = 0
    for field in ("Z", "Q", "Q(sqrt 2)"):
        for shape in ("a3 scalar", "a4 scalar", "both non-scalar"):
            for kind in ("split", "complex", "jordan", "any"):
                for _ in range(60):
                    a3, a4 = pair(rng, field, shape, generator(rng, field, kind))
                    t = plane_tensor(a3, a4, (entry(rng, field), entry(rng, field)))
                    want, first = outcome(reference_reading, a3, a4), reference_first(a3, a4)
                    got = outcome(cn2.classify_n2, t)
                    if got != want:
                        assert want[0] == "Unsupported" and shape == "both non-scalar", (a3, a4)
                        want, first = outcome(reference_reading, a3, I2), reference_first(a3, I2)
                        seen.add("a spectrum the reference refused")
                    assert got == want, (field, shape, a3, a4)
                    assert outcome(common_eigenvector, a3, a4) == first, (a3, a4)
                    seen.add((field, shape, got[0]))
                    count += 1
    assert count >= 2000
    cases = {(f, s, c) for f in ("Z", "Q", "Q(sqrt 2)")
             for s in ("a3 scalar", "a4 scalar", "both non-scalar")
             for c in ("split", "complex", "one_eigenline")}
    assert seen >= cases | {("Q(sqrt 2)", "both non-scalar", "Unsupported"), "a spectrum the reference refused"}


def plane_inputs():
    """Scrambled dim A_G = 2 algebras of every type, and the unscrambled
    pairs of each shape."""
    out = []
    for lab in (
        ClassLabel(labels.AFFR_PLUS_AFFR),
        ClassLabel(labels.AFFR_PLUS_AFFR, abelian_ext=2),
        ClassLabel(labels.G4_2_4_AFFC, abelian_ext=1),
        ClassLabel(labels.G4_2_3, lam=Fraction(0)),
        ClassLabel(labels.G4_2_3, lam=Fraction(-2), abelian_ext=1),
    ):
        t = catalog.build_tensor(lab)
        out += [t] + [scramble_tensor(t, s)[0] for s in range(3)]
    rng = random.Random(5)
    for shape in ("a3 scalar", "a4 scalar", "both non-scalar"):
        for kind in ("split", "complex", "jordan"):
            out.append(plane_tensor(*pair(rng, "Q", shape, generator(rng, "Q", kind)), (1, 0)))
    return out


@pytest.mark.parametrize("t", plane_inputs())
def test_plane_classify_reads_one_spectrum(t, monkeypatch):
    """One classify of a dim A_G = 2 input classifies one 2x2 spectrum."""
    calls = []
    real = spectral_classify_2x2

    def counted(m):
        calls.append(m)
        return real(m)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] == "solvlie" and vars(mod).get("spectral_classify_2x2") is real:
            monkeypatch.setattr(mod, "spectral_classify_2x2", counted)
    c = cn2.classify_n2(t)
    assert c.label.family in (labels.AFFR_PLUS_AFFR, labels.G4_2_4_AFFC, labels.G4_2_3)
    assert len(calls) <= 1, calls
