"""The openings of `classify_n2` and `normalize_codim2` against the full
checks on the input, kept here as the reference: `validate`, then
`derived_series_t`, then the class checks in their documented order.  A
reference that passes hands the frame of the derived series' ideal to the
same normalization, so a different exception, label or witness shows an
opening that decided differently from the full checks."""

import random

from solvlie import catalog, labels
from solvlie.catalog import codim2_algebra, codim2_az_fixtures, scramble_tensor, tensor_from_brackets
from solvlie.classify_n2 import Classification, _classify_frame, classify_n2
from solvlie.codim2 import _normalize_frame, normalize_codim2
from solvlie.errors import NotInClass
from solvlie.harness import fuzz_stream
from solvlie.labels import ClassLabel
from solvlie.liealg import Frame, StructureTensor, derived_ideal_t, derived_series_t, validate
from solvlie.scalars import QuadExt


def reference_classify_n2(tensor):
    rep = validate(tensor)
    if not rep.ok:
        raise NotInClass("JacobiFails", f"first failing triple {rep.triple}")
    series = derived_series_t(tensor)
    if series[-1]:
        raise NotInClass("NotSolvable")
    g1 = series[1] if len(series) > 1 else []
    if len(g1) != 2:
        raise NotInClass("DerivedDimNot2", f"dim of derived ideal is {len(g1)}")
    return _classify_frame(Frame(tensor, g1))


def reference_codim2(tensor):
    rep = validate(tensor)
    if not rep.ok:
        raise NotInClass("JacobiFails", f"first failing triple {rep.triple}")
    series = derived_series_t(tensor)
    if series[-1]:
        raise NotInClass("NotSolvable")
    n = tensor.n
    if n < 4:
        raise NotInClass("DimensionTooSmall", "need n >= 4")
    g1 = series[1] if len(series) > 1 else []
    if len(g1) != n - 2:
        raise NotInClass("DerivedDimNotCodim2", f"dim of derived ideal is {len(g1)}")
    if len(series) > 2 and series[2]:
        raise NotInClass("DerivedNotAbelian")
    return _normalize_frame(Frame(tensor, g1))


def outcome(fn, tensor):
    """The exception's class, reason and message, or the result's fields
    with the witness matrix in place of the witness."""
    try:
        r = fn(tensor)
    except Exception as exc:
        return ("raises", type(exc), getattr(exc, "reason", None), str(exc))
    if isinstance(r, Classification):
        w = r.witness
        return ("returns", r.label, w.transform.matrix, w.target, w.canonical)
    return ("returns", r.case, r.witness.matrix, r.ambient_dim, r.shape, r.a_inner, r.a_bar, r.inner)


def kind(got) -> str:
    """"returns", a NotInClass reason, or another exception's name."""
    if got[0] == "returns":
        return "returns"
    return got[2] if got[1] is NotInClass else got[1].__name__


def random_tables(seed: int, count: int):
    """Sparse tables with n = 2..6: most fail Jacobi or lie outside both
    classes."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 6)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        table = {}
        for i, j in rng.sample(pairs, rng.randint(0, min(len(pairs), 5))):
            v = [0] * n
            for m in rng.sample(range(n), rng.randint(1, 2)):
                v[m] = rng.choice((-2, -1, 1, 2))
            table[(i, j)] = tuple(v)
        yield StructureTensor(n, table)


SL2_PLUS_R2 = tensor_from_brackets(5, [(1, 2, {2: 2}), (1, 3, {3: -2}), (2, 3, {1: 1})])
# R^2 acting on h3 = span(X1, X2, X3) by diag(1, 0, 1) and diag(0, 1, 1)
H3_SEMI_R2 = tensor_from_brackets(
    5, [(1, 2, {3: 1}), (4, 1, {1: 1}), (4, 3, {3: 1}), (5, 2, {2: 1}), (5, 3, {3: 1})]
)
# [X1, X2] = X1, [X1, X3] = X2: the derived ideal is span(X1, X2), and the
# triple (1, 2, 3) fails Jacobi; in dimension 4 that ideal has codimension 2,
# also with the coefficient 1 + sqrt2
JACOBI_FAILS_DIM2 = tensor_from_brackets(3, [(1, 2, {1: 1}), (1, 3, {2: 1})])
JACOBI_FAILS_CODIM2 = tensor_from_brackets(4, [(1, 2, {1: 1}), (1, 3, {2: 1})])
JACOBI_FAILS_QUAD = StructureTensor(4, {(0, 1): (1, 0, 0, 0), (0, 2): (0, QuadExt(1, 1, 2), 0, 0)})


def named_inputs():
    yield SL2_PLUS_R2
    yield H3_SEMI_R2
    yield JACOBI_FAILS_DIM2
    yield JACOBI_FAILS_CODIM2
    yield JACOBI_FAILS_QUAD
    yield catalog.heisenberg(1)  # n = 3, derived ideal of dim 1
    yield catalog.build_tensor(ClassLabel(labels.G3_2_2))  # n = 3, in Lie(3, 2)


def in_class_inputs():
    yield from fuzz_stream(random.Random(19), 40)
    rng = random.Random(20)
    for _, az in codim2_az_fixtures():
        yield scramble_tensor(codim2_algebra(az).tensor, rng.random())[0]


def test_openings_agree_with_the_full_checks():
    seen = {classify_n2: set(), normalize_codim2: set()}
    inputs = [*random_tables(19, 600), *named_inputs(), *in_class_inputs()]
    for tensor in inputs:
        for fn, ref in ((classify_n2, reference_classify_n2), (normalize_codim2, reference_codim2)):
            got = outcome(fn, tensor)
            assert got == outcome(ref, tensor), (fn.__name__, tensor)
            seen[fn].add(kind(got))
    assert seen[classify_n2] == {"JacobiFails", "NotSolvable", "DerivedDimNot2", "returns"}
    assert seen[normalize_codim2] == {
        "JacobiFails", "NotSolvable", "DimensionTooSmall", "DerivedDimNotCodim2",
        "DerivedNotAbelian", "Unsupported", "returns",
    }


def test_named_inputs_meet_their_checks():
    # each named input reaches the check it is named for, in both functions
    cases = [
        (SL2_PLUS_R2, "NotSolvable", "NotSolvable"),
        (H3_SEMI_R2, "DerivedDimNot2", "DerivedNotAbelian"),
        (JACOBI_FAILS_DIM2, "JacobiFails", "JacobiFails"),
        (JACOBI_FAILS_CODIM2, "JacobiFails", "JacobiFails"),
        (JACOBI_FAILS_QUAD, "JacobiFails", "JacobiFails"),
        (catalog.heisenberg(1), "DerivedDimNot2", "DimensionTooSmall"),
    ]
    for tensor, want_n2, want_codim2 in cases:
        for fn, want in ((classify_n2, want_n2), (normalize_codim2, want_codim2)):
            assert kind(outcome(fn, tensor)) == want, (fn.__name__, tensor)
    assert len(derived_ideal_t(SL2_PLUS_R2)) == 3  # codimension 2, yet not solvable
    assert len(derived_ideal_t(JACOBI_FAILS_DIM2)) == 2
    assert len(derived_ideal_t(JACOBI_FAILS_CODIM2)) == 2
    assert len(derived_ideal_t(JACOBI_FAILS_QUAD)) == 2
    assert outcome(classify_n2, JACOBI_FAILS_DIM2)[3] == "JacobiFails: first failing triple (1, 2, 3)"
