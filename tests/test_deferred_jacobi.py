"""`classify_n2` checks the Jacobi identity only when the normalization
raises.  Tables with dim g' = 2 that fail Jacobi run into each pipeline
and still come out as JacobiFails, with the message the up-front check
gave; a result that is returned runs no Jacobi check at all.

`normalize_codim2` reads the Jacobi identity off the adjoint pair
(a_Y, a_Z) of its frame: a non-commuting pair with a two-dimensional
span reaches the normalization and comes out as JacobiFails, with the
message the full checks give; a commuting one stays Unsupported; a
returned form runs no Jacobi check."""

import importlib
import random
import sys

import pytest
from test_opening_oracle import kind, outcome, reference_codim2

from solvlie import catalog, liealg
from solvlie.catalog import codim2_algebra, codim2_az_fixtures, scramble_tensor, tensor_from_brackets
from solvlie.errors import NotInClass, Unsupported
from solvlie.harness import corpus_labels
from solvlie.liealg import Frame, StructureTensor, derived_ideal_t, validate
from solvlie.matrices import Mat, independent_rows
from solvlie.scalars import QuadExt

# the modules, not the functions the package exports under the same names
cn2 = importlib.import_module("solvlie.classify_n2")
c2 = importlib.import_module("solvlie.codim2")


def count_validate(monkeypatch) -> list:
    """Route every solvlie module's binding of `liealg.validate` through a
    recorder; the returned list collects the tensors it is called on."""
    calls = []
    real = liealg.validate

    def recorded(t):
        calls.append(t)
        return real(t)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] == "solvlie" and vars(mod).get("validate") is real:
            monkeypatch.setattr(mod, "validate", recorded)
    return calls


# (table, the pipeline step it reaches, first failing triple unscrambled,
# first failing triple under scramble 5)
CASES = {
    # a_X3 = I and [X4, X5] = X1: the far bracket the invertible action forbids
    "line_invertible": (
        tensor_from_brackets(5, [(3, 1, {1: 1}), (3, 2, {2: 1}), (4, 5, {1: 1})]),
        "_invertible_action_pipeline", (3, 4, 5), (1, 2, 3),
    ),
    # a_X3 = diag(1, 0): case 1 of the chain families, [X4, X5] keeps an X1-part
    "case1_chain": (
        tensor_from_brackets(5, [(3, 1, {1: 1}), (3, 4, {2: 1}), (4, 5, {1: 1, 2: 1})]),
        "_case1_shape", (3, 4, 5), (1, 2, 3),
    ),
    # a_X3 nilpotent: case 2 of the chain families, [X5, X6] = 2 X1
    "case2_chain": (
        tensor_from_brackets(6, [(3, 1, {2: 1}), (3, 4, {1: 1}), (5, 6, {1: 2})]),
        "_case2_shape", (3, 5, 6), (2, 5, 6),
    ),
    # a_X3 = diag(1, 0) and a_X4 = E21 do not commute
    "plane": (
        tensor_from_brackets(4, [(3, 1, {1: 1}), (4, 1, {2: 1})]),
        "_adjoint_plane_pipeline", (1, 3, 4), (1, 2, 3),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("scrambled", [False, True])
def test_jacobi_failures_raise_from_each_pipeline(name, scrambled, monkeypatch):
    table, step, triple, scrambled_triple = CASES[name]
    if scrambled:
        table, triple = scramble_tensor(table, 5)[0], scrambled_triple
    assert len(derived_ideal_t(table)) == 2
    reached = []
    real = getattr(cn2, step)
    monkeypatch.setattr(cn2, step, lambda *a: reached.append(step) or real(*a))
    with pytest.raises(NotInClass) as info:
        cn2.classify_n2(table)
    assert reached == [step]
    assert info.value.reason == "JacobiFails"
    assert str(info.value) == f"JacobiFails: first failing triple {triple}"


def test_a_returned_classification_runs_no_jacobi_check(monkeypatch):
    calls = count_validate(monkeypatch)
    for lab in corpus_labels()[::4]:
        cn2.classify_n2(scramble_tensor(catalog.build_tensor(lab), 3)[0])
    assert cn2.classify_n2(catalog.l6gamma(1)).witness.canonical is None  # two-step
    assert calls == []


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_jacobi_failure_is_validated_once(name, monkeypatch):
    table = CASES[name][0]
    calls = count_validate(monkeypatch)
    with pytest.raises(NotInClass, match="JacobiFails"):
        cn2.classify_n2(table)
    assert calls == [table]


def test_a_lie_algebra_keeps_the_normalization_error():
    # [X3, X1] = sqrt2 X1 + X2, [X3, X2] = -X1 + X2 satisfies Jacobi; its
    # key j is irrational, so the normalization's Unsupported stands
    s2 = QuadExt.make(0, 1, 2)
    table = tensor_from_brackets(3, [(3, 1, {1: s2, 2: 1}), (3, 2, {1: -1, 2: 1})])
    assert validate(table).ok
    with pytest.raises(Unsupported, match="irrational key"):
        cn2.classify_n2(table)


# (table, first failing triple unscrambled, under scramble 5): a_Y and a_Z
# span a plane and do not commute
CODIM2_CASES = {
    "n4": (tensor_from_brackets(4, [(3, 1, {1: 1}), (4, 1, {2: 1})]), (1, 3, 4), (1, 2, 3)),
    "n5": (tensor_from_brackets(5, [(4, 1, {1: 1}), (5, 1, {2: 1}), (5, 2, {3: 1})]), (1, 4, 5), (2, 3, 4)),
}


def adjoint_span_dim(table) -> int:
    return len(independent_rows(Frame(table, derived_ideal_t(table)).flat_adjoints()))


@pytest.mark.parametrize("name", sorted(CODIM2_CASES))
@pytest.mark.parametrize("scrambled", [False, True])
def test_a_non_commuting_adjoint_pair_fails_jacobi(name, scrambled, monkeypatch):
    table, triple, scrambled_triple = CODIM2_CASES[name]
    if scrambled:
        table, triple = scramble_tensor(table, 5)[0], scrambled_triple
    assert len(derived_ideal_t(table)) == table.n - 2 and adjoint_span_dim(table) == 2
    reached = []
    real = c2._normalize_frame
    monkeypatch.setattr(c2, "_normalize_frame", lambda fr: reached.append(fr.input) or real(fr))
    with pytest.raises(NotInClass) as info:
        c2.normalize_codim2(table)
    assert reached == [table]
    assert str(info.value) == f"JacobiFails: first failing triple {triple}"


@pytest.mark.parametrize("scrambled", [False, True])
def test_a_commuting_adjoint_plane_stays_unsupported(scrambled):
    table = tensor_from_brackets(4, [(3, 1, {1: 1}), (4, 2, {2: 1})])
    if scrambled:
        table = scramble_tensor(table, 5)[0]
    assert validate(table).ok and adjoint_span_dim(table) == 2
    with pytest.raises(Unsupported, match="two-dimensional adjoint span"):
        c2.normalize_codim2(table)


def test_a_returned_codim2_form_runs_no_jacobi_check(monkeypatch):
    rng = random.Random(26)
    inputs = [scramble_tensor(codim2_algebra(az).tensor, rng.random())[0] for _, az in codim2_az_fixtures()]
    calls = count_validate(monkeypatch)
    shapes = {c2.normalize_codim2(t).shape for t in inputs}
    assert shapes == {c2.LEFT, c2.RIGHT}
    assert calls == []


def codim2_shaped_tables(seed: int, count: int):
    """Tables on (X_1..X_k, Y, Z), k = 2..5, with sparse random a_Y, a_Z and
    [Y, Z] in span(X_i), half of them scrambled; also the pair (a_Y, a_Z)."""
    rng = random.Random(seed)
    entry = (-2, -1, 0, 0, 0, 0, 1, 1, 2)
    for _ in range(count):
        k = rng.randint(2, 5)
        n = k + 2
        a_y, a_z = ([[rng.choice(entry) for _ in range(k)] for _ in range(k)] for _ in range(2))
        table = {}
        for j in range(k):
            table[(j, k)] = tuple(-a_y[i][j] for i in range(k)) + (0, 0)  # [X_j, Y] = -a_Y e_j
            table[(j, k + 1)] = tuple(-a_z[i][j] for i in range(k)) + (0, 0)
        table[(k, k + 1)] = tuple(rng.choice(entry) for _ in range(k)) + (0, 0)
        t = StructureTensor(n, table)
        if rng.random() < 0.5:
            t = scramble_tensor(t, rng.random())[0]
        yield t, Mat(a_y), Mat(a_z)


def test_the_commutator_branch_agrees_with_the_full_checks():
    reached = {"non-commuting": 0, "commuting": 0}
    for t, a_y, a_z in codim2_shaped_tables(26, 1500):
        got = outcome(c2.normalize_codim2, t)
        assert got == outcome(reference_codim2, t), t
        if len(derived_ideal_t(t)) == t.n - 2 and adjoint_span_dim(t) == 2:
            commuting = a_y @ a_z == a_z @ a_y  # in every basis or in none
            reached["commuting" if commuting else "non-commuting"] += 1
            assert kind(got) == ("Unsupported" if commuting else "JacobiFails"), got
    assert reached["non-commuting"] >= 100 and reached["commuting"] >= 10, reached
