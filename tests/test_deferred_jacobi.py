"""`classify_n2` checks the Jacobi identity only when the normalization
raises.  Tables with dim g' = 2 that fail Jacobi run into each pipeline
and still come out as JacobiFails, with the message the up-front check
gave; a result that is returned runs no Jacobi check at all."""

import importlib

import pytest

from solvlie import catalog
from solvlie.catalog import scramble_tensor, tensor_from_brackets
from solvlie.errors import NotInClass, Unsupported
from solvlie.harness import corpus_labels
from solvlie.liealg import derived_ideal_t, validate
from solvlie.scalars import QuadExt

# the module, not the function the package exports under the same name
cn2 = importlib.import_module("solvlie.classify_n2")

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
    calls = []
    monkeypatch.setattr(cn2, "validate", lambda t: calls.append(t) or validate(t))
    for lab in corpus_labels()[::4]:
        cn2.classify_n2(scramble_tensor(catalog.build_tensor(lab), 3)[0])
    assert cn2.classify_n2(catalog.l6gamma(1)).witness.canonical is None  # two-step
    assert calls == []


def test_a_lie_algebra_keeps_the_normalization_error():
    # [X3, X1] = sqrt2 X1 + X2, [X3, X2] = -X1 + X2 satisfies Jacobi; its
    # key j is irrational, so the normalization's Unsupported stands
    s2 = QuadExt.make(0, 1, 2)
    table = tensor_from_brackets(3, [(3, 1, {1: s2, 2: 1}), (3, 2, {1: -1, 2: 1})])
    assert validate(table).ok
    with pytest.raises(Unsupported, match="irrational key"):
        cn2.classify_n2(table)
