"""Acceptance suite: each test runs one top-level criterion at its stated
size and prints a single pass line.  Everything is exact arithmetic, so
tolerances are zero throughout, and every verdict is exact.
"""

import time

from solvlie import harness
from solvlie.matrices import Mat
from solvlie.propsim import prop_similar

SEED = 20240808


def _report(name: str, rep: harness.Report, t0: float):
    status = "PASS" if rep.ok else "FAIL"
    print(f"[{status}] {name}: +{rep.passed} -{rep.failed} in {time.time() - t0:.1f}s")
    assert rep.ok, rep.failures[:5]


def test_criterion_corpus_idempotence():
    t0 = time.time()
    labs = harness.corpus_labels()
    assert len(labs) >= 60
    rep = harness.idempotence_sweep(SEED, scrambles=100)
    assert rep.passed >= len(labs) * 100
    _report("corpus idempotence (>=60 points x 100 scrambles)", rep, t0)


def test_criterion_derived_ideal_guards():
    t0 = time.time()
    rep = harness.derived_ideal_guard_sweep(SEED, fuzz_count=400)
    _report("derived-ideal guard on corpus + fuzz", rep, t0)
    t0 = time.time()
    rep = harness.exhaustive_n3_search()
    _report("exhaustive n=3 search over {-2..2} tables", rep, t0)


def test_criterion_odd_dimension_parity():
    t0 = time.time()
    rep = harness.odd_dimension_sweep(SEED, total=10_000)
    assert rep.passed + rep.failed == 10_000
    _report("odd-dimension parity over corpus + 10^4 scrambles", rep, t0)


def test_criterion_propsim_engine():
    t0 = time.time()
    rep = harness.propsim_laws_sweep(SEED, pairs=500)
    _report("propsim equivalence laws on 500 pairs", rep, t0)
    t0 = time.time()
    rep = harness.padded_block_sweep(SEED, pairs=200)
    _report("padded-block facts on 200 GL3 pairs", rep, t0)
    t0 = time.time()
    a, b = harness.padded_block_counterexample()
    # frozen fixture from the deterministic bounded search
    assert (a, b) == (Mat([[-1, -1], [-1, 0]]), Mat([[-1, -1], [-1, 1]]))
    assert not prop_similar(a, b).equivalent
    pad = lambda m: Mat(
        [
            [0, 0, m[0, 0], m[0, 1]],
            [0, 0, m[1, 0], m[1, 1]],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
        ]
    )
    v = prop_similar(pad(a), pad(b))
    assert v.equivalent and v.verify(pad(a), pad(b))
    print(f"[PASS] padded-block counterexample fixture in {time.time() - t0:.1f}s")


def test_criterion_codim2_suite():
    t0 = time.time()
    rep = harness.codim2_sweep(SEED, scrambles=100)
    _report("codimension-2 suite (pairwise + 100 scrambles/entry + M_f)", rep, t0)


def test_criterion_morozov_regression():
    t0 = time.time()
    rep = harness.morozov_sweep()
    assert rep.passed == 5
    _report("morozov regression over gamma in {1, 4, 2, -1, -3}", rep, t0)


def test_criterion_redundancy_witnesses():
    t0 = time.time()
    rep = harness.redundancy_witnesses()
    _report("redundancy witnesses (lam <-> 1/lam, phi <-> pi-phi)", rep, t0)


def test_criterion_fuzz_completeness():
    t0 = time.time()
    rep = harness.fuzz_completeness(SEED, count=10_000)
    assert rep.passed + rep.failed == 10_000
    _report("fuzz completeness on 10^4 validated tensors (n <= 8)", rep, t0)
