"""`propsim.prop_similar`, which compares the characteristic coefficients
as the trace recursion yields them, against the decision it replaced,
kept here as the reference: both characteristic polynomials in full, the
nilpotent branch, the scale test on the whole polynomials, then the
shared tail.  The two must give the same verdict, c and witness, or raise
the same error with the same message, on the pairs of
`scripts/output_digest.py`'s ``propsim`` group drawn from other seeds."""

import importlib.util
from pathlib import Path

import solvlie.matrices
from solvlie.errors import DimensionMismatch, SolvlieError
from solvlie.matrices import Mat, char_poly, inverse
from solvlie.propsim import PropSimVerdict, _exact_scale, _one_field, prop_similar
from solvlie.scalars import exdiv, scalar_sign

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("output_digest", ROOT / "scripts" / "output_digest.py")
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def reference_is_scaled(f, g, ratio, k, sign):
    d = len(f) - 1
    if len(g) != len(f):
        return False
    for j in range(1, d + 1):
        fj, gj = f[d - j], g[d - j]
        if fj == 0 or gj == 0:
            if fj != gj:
                return False
            continue
        q = exdiv(gj, fj)
        if q**k != ratio**j or scalar_sign(q) != sign**j:
            return False
    return True


def reference_prop_similar(a, b, want_witness=True):
    from solvlie.frobenius import frobenius_form, invariant_factors

    if a.shape != b.shape:
        raise DimensionMismatch(f"{a.shape} vs {b.shape}")
    if not a.is_square:
        raise DimensionMismatch("square matrices required")
    n = a.rows
    pa, pb = char_poly(a), char_poly(b)
    nil_a, nil_b = not any(pa[:-1]), not any(pb[:-1])
    if nil_a or nil_b:
        if nil_a != nil_b:
            return PropSimVerdict(False)
        k, ratio = 1, 1
    else:
        k = next(k for k in range(1, n + 1) if pa[n - k] != 0)
        bk = pb[n - k]
        if bk == 0:
            return PropSimVerdict(False)
        ratio = exdiv(bk, pa[n - k])
    if k % 2 == 1:
        signs = [scalar_sign(ratio)]
    else:
        signs = [1, -1] if scalar_sign(ratio) > 0 else []
    fa = fb = None
    for sign in signs:
        if not reference_is_scaled(pa, pb, ratio, k, sign):
            continue
        c = _exact_scale(ratio, k, sign)
        if want_witness and c is not None and _one_field(c, a, b):
            if fb is None:
                fb, p_b = frobenius_form(b)
            fc, p_c = frobenius_form(a.scale(c))
            if fc == fb:
                return PropSimVerdict(True, c, p_b @ inverse(p_c))
            continue
        if fa is None:
            fa, fb = invariant_factors(a), invariant_factors(b)
        if len(fa) == len(fb) and all(reference_is_scaled(f, g, ratio, k, sign) for f, g in zip(fa, fb)):
            return PropSimVerdict(True, c)
    return PropSimVerdict(False)


def outcome(fn, a, b, want_witness):
    """The verdict with the type of c, or the error's type and message."""
    try:
        v = fn(a, b, want_witness)
    except SolvlieError as exc:
        return type(exc).__name__, str(exc)
    return v, type(v.c)


def test_streamed_decision_matches_the_whole_polynomials():
    pairs = output_digest.propsim_pairs(output_digest.harness.child_rng(11, "propsim-oracle"), 36)
    assert len(pairs) >= 3000
    seen = set()
    for a, b in pairs:
        for want in (True, False):
            got = outcome(prop_similar, a, b, want)
            assert got == outcome(reference_prop_similar, a, b, want), (a, b, want)
            seen.add(got[0] if isinstance(got[0], str) else (got[0].equivalent, got[0].witness is not None))
    # refused (`MIXED_PAIRS` among them), equivalent with and without a
    # witness, and inequivalent
    assert seen == {"FieldMismatch", (True, True), (True, False), (False, False)}


def test_an_inequivalent_pair_stops_at_the_first_unmatched_coefficient(monkeypatch):
    # c_1: -10 and -11 fix c = 11/10; c_2: 35 c^2 != 41 rules every c out
    a = Mat([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]])
    b = Mat([[1, 1, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 5]])
    steps = []
    real = solvlie.matrices._exact_quotient

    def counted(x, k):
        steps.append(k)
        return real(x, k)

    monkeypatch.setattr(solvlie.matrices, "_exact_quotient", counted)
    assert prop_similar(a, b, want_witness=False) == PropSimVerdict(False)
    # one trace-recursion step past c_1 per matrix (3 each for the whole
    # polynomials)
    assert steps == [2, 2]
