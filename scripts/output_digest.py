"""Print sha256 digests of the outputs that a refactor keeps byte for byte.

Usage, from the repository root:

    python3 scripts/output_digest.py

The seeds are fixed and there are no options.  Each line is a group's
name, its number of outputs and a 16-hex prefix of the sha256 of their
text, so equal lines from two checkouts mean equal labels, witnesses and
verdicts.  The groups:

- ``classify``: 1,500 ``harness.fuzz_stream`` inputs and every corpus
  label under three unimodular scrambles; each output is the label, the
  witness matrix and its inverse, or the error's type and message.
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
  the ``prop_similar`` verdict with c and the witness, or the error's type
  and message.
- ``sweep``: the JSON report of ``harness.full_sweep(7, 3)``, as
  ``solvlie sweep --seed 7 --scrambles 3 --format json`` prints it.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from solvlie import catalog, harness  # noqa: E402
from solvlie.classify_n2 import classify_n2  # noqa: E402
from solvlie.codim2 import codim2_isomorphic, normalize_codim2  # noqa: E402
from solvlie.errors import SolvlieError  # noqa: E402
from solvlie.jsonio import dumps  # noqa: E402
from solvlie.matrices import Mat, inverse  # noqa: E402
from solvlie.propsim import prop_similar  # noqa: E402
from solvlie.scalars import QuadExt, Rat, exdiv  # noqa: E402

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


def _classified(t) -> str:
    try:
        c = classify_n2(t)
    except SolvlieError as exc:
        return f"{type(exc).__name__}: {exc}"
    w = c.witness.transform
    return f"{c.label!r} {w.matrix!r} {w.inverse!r}"


def classify_outputs() -> list:
    inputs = list(harness.fuzz_stream(harness.child_rng(SEED, "fuzz"), FUZZ))
    rng = harness.child_rng(SEED, "corpus")
    for lab in harness.corpus_labels():
        t = catalog.build_tensor(lab)
        inputs += [catalog.scramble_tensor(t, rng.random())[0] for _ in range(CORPUS_SCRAMBLES)]
    return [_classified(t) for t in inputs]


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
    t = catalog.tensor_from_brackets(
        5, [(5, 1, {1: 1}), (5, 2, {2: 1}), (5, 3, {3: 1}), (5, 4, {1: 2, 3: -1})]
    )
    for seed in CODIM2_SEEDS:
        f = normalize_codim2(catalog.scramble_tensor(t, seed)[0])
        out.append(f"invertible_az {seed} {f!r}")
    return out


def _entry(rng, field: str):
    num = rng.randint(-3, 3)
    if field == "Z":
        return num
    if field == "Q":
        return Rat(num, rng.randint(1, 3))
    return QuadExt.make(Rat(num, rng.randint(1, 2)), rng.randint(-2, 2), 2)


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


def _propsim_text(a: Mat, b: Mat, want_witness: bool) -> str:
    try:
        return repr(prop_similar(a, b, want_witness))
    except SolvlieError as exc:
        return f"{type(exc).__name__}: {exc}"


def propsim_outputs() -> list:
    pairs = propsim_pairs(harness.child_rng(SEED, "propsim"), PROPSIM_ROUNDS)
    return [_propsim_text(a, b, want) for a, b in pairs for want in (True, False)]


def sweep_outputs() -> list:
    return [dumps(harness.full_sweep(SEED, 3))]


GROUPS = {
    "classify": classify_outputs,
    "codim2": codim2_outputs,
    "propsim": propsim_outputs,
    "sweep": sweep_outputs,
}


def main() -> None:
    for name, outputs in GROUPS.items():
        lines = outputs()
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
        print(f"{name} {len(lines)} {digest}")


if __name__ == "__main__":
    main()
