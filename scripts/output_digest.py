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
  verdict against the normal form of the unscrambled algebra.
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

SEED = 7
FUZZ = 1500
CORPUS_SCRAMBLES = 3
CODIM2_SEEDS = range(5)


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
    return out


def sweep_outputs() -> list:
    return [dumps(harness.full_sweep(SEED, 3))]


GROUPS = {"classify": classify_outputs, "codim2": codim2_outputs, "sweep": sweep_outputs}


def main() -> None:
    for name, outputs in GROUPS.items():
        lines = outputs()
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
        print(f"{name} {len(lines)} {digest}")


if __name__ == "__main__":
    main()
