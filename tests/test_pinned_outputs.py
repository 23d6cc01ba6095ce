"""Every digest line of `scripts/output_digest.py`, pinned.

Each line is a group's name, its number of outputs and a sha256 prefix of
their text: labels, witnesses and verdicts of the classifier, the codim-2
normal form, proportional similarity and the Frobenius decomposition, and
the sweep report.  A refactor that keeps every output byte for byte keeps
these lines, and the failing case names the group that moved.  After a
deliberate output change, rerun the script and update this one list.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("output_digest", ROOT / "scripts" / "output_digest.py")
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)

PINNED = [
    "classify 1764 bbbcf10ebecb2b26",
    "codim2 30 2a2814046f1f2d53",
    "propsim 680 08e68a36d5b296b7",
    "sweep 1 fea70ab2252063f6",
    "classify_fuzz 100 9f41a491f32db9c0",
    "classify_corpus 88 5393ca86d9145f2b",
    "complex_pairs_3d 144 7fda793208f1cae2",
    "codim2_fixtures 41 4b09b7f1699de7a8",
    "propsim_pairs 72 bc488e74cf8c0c2c",
    "frobenius 24 f1a34435ff4721bc",
]


@pytest.mark.parametrize("group", list(output_digest.GROUPS))
def test_outputs_are_pinned(group):
    pinned = {line.split(" ")[0]: line for line in PINNED}
    assert output_digest.digest_line(group) == pinned.get(group)
