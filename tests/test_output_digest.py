"""scripts/output_digest.py, the byte-identity check of a refactor, runs
and prints one line per group: its name, its number of outputs and a
16-hex sha256 prefix.  The digests themselves are not pinned here;
tests/test_pinned_outputs.py pins its own groups."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_output_digest_prints_one_line_per_group():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digest.py")],
        capture_output=True, text=True, check=True, timeout=600,
    )
    lines = out.stdout.splitlines()
    assert [line.split(" ")[:2] for line in lines] == [
        ["classify", "1764"], ["codim2", "30"], ["propsim", "680"], ["sweep", "1"]
    ]
    for line in lines:
        assert re.fullmatch(r"[a-z0-9]+ [0-9]+ [0-9a-f]{16}", line), line
