import ast
import os
import subprocess
import sys
from pathlib import Path

import solvlie

SRC = Path(solvlie.__file__).parent


def test_no_assert_statements_in_library():
    """`python -O` strips asserts, so invariants must raise instead."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in solvlie: {found}"


COLD_START = """
import sys
import solvlie.cli
print(sorted(m for m in ("mpmath", "solvlie.harness") if m in sys.modules))
from solvlie.matrices import Mat
from solvlie.propsim import prop_similar
v = prop_similar(Mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]]), Mat([[0, 0, 2], [1, 0, 0], [0, 1, 0]]))
print(v.equivalent, v.mode, "mpmath" in sys.modules)
"""


def test_cli_import_leaves_numeric_and_sweep_modules_unloaded():
    """`import solvlie.cli` loads neither mpmath (numeric propsim fallback
    only) nor the sweep harness; the fallback still loads mpmath on use."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    r = subprocess.run([sys.executable, "-c", COLD_START], env=env,
                       capture_output=True, text=True, timeout=120, check=True)
    assert r.stdout.splitlines() == ["[]", "True numeric True"]
