import ast
import os
import subprocess
import sys
from pathlib import Path

import solvlie

SRC = Path(solvlie.__file__).parent


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_no_assert_statements_in_library():
    """`python -O` strips asserts, so invariants must raise instead, and
    raise `ImpossibleBranch`, which the CLI reports as an error line."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert) or (isinstance(node, ast.Raise) and _raises_assertion_error(node))
        ]
    assert not found, f"assert statements or AssertionError raises in solvlie: {found}"


def test_library_and_dependencies_name_no_mpmath():
    """Every verdict is exact, so no floating-point package is used or declared."""
    paths = sorted(SRC.glob("*.py")) + [SRC.parent.parent / "pyproject.toml"]
    assert [p.name for p in paths if "mpmath" in p.read_text(encoding="utf-8")] == []


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
    """`import solvlie.cli` loads neither mpmath nor the sweep harness, and
    a scale c = 2^(1/3) is decided exactly without mpmath."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    r = subprocess.run([sys.executable, "-c", COLD_START], env=env,
                       capture_output=True, text=True, timeout=120, check=True)
    assert r.stdout.splitlines() == ["[]", "True exact False"]
