import ast
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
