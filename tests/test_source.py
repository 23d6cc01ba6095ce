import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import solvlie

SRC = Path(solvlie.__file__).parent
SCRIPTS = SRC.parent.parent / "scripts"


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


def _unread_from_imports(tree) -> list:
    """The names a module binds with `from ... import` and never reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def _library_and_scripts() -> list:
    return sorted(SRC.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))


def test_every_from_import_is_read():
    """No module or script keeps a name it imports and never uses."""
    found = []
    for path in _library_and_scripts():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line} {name}" for line, name in _unread_from_imports(tree)]
    assert not found, f"unused imports in solvlie or scripts: {found}"


def _unread_parameters(tree) -> list:
    """(line, function, parameter) for each parameter of a non-dunder
    function that its body, nested functions included, never reads;
    `self` and `cls` are exempt."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
        read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found += [(node.lineno, node.name, p.arg) for p in params
                  if p.arg not in ("self", "cls") and p.arg not in read]
    return sorted(found)


def test_every_parameter_is_read():
    """No function of the library or the scripts takes an argument it ignores."""
    found = []
    for path in _library_and_scripts():
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line} {fn}({arg})" for line, fn, arg in _unread_parameters(tree)]
    assert not found, f"unread parameters in solvlie or scripts: {found}"


def _private_definitions_and_reads(trees) -> tuple:
    """The single-underscore functions, methods and classes the trees
    define, as (module, line, name), and the names they read: a `Name`
    load or an attribute access.  An import binds a name without reading
    it, so import lines do not count."""
    defined, read = [], set()
    for module, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.startswith("__"):
                    defined.append((module, node.lineno, node.name))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return defined, read


def test_every_private_function_is_read():
    """No private helper is left defined with no reader in the library."""
    trees = [(p.name, ast.parse(p.read_text(encoding="utf-8"), filename=str(p))) for p in sorted(SRC.glob("*.py"))]
    defined, read = _private_definitions_and_reads(trees)
    assert len(defined) > 50
    found = [f"{module}:{line} {name}" for module, line, name in defined if name not in read]
    assert not found, f"private helpers nothing in solvlie reads: {found}"


def test_normal_forms_build_no_checked_basis_change():
    """`BasisChange(matrix)` inverts by elimination and is kept for
    matrices from outside; the normalizations and the frame form every
    inverse with the change (`_basis_change`), so no code in these
    modules outside the class itself calls the checked constructor."""
    found = []
    for name in ("classify_n2.py", "codim2.py", "liealg.py"):
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"), filename=name)
        tree.body = [n for n in tree.body if not (isinstance(n, ast.ClassDef) and n.name == "BasisChange")]
        found += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "BasisChange"
        ]
    assert not found, f"BasisChange(...) called in the normal-form modules: {found}"


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


COMMAND_MODULES = """
import contextlib, io, json, sys
from solvlie.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    code = run(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("solvlie.") or m == "dataclasses")]))
"""

H3 = {"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": ["0", "0", "1"]}]}
AFFC = {"dim": 4, "brackets": [
    {"i": 1, "j": 3, "coeffs": ["0", "1", "0", "0"]},
    {"i": 2, "j": 3, "coeffs": ["-1", "0", "0", "0"]},
    {"i": 1, "j": 4, "coeffs": ["-1", "0", "0", "0"]},
    {"i": 2, "j": 4, "coeffs": ["0", "-1", "0", "0"]},
]}
# [X3,X1] = X2, [X3,X2] = -X1: the rotation family G3_2_3, which reaches
# propsim_classify_gl2's complex-pair branch
ROT3 = {"dim": 3, "brackets": [
    {"i": 1, "j": 3, "coeffs": ["0", "-1", "0"]},
    {"i": 2, "j": 3, "coeffs": ["1", "0", "0"]},
]}
# [X4,X1] = X1, [X4,X3] = X2: a left-block structure-matrix form
CODIM2 = {"dim": 4, "brackets": [
    {"i": 1, "j": 4, "coeffs": ["-1", "0", "0", "0"]},
    {"i": 3, "j": 4, "coeffs": ["0", "-1", "0", "0"]},
]}


def _loaded_by(argv: list) -> set:
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    r = subprocess.run([sys.executable, "-c", COMMAND_MODULES, *argv], env=env,
                       capture_output=True, text=True, timeout=120, check=True)
    code, modules = json.loads(r.stdout)
    assert code == 0, (argv, r.stderr)
    return {m.removeprefix("solvlie.") for m in modules}


def test_each_cli_command_loads_only_the_modules_it_reads(tmp_path):
    """A CLI call compiles every module it imports (no bytecode cache in a
    fresh checkout), so a command imports only what it reads, and no
    command but `sweep` builds dataclasses or loads the harness."""
    paths = {}
    for name, doc in (("h3", H3), ("affc", AFFC), ("rot3", ROT3), ("codim2", CODIM2),
                      ("a", [["1", "2"], ["3", "4"]]), ("b", [["2", "4"], ["6", "8"]])):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    p = {k: str(v) for k, v in paths.items()}
    series_only = {"classify_n2", "catalog", "codim2", "propsim", "frobenius"}
    never = {"dataclasses", "harness"}
    cases = [
        (["validate", p["h3"]], series_only),
        (["invariants", p["h3"]], series_only),
        (["propsim", "--witness", p["a"], p["b"]], {"classify_n2", "catalog", "codim2", "liealg"}),
        (["codim2", p["codim2"]], {"classify_n2", "catalog", "propsim", "frobenius"}),
        (["codim2-iso", "--witness", p["codim2"], p["codim2"]], {"classify_n2", "catalog"}),
        (["classify", p["affc"]], {"frobenius", "codim2"}),
        (["classify", "--witness", p["rot3"]], {"frobenius", "codim2"}),
        (["table"], series_only | {"liealg"}),
    ]
    for argv, absent in cases:
        loaded = _loaded_by(argv)
        assert "cli" in loaded
        assert not loaded & (absent | never), (argv[0], sorted(loaded & (absent | never)))
