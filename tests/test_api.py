"""The public API under lazy loading, and the immutable record types.

``solvlie/__init__`` imports a submodule on the first access to one of
its names, so every public name is checked in fresh interpreters after
several import orders, including the one where a submodule named like a
public function (``classify_n2``) is imported after the package.
"""

import copy
import inspect
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import solvlie
from solvlie.catalog import MorozovReport
from solvlie.classify_n2 import Classification, Witness
from solvlie.codim2 import Codim2Form, Codim2IsoVerdict
from solvlie.labels import ClassLabel
from solvlie.liealg import ValidationReport
from solvlie.matrices import Mat, SpectralClass2x2
from solvlie.propsim import GL2Class, PropSimVerdict
from solvlie.records import Record

SRC = Path(solvlie.__file__).parent

API_CHECK = """
import importlib, json, sys
{before}
import solvlie
wrong = []
for name in solvlie.__all__:
    obj = getattr(solvlie, name)
    home = importlib.import_module(obj.__module__)
    scope = {{}}
    exec(f"from solvlie import {{name}}", scope)
    if not (home.__name__.startswith("solvlie.") and getattr(home, name) is obj is scope[name]):
        wrong.append(name)
print(json.dumps({{
    "wrong": wrong,
    "callable": callable(solvlie.classify_n2),
    "submodule": type(sys.modules["solvlie.classify_n2"]).__name__,
    "listed": sorted(set(solvlie.__all__) - set(dir(solvlie))),
}}))
"""

AFFC = {"dim": 4, "brackets": [
    {"i": 1, "j": 3, "coeffs": ["0", "1", "0", "0"]},
    {"i": 2, "j": 3, "coeffs": ["-1", "0", "0", "0"]},
    {"i": 1, "j": 4, "coeffs": ["-1", "0", "0", "0"]},
    {"i": 2, "j": 4, "coeffs": ["0", "-1", "0", "0"]},
]}


def _child(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                       text=True, timeout=120, check=True)
    return r.stdout


@pytest.mark.parametrize("before", [
    "",
    "import solvlie.harness",
    "import solvlie, solvlie.cli, solvlie.harness",  # the benchmark's order
    "from solvlie.classify_n2 import classify_n2",
    "import solvlie; solvlie.classify_n2; import solvlie.harness",
    "import contextlib, io, solvlie.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    assert solvlie.cli.run(['classify', sys.argv[1]]) == 0",
], ids=["package", "harness-first", "benchmark-order", "submodule-first", "name-first", "cli-run-first"])
def test_every_public_name_resolves_to_its_definition(before, tmp_path):
    path = tmp_path / "affc.json"
    path.write_text(json.dumps(AFFC))
    out = json.loads(_child(API_CHECK.format(before=before).replace("sys.argv[1]", repr(str(path)))))
    assert out == {"wrong": [], "callable": True, "submodule": "module", "listed": []}


def test_import_solvlie_loads_no_submodule():
    code = "import sys, solvlie; print(sorted(m for m in sys.modules if m.startswith('solvlie.')))"
    assert _child(code).strip() == "[]"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError):
        solvlie.no_such_name  # noqa: B018
    from solvlie import catalog  # a submodule that is no public name

    assert catalog.__name__ == "solvlie.catalog"


RECORDS = [ClassLabel, Witness, Classification, Codim2Form, Codim2IsoVerdict,
           ValidationReport, SpectralClass2x2, PropSimVerdict, GL2Class, MorozovReport]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_signature_lists_its_fields(cls):
    assert issubclass(cls, Record)
    assert list(inspect.signature(cls).parameters) == list(cls.__slots__)


def test_record_equality_hash_and_dict_keys():
    a = ClassLabel("G3_2_1", lam=Fraction(2))
    b = ClassLabel("G3_2_1", 0, Fraction(2))
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != ClassLabel("G3_2_1", lam=Fraction(3))
    assert a != ClassLabel("G3_2_3", j=Fraction(2))
    # same fields, different record type
    assert Codim2IsoVerdict(True) != PropSimVerdict(True)
    assert a != ("G3_2_1", 0, Fraction(2), None, None, None, None)


def test_record_defaults_repr_and_class_attributes():
    lab = ClassLabel("G5p2k_2", k=1)
    assert (lab.abelian_ext, lab.lam, lab.j, lab.cos_sign, lab.m) == (0, None, None, None, None)
    assert repr(lab) == ("ClassLabel(family='G5p2k_2', abelian_ext=0, lam=None, j=None, "
                         "cos_sign=None, k=1, m=None)")
    v = PropSimVerdict(True, Fraction(1, 2))
    assert v.mode == "exact" and v.witness is None
    assert repr(v) == "PropSimVerdict(equivalent=True, c=Fraction(1, 2), witness=None)"
    assert Codim2IsoVerdict(False).mode == "exact"
    assert bool(ValidationReport(False)) is False and bool(ValidationReport(True)) is True
    assert ValidationReport(False, (1, 2, 3)).residual is None
    with pytest.raises(TypeError):
        ClassLabel()
    with pytest.raises(TypeError):
        ClassLabel("G3_2_1", bogus=1)


def test_records_are_immutable():
    lab = ClassLabel("G3_2_2")
    for name in ("family", "abelian_ext", "extra"):
        with pytest.raises(AttributeError):
            setattr(lab, name, 1)
    with pytest.raises(AttributeError):
        del lab.family
    v = PropSimVerdict(False)
    with pytest.raises(AttributeError):
        v.mode = "numeric"
    assert lab == ClassLabel("G3_2_2") and v.mode == "exact"


def test_records_copy_and_pickle():
    s = SpectralClass2x2("real_distinct", mu1=Fraction(-1), mu2=Fraction(3))
    g = GL2Class("jordan", Fraction(4), Mat([[1, 1], [0, 1]]), Fraction(1), Mat([[1, 0], [0, 1]]))
    for rec in (s, g, MorozovReport(Fraction(2), True, "ok")):
        assert pickle.loads(pickle.dumps(rec)) == rec
        assert copy.copy(rec) == rec and copy.deepcopy(rec) == rec
