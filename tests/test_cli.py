import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import solvlie
from solvlie.cli import run

SRC = Path(solvlie.__file__).parent.parent


def _capture(capsys):
    out = capsys.readouterr()
    return out.out.strip()


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(p)


H3 = {
    "dim": 3,
    "brackets": [{"i": 1, "j": 2, "coeffs": ["0", "0", "1"]}],
}

AFFC = {
    "dim": 4,
    "brackets": [
        {"i": 1, "j": 3, "coeffs": ["0", "1", "0", "0"]},
        {"i": 2, "j": 3, "coeffs": ["-1", "0", "0", "0"]},
        {"i": 1, "j": 4, "coeffs": ["-1", "0", "0", "0"]},
        {"i": 2, "j": 4, "coeffs": ["0", "-1", "0", "0"]},
    ],
}


def test_validate_ok(tmp_path, capsys):
    path = write(tmp_path, "h3.json", H3)
    assert run(["validate", path]) == 0
    assert _capture(capsys) == "ok"
    path = write(tmp_path, "r1.json", {"dim": 1, "brackets": []})  # the smallest dim
    assert run(["validate", path]) == 0
    assert _capture(capsys) == "ok"


def test_validate_violation(tmp_path, capsys):
    bad = {
        "dim": 3,
        "brackets": [
            {"i": 1, "j": 2, "coeffs": ["1", "0", "0"]},
            {"i": 1, "j": 3, "coeffs": ["0", "1", "0"]},
        ],
    }
    path = write(tmp_path, "bad.json", bad)
    assert run(["validate", path]) == 1
    assert _capture(capsys) == "violation at triple (1, 2, 3): residual ['0', '1', '0']"
    # [[X1, X3], X4] + [[X4, X1], X3] + [[X3, X4], X1] = 0 + 0 - (1/2 + sqrt2) X2;
    # the triples (1, 2, 3) and (1, 2, 4) hold
    quad = {
        "dim": 4,
        "brackets": [
            {"i": 1, "j": 3, "coeffs": ["0", {"a": "1/2", "b": "1", "d": 2}, "0", "0"]},
            {"i": 3, "j": 4, "coeffs": ["0", "0", "1", "0"]},
        ],
    }
    path = write(tmp_path, "quad.json", quad)
    assert run(["validate", path]) == 1
    assert _capture(capsys) == (
        "violation at triple (1, 3, 4): residual ['0', {'a': '-1/2', 'b': '-1', 'd': 2}, '0', '0']"
    )


def test_malformed_input_exit_1(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "junk.json", "{not json")
    assert run(["validate", path]) == 1
    path = write(tmp_path, "shape.json", {"dim": 2, "brackets": [{"i": 1}]})
    assert run(["classify", path]) == 1
    twice = [{"i": 1, "j": 2, "coeffs": ["1", "0"]}] * 2  # one pair given twice
    for brackets in (5, None, {}, "", {"i": 1, "j": 2}, twice):
        path = write(tmp_path, "brackets.json", {"dim": 2, "brackets": brackets})
        assert run(["validate", path]) == 1
    path = write(tmp_path, "dim0.json", {"dim": 0, "brackets": []})
    assert run(["validate", path]) == 1
    ragged = write(tmp_path, "ragged.json", [["1", "2"], ["3"]])
    square = write(tmp_path, "square.json", [["1", "2"], ["3", "4"]])
    assert run(["propsim", ragged, square]) == 1
    empty_row = write(tmp_path, "empty_row.json", [[]])
    assert run(["propsim", empty_row, square]) == 1
    # unreadable documents: a directory, bytes that are not UTF-8 (in a
    # file and on stdin) and an array nested past the decoder's recursion
    # limit are refused without a traceback
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"dim": 1, "brackets": [], "note": "\xe9"}')
    deep = write(tmp_path, "deep.json", "[" * 100_000 + "]" * 100_000)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(not_utf8.read_bytes()), encoding="utf-8"))
    capsys.readouterr()
    for argv in (
        ["classify", str(tmp_path)],
        ["classify", str(not_utf8)],
        ["classify", "-"],
        ["classify", deep],
        ["propsim", deep, square],
    ):
        assert run(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith(("malformed input: ", "cannot read input: ")) and "Traceback" not in err, argv
    for argv in (["g3_2_1", "--lam", "abc"], ["g3_2_3", "--j", "1/0"], ["l6gamma", "--gamma", "x"]):
        assert run(["gen", *argv]) == 1
        assert capsys.readouterr().err.startswith("malformed input: ")


def test_classify_affc(tmp_path, capsys):
    path = write(tmp_path, "affc.json", AFFC)
    assert run(["classify", path]) == 0
    data = json.loads(_capture(capsys))
    assert data["family"] == "G4_2_4_AffC"
    assert data["abelian_ext"] == 0
    assert data["canonical"]["dim"] == 4


def test_classify_text_prints_witness_only_with_flag(tmp_path, capsys):
    path = write(tmp_path, "affc.json", AFFC)
    assert run(["classify", path]) == 0
    witness = json.loads(_capture(capsys))["witness"]
    assert run(["classify", path, "--format", "text"]) == 0
    text = _capture(capsys)
    assert "family: G4_2_4_AffC" in text and "witness" not in text
    assert run(["classify", path, "--format", "text", "--witness"]) == 0
    lines = _capture(capsys).splitlines()
    assert lines[: len(text.splitlines())] == text.splitlines()
    assert lines[-1].startswith("witness: ")
    assert json.loads(lines[-1][len("witness: "):]) == witness


MINUS_SQRT2 = {"a": "0", "b": "-1", "d": 2}


def test_classify_quadratic_actions_out_of_regime_exit_2(tmp_path, capsys):
    # [X3,X1] = sqrt2 X1 + X2, [X3,X2] = -X1 + X2: the key j = 1 + sqrt2 is
    # irrational; with the AffC partner [X4,X1] = X1, [X4,X2] = X2 the
    # quarter-turn scale needs the square root of 1/4 + sqrt2/2; with
    # [X3,X1] = sqrt2 X1, [X3,X2] = X1 + X2 the eigenvalues need the square
    # root of 3 - 2 sqrt2
    rotation = [
        {"i": 1, "j": 3, "coeffs": [MINUS_SQRT2, "-1", "0"]},
        {"i": 2, "j": 3, "coeffs": ["1", "-1", "0"]},
    ]
    affc = [
        {"i": 1, "j": 3, "coeffs": [MINUS_SQRT2, "-1", "0", "0"]},
        {"i": 2, "j": 3, "coeffs": ["1", "-1", "0", "0"]},
        {"i": 1, "j": 4, "coeffs": ["-1", "0", "0", "0"]},
        {"i": 2, "j": 4, "coeffs": ["0", "-1", "0", "0"]},
    ]
    triangular = [
        {"i": 1, "j": 3, "coeffs": [MINUS_SQRT2, "0", "0"]},
        {"i": 2, "j": 3, "coeffs": ["-1", "-1", "0"]},
    ]
    for n, brackets in ((3, rotation), (4, affc), (3, triangular)):
        path = write(tmp_path, "q.json", {"dim": n, "brackets": brackets})
        assert run(["classify", path]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
    # a Q(sqrt2) action whose key j = 8 is rational still classifies
    diag = [
        {"i": 1, "j": 3, "coeffs": [{"a": "-1/2", "b": "-1/2", "d": 2}, "0", "0"]},
        {"i": 2, "j": 3, "coeffs": ["0", {"a": "1/2", "b": "-1/2", "d": 2}, "0"]},
    ]
    path = write(tmp_path, "q.json", {"dim": 3, "brackets": diag})
    assert run(["classify", path]) == 0
    data = json.loads(_capture(capsys))
    assert data["family"] == "G3_2_1" and data["params"]["j"] == "8"


def test_propsim_irrational_ratio_is_decided_exactly(tmp_path, capsys):
    sqrt2 = {"a": "0", "b": "1", "d": 2}
    # [[sqrt2, 1], [0, 1]] against [[1, 1], [0, 1 + sqrt2]]: the trace ratio
    # c = sqrt2 is irrational, and the pair is not equivalent
    a = write(tmp_path, "a.json", [[sqrt2, "1"], ["0", "1"]])
    b = write(tmp_path, "b.json", [["1", "1"], ["0", {"a": "1", "b": "1", "d": 2}]])
    assert run(["propsim", a, b]) == 0
    assert json.loads(_capture(capsys)) == {"equivalent": False, "c": None, "mode": "exact"}
    # c^2 = sqrt2: equivalent, but c = 2^(1/4) and C are not constructed
    a = write(tmp_path, "a.json", [["0", "1"], ["1", "0"]])
    b = write(tmp_path, "b.json", [["0", sqrt2], ["1", "0"]])
    assert run(["propsim", a, b, "--witness"]) == 0
    assert json.loads(_capture(capsys)) == {"equivalent": True, "c": None, "mode": "exact"}
    # sqrt2 against sqrt3 entries: no common field, out of regime
    a = write(tmp_path, "a.json", [[sqrt2, "1"], ["0", "1"]])
    b = write(tmp_path, "b.json", [[{"a": "0", "b": "1", "d": 3}, "1"], ["0", "1"]])
    assert run(["propsim", a, b]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_propsim_scale_in_a_third_field_exit_0(tmp_path, capsys):
    # diag(sqrt2, -sqrt2) against diag(sqrt3, -sqrt3): c = sqrt6 / 2 lies in
    # neither entry field, so the answer carries c and no C
    a = write(tmp_path, "a.json", [[{"a": "0", "b": "1", "d": 2}, "0"], ["0", {"a": "0", "b": "-1", "d": 2}]])
    b = write(tmp_path, "b.json", [[{"a": "0", "b": "1", "d": 3}, "0"], ["0", {"a": "0", "b": "-1", "d": 3}]])
    for extra in ([], ["--witness"]):
        assert run(["propsim", a, b] + extra) == 0
        assert json.loads(_capture(capsys)) == {
            "equivalent": True,
            "c": {"a": "0", "b": "1/2", "d": 6},
            "mode": "exact",
        }


def test_propsim_builds_the_witness_only_when_asked(tmp_path, capsys, monkeypatch):
    import solvlie.propsim

    asked = []
    real = solvlie.propsim.prop_similar

    def recording(a, b, want_witness=True):
        asked.append(want_witness)
        return real(a, b, want_witness)

    monkeypatch.setattr(solvlie.propsim, "prop_similar", recording)
    a = write(tmp_path, "a.json", [["1", "0"], ["0", "2"]])
    b = write(tmp_path, "b.json", [["3", "0"], ["0", "6"]])
    assert run(["propsim", a, b]) == 0
    assert json.loads(_capture(capsys)) == {"equivalent": True, "c": "3", "mode": "exact"}
    assert run(["propsim", a, b, "--witness"]) == 0
    assert "C" in json.loads(_capture(capsys))
    assert asked == [False, True]


def test_propsim_radicand_above_bound_exit_2(tmp_path, capsys):
    from solvlie.jsonio import MAX_RADICAND

    # reading d factors it by trial division up to its cube root, which at
    # forty digits would not finish; the bound refuses it first, and holds
    # MAX_RADICAND itself
    for d, code in ((10**40 + 1, 2), (MAX_RADICAND + 1, 2), (MAX_RADICAND, 0)):
        big = {"a": "0", "b": "1", "d": d}
        a = write(tmp_path, "a.json", [[big, "1"], ["0", "1"]])
        b = write(tmp_path, "b.json", [["1", "1"], ["0", big]])
        assert run(["propsim", a, b]) == code, d
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == (code != 0) and all(e.startswith("error: ") for e in err), d


def test_dim_above_bound_exit_2(tmp_path, capsys):
    from solvlie.jsonio import MAX_DIM

    path = write(tmp_path, "big.json", {"dim": MAX_DIM + 1, "brackets": []})
    for cmd in ("validate", "invariants", "classify", "codim2"):
        assert run([cmd, path]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0] == f"error: dim {MAX_DIM + 1} above {MAX_DIM}"


def test_invariants_of_a_large_sparse_table_in_time(tmp_path, capsys):
    """The series and the center read only the nonzero brackets: one
    bracket [X_1, X_2] = X_3 at n = 400 gives its dims well within 5 s
    (about 34 s on two shared vCPUs when the n^2 x n systems were formed)."""
    import time

    n = 400
    coeffs = ["0"] * n
    coeffs[2] = "1"
    path = write(tmp_path, "h3.json", {"dim": n, "brackets": [{"i": 1, "j": 2, "coeffs": coeffs}]})
    start = time.perf_counter()
    assert run(["invariants", path, "--format", "json"]) == 0
    assert time.perf_counter() - start < 5
    assert json.loads(_capture(capsys)) == {
        "dim": n,
        "derived_series_dims": [n, 1, 0],
        "lower_central_series_dims": [n, 1, 0],
        "upper_central_series_dims": [n - 2, n],
        "center_dim": n - 2,
        "solvable": True,
        "nilpotent": True,
        "nilpotency_step": 2,
    }


def test_classify_not_in_class_exit_2(tmp_path, capsys):
    path = write(tmp_path, "h3.json", H3)
    assert run(["classify", path]) == 2


def test_usage_errors_exit_1_and_help_exits_0(tmp_path, capsys):
    # 2 is out-of-regime input; a mistyped command line is malformed input
    path = write(tmp_path, "affc.json", AFFC)
    for argv in (["classify", path, "--bogus"], ["codim2", path, "--format", "json"],
                 ["classify"], ["no-such-command"], []):
        assert run(argv) == 1, argv
        assert "usage: solvlie" in capsys.readouterr().err
    for argv in (["--help"], ["classify", "--help"]):
        with pytest.raises(SystemExit) as info:
            run(argv)
        assert info.value.code == 0, argv
        assert "usage: solvlie" in capsys.readouterr().out


def test_codim2_unsupported_exit_2(tmp_path, capsys):
    two_dim_span = {
        "dim": 4,
        "brackets": [
            {"i": 1, "j": 3, "coeffs": ["-1", "0", "0", "0"]},
            {"i": 2, "j": 4, "coeffs": ["0", "-1", "0", "0"]},
        ],
    }
    path = write(tmp_path, "u.json", two_dim_span)
    assert run(["codim2", path]) == 2


def test_gen_classify_gen_fixed_point(tmp_path, capsys):
    assert run(["gen", "g5p2k_2", "--k", "1", "--d", "1"]) == 0
    blob = _capture(capsys)
    path = write(tmp_path, "gen.json", blob)
    assert run(["classify", path]) == 0
    data = json.loads(_capture(capsys))
    assert data["family"] == "G5p2k_2" and data["params"]["k"] == 1
    assert data["abelian_ext"] == 1
    # regenerate from the reported label and classify again: same verdict
    assert run(["gen", "g5p2k_2", "--k", "1", "--d", "1"]) == 0
    blob2 = _capture(capsys)
    assert blob2 == blob


def test_gen_scrambled_still_classifies(tmp_path, capsys):
    assert run(["gen", "aff_c", "--scramble", "11"]) == 0
    path = write(tmp_path, "s.json", _capture(capsys))
    assert run(["classify", path]) == 0
    assert json.loads(_capture(capsys))["family"] == "G4_2_4_AffC"


@pytest.mark.parametrize(
    "argv, dim",
    [
        (["g3_2_1", "--d", "997"], 1000),
        (["g3_2_1", "--d", "998"], 1001),
        (["g6p2k_2_1", "--k", "497"], 1000),
        (["g5p2k_2", "--k", "498"], 1001),
        (["heisenberg", "--m", "499", "--d", "1"], 1000),
        (["aff_r_plus_heis", "--m", "499"], 1001),
    ],
)
def test_gen_refuses_a_dimension_the_reader_refuses(argv, dim, capsys, monkeypatch):
    """gen prints up to jsonio.MAX_DIM dimensions, what classify reads; a
    larger member exits 2 with nothing on stdout, and nothing is built."""
    from solvlie import catalog
    from solvlie.jsonio import MAX_DIM

    if dim > MAX_DIM:
        monkeypatch.setattr(catalog, "tensor_from_brackets", lambda *a: pytest.fail("built a table"))
    rc = run(["gen", *argv])
    out = capsys.readouterr()
    if dim <= MAX_DIM:
        assert rc == 0 and json.loads(out.out)["dim"] == dim
    else:
        assert rc == 2 and out.out == "" and f"dim {dim} above {MAX_DIM}" in out.err


def test_propsim_cli(tmp_path, capsys):
    a = write(tmp_path, "a.json", [["1", "0"], ["0", "2"]])
    b = write(tmp_path, "b.json", [["3", "0"], ["0", "6"]])
    assert run(["propsim", a, b, "--witness"]) == 0
    data = json.loads(_capture(capsys))
    assert data == {
        "equivalent": True,
        "c": "3",
        "mode": "exact",
        "C": [["1", "0"], ["0", "1"]],
    }


def test_codim2_roundtrip_and_iso(tmp_path, capsys):
    g421_codim = {
        "dim": 4,
        "brackets": [
            {"i": 1, "j": 4, "coeffs": ["-1", "0", "0", "0"]},
            {"i": 3, "j": 4, "coeffs": ["0", "-1", "0", "0"]},
        ],
    }
    path = write(tmp_path, "c.json", g421_codim)
    assert run(["codim2", path]) == 0
    data = json.loads(_capture(capsys))
    assert data["case"] == "structure_matrix" and data["shape"] == "left"
    assert run(["codim2-iso", path, path, "--witness"]) == 0
    iso = json.loads(_capture(capsys))
    assert iso["isomorphic"] is True and iso["c"] == "1"
    assert "M_f" in iso


def test_codim2_iso_builds_m_f_only_when_asked(tmp_path, capsys, monkeypatch):
    import solvlie.codim2
    from solvlie.catalog import codim2_algebra
    from solvlie.jsonio import algebra_to_json
    from solvlie.matrices import Mat

    def tensor_file(name, a_z):
        return write(tmp_path, name, algebra_to_json(codim2_algebra(Mat(a_z)).tensor))

    a = tensor_file("a.json", [[1, 0, 0], [0, 2, 0], [0, 0, 0]])
    b = tensor_file("b.json", [[6, 0, 0], [0, 3, 0], [0, 0, 0]])
    assert run(["codim2-iso", a, b, "--witness"]) == 0
    witnessed = json.loads(_capture(capsys))
    assert witnessed["c"] == "3" and "M_f" in witnessed
    assert run(["codim2-iso", a, b]) == 0
    plain = _capture(capsys)

    def refuse(*args):
        raise AssertionError("M_f built without --witness")

    monkeypatch.setattr(solvlie.codim2, "_build_m_f", refuse)
    assert run(["codim2-iso", a, b]) == 0
    assert _capture(capsys) == plain
    del witnessed["M_f"]
    assert json.loads(plain) == witnessed


def test_invariants_text(tmp_path, capsys):
    path = write(tmp_path, "h3.json", H3)
    assert run(["invariants", path]) == 0
    out = _capture(capsys)
    assert "solvable: True" in out and "nilpotency_step: 2" in out


def test_table_formats(capsys):
    assert run(["table"]) == 0
    text = _capture(capsys)
    assert "G3_2_1" in text and "G6p2k_2_2" in text
    assert run(["table", "--format", "json"]) == 0
    rows = json.loads(_capture(capsys))
    assert len(rows) == 12


def test_table_row_of_g4_2_3_names_the_one_class(tmp_path, capsys):
    """Only lambda = 0 is a class of its own: `gen g4_2_3` with another
    lambda classifies as AffR_plus_AffR, as the table row says."""
    assert run(["table", "--format", "json"]) == 0
    row = next(r for r in json.loads(_capture(capsys)) if r["family"] == "G4_2_3")
    assert row["conditions"] == "lambda = 0; lambda != 0 is AffR_plus_AffR"
    for lam in ("1", "-2", "1/2", "0"):
        assert run(["gen", "g4_2_3", "--lam", lam]) == 0
        path = write(tmp_path, "g.json", _capture(capsys))
        assert run(["classify", path]) == 0
        family = json.loads(_capture(capsys))["family"]
        assert family == ("G4_2_3" if lam == "0" else "AffR_plus_AffR"), lam


def test_stdin_input(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(json.dumps(H3).encode()), encoding="utf-8"))
    assert run(["validate", "-"]) == 0
    assert _capture(capsys) == "ok"


def test_stdin_bytes_are_decoded_as_strict_utf8_in_the_c_locale(tmp_path):
    """Without a UTF-8 locale Python reads text stdin with the
    surrogateescape handler, which would take bytes that are not UTF-8;
    stdin is refused as malformed exactly as the same file given by path."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"dim": 2, "brackets": [], "x": "\xff\xfe"}')
    env = {k: v for k, v in os.environ.items()
           if k not in ("LANG", "LC_ALL", "LC_CTYPE", "PYTHONIOENCODING", "PYTHONUTF8")}
    env.update(LC_ALL="C", PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "solvlie.cli", "classify"]
    by_path = subprocess.run(cmd + [str(bad)], env=env, capture_output=True, timeout=120)
    with bad.open("rb") as fh:
        on_stdin = subprocess.run(cmd + ["-"], env=env, stdin=fh, capture_output=True, timeout=120)
    for r in (by_path, on_stdin):
        assert r.returncode == 1, r.stderr
        assert r.stderr.startswith(b"malformed input: ") and b"Traceback" not in r.stderr


def test_sweep_reports_are_byte_identical(capsys):
    assert run(["sweep", "--seed", "3", "--scrambles", "2", "--format", "json"]) == 0
    first = _capture(capsys)
    assert run(["sweep", "--seed", "3", "--scrambles", "2", "--format", "json"]) == 0
    second = _capture(capsys)
    assert first == second
    data = json.loads(first)
    assert data["ok"] is True


def test_sweep_rejects_scrambles_below_one(capsys):
    for n in ("0", "-1"):
        assert run(["sweep", "--scrambles", n]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("parameter out of domain: ")


def test_non_integral_or_boolean_json_integers_exit_1(tmp_path, capsys):
    sqrt2 = {"a": "0", "b": "1", "d": 2}

    def algebra(i=1, j=3, dim=3, coeffs=("0", "1", "0")):
        return {"dim": dim, "brackets": [{"i": i, "j": j, "coeffs": list(coeffs)}]}

    # the report's case: before, i = 1.7 was truncated to 1, true read as
    # 1 and d = 2.5 as sqrt(2), and `validate` printed ok
    both = algebra(i=1.7, coeffs=(True, 0, {"a": "0", "b": "1", "d": 2.5}))
    cases = [
        both,
        algebra(coeffs=("0", {"a": "0", "b": "1", "d": 2.5}, "0")),
        algebra(coeffs=("0", {"a": "0", "b": "1", "d": True}, "0")),
        algebra(coeffs=(True, "0", "0")),
        algebra(coeffs=("0", False, "0")),
        algebra(i=1.7),
        algebra(j=3.0),
        algebra(i=True),
        algebra(dim=True, i=1, j=1),
        algebra(dim=3.0),
    ]
    for doc in cases:
        path = write(tmp_path, "bad.json", doc)
        assert run(["validate", path]) == 1, doc
        out = capsys.readouterr()
        err = out.err.strip().splitlines()
        assert out.out == "" and len(err) == 1 and err[0].startswith("malformed input: "), doc
    for row in ([True, "0"], ["0", {"a": "1", "b": "1", "d": 3.5}]):
        a = write(tmp_path, "a.json", [row, ["0", "1"]])
        assert run(["propsim", a, a]) == 1
        assert capsys.readouterr().err.startswith("malformed input: ")
    # JSON integers stay accepted, as scalars and as radicands, and so do
    # strings of one for a radicand and the bracket indices
    path = write(tmp_path, "ok.json", algebra(coeffs=(0, sqrt2, {"a": 1, "b": "1", "d": 8})))
    assert run(["validate", path]) == 0
    assert _capture(capsys) == "ok"
    path = write(tmp_path, "ok.json", algebra(i="1", j="3", coeffs=(0, {"a": "0", "b": "1", "d": "8"}, 0)))
    assert run(["invariants", path]) == 0
    assert _capture(capsys).splitlines()[:2] == ["dim: 3", "derived_series_dims: [3, 1, 0]"]


def test_one_rational_grammar_and_strict_quadratic_parts(tmp_path, capsys):
    from fractions import Fraction

    from solvlie.jsonio import parse_rational
    from solvlie.scalars import Rat

    def algebra(coeff):
        return {"dim": 3, "brackets": [{"i": 1, "j": 3, "coeffs": ["0", coeff, "0"]}]}

    # a float part is malformed as a bare float is; exponent forms, which
    # could build an arbitrarily long numerator, are not in the grammar
    for coeff in ({"a": 1.5, "b": "1", "d": 2}, {"a": "0", "b": 0.5, "d": 2},
                  {"a": "1e3", "b": "1", "d": 2}, "1e3", "1e200000", "1E-2", "1_000",
                  "0x10", ".", "1/2/3", "3/-4", "--1", "1/0", "inf", "nan"):
        path = write(tmp_path, "bad.json", algebra(coeff))
        assert run(["validate", path]) == 1, coeff
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("malformed input: "), coeff
    assert run(["gen", "g3_2_1", "--lam", "2e1"]) == 1
    assert capsys.readouterr().err.startswith("malformed input: ")
    for text, want in (("3", 3), ("-4/6", Fraction(-2, 3)), (" +1/2 ", Fraction(1, 2)),
                       ("1.50", Fraction(3, 2)), ("-.25", Fraction(-1, 4)), ("5.", 5),
                       ("0/7", 0)):
        got = parse_rational(text)
        assert got == want and type(got) is (int if want.denominator == 1 else Rat)
    path = write(tmp_path, "ok.json", algebra({"a": 1, "b": "-.5", "d": 8}))
    assert run(["validate", path]) == 0 and _capture(capsys) == "ok"


def test_mixed_radicands_are_named_exit_2(tmp_path, capsys):
    sqrt2, sqrt3 = {"a": "0", "b": "1", "d": 2}, {"a": "0", "b": "1", "d": 12}
    message = "error: the input mixes the radicands 2 and 3; one Q(sqrt(d)) per input is supported"
    a = write(tmp_path, "a.json", [[sqrt2, "1"], ["0", "1"]])
    b = write(tmp_path, "b.json", [[{"a": "0", "b": "1", "d": 3}, "1"], ["0", "1"]])
    assert run(["propsim", a, b]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.strip().splitlines() == [message]
    mixed = {"dim": 3, "brackets": [
        {"i": 1, "j": 3, "coeffs": [sqrt2, "0", "0"]},
        {"i": 2, "j": 3, "coeffs": ["0", sqrt3, "0"]},
    ]}
    path = write(tmp_path, "m.json", mixed)
    assert run(["classify", path]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.strip().splitlines() == [message]
