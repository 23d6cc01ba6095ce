"""Seeded structural fuzzing of the command line: valid documents are
mutated in their types, nesting, lengths, indices and scalars, and every
command must answer with exit 0, 1 or 2, never with a traceback."""

import copy
import json
import random
import time
import traceback

import pytest

from solvlie.catalog import codim2_algebra, codim2_az_fixtures
from solvlie.cli import run
from solvlie.jsonio import MAX_DIGITS, algebra_to_json
from solvlie.matrices import Mat

AFFC = {
    "dim": 4,
    "brackets": [
        {"i": 1, "j": 3, "coeffs": ["0", "1", "0", "0"]},
        {"i": 2, "j": 3, "coeffs": ["-1", "0", "0", "0"]},
        {"i": 1, "j": 4, "coeffs": ["-1", "0", "0", "0"]},
        {"i": 2, "j": 4, "coeffs": ["0", "-1", "0", "0"]},
    ],
}
QUAD_G3 = {
    "dim": 3,
    "brackets": [
        {"i": 1, "j": 3, "coeffs": [{"a": "0", "b": "-1", "d": 2}, "0", "0"]},
        {"i": 2, "j": 3, "coeffs": ["0", "-1/2", "0"]},
    ],
}
CODIM2 = [algebra_to_json(codim2_algebra(az)) for _, az in codim2_az_fixtures()[:2]]
MATRICES = [
    [["1", "2"], ["0", "3"]],
    [["2", "4"], ["0", "6"]],
    [[{"a": "1", "b": "1", "d": 3}, "0"], ["1", "-1/3"]],
]

# replacements of every JSON type, and scalars that sit on the grammar's edges
ODD_VALUES = [
    None, True, False, 0, -1, 1, 2, 1.5, 10**6, "", "x", "1/0", "1e3", "nan", " 3 ", "+2/4",
    "-.5", ".", "9" * 60, [], [[]], {}, {"a": "1", "b": "1", "d": 4},
    {"a": "1", "b": "1", "d": -2}, {"a": "1", "b": 2.5, "d": 2}, {"a": "1", "d": 3},
    {"dim": 2}, {"i": 1, "j": 2, "coeffs": ["0", "1"]},
]


def nodes(doc, path=()):
    """Every (path, value) of a JSON document, the root included."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from nodes(value, path + (key,))


def replace(doc, path, value):
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def mutate(rng: random.Random, doc):
    """A copy of ``doc`` with one to three structural mutations."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        path, node = rng.choice(list(nodes(doc)))
        op = rng.randrange(6)
        if op == 0:  # a value of another type
            new = copy.deepcopy(rng.choice(ODD_VALUES))
        elif op == 1:  # one level more or less of nesting
            new = [node] if rng.random() < 0.5 or not isinstance(node, list) or not node else node[0]
        elif op == 2 and isinstance(node, list):  # a list one entry shorter or longer
            new = list(node)
            if new and rng.random() < 0.5:
                del new[rng.randrange(len(new))]
            else:
                new.insert(rng.randint(0, len(new)), copy.deepcopy(rng.choice(new)) if new else "1")
        elif op == 3 and isinstance(node, dict) and node:  # a key dropped or added
            new = dict(node)
            if rng.random() < 0.5:
                del new[rng.choice(list(new))]
            else:
                new[rng.choice(("i", "j", "dim", "coeffs", "brackets", "extra"))] = rng.choice(ODD_VALUES)
        elif op == 4:  # an index, a dimension or a count off by a little
            new = rng.choice((-1, 0, 1, 2, 3, 5, 13, "2", "x", 2.0))
        else:  # another scalar
            new = rng.choice(("0", "1", "-3/4", "2.25", "1/0", "abc", "1e2", {"a": "1/2", "b": "-1", "d": 5}))
        doc = replace(doc, path, new)
    return doc


def test_mutated_documents_never_raise(tmp_path, capsys):
    rng = random.Random(19)
    algebras = [AFFC, QUAD_G3, *CODIM2]
    cases = []
    for _ in range(90):
        for cmd in ("validate", "invariants", "classify", "codim2"):
            flags = rng.choice(([], ["--format", "text"], ["--witness"])) if cmd == "classify" else []
            cases.append(([cmd], [mutate(rng, rng.choice(algebras))], flags))
        a, b = rng.sample(CODIM2, 2) if rng.random() < 0.5 else [rng.choice(CODIM2)] * 2
        docs = [mutate(rng, a), b] if rng.random() < 0.5 else [a, mutate(rng, b)]
        cases.append((["codim2-iso"], docs, rng.choice(([], ["--witness"]))))
        a, b = rng.choice(MATRICES), rng.choice(MATRICES)
        docs = [mutate(rng, a), b] if rng.random() < 0.5 else [a, mutate(rng, b)]
        cases.append((["propsim"], docs, rng.choice(([], ["--witness"]))))
    codes = set()
    for n, (cmd, docs, flags) in enumerate(cases):
        paths = []
        for m, doc in enumerate(docs):
            p = tmp_path / f"{n}_{m}.json"
            p.write_text(json.dumps(doc))
            paths.append(str(p))
        argv = cmd + paths + flags
        start = time.perf_counter()
        try:
            code = run(argv)
        except Exception:
            pytest.fail(f"{argv} on {docs} raised:\n{traceback.format_exc()}")
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (argv, docs, code, err)
        assert "Traceback" not in err, (argv, docs, err)
        assert elapsed < 2.0, (argv, docs, elapsed)
        codes.add(code)
    # the mutations reach the parser's refusals, the class checks and success
    assert codes == {0, 1, 2}


@pytest.mark.parametrize("digits", [MAX_DIGITS + 1, 5000])
def test_numbers_past_the_digit_bound_exit_2(tmp_path, capsys, digits):
    # Python reads and prints ints of at most 4,300 digits; every integer a
    # document spells out is bounded below that, and the refusal is one
    # line that names the length, not the literal
    big = "9" * digits
    coeffs = ["1", "0", "0"]
    algebras = []
    for spot in ("@", '"@"', '"1/@"', '"-@/7"', '"0.@"', '{"a": "1", "b": "@", "d": 2}',
                 '{"a": "1", "b": "1", "d": @}', '{"a": "1", "b": "1", "d": "@"}'):
        doc = json.dumps({"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": ["%"] + coeffs[1:]}]})
        algebras.append(doc.replace('"%"', spot.replace("@", big)))
    algebras.append(json.dumps({"dim": "%", "brackets": []}).replace('"%"', big))
    algebras.append(json.dumps({"dim": 3, "brackets": [{"i": "%", "j": 2, "coeffs": coeffs}]})
                    .replace('"%"', f'"{big}"'))
    matrix = json.dumps([["1", "%"], ["0", "3"]]).replace('"%"', big)
    cases = [([cmd], [doc]) for doc in algebras for cmd in ("validate", "invariants", "classify")]
    cases.append((["propsim"], [matrix, json.dumps(MATRICES[0])]))
    for n, (cmd, docs) in enumerate(cases):
        paths = []
        for m, doc in enumerate(docs):
            p = tmp_path / f"{n}_{m}.json"
            p.write_text(doc)
            paths.append(str(p))
        code = run(cmd + paths)
        err = capsys.readouterr().err
        assert code == 2, (cmd, docs[0][:80], err)
        assert err.count("\n") == 1 and "99999" not in err and "Traceback" not in err, err
    # at the bound a number is read
    doc = json.dumps({"dim": 3, "brackets": [{"i": 1, "j": 2, "coeffs": ["%", "0", "0"]}]})
    p = tmp_path / "at_bound.json"
    p.write_text(doc.replace('"%"', "9" * MAX_DIGITS))
    assert run(["validate", str(p)]) == 0


@pytest.mark.parametrize("entry, want", [(10**24 + 7, 2), (10**40 + 7, 2), ((10**20 + 7) ** 2, 0)])
def test_internal_radicands_are_factored_to_a_bound(tmp_path, capsys, entry, want):
    # classify of the 3-dim action [[0, N], [1, 0]] takes the square root
    # of its discriminant 4N; trial division stops at 10^6, so a 4N that is
    # not a square and keeps a cofactor past 10^18 exits 2 at once, while a
    # square 4N of the same size is classified
    doc = {"dim": 3, "brackets": [{"i": 1, "j": 3, "coeffs": ["0", "-1", "0"]},
                                  {"i": 2, "j": 3, "coeffs": [str(-entry), "0", "0"]}]}
    p = tmp_path / "action.json"
    p.write_text(json.dumps(doc))
    start = time.perf_counter()
    code = run(["classify", str(p)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code == want, err
    assert elapsed < 2.0, elapsed
    if want == 2:
        assert err.count("\n") == 1 and "Traceback" not in err and str(entry) not in err, err


@pytest.mark.parametrize("flags", [[], ["--witness"]])
def test_a_scale_past_the_radicand_bound_is_answered_without_c(tmp_path, capsys, flags):
    # c^2 = 10^24 + 7 keeps a cofactor past 10^18 after trial division, so
    # c is not formed; the verdict is decided without it and comes with
    # "c": null, for the matrices and for the codim-2 algebras built on them
    big = 10**24 + 7
    docs = {
        "a.json": [["0", "1"], ["1", "0"]],
        "b.json": [["0", str(big)], ["1", "0"]],
        "fa.json": algebra_to_json(codim2_algebra(Mat([[0, 1, 0], [1, 0, 0], [0, 0, 0]]))),
        "fb.json": algebra_to_json(codim2_algebra(Mat([[0, big, 0], [1, 0, 0], [0, 0, 0]]))),
    }
    p = {}
    for name, doc in docs.items():
        p[name] = tmp_path / name
        p[name].write_text(json.dumps(doc))
    for cmd, a, b, key in (("propsim", "a.json", "b.json", "equivalent"),
                           ("codim2-iso", "fa.json", "fb.json", "isomorphic")):
        code = run([cmd, str(p[a]), str(p[b]), *flags])
        captured = capsys.readouterr()
        assert code == 0, (cmd, captured.err)
        assert json.loads(captured.out) == {key: True, "c": None, "mode": "exact"}


@pytest.mark.parametrize("spot", ['"i": "1_0"', '"i": "0_1"', '"i": "١"', '"i": "+ 1"', '"i": "1.0"',
                                  '"i": "0x1"', '"i": "1 2"', '"d": "1_7"', '"d": "٣"'])
def test_integer_strings_take_the_grammar_integer_form(tmp_path, capsys, spot):
    # an index or radicand string is "[+-]digits" in ASCII, as the rational
    # grammar's integer form, and not whatever int() accepts
    key = spot.split(":")[0].strip('"')
    good = {"i": '"i": " +1 "', "d": '"d": "17"'}[key]
    doc = ('{"dim": 3, "brackets": [{"i": 1, "j": 3, "coeffs": '
           '[{"a": "0", "b": "1", "d": 17}, "0", "0"]}]}')
    doc = doc.replace('"i": 1', "@") if key == "i" else doc.replace('"d": 17', "@")
    for text, want in ((good, 0), (spot, 1)):
        p = tmp_path / "doc.json"
        p.write_text(doc.replace("@", text), encoding="utf-8")
        code = run(["validate", str(p)])
        err = capsys.readouterr().err
        assert code == want, (text, err)
        assert "Traceback" not in err
    assert err.startswith("malformed input:") and err.count("\n") == 1


def test_results_past_the_int_text_limit_are_printed_whole(tmp_path, capsys):
    # every input integer is within MAX_DIGITS, but the 4x4 witness holds
    # integers past the 4,300 digits that Python's str(int) refuses
    import sys
    from fractions import Fraction

    from solvlie.matrices import Mat
    from solvlie.propsim import PropSimVerdict

    rng = random.Random(3)
    a = [[str(rng.randrange(10 ** (MAX_DIGITS - 1), 10**MAX_DIGITS)) for _ in range(4)] for _ in range(4)]
    b = [list(row) for row in zip(*a)]
    paths = []
    for name, m in (("a", a), ("b", b)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(m))
        paths.append(str(p))
    start = time.perf_counter()
    assert run(["propsim", *paths, "--witness"]) == 0
    assert time.perf_counter() - start < 10.0
    captured = capsys.readouterr()
    assert captured.err == ""
    out = json.loads(captured.out)
    entries = [x for row in out["C"] for x in row]
    assert max(len(x) for x in entries) > sys.get_int_max_str_digits()
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        c, m = Fraction(out["c"]), Mat([[Fraction(x) for x in row] for row in out["C"]])
        verdict = PropSimVerdict(out["equivalent"], c, m)
        assert verdict.verify(Mat([[int(x) for x in row] for row in a]),
                              Mat([[int(x) for x in row] for row in b]))
    finally:
        sys.set_int_max_str_digits(limit)
