"""Inputs and operations for the four workloads.

Set-up has two halves.  ``make_inputs`` is the benchmark's own work: it
draws each workload's inputs as plain data (bracket tables, matrices,
JSON files) and proves what it must about them with ``checker``.  Each
input it returns is a picklable ``functools.partial`` of one of the
``*_ops`` builders below; called with the program and a ``Cli``, it does
the program's half of set-up (its tensors, matrices and reference normal
forms) and returns the operations.  An operation is one timed call into
the program plus an independent check of what it returned.  The ground
truth of every check is known by construction: a corpus input is built
from its label by a unimodular scramble, a propsim pair is built as
c * P^-1 A P or proven inequivalent by a scale invariant, and so on.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Any, Callable, Optional

import checker as ck

CLASSIFY = "classify"
CODIM2_ISO = "codim2_iso"
PROPSIM_WITNESS = "propsim_witness"
PROPSIM_DECIDE = "propsim_decide"
CLI = "cli"

WORKLOADS = ("corpus", "fuzz", "codim2-propsim", "cli")
# operation kinds each workload runs natively; make_inputs adds probes of
# the others so that every end-to-end metric exists in every run
NATIVE = {
    "corpus": (CLASSIFY,),
    "fuzz": (CLASSIFY,),
    "codim2-propsim": (CODIM2_ISO, PROPSIM_WITNESS, PROPSIM_DECIDE),
    "cli": (CLI,),
}

FUZZ_INPUTS = 120
CODIM2_KS = (3, 4, 5, 6)
SHAPES = ("left", "right")
CORPUS_SCRAMBLES = 3  # scrambles per corpus label
# n -> (equivalent pairs, inequivalent pairs).  The latencies fall in
# clusters by size and verdict: with and without witness, inequivalent
# 2x2 and 3x3 pairs take under 1 ms, equivalent 4x4 pairs over 5 ms.  With
# as many pairs of each kind per size the p50 fell on the edge between two
# clusters and swung by a third between runs; this mix puts it six or
# more pairs inside the middle cluster for both kinds of call.
PROPSIM_MIX = {2: (6, 4), 3: (8, 8), 4: (8, 14)}
# reference structures per (k, shape): with four, the p50 sat in a thin
# stretch between the k = 4 and k = 5 latencies
CODIM2_PAIRS = 6
SCALES = (1, -1, 2, -2, Fraction(1, 2), 3)
PROBE_SEED = "probe"


class CliFailure(RuntimeError):
    pass


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]  # the timed call into the program
    check: Callable[[Any], bool]  # independent check of its result
    replay: Optional[Callable[[], Any]] = None  # in-process form of a CLI call
    table: Optional[tuple] = None  # classify input, for bit heights
    verified: Any = None  # signature of a result that passed the check


def build_ops(sl, inputs: list, cli: "Cli") -> list:
    """The program's half of set-up: the operations of every input."""
    return [op for make in inputs for op in make(sl, cli)]


def _rows(m) -> Optional[list]:
    return None if m is None else ck.matrix_of(m)


def signature(op: Op, out) -> Any:
    """Everything the operation's check reads from a result, as exact
    values.  A result equal to one that passed the check for the same
    operation passes too, so repeats skip the transport checks."""
    if op.kind == CLI:
        return out
    if op.kind == CLASSIFY:
        return _fields(out.label), _rows(out.witness.transform.matrix)
    if op.kind == CODIM2_ISO:
        form, v = out
        return (form.case, form.shape, _rows(form.a_bar), _rows(form.witness.matrix),
                v.isomorphic, v.mode, _rows(v.m_f))
    return out.equivalent, out.mode, None if out.c is None else ck.exact(out.c), _rows(out.witness)


def _rng(seed, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _reference_rng(name: str) -> random.Random:
    """Seed-independent draws: the inputs' populations, whose coefficient
    sizes set their cost.  Drawn anew for every seed they moved the
    latency percentiles by a tenth to a fifth from seed to seed; the seed
    instead picks how each input is presented (see _presented)."""
    return random.Random(f"reference:{name}")


def _presented(rng, table) -> tuple:
    """The table in a seeded signed permutation of its basis: a new input
    for the program, with unchanged coefficient sizes."""
    s, s_inv = ck.signed_permutation(rng, table[0])
    return ck.transport(table, s, s_inv)


def _presented_matrix(rng, m: list) -> list:
    """Q^-1 m Q for a seeded signed permutation Q."""
    q, q_inv = ck.signed_permutation(rng, len(m))
    return ck.matmul(ck.matmul(q_inv, m), q)


# ----------------------------------------------------------------------
# classify_n2
# ----------------------------------------------------------------------


def _label_key(family, abelian_ext, lam=None, j=None, k=None, m=None) -> tuple:
    if family in ("G3_2_1", "G3_2_3"):
        param = j
    elif family == "G4_2_3":
        param = lam
    elif family in ("G5p2k_2", "G6p2k_2_1", "G6p2k_2_2"):
        param = k
    elif family == "AffR_plus_Heis":
        param = m
    else:
        param = None
    return family, abelian_ext, param


def _fields(label) -> dict:
    """Family, extension and parameters of a program label as exact values."""
    def opt(x):
        return None if x is None else ck.exact(x)

    return {
        "family": label.family,
        "abelian_ext": label.abelian_ext,
        "lam": opt(label.lam),
        "j": opt(label.j),
        "k": label.k,
        "m": label.m,
    }


def _expected(fields: dict) -> tuple:
    """Key and canonical table the classifier must report for a corpus
    label: lam is normalised to |lam| >= 1 and keyed by
    j = (1 + lam)^2 / lam, the documented lam <-> 1/lam identification."""
    f = dict(fields)
    if f["family"] == "G3_2_1":
        lam = Fraction(f["lam"])
        f["j"] = (1 + lam) ** 2 / lam
        f["lam"] = lam if abs(lam) >= 1 else 1 / lam
    return _label_key(**f), ck.canonical_table(**f)


def _witness_rows(classification) -> list:
    return ck.matrix_of(classification.witness.transform.matrix)


def _check_corpus(table, fields):
    def check(out) -> bool:
        want_key, want_table = _expected(fields)
        if _label_key(**_fields(out.label)) != want_key:
            return False
        return ck.transports(table, _witness_rows(out), want_table)

    return check


def _tensor(sl, table):
    return sl.StructureTensor(table[0], dict(table[1]))


def corpus_ops(sl, cli, table, fields) -> list:
    t = _tensor(sl, table)
    return [Op(CLASSIFY, lambda: sl.classify_n2(t), _check_corpus(table, fields), table=table)]


def corpus_inputs(sl, seed, name: str, scrambles: int = CORPUS_SCRAMBLES) -> list:
    """Every corpus label ``scrambles`` times, each under its own unimodular
    scramble times a seeded signed permutation."""
    rng, fixed = _rng(seed, name), _reference_rng("corpus")
    inputs = []
    for label in sl.harness.corpus_labels() * scrambles:
        f = _fields(label)
        table = _presented(rng, _scrambled(fixed, ck.canonical_table(**f)))
        inputs.append(partial(corpus_ops, table=table, fields=f))
    return inputs


def _check_fuzz(table):
    def check(out) -> bool:
        w = _witness_rows(out)
        f = _fields(out.label)
        if f["family"] == "TwoStepNilpotent_OutOfScope":
            return _two_step_ok(table, w)
        target = ck.canonical_table(**f)
        return ck.transports(table, w, target) and ck.series_dims(table) == ck.series_dims(target)

    return check


def _two_step_ok(table, w) -> bool:
    """The label's defining property: the first two witness columns span
    the 2-dimensional derived ideal, and it is central."""
    n = table[0]
    basis = [[1 if k == i else 0 for k in range(n)] for i in range(n)]
    derived = [ck.bracket(table, basis[a], basis[b]) for a in range(n) for b in range(a + 1, n)]
    d1 = ck.rank(derived)
    front = [[w[r][c] for r in range(n)] for c in (0, 1)]
    if d1 != 2 or ck.rank(derived + front) != 2 or ck.rank(w) != n:
        return False
    return all(not any(ck.bracket(table, e, v)) for e in basis for v in front)


def fuzz_ops(sl, cli, table) -> list:
    t = _tensor(sl, table)
    return [Op(CLASSIFY, lambda: sl.classify_n2(t), _check_fuzz(table), table=table)]


def fuzz_inputs(sl, seed, name: str) -> list:
    """The first FUZZ_INPUTS inputs of harness.fuzz_stream (n <= 8) from a
    fixed generator, each in a seeded signed permutation of its basis."""
    rng = _rng(seed, name)
    return [
        partial(fuzz_ops, table=_presented(rng, ck.table_of(t)))
        for t in sl.harness.fuzz_stream(_reference_rng("fuzz"), FUZZ_INPUTS, max_dim=8)
    ]


# ----------------------------------------------------------------------
# codim2 and proportional similarity
# ----------------------------------------------------------------------


def _rand_mat(rng, n: int) -> list:
    while True:
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if any(any(r) for r in m):
            return m


def _rand_gl(rng, n: int) -> list:
    while True:
        m = _rand_mat(rng, n)
        if ck.rank(m) == n:
            return m


def _scaled_conjugate(rng, a: list) -> list:
    """c * P^-1 a P for a seeded unimodular P and c from SCALES."""
    p, p_inv = ck.unimodular(rng, len(a))
    c = rng.choice(SCALES)
    return [[ck.compact(Fraction(c) * x) for x in row] for row in ck.matmul(ck.matmul(p_inv, a), p)]


def _inequivalent_partner(a: list, make) -> list:
    while True:
        b = make()
        if ck.proves_not_prop_similar(a, b):
            return b


def _embed(inner: list, shape: str) -> list:
    """k x k structure matrix [A 0; 0 0] (left) or [0 A; 0 0] (right)."""
    k = len(inner) + 1
    out = [[0] * k for _ in range(k)]
    off = 0 if shape == "left" else 1
    for i, row in enumerate(inner):
        for j, x in enumerate(row):
            out[i][j + off] = x
    return out


def _isomorphic_structure(rng, a: list, shape: str) -> list:
    """A structure matrix proportionally similar to _embed(a, shape) and
    in the same block shape.  Conjugating the inner block keeps the left
    shape [A 0; 0 0]; the right shape [0 A; 0 0] is kept by a diagonal
    conjugation of the whole matrix (an inner-block conjugation would not
    be a similarity there)."""
    if shape == "left":
        return _embed(_scaled_conjugate(rng, a), shape)
    full = _embed(a, shape)
    d = [rng.choice((1, -1, 2, -2, 3)) for _ in full]
    c = Fraction(rng.choice(SCALES))
    return [[ck.compact(c * x * d[j] / d[i]) for j, x in enumerate(row)] for i, row in enumerate(full)]


def _scrambled(rng, table) -> tuple:
    """The table in a unimodular basis drawn from rng."""
    s, s_inv = ck.unimodular(rng, table[0])
    return ck.transport(table, s, s_inv)


def _form_ok(table, form, shape) -> bool:
    """A codim-2 normal form: its witness carries the input onto the
    structure-matrix table of its a_bar, in the constructed block shape."""
    if form.case != "structure_matrix" or form.shape != shape:
        return False
    return ck.transports(table, ck.matrix_of(form.witness.matrix), ck.codim2_table(ck.matrix_of(form.a_bar)))


def _m_f_ok(form, m_f, ref_form) -> bool:
    """M_f carries the table of ``form`` onto that of ``ref_form``."""
    return ck.transports(
        ck.codim2_table(ck.matrix_of(form.a_bar)), m_f, ck.codim2_table(ck.matrix_of(ref_form.a_bar))
    )


def _check_codim2(ref_table, ref_form, table, shape, isomorphic):
    def check(out) -> bool:
        form, verdict = out
        if not (_form_ok(ref_table, ref_form, shape) and _form_ok(table, form, shape)):
            return False
        if verdict.isomorphic != isomorphic:
            return False
        if not isomorphic:
            return True
        return verdict.m_f is not None and _m_f_ok(form, ck.matrix_of(verdict.m_f), ref_form)

    return check


def codim2_ops(sl, cli, ref_table, shape, partners) -> list:
    """Normalise the reference once; each partner (isomorphic, table) is
    one operation: normalise it and decide it against the reference."""
    ref_form = sl.normalize_codim2(_tensor(sl, ref_table))
    ops = []
    for isomorphic, table in partners:
        t = _tensor(sl, table)

        def run(t=t):
            form = sl.normalize_codim2(t)
            return form, sl.codim2_isomorphic(ref_form, form)

        ops.append(Op(CODIM2_ISO, run, _check_codim2(ref_table, ref_form, table, shape, isomorphic)))
    return ops


def codim2_inputs(seed, name: str, pairs: int, negatives: bool = True) -> list:
    """``pairs`` reference structures per k in 3..6 and block shape, each
    with a scrambled isomorphic copy (a scaled conjugate structure matrix)
    and, with ``negatives``, a proven non-isomorphic one; each copy, in a
    seeded signed permutation of its basis, is normalised and decided
    against the reference form."""
    rng, fixed = _rng(seed, name), _reference_rng("codim2")
    inputs = []
    for _ in range(pairs):
        for k in CODIM2_KS:
            for shape in SHAPES:
                a = _rand_gl(fixed, k - 1)
                full = _embed(a, shape)
                partners = [(True, _isomorphic_structure(fixed, a, shape))]
                if negatives:
                    # the proof must separate the whole structure matrices: for
                    # the right shape, inequivalent inner blocks do not suffice
                    partners.append((False, _inequivalent_partner(
                        full, lambda: _embed(_rand_gl(fixed, k - 1), shape))))
                partners = [(iso, _presented(rng, _scrambled(fixed, ck.codim2_table(b)))) for iso, b in partners]
                inputs.append(partial(codim2_ops, ref_table=ck.codim2_table(full), shape=shape, partners=partners))
    return inputs


def _check_propsim(a, b, equivalent, witness):
    def check(v) -> bool:
        if v.equivalent != equivalent:
            return False
        if not (equivalent and witness):
            return True
        return v.mode == "exact" and ck.is_prop_similar_witness(
            a, b, ck.exact(v.c), ck.matrix_of(v.witness)
        )

    return check


def _companion(n: int, last_col: list) -> list:
    """Ones on the subdiagonal and the given last column."""
    return [[last_col[i] if j == n - 1 else int(i == j + 1) for j in range(n)] for i in range(n)]


def propsim_ops(sl, cli, a, b, equivalent) -> list:
    """The pair decided with and without a witness."""
    am, bm = sl.Mat([list(r) for r in a]), sl.Mat([list(r) for r in b])
    return [
        Op(PROPSIM_WITNESS, lambda: sl.prop_similar(am, bm), _check_propsim(a, b, equivalent, True)),
        Op(PROPSIM_DECIDE, lambda: sl.prop_similar(am, bm, want_witness=False),
           _check_propsim(a, b, equivalent, False)),
    ]


def propsim_inputs(seed, name: str, numeric: bool = False) -> list:
    """n x n pairs in the PROPSIM_MIX counts: c * P^-1 A P partners and
    proven inequivalent ones, each matrix conjugated by a seeded signed
    permutation.  With ``numeric``, two more proven-inequivalent pairs
    whose scale c^n = 2 has no root in Q or Q(sqrt d), which only the
    128-bit numeric test decides: companions of x^n - 1 and
    x^n - 2x - 2, n = 3, 4."""
    rng, fixed = _rng(seed, name), _reference_rng("propsim")
    cases = []
    for n, (equivalent, inequivalent) in PROPSIM_MIX.items():
        for i in range(max(equivalent, inequivalent)):
            a = _rand_mat(fixed, n)
            if i < equivalent:
                cases.append((a, True, _scaled_conjugate(fixed, a)))
            if i < inequivalent:
                cases.append((a, False, _inequivalent_partner(a, lambda: _rand_mat(fixed, n))))
    if numeric:
        for n in (3, 4):
            cases.append((_companion(n, [1] + [0] * (n - 1)), False, _companion(n, [2, 2] + [0] * (n - 2))))
    return [
        partial(propsim_ops, a=_presented_matrix(rng, a), b=_presented_matrix(rng, b), equivalent=equivalent)
        for a, equivalent, b in cases
    ]


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------


def _json_scalar(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _write(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _algebra_json(table) -> dict:
    n, br = table
    return {
        "dim": n,
        "brackets": [
            {"i": i + 1, "j": j + 1, "coeffs": [_json_scalar(x) for x in vec]}
            for (i, j), vec in sorted(br.items())
        ],
    }


def _matrix_json(rows) -> list:
    return [[_json_scalar(x) for x in row] for row in rows]


class Cli:
    """Runs ``python -m solvlie.cli`` as a child process, or replays the
    same argument list in-process (for the traced run)."""

    def __init__(self, sl, src_dir: str, cwd: str):
        self.sl = sl
        self.cwd = cwd
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = src_dir + os.pathsep + self.env.get("PYTHONPATH", "")

    def call(self, argv: list) -> str:
        r = subprocess.run(
            [sys.executable, "-m", "solvlie.cli", *argv],
            cwd=self.cwd, env=self.env, capture_output=True, text=True, timeout=120,
        )
        if r.returncode != 0:
            raise CliFailure(f"exit {r.returncode}: {r.stderr.strip()[-300:]}")
        return r.stdout

    def replay(self, argv: list) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.sl.cli.run(argv)
        if code != 0:
            raise CliFailure(f"exit {code}: {err.getvalue().strip()[-300:]}")
        return out.getvalue()

    def ops(self, argv: list, check) -> list:
        return [Op(CLI, lambda: self.call(argv), lambda out: check(json.loads(out)),
                   replay=lambda: self.replay(argv))]


def cli_classify_ops(sl, cli, path, table, fields) -> list:
    def check(d) -> bool:
        f = {
            "family": d["family"], "abelian_ext": d["abelian_ext"],
            "lam": None, "j": None, "k": d["params"].get("k"), "m": d["params"].get("m"),
        }
        for ours, theirs in (("lam", "lambda"), ("j", "j")):
            if theirs in d["params"]:
                f[ours] = ck.from_json_scalar(d["params"][theirs])
        want_key, want_table = _expected(fields)
        if _label_key(**f) != want_key:
            return False
        return ck.transports(table, ck.matrix_from_json(d["witness"]), want_table)

    return cli.ops(["classify", "--witness", path], check)


def cli_invariants_ops(sl, cli, path, table) -> list:
    def check(d) -> bool:
        want = ck.series_dims(table)
        return (
            d["dim"] == table[0]
            and d["derived_series_dims"] == want["derived"]
            and d["lower_central_series_dims"] == want["lower_central"]
            and d["center_dim"] == want["center"]
        )

    return cli.ops(["invariants", "--format", "json", path], check)


def cli_codim2_ops(sl, cli, path, table, shape) -> list:
    def check(d) -> bool:
        if d.get("case") != "structure_matrix" or d.get("shape") != shape:
            return False
        a_bar = ck.matrix_from_json(d["Abar"])
        return ck.transports(table, ck.matrix_from_json(d["witness"]), ck.codim2_table(a_bar))

    return cli.ops(["codim2", path], check)


def cli_iso_ops(sl, cli, ref_path, iso_path, ref_table, iso_table, shape) -> list:
    """M_f relates the normal forms the CLI computes internally.  The check
    recomputes them with the library and verifies both by transport before
    it trusts them as ground truth for M_f."""
    def check(d) -> bool:
        if d.get("isomorphic") is not True or "M_f" not in d:
            return False
        ref_form = sl.normalize_codim2(_tensor(sl, ref_table))
        iso_form = sl.normalize_codim2(_tensor(sl, iso_table))
        if not (_form_ok(ref_table, ref_form, shape) and _form_ok(iso_table, iso_form, shape)):
            return False
        return _m_f_ok(iso_form, ck.matrix_from_json(d["M_f"]), ref_form)

    return cli.ops(["codim2-iso", "--witness", ref_path, iso_path], check)


def cli_propsim_ops(sl, cli, a_path, b_path, a, b) -> list:
    def check(d) -> bool:
        if d.get("equivalent") is not True or d.get("mode") != "exact" or "C" not in d:
            return False
        return ck.is_prop_similar_witness(a, b, ck.from_json_scalar(d["c"]), ck.matrix_from_json(d["C"]))

    return cli.ops(["propsim", "--witness", a_path, b_path], check)


CLI_COMMANDS = ("classify", "invariants", "codim2", "codim2-iso", "propsim")


def cli_inputs(sl, seed, name: str, work_dir: str, commands=CLI_COMMANDS) -> list:
    """One child process per command in ``commands``, on JSON files
    written here: a scrambled corpus algebra of dimension 6 (classify,
    invariants), a scrambled codim-2 algebra with k = 4 and its reference
    (codim2, codim2-iso), and a 3 x 3 propsim pair."""
    rng, fixed = _rng(seed, name), _reference_rng("cli")
    pre = os.path.join(work_dir, name)
    inputs = []
    label = next(lab for lab in sl.harness.corpus_labels() if lab.family == "G5p2k_2" and lab.abelian_ext == 1)
    fields = _fields(label)
    table = _presented(rng, _scrambled(fixed, ck.canonical_table(**fields)))
    alg = _write(pre + "-alg.json", _algebra_json(table))
    a = _rand_gl(fixed, 3)
    ref_table = ck.codim2_table(_embed(a, "left"))
    iso_table = _presented(rng, _scrambled(fixed, ck.codim2_table(_isomorphic_structure(fixed, a, "left"))))
    ref = _write(pre + "-ref.json", _algebra_json(ref_table))
    iso = _write(pre + "-iso.json", _algebra_json(iso_table))
    pa = _presented_matrix(rng, _rand_gl(fixed, 3))
    pb = _presented_matrix(rng, _scaled_conjugate(fixed, pa))
    fa = _write(pre + "-A.json", _matrix_json(pa))
    fb = _write(pre + "-B.json", _matrix_json(pb))
    every = {
        "classify": partial(cli_classify_ops, path=alg, table=table, fields=fields),
        "invariants": partial(cli_invariants_ops, path=alg, table=table),
        "codim2": partial(cli_codim2_ops, path=iso, table=iso_table, shape="left"),
        "codim2-iso": partial(cli_iso_ops, ref_path=ref, iso_path=iso, ref_table=ref_table,
                              iso_table=iso_table, shape="left"),
        "propsim": partial(cli_propsim_ops, a_path=fa, b_path=fb, a=pa, b=pb),
    }
    return [every[c] for c in commands]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def make_inputs(sl, workload: str, seed, work_dir: str) -> list:
    """The benchmark's half of set-up: the workload's native round, plus
    small probes of the operation kinds it does not run itself, so that
    every end-to-end metric is measured in every run: every corpus label
    once, one positive codim-2 copy per (k, shape), the propsim pairs
    without the numeric ones, and classify, invariants and propsim CLI
    calls (invariants is the one command that builds a LieAlgebra).
    Every block of a run runs all of them, so each operation is repeated
    every second or two."""
    native_kinds = NATIVE[workload]
    if workload == "corpus":
        inputs = corpus_inputs(sl, seed, workload)
    elif workload == "fuzz":
        inputs = fuzz_inputs(sl, seed, workload)
    elif workload == "codim2-propsim":
        inputs = codim2_inputs(seed, workload, CODIM2_PAIRS) + propsim_inputs(seed, workload, numeric=True)
    else:
        inputs = cli_inputs(sl, seed, workload, work_dir)
    # probes are presented the same way for every seed: their figures move
    # only with the program and the machine
    if CLASSIFY not in native_kinds:
        inputs += corpus_inputs(sl, PROBE_SEED, "corpus", scrambles=1)
    if CODIM2_ISO not in native_kinds:
        inputs += codim2_inputs(PROBE_SEED, "codim2", 1, negatives=False)
        inputs += propsim_inputs(PROBE_SEED, "propsim")
    if CLI not in native_kinds:
        inputs += cli_inputs(sl, PROBE_SEED, "cli", work_dir, commands=("classify", "invariants", "propsim"))
    return inputs
