"""Command-line front end.

Exit codes: 0 success, 1 malformed input or command line, 2
out-of-regime input (not in class / unsupported), 3 property failure in
a sweep.

Each command imports the library modules it reads inside its ``cmd_*``
function, so a call compiles only those.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import labels
from .errors import NotInClass, ParamOutOfDomain, SolvlieError, Unsupported
from .jsonio import (
    MAX_DIM,
    FormatError,
    algebra_from_json,
    algebra_to_json,
    classification_to_json,
    dumps,
    load_path,
    matrix_from_json,
    matrix_to_json,
    parse_rational,
    scalar_to_json,
)

FAMILY_ALIASES = {
    "g3_2_1": labels.G3_2_1,
    "g3_2_2": labels.G3_2_2,
    "g3_2_3": labels.G3_2_3,
    "g4_2_1": labels.G4_2_1,
    "g4_2_2": labels.G4_2_2,
    "g4_2_3": labels.G4_2_3,
    "g4_2_4_affc": labels.G4_2_4_AFFC,
    "aff_c": labels.G4_2_4_AFFC,
    "g5p2k_2": labels.G5P2K_2,
    "g6p2k_2_1": labels.G6P2K_2_1,
    "g6p2k_2_2": labels.G6P2K_2_2,
    "aff_r_plus_aff_r": labels.AFFR_PLUS_AFFR,
    "aff_r_plus_heis": labels.AFFR_PLUS_HEIS,
}

GENERATORS = {
    "heisenberg": lambda catalog, args: catalog.heisenberg(args.m if args.m is not None else 1),
    "aff_r": lambda catalog, args: catalog.aff_r(),
    "l6gamma": lambda catalog, args: catalog.l6gamma(
        parse_rational(args.gamma) if args.gamma is not None else Fraction(1)
    ),
}


def _load_algebra(path: str):
    return algebra_from_json(load_path(path))


def cmd_validate(args) -> int:
    from .liealg import validate

    t = _load_algebra(args.file)
    rep = validate(t)
    if rep.ok:
        print("ok")
        return 0
    print(f"violation at triple {rep.triple}: residual {[scalar_to_json(x) for x in rep.residual]}")
    return 1


def cmd_invariants(args) -> int:
    from .liealg import LieAlgebra, validate

    t = _load_algebra(args.file)
    rep = validate(t)
    if not rep.ok:
        print(f"violation at triple {rep.triple}", file=sys.stderr)
        return 1
    a = LieAlgebra(t)
    out = {
        "dim": a.dim,
        "derived_series_dims": [len(b) for b in a.derived_series],
        "lower_central_series_dims": [len(b) for b in a.lower_central_series],
        "upper_central_series_dims": a.upper_central_dims,
        "center_dim": len(a.center),
        "solvable": a.solvable,
        "nilpotent": a.nilpotent,
        "nilpotency_step": a.nilpotency_step,
    }
    if args.format == "json":
        print(dumps(out))
    else:
        for k, v in out.items():
            print(f"{k}: {v}")
    return 0


def cmd_classify(args) -> int:
    from .classify_n2 import classify_n2

    t = _load_algebra(args.file)
    c = classify_n2(t)
    out = classification_to_json(c)
    if args.format == "json":
        print(dumps(out))
    else:
        print(f"family: {c.label}")
        print(f"abelian_ext: {c.label.abelian_ext}")
        if c.witness.canonical is None:
            print("canonical: (two-step nilpotent regime, no canonical tensor)")
        if args.witness:
            print(f"witness: {dumps(out['witness'])}")
    return 0


def cmd_codim2(args) -> int:
    from .codim2 import normalize_codim2

    t = _load_algebra(args.file)
    f = normalize_codim2(t)
    out = {"case": "decomposable" if f.case == "decomposable" else "structure_matrix"}
    if f.case == "structure_matrix":
        out["shape"] = f.shape
        out["A"] = matrix_to_json(f.a_inner)
        out["Abar"] = matrix_to_json(f.a_bar)
    else:
        out["inner"] = algebra_to_json(f.inner)
    out["witness"] = matrix_to_json(f.witness.matrix)
    print(dumps(out))
    return 0


def cmd_codim2_iso(args) -> int:
    from .codim2 import codim2_isomorphic, normalize_codim2

    f1 = normalize_codim2(_load_algebra(args.file1))
    f2 = normalize_codim2(_load_algebra(args.file2))
    if f1.case != "structure_matrix" or f2.case != "structure_matrix":
        print(dumps({"error": "both inputs must be indecomposable structure-matrix forms"}))
        return 2
    v = codim2_isomorphic(f1, f2, want_witness=args.witness)
    out = {
        "isomorphic": v.isomorphic,
        "c": scalar_to_json(v.c) if v.c is not None else None,
        "mode": v.mode,
    }
    if v.m_f is not None:
        out["M_f"] = matrix_to_json(v.m_f)
    print(dumps(out))
    return 0


def cmd_propsim(args) -> int:
    from .propsim import prop_similar

    a = matrix_from_json(load_path(args.file_a))
    b = matrix_from_json(load_path(args.file_b))
    v = prop_similar(a, b, want_witness=args.witness)
    out = {
        "equivalent": v.equivalent,
        "c": scalar_to_json(v.c) if v.c is not None else None,
        "mode": v.mode,
    }
    if v.witness is not None:
        out["C"] = matrix_to_json(v.witness)
    print(dumps(out))
    return 0


def cmd_gen(args) -> int:
    from . import catalog
    from .labels import ClassLabel
    from .liealg import LieAlgebra

    name = args.family.lower()
    if name not in GENERATORS and name not in FAMILY_ALIASES:
        print(f"unknown family {args.family}", file=sys.stderr)
        return 1
    if args.steps is not None and args.steps < 0:
        raise ParamOutOfDomain(f"--steps must be at least 0, got {args.steps}")
    # the dimension from the parameters alone, before anything is built
    k, m = args.k or 0, 1 if args.m is None else args.m
    core = {"heisenberg": 2 * m + 1, "aff_r": 2, "l6gamma": 6, "g5p2k_2": 5 + 2 * k,
            "g6p2k_2_1": 6 + 2 * k, "g6p2k_2_2": 6 + 2 * k, "aff_r_plus_heis": 3 + 2 * m}
    n = core.get(name, 3 if name.startswith("g3") else 4) + (args.d or 0)
    if n > MAX_DIM:
        raise Unsupported(f"dim {n} above {MAX_DIM}")
    if name in GENERATORS:
        tensor = GENERATORS[name](catalog, args)
        alg = LieAlgebra(catalog.with_abelian_ext(tensor, args.d or 0))
    else:
        fam = FAMILY_ALIASES[name]
        lab = ClassLabel(
            fam,
            abelian_ext=args.d or 0,
            lam=parse_rational(args.lam) if args.lam is not None else None,
            j=parse_rational(args.j) if args.j is not None else None,
            k=args.k,
            m=args.m,
        )
        if fam == labels.G3_2_1 and lab.lam is None:
            lab = ClassLabel(fam, abelian_ext=lab.abelian_ext, lam=Fraction(2))
        if fam == labels.G3_2_3 and lab.j is None:
            lab = ClassLabel(fam, abelian_ext=lab.abelian_ext, j=Fraction(2))
        if fam == labels.G4_2_3 and lab.lam is None:
            lab = ClassLabel(fam, abelian_ext=lab.abelian_ext, lam=Fraction(0))
        if fam in (labels.G5P2K_2, labels.G6P2K_2_1, labels.G6P2K_2_2) and lab.k is None:
            lab = ClassLabel(fam, abelian_ext=lab.abelian_ext, k=0)
        if fam == labels.AFFR_PLUS_HEIS and lab.m is None:
            lab = ClassLabel(fam, abelian_ext=lab.abelian_ext, m=1)
        alg = catalog.build(lab)
    if args.scramble is not None:
        alg, _ = catalog.scramble(alg, args.scramble, steps=args.steps)
    print(dumps(algebra_to_json(alg)))
    return 0


TABLE_ROWS = [
    (labels.G3_2_1, "lambda != 0", "[X3,X1] = X1, [X3,X2] = lambda X2"),
    (labels.G3_2_2, "", "[X3,X1] = X1, [X3,X2] = X1 + X2"),
    (labels.G3_2_3, "j = tr^2/det in [0, 4)", "[X3,X1] = X2, [X3,X2] = -j X1 + j X2 (quarter turn for j = 0)"),
    (labels.G4_2_1, "", "[X3,X1] = X1, [X3,X4] = X2"),
    (labels.G4_2_2, "", "[X3,X2] = X1, [X3,X4] = X2"),
    (labels.G4_2_3, "lambda = 0; lambda != 0 is AffR_plus_AffR", "[X3,X2] = X1 + lambda X2, [X4,X1] = X1, [X4,X2] = X2"),
    (labels.G4_2_4_AFFC, "", "[X3,X1] = -X2, [X3,X2] = X1, [X4,X1] = X1, [X4,X2] = X2"),
    (labels.G5P2K_2, "k >= 0", "[X3,X1] = X2, [X3,X4] = X1, [X4,X5] = ... = [X_{4+2k},X_{5+2k}] = X2"),
    (labels.G6P2K_2_1, "k >= 0", "[X3,X1] = X1, [X3,X4] = X2, [X5,X6] = ... = [X_{5+2k},X_{6+2k}] = X2"),
    (labels.G6P2K_2_2, "k >= 0", "[X3,X1] = X2, [X3,X4] = X1, [X5,X6] = ... = [X_{5+2k},X_{6+2k}] = X2"),
    (labels.AFFR_PLUS_AFFR, "", "[X3,X1] = X1, [X4,X2] = X2"),
    (labels.AFFR_PLUS_HEIS, "m >= 1", "[X3,X1] = X1, [X4,X5] = ... = [X_{2+2m},X_{3+2m}] = X2"),
]


def cmd_table(args) -> int:
    if args.format == "json":
        rows = [
            {"family": fam, "conditions": cond, "brackets": br}
            for fam, cond, br in TABLE_ROWS
        ]
        print(dumps(rows))
    else:
        for fam, cond, br in TABLE_ROWS:
            cond_s = f"  ({cond})" if cond else ""
            print(f"{fam}{cond_s}: {br}")
    return 0


def cmd_sweep(args) -> int:
    if args.scrambles < 1:
        raise ParamOutOfDomain(f"--scrambles must be at least 1, got {args.scrambles}")
    from . import harness

    rep = harness.full_sweep(seed=args.seed, scrambles=args.scrambles)
    if args.format == "json":
        print(dumps(rep))
    else:
        for suite in rep["suites"]:
            status = "ok" if suite["failed"] == 0 else "FAIL"
            print(f"{suite['name']:>24}: {status} (+{suite['passed']} -{suite['failed']})")
            for f in suite.get("failures", []):
                print(f"    {f}")
        print(f"overall: {'ok' if rep['ok'] else 'FAIL'}")
    return 0 if rep["ok"] else 3


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="solvlie",
        description="Exact structure-constant Lie algebra toolkit: validation, "
        "canonical forms, proportional similarity, and classification.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check the Jacobi identity")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("invariants", help="series dimensions and flags")
    sp.add_argument("file")
    sp.add_argument("--format", choices=("json", "text"), default="text")
    sp.set_defaults(func=cmd_invariants)

    sp = sub.add_parser("classify", help="classify a dim-2 derived ideal algebra")
    sp.add_argument("file")
    sp.add_argument("--witness", action="store_true",
                    help="print the witness in text format (JSON always has it)")
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("codim2", help="normalize a codimension-2 derived ideal algebra")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_codim2)

    sp = sub.add_parser("codim2-iso", help="decide isomorphism of two codim-2 forms")
    sp.add_argument("file1")
    sp.add_argument("file2")
    sp.add_argument("--witness", action="store_true")
    sp.set_defaults(func=cmd_codim2_iso)

    sp = sub.add_parser("propsim", help="proportional similarity of two matrices")
    sp.add_argument("file_a")
    sp.add_argument("file_b")
    sp.add_argument("--witness", action="store_true")
    sp.set_defaults(func=cmd_propsim)

    sp = sub.add_parser("gen", help="emit a canonical family member")
    sp.add_argument("family")
    sp.add_argument("--lam", help="diagonal-family parameter p/q")
    sp.add_argument("--j", help="rotation key p/q in [0, 4)")
    sp.add_argument("--k", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--d", type=int, help="abelian extension dimension")
    sp.add_argument("--gamma", help="parameter of the six-dimensional fixture")
    sp.add_argument("--scramble", help="seed for a unimodular scramble")
    sp.add_argument("--steps", type=int, help="number of scramble steps")
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("table", help="print the classification family table")
    sp.add_argument("--format", choices=("json", "text"), default="text")
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("sweep", help="run the property sweep")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--scrambles", type=int, default=20)
    sp.add_argument("--format", choices=("json", "text"), default="text")
    sp.set_defaults(func=cmd_sweep)
    return p


def run(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of out-of-regime
        # input; a mistyped command is malformed input
        if exc.code == 2:
            return 1
        raise
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 1
    except ParamOutOfDomain as exc:
        print(f"parameter out of domain: {exc}", file=sys.stderr)
        return 1
    except NotInClass as exc:
        print(f"not in class: {exc}", file=sys.stderr)
        return 2
    except SolvlieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
