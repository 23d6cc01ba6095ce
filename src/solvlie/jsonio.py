"""JSON wire formats.

Rationals are strings "p/q" in lowest terms (plain "p" for integers);
a reader takes any "[+-]p[/q]" or plain decimal "[+-]p.q" and no other
form (no exponent, no underscore).  Quadratic-extension scalars are
objects {"a": "p/q", "b": "p/q", "d": n} with 1 < n <= MAX_RADICAND, whose
parts a and b are read as a bare scalar is.
Matrices are arrays of arrays; algebras are
{"dim": n, "brackets": [{"i": i, "j": j, "coeffs": [...]}, ...]} with
1 <= n <= MAX_DIM, 1-based i < j in ascending order and coefficient
vectors of length n.
Integers ("dim", an integer scalar) are JSON integers; a radicand, "i"
and "j" are JSON integers or strings "[+-]p" of ASCII digits.  A float or
a boolean is malformed, not truncated or read as 0/1.  An integer of more
than MAX_DIGITS digits, anywhere in a document, is out of regime.
Writers emit a fixed key order so equal values give byte-equal output,
and print every integer whole, whatever its length.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING, Optional, Union

from .errors import Unsupported
from .matrices import Mat
from .scalars import QuadExt, Rational, Scalar, _rational, format_rational, square_free_split

# the algebra readers and writers import liealg when called, so that the
# matrix commands (`solvlie propsim`) do not compile it
if TYPE_CHECKING:
    from .liealg import LieAlgebra, StructureTensor

# Reading a radicand factors it by trial division up to its cube root, so
# at most to 10^6 at this bound, which is `scalars.MAX_TRIAL_DIVISOR`, the
# divisor where every factoring stops (a radicand formed inside a
# computation and left unresolved there is refused with exit 2).  A matrix
# or algebra reader factors each distinct radicand once, not once per entry.
MAX_RADICAND = 10**18

# An algebra's series and center cost about n^2 at dimension n with few
# brackets: `invariants` on an empty table takes about 0.4 s and 55 MB at
# this bound, 2 s and 170 MB at twice it (CPython 3.11, one shared vCPU).
# `classify` on the canonical G3_2_2 + R^997 takes about 0.07 s at this
# bound (best of five, CPython 3.11, two vCPUs); `Frame.witness` is three
# fifths of it under cProfile, mostly forming its two dense n x n matrices,
# since the opening reads the input at two pivots, the steps read the
# running table and the witness inverts only the block of moved columns.
# A larger dim is refused.
MAX_DIM = 1000

# Python converts an int of more than 4,300 digits to or from text only
# under a raised `sys.set_int_max_str_digits`, so past that a reader
# raises ValueError.  Every integer a document spells out (a JSON
# integer; the numerator, the denominator or the digits of a string
# rational; an integer string) is refused above this bound, which sits
# well below Python's limit because results grow from their inputs (a
# 3-dim classify of 1000-digit entries prints 13 KB).  The growth has no
# bound: a 4x4 `propsim` witness of 1000-digit entries holds integers
# past 4,300 digits, which the writers print whole
# (`scalars.format_rational`).
MAX_DIGITS = 1000


class FormatError(ValueError):
    pass


def scalar_to_json(x: Scalar):
    if isinstance(x, QuadExt):
        return {"a": format_rational(x.a), "b": format_rational(x.b), "d": x.d}
    return format_rational(x)


def _int_text(text: str) -> int:
    """The integer that ``text`` spells; Unsupported, with a message that
    gives the length and not the literal, above MAX_DIGITS digits."""
    digits = len(text.strip().lstrip("+-"))
    if digits > MAX_DIGITS:
        raise Unsupported(f"a {digits}-digit integer, above {MAX_DIGITS} digits")
    return int(text)


def _json_int(v, what: str) -> int:
    """``v`` as an int: a JSON integer, or a string in the rational
    grammar's integer form (ASCII digits, one optional sign, surrounding
    whitespace).  Any other string (``"1_0"``, non-ASCII digits), a float
    or a boolean (an ``int`` subclass in Python) raises FormatError, so
    nothing is read as ``int()`` would read it, truncated or read as 0/1."""
    if isinstance(v, str):
        if _INTEGER.fullmatch(v.strip()):
            return _int_text(v)
    elif isinstance(v, int) and not isinstance(v, bool):
        return v
    raise FormatError(f"{what} must be an integer, got {v!r}")


# "[+-]p", "[+-]p/q" or a plain decimal with digits on one side of the
# point at least; surrounding whitespace is stripped first
_RATIONAL = re.compile(r"([+-]?)(?:([0-9]+)(?:/([0-9]+))?|([0-9]*)\.([0-9]*))")
# the grammar's integer form "[+-]p", for the strings read as integers
_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_rational(v: str) -> Rational:
    """A rational from its "p/q" or plain decimal text, as an int when it
    is integral; FormatError for any other text (an exponent form too)."""
    m = _RATIONAL.fullmatch(v.strip())
    if m is None or m[4] == m[5] == "":
        raise FormatError(f"bad rational {v!r}")
    sign, num, den, whole, frac = m.groups()
    if num is None:
        n, d = _int_text(whole + frac), 10 ** len(frac)
    else:
        n, d = _int_text(num), _int_text(den or "1")
    if d == 0:
        raise FormatError(f"bad rational {v!r}")
    return _rational(-n if sign == "-" else n, d)


def _rational_from_json(v, what: str) -> Rational:
    """A rational scalar: a string parse_rational reads, or a JSON integer."""
    if isinstance(v, str):
        return parse_rational(v)
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise FormatError(f"bad {what} {v!r}")


def scalar_from_json(v, splits: Optional[dict] = None) -> Scalar:
    """A scalar from its JSON form; ``splits`` maps radicands already read
    to their ``square_free_split``, so that a reader of many entries
    factors each distinct radicand once."""
    if isinstance(v, dict):
        try:
            a = _rational_from_json(v["a"], "part")
            b = _rational_from_json(v["b"], "part")
            d = v["d"]
        except (KeyError, FormatError) as exc:
            raise FormatError(f"bad quadratic scalar {v!r}") from exc
        d = _json_int(d, "radicand 'd'")
        if d > MAX_RADICAND:
            raise Unsupported(f"radicand {d} above {MAX_RADICAND}")
        if b == 0:
            return a
        splits = {} if splits is None else splits
        if d not in splits:
            try:
                splits[d] = square_free_split(d)
            except ValueError as exc:
                raise FormatError(f"bad quadratic scalar {v!r}") from exc
        s, d0 = splits[d]
        # as QuadExt.make, with the split of d looked up
        return a + b * s if d0 == 1 else QuadExt.from_split(a, b * s, d0)
    return _rational_from_json(v, "scalar")


def matrix_to_json(m: Mat) -> list:
    return [[scalar_to_json(x) for x in row] for row in m.data]


def matrix_from_json(v) -> Mat:
    if not isinstance(v, list) or not v or not all(isinstance(r, list) and r for r in v):
        raise FormatError("matrix must be a non-empty array of non-empty arrays")
    if any(len(r) != len(v[0]) for r in v):
        raise FormatError("matrix rows must all have the same length")
    splits: dict = {}
    return Mat([[scalar_from_json(x, splits) for x in row] for row in v])


def algebra_to_json(a: Union[LieAlgebra, StructureTensor]) -> dict:
    from .liealg import LieAlgebra

    t = a.tensor if isinstance(a, LieAlgebra) else a
    brackets = []
    for (i, j), vec in t.items():
        brackets.append(
            {"i": i + 1, "j": j + 1, "coeffs": [scalar_to_json(x) for x in vec]}
        )
    return {"dim": t.n, "brackets": brackets}


def algebra_from_json(d) -> StructureTensor:
    from .liealg import StructureTensor

    if not isinstance(d, dict) or "dim" not in d:
        raise FormatError("algebra object needs a 'dim' field")
    n = d["dim"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise FormatError("'dim' must be a positive integer")
    if n > MAX_DIM:
        raise Unsupported(f"dim {n} above {MAX_DIM}")
    brackets = d.get("brackets", [])
    if not isinstance(brackets, list):
        raise FormatError("'brackets' must be an array")
    table = {}
    splits: dict = {}
    for entry in brackets:
        if not isinstance(entry, dict):
            raise FormatError("bracket entries must be objects")
        try:
            i, j, coeffs = entry["i"], entry["j"], entry["coeffs"]
        except KeyError as exc:
            raise FormatError(f"bad bracket entry {entry!r}") from exc
        i, j = _json_int(i, "bracket index 'i'"), _json_int(j, "bracket index 'j'")
        if not (1 <= i < j <= n):
            raise FormatError(f"bracket indices ({i}, {j}) out of range")
        if not isinstance(coeffs, list) or len(coeffs) != n:
            raise FormatError(f"bracket ({i}, {j}) needs {n} coefficients")
        if (i - 1, j - 1) in table:
            raise FormatError(f"duplicate bracket ({i}, {j})")
        table[(i - 1, j - 1)] = tuple(scalar_from_json(x, splits) for x in coeffs)
    try:
        return StructureTensor(n, table)
    except Exception as exc:
        raise FormatError(str(exc)) from exc


def dumps(obj) -> str:
    """Canonical rendering: fixed key order, no whitespace variation."""
    return json.dumps(obj, separators=(", ", ": "), indent=None)


def load_path(path: str):
    """The JSON document in file `path` (stdin for "-"); FormatError when it
    is not UTF-8, not JSON, or nested past the decoder's recursion limit.
    Stdin is read as bytes and decoded like a file, whatever the locale's
    text encoding and error handler."""
    import sys

    try:
        if path == "-":
            raw = sys.stdin.buffer.read().decode("utf-8")
        else:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        return json.loads(raw, parse_int=_int_text)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"invalid JSON in {path}: {exc}") from exc
