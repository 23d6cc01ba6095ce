"""Per-layer tracing from outside the program.

The tracer wraps public functions of the ``solvlie`` modules in every
namespace where another module looks them up (``from .matrices import
inverse`` leaves a second reference in the importing module), and methods
on their classes.  Each call of a spanned function records
(name, start, end, parent span, operation id) in memory; self time is a
span's duration minus the time its child spans cover.  Hot scalar and
constructor entry points are only counted, which keeps the overhead and
the span list small.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPAN, COUNT = "span", "count"

# (module, attribute or Class.method, metric prefix, what to record)
TARGETS = (
    ("scalars", "QuadExt.make", "scalars.quadext_make", COUNT),
    ("scalars", "exdiv", "scalars.exdiv", COUNT),
    ("scalars", "sqrt_exact", "scalars.sqrt_exact", COUNT),
    ("matrices", "Mat.__init__", "matrices.mat_new", COUNT),
    ("matrices", "Mat.__matmul__", "matrices.matmul", SPAN),
    ("matrices", "inverse", "matrices.inverse", SPAN),
    ("matrices", "rref", "matrices.rref", SPAN),
    ("matrices", "solve", "matrices.solve", SPAN),
    ("matrices", "det", "matrices.det", SPAN),
    ("matrices", "kernel_basis", "matrices.kernel_basis", SPAN),
    ("matrices", "char_poly", "matrices.char_poly", SPAN),
    ("liealg", "StructureTensor.bracket", "liealg.bracket", COUNT),
    ("liealg", "StructureTensor.transform", "liealg.transform", SPAN),
    ("liealg", "StructureTensor.transform_sparse", "liealg.transform_sparse", SPAN),
    ("liealg", "LieAlgebra.__init__", "liealg.LieAlgebra", SPAN),
    ("liealg", "validate", "liealg.validate", SPAN),
    ("liealg", "derived_series_t", "liealg.derived_series_t", SPAN),
    ("frobenius", "similar", "frobenius.similar", SPAN),
    ("frobenius", "similarity_witness", "frobenius.similarity_witness", SPAN),
    ("propsim", "prop_similar", "propsim.prop_similar", SPAN),
    ("propsim", "propsim_classify_gl2", "propsim.propsim_classify_gl2", SPAN),
    ("classify_n2", "classify_n2", "classify_n2.classify_n2", SPAN),
    ("catalog", "build_tensor", "catalog.build_tensor", SPAN),
    ("codim2", "normalize_codim2", "codim2.normalize_codim2", SPAN),
    ("codim2", "codim2_isomorphic", "codim2.codim2_isomorphic", SPAN),
    ("jsonio", "algebra_from_json", "jsonio.algebra_from_json", SPAN),
    ("jsonio", "dumps", "jsonio.dumps", SPAN),
    ("cli", "run", "cli.run", SPAN),
)


PACKAGE = "solvlie"


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.stack: list = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._undo: list = []

    # --- installation --------------------------------------------------
    def _modules(self) -> list:
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self):
        modules = self._modules()
        for modname, attr, metric, mode in TARGETS:
            mod = sys.modules.get(f"{PACKAGE}.{modname}")
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                raw = None if cls is None else cls.__dict__.get(meth)
                if raw is None:
                    continue
                static = isinstance(raw, staticmethod)
                fn = raw.__func__ if static else raw
                wrapped = self._wrap(metric, fn, mode)
                setattr(cls, meth, staticmethod(wrapped) if static else wrapped)
                self._undo.append((cls, meth, raw))
                continue
            orig = mod.__dict__.get(attr)
            if orig is None:
                continue
            wrapped = self._wrap(metric, orig, mode)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def _wrap(self, name: str, fn, mode: str):
        if mode == COUNT:
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted
        return functools.wraps(fn)(lambda *args, **kwargs: self.span(name, fn, *args, **kwargs))

    # --- recording -----------------------------------------------------
    def span(self, name: str, fn, *args, **kwargs):
        spans, stack = self.spans, self.stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            spans[idx] = (name, t0, t1, parent, self.op_id)

    def operation(self, kind: str, fn):
        """Run one benchmark operation as a root span with a fresh id."""
        self.op_id += 1
        return self.span("op." + kind, fn)

    # --- derived figures -------------------------------------------------
    def layer_totals(self) -> tuple[dict, Counter]:
        """Self seconds and calls per span name, plus the counters."""
        covered = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        self_s: dict = defaultdict(float)
        calls: Counter = Counter(self.counts)
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            self_s[name] += (t1 - t0) - covered[idx]
            calls[name] += 1
        return self_s, calls
