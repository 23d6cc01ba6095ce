"""Exact-arithmetic toolkit for structure-constant Lie algebras.

Highlights: exact rational / quadratic-extension linear algebra, rational
canonical forms with witnesses, a decision procedure for proportional
similarity cA = C^-1 B C, and constructive classification of solvable
algebras whose derived ideal has dimension 2 or codimension 2.
"""

import sys
from importlib import import_module
from types import ModuleType

# public name -> the submodule that defines it; each submodule is imported
# on first access to one of its names (PEP 562), so a CLI command compiles
# only the modules it reads
_HOME = {
    name: module
    for module, names in {
        "classify_n2": ("Classification", "Witness", "classify_n2"),
        "codim2": ("Codim2Form", "Codim2IsoVerdict", "codim2_isomorphic", "normalize_codim2"),
        "errors": (
            "DimensionError",
            "DimensionMismatch",
            "ImpossibleBranch",
            "NonAbelianDerivedIdeal",
            "NonCommuting",
            "NotInClass",
            "ParamOutOfDomain",
            "ShapeMismatch",
            "SingularInput",
            "SingularTransform",
            "SolvlieError",
            "Unsupported",
        ),
        "frobenius": ("frobenius_form", "invariant_factors", "min_poly", "similar", "similarity_witness"),
        "labels": ("ClassLabel",),
        "liealg": ("BasisChange", "LieAlgebra", "StructureTensor", "ValidationReport", "validate"),
        "matrices": (
            "Mat",
            "SpectralClass2x2",
            "char_poly",
            "common_eigenvector",
            "det",
            "inverse",
            "kernel_basis",
            "rank",
            "spectral_classify_2x2",
        ),
        "propsim": ("GL2Class", "PropSimVerdict", "prop_similar", "propsim_classify_gl2"),
        "scalars": ("QuadExt", "sqrt_exact"),
    }.items()
    for name in names
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))


class _Package(ModuleType):
    """Keeps a public name bound to its object when a submodule of the same
    name loads: the import system then sets the package attribute to the
    submodule (``classify_n2`` is both)."""

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, ModuleType) and name in _HOME:
            value = getattr(value, name)
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
