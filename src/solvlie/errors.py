"""Exception hierarchy shared by all modules."""


class SolvlieError(Exception):
    pass


class FieldMismatch(SolvlieError):
    """Arithmetic mixed two quadratic extensions with different radicands."""


class DimensionError(SolvlieError):
    pass


class DimensionMismatch(DimensionError):
    pass


class SingularInput(SolvlieError):
    pass


class SingularTransform(SolvlieError):
    pass


class NonCommuting(SolvlieError):
    pass


class NonAbelianDerivedIdeal(SolvlieError):
    pass


class ParamOutOfDomain(SolvlieError):
    pass


class NotInClass(SolvlieError):
    """Input is outside the regime a classifier handles.

    ``reason`` is "JacobiFails" or "NotSolvable" (both normal forms),
    "DerivedDimNot2" (classify_n2), "DimensionTooSmall",
    "DerivedDimNotCodim2" or "DerivedNotAbelian" (normalize_codim2).
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason}{': ' + detail if detail else ''}")


class Unsupported(SolvlieError):
    """Regime the underlying theory leaves open (e.g. two-dimensional
    adjoint algebra on a codimension-2 derived ideal), or arithmetic the
    exact layer does not do yet (a square root in Q(sqrt(d)))."""


class ShapeMismatch(SolvlieError):
    pass


class ImpossibleBranch(SolvlieError):
    """A case the theory rules out was reached; indicates a bug, not bad input."""
