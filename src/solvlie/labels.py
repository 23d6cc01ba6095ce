"""Classification labels shared by the catalog and the classifiers."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .records import Record
from .scalars import Scalar, format_scalar

G3_2_1 = "G3_2_1"
G3_2_2 = "G3_2_2"
G3_2_3 = "G3_2_3"
G4_2_1 = "G4_2_1"
G4_2_2 = "G4_2_2"
G4_2_3 = "G4_2_3"
G4_2_4_AFFC = "G4_2_4_AffC"
G5P2K_2 = "G5p2k_2"
G6P2K_2_1 = "G6p2k_2_1"
G6P2K_2_2 = "G6p2k_2_2"
AFFR_PLUS_AFFR = "AffR_plus_AffR"
AFFR_PLUS_HEIS = "AffR_plus_Heis"
TWO_STEP_NILPOTENT = "TwoStepNilpotent_OutOfScope"

FAMILIES = (
    G3_2_1,
    G3_2_2,
    G3_2_3,
    G4_2_1,
    G4_2_2,
    G4_2_3,
    G4_2_4_AFFC,
    G5P2K_2,
    G6P2K_2_1,
    G6P2K_2_2,
    AFFR_PLUS_AFFR,
    AFFR_PLUS_HEIS,
    TWO_STEP_NILPOTENT,
)

# families that are direct sums even with no abelian extension
DIRECT_SUM_FAMILIES = (AFFR_PLUS_AFFR, AFFR_PLUS_HEIS)


class ClassLabel(Record):
    """Family identifier with parameters and abelian-extension dimension.

    ``lam`` is the diagonal-family parameter, normalized to |lam| >= 1 (the
    lam <-> 1/lam ambiguity is scale induced); ``j`` is the rational
    scale-invariant key tr^2/det, which is the class key for both the
    diagonal and the complex-rotation family; ``cos_sign`` records which of
    the two angles phi, pi - phi the input presented (the two are
    isomorphic, so it is display data, not part of the key); ``k``/``m``
    count the extra commuting pairs in the chain families.
    """

    __slots__ = ("family", "abelian_ext", "lam", "j", "cos_sign", "k", "m")

    def __init__(
        self,
        family: str,
        abelian_ext: int = 0,
        lam: Optional[Scalar] = None,
        j: Optional[Fraction] = None,
        cos_sign: Optional[int] = None,
        k: Optional[int] = None,
        m: Optional[int] = None,
    ):
        self._set(family, abelian_ext, lam, j, cos_sign, k, m)

    @property
    def key(self) -> tuple:
        """Basis-change-invariant identity of the class."""
        parts: list = [self.family, self.abelian_ext]
        if self.family in (G3_2_1, G3_2_3):
            parts.append(self.j)
        elif self.family == G4_2_3:
            parts.append(self.lam)
        elif self.family in (G5P2K_2, G6P2K_2_1, G6P2K_2_2):
            parts.append(self.k)
        elif self.family == AFFR_PLUS_HEIS:
            parts.append(self.m)
        return tuple(parts)

    @property
    def decomposable(self) -> bool:
        """Syntactic decomposability: a positive abelian extension or a
        direct-sum family."""
        return self.abelian_ext > 0 or self.family in DIRECT_SUM_FAMILIES

    def params(self) -> dict:
        out: dict = {}
        if self.lam is not None:
            out["lambda"] = format_scalar(self.lam)
        if self.j is not None:
            out["j"] = format_scalar(self.j)
        if self.cos_sign is not None:
            out["cos_sign"] = self.cos_sign
        if self.k is not None:
            out["k"] = self.k
        if self.m is not None:
            out["m"] = self.m
        return out

    def __str__(self):
        ps = ", ".join(f"{k}={v}" for k, v in self.params().items())
        core = f"{self.family}({ps})" if ps else self.family
        if self.abelian_ext:
            core += f" + R^{self.abelian_ext}"
        return core
