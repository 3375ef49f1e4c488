"""Exact tools for vanishing checks of constant-coefficient operator powers.

Sparse Laurent polynomials and truncated series over Q, differential
operator application, rational polytopes with LP separation certificates,
density searches, and one checker per proved case of the conjecture.
"""

from .diffops import DiffOp, VanishingProfile, apply, vanishing_profile
from .poly import LaurentPoly, TruncSeries
from .polytopes import (
    RationalPolytope,
    SeparationCertificate,
    Witness,
    contains_point,
    minkowski_diff,
    moveaway_bound,
    newton_polytope,
    orthant_meet,
)

__all__ = [
    "DiffOp",
    "LaurentPoly",
    "RationalPolytope",
    "SeparationCertificate",
    "TruncSeries",
    "VanishingProfile",
    "Witness",
    "apply",
    "contains_point",
    "minkowski_diff",
    "moveaway_bound",
    "newton_polytope",
    "orthant_meet",
    "vanishing_profile",
]

__version__ = "0.1.0"
