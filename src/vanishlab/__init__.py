"""Exact tools for vanishing checks of constant-coefficient operator powers.

Sparse Laurent polynomials and truncated series over Q, differential
operator application, rational polytopes with LP separation certificates,
density searches, and one checker per proved case of the conjecture.

Importing the package loads none of its modules: an exported name, or a
module named as an attribute (``vanishlab.poly``), is imported on first
access (PEP 562), so a CLI request compiles only the modules it runs.
"""

from importlib import import_module

# each exported name and the module that defines it
_EXPORTS = {
    "DiffOp": "diffops",
    "LaurentPoly": "poly",
    "RationalPolytope": "polytopes",
    "SeparationCertificate": "polytopes",
    "TruncSeries": "poly",
    "Witness": "polytopes",
    "apply": "diffops",
    "contains_point": "polytopes",
    "minkowski_diff": "polytopes",
    "moveaway_bound": "polytopes",
    "newton_polytope": "polytopes",
    "orthant_meet": "polytopes",
    "vanishing_profile": "diffops",
}
_MODULES = ("cases", "cli", "density", "diffops", "parsing", "poly", "polytopes", "simplex")

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _MODULES:
        # importing a submodule binds it on the package, so this runs once per module
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
