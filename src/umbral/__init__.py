"""Exact umbral calculus engine.

Umbrae are finite moment sequences evaluated through a linear functional;
every auxiliary construction (point products, point powers, inverses, Bell,
partition and composition umbrae) is realized twice -- closed-form moments
and truncated generating function -- and the two are verified against each
other at registration.  See the README for the CLI and the identity catalog.
"""

from .combinatorics import (
    bell_number,
    bernoulli_number,
    complete_bell,
    exponential_poly,
    partial_bell,
    stirling,
)
from .core import Atom, Expr, IntPower, Product, ScalarMul, Sum, Workspace
from .identities import IdentityCase, check, check_all, list_identities
from .inversion import InversionReport, cross_check, revert_oracle, revert_umbral
from .ops import (
    alpha_bar,
    bell_umbra,
    composition_umbra,
    dot,
    exponential_umbral_moment,
    inverse_umbra,
    partition_umbra,
    point_power,
    scale_atom,
)
from .poly import Poly
from .series import Series

__all__ = [
    "Atom", "CompoundModel", "DiscreteDist", "Expr",
    "IdentityCase", "IntPower", "InversionReport", "MomentComparison",
    "PoissonModel", "Poly", "Product",
    "RandomizedCompoundModel", "RandomizedModel", "ScalarMul", "Series",
    "Sum", "Workspace", "alpha_bar", "bell_number", "bell_umbra",
    "bernoulli_number", "check", "check_all", "compare", "complete_bell",
    "composition_umbra", "cross_check", "dot",
    "exact_moments", "exponential_poly", "exponential_umbral_moment",
    "inverse_umbra", "list_identities", "partial_bell", "partition_umbra",
    "point_power", "revert_oracle", "revert_umbral", "sample", "scale_atom",
    "stirling",
]

__version__ = "0.1.0"

# No exact command needs the Monte Carlo lab, so its names load it on first
# use (numpy loads later still, at the first draw).
_POISSON = {"CompoundModel", "DiscreteDist", "MomentComparison", "PoissonModel",
            "RandomizedCompoundModel", "RandomizedModel", "compare",
            "exact_moments", "sample"}


def __getattr__(name):
    if name in _POISSON:
        from . import poisson
        return getattr(poisson, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
