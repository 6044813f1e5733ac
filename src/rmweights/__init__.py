"""Dimensions and generalized Hamming weight hierarchies of q-ary Reed-Muller codes.

The closed-form route goes through Macaulay representations of integers
with respect to q; the `oracle` module carries the brute-force
counterparts used to verify it, and is imported on first use of
`rmweights.oracle`, so the closed forms load without it.
"""

import importlib

from . import dims, macaulay, weights
from .dims import (
    CodeParams,
    binomial,
    is_prime_power,
    rho,
    rho_binomial,
    rho_recursive,
)
from .macaulay import INFINITY, MacaulayRep, compare, decompose, recompose
from .weights import (
    WeightHierarchy,
    coeffs_to_mu,
    e_bar,
    e_bars,
    first_weight,
    ghw,
    hierarchy,
    mu_tuple,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # importing the submodule binds it on the package, so this runs once
    if name == "oracle":
        return importlib.import_module(".oracle", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CodeParams",
    "INFINITY",
    "MacaulayRep",
    "WeightHierarchy",
    "binomial",
    "coeffs_to_mu",
    "compare",
    "decompose",
    "dims",
    "e_bar",
    "e_bars",
    "first_weight",
    "ghw",
    "hierarchy",
    "is_prime_power",
    "macaulay",
    "mu_tuple",
    "oracle",
    "recompose",
    "rho",
    "rho_binomial",
    "rho_recursive",
    "weights",
]

