"""Generalized Hamming weights of RM(d, m) from Macaulay coefficient tuples.

The r-th weight comes out of the Macaulay representation of
rho_q(d, m) - r with respect to q: the maximum number of common zeros
of r independent reduced polynomials is sum_i floor(q^(m_i)), where the
floor just sends the m_i = -1 terms to zero, and the weight is q^m
minus that.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .dims import CodeParams
from .macaulay import INFINITY, MacaulayRep, decompose


def coeffs_to_mu(rep: MacaulayRep, m: int) -> tuple[int, ...]:
    """Digit tuple (mu_1, ..., mu_m) with mu_i = #{coefficients equal to m-i}.

    Coefficients equal to -1 fall into the implicit (m+1)-th bucket and
    are dropped.  Requires a finite-q representation whose largest
    coefficient is below m; then each digit lies in {0, ..., q-1} and
    the digits sum to at most the representation's degree.
    """
    if rep.qparam == INFINITY:
        raise ValueError("mu tuples are defined for finite q only")
    if rep.coeffs and rep.coeffs[0] >= m:
        raise ValueError(f"largest coefficient {rep.coeffs[0]} must be < m = {m}")
    counts = Counter(rep.coeffs)
    return tuple(counts.get(m - i, 0) for i in range(1, m + 1))


def _rank_rep(params: CodeParams, r: int) -> MacaulayRep:
    """Macaulay representation of rho_q(d, m) - r, for r in [1, rho_q(d, m)]."""
    if not isinstance(r, int):
        raise TypeError("r must be an integer")
    k = params.dimension
    if not 1 <= r <= k:
        raise ValueError(f"r must be in [1, {k}]")
    return decompose(k - r, params.d, params.q)


def e_bar(params: CodeParams, r: int) -> int:
    """Maximum number of common affine zeros of r independent reduced
    polynomials of degree <= d, via the Macaulay representation of
    rho_q(d, m) - r."""
    rep = _rank_rep(params, r)
    return sum(params.q**c for c in rep.coeffs if c >= 0)


def ghw(params: CodeParams, r: int) -> int:
    """r-th generalized Hamming weight d_r(RM(d, m)) = q^m - e_bar."""
    return params.length - e_bar(params, r)


@dataclass(frozen=True)
class WeightHierarchy:
    """The full weight hierarchy d_1 < d_2 < ... < d_k of one code."""

    params: CodeParams
    weights: tuple[int, ...]

    def __post_init__(self):
        k = self.params.dimension
        if len(self.weights) != k:
            raise ValueError(f"expected {k} weights, got {len(self.weights)}")
        if any(a >= b for a, b in zip(self.weights, self.weights[1:])):
            raise ValueError("weights must be strictly increasing")
        if self.weights[-1] != self.params.length:
            raise ValueError("last weight must equal the block length q^m")

    def __iter__(self):
        return iter(self.weights)

    def __len__(self):
        return len(self.weights)

    def __getitem__(self, r: int) -> int:
        """Weight d_r, 1-indexed like the subscript."""
        if not 1 <= r <= len(self.weights):
            raise IndexError(f"r must be in [1, {len(self.weights)}]")
        return self.weights[r - 1]


def hierarchy(params: CodeParams) -> WeightHierarchy:
    """Compute d_r for every r = 1, ..., rho_q(d, m)."""
    k = params.dimension
    return WeightHierarchy(params, tuple(ghw(params, r) for r in range(1, k + 1)))


def mu_tuple(params: CodeParams, r: int) -> tuple[int, ...]:
    """The digit tuple whose base-q valuation is e_bar(params, r)."""
    return coeffs_to_mu(_rank_rep(params, r), params.m)


def first_weight(params: CodeParams) -> int:
    """Minimum distance in closed form: (q-b) q^(m-a-1) for d = a(q-1)+b."""
    q, d, m = params.q, params.d, params.m
    a, b = divmod(d - 1, q - 1)
    b += 1
    return (q - b) * q ** (m - a - 1)
