"""Exact dimension arithmetic for q-ary Reed-Muller codes.

The dimension of RM(d, m) over F_q equals the number of exponent tuples
in {0, ..., q-1}^m with coordinate sum at most d.  This module computes
it by three independent routes (closed formula, window-sum table over
the variables, plain binomial for low degrees) so they can cross-check
each other.  The formula has one kernel, `_rho_upto`, which returns rho
only up to a bound and gives up early above it: at q = 2 the partial
binomial sum sum_{t<=d} C(m, t), d + 1 positive terms stepped down from
C(m, d), which stops at the first partial sum past the bound; at any
other q the inclusion-exclusion formula, which stops at the first odd
partial sum past it.  `rho` calls it with no bound (math.inf, only ever
compared), and the Macaulay greedy probes with it directly.  Everything
else is unbounded-integer arithmetic; no floats.  Error messages across
the package name an integer past Python's int -> str digit limit
symbolically (`_decimal_or`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate


@lru_cache(maxsize=1024)  # bounded: `table` tests every q of a range
def is_prime_power(q: int) -> bool:
    """Return True iff q = p^k for a prime p and k >= 1 (trial division)."""
    if q < 2:
        return False
    if q > 2**32:
        raise ValueError("prime-power test only supported for q <= 2**32")
    p = _smallest_prime_factor(q)
    while q % p == 0:
        q //= p
    return q == 1


def _smallest_prime_factor(n: int) -> int:
    """Smallest prime dividing n >= 2, by trial division."""
    for c in range(2, math.isqrt(n) + 1):
        if n % c == 0:
            return c
    return n


def binomial(a: int, b: int) -> int:
    """Binomial coefficient C(a, b), zero whenever a < b or b < 0."""
    if b < 0 or a < b:
        return 0
    return math.comb(a, b)


def _check_args(q: int, d: int, m: int, m_min: int = -1) -> None:
    """Checks shared by the three dimension routes (m >= -1) and
    CodeParams (m >= 1)."""
    if not isinstance(q, int) or not is_prime_power(q):
        raise ValueError("q must be a prime power")
    if not isinstance(d, int) or not isinstance(m, int):
        raise TypeError("d and m must be integers")
    if m < m_min:
        raise ValueError(f"m must be >= {m_min}")


def rho(q: int, d: int, m: int) -> int:
    """Dimension of RM(d, m) over F_q by its closed formula (`_rho_upto`).

    Conventions: 0 for d < 0 or m = -1, and 1 for d >= 0, m = 0.  For
    d >= m(q-1) the code fills the whole space, so the value is q^m.
    Otherwise a call costs, at q = 2, one binomial C(m, d) and d exact
    steps down to C(m, 0), and at any other q, min(m, d/q) + 1 terms
    of two binomials each.  It checks its arguments first, before any
    early return.  Nothing is memoized; the Macaulay greedy probes
    `_rho_upto` with a bound instead.
    """
    _check_args(q, d, m)
    return _rho_upto(q, d, m, math.inf)  # never None; q^m would cost a power at big m


def _rho_upto(q: int, d: int, m: int, bound: int | float) -> int | None:
    """rho(q, d, m) if it is <= bound, else None, for arguments that the
    caller has checked.

    0 for d < 0 or m = -1, and q^m for d >= m(q-1), where every tuple
    counts (so 1 at m = 0).  Otherwise, at q = 2, the partial binomial
    sum sum_{t<=d} C(m, t) over 0 <= d < m: one `math.comb` for C(m, d),
    then d exact steps C(m, t-1) = C(m, t) * t / (m - t + 1) down to
    C(m, 0).  Every term is positive, so a partial sum above the bound
    answers None at once.  At any other q, the hockey-stick sum: j
    variables forced to exponent >= q, the degree left spread over m
    variables and a slack.  Truncated after an odd term j, an
    inclusion-exclusion sum is <= its value (the Bonferroni
    inequalities), so an odd partial sum above the bound answers None
    at once.  Either way a value <= bound takes the whole sum.
    """
    if d < 0 or m == -1:
        value = 0
    elif d >= m * (q - 1):
        value = q**m
    elif q == 2:
        term = value = math.comb(m, d)
        for t in range(d, 0, -1):
            if value > bound:
                return None
            term = term * t // (m - t + 1)
            value += term
    else:
        comb = math.comb
        value = 0
        for j in range(min(m, d // q) + 1):
            term = comb(m, j) * comb(m + d - q * j, m)
            if j & 1:
                value -= term
                if value > bound:
                    return None
            else:
                value += term
    return value if value <= bound else None


def _digit_limit() -> int:
    """The int -> str digit limit of Python 3.10.7+; 0 is none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _decimal_or(n: int, fallback: str) -> int | str:
    """n for an error message, or `fallback` where n has more digits than
    int -> str conversion allows."""
    limit = _digit_limit()
    return n if not limit or n < 10**limit else fallback


def rho_binomial(q: int, d: int, m: int) -> int:
    """Dimension as C(m+d, d); only valid while 0 <= d <= q-1."""
    _check_args(q, d, m)
    if d < 0 or d > q - 1:
        raise ValueError("rho_binomial requires 0 <= d <= q-1")
    return binomial(m + d, d)


def dimension_rows(q: int, d: int, m: int):
    """Yield the rows rho_q(0..d, j) of the dimension table for j = 0..m.

    Each row is a list over s = 0..d (q >= 2, d >= 0, m >= 0).  A new
    variable takes an exponent in 0..q-1, so row j at s is the sum of
    row j-1 over the window [s-q+1, s]: O(m*d) big-integer additions,
    and the caller keeps as many rows as it needs.
    """
    row = [1] * (d + 1)
    yield row
    for _ in range(m):
        prefix = list(accumulate(row))
        row = prefix[:q] + [prefix[s] - prefix[s - q] for s in range(q, d + 1)]
        yield row


def rho_recursive(q: int, d: int, m: int) -> int:
    """Dimension as the corner of the dimension table, `dimension_rows`."""
    _check_args(q, d, m)
    if d < 0 or m == -1:
        return 0
    d = min(d, m * (q - 1))  # no tuple sums past m(q-1)
    for row in dimension_rows(q, d, m):
        pass  # only the last row is kept, so memory stays O(d)
    return row[d]


@dataclass(frozen=True)
class CodeParams:
    """Validated parameter triple (q, d, m) of a Reed-Muller code RM(d, m).

    q must be a prime power and the degree must satisfy 1 <= d <= m(q-1);
    beyond that bound the code is the whole ambient space.
    """

    q: int
    d: int
    m: int

    def __post_init__(self):
        _check_args(self.q, self.d, self.m, 1)
        if not 1 <= self.d <= self.m * (self.q - 1):
            raise ValueError(f"d must be in [1, {self.m * (self.q - 1)}]")

    @property
    def length(self) -> int:
        """Block length q^m of the code."""
        return self.q**self.m

    @property
    def dimension(self) -> int:
        """Code dimension rho_q(d, m), evaluated on the first read and kept
        in the instance's `__dict__` (not a field, so `==`, `hash`, `repr`
        and `asdict` never see it), so every later read costs no `rho`.
        A plain dict read, where `functools.cached_property` takes a lock
        on Python 3.11: a fresh code, read once, pays no more than that."""
        kept = self.__dict__
        if (k := kept.get("dimension")) is None:
            k = kept["dimension"] = rho(self.q, self.d, self.m)
        return k


def _check_rank(params: CodeParams, r: int) -> int:
    """k = rho_q(d, m) of params, once r is checked to be an integer in [1, k]."""
    if not isinstance(r, int):
        raise TypeError("r must be an integer")
    k = params.dimension
    if not 1 <= r <= k:
        shown = _decimal_or(k, f"rho_{params.q}({params.d}, {params.m})")
        raise ValueError(f"r must be in [1, {shown}]")
    return k
