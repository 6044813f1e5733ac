"""Generalized Hamming weights of RM(d, m) from Macaulay coefficient tuples.

The r-th weight comes out of the Macaulay representation of
rho_q(d, m) - r with respect to q: the maximum number of common zeros
of r independent reduced polynomials is sum_i floor(q^(m_i)), where the
floor just sends the m_i = -1 terms to zero, and the weight is q^m
minus that.  `e_bar`, `ghw` and `mu_tuple` run that greedy for one
rank, through the checked `decompose`, bounded by m_d <= m - 1.
`e_bars` runs it once in full for the first rank of one code and then
steps from each representation to the next, re-running the greedy only
on the tail that changes; each tail greedy makes its own bounded probe
(`macaulay._probe`) and returns a bare coefficient tuple.  A tail
depends only on the degree i and value c of the last live coefficient,
so each call runs it once per (i, c) and keeps it in a dict of at most
d(m + 1) entries, one per call (a 9 KB peak for a repeated iteration
of (2, 10, 20), whose k is 616,666).  `hierarchy`
runs none: the representations of k-1, ..., 0 map to the digit tuples
with digit sum <= d in descending lex order (Heijnen & Pellikaan, IEEE
Trans. IT 44(1), 1998), so the weights are the w in 1..q^m whose
q^m - w has digit sum <= d.  It lists them in one pass (`_weights`): a
C-level scan of a table of digit sums for a small code with many
weights, and a walk over the digit tuples for any other.  The table
depends on (q, m) alone, so `_digit_sums` builds it once per (q, m) and
keeps it for the process.  The scan keeps its weights from one shared
tuple of the ints 1..N, N the power of two at or above q^m (`_ints`, at
most 17 tuples and 131,071 ints in all), so a scanned hierarchy holds a
pointer per weight and equal weights of any two are the same objects.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from itertools import compress, islice

from .dims import CodeParams, _check_rank, _decimal_or, _rho_upto
from .macaulay import INFINITY, MacaulayRep, _decompose, decompose

# weights that `hierarchy` lists at most, about 60 bytes each while q^m
# fits a machine word, so near 300 MB at the cap.  A weight takes
# m*log2(q) bits, so past a word the cap bounds their bits as well: k
# weights of b bits count as k*b/64 weights of a word
MAX_WEIGHTS = 5 * 10**6


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
    """Macaulay representation of rho_q(d, m) - r, for r in [1, rho_q(d, m)].

    rho_q(d, .) increases and k - r < k = rho_q(d, m), so m_d <= m - 1,
    the bound the greedy starts from."""
    return decompose(_check_rank(params, r) - r, params.d, params.q, top=params.m - 1)


def e_bar(params: CodeParams, r: int) -> int:
    """Maximum number of common affine zeros of r independent reduced
    polynomials of degree <= d, via the Macaulay representation of
    rho_q(d, m) - r: the sum of q^(m_i) over its coefficients m_i >= 0,
    taken with one big power (`_power_sum`)."""
    return _power_sum(params.q, _rank_rep(params, r).coeffs)


def _power_sum(q: int, coeffs: tuple[int, ...]) -> int:
    """sum(q**c for c in coeffs if c >= 0) for a nonincreasing tuple whose
    -1s trail, 0 if every entry is -1.

    By Horner's rule from the top entry down, acc <- acc * q^(prev - c) + 1,
    then one power q^(last live entry): the steps are small powers, since
    neighbouring coefficients are close, so the sum takes one big power in
    place of one per entry.
    """
    live = coeffs[:len(coeffs) - coeffs.count(-1)]
    if not live:
        return 0
    acc, last = 0, live[0]
    for c in live:
        acc = acc * q ** (last - c) + 1
        last = c
    return acc * q**last


def e_bars(params: CodeParams):
    """An iterator of e_bar(params, r) for r = 1, ..., rho_q(d, m), in that order.

    The same greedy as `e_bar`, each run with its own probe, resumed from
    each rank to the next (`_rank_tuples`).  Each distinct tail is run once
    per call and kept in a dict of at most d(m + 1) entries, dropped when
    the iterator ends: 155 entries on (2, 10, 20), where a repeated
    iteration peaks at 9 KB under tracemalloc.  No table of powers is built:
    each tail's change to e_bar is its `_power_sum` less q^c.
    """
    return map(operator.itemgetter(1), _rank_tuples(params))


def _rank_tuples(params: CodeParams):
    """Yield (coeffs, e_bar) for r = 1, ..., rho_q(d, m): the bare tuple
    (m_d, ..., m_1) of rho_q(d, m) - r and e_bar(params, r).

    Resumed from each n to n - 1, starting from n = k, whose tuple is
    (m, -1, ..., -1).  Let c, at degree i, be the last coefficient of
    n's tuple that is not -1, so its summand ends the sum.  The greedy
    for n - 1 makes the same choices above c, since each remainder
    there leaves at least that summand, so at least 1, after its own
    summand.  What is left for degrees i..1 is the summand of c less 1,
    below the summand of c: the greedy runs on it alone, with top c - 1,
    and no spacing run carries over from the coefficients above
    (`macaulay._decompose`, which keeps its sum check on every tail).
    e_bar changes by the powers q^m_i of the tail (`_power_sum`) less q^c.
    From k the tail is the full greedy for k - 1, with top m - 1.

    So a tail depends on (i, c) alone, and each is run once per call:
    `tails` keeps, per (i, c), the tail, its count of live entries and
    its change to e_bar, for every later rank that ends at the same
    (i, c).  It holds at most d(m + 1) entries (1 <= i <= d,
    0 <= c <= m) and is dropped with the generator.  Each tail greedy makes
    the bounded probe of `decompose` (`macaulay._probe`); the summand of c
    that starts a tail is that probe with no bound, `_rho_upto(q, i, c,
    math.inf)`: `rho` without its argument checks, which the checked
    `CodeParams` has passed.
    """
    q, d, m = params.q, params.d, params.m
    coeffs, live, value = (m,) + (-1,) * (d - 1), 1, q**m  # rank 0: n = k, e_bar = q^m
    tails = {}
    for _ in range(params.dimension):
        j = live - 1  # c is the last entry >= 0; the -1s trail
        i, c = d - j, coeffs[j]
        if (entry := tails.get((i, c))) is None:
            tail = _decompose(_rho_upto(q, i, c, math.inf) - 1, i, q, c - 1)
            tail_live = i - tail.count(-1)
            change = _power_sum(q, tail) - q**c
            entry = tails[i, c] = tail, tail_live, change
        tail, tail_live, change = entry
        coeffs, live = coeffs[:j] + tail, j + tail_live
        value += change
        yield coeffs, value


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
        if any(map(operator.ge, self.weights, islice(self.weights, 1, None))):
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


def _weights(params: CodeParams) -> tuple[int, ...]:
    """d_r = q^m - e_bar(r) for r = 1, ..., rho_q(d, m), in that order.

    Through `coeffs_to_mu`, rank r is the r-th digit tuple with digit
    sum <= d in descending lex order, and e_bar(r) is its base-q value;
    so the e_bar column is every value below q^m with digit sum <= d,
    descending, and the weights are the w in 1..q^m whose q^m - w has
    digit sum <= d.  A code with q^m <= 2^16, m(q-1) <= 255 and at least
    q^m / 8 weights takes `_scan`, whose cost is q^m steps in C; every
    other code takes `_walk`, whose cost is O(1) Python steps a weight.
    The density test reads the cached `params.dimension`, so a call adds
    no `rho` to the one that the cap and `WeightHierarchy` share.
    """
    q, d, m = params.q, params.d, params.m
    if m * (q - 1) <= 255 and (n := q**m) <= 1 << 16 and 8 * params.dimension >= n:
        return _scan(q, d, m)
    return _walk(q, d, m)


def _scan(q: int, d: int, m: int) -> tuple[int, ...]:
    """`_weights` by one pass over a table of digit sums, for q^m <= 2^16
    and m(q-1) <= 255.

    The base-q digits of q^m - w are those of t = w - 1 taken from q - 1,
    so they sum to at most d iff t has digit sum >= m(q-1) - d.  One
    translate turns the digit sums of t = 0, ..., q^m - 1 (`_digit_sums`,
    built once per (q, m)) into a 0/1 mask of the t that qualify, and
    `itertools.compress` keeps their w = t + 1 from the shared ints
    1, 2, ... of `_ints`, stopping at the end of the mask: the weights
    are pointers to those ints, and the scan makes no int of its own.
    """
    low = m * (q - 1) - d
    mask = _digit_sums(q, m).translate(bytes(low) + b"\1" * (256 - low))
    return tuple(compress(_ints(1 << (q**m - 1).bit_length()), mask))


# bounded by its keys: the scan asks for the power of two at or above
# q^m <= 2^16, so at most 17 tuples of 131,071 ints in all, about 5 MB
# (16 tuples of 131,070 over the codes `CodeParams` admits, where q^m >= 2)
@functools.cache
def _ints(size: int) -> tuple[int, ...]:
    """The ints 1, ..., size as one tuple, built on the first call for
    size and shared by every scan whose q^m rounds up to it, so equal
    weights of any two scanned hierarchies are the same objects;
    `_ints.cache_info()` counts the builds (misses) and the reuses (hits)."""
    return tuple(range(1, size + 1))


# bounded by its keys: only the scan's (q, m) reach it, with m(q-1) <= 255
# and q^m <= 2^16, so at most 170 tables of 971,735 bytes in all over the
# prime powers q that `CodeParams` admits (465 tables, 2.14 MB, over every
# q <= 256 if `_scan` is called directly)
@functools.cache
def _digit_sums(q: int, m: int) -> bytes:
    """The base-q digit sums of t = 0, ..., q^m - 1 as one `bytes`, one
    byte each (none passes m(q-1) <= 255), built by q translate-and-join
    steps per digit on the first call for (q, m) and shared by every later
    one; `_digit_sums.cache_info()` counts the builds (misses) and the
    reuses (hits)."""
    ramp = bytes(range(256)) * 2  # ramp[a:a + 256] maps byte x to x + a (mod 256)
    sums = b"\0"  # the one empty digit string, of sum 0
    for _ in range(m):
        # a new top digit a adds a to every sum so far
        sums = b"".join(sums.translate(ramp[a:a + 256]) for a in range(q))
    return sums


def _walk(q: int, d: int, m: int) -> tuple[int, ...]:
    """`_weights` by a walk over the digit tuples, for any code.

    The descending e_bar column is built from the least significant
    digit up, each digit's value subtracted from q^m: after j digits,
    `tails[s]` holds in that order q^m minus the values of the last j
    digits with digit sum <= s, kept only for the sums s that the m - j
    digits above can still leave, and shared for s past j(q-1), where
    the bound no longer bites.
    """
    tails = dict.fromkeys(range(d + 1), [q**m])
    for j in range(m):
        place, full = q**j, (j + 1) * (q - 1)
        low = max(0, d - (m - j - 1) * (q - 1))
        below, tails = tails, {}
        for s in range(low, min(d, full) + 1):
            tails[s] = [v - c * place for c in range(min(s, q - 1), 0, -1) for v in below[s - c]]
            tails[s] += below[s]  # digit 0 subtracts nothing, so its entries are shared
        for s in range(full + 1, d + 1):
            tails[s] = tails[full]
    del below  # free the lists of the digits below before the copy to a tuple
    return tuple(tails[d])


def check_hierarchy_cap(params: CodeParams) -> None:
    """Raise ValueError if the hierarchy of `params` has more weights
    (rho_q(d, m)) than MAX_WEIGHTS, or more bits than MAX_WEIGHTS
    weights of 64 bits.  The bits of a weight are counted from the bit
    lengths of q and m, as m * (bits of q - 1) + 1, before any weight is
    made: the bits of q^m for q a power of 2, and over 0.6 of them for
    any other q, so a code with q^m < 2^64 is never refused for its bits."""
    if (k := params.dimension) > MAX_WEIGHTS:
        shown = _decimal_or(k, f"rho_{params.q}({params.d}, {params.m})")
        raise ValueError(
            f"{shown} weights exceed the hierarchy cap {MAX_WEIGHTS}; use ghw for single ranks"
        )
    if k * (bits := params.m * (params.q.bit_length() - 1) + 1) > MAX_WEIGHTS * 64:
        raise ValueError(
            f"{k} weights of at least {bits} bits exceed the hierarchy cap of"
            f" {MAX_WEIGHTS} 64-bit weights; use ghw for single ranks"
        )


def hierarchy(params: CodeParams) -> WeightHierarchy:
    """Compute d_r for every r = 1, ..., rho_q(d, m) in one pass over
    the digit sums (`_weights`), with no Macaulay greedy per rank.
    A code past the cap (`check_hierarchy_cap`) is refused before the pass."""
    check_hierarchy_cap(params)
    return WeightHierarchy(params, _weights(params))


def mu_tuple(params: CodeParams, r: int) -> tuple[int, ...]:
    """The digit tuple whose base-q valuation is e_bar(params, r)."""
    return coeffs_to_mu(_rank_rep(params, r), params.m)


def first_weight(params: CodeParams) -> int:
    """Minimum distance in closed form: (q-b) q^(m-a-1) for d = a(q-1)+b."""
    q, d, m = params.q, params.d, params.m
    a, b = divmod(d - 1, q - 1)
    b += 1
    return (q - b) * q ** (m - a - 1)
