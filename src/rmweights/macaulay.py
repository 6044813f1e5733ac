"""Macaulay representations of nonnegative integers with respect to q.

Every N >= 0 has a unique expansion N = sum_{i=1..d} rho_q(i, m_i) with
coefficients -1 <= m_1 <= ... <= m_d such that entries q-1 positions
apart strictly increase unless both are -1.  Passing ``INFINITY`` for q
switches the summands to plain binomials C(m_i + i, i), which recovers
the classical d-binomial representation.

The greedy, `_decompose`, makes one probe, fit(i, m, bound), which
returns the degree-i summand at m when it is <= bound and None
otherwise; the summand of each coefficient is the value of its last
probe that fit, so no summand is evaluated twice.  The two conditions
bound each coefficient from above: by the one above it, and by one less
after a run of q - 1 equal coefficients.  Coefficients at their bound
cluster: one that follows a coefficient at its own bound lies at it far
more often than one that follows a coefficient below it.  So the search
probes that bound first only after a coefficient at its bound (and on a
run's first search); otherwise it first probes just above a guess that
the remainder gives (`_estimate`, a float inversion of a binomial that
stands in for the summand, or an integer one past a float's 53 bits),
and the bound only if that fit.  Then it gallops.  The guess only picks
where the exact probes start, so no float reaches a coefficient.  m_1
needs no search, as every degree-1 summand is m_1 + 1.  `_probe` makes
the probe, once per greedy run and nowhere else: for finite q
`dims._rho_upto`, which gives up on the first partial sum of rho past
the bound.  At q = 2 that sum is sum_{t<=i} C(m, t), one `math.comb` for
C(m, i) and i exact steps down, so a probe that misses often stops after
a term or two; at any other q it is the inclusion-exclusion formula,
which stops at its first odd partial sum past the bound.  The greedy
returns the bare coefficient tuple; `decompose` is the one place that
wraps it in a `MacaulayRep`, whose constructor validates it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from typing import Sequence

from .dims import _decimal_or, _rho_upto, binomial, is_prime_power, rho

INFINITY = float("inf")
_LN2 = math.log(2)
_LOG_FLOAT_EXACT = 53 * _LN2  # log of 2^53: a root past it has bits a float drops

# degrees that `decompose` takes at most: it stores and checks all d
# coefficients whatever n is, near 80 MB at the cap; the `macaulay`
# command, which prints them all, peaks near 0.4 GB there (json 1.2 GB)
MAX_DEGREE = 5 * 10**6


def _shown(n: int) -> int | str:
    """n for an error message, or its bit length past the digit limit."""
    return _decimal_or(n, f"a {n.bit_length()}-bit integer")


def _check_qparam(qparam) -> None:
    if qparam == INFINITY:
        return
    if not isinstance(qparam, int) or not is_prime_power(qparam):
        raise ValueError("q must be a prime power or INFINITY")


def dim_term(qparam, i: int, m: int) -> int:
    """Value of the degree-i summand: rho_q(i, m), or C(m+i, i) at q = INFINITY."""
    if qparam == INFINITY:
        return binomial(m + i, i)
    return rho(qparam, i, m)


def validate(coeffs: Sequence[int], d: int, qparam) -> bool:
    """Check the ordering and spacing conditions on a coefficient tuple.

    Requires -1 <= m_1 <= ... <= m_d and, for finite q, that
    m_{i+q-1} > m_i for every i unless both entries are -1.  The
    spacing condition is vacuous at q = INFINITY.  The tuple is given
    highest degree first, (m_d, ..., m_1).  A non-integer d or
    coefficient raises TypeError, and a tuple of the wrong length
    ValueError.
    """
    _check_qparam(qparam)
    if not isinstance(d, int) or not all(map(isinstance, coeffs, repeat(int))):
        raise TypeError("d and the coefficients must be integers")
    if len(coeffs) != d:
        raise ValueError(f"expected {d} coefficients, got {len(coeffs)}")
    # coeffs runs m_d down to m_1, so it is nonincreasing and ends at its minimum
    if any(map(operator.lt, coeffs, coeffs[1:])) or (d and coeffs[-1] < -1):
        return False
    # the spacing check relies on the ordering check above: in a
    # nonincreasing tuple a window m_i, m_{i+q-1} fails only on an equal
    # pair, and one whose lower entry is -1 always passes, so only the
    # entries before the -1s are checked
    live = coeffs[:d - coeffs.count(-1)]
    return qparam == INFINITY or not any(map(operator.le, live, live[qparam - 1:]))


@dataclass(frozen=True)
class MacaulayRep:
    """A d-th Macaulay representation with respect to q (or INFINITY).

    coeffs holds (m_d, ..., m_1), which determines the represented
    integer n.  The defining conditions are enforced at construction.
    """

    qparam: int | float
    d: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        # a list would leave the frozen instance unhashable and unordered
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if not validate(self.coeffs, self.d, self.qparam):
            raise ValueError(f"invalid coefficient tuple {self.coeffs}")

    @property
    def n(self) -> int:
        """The represented integer, the sum of the summands."""
        return sum(self.term_values())

    @property
    def binomial_tops(self) -> tuple[int, ...]:
        """Classical-form tops (m_d + d, ..., m_1 + 1), so n = sum C(top_i, i)."""
        return tuple(c + i for i, c in zip(range(self.d, 0, -1), self.coeffs))

    def term_values(self) -> tuple[int, ...]:
        """The individual summands, highest degree first; a -1 (they trail) gives 0 with no call."""
        live = self.d - self.coeffs.count(-1)
        terms = map(partial(dim_term, self.qparam), range(self.d, 0, -1), self.coeffs[:live])
        return tuple(chain(terms, repeat(0, self.d - live)))


def _estimate(qparam, i: int, remainder: int) -> int | None:
    """A guess at the largest m with term(i, m) <= remainder, or None.

    For m >> i the degree-i summand is close to C(m + a, i), with a = 1
    at q = 2 and a = i otherwise (exactly C(m + i, i) at q = INFINITY
    and for i < q).  C(N, i) is about (N - (i - 1)/2)^i / i!, which
    inverts to N from log(remainder) and lgamma(i + 1), both defined
    at any size.  Where that root passes a float's 53 bits, the float
    misses its low bits and the gallop pays about two probes for each,
    so the root is the exact integer root of remainder * i! (`_iroot`)
    instead, seeded from the float.  The guess is given only where it
    lands above 2i, below which the surrogate is poor; it only picks
    where the exact probes start.
    """
    a = 1 if qparam == 2 else i
    log_root = (math.log(remainder) + math.lgamma(i + 1)) / i
    if log_root > _LOG_FLOAT_EXACT:
        # the float root scaled into [2^53, 2^54), then shifted back
        shift = int(log_root / _LN2) - 53
        hint = int(math.exp(log_root - shift * _LN2)) << shift
        guess = _iroot(remainder * math.factorial(i), i, hint) + (i - 1) // 2 - a
    else:
        guess = int(math.exp(log_root) + (i - 1) / 2) - a
    return guess if guess > 2 * i else None


def _iroot(n: int, k: int, hint: int) -> int:
    """floor(n^(1/k)) for n >= 1, k >= 1 and hint >= 1, by integer Newton steps.

    A step from any x > 0 lands at or above the root (the AM-GM
    inequality), and so does the power of two above it.  From the lower
    of the two, each step goes down until the next would not, where x
    is the root.  A hint near the root makes its step the lower one and
    saves the about k ln 2 slow steps down from the power of two; any
    other hint costs at most one step more.
    """
    def step(x):
        return ((k - 1) * x + n // x ** (k - 1)) // k

    x = min(step(hint), 1 << -(-n.bit_length() // k))
    while (y := step(x)) < x:
        x = y
    return x


def _greedy_coefficient(fit, i: int, remainder: int, hi: int | None, qparam,
                        bound_first: bool) -> tuple[int, int]:
    """Largest m in [-1, hi] with term(i, m) <= remainder, and term(i, m).

    term(i, m) is a degree-i summand with respect to qparam, strictly
    increasing in m for i >= 1, 0 at m = -1 and 1 at m = 0; the probe
    fit(i, m, bound) returns it when it is <= bound and None otherwise,
    and the remainder is at least 1.  The answer's term is the value of
    the last probe that fit, so no summand is evaluated twice.  The
    search keeps a bracket: lo fits (-1 at first, whose term is 0) and
    hi misses, or is None with no bound.  With `bound_first`, which
    `_decompose` sets where the coefficient above sat at its own bound,
    a bound hi is probed first, since the next one then often does too.
    Then m = g + 1 is probed, for the guess g of `_estimate`, if it lies
    inside the bracket.  Without `bound_first` the bound is probed only
    after that, and only if g + 1 fit or there was no such guess.  From
    the end of the bracket that a probe moved last (lo if neither moved
    and there is no bound) the search gallops toward the other end:
    lo + 1, lo + 3, lo + 7, ... up, or hi - 1, hi - 3, hi - 7, ... down,
    to the first probe that crosses, and bisects only that last step.
    An answer that lies j from that end thus takes at most
    2 * j.bit_length() probes after it, and one that lies gap below the
    coefficient above at most 2 * gap.bit_length() + 1 in all; one probe
    more only where the answer is the bound and `bound_first` is unset
    (g + 1, then the bound).  The guess only steers: each answer is
    settled by exact probes, a fit at it and a miss at the next m (or
    the bound).
    """
    lo, lo_value, bound = -1, 0, hi
    if bound_first and hi is not None and (value := fit(i, hi, remainder)) is not None:
        return hi, value
    guess = _estimate(qparam, i, remainder)
    if guess is not None and (hi is None or guess + 1 < hi):
        if (value := fit(i, guess + 1, remainder)) is None:
            hi = guess + 1
        else:
            lo, lo_value = guess + 1, value
    if not bound_first and hi is not None and hi == bound:
        if (value := fit(i, hi, remainder)) is not None:
            return hi, value
    step = 1
    if hi is None or lo >= 0:  # gallop up from lo
        while hi is None or lo + step < hi:
            if (value := fit(i, lo + step, remainder)) is None:
                hi = lo + step
                break
            lo, lo_value, step = lo + step, value, 2 * step
    else:  # gallop down from hi
        while hi - step > lo:
            if (value := fit(i, hi - step, remainder)) is not None:
                lo, lo_value = hi - step, value
                break
            hi, step = hi - step, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (value := fit(i, mid, remainder)) is None:
            hi = mid
        else:
            lo, lo_value = mid, value
    return lo, lo_value


def _decompose(n: int, d: int, qparam, top: int | None = None) -> tuple[int, ...]:
    """The greedy of `decompose`, probing through the fit(i, m, bound) that
    it makes (`_probe`); `top`, if given, must bound m_d from above.

    Each coefficient is bounded by the one above it, and by one less
    after a run of q - 1 equal coefficients other than -1 (the spacing
    condition).  Whether a coefficient came out at its bound is carried
    to the next search (`at_bound`), which then probes its own bound
    first; the first search probes `top` first.  Since every degree-1
    summand is m + 1, m_1 needs no search, and once the remainder is 0
    every lower coefficient is -1.
    The terms must add up to n, which fails only if `top` is too low;
    by uniqueness the result, a bare tuple (m_d, ..., m_1), is then
    the representation of n, which `decompose` wraps and checks.
    """
    fit, coeffs, remainder, hi = _probe(qparam), [], n, top
    run, spacing = 0, qparam - 1  # run: how many coefficients in a row equal hi
    at_bound = True  # the first search probes its bound (`top`) first
    for i in range(d, 1, -1):
        if not remainder:
            break  # every summand is 0 at m = -1 and at least 1 above it
        c, value = _greedy_coefficient(fit, i, remainder, hi, qparam, at_bound)
        remainder -= value
        coeffs.append(c)
        at_bound = c == hi
        run = run + 1 if at_bound else 1
        hi = c
        if run == spacing and c >= 0:  # never at q = INFINITY
            hi, run = c - 1, 0
    else:
        c = remainder - 1 if hi is None else min(hi, remainder - 1)
        remainder -= c + 1
        coeffs.append(c)
        if remainder:
            terms, left = tuple(map(_shown, coeffs)), _shown(remainder)
            raise AssertionError(f"the terms of {terms} leave {left} of n = {_shown(n)}")
    return tuple(coeffs) + (-1,) * (d - len(coeffs))


def _binomial_fit(i: int, m: int, bound: int) -> int | None:
    """The probe at q = INFINITY: C(m + i, i) if it is <= bound, else None."""
    value = binomial(m + i, i)
    return value if value <= bound else None


def _probe(qparam):
    """The probe fit(i, m, bound) that each `_decompose` run makes for its
    checked qparam: `_binomial_fit` at INFINITY, else `dims._rho_upto` with q bound."""
    return _binomial_fit if qparam == INFINITY else partial(_rho_upto, qparam)


def decompose(n: int, d: int, qparam, top: int | None = None) -> MacaulayRep:
    """Compute the d-th Macaulay representation of n with respect to qparam.

    Greedy from degree d down to 1: each coefficient is the unique
    m_i >= -1 with dim_term(i, m_i) <= remainder < dim_term(i, m_i + 1).
    Only m_d is searched without a bound, unless the caller knows one
    and passes it as `top` (an integer >= -1); a `top` below the true
    m_d raises AssertionError, as the terms then fall short of n.
    Every lower coefficient lies in [-1, m_{i+1}], or [-1, m_{i+1} - 1]
    when it would end a run of q equal coefficients; the search probes
    that bound and just above a guess from the remainder, the bound first
    only where the coefficient above sat at its own, and gallops from
    there (`_greedy_coefficient`).  At most MAX_DEGREE degrees are
    taken, since all d coefficients are stored; a larger d raises
    ValueError before the greedy runs.
    m_1 is the remainder minus one, capped by its bound, with no probe.
    The greedy makes its own probe (`_probe`), for finite q
    `dims._rho_upto`, which skips the argument checks (q is checked here
    once, and the greedy makes i and m) and stops on the first partial
    sum of rho past the remainder (at q > 2 the first odd one); the
    summand of each coefficient is the value its last fitting probe
    returned.
    """
    _check_qparam(qparam)
    if not (isinstance(n, int) and isinstance(d, int) and isinstance(top, (int, type(None)))):
        raise TypeError("n, d and top (if given) must be integers")
    if d > MAX_DEGREE:
        raise ValueError(f"d = {_shown(d)} exceeds the degree cap {MAX_DEGREE}")
    if n < 0:
        raise ValueError("n must be >= 0")
    if top is not None and top < -1:
        raise ValueError("top must be >= -1")
    return MacaulayRep(qparam, d, _decompose(n, d, qparam, top))


def recompose(coeffs, d: int | None = None, qparam=None) -> int:
    """Sum the summands of a coefficient tuple, rejecting invalid tuples.

    Accepts either a MacaulayRep or a raw (m_d, ..., m_1) sequence with
    explicit d and qparam, which MacaulayRep's constructor checks.
    """
    if isinstance(coeffs, MacaulayRep):
        return coeffs.n
    if d is None or qparam is None:
        raise ValueError("d and qparam are required for a raw coefficient tuple")
    return MacaulayRep(qparam, d, tuple(coeffs)).n


def compare(a: MacaulayRep, b: MacaulayRep) -> int:
    """Lexicographic order of two coefficient tuples: -1, 0 or 1.

    Equals the numeric order of the represented integers.  Both
    representations must share the same degree and the same qparam.
    """
    if a.d != b.d or a.qparam != b.qparam:
        raise ValueError("representations must share d and qparam")
    return (a.coeffs > b.coeffs) - (a.coeffs < b.coeffs)
