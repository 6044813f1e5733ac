"""Reference computations made apart from the library under test.

Nothing here imports rmweights.  Dimensions come from a counting DP over
exponent tuples in {0..q-1}^m with coordinate sum <= d, and weights from
unranking the r-th such tuple in descending-lex order, which is the
characterization of Heijnen & Pellikaan, "Generalized Hamming weights
of q-ary Reed-Muller codes", IEEE Trans. IT 44(1), 1998: with mu the
r-th tuple, d_r = q^m - sum_i mu_i q^(m-i).
"""

from __future__ import annotations

import itertools
import math


def count_rows(q: int, d: int, m: int) -> list[list[int]]:
    """rows[j][s] = number of tuples in {0..q-1}^j with sum <= s (j <= m, s <= d)."""
    row = [1] * (d + 1)
    rows = [row]
    for _ in range(m):
        prev, row, acc = row, [0] * (d + 1), 0
        for s in range(d + 1):
            # window sum of prev over [s-q+1, s]: the last coordinate takes 0..q-1
            acc += prev[s]
            if s >= q:
                acc -= prev[s - q]
            row[s] = acc
        rows.append(row)
    return rows


def dimension(q: int, d: int, m: int) -> int:
    """k = dim RM_q(d, m) by the counting DP."""
    if d < 0:
        return 0
    return count_rows(q, d, m)[m][d]


def unrank(q: int, d: int, m: int, r: int, rows=None) -> tuple[int, ...]:
    """The r-th (1-based) tuple with sum <= d in descending-lex order."""
    rows = rows if rows is not None else count_rows(q, d, m)
    if not 1 <= r <= rows[m][d]:
        raise ValueError(f"r = {r} outside [1, {rows[m][d]}]")
    mu, s = [], d
    for i in range(m):
        tail = rows[m - 1 - i]
        for v in range(min(q - 1, s), -1, -1):
            c = tail[s - v]
            if r <= c:
                break
            r -= c
        mu.append(v)
        s -= v
    return tuple(mu)


def weight(q: int, d: int, m: int, r: int, rows=None) -> int:
    """d_r(RM_q(d, m)) from the r-th tuple in descending-lex order."""
    e = 0
    for v in unrank(q, d, m, r, rows):
        e = e * q + v
    return q**m - e


def listed_hierarchy(q: int, d: int, m: int) -> list[int]:
    """Every d_r of a small code, from a sorted listing of all q^m tuples."""
    tuples = sorted(itertools.product(range(q), repeat=m), reverse=True)
    n = q**m
    out = []
    for t in tuples:
        if sum(t) <= d:
            e = 0
            for v in t:
                e = e * q + v
            out.append(n - e)
    return out


def first_weight(q: int, d: int, m: int) -> int:
    """Minimum distance (q-b) q^(m-a-1), where d = a(q-1) + b and 1 <= b <= q-1."""
    a = (d - 1) // (q - 1)
    b = d - a * (q - 1)
    return (q - b) * q ** (m - a - 1)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return num // den


def closed_dimension(q: int, d: int, m: int) -> int:
    """k by inclusion-exclusion with the hockey-stick sum; input generation only."""
    return sum(
        (-1) ** j * math.comb(m, j) * math.comb(m + d - q * j, m)
        for j in range(min(m, d // q) + 1)
    )
