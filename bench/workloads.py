"""The three workloads: seeded inputs, run length and kernel share.

A plan is a list of whole rounds.  Every round holds the same strata of
inputs (one dual pair per q, one query per (q, side of d), ...).  Round
j takes each stratum's input from the j-th of `rounds` equal cells of
that stratum's range, and the seed picks the input inside the cell, so
two seeds give runs of nearly the same cost.  The number of rounds grows
with --seconds and is fixed before anything is timed, so a run always
does the same work for the same seed, whatever the host's speed.  This
module does not import rmweights.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from reference import closed_dimension, dimension, gaussian_binomial

WORKLOADS = ("hierarchy", "ghw-bigint", "verify-oracle")

# Rounds per requested second, and kernel units after each op.  Both
# are fixed so that at --seconds 10 every workload has at least 100 ops
# (ten beyond p90) and the kernel takes about a fifth of the run.
ROUNDS_PER_SECOND = {"hierarchy": 3.2, "ghw-bigint": 7.0, "verify-oracle": 7.0}
KERNEL_UNITS = {"hierarchy": 3, "ghw-bigint": 1, "verify-oracle": 2}

Q_VALUES = (2, 3, 4, 5, 7, 8, 9)
FORMATS = ("plain", "json", "csv")


@dataclass(frozen=True)
class Plan:
    workload: str
    rounds: int
    ops: tuple  # one dict per op, rounds * (ops per round) of them
    kernel_units: int


def build(workload: str, seed: int, seconds: float) -> Plan:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    # the epsilon keeps a product that rounding lifts just above a whole
    # number (10 * 0.7 = 7.000000000000001) at that number
    rounds = max(1, math.ceil(seconds * ROUNDS_PER_SECOND[workload] - 1e-9))
    rng = random.Random(f"{workload}:{seed}")
    ops = _BUILDERS[workload](rng, rounds)
    return Plan(workload, rounds, tuple(ops), KERNEL_UNITS[workload])


def _cells(rng: random.Random, n: int) -> list[float]:
    """n points in [0, 1), the j-th in the j-th of n equal cells."""
    return [(j + rng.random()) / n for j in range(n)]


def _pick(lo: int, hi: int, u: float) -> int:
    return lo + min(hi - lo, int(u * (hi - lo + 1)))


def _rounds(rounds, make_round):
    """Round j draws from cell j of every stratum, in a fixed order of cells,
    so that what earlier ops leave in the library's caches is alike for
    every seed."""
    return [op for j in range(rounds) for op in make_round(j)]


# -- hierarchy: dual pairs C = RM_q(d, m), C^perp = RM_q(m(q-1)-d-1, m) ----

# one (q, m) per q; k + k_perp = q^m, so a pair costs about the same
# whichever d the seed picks
HIERARCHY_CODES = ((2, 10), (3, 6), (4, 5), (5, 4), (7, 3), (8, 3), (9, 3))


def _hierarchy_ops(rng, rounds):
    cells = {q: _cells(rng, rounds) for q, _ in HIERARCHY_CODES}

    def make_round(j):
        ops = []
        for q, m in HIERARCHY_CODES:
            n = m * (q - 1)
            lo = n // 3
            d = _pick(lo, n - 1 - lo, cells[q][j])
            ops += [{"q": q, "d": d, "m": m}, {"q": q, "d": n - 1 - d, "m": m}]
        return ops

    return _rounds(rounds, make_round)


# -- ghw-bigint: one ghw query on a fresh large code -----------------------

# d well above q for every q, and below q for three q; m * d stays under
# MD_MAX so that the reference DP that checks a query stays cheap
GHW_STRATA = tuple((q, "high") for q in Q_VALUES) + ((5, "low"), (8, "low"), (9, "low"))
GHW_D_HIGH = (16, 40)
MD_MAX = 24000
LOG10_K_RANGE = (10.0, 70.0)
_GOLDEN = (5**0.5 - 1) / 2


def _smallest_m(q, d, log10_k, m_lo, m_hi):
    """Smallest m in [m_lo, m_hi] with k(q, d, m) >= 10^log10_k (m_hi if none)."""
    target = math.ceil(10**log10_k)
    while m_lo < m_hi:
        mid = (m_lo + m_hi) // 2
        if closed_dimension(q, d, mid) >= target:
            m_hi = mid
        else:
            m_lo = mid + 1
    return m_lo


def _ghw_ops(rng, rounds):
    # cell j of a stratum pairs the j-th d cell with a t cell from a fixed
    # golden-ratio lattice, so every seed covers the (d, log10 k) plane the
    # same way and only jitters inside the cells
    cells = {s: (_cells(rng, rounds), [rng.random() for _ in range(rounds)]) for s in GHW_STRATA}
    seen = set()

    def make_round(j):
        ops = []
        for q, side in GHW_STRATA:
            ud = cells[(q, side)][0][j]
            ut = (j * _GOLDEN + cells[(q, side)][1][j] / rounds) % 1.0
            d = _pick(*GHW_D_HIGH, ud) if side == "high" else _pick(3, q - 1, ud)
            m_lo = -(-(d + 2) // (q - 1))
            m_hi = max(m_lo, MD_MAX // d)
            t_lo, t_hi = LOG10_K_RANGE
            t_hi = min(t_hi, math.log10(closed_dimension(q, d, m_hi)))
            m = _smallest_m(q, d, t_lo + ut * max(0.0, t_hi - t_lo), m_lo, m_hi)
            while (q, d, m) in seen:  # every query is a code not seen before
                m += 1
            seen.add((q, d, m))
            k = closed_dimension(q, d, m)
            ops.append({"q": q, "d": d, "m": m, "r": rng.randrange(k) + 1})
        return ops

    return _rounds(rounds, make_round)


# -- verify-oracle: in-process `rmweights verify` on small codes -----------

# Each stratum is a list of candidate inputs sorted by their cost; round j
# takes the candidate in the j-th quantile cell, so a seed changes which
# inputs run but hardly the cost of the whole run.
LEX_SIZES = ((27, 100), (101, 256), (257, 400))  # ranges of q^m
DIMS_SIZES = ((500, 3000), (3001, 12000), (12001, 40000))
EXHAUSTIVE_SUBSPACES = ((2, 40), (41, 200), (201, 800))  # ranges of [k choose r]_q


def _codes_with_length(lo, hi, dmin=lambda n: 1, dmax=lambda n: n):
    """(q, d, m) with lo <= q^m <= hi, sorted by the number of tuples q^m * k."""
    codes = []
    for q in Q_VALUES:
        for m in range(1, 20):
            if lo <= q**m <= hi:
                n = m * (q - 1)
                codes += [(q, d, m) for d in range(max(1, dmin(n)), max(1, dmax(n)) + 1)]
    return sorted(codes, key=lambda c: (c[0] ** c[2] * dimension(*c), c))


def _exhaustive_candidates():
    out = {b: [] for b in EXHAUSTIVE_SUBSPACES}
    for q in Q_VALUES:
        for m in range(1, 7):
            if q**m > 81:
                break
            for d in range(1, m * (q - 1) + 1):
                k = dimension(q, d, m)
                if k > 12:
                    break
                for r in range(1, k + 1):
                    g = gaussian_binomial(k, r, q)
                    for lo, hi in EXHAUSTIVE_SUBSPACES:
                        if lo <= g <= hi:
                            out[(lo, hi)].append((g * r, q, d, m, r))
    return {b: sorted(c) for b, c in out.items()}


def _verify_ops(rng, rounds):
    lex = [_codes_with_length(lo, hi) for lo, hi in LEX_SIZES]
    dims = [_codes_with_length(lo, hi, lambda n: n // 4, lambda n: 3 * n // 4) for lo, hi in DIMS_SIZES]
    exhaustive = list(_exhaustive_candidates().values())
    strata = lex + exhaustive + dims
    cells = [_cells(rng, rounds) for _ in strata]

    def make_round(j):
        ops = []
        for i, candidates in enumerate(strata):
            pick = candidates[int(cells[i][j] * len(candidates))]
            fmt = FORMATS[(i + j) % 3]
            if i < 3:
                ops.append(_verify_op("lex", *pick, fmt))
            elif i < 6:
                _, q, d, m, r = pick
                ops.append(_verify_op("exhaustive", q, d, m, fmt, r))
            else:
                ops.append(_verify_op("dims", *pick, fmt))
        return ops

    return _rounds(rounds, make_round)


def _verify_op(oracle, q, d, m, fmt, r=None):
    argv = ["verify", "--q", str(q), "--d", str(d), "--m", str(m), "--oracle", oracle]
    if r is not None:
        argv += ["--r", str(r)]
    argv += ["--format", fmt]
    return {"cmd": "verify", "oracle": oracle, "q": q, "d": d, "m": m, "r": r,
            "format": fmt, "argv": argv}


_BUILDERS = {
    "hierarchy": _hierarchy_ops,
    "ghw-bigint": _ghw_ops,
    "verify-oracle": _verify_ops,
}
