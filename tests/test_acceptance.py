"""End-to-end acceptance checks.

Each test prints exactly one ACCEPTANCE line, enforces a runtime budget,
and compares integers exactly.  Budgets are wall-clock seconds measured
around the whole check.
"""

import itertools
import time

from rmweights.dims import CodeParams, rho, rho_binomial, rho_recursive
from rmweights.macaulay import INFINITY, compare, decompose, recompose, validate
from rmweights.oracle import count_reduced_monomials, e_bar_lex_column, min_subspace_support
from rmweights.weights import e_bar, first_weight, ghw, hierarchy


def _run(num: int, label: str, limit: float, body) -> None:
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {label}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= limit:
        print(f"ACCEPTANCE {num} FAIL: {label} (runtime {elapsed:.3f}s, budget {limit}s)")
        raise AssertionError(f"runtime {elapsed:.3f}s exceeded the {limit}s budget")
    print(f"ACCEPTANCE {num} PASS: {label} ({elapsed:.3f}s < {limit}s)")


def _rank_sweep():
    for q in (2, 3, 4, 5):
        for m in range(1, 5):
            for d in range(1, m * (q - 1) + 1):
                yield CodeParams(q, d, m)


def test_criterion_1_reference_values_q4_d3_m3():
    def body():
        p = CodeParams(4, 3, 3)
        assert p.dimension == 20
        assert decompose(12, 3, 4).coeffs == (2, 0, 0)
        assert e_bar(p, 8) == 18
        assert ghw(p, 8) == 46

    _run(1, "q=4 d=3 m=3: rho=20, coeffs (2,0,0), e_bar_8=18, d_8=46", 0.001, body)


def test_criterion_2_reference_values_q2_d3_m5():
    def body():
        p = CodeParams(2, 3, 5)
        assert p.dimension == 26
        assert decompose(16, 3, 2).coeffs == (4, 0, -1)
        assert e_bar(p, 10) == 17
        assert ghw(p, 10) == 15

    _run(2, "q=2 d=3 m=5: rho=26, coeffs (4,0,-1), e_bar_10=17, d_10=15", 0.001, body)


def test_criterion_3_closed_form_matches_lex_oracle():
    def body():
        checked = 0
        for p in _rank_sweep():
            column = e_bar_lex_column(p)
            assert len(column) == p.dimension, (p.q, p.d, p.m)
            for r in range(1, p.dimension + 1):
                assert e_bar(p, r) == column[r - 1], (p.q, p.d, p.m, r)
                checked += 1
        assert checked > 0

    _run(3, "e_bar vs descending-lex oracle, q<=5, m<=4, all d and r", 60.0, body)


def test_criterion_4_closed_form_matches_exhaustive_search():
    codes = (
        CodeParams(2, 1, 2),
        CodeParams(2, 1, 3),
        CodeParams(2, 2, 3),
        CodeParams(3, 1, 2),
        CodeParams(4, 1, 1),
    )

    def body():
        for p in codes:
            for r in range(1, min(p.dimension, 3) + 1):
                assert min_subspace_support(p, r) == ghw(p, r), (p.q, p.d, p.m, r)

    _run(4, "ghw vs exhaustive subspace search on five small codes, r<=3", 300.0, body)


def test_criterion_5_dimension_routes_agree():
    def body():
        for q in (2, 3, 4, 5):
            for m in range(0, 6):
                for d in range(-1, m * (q - 1) + 3):
                    value = rho(q, d, m)
                    assert value == rho_recursive(q, d, m), (q, d, m)
                    assert value == count_reduced_monomials(q, d, m), (q, d, m)
                    if 0 <= d <= q - 1:
                        assert value == rho_binomial(q, d, m), (q, d, m)
                    if d >= 1:
                        a, b = divmod(d - 1, q - 1)
                        b += 1
                        if m >= a:
                            column_sums = sum(
                                rho(q, d - j * (q - 1) - l, m - j - 1)
                                for j in range(a)
                                for l in range(q - 1)
                            )
                            tail = sum(rho(q, i, m - a - 1) for i in range(1, b + 1))
                            assert value - 1 == column_sums + tail, (q, d, m)

    _run(5, "rho by formula, recursion, enumeration; telescoping identity", 30.0, body)


def test_criterion_6_representation_laws():
    def body():
        # round trip and validity of greedy output
        for q in (2, 3, INFINITY):
            for d in range(1, 6):
                bound = 1000 if q is INFINITY else rho(q, d, 6)
                reps = [decompose(n, d, q) for n in range(bound + 1)]
                for n, rep in enumerate(reps):
                    assert recompose(rep) == n, (q, d, n)
                    assert validate(rep.coeffs, d, q), (q, d, n)
                # order preservation over every pair in the sweep
                for i, a in enumerate(reps):
                    for j, b in enumerate(reps):
                        assert compare(a, b) == (i > j) - (i < j), (q, d, i, j)

        # uniqueness: every admissible tuple with small entries maps to a
        # distinct integer, and the greedy recovers exactly that tuple
        for q in (2, 3):
            for d in range(1, 5):
                tuples = [
                    c
                    for c in itertools.product(range(5, -2, -1), repeat=d)
                    if validate(c, d, q)
                ]
                sums = [recompose(c, d=d, qparam=q) for c in tuples]
                assert len(set(sums)) == len(sums), (q, d)
                for c, n in zip(tuples, sums):
                    assert decompose(n, d, q).coeffs == c, (q, d, n)

    _run(6, "round trip, validity, uniqueness, order preservation", 60.0, body)


def test_criterion_7_hierarchy_shape():
    def body():
        for p in _rank_sweep():
            weights = tuple(hierarchy(p))
            assert all(x < y for x, y in zip(weights, weights[1:])), (p.q, p.d, p.m)
            assert weights[-1] == p.length, (p.q, p.d, p.m)
            assert weights[0] == first_weight(p), (p.q, p.d, p.m)
            a, b = divmod(p.d - 1, p.q - 1)
            b += 1
            assert weights[0] == (p.q - b) * p.q ** (p.m - a - 1), (p.q, p.d, p.m)

    _run(7, "hierarchies strictly increase, end at q^m, start at closed form", 60.0, body)
