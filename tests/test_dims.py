import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmweights.dims import (
    CodeParams,
    _rho_upto,
    binomial,
    is_prime_power,
    rho,
    rho_binomial,
    rho_recursive,
)
from rmweights.oracle import count_reduced_monomials

QS = (2, 3, 4, 5)


def test_binomial_examples():
    assert binomial(6, 3) == 20
    assert binomial(2, 3) == 0
    assert binomial(5, 3) == 10


def test_binomial_conventions():
    assert binomial(-1, 0) == 0  # a < b subsumes negative tops
    assert binomial(-3, 2) == 0
    assert binomial(5, -1) == 0
    assert binomial(0, 0) == 1


@given(st.integers(0, 200), st.integers(0, 200))
def test_binomial_matches_math_comb(a, b):
    expected = math.comb(a, b) if b <= a else 0
    assert binomial(a, b) == expected


def test_is_prime_power():
    assert all(is_prime_power(q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 121))
    assert not any(is_prime_power(q) for q in (-2, 0, 1, 6, 10, 12, 15, 36, 100))


def test_is_prime_power_rejects_huge():
    with pytest.raises(ValueError):
        is_prime_power(2**33)


def test_rho_examples():
    assert rho(2, 3, 5) == 26
    assert rho(4, 3, 3) == 20
    assert rho(2, 1, -1) == 0
    assert rho(3, 0, 4) == 1
    assert rho(2, 5, 5) == 32


def test_rho_boundary_conventions():
    assert rho(2, -1, 3) == 0
    assert rho(2, -5, 0) == 0
    assert rho(5, 0, -1) == 0
    assert rho(3, 7, 0) == 1
    # beyond the reduced-degree bound the code is the whole space
    assert rho(3, 100, 2) == 9


def test_rho_rejects_bad_arguments():
    for q in (0, 1, 6, 12):
        with pytest.raises(ValueError, match="prime power"):
            rho(q, 1, 1)
    with pytest.raises(ValueError):
        rho(2, 1, -2)


def test_rho_checks_its_arguments_on_every_call():
    assert not hasattr(rho, "cache_info")
    # (bad arguments, their error message, an int twin and its value); the
    # last three floats take an early return, where no arithmetic would
    # reject them
    cases = [
        ((2.0, 3, 5), "prime power", (2, 3, 5), 26),
        ((6, 1, 1), "prime power", (7, 1, 1), 2),
        ((2, 1, -2), "m must be", (2, 1, -1), 0),
        ((2, 3.0, 5), "integers", (2, 3, 5), 26),
        ((2, 3, 5.0), "integers", (2, 3, 5), 26),
        ((2, 100.0, 3), "integers", (2, 100, 3), 8),
        ((3, 2.5, 1), "integers", (3, 2, 1), 3),
        ((2, 3, 0.0), "integers", (2, 3, 0), 1),
    ]
    for _ in range(2):
        for bad, message, twin, value in cases:
            assert rho(*twin) == value
            with pytest.raises((TypeError, ValueError), match=message):
                rho(*bad)


SWEEP_QS = (2, 3, 4, 5, 7, 8, 9, 16)


def _sweep_args():
    for q in SWEEP_QS:
        for m in range(-1, 13):
            for d in range(-2, max(m, 0) * (q - 1) + 3):
                yield q, d, m


def test_rho_upto_is_rho_up_to_the_bound():
    for q, d, m in _sweep_args():
        value = rho(q, d, m)
        for bound in (value - 1, value, value + 1, 0, -1):
            expected = value if value <= bound else None
            assert _rho_upto(q, d, m, bound) == expected, (q, d, m, bound)


def _hockey_stick(q, d, m):
    """rho by its inclusion-exclusion sum, for d >= 0 and m >= 0 (0 for d < 0 or m = -1)."""
    return sum((-1) ** j * math.comb(m, j) * math.comb(m + d - q * j, m)
               for j in range(min(m, d // q) + 1))


def test_binary_rho_upto_is_the_partial_binomial_sum_up_to_the_bound():
    # q = 2 sums C(m, d), ..., C(m, 0) and gives up at the first partial
    # sum past the bound; every exit must give the value or None
    rng = random.Random(2)
    for m in range(-1, 61):
        for d in range(-2, m + 3):
            value = rho_recursive(2, d, m)
            assert value == _hockey_stick(2, d, m), (d, m)
            for bound in (0, value - 1, value, value + 1, rng.randrange(value + 2), math.inf):
                expected = value if value <= bound else None
                assert _rho_upto(2, d, m, bound) == expected, (d, m, bound)


def _assert_rho_identities_at(q, d, m):
    value = rho(q, d, m)
    # RM duality: the dual of RM_q(d, m) is RM_q(m(q-1) - d - 1, m)
    assert value + rho(q, m * (q - 1) - d - 1, m) == q**m
    # the window recurrence over the top digit; at q = 2 it is Pascal's rule
    assert value == sum(rho(q, d - v, m - 1) for v in range(q))
    assert (_rho_upto(q, d, m, value), _rho_upto(q, d, m, value - 1)) == (value, None)


@pytest.mark.parametrize("d", [0, 1, 2, 666, 700, 999, 1000, 1001, 1997, 1998, 1999])
def test_binary_rho_keeps_duality_and_pascals_rule_at_scale(d):
    _assert_rho_identities_at(2, d, 2000)


@pytest.mark.parametrize("q, m", [(3, 200), (4, 200), (5, 180), (7, 150), (8, 150), (9, 150), (16, 150)])
def test_rho_keeps_duality_and_the_window_recurrence_at_scale(q, m):
    top = m * (q - 1)
    for d in (0, 1, q - 1, q, top // 3, top // 2, top - q, top - 1):
        _assert_rho_identities_at(q, d, m)


def test_partial_sums_of_rho_alternate_around_it():
    # the Bonferroni inequalities that let `_rho_upto` give up early at q > 2
    for q, d, m in _sweep_args():
        if d < 0 or m < 1 or d > m * (q - 1):
            continue  # an early return, no sum
        value, partial = rho(q, d, m), 0
        for j in range(min(m, d // q) + 1):
            partial += (-1) ** j * math.comb(m, j) * math.comb(m + d - q * j, m)
            assert partial >= value if j % 2 == 0 else partial <= value, (q, d, m, j)
        assert partial == value


def test_rho_binomial_examples():
    assert rho_binomial(4, 3, 3) == 20
    assert rho_binomial(7, 0, 4) == 1
    assert rho_binomial(5, 2, 3) == 10
    assert rho_binomial(5, 2, 3) == rho(5, 2, 3)


def test_rho_binomial_domain():
    with pytest.raises(ValueError):
        rho_binomial(2, 2, 3)  # d > q-1, caller must use rho
    with pytest.raises(ValueError):
        rho_binomial(2, -1, 3)


def test_rho_recursive_examples():
    assert rho_recursive(2, 3, 5) == 26
    assert rho_recursive(2, 3, 4) == 15
    assert rho_recursive(3, 4, 0) == 1
    assert rho_recursive(2, 0, 0) == 1
    # m far beyond the interpreter's recursion limit
    assert rho_recursive(2, 3, 2000) == rho(2, 3, 2000)


def _sweep(m_max):
    for q in QS:
        for m in range(0, m_max + 1):
            for d in range(-1, m * (q - 1) + 3):
                yield q, d, m


def test_triple_agreement_sweep():
    for q, d, m in _sweep(6):
        assert rho(q, d, m) == rho_recursive(q, d, m), (q, d, m)
        if 0 <= d <= q - 1:
            assert rho(q, d, m) == rho_binomial(q, d, m), (q, d, m)


def test_counting_oracle_agreement():
    for q, d, m in _sweep(5):
        if d >= -1:
            assert rho(q, d, m) == count_reduced_monomials(q, d, m), (q, d, m)


def test_telescoping_identity():
    # rho_q(d,m) - 1 splits into column sums plus a low-degree tail,
    # for d = a(q-1) + b with 1 <= b <= q-1 and m >= a
    for q, d, m in _sweep(6):
        if d < 1:
            continue
        a, b = divmod(d - 1, q - 1)
        b += 1
        if m < a:
            continue
        double = sum(
            rho(q, d - j * (q - 1) - l, m - j - 1)
            for j in range(a)
            for l in range(q - 1)
        )
        tail = sum(rho(q, i, m - a - 1) for i in range(1, b + 1))
        assert rho(q, d, m) - 1 == double + tail, (q, d, m)


def test_saturation():
    for q in QS:
        for m in range(0, 7):
            assert rho(q, m * (q - 1), m) == q**m


@pytest.mark.parametrize("q, m", [(2, 4000), (3, 7), (4, 5), (16, 3)])
def test_rho_of_the_full_space_evaluates_no_binomial(monkeypatch, q, m):
    # at d = m(q-1) every tuple counts, so rho is q^m without the sum
    monkeypatch.setattr(math, "comb", lambda *args: pytest.fail("evaluated a binomial"))
    d = m * (q - 1)
    assert rho(q, d, m) == q**m
    assert _rho_upto(q, d, m, q**m) == q**m
    assert _rho_upto(q, d, m, q**m - 1) is None


def test_monotonicity():
    for q in QS:
        for m in range(0, 6):
            top = m * (q - 1) + 2
            values = [rho(q, d, m) for d in range(-1, top + 1)]
            assert values == sorted(values)
        for d in range(0, 9):
            values = [rho(q, d, m) for m in range(-1, 7)]
            assert values == sorted(values)


def test_code_params_validation():
    p = CodeParams(2, 3, 5)
    assert p.length == 32
    assert p.dimension == 26
    with pytest.raises(ValueError, match="prime power"):
        CodeParams(6, 1, 1)
    with pytest.raises(ValueError):
        CodeParams(2, 0, 3)
    with pytest.raises(ValueError):
        CodeParams(2, 4, 3)  # d > m(q-1)
    # CodeParams names its own bound, m >= 1, not the m >= -1 of rho
    for m in (0, -1, -2, -10**6):
        with pytest.raises(ValueError, match="m must be >= 1"):
            CodeParams(2, 1, m)
    with pytest.raises(ValueError, match="m must be >= -1"):
        rho(2, 1, -2)
    # a float d or m would make the length and weights floats
    for args in ((2, 2, 3.0), (2, 2.0, 3), (2, 2.5, 3)):
        with pytest.raises(TypeError):
            CodeParams(*args)


@settings(deadline=None)
@given(st.sampled_from(QS), st.integers(0, 200), st.integers(0, 120))
def test_rho_routes_agree_random(q, d, m):
    assert rho(q, d, m) == rho_recursive(q, d, m)
