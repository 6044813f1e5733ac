import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmweights import macaulay
from rmweights.dims import CodeParams, _rho_upto, rho
from rmweights.macaulay import (
    INFINITY,
    MAX_DEGREE,
    MacaulayRep,
    _decompose,
    _estimate,
    _iroot,
    compare,
    decompose,
    dim_term,
    recompose,
    validate,
)
from rmweights.weights import ghw


def test_dim_term():
    assert dim_term(2, 3, 5) == 26
    assert dim_term(INFINITY, 3, 5) == 56  # C(8,3)
    assert dim_term(INFINITY, 2, -1) == 0
    assert dim_term(4, 1, 0) == 1


def test_decompose_examples():
    assert decompose(12, 3, 4).coeffs == (2, 0, 0)
    assert decompose(12, 3, 4).term_values() == (10, 1, 1)
    assert decompose(16, 3, 2).coeffs == (4, 0, -1)
    assert decompose(16, 3, 2).term_values() == (15, 1, 0)
    assert decompose(6, 3, 2).coeffs == (2, 1, -1)
    assert decompose(5, 2, 2).coeffs == (2, 0)
    assert decompose(0, 3, 2).coeffs == (-1, -1, -1)
    assert decompose(25, 3, 2).coeffs == (4, 3, 2)
    with pytest.raises(TypeError):
        decompose(2.5, 1, 2)  # not silently the representation of 2
    with pytest.raises(TypeError, match="integers"):
        decompose(5, 2.0, 2)
    with pytest.raises(ValueError):
        decompose(-1, 1, 2)


def test_decompose_classical():
    # at q = infinity the terms are plain binomials C(m_i + i, i)
    rep = decompose(12, 3, INFINITY)
    assert rep.coeffs == (2, 0, 0)
    assert rep.term_values() == (10, 1, 1)
    assert decompose(16, 3, INFINITY).coeffs == (2, 2, -1)
    assert decompose(16, 3, INFINITY).term_values() == (10, 6, 0)


def test_recompose_round_trip_examples():
    assert recompose(decompose(12, 3, 4)) == 12
    assert recompose((2, 1, -1), d=3, qparam=2) == 6
    assert recompose((2, 0), d=2, qparam=2) == 5


def test_recompose_rejects_invalid():
    with pytest.raises(ValueError):
        recompose((2, 0, 0), d=3, qparam=2)  # spacing fails for q = 2
    with pytest.raises(ValueError):
        recompose((0, 1), d=2, qparam=3)  # increasing in stored order
    with pytest.raises(ValueError):
        recompose((2, 1), d=3, qparam=2)  # length mismatch
    with pytest.raises(ValueError, match="d and qparam are required"):
        recompose((1, 0))  # a raw tuple alone


def test_validate_examples():
    assert validate((2, 1, -1), 3, 2)
    assert validate((2, 0, 0), 3, 4)
    assert not validate((2, 0, 0), 3, 2)
    assert not validate((1, 2, 0), 3, 4)
    assert not validate((2, 1, -2), 3, 4)
    assert validate((-1, -1), 2, 3)
    with pytest.raises(ValueError):
        validate((2, 1), 3, 2)
    for coeffs, d in (((1.5, 0), 2), ((1, 0), 2.0)):  # not a valid-looking True
        with pytest.raises(TypeError, match="integers"):
            validate(coeffs, d, 2)


def test_validate_spacing_window():
    # entries q-1 apart must strictly increase unless both sentinels
    assert not validate((3, 3, 3), 3, 3)
    assert validate((3, 3, 2), 3, 3)
    assert validate((-1, -1, -1), 3, 3)
    assert validate((2, 2), 2, 3)
    assert not validate((2, 2, 2, 2), 4, 3)


def _validate_by_definition(coeffs, d, q):
    """The conditions as written: every entry >= -1, nonincreasing as
    stored, and each window m_i, m_{i+q-1} checked on its own."""
    if min(coeffs, default=-1) < -1:
        return False
    if any(a < b for a, b in zip(coeffs, coeffs[1:])):
        return False
    if q != INFINITY:
        for i in range(1, d - q + 2):
            low, high = coeffs[d - i], coeffs[d - i - q + 1]
            if not (high > low or high == low == -1):
                return False
    return True


def test_validate_matches_its_definition_on_every_small_tuple():
    # entries run from -2, so the lower bound and the ordering, which
    # `validate`'s spacing check relies on, are exercised as well
    for q in (2, 3, 4, 5, 7, INFINITY):
        for d in range(6):
            for c in itertools.product(range(-2, 4), repeat=d):
                expected = _validate_by_definition(c, d, q)
                assert validate(c, d, q) is expected, (c, q)
                assert validate(list(c), d, q) is expected, (c, q)


def test_rep_constructor_checks():
    rep = MacaulayRep(qparam=4, d=3, coeffs=(2, 0, 0))
    assert rep.term_values() == (10, 1, 1)
    assert rep.n == 12
    with pytest.raises(ValueError):
        MacaulayRep(qparam=2, d=3, coeffs=(2, 0, 0))  # spacing fails
    with pytest.raises(ValueError):
        MacaulayRep(qparam=4, d=3, coeffs=(2, 0))  # length mismatch
    with pytest.raises(TypeError, match="integers"):
        MacaulayRep(qparam=INFINITY, d=2, coeffs=(0.5, 0))
    assert validate((), 0, 2)  # the empty tuple is valid, so the degree check must catch it
    with pytest.raises(ValueError, match="d must be >= 1"):
        MacaulayRep(qparam=2, d=0, coeffs=())
    with pytest.raises(ValueError, match="prime power or INFINITY"):
        validate((0,), 1, 6)
    with pytest.raises(ValueError, match="prime power or INFINITY"):
        decompose(5, 2, 6)
    # a list is stored as a tuple, so the representation hashes and orders
    listed = MacaulayRep(qparam=4, d=3, coeffs=[2, 0, 0])
    assert listed == decompose(12, 3, 4)
    assert hash(listed) == hash(decompose(12, 3, 4))
    assert compare(listed, decompose(12, 3, 4)) == 0


def test_binomial_tops():
    rep = decompose(12, 3, INFINITY)
    assert rep.binomial_tops == (5, 2, 1)  # s_i = m_i + i, top down


def _sweep_limits(q, d):
    bound = 1000 if q is INFINITY else rho(q, d, 6)
    return range(0, bound + 1)


def test_round_trip_sweep():
    for q in (2, 3, 4, INFINITY):
        for d in range(1, 6):
            for n in _sweep_limits(q, d):
                rep = decompose(n, d, q)
                assert rep.n == n
                assert recompose(rep) == n, (q, d, n)


def test_greedy_bound():
    # the leading coefficient is the largest m with dim_term(q, d, m) <= n
    for q in (2, 3, 5):
        for d in range(1, 5):
            for n in range(0, rho(q, d, 5) + 1):
                m_top = decompose(n, d, q).coeffs[0]
                assert dim_term(q, d, m_top) <= n
                assert dim_term(q, d, m_top + 1) > n


def _reference_decompose(n, d, q):
    """The greedy with every probe evaluated in full: for each degree
    the largest m with dim_term(q, i, m) <= remainder, bracketed by
    doubling from 0 and bisected."""
    coeffs = []
    for i in range(d, 0, -1):
        lo, hi = -1, 0
        while dim_term(q, i, hi) <= n:
            lo, hi = hi, 2 * hi + 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if dim_term(q, i, mid) <= n else (lo, mid)
        n -= dim_term(q, i, lo)
        coeffs.append(lo)
    return tuple(coeffs)


SWEEP_QS = (2, 3, 4, 5, 7, 8, 9, 16)


def test_decompose_matches_the_full_evaluation_greedy():
    for q in (*SWEEP_QS, INFINITY):
        for d in range(1, 7):
            for n in range(300):
                assert decompose(n, d, q).coeffs == _reference_decompose(n, d, q), (q, d, n)
    rng = random.Random(12)
    for q in (*SWEEP_QS, INFINITY):
        for _ in range(6):
            d, n = rng.randint(16, 40), rng.randint(10**10, 10**70)
            assert decompose(n, d, q).coeffs == _reference_decompose(n, d, q), (q, d, n)


def _greedy_sweep():
    """The (q, d, n) of `test_decompose_matches_the_full_evaluation_greedy`."""
    for q in (*SWEEP_QS, INFINITY):
        for d in range(1, 7):
            for n in range(300):
                yield q, d, n
    rng = random.Random(12)
    for q in (*SWEEP_QS, INFINITY):
        for _ in range(6):
            yield q, rng.randint(16, 40), rng.randint(10**10, 10**70)


def test_decompose_wraps_the_greedy_tuple_and_every_tuple_is_valid():
    # the greedy returns bare tuples, and `decompose` is where they are
    # checked: each one must pass `validate` and come back unchanged
    for q, d, n in _greedy_sweep():
        t = _decompose(n, d, q)
        assert type(t) is tuple and validate(t, d, q), (q, d, n, t)
        assert decompose(n, d, q).coeffs == t, (q, d, n)


def _gallop_edge_tuples(q):
    """Valid tuples (m_d, ..., m_1) whose gaps m_{i+1} - m_i are 0, 1,
    2^j - 1, 2^j and 2^j + 1: levels that far apart, each held for one
    coefficient or for a full run of q - 1 (3 at q = INFINITY)."""
    gaps = [1, *(2**j + e for j in range(1, 7) for e in (-1, 0, 1))]
    for run in {1, 3 if q == INFINITY else q - 1}:
        for m_1 in (-1, 0, 2, 10**5):
            for g in gaps:
                levels = (m_1, m_1 + g, m_1 + g + 1, m_1 + 2 * g + 1)
                yield tuple(c for level in reversed(levels) for c in [level] * run)


@pytest.mark.parametrize("q", [*SWEEP_QS, INFINITY])
def test_decompose_round_trips_the_gallop_edges(q):
    for t in _gallop_edge_tuples(q):
        d = len(t)
        assert validate(t, d, q), t
        assert decompose(recompose(t, d, q), d, q).coeffs == t, (q, t)


def _searched_bounds(t, q):
    """The bound hi that the greedy starts each coefficient of the tuple t
    from, by degree: None for m_d (no `top`), else m_{i+1}, less one after
    a run of q - 1 equal coefficients other than -1."""
    d, run = len(t), None if q == INFINITY else q - 1
    bounds = {d: None}
    for i in range(1, d):
        above = t[max(d - i - run, 0) : d - i] if run else ()
        bounds[i] = t[d - i - 1] - (len(above) == run and len(set(above)) == 1 and above[0] >= 0)
    return bounds


def _gallop_edge_probes(q, t):
    """The probes that `_decompose` makes on the gallop edge tuple t, by
    degree, and the highest m it probes at each degree."""
    probe, probes, highest = macaulay._probe(q), Counter(), {}

    def fit(i, m, bound):
        probes[i] += 1
        highest[i] = max(m, highest.get(i, m))
        return probe(i, m, bound)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(macaulay, "_probe", lambda qparam: fit)
        assert _decompose(recompose(t, len(t), q), len(t), q) == t
    return probes, highest


@pytest.mark.parametrize("q", [*SWEEP_QS, INFINITY])
def test_greedy_probes_grow_with_the_log_of_each_gap(q):
    for t in _gallop_edge_tuples(q):
        d, bounds = len(t), _searched_bounds(t, q)
        probes, highest = _gallop_edge_probes(q, t)
        assert probes[1] == 0, t  # m_1 is the remainder minus one
        for i in range(2, d):  # t[d - i] is m_i, and t[d - i - 1] the one above
            gap = t[d - i - 1] - t[d - i]
            # one probe more (g + 1, then the bound) only for a coefficient at
            # its bound whose search did not start there, as the one above
            # was not at its own (m_d, searched with no bound, never is)
            late = t[d - i] == bounds[i] and t[d - i - 1] != bounds[i + 1]
            assert probes[i] <= 2 * gap.bit_length() + 1 + late, (q, t, i, probes[i])
            assert highest.get(i, -1) <= bounds[i], (q, t, i, highest[i])


def test_the_gallop_edges_take_no_more_probes_than_with_every_bound_first():
    # 24,997 when every search probed its bound first; 24,506 here
    total = sum(
        sum(_gallop_edge_probes(q, t)[0].values())
        for q in (*SWEEP_QS, INFINITY)
        for t in _gallop_edge_tuples(q)
    )
    assert total <= 24_997


def _steering_sweep():
    """`_greedy_sweep`, and big n up to 10^200 with d up to 100."""
    yield from _greedy_sweep()
    rng = random.Random(20)
    for q in (*SWEEP_QS, INFINITY):
        for _ in range(5):
            yield q, rng.randint(2, 100), rng.randint(1, 10 ** rng.randint(10, 200))


# guesses at m_i from its bound hi and its true value c
STEERS = {
    "none": lambda hi, c: None,
    "hi - 1": lambda hi, c: None if hi is None else hi - 1,
    "c + 50": lambda hi, c: c + 50,
    "c - 50": lambda hi, c: c - 50,
}


@pytest.mark.parametrize("steer", STEERS)
def test_the_guess_only_steers_the_search(monkeypatch, steer):
    # each coefficient is settled by exact probes, whatever the guess
    cases = [(q, d, n, _decompose(n, d, q)) for q, d, n in _steering_sweep()]
    case, guesses = {}, []

    def estimate(qparam, i, remainder):
        guesses.append(i)
        return STEERS[steer](case["bounds"][i], case["t"][-i])

    monkeypatch.setattr(macaulay, "_estimate", estimate)
    for q, d, n, t in cases:
        case.update(t=t, bounds=_searched_bounds(t, q))
        assert _decompose(n, d, q) == t, (steer, q, d, n)
    assert len(guesses) > 1000


def _count_searches(monkeypatch):
    """Counters of the `_rho_upto` probes and the coefficient searches."""
    counts = Counter()
    search = macaulay._greedy_coefficient

    def probe(*args):
        counts["probes"] += 1
        return _rho_upto(*args)

    def greedy(*args):
        counts["searches"] += 1
        return search(*args)

    monkeypatch.setattr(macaulay, "_rho_upto", probe)
    monkeypatch.setattr(macaulay, "_greedy_coefficient", greedy)
    return counts


# the probes of each query below, guess on, when every search probed its bound first
BOUND_FIRST_PROBES = {(2, 500, 1000): 556, (3, 300, 400): 673, (2, 100, 2000): 283, (16, 200, 60): 263}


@pytest.mark.parametrize("q, d, m, r, probes_without", [
    (2, 500, 1000, 10**50, 703),
    (3, 300, 400, None, 673),  # r = k // 3
    (2, 100, 2000, None, 805),
    (16, 200, 60, None, 263),
])
def test_the_guess_never_adds_probes_to_a_big_rank_query(monkeypatch, q, d, m, r, probes_without):
    p = CodeParams(q, d, m)
    r = r or p.dimension // 3
    counts = _count_searches(monkeypatch)
    weight = ghw(p, r)
    probes_with = counts["probes"]
    monkeypatch.setattr(macaulay, "_estimate", lambda *args: None)
    counts.clear()
    assert ghw(p, r) == weight
    assert counts["probes"] == probes_without  # the gallop down from each bound alone
    assert probes_with <= BOUND_FIRST_PROBES[q, d, m] <= probes_without, (p, probes_with)


def _bigint_queries():
    """ghw queries like the benchmark's: 16 <= d <= 40 and k from 10^10
    to 10^70 for each q, and 3 <= d <= q - 1 with m * d <= 24000."""
    rng = random.Random(21)
    for q in (2, 3, 4, 5, 7, 8, 9):
        for _ in range(4):
            p = _code_of_dimension(q, rng.randint(16, 40), 10 ** rng.randint(10, 70))
            yield p, rng.randint(1, p.dimension)
    for q in (5, 8, 9):
        for _ in range(4):
            d = rng.randint(3, q - 1)
            p = CodeParams(q, d, rng.randint(100, 24000 // d))
            yield p, rng.randint(1, p.dimension)


def test_searched_coefficients_take_at_most_3_probes_on_average(monkeypatch):
    # the gallop down from each bound alone took 6.8 on these queries, and
    # every bound probed first 2.71; 1,635 probes for 764 searches is 2.14
    counts = _count_searches(monkeypatch)
    for p, r in _bigint_queries():
        ghw(p, r)
    assert counts["probes"] <= 2.15 * counts["searches"], counts


def test_the_estimate_survives_every_float_edge():
    # a remainder whose root overflows a float, a degree where lgamma
    # takes big arguments, and a remainder of 1: no OverflowError and
    # no math-domain ValueError, only no guess where none fits
    reps = {q: decompose(10**5000, 3, q) for q in (2, INFINITY)}
    assert [rep.coeffs[0].bit_length() for rep in reps.values()] == [5538, 5538]
    assert decompose(10**5000, 3, 2, top=reps[2].coeffs[0] + 1) == reps[2]
    assert decompose(10**100, 10**5, 2).coeffs[:3] == (332, 329, 326)
    assert decompose(1, 10**5, 3).coeffs[:2] == (0, -1)
    for q in (2, 3, INFINITY):
        for i in (2, 3, 100, MAX_DEGREE, 10**11):
            for remainder in (1, 2, 10**300, 10**5000):
                guess = _estimate(q, i, remainder)
                assert guess is None or (type(guess) is int and guess > 2 * i), (q, i, remainder)


@pytest.mark.parametrize("base, power, d, q, probes", [
    (10, 5000, 3, 2, 5),  # the gallop with no guess made 22,149
    (10, 2000, 2, 3, 2),  # 6,645
    (7, 9000, 4, 5, 7),  # 37,887; 8 with every bound probed first
    # 74,824 from a float guess, whose roots near 2^1000 lose low bits;
    # 116 with every bound probed first
    (2, 40000, 40, 2, 90),
])
def test_an_integer_root_guesses_past_the_float_range(monkeypatch, base, power, d, q, probes):
    n = base**power
    counts = _count_searches(monkeypatch)
    assert decompose(n, d, q).n == n
    assert counts["probes"] == probes


def test_iroot_is_the_exact_floor_root():
    rng = random.Random(29)
    for k in (1, 2, 3, 4, 7, 40):
        for root in (1, 2, 3, 10**6, 2**64, *(rng.randint(2, 10**rng.randint(1, 300)) for _ in range(10))):
            for n in (root**k - 1, root**k, root**k + 1, (root + 1) ** k - 1):
                if not n:
                    continue
                # a hint far below the root, near it, at it and far above it
                for hint in (1, root - 1 or 1, root, root + 1, root << 64):
                    r = _iroot(n, k, hint)
                    assert r**k <= n < (r + 1) ** k, (n, k, hint)


def test_decompose_caps_d_before_the_greedy():
    # uncapped, the first padded and validated 10^11 coefficients
    with pytest.raises(ValueError, match=f"d = 100000000000 exceeds the degree cap {MAX_DEGREE}"):
        decompose(5, 10**11, 2)
    with pytest.raises(ValueError, match="d = a 16610-bit integer exceeds the degree cap"):
        decompose(5, 10**5000, 2)


@pytest.mark.parametrize("q", [4, 5, INFINITY])
def test_greedy_raises_when_its_top_bound_is_too_low(q):
    # 10^6 needs m_3 far above 3; the capped terms leave most of it
    with pytest.raises(AssertionError, match="leave"):
        _decompose(10**6, 3, q, 3)
    with pytest.raises(AssertionError, match="leave"):
        decompose(10**6, 3, q, top=3)
    # n past the int -> str digit limit is named by its size
    with pytest.raises(AssertionError, match="leave a 16610-bit integer of n = a 16610-bit"):
        decompose(10**5000, 3, q, top=3)


@pytest.mark.parametrize("q", [2, 3, 4, INFINITY])
def test_decompose_with_a_top_at_or_above_m_d_is_unchanged(q):
    for d in range(1, 6):
        for n in range(200):
            rep = decompose(n, d, q)
            for top in (rep.coeffs[0], rep.coeffs[0] + 1, rep.coeffs[0] + 9):
                assert decompose(n, d, q, top=top) == rep, (q, d, n, top)
            if rep.coeffs[0] >= 0:
                with pytest.raises(AssertionError, match="leave"):
                    decompose(n, d, q, top=rep.coeffs[0] - 1)
    with pytest.raises(ValueError, match="top must be >= -1"):
        decompose(5, 2, q, top=-2)
    for top in (1.0, "3"):
        with pytest.raises(TypeError, match="integers"):
            decompose(5, 2, q, top=top)


def _code_of_dimension(q, d, target):
    """The smallest m with rho_q(d, m) >= target, for 1 <= d."""
    lo, hi = -(-d // (q - 1)), 2 * -(-d // (q - 1))
    while rho(q, d, hi) < target:
        lo, hi = hi, 2 * hi
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if rho(q, d, mid) >= target else (mid + 1, hi)
    return CodeParams(q, d, lo)


def _reference_ghw(p, r):
    coeffs = _reference_decompose(p.dimension - r, p.d, p.q)
    return p.length - sum(p.q**c for c in coeffs if c >= 0)


def test_ghw_matches_the_full_evaluation_greedy():
    for q in SWEEP_QS:
        m = 1
        while q**m <= 256:
            for d in range(1, m * (q - 1) + 1):
                p = CodeParams(q, d, m)
                for r in range(1, p.dimension + 1):
                    assert ghw(p, r) == _reference_ghw(p, r), (p, r)
            m += 1
    rng = random.Random(13)
    for q in SWEEP_QS:
        for _ in range(4):
            p = _code_of_dimension(q, rng.randint(16, 40), 10 ** rng.randint(10, 70))
            for r in (1, rng.randint(1, p.dimension), p.dimension):
                assert ghw(p, r) == _reference_ghw(p, r), (p, r)


def _valid_tuples(d, q, lo=-1, hi=5):
    for c in itertools.product(range(hi, lo - 1, -1), repeat=d):
        if validate(c, d, q):
            yield c


@pytest.mark.parametrize("q", [2, 3, INFINITY])
def test_uniqueness_exhaustive(q):
    for d in range(1, 5):
        tuples = list(_valid_tuples(d, q))
        sums = [recompose(c, d=d, qparam=q) for c in tuples]
        assert len(set(sums)) == len(sums), (q, d)
        for c, n in zip(tuples, sums):
            assert decompose(n, d, q).coeffs == c


def test_order_preservation():
    for q in (2, 3):
        for d in (2, 3):
            reps = [decompose(n, d, q) for n in range(0, rho(q, d, 5) + 1)]
            for i, a in enumerate(reps):
                for j, b in enumerate(reps):
                    expected = (i > j) - (i < j)
                    assert compare(a, b) == expected, (q, d, i, j)


def test_compare_rejects_mismatch():
    a = decompose(5, 2, 2)
    with pytest.raises(ValueError):
        compare(a, decompose(5, 3, 2))
    with pytest.raises(ValueError):
        compare(a, decompose(5, 2, 3))


def test_classical_limit_matches_small_degree():
    # for d <= q-1 every per-degree dimension is a plain binomial,
    # so the finite-q and classical decompositions coincide
    for q in (4, 5, 7):
        for d in range(1, min(4, q)):
            for n in range(0, 200):
                assert decompose(n, d, q).coeffs == decompose(n, d, INFINITY).coeffs


@settings(deadline=None, max_examples=300)
@given(
    st.sampled_from([2, 3, 4, 5, 7, INFINITY]),
    st.integers(1, 6),
    st.integers(0, 10**9),
)
def test_round_trip_random(q, d, n):
    rep = decompose(n, d, q)
    assert recompose(rep) == n
    assert validate(rep.coeffs, d, q)


@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 5),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)
def test_order_preservation_random(q, d, n1, n2):
    a = decompose(n1, d, q)
    b = decompose(n2, d, q)
    assert compare(a, b) == (n1 > n2) - (n1 < n2)
