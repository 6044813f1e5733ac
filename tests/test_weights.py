import random
import sys
import tracemalloc
from bisect import bisect_right

import pytest

from rmweights import weights
from rmweights.dims import CodeParams, _rho_upto, dimension_rows, is_prime_power, rho
from rmweights.macaulay import (
    INFINITY,
    MacaulayRep,
    _decompose,
    _greedy_coefficient,
    _probe,
    decompose,
    validate,
)
from rmweights.oracle import e_bar_lex_column, enumerate_tuples, min_subspace_support
from rmweights.weights import (
    MAX_WEIGHTS,
    WeightHierarchy,
    _rank_rep,
    _rank_tuples,
    _scan,
    _walk,
    coeffs_to_mu,
    e_bar,
    e_bars,
    first_weight,
    ghw,
    hierarchy,
    mu_tuple,
)


def _sweep():
    for q in (2, 3):
        for m in range(1, 4):
            for d in range(1, m * (q - 1) + 1):
                yield CodeParams(q, d, m)
    yield CodeParams(4, 2, 2)


def test_e_bar_examples():
    p = CodeParams(4, 3, 3)
    assert p.dimension == 20
    assert e_bar(p, 8) == 18
    assert ghw(p, 8) == 46

    p = CodeParams(2, 3, 5)
    assert p.dimension == 26
    assert e_bar(p, 10) == 17
    assert ghw(p, 10) == 15
    assert e_bar(p, 1) == 28
    assert ghw(p, 26) == 32  # top weight is the block length


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_the_power_sum_matches_the_plain_sum(q):
    # nonincreasing tuples as the greedy returns them: runs of up to q - 1
    # equal values, steps down of 1, 2 or up to 500, then trailing -1s
    rng = random.Random(q)
    for _ in range(300):
        t, c = [], rng.randint(0, 3000)
        while c >= 0 and len(t) < 60:
            t += [c] * rng.randint(1, q - 1)
            c -= rng.choice((1, 1, 2, rng.randint(1, 500)))
        t = tuple(t) + (-1,) * rng.randint(0, 5)
        assert weights._power_sum(q, t) == sum(q**c for c in t if c >= 0), (q, t)
    assert weights._power_sum(q, (-1,) * 7) == weights._power_sum(q, ()) == 0
    # r = k leaves n = 0, whose tuple is all -1: e_bar = 0 and d_k = q^m
    p = CodeParams(q, 1, 3)
    assert weights._rank_rep(p, p.dimension).coeffs == (-1,)
    assert (e_bar(p, p.dimension), ghw(p, p.dimension)) == (0, q**3)


def test_r_out_of_range():
    p = CodeParams(2, 3, 5)
    for r in (0, 27, -3):
        with pytest.raises(ValueError, match=r"r must be in \[1, 26\]"):
            e_bar(p, r)
    with pytest.raises(ValueError):
        mu_tuple(p, 0)
    for r in (2.5, 3.0):  # a float rank is rejected, not rounded to a neighbour
        with pytest.raises(TypeError):
            ghw(CodeParams(4, 3, 3), r)


GREEDY_CODES = [CodeParams(2, 3, 5), CodeParams(5, 2, 4), CodeParams(2, 40, 600), CodeParams(9, 30, 25)]


def _greedy_ranks(p):
    return (1, 2, p.dimension // 3, p.dimension - 1, p.dimension)


def test_ghw_calls_rho_once(monkeypatch):
    # k is the only exact rho; every summand comes from the probes.  k is
    # kept on the instance once read, so each rank gets a fresh CodeParams,
    # and a second query on the same one evaluates no rho at all
    calls = []
    for name in ("rmweights.dims.rho", "rmweights.macaulay.rho"):
        monkeypatch.setattr(name, lambda *args: calls.append(args) or rho(*args))
    for p in GREEDY_CODES:
        for r in _greedy_ranks(p):
            fresh = CodeParams(p.q, p.d, p.m)
            calls.clear()
            ghw(fresh, r)
            assert calls == [(p.q, p.d, p.m)], (p, r)
            ghw(fresh, r)
            assert len(calls) == 1, (p, r)


def test_decompose_probes_each_summand_once(monkeypatch):
    # the greedy keeps the value of its last probe that fit, so no
    # (degree, coefficient) pair is evaluated twice in one call; and the
    # greedy makes that probe once per call
    probes, made = [], []
    monkeypatch.setattr(
        "rmweights.macaulay._rho_upto",
        lambda q, i, m, bound: probes.append((i, m)) or _rho_upto(q, i, m, bound),
    )
    monkeypatch.setattr("rmweights.macaulay._probe", lambda q: made.append(q) or _probe(q))
    for p in GREEDY_CODES:
        for r in _greedy_ranks(p):
            probes.clear()
            made.clear()
            ghw(p, r)
            assert len(set(probes)) == len(probes), (p, r)
            assert made == [p.q], (p, r)
            if r < p.dimension:
                assert probes, (p, r)


def test_hierarchy_examples():
    assert tuple(hierarchy(CodeParams(2, 1, 3))) == (4, 6, 7, 8)
    assert tuple(hierarchy(CodeParams(2, 2, 3))) == (2, 3, 4, 5, 6, 7, 8)


def test_hierarchy_object():
    p = CodeParams(3, 2, 2)
    h = hierarchy(p)
    assert len(h) == p.dimension == 6
    assert h[1] == first_weight(p)
    assert h[len(h)] == p.length == 9
    assert list(h) == sorted(set(h))
    with pytest.raises(IndexError):
        h[0]
    with pytest.raises(IndexError):
        h[len(h) + 1]


def test_weight_hierarchy_validation():
    p = CodeParams(2, 1, 2)  # k = 3, length 4
    WeightHierarchy(p, (2, 3, 4))
    with pytest.raises(ValueError):
        WeightHierarchy(p, (2, 3))
    with pytest.raises(ValueError):
        WeightHierarchy(p, (3, 3, 4))
    with pytest.raises(ValueError):
        WeightHierarchy(p, (2, 3, 5))


def test_mu_examples():
    assert mu_tuple(CodeParams(4, 3, 3), 8) == (1, 0, 2)
    assert mu_tuple(CodeParams(2, 3, 5), 10) == (1, 0, 0, 0, 1)
    # rank k decomposes zero, so every digit vanishes
    assert mu_tuple(CodeParams(2, 3, 5), 26) == (0, 0, 0, 0, 0)


def test_coeffs_to_mu_errors():
    with pytest.raises(ValueError):
        coeffs_to_mu(decompose(12, 3, INFINITY), 5)
    rep = decompose(25, 3, 2)  # leading coefficient 4
    with pytest.raises(ValueError):
        coeffs_to_mu(rep, 4)
    assert coeffs_to_mu(rep, 5) == (1, 1, 1, 0, 0)


def test_mu_ranks_enumerate_tuples_in_descending_order():
    # rank r maps to the r-th largest exponent tuple with digit sum <= d
    for p in _sweep():
        tuples = list(enumerate_tuples(p.q, p.d, p.m))
        ranked = [mu_tuple(p, r) for r in range(1, p.dimension + 1)]
        assert ranked == tuples, (p.q, p.d, p.m)


def test_mu_digit_bounds():
    for p in _sweep():
        for r in range(1, p.dimension + 1):
            mu = coeffs_to_mu(decompose(p.dimension - r, p.d, p.q), p.m)
            assert all(0 <= digit <= p.q - 1 for digit in mu)
            assert sum(mu) <= p.d


def test_coefficient_sum_equals_digit_valuation():
    for p in _sweep():
        for r in range(1, p.dimension + 1):
            mu = mu_tuple(p, r)
            valuation = sum(
                digit * p.q ** (p.m - j) for j, digit in enumerate(mu, start=1)
            )
            assert e_bar(p, r) == valuation, (p.q, p.d, p.m, r)


def test_rank_one_tuple():
    for p in _sweep():
        a, b = divmod(p.d - 1, p.q - 1)
        b += 1
        expected = (p.q - 1,) * a + (b,) + (0,) * (p.m - a - 1)
        assert mu_tuple(p, 1) == expected


def test_first_weight_closed_form():
    for q in (2, 3, 4, 5):
        for m in range(1, 5):
            for d in range(1, m * (q - 1) + 1):
                p = CodeParams(q, d, m)
                assert first_weight(p) == ghw(p, 1), (q, d, m)


def test_matches_lex_oracle():
    for p in _sweep():
        column = e_bar_lex_column(p)
        assert len(column) == p.dimension, (p.q, p.d, p.m)
        for r in range(1, p.dimension + 1):
            assert e_bar(p, r) == column[r - 1], (p.q, p.d, p.m, r)


def test_weights_strictly_increase():
    for p in (CodeParams(2, 3, 5), CodeParams(3, 3, 3), CodeParams(4, 3, 3)):
        values = list(hierarchy(p))
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] == p.length
        assert rho(p.q, p.d, p.m) == len(values)


def test_wei_duality():
    # Wei duality with RM_q(d, m)-dual = RM_q(m(q-1)-d-1, m): the weights
    # d_r(C) and q^m + 1 - d_r(C-dual) partition 1..q^m; no oracle needed.
    # The statement is symmetric in C and its dual, so each pair runs once.
    pairs = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        m = 1
        while q**m <= 65536:
            n, top = q**m, m * (q - 1)
            for d in range(1, (top + 1) // 2):  # d <= top - d - 1
                weights = hierarchy(CodeParams(q, d, m))
                dual = hierarchy(CodeParams(q, top - d - 1, m))
                assert sorted([*weights, *(n + 1 - w for w in dual)]) == list(range(1, n + 1))
                pairs += 1
            m += 1
    assert pairs == 329  # every code with 1 <= d <= m(q-1)-2, on one side


def _table_reps(p: CodeParams, ranks):
    """Representations of rho_q(d, m) - r read off the window-sum table
    `dimension_rows`, a route that shares no code with `decompose`.

    Column i of the table is strictly increasing, so each coefficient is
    found by bisecting it inside [-1, m_{i+1}], starting from m_d <= m-1.
    """
    columns = list(zip(*dimension_rows(p.q, p.d, p.m)))
    for r in ranks:
        remainder, top, coeffs = columns[p.d][p.m] - r, p.m, []
        for column in columns[p.d : 0 : -1]:
            top = bisect_right(column, remainder, 0, top)  # entries <= remainder
            remainder -= column[top - 1] if top else 0
            coeffs.append(top - 1)
        yield MacaulayRep(p.q, p.d, tuple(coeffs))


@pytest.mark.parametrize(
    "q, d, m, ranks",
    [
        (256, 500, 50, [12345]),
        (3, 120, 150, [10**20 + 7, 10**30 + 1]),
        (2, 200, 400, [10**20 + 3, 10**30 + 9]),
        (2, 500, 1000, [10**50]),
    ],
)
def test_table_greedy_matches_ghw_at_big_ranks(q, d, m, ranks):
    p = CodeParams(q, d, m)
    ranks = (1, *ranks, p.dimension)
    for r, rep in zip(ranks, _table_reps(p, ranks)):
        # `_rank_rep` is the closed-form representation that ghw reads
        assert rep == _rank_rep(p, r), r


def test_hierarchy_matches_the_table_greedy():
    codes = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        m = 1
        while q**m <= 256:
            for d in range(1, m * (q - 1) + 1):
                p = CodeParams(q, d, m)
                reps = _table_reps(p, range(1, p.dimension + 1))
                expected = [p.length - sum(q**c for c in rep.coeffs if c >= 0) for rep in reps]
                assert list(hierarchy(p)) == expected, p
                codes += 1
            m += 1
    assert codes == 183


def test_big_hierarchy_matches_ghw_and_the_table_greedy():
    # k = 616,666, far past the brute-force oracles
    p = CodeParams(2, 10, 20)
    h = hierarchy(p)
    ranks = [1, p.dimension, *random.Random(20).sample(range(2, p.dimension), 200)]
    for r, rep in zip(ranks, _table_reps(p, ranks)):
        assert h[r] == ghw(p, r) == p.length - sum(2**c for c in rep.coeffs if c >= 0), r


def test_hierarchy_runs_no_macaulay_greedy(monkeypatch):
    p = CodeParams(2, 2, 4)
    expected = [ghw(p, r) for r in range(1, p.dimension + 1)]

    def greedy(*args):
        raise AssertionError("hierarchy called the greedy")

    # weights reaches the greedy through `decompose` (ranks) and `_decompose` (`e_bars`)
    for name in ("rmweights.weights.decompose", "rmweights.weights._decompose"):
        monkeypatch.setattr(name, greedy)
    assert list(hierarchy(p)) == expected


def _scanned(q, d, m):
    return m * (q - 1) <= 255 and q**m <= 1 << 16 and 8 * rho(q, d, m) >= q**m


def test_the_scan_matches_the_walk_on_every_small_code_it_takes():
    codes = 0
    for q in filter(is_prime_power, range(2, 257)):
        m = 1
        while q**m <= 4096:
            for d in range(1, m * (q - 1) + 1):
                if _scanned(q, d, m):
                    assert _scan(q, d, m) == _walk(q, d, m), (q, d, m)
                    codes += 1
            m += 1
    assert codes == 7980


@pytest.mark.parametrize("q, d, m, path", [
    (2, 8, 16, "_scan"),  # q^m = 2^16
    (2, 9, 17, "_walk"),  # q^m = 2^17
    (16, 1, 1, "_scan"),  # 8k = q^m, on the density floor
    (127, 63, 2, "_scan"),  # 8k = q^m + 7
    (127, 62, 2, "_walk"),  # 8k = q^m - 1, just under it
    (256, 255, 1, "_scan"),  # m(q - 1) = 255, every digit sum fits a byte
    (257, 100, 1, "_walk"),  # m(q - 1) = 256 does not
])
def test_weights_scans_small_dense_codes_and_walks_the_rest(monkeypatch, q, d, m, path):
    weights._digit_sums.cache_clear()
    weights._ints.cache_clear()
    taken = []
    for name in ("_scan", "_walk"):
        real = getattr(weights, name)
        monkeypatch.setattr(weights, name, lambda *args, name=name, real=real: taken.append(name) or real(*args))
    h = list(hierarchy(CodeParams(q, d, m)))
    assert taken == [path]
    # w is a weight iff the digits of q^m - w sum to at most d
    digit_sums = [0]
    for v in range(1, q**m):
        digit_sums.append(digit_sums[v // q] + v % q)
    assert h == [w for w in range(1, q**m + 1) if digit_sums[q**m - w] <= d]
    # only the scan builds a digit-sum table and a tuple of shared ints
    assert weights._digit_sums.cache_info().currsize == (path == "_scan")
    assert weights._ints.cache_info().currsize == (path == "_scan")


def test_hierarchy_evaluates_rho_once(monkeypatch):
    # the cap, the scan's density test and `WeightHierarchy` share the one
    # value that `CodeParams.dimension` keeps
    calls = []
    monkeypatch.setattr(
        "rmweights.dims._rho_upto", lambda q, d, m, bound: calls.append((q, d, m)) or _rho_upto(q, d, m, bound)
    )
    for q, d, m in ((2, 8, 16), (4, 5, 5), (4, 2, 5), (2, 9, 17)):  # two scans, two walks
        calls.clear()
        hierarchy(CodeParams(q, d, m))
        assert calls == [(q, d, m)], (q, d, m)


def test_scanned_hierarchies_share_their_equal_weights():
    # a dual pair of length 2^10, then a code of q^m = 4^5 = 2^10; all scan
    codes = [(2, 3, 10), (2, 6, 10), (4, 5, 5)]
    assert all(_scanned(*code) for code in codes)
    first, shared = {}, 0
    for q, d, m in codes:
        for w in hierarchy(CodeParams(q, d, m)):
            if w in first:
                assert first[w] is w, ((q, d, m), w)
                shared += w > 256  # past the ints that Python itself shares
            first.setdefault(w, w)
    assert shared > 200


def test_every_code_of_one_length_shares_one_digit_sum_table():
    q, m = 3, 6
    weights._digit_sums.cache_clear()
    scans = 0
    # a dual pair C, C-perp first, then every d at the same (q, m)
    for d in (5, m * (q - 1) - 5 - 1, *range(1, m * (q - 1) + 1)):
        hierarchy(CodeParams(q, d, m))
        scans += _scanned(q, d, m)
    assert scans > 2
    info = weights._digit_sums.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, scans - 1, 1)


def _scan_domain():
    """The (q, m) that `_weights` lets reach the scan, over every q `CodeParams` admits."""
    return [
        (q, m)
        for q in filter(is_prime_power, range(2, 257))
        for m in range(1, 17)  # q^m <= 2^16 leaves m <= 16
        if m * (q - 1) <= 255 and q**m <= 1 << 16
    ]


def test_the_digit_sum_cache_is_bounded_by_the_scans_domain():
    domain = _scan_domain()
    assert (len(domain), sum(q**m for q, m in domain)) == (170, 971_735)
    weights._digit_sums.cache_clear()
    try:
        for q, m in domain:
            assert len(weights._digit_sums(q, m)) == q**m
        assert weights._digit_sums.cache_info().currsize == 170
    finally:
        weights._digit_sums.cache_clear()


def test_the_int_cache_is_bounded_by_the_scans_domain():
    # every length the scan admits asks for the power of two at or above
    # q^m: 2, 4, ..., 2^16, within the stated 17 tuples of 131,071 ints
    domain = _scan_domain()
    sizes = {1 << (q**m - 1).bit_length() for q, m in domain}
    assert (len(sizes), sum(sizes)) == (16, 131_070)
    weights._digit_sums.cache_clear()
    weights._ints.cache_clear()
    try:
        for q, m in domain:
            assert len(_scan(q, m * (q - 1), m)) == q**m  # d = m(q-1) keeps every w
        hierarchy(CodeParams(2, 9, 17))  # a walk adds no tuple
        assert weights._ints.cache_info().currsize == 16
        # the cached sizes are exactly these: reading each again builds none
        assert all(len(weights._ints(size)) == size for size in sizes)
        assert weights._ints.cache_info().misses == 16
    finally:
        weights._digit_sums.cache_clear()
        weights._ints.cache_clear()


def _peak_over_result(p):
    """The tracemalloc peak of `hierarchy(p)` over the size of its weights."""
    tracemalloc.start()
    try:
        h = hierarchy(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (sys.getsizeof(h.weights) + sum(map(sys.getsizeof, h.weights)))


def test_hierarchy_peak_memory_stays_near_its_result():
    p = CodeParams(2, 8, 16)  # k = 39,203
    # cold caches, so the peak holds the table's build and the shared ints
    weights._digit_sums.cache_clear()
    weights._ints.cache_clear()
    assert _peak_over_result(p) <= 2.5


def test_the_walks_peak_memory_stays_near_its_result():
    # the walk frees the lists of the lower digits before its copy to a
    # tuple: 1.72 times the result, against 1.94 with them kept alive
    p = CodeParams(2, 9, 17)  # k = 89,846, past the scan's q^m <= 2^16
    assert _peak_over_result(p) <= 1.8


def test_hierarchy_refuses_codes_over_the_weight_cap_before_the_walk(monkeypatch):
    p = CodeParams(2, 2, 4)  # k = 11
    monkeypatch.setattr("rmweights.weights.MAX_WEIGHTS", 11)
    assert len(hierarchy(p)) == 11
    monkeypatch.setattr("rmweights.weights.MAX_WEIGHTS", 10)
    monkeypatch.setattr("rmweights.weights._weights", lambda *args: pytest.fail("walked"))
    with pytest.raises(ValueError, match="^11 weights exceed the hierarchy cap 10; use ghw"):
        hierarchy(p)


def test_hierarchy_refuses_weights_past_the_cap_in_bits_before_the_walk(monkeypatch):
    # k weights of b bits count as k * b / 64 weights of 64 bits
    monkeypatch.setattr("rmweights.weights.MAX_WEIGHTS", 2017)
    assert len(hierarchy(CodeParams(2, 2, 63))) == 2017  # 1 + 63 + 1953 weights of 64 bits
    monkeypatch.setattr("rmweights.weights._weights", lambda *args: pytest.fail("walked"))
    cap = "the hierarchy cap of {} 64-bit weights; use ghw for single ranks"
    monkeypatch.setattr("rmweights.weights.MAX_WEIGHTS", 2081)
    with pytest.raises(ValueError, match=f"^2081 weights of at least 65 bits exceed {cap.format(2081)}$"):
        hierarchy(CodeParams(2, 2, 64))  # 1 + 64 + 2016 weights of 65 bits
    # at the real cap: 40,001 weights of 40,001 bits would hold about 200 MB
    monkeypatch.setattr("rmweights.weights.MAX_WEIGHTS", MAX_WEIGHTS)
    message = f"^40001 weights of at least 40001 bits exceed {cap.format(MAX_WEIGHTS)}$"
    with pytest.raises(ValueError, match=message):
        hierarchy(CodeParams(2, 1, 40000))
    # the bits of q^m are counted from the bit length of q: 3^m has at least m + 1
    with pytest.raises(ValueError, match="^40001 weights of at least 40001 bits"):
        hierarchy(CodeParams(3, 1, 40000))


def test_e_bars_holds_no_state_across_calls(monkeypatch):
    for q in (2, 3, 4, 5, 7, 8, 9):
        m = 1
        while q**m <= 1024:
            for d in range(1, m * (q - 1) + 1):
                p = CodeParams(q, d, m)
                assert list(e_bars(p)) == [e_bar(p, r) for r in range(1, p.dimension + 1)], p
            m += 1

    calls = []
    monkeypatch.setattr(
        "rmweights.macaulay._rho_upto", lambda *args: calls.append(args) or _rho_upto(*args)
    )
    p = CodeParams(3, 4, 5)
    counts = []
    for _ in range(2):
        calls.clear()
        list(e_bars(p))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
    assert not hasattr(rho, "cache_info")


def _small_codes():
    """The codes of `test_e_bars_holds_no_state_across_calls`: q^m <= 1024."""
    for q in (2, 3, 4, 5, 7, 8, 9):
        m = 1
        while q**m <= 1024:
            for d in range(1, m * (q - 1) + 1):
                yield CodeParams(q, d, m)
            m += 1


def test_e_bars_reads_bare_tuples_that_are_all_valid(monkeypatch):
    # e_bars builds no MacaulayRep: it reads e_bar off `_rank_tuples`,
    # which forms the full tuple of every rank from the tails.  The
    # check it skips is run here on each of them, and each must be the
    # tuple that the single-rank route checks and returns
    for p in _small_codes():
        formed = list(_rank_tuples(p))
        assert len(formed) == p.dimension, p
        for r, (t, _) in enumerate(formed, start=1):
            assert type(t) is tuple and validate(t, p.d, p.q), (p, r, t)
            assert t == _rank_rep(p, r).coeffs, (p, r)

    built, check = [], MacaulayRep.__post_init__
    monkeypatch.setattr(MacaulayRep, "__post_init__", lambda rep: built.append(rep) or check(rep))
    list(e_bars(CodeParams(3, 4, 5)))
    assert built == []
    assert e_bar(CodeParams(3, 4, 5), 7) and len(built) == 1  # the public route still checks


def test_e_bars_runs_the_greedy_once_per_distinct_tail(monkeypatch):
    # the tail after the last live coefficient c, at degree i, depends on
    # (i, c) alone, so a call runs one greedy per distinct (i, c) that
    # ends the tuples of ranks 0, ..., k - 1; run per rank it ran k.
    # Each run makes its own probe, through the one `macaulay._probe`
    runs, made = [], []
    monkeypatch.setattr(
        "rmweights.weights._decompose", lambda *args: runs.append(args) or _decompose(*args)
    )
    monkeypatch.setattr("rmweights.macaulay._probe", lambda q: made.append(q) or _probe(q))
    for p in _small_codes():
        ends = set()
        for r in range(p.dimension):  # rank 0 is k itself, (m, -1, ..., -1)
            coeffs = decompose(p.dimension - r, p.d, p.q).coeffs
            j = p.d - 1 - coeffs.count(-1)
            ends.add((p.d - j, coeffs[j]))
        for _ in range(2):  # the tails are kept per call, not across calls
            runs.clear()
            made.clear()
            list(e_bars(p))
            assert len(runs) == len(ends) <= p.d * (p.m + 1), p
            assert len(made) == len(runs), p


def test_e_bars_searches_at_most_one_coefficient_per_rank(monkeypatch):
    # resumed from rank to rank, the greedy searches a coefficient only
    # where the tail changes; run in full per rank it searched about 7
    calls = []
    search = _greedy_coefficient
    monkeypatch.setattr(
        "rmweights.macaulay._greedy_coefficient", lambda *args: calls.append(args) or search(*args)
    )
    for p in _small_codes():
        calls.clear()
        list(e_bars(p))
        assert len(calls) <= p.dimension, p


def test_e_bars_first_item_builds_no_table_of_powers():
    # a table of q^c for c = 0..m holds O(m^2 log q) bits before the
    # first yield: 27.6 MB at m = 20,000; the tail's own powers hold a few KB
    p = CodeParams(2, 1, 20000)
    tracemalloc.start()
    try:
        first = next(e_bars(p))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == e_bar(p, 1) == 2**19999
    assert peak < 10**6


def test_rank_queries_probe_no_top_coefficient_above_m_minus_1(monkeypatch):
    # k - r < k = rho_q(d, m), so m_d <= m - 1; searched from 0 by
    # doubling, m_d was probed at 2047, a probe of 1,001 terms
    probes = []
    monkeypatch.setattr(
        "rmweights.macaulay._rho_upto",
        lambda q, i, m, bound: probes.append((i, m)) or _rho_upto(q, i, m, bound),
    )
    p = CodeParams(2, 2000, 2000)
    for r in (1, 2, 3):
        probes.clear()
        assert ghw(p, r) == r  # d = m(q-1): the whole space, with d_r = r
        assert probes and all(m <= p.m - 1 for i, m in probes if i == p.d), r


def _error(call, *args):
    with pytest.raises(ValueError) as exc:
        call(*args)
    return str(exc.value)


def test_messages_name_a_dimension_too_long_for_decimal(digit_limit_640):
    # k = 2^3000 has 904 digits: printable by default, not at a 640-digit limit
    p = CodeParams(2, 3000, 3000)

    def messages():
        return [_error(hierarchy, p), _error(ghw, p, 0), _error(min_subspace_support, p, 0)]

    def expected(k):
        cap = f"{k} weights exceed the hierarchy cap {MAX_WEIGHTS}; use ghw for single ranks"
        return [cap, f"r must be in [1, {k}]", f"r must be in [1, {k}]"]

    assert messages() == expected("rho_2(3000, 3000)")
    sys.set_int_max_str_digits(0)  # no limit: k in decimal
    assert messages() == expected(2**3000)
