import dataclasses
import itertools
import math
import operator
import sys
import tracemalloc

import pytest

from rmweights import dims
from rmweights.dims import CodeParams
from rmweights.oracle import (
    SUPPORTED_Q,
    FieldTable,
    GeneratorMatrix,
    build_field,
    check_matrix_caps,
    count_reduced_monomials,
    e_bar_lex_column,
    enumerate_tuples,
    gaussian_binomial,
    min_subspace_support,
    ranks_under_cap,
    rm_generator_matrix,
)
from rmweights.weights import ghw, hierarchy


def test_prime_fields_are_modular():
    primes = [q for q in SUPPORTED_Q if dims._smallest_prime_factor(q) == q]
    assert primes == [2, 3, 5, 7, 11, 13]
    for p in primes:
        f = build_field(p)
        for a in range(p):
            assert f.neg(a) == -a % p
            if a:
                assert f.inv(a) == pow(a, -1, p)
            for b in range(p):
                assert f.add(a, b) == (a + b) % p
                assert f.mul(a, b) == (a * b) % p


def test_gf4_table():
    f = build_field(4)
    # elements 0, 1, x, x+1 reduced modulo x^2 + x + 1
    assert f.mul(2, 3) == 1
    assert f.mul(2, 2) == 3
    assert f.add(2, 3) == 1
    assert f.inv(2) == 3
    assert f.pow(3, 2) == 2
    assert f.pow(0, 0) == 1
    assert f.neg(3) == 3  # characteristic 2


def test_extension_field_generators():
    assert build_field(8).pow(2, 3) == 3  # x^3 = x + 1
    assert build_field(9).mul(3, 3) == 2  # x^2 = -1
    assert build_field(16).pow(2, 4) == 3  # x^4 = x + 1
    assert build_field(9).neg(1) == 2


def test_all_supported_fields_pass_self_check():
    for q in SUPPORTED_Q:
        f = build_field(q)
        assert f.q == q
        assert list(f.mul_table[0]) == [0] * q
        # nonzero rows of the multiplication table are permutations
        for a in range(1, q):
            assert sorted(int(x) for x in f.mul_table[a]) == list(range(q))
        if f.p == 2:  # a label's bits are its coefficients over F_2: the scan adds by xor
            assert f.add_table == tuple(tuple(a ^ b for b in range(q)) for a in range(q))


def test_vector_ops_match_the_tables():
    # the packed x*q + y lookups, including byte 255 at q = 16
    for q in SUPPORTED_Q:
        f = build_field(q)
        x = bytes(a for a in range(q) for _ in range(q))
        y = bytes(range(q)) * q
        assert list(f.vadd(x, y)) == [f.add(a, b) for a, b in zip(x, y)]
        assert list(f.vmul(x, y)) == [f.mul(a, b) for a, b in zip(x, y)]
        for a in range(q):
            assert list(f.vscale(a, y)) == [f.mul(a, b) for b in y]


def test_self_check_detects_tampering():
    # a field of its own: the one build_field shares must stay intact
    f = FieldTable(4)
    tampered = [list(row) for row in f.mul_table]
    tampered[2][3] = 2
    f.mul_table = tuple(map(tuple, tampered))
    with pytest.raises(ValueError, match="field axioms"):
        f._check_axioms()


def test_build_field_shares_one_immutable_field_per_q():
    for q in SUPPORTED_Q:
        f = build_field(q)
        assert build_field(q) is f
        for table in (f.add_table, f.mul_table, f._scale):
            with pytest.raises(TypeError):
                table[1] = table[0]
        with pytest.raises(TypeError):
            f.mul_table[1][0] = 1
        for table in (f.neg_table, f.inv_table):
            with pytest.raises(TypeError):
                table[1] = 0
    for _ in range(2):  # a call that raises is not cached
        with pytest.raises(ValueError, match="unsupported"):
            build_field(6)
    assert build_field.cache_info().currsize <= len(SUPPORTED_Q)


def test_field_errors():
    for q in (1, 6, 32, 100):
        with pytest.raises(ValueError, match="unsupported"):
            FieldTable(q)
    f = build_field(3)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ValueError):
        f.pow(2, -1)


def test_gaussian_binomial():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(5, 2, 2) == 155
    assert gaussian_binomial(2, 1, 4) == 5
    assert gaussian_binomial(7, 0, 2) == 1
    assert gaussian_binomial(3, 4, 2) == 0
    assert gaussian_binomial(4, -1, 2) == 0
    assert gaussian_binomial(5, 3, 2) == gaussian_binomial(5, 2, 2)
    # the product runs over min(k, n - k) factors, so these are instant
    assert gaussian_binomial(5036, 5036, 2) == 1
    assert gaussian_binomial(5000, 4999, 2) == 2**5000 - 1


def test_ranks_under_cap_matches_the_filter_over_every_rank():
    for k in range(40):
        for q in (2, 3, 4, 9):
            for cap in (0, 1, 5, 100, 10**4, 10**7):
                want = [s for s in range(1, k + 1) if gaussian_binomial(k, s, q) <= cap]
                assert ranks_under_cap(k, q, cap) == want, (k, q, cap)


def test_count_reduced_monomials():
    assert count_reduced_monomials(2, 3, 5) == 26
    assert count_reduced_monomials(4, 3, 3) == 20
    assert count_reduced_monomials(2, -1, 3) == 0
    assert count_reduced_monomials(3, 0, 0) == 1


def _plain_count(q, d, m):
    """The count as a plain walk: one tuple and one sum per exponent tuple."""
    return sum(1 for t in itertools.product(range(q), repeat=m) if sum(t) <= d)


@pytest.mark.parametrize(
    "q, ms",
    [(q, range(5 if q < 5 else 3)) for q in (*SUPPORTED_Q, 6)]
    + [(257, [2]), (300, [2]), (65537, [1]), (2, [17]), (3, [11])],
)
def test_count_matches_the_plain_walk(q, ms):
    # q^m up to 2^16 sits in one tail string; (2, 17) and (3, 11) loop over
    # heads, and no sum of q = 257 or 300 fits a byte, so j = 0 there
    for m in ms:
        top = m * (q - 1)
        for d in {-1, 0, 1, top // 2, top - 1, top, top + 1, 10**6}:
            assert count_reduced_monomials(q, d, m) == _plain_count(q, d, m), (q, d, m)


def test_count_uses_no_closed_form(monkeypatch):
    cases = [(2, 7, 17), (3, 9, 11), (5, 6, 4), (16, 20, 3), (256, 300, 2), (257, 300, 2)]
    want = [dims.rho(*c) for c in cases]

    def closed_form(*args):
        raise AssertionError("the tuple count called a closed form")

    for name in ("rho", "rho_binomial", "rho_recursive", "dimension_rows", "binomial"):
        monkeypatch.setattr(dims, name, closed_form)
    monkeypatch.setattr(math, "comb", closed_form)
    assert [count_reduced_monomials(*c) for c in cases] == want


def test_enumeration_caps():
    with pytest.raises(ValueError, match="cap"):
        count_reduced_monomials(2, 1, 40)
    with pytest.raises(ValueError, match="cap"):
        enumerate_tuples(3, 2, 4, cap=10)
    with pytest.raises(ValueError):
        count_reduced_monomials(2, 1, -1)
    for listing in (count_reduced_monomials, enumerate_tuples):
        with pytest.raises(ValueError, match="q must be >= 2"):
            listing(1, 1, 1)


@pytest.mark.parametrize("call, args", [
    pytest.param(count_reduced_monomials, (2.0, 1, 3), id="count-q"),
    pytest.param(enumerate_tuples, (2.0, 1, 3), id="tuples-q"),
    pytest.param(enumerate_tuples, (2, 1.5, 3), id="tuples-d"),  # would list 4 tuples
    # a budget past every tail would count all 8
    pytest.param(count_reduced_monomials, (2, 100.0, 3), id="count-d"),
    pytest.param(count_reduced_monomials, (2, 1, 3.0), id="count-m"),
])
def test_enumerations_take_integers(call, args):
    with pytest.raises(TypeError, match="^q, d and m must be integers$"):
        call(*args)


def test_gaussian_binomial_takes_integers():
    for args in ((5, 2, 2.0), (5.0, 2, 2), (5, 2.0, 2)):  # (5, 2, 2.0) would be 155.0
        with pytest.raises(TypeError, match="^n, k and q must be integers$"):
            gaussian_binomial(*args)


def test_the_count_lists_no_value():
    # 4 head digits over a 2^16 tail, 431,910 tuples: a count that listed
    # the values (as len(e_bar_lex_column(...)) does) peaks near 17.5 MB
    tracemalloc.start()
    try:
        count = count_reduced_monomials(2, 9, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 431_910
    assert peak < 4 * 2**16


def test_enumerate_tuples_order():
    assert enumerate_tuples(2, 1, 3) == ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0))
    assert enumerate_tuples(3, 2, 2) == ((2, 0), (1, 1), (1, 0), (0, 2), (0, 1), (0, 0))
    tuples = enumerate_tuples(4, 5, 3)
    assert len(tuples) == CodeParams(4, 5, 3).dimension
    assert list(tuples) == sorted(tuples, reverse=True)
    values = [sum(t[j] * 4 ** (2 - j) for j in range(3)) for t in tuples]
    assert values == sorted(values, reverse=True)


def test_e_bar_lex_examples():
    assert e_bar_lex_column(CodeParams(4, 3, 3))[8 - 1] == 18
    column = e_bar_lex_column(CodeParams(2, 3, 5))
    assert column[10 - 1] == 17
    assert column[1 - 1] == 28
    assert column[26 - 1] == 0
    assert len(column) == 26  # no rank 27


def test_e_bar_lex_column_examples():
    assert e_bar_lex_column(CodeParams(2, 1, 3)) == (4, 2, 1, 0)
    column = e_bar_lex_column(CodeParams(2, 3, 5))
    assert (len(column), column[0], column[9], column[25]) == (26, 28, 17, 0)
    with pytest.raises(ValueError, match="exceeds the enumeration cap"):
        e_bar_lex_column(CodeParams(2, 3, 5), cap=31)


@pytest.mark.parametrize("q, d, m", [
    *((q, d, m) for q in SUPPORTED_Q for m in (1, 2)
      for d in sorted({1, m * (q - 1) // 2, m * (q - 1) - 1, m * (q - 1)} - {0})),
    (2, 1, 3), (4, 5, 3),
    # q = 256 keeps a 1-digit tail under a 1-digit head; q = 257 has no tail
    (256, 1, 2), (256, 254, 2), (256, 255, 2), (256, 300, 2),
    (257, 1, 2), (257, 256, 2), (257, 400, 2),
    # heads of 2, 1 and 1 digits over tails of 16, 10 and 4
    (2, 5, 18), (3, 4, 11), (16, 3, 5),
])
def test_e_bar_lex_column_is_the_values_of_the_naive_listing(q, d, m):
    places = [q ** (m - 1 - i) for i in range(m)]
    values = tuple(sum(map(operator.mul, mu, places)) for mu in enumerate_tuples(q, d, m))
    assert e_bar_lex_column(CodeParams(q, d, m)) == values


def test_e_bar_lex_column_peaks_under_64_bytes_a_rank():
    p = CodeParams(2, 8, 18)  # k = 106,762
    tracemalloc.start()
    try:
        column = e_bar_lex_column(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(column) == p.dimension == 106_762
    assert peak < 64 * p.dimension


def test_generator_matrix_example():
    gen = rm_generator_matrix(CodeParams(2, 1, 2))
    assert gen.row_labels == ((0, 0), (1, 0), (0, 1))
    assert [list(row) for row in gen.rows] == [[1, 1, 1, 1], [0, 0, 1, 1], [0, 1, 0, 1]]


def test_generator_matrix_shape_and_rank():
    for p in (CodeParams(2, 3, 5), CodeParams(3, 2, 3), CodeParams(4, 3, 3)):
        gen = rm_generator_matrix(p)  # constructor verifies full rank
        assert (len(gen.rows), {len(row) for row in gen.rows}) == (p.dimension, {p.length})
        assert len(gen.row_labels) == p.dimension
        degrees = [sum(a) for a in gen.row_labels]
        assert degrees == sorted(degrees)


def test_generator_matrix_holds_only_its_field_rows_and_labels():
    names = [f.name for f in dataclasses.fields(GeneratorMatrix)]
    assert names == ["field", "rows", "row_labels"]


def test_generator_matrix_caps():
    with pytest.raises(ValueError, match=f"^q\\^m = {2**20} exceeds the column cap {10**6}$"):
        rm_generator_matrix(CodeParams(2, 1, 20))
    # k = 354,522 rows: no row cap is needed, since k <= q^m makes the cell cap keep k <= 10^4
    with pytest.raises(ValueError, match=f"^354522 x 524288 = {354522 * 524288} matrix cells"):
        rm_generator_matrix(CodeParams(2, 10, 19))
    # k = 5,036 rows and q^m = 524,288 columns: the columns fit their cap, the cells do not
    with pytest.raises(ValueError, match="exceed the cell cap"):
        check_matrix_caps(CodeParams(2, 4, 19))


@pytest.mark.parametrize(
    "params, r",
    [(CodeParams(2, 1, 16), None), (CodeParams(16, 6, 3), 84), (CodeParams(2, 8, 9), 511),
     (CodeParams(16, 1, 3), 1)],
    ids=str,
)
def test_generator_matrix_memory_stays_near_its_cells(params, r):
    # the cell cap bounds memory only if nothing else grows past the
    # matrix: no listing of the points, no scaled copies of its rows (the
    # rank-1 scan on GF(16) scales free rows by every c != 1), and a
    # top-rank basis (k x k, with k close to q^m) of one byte per entry;
    # the shared field is built first, so its tables (about 11 KB for
    # GF(16)) count against no matrix whatever test built it before
    build_field(params.q)
    tracemalloc.start()
    try:
        if r is None:
            rm_generator_matrix(params)
        else:
            min_subspace_support(params, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * params.dimension * params.length


def test_cap_messages_name_sizes_too_long_for_decimal(digit_limit_640):
    # 2^3000 has 904 digits: printable by default, not at a 640-digit limit
    p = CodeParams(2, 1, 3000)
    with pytest.raises(ValueError, match=r"^q\^m = 2\^3000 exceeds the enumeration cap"):
        count_reduced_monomials(2, 1, 3000)
    with pytest.raises(ValueError, match=r"^q\^m = 2\^3000 exceeds the column cap"):
        rm_generator_matrix(p)
    with pytest.raises(ValueError, match=r"^\[3001, 1\]_2 subspaces exceeds the cap"):
        min_subspace_support(p, 1)
    sys.set_int_max_str_digits(0)  # no limit: every size in decimal
    with pytest.raises(ValueError, match=f"^q\\^m = {2**3000} exceeds"):
        count_reduced_monomials(2, 1, 3000)
    with pytest.raises(ValueError, match=f"^{2**3001 - 1} subspaces exceeds"):
        min_subspace_support(p, 1)


def test_subspace_enumeration_counts():
    from rmweights.oracle import _rref_bases

    for k, r, q in ((4, 2, 2), (3, 1, 3), (4, 2, 3), (5, 3, 2), (2, 2, 4)):
        bases = list(_rref_bases(k, r, q))
        assert len(bases) == gaussian_binomial(k, r, q)
        assert len(set(bases)) == len(bases)


@pytest.mark.parametrize("q, n", [(2, 0), (5, 0), (2, 1), (2, 6), (3, 4), (4, 3), (7, 2), (16, 2)])
def test_gray_steps_visit_every_tuple_once(q, n):
    from rmweights.oracle import _gray_steps

    digits = [0] * n
    visited = [tuple(digits)]
    for pos, old, new in _gray_steps(q, n):
        assert digits[pos] == old and abs(new - old) == 1 and 0 <= new < q
        digits[pos] = new
        visited.append(tuple(digits))
    assert len(visited) == q**n
    assert sorted(visited) == list(itertools.product(range(q), repeat=n))
    if n:  # the last digit runs first
        assert visited[q - 1] == (0,) * (n - 1) + (q - 1,)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_gray_walk_is_the_gray_steps_by_position_and_difference(q):
    # n from 0 to past two blocks, the block being the last b digits with
    # q^b <= 64
    from rmweights.oracle import _gray_steps, _gray_walk

    field = build_field(q)
    b = max(b for b in range(7) if q**b <= 64)
    for n in range(2 * b + 2):
        want = [(pos, field.add(new, field.neg(old))) for pos, old, new in _gray_steps(q, n)]
        assert [(range(n)[pos], c) for pos, c in _gray_walk(field, n)] == want, n


def test_gray_block_cache_stays_bounded():
    # walks of any length over every supported field keep at most 32
    # blocks, one per (q, b) with q^b <= 64, of at most 63 steps each way
    from rmweights.oracle import _gray_block, _gray_walk

    for q in SUPPORTED_Q:
        for n in range(10):
            _gray_walk(build_field(q), n)
    assert _gray_block.cache_info().currsize == 32
    for q in SUPPORTED_Q:
        for b in range(7):
            if q**b <= 64:
                forward, backward = _gray_block(q, b)
                assert len(forward) == len(backward) == q**b - 1 <= 63
    assert _gray_block.cache_info().currsize == 32


def test_gray_walk_lists_every_rref_basis():
    # replay the scan's walk on the basis entries: per pivot set, the free
    # entries in row order, each step setting one of them from old to new
    from rmweights.oracle import _gray_steps, _rref_bases

    for k, r, q in ((4, 2, 2), (3, 1, 3), (4, 2, 3), (5, 3, 2), (2, 2, 4)):
        bases = []
        for pivots in itertools.combinations(range(k), r):
            free = [(i, j) for i in range(r) for j in range(pivots[i] + 1, k) if j not in pivots]
            B = [bytearray(k) for _ in range(r)]
            for i, p in enumerate(pivots):
                B[i][p] = 1
            bases.append(tuple(map(bytes, B)))
            for pos, old, new in _gray_steps(q, len(free)):
                i, j = free[pos]
                assert B[i][j] == old
                B[i][j] = new
                bases.append(tuple(map(bytes, B)))
        assert len(bases) == gaussian_binomial(k, r, q)
        assert set(bases) == set(_rref_bases(k, r, q))


def test_min_subspace_support_matches_hierarchy():
    p = CodeParams(2, 1, 3)
    h = hierarchy(p)
    for r in range(1, 5):
        assert min_subspace_support(p, r) == h[r]


def test_min_subspace_support_values():
    assert min_subspace_support(CodeParams(2, 2, 3), 1) == 2
    assert min_subspace_support(CodeParams(3, 1, 2), 2) == 8
    assert min_subspace_support(CodeParams(4, 1, 1), 1) == 3
    assert min_subspace_support(CodeParams(4, 1, 1), 2) == 4


def _per_basis_min_support(params, r):
    """The scan as a loop that encodes every row of every basis."""
    from rmweights.oracle import _rref_bases

    gen = rm_generator_matrix(params)
    field, n = gen.field, params.length
    nonzero = bytes([0]) + bytes([1]) * 255
    best = n + 1
    for basis in _rref_bases(params.dimension, r, params.q):
        union = 0
        for vector in basis:
            cw = bytes(n)
            for v, row in zip(vector, gen.rows):
                if v:
                    cw = field.vadd(cw, row if v == 1 else field.vscale(v, row))
            union |= int.from_bytes(cw.translate(nonzero), "big")
        best = min(best, union.bit_count())
    return best


@pytest.mark.parametrize(
    "q, d, m",
    [(2, 1, 3), (2, 2, 3), (2, 1, 4), (3, 1, 2), (3, 2, 2), (4, 1, 2), (4, 2, 1),
     (5, 2, 1), (7, 1, 1), (8, 2, 1), (9, 2, 1), (2, 2, 4), (16, 1, 2)],
)
def test_min_subspace_support_matches_the_per_basis_loop(q, d, m):
    # every rank with at most 2,047 subspaces, r = 1 and r = k among them;
    # where the last pivot is column k - 1 the last row has no free
    # position, so the leading rows change at every basis.  (2, 2, 4) at
    # r = 1 and 10 walks up to 10 free entries, past the 6 of a Gray
    # block; (16, 1, 2) walks GF(16) blocks of one entry
    p = CodeParams(q, d, m)
    for r in ranks_under_cap(p.dimension, q, 2047):
        assert min_subspace_support(p, r) == _per_basis_min_support(p, r), (p, r)


@pytest.mark.parametrize(
    "q, d, m",
    [(2, 2, 3), (2, 1, 4), (3, 2, 2), (4, 1, 2), (8, 1, 1), (5, 1, 2), (7, 1, 2), (9, 1, 1),
     (16, 1, 1)],
)
def test_min_subspace_support_matches_the_per_basis_loop_on_random_matrices(q, d, m, monkeypatch):
    # random matrices in place of the generator matrix, so a minimum need
    # not sit at a basis whose leading rows have all free entries 0: the
    # scan must carry the leading rows' support along the walk.  The last
    # row is (q - 1) times the one before off coordinate 0, so at rank 1 the
    # least support needs the coefficient -1/(q - 1) there, not 0 or 1
    import random

    from rmweights import oracle

    p = CodeParams(q, d, m)
    field = build_field(q)
    rng = random.Random(f"{q},{d},{m}")
    for _ in range(3):
        rows = [
            bytes(rng.randrange(1, q) if rng.random() < 0.5 else 0 for _ in range(p.length))
            for _ in range(p.dimension - 1)
        ]
        rows.append(b"\1" + field.vscale(q - 1, rows[-1])[1:])
        gen = GeneratorMatrix(field, tuple(rows), ())
        monkeypatch.setattr(oracle, "rm_generator_matrix", lambda params: gen)
        monkeypatch.setitem(globals(), "rm_generator_matrix", lambda params: gen)
        for r in ranks_under_cap(p.dimension, q, 3000):
            assert min_subspace_support(p, r) == _per_basis_min_support(p, r), (p, r, rows)


def test_min_subspace_support_rejects_a_non_integer_rank():
    for r in (2.0, "2"):
        with pytest.raises(TypeError, match="^r must be an integer$"):
            min_subspace_support(CodeParams(2, 1, 3), r)


def test_min_subspace_support_guards():
    p = CodeParams(2, 3, 5)
    with pytest.raises(ValueError, match="lexicographic"):
        min_subspace_support(p, 3)
    with pytest.raises(ValueError, match=r"r must be in"):
        min_subspace_support(CodeParams(2, 1, 2), 5)


def test_oracles_agree_with_each_other():
    # lex ranking and exhaustive search are independent routes
    for p in (CodeParams(2, 2, 2), CodeParams(3, 1, 2)):
        column = e_bar_lex_column(p)
        for r in range(1, min(p.dimension, 3) + 1):
            assert min_subspace_support(p, r) == p.length - column[r - 1]
            assert ghw(p, r) == min_subspace_support(p, r)
