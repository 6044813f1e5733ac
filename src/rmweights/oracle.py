"""Independent brute-force verifiers for the closed-form machinery.

Three oracles, each deliberately naive:

* direct enumeration of reduced exponent tuples: counting them, and
  ranking them in descending lexicographic order, which is the
  descending order of their base-q values, so the lex oracle lists the
  values (`e_bar_lex_column`), not the tuples,
* evaluation of every reduced monomial at every affine point to build
  actual generator matrices over small fields,
* exhaustive minimum-support search over all r-dimensional subspaces of
  the message space, enumerated once each via reduced-row-echelon
  canonical bases whose free entries are walked in Gray order, so each
  subspace after the first of its pivot columns re-encodes one row by
  one scaled generator row.  The fastest entries of a walk replay a
  cached block of at most 63 steps (`_gray_walk`): 32 blocks over
  `SUPPORTED_Q`, whatever the walk's length.

Naive means every tuple and every subspace is visited, and none of the closed
forms is called; the per-element work runs in C where it can (`bytes.translate`
over digit sums, codewords and supports as integers).  The count and the lex
oracle read one listing of the tuples, `_listing`: a table of the digit sums of
the last digits and one run per value of the others.  Each oracle is checked
against the closed forms, never against the other, so a fault in that listing
fails both and hides none; it shares no code with the hierarchy scan's digit
sums or with the generator matrix's exponents.  `enumerate_tuples` lists the
tuples themselves, sorted, and is the tests' naive reference for the lex
oracle; no oracle calls it.

Field arithmetic uses full lookup tables, built modulo pinned
irreducible polynomials: x^2+x+1 for GF(4), x^3+x+1 for GF(8), x^2+1
for GF(9), x^4+x+1 for GF(16), and x for a prime field.  The field
axioms are re-verified exhaustively every time a table is constructed,
which `build_field` does once per q per process.
"""

from __future__ import annotations

import functools
import itertools
import operator
import sys
from dataclasses import dataclass

from .dims import CodeParams, _check_rank, _decimal_or, _smallest_prime_factor

DEFAULT_TUPLE_CAP = 10**8
DEFAULT_SUBSPACE_CAP = 10**7
MAX_POINTS = 10**6  # columns (q^m) of a generator matrix
# rows times columns, one byte each; since k <= q^m it also caps the rows at 10^4
MAX_CELLS = 10**8

SUPPORTED_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)

# coefficients of the pinned irreducible polynomial, constant term first,
# monic of degree k for q = p^k
_IRREDUCIBLE = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 1, 0, 0, 1),
}


def _poly_mul_mod(a, b, irr, p):
    """Multiply digit vectors a, b modulo the monic polynomial irr over F_p."""
    k = len(a)
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for j in range(2 * k - 2, k - 1, -1):
        c = prod[j]
        if c:
            for t in range(k + 1):
                prod[j - k + t] = (prod[j - k + t] - c * irr[t]) % p
    return prod[:k]


class FieldTable:
    """Full addition/multiplication tables for GF(q), q <= 16.

    Element i of GF(p^k) stands for the polynomial whose base-p digits
    of i are its coefficients (lowest degree first), so 0 and 1 are the
    two identities.  A prime field takes the same route with k = 1,
    modulo x: its tables are plain modular arithmetic.
    """

    def __init__(self, q: int):
        if q not in SUPPORTED_Q:
            raise ValueError(f"unsupported field size {q}; supported: {SUPPORTED_Q}")
        self.q = q
        self.p = p = _smallest_prime_factor(q)
        irr = _IRREDUCIBLE.get(q, (0, 1))  # GF(p) is F_p[x] modulo x
        k = len(irr) - 1
        digits = [[(i // p**j) % p for j in range(k)] for i in range(q)]
        undig = lambda ds: sum(c * p**j for j, c in enumerate(ds))
        add = [[undig((x + y) % p for x, y in zip(da, db)) for db in digits] for da in digits]
        mul = [[undig(_poly_mul_mod(da, db, irr, p)) for db in digits] for da in digits]
        # tuples, as `build_field` shares one field per q among all callers
        self.add_table = tuple(map(tuple, add))
        self.mul_table = tuple(map(tuple, mul))
        self._check_axioms()

        self.neg_table = tuple(row.index(0) for row in self.add_table)
        self.inv_table = (0,) + tuple(row.index(1) for row in self.mul_table[1:])
        # translate tables: byte a*q + b -> a+b or a*b (q <= 16, so
        # a*q + b <= 255), and byte b -> a*b for each a
        pad = lambda cells: bytes(cells).ljust(256, b"\0")
        self._add_pairs = pad(x for row in self.add_table for x in row)
        self._mul_pairs = pad(x for row in self.mul_table for x in row)
        self._scale = tuple(pad(row) for row in self.mul_table)

    def _check_axioms(self):
        A, M, R = self.add_table, self.mul_table, range(self.q)
        ok = all(A[a][b] == A[b][a] and M[a][b] == M[b][a] for a in R for b in R)
        ok &= list(A[0]) == list(R) and list(M[1]) == list(R)
        ok &= all(
            A[A[a][b]][c] == A[a][A[b][c]]
            and M[M[a][b]][c] == M[a][M[b][c]]
            and M[a][A[b][c]] == A[M[a][b]][M[a][c]]
            for a in R for b in R for c in R
        )
        ok &= all(0 in row for row in A) and all(1 in row for row in M[1:])
        if not ok:
            raise ValueError(f"constructed tables for q={self.q} violate the field axioms")

    def add(self, a: int, b: int) -> int:
        return self.add_table[a][b]

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.inv_table[a]

    def pow(self, a: int, e: int) -> int:
        """a^e by repeated multiplication; a^0 = 1 for every a, including 0."""
        if e < 0:
            raise ValueError("exponent must be >= 0")
        out = 1
        for _ in range(e):
            out = self.mul_table[out][a]
        return out

    # vectors are bytes, one element per byte: one big-integer
    # multiply-add packs the pairs x_t*q + y_t, one translate maps them
    def vadd(self, x: bytes, y: bytes) -> bytes:
        return self._pairwise(self._add_pairs, x, y)

    def vmul(self, x: bytes, y: bytes) -> bytes:
        return self._pairwise(self._mul_pairs, x, y)

    def vscale(self, a: int, x: bytes) -> bytes:
        return x.translate(self._scale[a])

    def _pairwise(self, pairs: bytes, x: bytes, y: bytes) -> bytes:
        z = int.from_bytes(x, "big") * self.q + int.from_bytes(y, "big")
        return z.to_bytes(len(x), "big").translate(pairs)

    def __repr__(self):
        return f"FieldTable(q={self.q})"


@functools.cache  # at most len(SUPPORTED_Q) entries: FieldTable raises for any other q
def build_field(q: int) -> FieldTable:
    """The GF(q) lookup tables, built (and exhaustively self-checked) on
    the first call for q and shared, immutable, by every later one."""
    return FieldTable(q)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over F_q."""
    if not all(isinstance(x, int) for x in (n, k, q)):
        raise TypeError("n, k and q must be integers")
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)  # [n, k]_q = [n, n - k]_q
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    if num % den:
        raise AssertionError(f"[{n}, {k}]_{q}: the product does not divide exactly")
    return num // den


def ranks_under_cap(k: int, q: int, cap: int = DEFAULT_SUBSPACE_CAP) -> list:
    """The ranks s in 1..k with [k, s]_q <= cap, in increasing order.

    [k, s]_q = [k, k - s]_q rises with s up to k/2, so they are 1..a and
    k-a..k.  Each count is stepped from the one before, and the walk
    stops at the first s past the cap."""
    if cap < 1:
        return []
    a, count = 0, 1  # [k, 0]_q
    while a < k - a:
        count = count * (q ** (k - a) - 1) // (q ** (a + 1) - 1)  # [k, a + 1]_q
        if count > cap:
            break
        a += 1
    return sorted({*range(1, a + 1), *range(max(k - a, 1), k + 1)})


# the int -> str digit limit that Python starts with (4300 since 3.10.7)
_DEFAULT_DIGIT_LIMIT = getattr(sys.int_info, "default_max_str_digits", 4300)


def _capped(count, bits: int, name: str, cap: int, message) -> int:
    """count(), or ValueError(message(shown)) if it exceeds `cap`, where
    shown is its decimal where int -> str allows it, else `name`.

    count() >= 2^bits.  Past 4 bits per digit of Python's default
    int -> str limit, such a count has more digits than that limit and
    exceeds every cap below 2^bits, so it is named, not computed.  The
    default decides even where the live limit is 0 (none) or higher:
    such a count can take minutes to compute, or more memory than there
    is, and the message stays the one printed at the default."""
    if not (bits > 4 * _DEFAULT_DIGIT_LIMIT and cap.bit_length() <= bits):
        if (n := count()) <= cap:
            return n
        name = _decimal_or(n, name)
    raise ValueError(message(name))


def _points_under_cap(q: int, m: int, cap: int, what: str) -> int:
    """q^m, or ValueError naming the `what` cap if q^m exceeds `cap`."""
    return _capped(
        lambda: q**m, m * (q.bit_length() - 1), f"{q}^{m}", cap,
        lambda shown: f"q^m = {shown} exceeds the {what} cap {cap}",
    )


def _check_enumeration_args(q: int, d: int, m: int, cap: int) -> None:
    if not all(isinstance(x, int) for x in (q, d, m)):
        raise TypeError("q, d and m must be integers")
    if q < 2:
        raise ValueError("q must be >= 2")
    if m < 0:
        raise ValueError("m must be >= 0")
    _points_under_cap(q, m, cap, "enumeration")


_RAMP = bytes(range(256)) * 2  # _RAMP[a:a + 256] maps byte x to x + a (mod 256)


def _listing(q: int, d: int, m: int, cap: int) -> tuple:
    """The tuples in {0..q-1}^m with sum <= d, as runs of their base-q
    values, descending: the one listing that both enumeration oracles read.

    Returns (sums, runs).  The last j digits (the tail) are walked in C:
    byte i of the `bytes` string sums is the digit sum of tail
    q^j - 1 - i, built by q translate-and-join steps per digit.  j is the
    largest with j <= m, q^j <= 2^16 and j(q-1) <= 255, so a tail sum
    fits in a byte; j = 0 (q > 256) leaves the one empty tail.  A Python
    loop runs over the other m - j digits (the head) in descending
    order, and runs yields (top, t) for each head whose budget
    t = d - sum(head) is >= 0: its tuples have the values top - i for
    the i with sums[i] <= t, top being the head's largest value."""
    _check_enumeration_args(q, d, m, cap)
    j = max(i for i in range(m + 1) if q**i <= 1 << 16 and i * (q - 1) <= 255)
    sums = b"\0"  # the one empty tail, of sum 0
    for _ in range(j):
        # a new top digit a, from q - 1 down, adds a to every sum so far
        # (none wraps: they stay <= j(q-1) <= 255)
        sums = b"".join(sums.translate(_RAMP[a:a + 256]) for a in range(q - 1, -1, -1))
    heads = itertools.product(range(q - 1, -1, -1), repeat=m - j)
    runs = ((top, t) for top, head in zip(range(q**m - 1, -1, -len(sums)), heads)
            if (t := d - sum(head)) >= 0)
    return sums, runs


def count_reduced_monomials(q: int, d: int, m: int, cap: int = DEFAULT_TUPLE_CAP) -> int:
    """Count tuples in {0..q-1}^m with sum <= d by walking all of them.

    It reads the runs of `_listing` and lists no value: per run, one
    translate deletes the tail sums above its budget t and the bytes
    left are counted."""
    sums, runs = _listing(q, d, m, cap)
    return sum(len(sums.translate(None, _RAMP[t + 1:256])) for _, t in runs)


def enumerate_tuples(q: int, d: int, m: int, cap: int = DEFAULT_TUPLE_CAP) -> tuple:
    """All tuples in {0..q-1}^m with sum <= d, descending lexicographic:
    the tests' naive reference for `e_bar_lex_column`."""
    _check_enumeration_args(q, d, m, cap)
    # filter, then sort: slower than generating in order, but the
    # result is obviously the descending lexicographic listing
    tuples = (t for t in itertools.product(range(q), repeat=m) if sum(t) <= d)
    return tuple(sorted(tuples, reverse=True))


def e_bar_lex_column(params: CodeParams, cap: int = DEFAULT_TUPLE_CAP) -> tuple:
    """Reference e_bar for every rank at once, straight from the
    descending-lexicographic listing of the tuples mu in {0..q-1}^m with
    sum <= d: entry r-1 is sum_i mu_i q^(m-i) for the r-th tuple mu,
    its base-q value.

    Descending lex order of digit tuples is descending order of their
    base-q values, so the column is every value below q^m with digit
    sum <= d, descending, and the listing holds values, not tuples:
    nothing is sorted, and a rank costs one int.  It chains the runs of
    `_listing`: a run whose budget covers every tail is a whole `range`,
    and any other is one translate that marks the tails of sum <= t and
    one `itertools.compress` that keeps their values, descending."""
    sums, runs = _listing(params.q, params.d, params.m, cap)
    size, full = len(sums), sums[0]  # sums[0] = j(q-1), the tail of all digits q - 1
    step = b"\1" * 256 + b"\0" * 256  # step[255 - t:511 - t] maps byte s to s <= t
    return tuple(itertools.chain.from_iterable(
        range(top, top - size, -1) if t >= full else itertools.compress(
            range(top, top - size, -1), sums.translate(step[255 - t:511 - t]))
        for top, t in runs))


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Evaluations of all reduced monomials of degree <= d at every affine point.

    Each row is `bytes`: rows[i][j] is the value of the monomial with
    exponent row_labels[i] at the j-th point of F_q^m.  Rows are ordered
    by total degree, then descending lexicographic on the exponent
    tuple; columns lexicographically by point coordinates.
    """

    field: FieldTable
    rows: tuple
    row_labels: tuple


def _field_rank(field: FieldTable, rows) -> int:
    """Rank over GF(q) of `bytes` rows, by Gaussian elimination."""
    A = list(rows)
    nrows, ncols = len(A), len(A[0]) if A else 0
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        A[r] = field.vscale(field.inv(A[r][c]), A[r])
        for i in range(r + 1, nrows):
            if A[i][c]:
                A[i] = field.vadd(A[i], field.vscale(field.neg(A[i][c]), A[r]))
        r += 1
    return r


def check_matrix_caps(params: CodeParams) -> None:
    """Raise ValueError if the generator matrix of `params` has more
    columns (q^m) than MAX_POINTS or more cells (rows times columns)
    than MAX_CELLS."""
    n = _points_under_cap(params.q, params.m, MAX_POINTS, "column")
    if (k := params.dimension) * n > MAX_CELLS:
        raise ValueError(f"{k} x {n} = {k * n} matrix cells exceed the cell cap {MAX_CELLS}")


def rm_generator_matrix(params: CodeParams) -> GeneratorMatrix:
    """Build the generator matrix of RM(d, m) over F_q by direct evaluation."""
    check_matrix_caps(params)
    q, d, m, k = params.q, params.d, params.m, params.dimension

    field = build_field(q)
    exponents = [a for a in itertools.product(range(q), repeat=m) if sum(a) <= d]
    exponents.sort(key=lambda a: (sum(a), tuple(-c for c in a)))
    if len(exponents) != k:
        raise AssertionError(f"{len(exponents)} exponent tuples, not the dimension {k}")

    # powers[i][e-1] = x_i^e at every point, e <= min(d, q-1), so each is a
    # row; coordinate i is constant on runs of q^(m-1-i) points, q^i times
    powers = [
        [b"".join(bytes([field.pow(a, e)]) * q ** (m - 1 - i) for a in range(q)) * q**i
         for e in range(1, min(d, q - 1) + 1)]
        for i in range(m)
    ]
    ones = bytes([1]) * q**m
    rows = []
    for alpha in exponents:
        row = ones
        for i, e in enumerate(alpha):
            if e:
                row = field.vmul(row, powers[i][e - 1])
        rows.append(row)
    del powers  # before the elimination copy

    if _field_rank(field, rows) != k:
        raise ValueError("evaluation matrix is rank-deficient")
    return GeneratorMatrix(field=field, rows=tuple(rows), row_labels=tuple(exponents))


def _rref_bases(k: int, r: int, q: int):
    """Yield every r-dimensional subspace of F_q^k exactly once.

    Each subspace is produced as its unique reduced-row-echelon basis,
    a tuple of r `bytes` rows of k field elements (one byte each, so a
    basis is no bigger than the generator matrix): pick the pivot
    columns, put 1s there, and run through all field values for the
    free positions (right of the row's pivot, outside pivot columns).
    """
    for pivots in itertools.combinations(range(k), r):
        pivot_set = set(pivots)
        free = [(i, j) for i in range(r) for j in range(pivots[i] + 1, k) if j not in pivot_set]
        for values in itertools.product(range(q), repeat=len(free)):
            B = [bytearray(k) for _ in range(r)]
            for i, p in enumerate(pivots):
                B[i][p] = 1
            for (i, j), v in zip(free, values):
                B[i][j] = v
            for i, row in enumerate(B):
                B[i] = bytes(row)  # one row at a time, so one basis copy at most
            yield tuple(B)


def _count_subspaces(k: int, r: int, q: int, cap: int) -> int:
    """[k, r]_q, or ValueError if it exceeds `cap`; [k, r]_q >= q^(r(k-r)),
    so a huge count is named (a Gaussian binomial), not computed."""
    bits = r * (k - r) * (q.bit_length() - 1)
    return _capped(
        lambda: gaussian_binomial(k, r, q), bits, f"[{k}, {r}]_{q}", cap,
        lambda shown: f"{shown} subspaces exceeds the cap {cap};"
        " use the lexicographic oracle for these parameters",
    )


def _gray_steps(q: int, n: int):
    """Walk {0..q-1}^n from all zeros in reflected q-ary Gray order, the
    last digit fastest, yielding (position, old, new) for each of the
    q^n - 1 steps: each step moves one digit by +-1, and every tuple is
    reached exactly once.  At step t the digit that moves sits as many
    places from the end as t has trailing zeros in base q; a digit
    reverses its direction at 0 and q - 1.

    So between two steps of the first n - b digits the last b run the
    walk on {0..q-1}^b, forward and reversed in turn: `_gray_walk`
    replays that walk as a cached block (`_gray_block`) and steps only
    the first n - b digits here."""
    digits, step = [0] * n, [1] * n
    for t in range(1, q**n):
        pos = n - 1
        while not t % q:
            t //= q
            pos -= 1
        old = digits[pos]
        digits[pos] = new = old + step[pos]
        if new == 0 or new == q - 1:
            step[pos] = -step[pos]
        yield pos, old, new


# a Gray block walks the last b digits with q^b <= _GRAY_BLOCK, so it
# has at most 63 steps per direction
_GRAY_BLOCK = 64


@functools.cache  # (q, b): 32 entries over SUPPORTED_Q; `build_field` raises for any other q
def _gray_block(q: int, b: int) -> tuple:
    """The walk `_gray_steps(q, b)` forward and reversed, each a tuple of
    (position - b, new - old in GF(q)) steps.  Positions count from the
    end, so a block serves the last b digits of a walk of any length."""
    field = build_field(q)
    sub = lambda x, y: field.add(x, field.neg(y))
    steps = [(pos - b, old, new) for pos, old, new in _gray_steps(q, b)]
    return (
        tuple((pos, sub(new, old)) for pos, old, new in steps),
        tuple((pos, sub(old, new)) for pos, old, new in reversed(steps)),
    )


def _gray_walk(field: FieldTable, n: int):
    """The steps of `_gray_steps(q, n)` as (position, new - old in GF(q))
    pairs, where a position in the last b digits is negative (counted
    from the end).  b is the largest b <= n with q^b <= _GRAY_BLOCK; the
    last b digits replay a cached forward or reversed `_gray_block` in
    turn, in C, and only the other n - b digits step through
    `_gray_steps`, each with one lookup of new - old."""
    q, add, neg = field.q, field.add_table, field.neg_table
    b = 0
    while b < n and q ** (b + 1) <= _GRAY_BLOCK:
        b += 1
    blocks = _gray_block(q, b)

    def runs():
        yield blocks[0]
        for t, (pos, old, new) in enumerate(_gray_steps(q, n - b), start=1):
            yield ((pos, add[new][neg[old]]),)
            yield blocks[t % 2]

    return itertools.chain.from_iterable(runs())


def min_subspace_support(
    params: CodeParams, r: int, cap: int = DEFAULT_SUBSPACE_CAP
) -> int:
    """Exhaustive r-th generalized Hamming weight of RM(d, m).

    Enumerates every r-dimensional subspace of the message space through
    its reduced-row-echelon basis, encodes the basis through the
    generator matrix, and takes the minimum number of coordinates where
    some basis codeword is nonzero.  For each choice of pivot columns
    the free entries (right of a row's pivot, outside the pivot columns)
    run through every field value in Gray order (`_gray_walk`, the last
    row's last free column fastest), so consecutive bases differ in one
    entry (i, j): row i's codeword gains c * g_j, c = new - old, one
    scale of g_j and one add.  The walk gives c with each step: the
    fastest entries replay a cached block of at most 63 steps, in C, and
    the slower ones step through `_gray_steps`; the count of subspaces
    scanned is still checked against [k, r]_q.  A codeword is the
    integer of its bytes, one byte per coordinate.  In characteristic 2
    an element's bits are its coefficients over F_2, so the add is a
    xor; for odd p one multiply-add packs the pairs x_t*q + y_t and one
    translate maps them.  Elements are below 16, so adding 0x7f to every byte carries
    into none and sets a byte's top bit iff it is nonzero: its support
    mask.  The union of the leading r - 1 supports is recomputed only
    when one of those rows changes.  Ground truth by definition; only
    viable at desk scale.
    """
    k, q = _check_rank(params, r), params.q
    n_subspaces = _count_subspaces(k, r, q, cap)

    gen = rm_generator_matrix(params)
    field, g, n = gen.field, gen.rows, params.length
    vscale, from_bytes = field.vscale, int.from_bytes
    if field.p == 2:
        add = operator.xor
    else:
        pairs = field._add_pairs
        add = lambda x, y: from_bytes((x * q + y).to_bytes(n, "big").translate(pairs), "big")
    low, high = from_bytes(b"\x7f" * n, "big"), from_bytes(b"\x80" * n, "big")

    best = params.length + 1
    seen = 0
    last = r - 1
    for pivots in itertools.combinations(range(k), r):
        pivot_set = set(pivots)
        # each free entry (i, j) as row i and the generator row g_j
        free = [(i, g[j]) for i in range(r) for j in range(pivots[i] + 1, k) if j not in pivot_set]
        # every free entry starts at 0, so row i encodes to g_(pivot i)
        rows = [from_bytes(g[p], "big") for p in pivots]
        supports = [(cw + low) & high for cw in rows]
        head = functools.reduce(operator.or_, supports[:last], 0)
        best = min(best, (head | supports[last]).bit_count())
        seen += 1
        for pos, c in _gray_walk(field, len(free)):
            i, gj = free[pos]
            rows[i] = cw = add(rows[i], from_bytes(gj if c == 1 else vscale(c, gj), "big"))
            supports[i] = (cw + low) & high
            if i != last:
                head = functools.reduce(operator.or_, supports[:last], 0)
            count = (head | supports[last]).bit_count()
            if count < best:
                best = count
            seen += 1
    if seen != n_subspaces:
        raise AssertionError(f"scanned {seen} subspaces, not [{k}, {r}]_{q} = {n_subspaces}")
    return best
