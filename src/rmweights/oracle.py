"""Independent brute-force verifiers for the closed-form machinery.

Three oracles, each deliberately naive:

* direct enumeration of reduced exponent tuples (counting and
  descending-lexicographic ranking),
* evaluation of every reduced monomial at every affine point to build
  actual generator matrices over small fields,
* exhaustive minimum-support search over all r-dimensional subspaces of
  the message space, enumerated once each via reduced-row-echelon
  canonical bases.

Field arithmetic uses full lookup tables.  Extension fields are built
modulo pinned irreducible polynomials: x^2+x+1 for GF(4), x^3+x+1 for
GF(8), x^2+1 for GF(9), x^4+x+1 for GF(16).  The field axioms are
re-verified exhaustively every time a table is constructed.
"""

from __future__ import annotations

import itertools
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .dims import CodeParams, _smallest_prime_factor

DEFAULT_TUPLE_CAP = 10**8
DEFAULT_SUBSPACE_CAP = 10**7
DEFAULT_MAX_POINTS = 10**6
DEFAULT_MAX_ROWS = 10**4

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
    two identities.  Prime fields are plain modular arithmetic.
    """

    def __init__(self, q: int):
        if q not in SUPPORTED_Q:
            raise ValueError(f"unsupported field size {q}; supported: {SUPPORTED_Q}")
        self.q = q
        self.p = _smallest_prime_factor(q)
        self.degree = 1
        while self.p**self.degree < q:
            self.degree += 1

        idx = np.arange(q, dtype=np.uint8)
        if self.degree == 1:
            self.add_table = ((idx[:, None] + idx[None, :]) % q).astype(np.uint8)
            self.mul_table = ((idx[:, None].astype(int) * idx[None, :]) % q).astype(np.uint8)
        else:
            irr = _IRREDUCIBLE[q]
            p, k = self.p, self.degree
            digits = [[(i // p**j) % p for j in range(k)] for i in range(q)]
            undig = lambda ds: sum(c * p**j for j, c in enumerate(ds))
            self.add_table = np.zeros((q, q), dtype=np.uint8)
            self.mul_table = np.zeros((q, q), dtype=np.uint8)
            for a in range(q):
                for b in range(q):
                    s = [(x + y) % p for x, y in zip(digits[a], digits[b])]
                    self.add_table[a, b] = undig(s)
                    self.mul_table[a, b] = undig(_poly_mul_mod(digits[a], digits[b], irr, p))

        self.neg_table = np.argmax(self.add_table == 0, axis=1).astype(np.uint8)
        self.inv_table = np.argmax(self.mul_table == 1, axis=1).astype(np.uint8)
        self._check_axioms()

    def _check_axioms(self):
        q = self.q
        idx = np.arange(q)
        A, M = self.add_table, self.mul_table
        ok = bool((A == A.T).all() and (M == M.T).all())
        ok &= bool((A[0] == idx).all() and (M[1] == idx).all())
        ok &= bool((A[A[:, :, None], idx[None, None, :]] == A[idx[:, None, None], A[None, :, :]]).all())
        ok &= bool((M[M[:, :, None], idx[None, None, :]] == M[idx[:, None, None], M[None, :, :]]).all())
        ok &= bool((M[idx[:, None, None], A[None, :, :]] == A[M[:, :, None], M[:, None, :]]).all())
        ok &= bool((A == 0).any(axis=1).all())
        ok &= bool((M[1:] == 1).any(axis=1).all())
        if not ok:
            raise ValueError(f"constructed tables for q={q} violate the field axioms")

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(self.inv_table[a])

    def pow(self, a: int, e: int) -> int:
        """a^e by repeated multiplication; a^0 = 1 for every a, including 0."""
        if e < 0:
            raise ValueError("exponent must be >= 0")
        out = 1
        for _ in range(e):
            out = int(self.mul_table[out, a])
        return out

    def __repr__(self):
        return f"FieldTable(q={self.q})"


def build_field(q: int) -> FieldTable:
    """Construct (and exhaustively self-check) the GF(q) lookup tables."""
    return FieldTable(q)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over F_q."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    assert num % den == 0
    return num // den


def _decimal_or(n: int, fallback: str) -> int | str:
    """n for a cap message, or `fallback` where n has more digits than
    int -> str conversion allows (Python 3.10.7+ limits it; 0 is none)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return n if not limit or n < 10**limit else fallback


def _check_enumeration_args(q: int, d: int, m: int, cap: int) -> None:
    if q < 2:
        raise ValueError("q must be >= 2")
    if m < 0:
        raise ValueError("m must be >= 0")
    if (n := q**m) > cap:
        raise ValueError(f"q^m = {_decimal_or(n, f'{q}^{m}')} exceeds the enumeration cap {cap}")


def count_reduced_monomials(q: int, d: int, m: int, cap: int = DEFAULT_TUPLE_CAP) -> int:
    """Count tuples in {0..q-1}^m with sum <= d by walking all of them."""
    _check_enumeration_args(q, d, m, cap)
    return sum(1 for t in itertools.product(range(q), repeat=m) if sum(t) <= d)


def enumerate_tuples(q: int, d: int, m: int, cap: int = DEFAULT_TUPLE_CAP) -> tuple:
    """All tuples in {0..q-1}^m with sum <= d, descending lexicographic."""
    _check_enumeration_args(q, d, m, cap)
    # filter, then sort: slower than generating in order, but the
    # result is obviously the descending lexicographic listing
    tuples = (t for t in itertools.product(range(q), repeat=m) if sum(t) <= d)
    return tuple(sorted(tuples, reverse=True))


def e_bar_lex_column(params: CodeParams, cap: int = DEFAULT_TUPLE_CAP) -> tuple:
    """Reference e_bar for every rank at once, straight from one
    descending-lexicographic tuple listing: entry r-1 is
    sum_i mu_i q^(m-i) for the r-th tuple mu."""
    tuples = enumerate_tuples(params.q, params.d, params.m, cap)
    places = [params.q ** (params.m - 1 - j) for j in range(params.m)]
    return tuple(sum(map(operator.mul, mu, places)) for mu in tuples)


def e_bar_lex(params: CodeParams, r: int, cap: int = DEFAULT_TUPLE_CAP) -> int:
    """Reference e_bar at rank r: entry r-1 of `e_bar_lex_column`."""
    column = e_bar_lex_column(params, cap)
    if not 1 <= r <= len(column):
        raise ValueError(f"r must be in [1, {len(column)}]")
    return column[r - 1]


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Evaluations of all reduced monomials of degree <= d at every affine point.

    rows[i, j] is the value of the monomial with exponent row_labels[i]
    at the point column_labels[j], as a field-element index.  Rows are
    ordered by total degree, then descending lexicographic on the
    exponent tuple; columns lexicographically by point coordinates.
    """

    params: CodeParams
    field: FieldTable
    rows: np.ndarray
    row_labels: tuple
    column_labels: tuple


def _field_rank(field: FieldTable, matrix: np.ndarray) -> int:
    """Rank over GF(q) by Gaussian elimination with table arithmetic."""
    A = matrix.copy()
    nrows, ncols = A.shape
    add, mul = field.add_table, field.mul_table
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if A[i, c]), None)
        if piv is None:
            continue
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        A[r] = mul[field.inv(int(A[r, c])), A[r]]
        for i in range(r + 1, nrows):
            if A[i, c]:
                factor = field.neg(int(A[i, c]))
                A[i] = add[A[i], mul[factor, A[r]]]
        r += 1
    return r


def rm_generator_matrix(
    params: CodeParams,
    max_points: int = DEFAULT_MAX_POINTS,
    max_rows: int = DEFAULT_MAX_ROWS,
) -> GeneratorMatrix:
    """Build the generator matrix of RM(d, m) over F_q by direct evaluation."""
    q, d, m = params.q, params.d, params.m
    n = q**m
    if n > max_points:
        raise ValueError(f"q^m = {_decimal_or(n, f'{q}^{m}')} exceeds the column cap {max_points}")
    k = params.dimension
    if k > max_rows:
        raise ValueError(f"dimension {k} exceeds the row cap {max_rows}")

    field = build_field(q)
    exponents = [a for a in itertools.product(range(q), repeat=m) if sum(a) <= d]
    exponents.sort(key=lambda a: (sum(a), tuple(-c for c in a)))
    assert len(exponents) == k
    points = tuple(itertools.product(range(q), repeat=m))
    pts = np.array(points, dtype=np.uint8)

    # pow_table[a, e] = a^e with the 0^0 = 1 convention
    pow_table = np.zeros((q, q), dtype=np.uint8)
    pow_table[:, 0] = 1
    for e in range(1, q):
        pow_table[:, e] = field.mul_table[pow_table[:, e - 1], np.arange(q)]

    rows = np.empty((k, n), dtype=np.uint8)
    for ridx, alpha in enumerate(exponents):
        row = np.ones(n, dtype=np.uint8)
        for i in range(m):
            if alpha[i]:
                row = field.mul_table[row, pow_table[pts[:, i], alpha[i]]]
        rows[ridx] = row

    if _field_rank(field, rows) != k:
        raise ValueError("evaluation matrix is rank-deficient")
    return GeneratorMatrix(
        params=params,
        field=field,
        rows=rows,
        row_labels=tuple(exponents),
        column_labels=points,
    )


def _rref_bases(k: int, r: int, q: int):
    """Yield every r-dimensional subspace of F_q^k exactly once.

    Each subspace is produced as its unique reduced-row-echelon basis:
    pick the pivot columns, put 1s there, and run through all field
    values for the free positions (right of the row's pivot, outside
    pivot columns).
    """
    for pivots in itertools.combinations(range(k), r):
        base = np.zeros((r, k), dtype=np.uint8)
        for i, p in enumerate(pivots):
            base[i, p] = 1
        free = [
            (i, j)
            for i in range(r)
            for j in range(pivots[i] + 1, k)
            if j not in pivots
        ]
        for values in itertools.product(range(q), repeat=len(free)):
            B = base.copy()
            for (i, j), v in zip(free, values):
                B[i, j] = v
            yield B


def min_subspace_support(
    params: CodeParams, r: int, cap: int = DEFAULT_SUBSPACE_CAP
) -> int:
    """Exhaustive r-th generalized Hamming weight of RM(d, m).

    Enumerates every r-dimensional subspace of the message space,
    encodes its canonical basis through the generator matrix, and takes
    the minimum number of coordinates where some basis codeword is
    nonzero.  Ground truth by definition; only viable at desk scale.
    """
    k = params.dimension
    if not 1 <= r <= k:
        raise ValueError(f"r must be in [1, {k}]")
    n_subspaces = gaussian_binomial(k, r, params.q)
    if n_subspaces > cap:
        shown = _decimal_or(n_subspaces, f"[{k}, {r}]_{params.q}")  # Gaussian binomial
        raise ValueError(
            f"{shown} subspaces exceeds the cap {cap};"
            " use the lexicographic oracle for these parameters"
        )

    gen = rm_generator_matrix(params)
    q, n = params.q, params.length
    add = gen.field.add_table
    # scaled[v, j] = v * (row j of the generator matrix)
    scaled = gen.field.mul_table[
        np.arange(q, dtype=np.uint8)[:, None, None], gen.rows[None, :, :]
    ]

    best = n + 1
    seen = 0
    for basis in _rref_bases(k, r, q):
        nonzero = np.zeros(n, dtype=bool)
        for i in range(r):
            cw = np.zeros(n, dtype=np.uint8)
            for j in np.flatnonzero(basis[i]):
                cw = add[cw, scaled[basis[i, j], j]]
            nonzero |= cw != 0
        support = int(np.count_nonzero(nonzero))
        if support < best:
            best = support
        seen += 1
    assert seen == n_subspaces
    return best
