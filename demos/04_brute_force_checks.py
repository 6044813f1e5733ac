"""Brute-force oracles backing the closed forms.

Nothing here is clever on purpose.  The oracles enumerate exponent
tuples, build actual generator matrices over table-driven small fields,
and in the extreme walk every r-dimensional subspace of the message
space.  They exist so the fast closed-form answers can be checked
against ground truth at desk scale.
"""

from rmweights import CodeParams, ghw, hierarchy
from rmweights.oracle import (
    build_field,
    e_bar_lex_column,
    enumerate_tuples,
    gaussian_binomial,
    min_subspace_support,
    rm_generator_matrix,
)
from rmweights.weights import e_bar

# table-driven field arithmetic, self-checked against the axioms on
# construction; GF(4) is built modulo x^2 + x + 1
f4 = build_field(4)
print("GF(4) sanity: 2 * 3 =", f4.mul(2, 3), " 2 + 3 =", f4.add(2, 3),
      " inv(2) =", f4.inv(2))
print()

# ranking exponent tuples in descending lexicographic order gives an
# independent route to e_bar: take the r-th tuple, read its base-q value
p = CodeParams(2, 3, 5)
print("lex oracle vs closed form on RM(3, 5) over F_2:")
column = e_bar_lex_column(p)
agree = all(e_bar(p, r) == column[r - 1] for r in range(1, p.dimension + 1))
print("  all", p.dimension, "ranks agree:", agree)
print("  first tuples:", enumerate_tuples(2, 3, 5)[:3])
print()

# generator matrices by evaluating every reduced monomial everywhere
gen = rm_generator_matrix(CodeParams(2, 1, 2))
print("generator matrix of RM(1, 2) over F_2 (rows 1, x1, x2):")
for label, row in zip(gen.row_labels, gen.rows):
    print(f"  {label}: {list(row)}")
print()

# the exhaustive oracle encodes every subspace of the message space and
# minimizes the support size; pure definition, exponential cost
p = CodeParams(2, 2, 3)
k = p.dimension
print(f"RM(2, 3) over F_2: k = {k},",
      f"{gaussian_binomial(k, 2, 2)} two-dimensional subspaces to try")
for r in (1, 2, 3):
    exhaustive = min_subspace_support(p, r)
    print(f"  r = {r}: exhaustive {exhaustive}, closed form {ghw(p, r)}")
print()
print("full hierarchy for the record:", tuple(hierarchy(p)))
