"""Dimensions of q-ary Reed-Muller codes, three ways.

RM(d, m) over F_q is spanned by the reduced monomials: exponents in
{0, ..., q-1}^m with total degree at most d.  Its dimension rho_q(d, m)
therefore counts lattice points, and the package computes that count by
a closed sum (a partial binomial sum at q = 2, inclusion-exclusion at
q > 2), by a recursion over the last variable, and (for d <= q-1) by a
single binomial coefficient.  This script runs
all three side by side and checks them against literal enumeration.
"""

from rmweights import CodeParams, rho, rho_binomial, rho_recursive
from rmweights.oracle import count_reduced_monomials

print("dimension of RM(3, 5) over F_2, four routes:")
print("  formula     ", rho(2, 3, 5))
print("  recursion   ", rho_recursive(2, 3, 5))
print("  enumeration ", count_reduced_monomials(2, 3, 5))
print("  (binomial route needs d <= q-1, so it sits this one out)")
print()

print("dimension of RM(2, 3) over F_5, where the binomial applies:")
print("  formula     ", rho(5, 2, 3))
print("  binomial    ", rho_binomial(5, 2, 3))
print()

# the conventions at the edges make the recursions work out
print("edge conventions:")
print("  rho(2, -1, 3) =", rho(2, -1, 3), " (negative degree counts nothing)")
print("  rho(2, 1, -1) =", rho(2, 1, -1), " (m = -1 counts nothing)")
print("  rho(3, 0, 4)  =", rho(3, 0, 4), " (only the constant)")
print()

# once d reaches m(q-1) every reduced monomial is in range: the code is
# the whole space F_q^(q^m)
q, m = 3, 4
print(f"saturation over F_{q} with m = {m}: rho at d = m(q-1) =",
      rho(q, m * (q - 1), m), "= q^m =", q**m)
print()

params = CodeParams(4, 3, 3)
print("CodeParams(4, 3, 3):")
print("  block length q^m =", params.length)
print("  dimension        =", params.dimension)
print()

print("rho_q(d, 5) as d grows, for several q:")
for q in (2, 3, 4):
    row = [rho(q, d, 5) for d in range(0, 5 * (q - 1) + 1)]
    print(f"  q={q}: {row}")
