"""From the induced map on K0 to the K-groups, with the homology cross-check.

Assembles id - beta_hat_* from the transport formulas, solves the exact
sequence through the Smith normal form, compares against the shipped display
fixtures, and confirms K0 = Z + H1 of the corresponding flat space group.
"""
from ncbieberbach.crossed import crossed_product
from ncbieberbach.ktheory import beta_star_matrix, compare_with_k0, fixture_comparison, pv_solve
from ncbieberbach.lattice import bieberbach_h1, smith_normal_form
from ncbieberbach.verify import verify_beta_star

for family in ("B2", "B3", "B4", "B6"):
    data = beta_star_matrix(family, 1)
    k0, k1 = pv_solve(data)
    snf = smith_normal_form(data.matrix)
    print(f"{family}: K0 = {k0},  K1 = {k1},  divisors {snf.diagonal}")

print()
print("epsilon independence for the order-2 family:",
      pv_solve(beta_star_matrix("B2", 1)) == pv_solve(beta_star_matrix("B2", -1)))

print()
print("display fixtures:")
for family in ("B2", "B3", "B4", "B6"):
    print(f"  {family}: {fixture_comparison(family, 1)}")

print()
print("three-layer consistency for the order-2 family:")
for check in verify_beta_star(crossed_product("B2"), 1):  # the checks, then the anomaly notes
    if check.status != "anomaly":
        print(f"  {check.name.removesuffix('[B2,eps=+1]')}: {'pass' if check.ok else 'FAIL'}")

print()
print("first homology of the space groups:")
for family in ("B2", "B3", "B4", "B6"):
    print(f"  {family}: H1 = {bieberbach_h1(family)},",
          f"K0 == Z + H1: {compare_with_k0(family)}")
