"""The stable-isomorphism witnesses inside the three-torus crossed product.

The pair (p, p_hat) generates a full matrix algebra: p_hat^N = 1 and
p p_hat = lambda p_hat p hold exactly, the derived matrix units satisfy the
unit relations, and every torus element decomposes as an N x N matrix over
the invariant subalgebra, multiplicatively.
"""
import random

from ncbieberbach.crossed import crossed_product, random_torus_element

for family in ("B2", "B3", "B4", "B6"):
    cp = crossed_product(family, dim=3)
    ph = cp.phat()
    print(f"{family}: p_hat^{cp.n} == 1: {ph ** cp.n == cp.one()},",
          f"p p_hat == lambda p_hat p: {cp.p() * ph == ph * cp.p() * cp.lam}")

cp = crossed_product("B2", dim=3)
units = cp.matrix_units()
print()
print("E00 + E11 == 1  :", units[0][0] + units[1][1] == cp.one())
print("E01 E10 == E00  :", units[0][1] * units[1][0] == units[0][0])
print("E01* == E10     :", units[0][1].star() == units[1][0])

# A random torus element, its invariant components, and its matrix.
rng = random.Random(1)
x = random_torus_element(rng, cp.algebra, 2)
comps = cp.psi_components(x)
print()
print("x reconstructs through the inversion identity:",
      cp.psi_element(comps) == cp.embed(x))
for k, comp in enumerate(comps):
    print(f"  component {k} invariant:", cp.action.apply(comp) == comp)

y = random_torus_element(rng, cp.algebra, 2)
mx, my, mxy = (cp.psi_matrix(cp.psi_components(z)) for z in (x, y, x * y))
product_ok = all(
    sum((mx[i][k] * my[k][j] for k in range(cp.n)), cp.zero()) == mxy[i][j]
    for i in range(cp.n)
    for j in range(cp.n)
)
print("matrix of (x y) equals matrix product:", product_ok)
