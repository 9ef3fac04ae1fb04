"""Exact arithmetic on the twisted three-torus.

Walks through the scalar layer (cyclotomic numbers, formal theta-phases) and
the twisted group algebra: generators, the defining relations, the cocycle,
and the involution.  Everything printed is an exact symbolic value.
"""
from fractions import Fraction

from ncbieberbach import standard_torus
from ncbieberbach.scalars import PhasedScalar, cyc_root

# Scalars: roots of unity live in the cyclotomic field of order 24 by default.
i = cyc_root(4, 1)
print("i^2                        =", i * i)
print("1 + z3 + z3^2              =", cyc_root(3, 0) + cyc_root(3, 1) + cyc_root(3, 2))

# Formal theta-phases multiply by adding exponents; conjugation flips them.
x = PhasedScalar.phase(Fraction(1, 3), 1)
print("e^{i pi theta/3} cubed     =", x ** 3)
print("conjugate of e^{i pi th} i =", PhasedScalar.phase(1, i).conj())

# Substituting a rational value for theta folds phases into the field.
print("e^{i pi theta} at th=1/2   =", PhasedScalar.phase(1, 1).fold(Fraction(1, 2)))

# The twisted torus: u is central, w and v commute up to e^{2 pi i theta}.
alg = standard_torus(3)
u, v, w = alg.basis_generators()
print()
print("u v == v u                 :", u * v == v * u)
print("w v == e^{2 pi i th} v w   :", w * v == v * w * alg.theta_phase(2))

# The commutation phase shows up when straightening ordered products:
print("(v w)^2 == e^{2 pi i th} v^2 w^2 :",
      (v * w) ** 2 == v ** 2 * w ** 2 * alg.theta_phase(2))

# Monomials are unitary for the involution delta_m -> delta_{-m}.
m = v * w.star() * u
print("m m* == 1                  :", m * m.star() == alg.one())

# The cocycle itself, evaluated on exponent vectors:
print("omega(e3, e2)              =", alg.cocycle((0, 0, 1), (0, 1, 0)))
print("omega(m, m)                =", alg.cocycle((1, -2, 3), (1, -2, 3)))
