"""Crossed products, spectral projectors, and traces.

Builds the plane crossed products, exercises the dual automorphism and the
spectral projectors behind the K0 generators, and demonstrates the exact
anomaly detection: two tabulated generator coefficients fail their order
precondition by the recorded residual e^{-2 i pi theta}.
"""
from fractions import Fraction

from ncbieberbach.crossed import (
    NotRootOfUnityError,
    canonical_trace,
    crossed_product,
    k0_generator_table,
    tau_parity_trace,
)
from ncbieberbach.verify import hexic_reading_comparison

cp = crossed_product("B2", dim=2)
v, w = cp.torus_generators()
p = cp.p()

print("p^2 == 1        :", p ** 2 == cp.one())
print("p v == v* p     :", p * v == v.star() * p)
print("beta_hat(p)     =", cp.beta_hat(p))

e00 = (cp.one() + p) * Fraction(1, 2)
print("e00 idempotent  :", e00 * e00 == e00)
print("tau(e00)        =", canonical_trace(cp).eval(e00))
print("tau_00(p)       =", tau_parity_trace(cp, 0, 0).eval(p))

# The cubic family: X = e^{i pi theta/3} V p has exact order three...
cp3 = crossed_product("B3", dim=2)
v3, _ = cp3.torus_generators()
x = v3 * cp3.p() * cp3.algebra.theta_phase(Fraction(1, 3))
print()
print("X^3 == 1        :", x ** 3 == cp3.one())

# ... while the tabulated coefficient on V^2 p does not: the projector
# refuses to build and reports the residual exactly.
y_tab = v3 * v3 * cp3.p() * cp3.algebra.theta_phase(Fraction(2, 3))
try:
    cp3.q_projector(y_tab)
except NotRootOfUnityError as err:
    print("tabulated Y refused:", err.residual)
table = k0_generator_table(cp3)
for note in table.anomalies:
    print("anomaly:", note.label, "-", note.message[:72], "...")

# The hexic projector exponents admit a period-3 misreading; compare both.
cp6 = crossed_product("B6", dim=2)
print()
for check in hexic_reading_comparison(cp6):  # rows named hexic-<law>
    print(f"{check.name.replace('-', ' ', 1)}: {check.ok}")
