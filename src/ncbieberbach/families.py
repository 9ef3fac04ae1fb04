"""Built-in action families and their reference data; data only, no code.

Two registries of finite-group actions on the three-torus generators are kept:

* ``CLASSICAL``: the undeformed actions (coefficients are plain roots of
  unity, targets are exponent vectors), each family the tuple of its group
  generators: one for a cyclic Z_N family, two for a Z2 x Z2 family.  These
  drive the cocycle compatibility scan and give the holonomy
  (``lattice.holonomy_matrix``); ``FAMILIES`` is their report order, and
  ``CYCLIC_FAMILIES`` and ``PRODUCT_FAMILIES`` split it by the number of
  generators.

* ``DEFORMED``: the order-N actions on the twisted torus with the standard
  preset (theta_23 = -theta), one generator each, since every deformed
  family is cyclic.  Their coefficients may carry theta-phases; each family
  has exact order N there, which the test suite verifies.

Image coefficients are stored as pairs (a, b) meaning e^{i pi (a + b theta)},
so the registries stay independent of the cyclotomic field order.

``SCAN_REFERENCE`` records the admissible theta patterns as tabulated in the
literature for each family.  Two of those rows (B6 and N2) disagree with what
the exact compatibility check yields; ``SCAN_KNOWN_DISCREPANCIES`` documents
the corrected sets so the difference is surfaced rather than patched over.
``FIXTURE_TRANSPOSITIONS`` pins the one basis exchange a displayed beta_hat_*
matrix is known to make.

``K0_GENERATORS`` keeps the paper's K0 data of the plane crossed products:
the names of the stems and classes, the typed-in column of the exotic class,
and the tabulated coefficients that fail their order precondition.  The
stems and their classes are derived from the deformed plane action in
``lattice`` and ``crossed``, every other beta_hat_* column in ``ktheory``.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "FAMILIES",
    "CYCLIC_FAMILIES",
    "PRODUCT_FAMILIES",
    "K_FAMILIES",
    "CLASSICAL",
    "DEFORMED",
    "SCAN_REFERENCE",
    "SCAN_KNOWN_DISCREPANCIES",
    "FIXTURE_TRANSPOSITIONS",
    "K0Spec",
    "K0_GENERATORS",
    "K_EXPECTED",
]

F = Fraction

# A family is the tuple of its group generators, each (order, image specs);
# an image spec is ((a, b), target-exponents), the coefficient being
# e^{i pi (a + b theta)}.  The cyclic families have one generator, the
# Z2 x Z2 families two, sharing the B2 generator.
_E1 = (1, 0, 0)
_E2 = (0, 1, 0)
_E3 = (0, 0, 1)
_B2 = (2, [((1, 0), _E1), ((0, 0), (0, -1, 0)), ((0, 0), (0, 0, -1))])

CLASSICAL = {
    "B2": (_B2,),
    "B3": ((3, [((F(2, 3), 0), _E1), ((0, 0), (0, 0, -1)), ((0, 0), (0, 1, -1))]),),
    "B4": ((4, [((F(1, 2), 0), _E1), ((0, 0), _E3), ((0, 0), (0, -1, 0))]),),
    "B6": ((6, [((F(1, 3), 0), _E1), ((0, 0), _E3), ((0, 0), (0, -1, 1))]),),
    "B5": (_B2, (2, [((0, 0), (-1, 0, 0)), ((1, 0), _E2), ((1, 0), (0, 0, -1))])),
    "N1": ((2, [((1, 0), _E1), ((0, 0), _E2), ((0, 0), (0, 0, -1))]),),
    "N2": ((2, [((1, 0), _E1), ((0, 0), (0, 1, 1)), ((0, 0), (0, 0, -1))]),),
    "N3": (_B2, (2, [((0, 0), _E1), ((1, 0), _E2), ((0, 0), (0, 0, -1))])),
    "N4": (_B2, (2, [((0, 0), _E1), ((1, 0), _E2), ((1, 0), (0, 0, -1))])),
}

# Every deformed family is cyclic, so an entry is its one generator.
# The tabulated cubic and hexic rows write the plane images as the product
# e^{-i pi theta} V* W; on the standard preset that product is exactly the
# basis monomial delta_(0,-1,1) (the phase cancels against the normal form),
# which is what an image spec stores, so the hexic row is the classical one.
# The test suite asserts the tabulated product form against these entries.
DEFORMED = {
    "B2": CLASSICAL["B2"][0],
    "B3": (3, [((F(2, 3), 0), _E1), ((0, 0), (0, -1, 1)), ((0, 0), (0, -1, 0))]),
    "B4": CLASSICAL["B4"][0],
    "B6": CLASSICAL["B6"][0],
    "N1": (2, [((0, 0), (-1, 0, 0)), ((1, 0), _E2), ((0, 0), _E3)]),
    "N2": (2, [((0, 0), (-1, 0, 0)), ((1, 0), _E2), ((0, 0), (-1, 0, 1))]),
}

FAMILIES = tuple(CLASSICAL)
CYCLIC_FAMILIES = tuple(f for f in FAMILIES if len(CLASSICAL[f]) == 1)
PRODUCT_FAMILIES = tuple(f for f in FAMILIES if len(CLASSICAL[f]) > 1)
K_FAMILIES = ("B2", "B3", "B4", "B6")

_SLOTS = ("12", "13", "23")


def _pairs(values, slots):
    return frozenset(tuple(zip(slots, combo)) for combo in values)


_HALVES = (F(0), F(1, 2))
_THIRD_PAIRS = ((F(0), F(0)), (F(1, 3), F(2, 3)), (F(2, 3), F(1, 3)))

# Admissible theta patterns as tabulated: either one free (symbolic) slot with
# constrained values for the other two, or no free slot at all.
SCAN_REFERENCE = {
    "B2": ("23", _pairs([(a, b) for a in _HALVES for b in _HALVES], ("12", "13"))),
    "B3": ("23", _pairs(_THIRD_PAIRS, ("12", "13"))),
    "B4": ("23", _pairs([(a, a) for a in _HALVES], ("12", "13"))),
    "B6": ("23", _pairs(_THIRD_PAIRS, ("12", "13"))),
    "B5": (None, _pairs([(a, b, c) for a in _HALVES for b in _HALVES for c in _HALVES], _SLOTS)),
    "N1": ("12", _pairs([(a, b) for a in _HALVES for b in _HALVES], ("13", "23"))),
    "N2": ("12", _pairs([(a, b) for a in _HALVES for b in _HALVES], ("13", "23"))),
    "N3": (None, _pairs([(a, b, c) for a in _HALVES for b in _HALVES for c in _HALVES], _SLOTS)),
    "N4": (None, _pairs([(a, b, c) for a in _HALVES for b in _HALVES for c in _HALVES], _SLOTS)),
}

# Families whose tabulated row fails the exact compatibility check, together
# with the set the checker actually produces.  The hexic exponent matrix has
# det(B - 1) = 1, which forces the trivial rational pattern, and the N2 shear
# couples the 12/13 slots, forcing theta_13 = 0.
SCAN_KNOWN_DISCREPANCIES = {
    "B6": ("23", _pairs([(F(0), F(0))], ("12", "13"))),
    "N2": ("12", _pairs([(F(0), b) for b in _HALVES], ("13", "23"))),
}

# The displayed beta_hat_* matrices that order their basis with two classes
# exchanged: the comparison reports exactly this exchange and fails on any other.
FIXTURE_TRANSPOSITIONS = {"B2": ("[e01]", "[e10]")}


class K0Spec(NamedTuple):
    """The paper's K0 data of one family, by name; ``crossed._derived_basis`` derives the basis.

    * ``stems``: the names of the order-N stems, in derivation order;
    * ``classes``: the class labels, "[1]" then one per derived class, in
      derivation order;
    * ``exotic``: (label, column), the class with no element here and its
      beta_hat_* image by label; "E" and "-E" stand for +/- epsilon, as in
      the fixture files;
    * ``tabulated``: (stem, (a, b), message), a tabulated coefficient that
      fails x^N = 1 and the anomaly it raises (%r is the residual x^N - 1);
      the stem carries the correction.
    """

    stems: tuple
    classes: tuple
    exotic: tuple
    tabulated: tuple = ()


K0_GENERATORS = {
    "B2": K0Spec(
        stems=("p", "Vp", "Wp", "VWp"),
        classes=("[1]", "[e00]", "[e01]", "[e10]", "[e11]"),
        exotic=("[M2]", (("[M2]", 1), ("[e00]", -1), ("[e11]", 1), ("[e10]", "-E"), ("[e01]", "E"))),
    ),
    "B3": K0Spec(
        stems=("p", "X", "Y"),
        classes=("[1]", "[Q1(p)]", "[Q0(p)]", "[Q1(X)]", "[Q0(X)]", "[Q1(Y)]", "[Q0(Y)]"),
        exotic=("[M3]", (("[M3]", 1), ("[Q0(p)]", -1), ("[Q0(X)]", -1), ("[Q0(Y)]", -1), ("[1]", 1))),
        tabulated=(("Y", (0, F(2, 3)),
                    "tabulated coefficient e^{2 pi i theta/3} on V^2 p gives Y^3 - 1 = %r;"
                    " the minimal theta-phase correction e^{4 pi i theta/3} restores"
                    " Y^3 = 1 and is used below"),),
    ),
    "B4": K0Spec(
        stems=("p", "x", "Vp2"),
        classes=("[1]", "[Q2(p)]", "[Q1(p)]", "[Q0(p)]", "[Q2(x)]", "[Q1(x)]", "[Q0(x)]", "[Q0(Vp2)]"),
        exotic=("[M4]", (("[M4]", 1), ("[Q0(Vp2)]", -1), ("[Q0(p)]", -1), ("[Q0(x)]", -1), ("[1]", 1))),
    ),
    "B6": K0Spec(
        stems=("p", "y", "Vp3"),
        classes=("[1]", "[Q4(p)]", "[Q3(p)]", "[Q2(p)]", "[Q1(p)]", "[Q0(p)]", "[Q2(y)]", "[Q0(y)]", "[Q0(Vp3)]"),
        exotic=("[M6]", (("[M6]", 1), ("[Q0(p)]", -1), ("[Q0(y)]", -1), ("[Q0(Vp3)]", -1), ("[1]", 1))),
        tabulated=(("y", (F(1, 3), 0),
                    "tabulated coefficient e^{i pi/3} on V p^2 gives y^6 - 1 = %r; with the"
                    " theta-phase correction e^{i pi theta/3} alone one gets y^3 = -1, which"
                    " kills the even-index projectors, so the sixth root is dropped and"
                    " y = e^{i pi theta/3} V p^2 (y^3 = 1) is used below"),),
    ),
}

# Expected K-groups per family: (free rank, torsion chain) for K0 and K1.
K_EXPECTED = {
    "B2": ((2, (2, 2)), (2, ())),
    "B3": ((2, (3,)), (2, ())),
    "B4": ((2, (2,)), (2, ())),
    "B6": ((2, ()), (2, ())),
}
