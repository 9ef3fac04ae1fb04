"""Finite cyclic actions on the twisted torus and the admissibility scan.

Shows the built-in order-N actions, exact order and cocycle-compatibility
checking, the homogeneous decomposition, and the scan that recovers which
rational twists each undeformed action tolerates.  The scan also surfaces the
two tabulated rows (B6, N2) that the exact check refutes.
"""
from ncbieberbach.actions import (
    check_compatibility,
    check_order,
    deformed_action,
    homogeneous_components,
    parse_action_text,
    scan_cocycles,
)
from ncbieberbach.families import FAMILIES, SCAN_KNOWN_DISCREPANCIES
from ncbieberbach.torus import standard_torus

alg = standard_torus(3)
u, v, w = alg.basis_generators()

b2 = deformed_action("B2", alg)
print("B2 sends u to", b2.apply(u))
print("B2 on v w   :", b2.apply(v * w) == v.star() * w.star())

for family in ("B2", "B3", "B4", "B6", "N1", "N2"):
    action = deformed_action(family, alg)
    print(f"{family}: order exact: {check_order(action)},",
          f"compatible: {check_compatibility(action)}")

# Spectral pieces of v under the order-2 action: v = even part + odd part.
comps = homogeneous_components(b2, v)
print("v even part:", comps[0])
print("v odd  part:", comps[1])

# The same actions load from a small declarative text format.
b3_text = """
order: 3
e: U -> w(1/3) U
e: V -> t(-1) V* W
e: W -> V*
"""
parsed = parse_action_text(b3_text, alg)
print("parsed action equals the built-in B3:", parsed == (deformed_action("B3", alg),))

print()
print("admissible rational twists per family (grid denominator 6):")
for family in FAMILIES:
    result = scan_cocycles(family, 6)
    slot, patterns = result.computed()
    flag = "" if result.matches_reference() else "   <-- differs from the tabulated row"
    print(f"  {family}: free slot {slot}, {len(patterns)} admissible pattern(s){flag}")
    if family in SCAN_KNOWN_DISCREPANCIES:
        for assignment in sorted(patterns):
            print("      ", {s: str(val) for s, val in assignment})
