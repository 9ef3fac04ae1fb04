"""Reference cocycle scan and commutation check in plain ``Fraction`` arithmetic.

This scan has no integer filter: every grid candidate builds its own
algebra and action, its slot obstructions
s_jk = t_j^T Theta t_k - Theta_jk are summed term by term from the theta
entries, and product families compare the generators' phases on the degree
box with ``Fraction`` exponents.  The order flag iterates the generic-product
reference image of ``action_oracle``.  Only the action builder comes from the
package; no slot-condition, phase or image helper of ``actions`` is used, so
the production filter and this enumeration share no arithmetic.
"""
import functools
import itertools
from fractions import Fraction

from action_oracle import order_ok
from ncbieberbach.actions import classical_action
from ncbieberbach.torus import NcTorus

SLOTS = ("12", "13", "23")
SLOT_INDEX = {"12": (0, 1), "13": (0, 2), "23": (1, 2)}


def theta_pair(algebra, j, k):
    """Theta_jk as an (a, b) pair, from the upper slot entries and antisymmetry."""
    if j > k:
        a, b = theta_pair(algebra, k, j)
        return -a, -b
    a, b = algebra.slots.get((j, k), (Fraction(0), Fraction(0)))
    if algebra.theta_value is not None:
        return a + b * algebra.theta_value, Fraction(0)
    return a, b


def pairing(algebra, m, n):
    """m^T Theta n as an (a, b) exponent pair."""
    a = Fraction(0)
    b = Fraction(0)
    for j in range(algebra.d):
        if not m[j]:
            continue
        for k in range(algebra.d):
            if not n[k]:
                continue
            ea, eb = theta_pair(algebra, j, k)
            a += ea * m[j] * n[k]
            b += eb * m[j] * n[k]
    return a, b


def slot_obstructions(action, algebra):
    """{(j, k): (a, b)} of every slot obstruction of one generator."""
    targets = [img.target for img in action.images]
    out = {}
    for j in range(algebra.d):
        for k in range(j + 1, algebra.d):
            pa, pb = pairing(algebra, targets[j], targets[k])
            ta, tb = theta_pair(algebra, j, k)
            out[(j, k)] = (pa - ta, pb - tb)
    return out


def slots_hold(action, algebra):
    return all(a.denominator == 1 and b == 0 for a, b in slot_obstructions(action, algebra).values())


def phase_poly(action, algebra):
    lin = []
    for img in action.images:
        b, c = img.coeff.single_phase()
        lin.append((Fraction(2 * c.root_exponent(), algebra.order), b))
    return lin, slot_obstructions(action, algebra)


def phase_at(lin, quad, m):
    a = Fraction(0)
    b = Fraction(0)
    for i, mi in enumerate(m):
        if mi:
            a += lin[i][0] * mi
            b += lin[i][1] * mi
    for (j, k), (qa, qb) in quad.items():
        if m[j] and m[k]:
            a += qa * m[j] * m[k]
            b += qb * m[j] * m[k]
    return a, b


def exponent_matrix(action):
    d = len(action.images)
    return [[action.images[j].target[i] for j in range(d)] for i in range(d)]


def mat_vec(mat, m):
    return tuple(sum(row[j] * m[j] for j in range(len(m))) for row in mat)


def generators_commute(g1, g2, algebra, bound):
    """g1 g2 = g2 g1 on every delta_m of the box |m_i| <= bound."""
    a1 = exponent_matrix(g1)
    a2 = exponent_matrix(g2)
    lin1, quad1 = phase_poly(g1, algebra)
    lin2, quad2 = phase_poly(g2, algebra)
    for m in itertools.product(range(-bound, bound + 1), repeat=algebra.d):
        m12 = mat_vec(a2, m)
        m21 = mat_vec(a1, m)
        if mat_vec(a1, m12) != mat_vec(a2, m21):
            return False
        pa2, pb2 = phase_at(lin2, quad2, m)
        pa1, pb1 = phase_at(lin1, quad1, m12)
        qa1, qb1 = phase_at(lin1, quad1, m)
        qa2, qb2 = phase_at(lin2, quad2, m21)
        if (pa2 + pa1 - qa1 - qa2) % 2 != 0 or pb2 + pb1 - qb1 - qb2 != 0:
            return False
    return True


def admissible(family, upper, order):
    """(slot conditions and commutation hold, order flag) for one candidate;
    the grids of several denominators share candidates, so each (family,
    upper entries, order) is certified once."""
    return _admissible(family, tuple(sorted(upper.items())), order)


@functools.cache
def _admissible(family, upper, order):
    algebra = NcTorus(3, dict(upper), order=order)
    gens = classical_action(family, algebra)
    ok = all(slots_hold(g, algebra) for g in gens) and all(
        generators_commute(g1, g2, algebra, 2) for g1, g2 in itertools.combinations(gens, 2)
    )
    return ok, order_ok(gens, algebra) if ok else False


def candidates(denominator):
    """(designated slot or None, sorted assignment, upper entries) for every
    grid candidate, in the order the scan walks them."""
    grid = [Fraction(k, denominator) for k in range(denominator)]
    for designated in (*SLOTS, None):
        fixed = tuple(s for s in SLOTS if s != designated)
        for combo in itertools.product(grid, repeat=len(fixed)):
            upper = {} if designated is None else {SLOT_INDEX[designated]: (0, 1)}
            upper.update({SLOT_INDEX[s]: (v, 0) for s, v in zip(fixed, combo)})
            yield designated, tuple(sorted(zip(fixed, combo))), upper


def reference_scan(family, denominator, order):
    """(patterns, all_rational, order_flags) by certifying every grid candidate."""
    found = {slot: set() for slot in (*SLOTS, None)}
    order_flags = {}
    for designated, key, upper in candidates(denominator):
        ok, order_ok = admissible(family, upper, order)
        if ok:
            found[designated].add(key)
            order_flags[(designated, key)] = order_ok
    all_rational = frozenset(found.pop(None))
    return {slot: frozenset(keys) for slot, keys in found.items()}, all_rational, order_flags
