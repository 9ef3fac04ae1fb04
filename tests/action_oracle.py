"""Reference action image from generic twisted-torus products.

The image of ``delta_m`` is the ordered product of generator-image powers
(ascending generator index) with the cocycle phase divided back out that
relates ``delta_m`` to the same ordered product of basis monomials.  Every
phase comes from ``TorusElement`` multiplication, so nothing here shares the
closed form, the phase polynomial or the slot obstructions of ``actions``.
The homogeneous components are summed the same way, element by element.
"""
import itertools
from fractions import Fraction

from ncbieberbach.scalars import _key_add, certify, cyc_root

ONE_PAIR = (0, (0, 1))


def basis(d):
    return [tuple(int(i == j) for j in range(d)) for i in range(d)]


class Reference:
    """One generator on one algebra; images as (target, r, theta key)."""

    def __init__(self, action, algebra):
        self.action = action
        self.algebra = algebra
        self._images = {}

    def image(self, m):
        """g . delta_m by generic products, cached per monomial."""
        if m in self._images:
            return self._images[m]
        algebra = self.algebra
        prod = algebra.one()
        normal = algebra.one()
        for i, mi in enumerate(m):
            if not mi:
                continue
            img = self.action.images[i]
            base = algebra.delta(img.target) * img.coeff
            prod = prod * (base ** mi if mi > 0 else base.star() ** (-mi))
            normal = normal * algebra.delta([mi if j == i else 0 for j in range(algebra.d)])
        # normal = C(m) * delta_m; the extension divides that phase back out
        target, c_m = normal.single_term()
        certify(target == tuple(m), "normal-ordered product lost its monomial")
        term, coeff = (prod * c_m.conj()).single_term()
        self._images[m] = (term, *coeff.unit_exponents())
        return self._images[m]

    def after(self, pair):
        """g . (zeta^r e^{i pi b theta} delta_t) for pair = (t, r, theta key)."""
        t, r, key = pair
        t, r2, key2 = self.image(t)
        return t, (r + r2) % self.algebra.order, _key_add(key, key2)

    def power(self, k, m):
        """g^k . delta_m, one image at a time."""
        pair = (m, *ONE_PAIR)
        for _ in range(k):
            pair = self.after(pair)
        return pair


def order_ok(gens, algebra):
    """Each generator fixes every delta_{e_i} after its full order, and the
    generators commute on the basis monomials."""
    refs = [Reference(g, algebra) for g in gens]
    units = basis(algebra.d)
    fixed = all(ref.power(ref.action.order, e) == (e, *ONE_PAIR) for ref in refs for e in units)
    return fixed and all(
        r1.after(r2.image(e)) == r2.after(r1.image(e))
        for r1, r2 in itertools.combinations(refs, 2)
        for e in units
    )


def homogeneous_components(action, algebra, x):
    """x_k = (1/N) sum_j conj(lambda)^{kj} (g^j . x) as N^2 scale-and-add
    steps on whole ``TorusElement`` values; the package sums them in one
    kernel pass."""
    n = action.order
    images = [action.apply(x, power=j) for j in range(n)]
    comps = []
    for k in range(n):
        acc = algebra.zero()
        for j, img in enumerate(images):
            acc = acc + img * cyc_root(n, -k * j, order=algebra.order)
        comps.append(acc * Fraction(1, n))
    return comps
