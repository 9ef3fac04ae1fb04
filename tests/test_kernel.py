"""The multiply-accumulate kernel against a plain term loop.

The reference products below use only the public ``NcTorus.cocycle``,
``ActionOnTorus.power_image`` and ``PhasedScalar`` arithmetic, one term pair
at a time, so they share no code with ``torus.Accumulator``.
"""
import random
from fractions import Fraction

import pytest

from ncbieberbach.crossed import (
    CrossedElement,
    crossed_product,
    psi_multiplicativity_mismatch,
    random_torus_element,
)
from ncbieberbach.families import K_FAMILIES
from ncbieberbach.scalars import PhasedScalar, cyc_root
from ncbieberbach.torus import TorusElement

THETA_ORDER = 120  # folds e^{i pi theta / 3} and friends at theta = 1/5


def rand_scalar(rng, order):
    """Two theta phases, one with a fractional exponent, as the algebra suite draws them."""
    root = cyc_root(order, rng.randrange(order), order=order)
    s = PhasedScalar.phase(Fraction(rng.randint(-3, 3), rng.randint(1, 6)), root, order=order)
    return s + PhasedScalar.of(Fraction(rng.randint(-2, 2), rng.randint(1, 2)), order)


def rand_torus(rng, alg, terms=3):
    data = {}
    for _ in range(terms):
        m = tuple(rng.randint(-2, 2) for _ in range(alg.d))
        data[m] = rand_scalar(rng, alg.order)
    return TorusElement(alg, data)


def rand_crossed(rng, cp):
    return CrossedElement(cp, {k: rand_torus(rng, cp.algebra, 2) for k in rng.sample(range(cp.n), 2)})


def add_into(out, key, c):
    out[key] = out[key] + c if key in out else c


def pruned(out):
    return {key: c for key, c in out.items() if not c.is_zero()}


def ref_torus_product(x, y):
    alg = x.algebra
    out = {}
    for m, cm in x.terms():
        for n, cn in y.terms():
            add_into(out, tuple(a + b for a, b in zip(m, n)), cm * cn * alg.cocycle(m, n))
    return pruned(out)


def ref_crossed_terms(x, y, out):
    cp = x.parent
    for (m, k), cm in x.terms():
        for (n, j), cn in y.terms():
            phi, image = cp.rt.power_image(k, n)
            target = tuple(a + b for a, b in zip(m, image))
            add_into(out, (target, (k + j) % cp.n), cm * cn * phi * cp.algebra.cocycle(m, image))
    return out


CASES = [(family, dim, theta) for family in K_FAMILIES for dim in (2, 3) for theta in (None, "1/5")]


def make_product(family, dim, theta):
    if theta is None:
        return crossed_product(family, dim=dim)
    return crossed_product(family, dim=dim, theta_value=Fraction(theta), order=THETA_ORDER)


@pytest.mark.parametrize("family, dim, theta", CASES)
def test_kernel_matches_term_loop(family, dim, theta):
    cp = make_product(family, dim, theta)
    rng = random.Random(f"{family}:{dim}:{theta}")
    for _ in range(4):
        a, b = rand_torus(rng, cp.algebra), rand_torus(rng, cp.algebra)
        assert dict((a * b).terms()) == ref_torus_product(a, b)

        x, y = rand_crossed(rng, cp), rand_crossed(rng, cp)
        assert dict((x * y).terms()) == pruned(ref_crossed_terms(x, y, {}))

        pairs = [(rand_crossed(rng, cp), rand_crossed(rng, cp)) for _ in range(3)]
        pairs.append((x, -x))  # terms that cancel inside the accumulator
        pairs.append((x, x))
        expected = {}
        for u, v in pairs:
            ref_crossed_terms(u, v, expected)
        assert dict(cp.dot(pairs).terms()) == pruned(expected)


def test_kernel_cancels_to_zero():
    cp = crossed_product("B3", dim=3)
    rng = random.Random(5)
    x, y = rand_crossed(rng, cp), rand_crossed(rng, cp)
    assert cp.dot([(x, y), (-x, y)]).is_zero()
    assert cp.dot([]) == cp.zero()


def test_psi_mismatch_reports_a_wrong_right_hand_side(torus_products):
    cp = torus_products["B4"]
    rng = random.Random(11)
    x = random_torus_element(rng, cp.algebra, 2, terms=1)
    y = random_torus_element(rng, cp.algebra, 2, terms=1)
    assert psi_multiplicativity_mismatch(cp, x, y) is None
    v, w = cp.algebra.basis_generators()[1:]
    assert v * w != w * v
    mismatch = psi_multiplicativity_mismatch(cp, v, w, xy=w * v)
    assert mismatch is not None
    i, j, lhs, rhs = mismatch
    assert lhs != rhs
    assert lhs == cp.dot((cp.psi_matrix(v)[i][k], cp.psi_matrix(w)[k][j]) for k in range(cp.n))
