import random
from fractions import Fraction

import pytest

from ncbieberbach.scalars import MAX_CYCLOTOMIC_ORDER, OrderMismatchError, PhasedScalar, cyc_root, field_order
from ncbieberbach.torus import NcTorus, standard_torus


def _random_element(rng, algebra, degree=2, terms=2):
    out = algebra.zero()
    for _ in range(terms):
        m = tuple(rng.randint(-degree, degree) for _ in range(algebra.d))
        root = cyc_root(algebra.order, rng.randrange(algebra.order), order=algebra.order)
        out = out + algebra.delta(m) * (algebra.theta_phase(rng.randint(-2, 2)) * root)
    return out


def test_standard_3d_relations():
    alg = standard_torus(3)
    u, v, w = alg.basis_generators()
    assert u * v == v * u
    assert u * w == w * u
    assert w * v == v * w * alg.theta_phase(2)


def test_standard_2d_relations():
    alg = standard_torus(2)
    v, w = alg.basis_generators()
    assert w * v == v * w * alg.theta_phase(2)


def test_unknown_preset():
    with pytest.raises(ValueError):
        standard_torus(4)


def test_cocycle_examples():
    alg = standard_torus(3)
    m = (1, -2, 3)
    assert alg.cocycle(m, (0, 0, 0)).is_one()
    assert alg.cocycle(m, m).is_one()
    # bicharacter at the generator pair reproduces the defining relation
    assert alg.cocycle((0, 0, 1), (0, 1, 0)) == alg.theta_phase(1)
    assert alg.cocycle((0, 1, 0), (0, 0, 1)) == alg.theta_phase(-1)


def test_cocycle_dimension_mismatch():
    alg = standard_torus(3)
    with pytest.raises(ValueError):
        alg.cocycle((1, 0), (0, 1, 0))
    with pytest.raises(ValueError):
        alg.delta((1, 0))


def test_unit_element():
    alg = standard_torus(3)
    u, v, w = alg.basis_generators()
    x = u * v + w * 3
    assert alg.one() * x == x
    assert x * alg.one() == x


def test_ordered_square_versus_straightened_product():
    # (v w)^2 and v^2 w^2 differ by the commutation phase e^{2 pi i theta}
    alg = standard_torus(3)
    _, v, w = alg.basis_generators()
    assert (v * w) ** 2 == v ** 2 * w ** 2 * alg.theta_phase(2)


def test_monomials_are_unitary():
    alg = standard_torus(3)
    u, v, w = alg.basis_generators()
    for x in (u, v, w, u * v * w, v.star() * w):
        m, _ = x.single_term()
        d = alg.delta(m)
        assert d * d.star() == alg.one()
        assert d.star() * d == alg.one()


def test_star_is_involutive_and_antimultiplicative():
    rng = random.Random(3)
    alg = standard_torus(3)
    u, v, w = alg.basis_generators()
    assert (u * v).star() == v.star() * u.star()
    for _ in range(200):
        x = _random_element(rng, alg)
        y = _random_element(rng, alg)
        assert x.star().star() == x
        assert (x * y).star() == y.star() * x.star()


def test_associativity_on_seeded_triples():
    rng = random.Random(99)
    alg = standard_torus(3)
    for _ in range(200):
        x = _random_element(rng, alg)
        y = _random_element(rng, alg)
        z = _random_element(rng, alg)
        assert (x * y) * z == x * (y * z)


def test_bicharacter_laws_on_random_vectors():
    rng = random.Random(5)
    alg = standard_torus(3)
    for _ in range(200):
        m = tuple(rng.randint(-4, 4) for _ in range(3))
        mp = tuple(rng.randint(-4, 4) for _ in range(3))
        n = tuple(rng.randint(-4, 4) for _ in range(3))
        left = alg.cocycle(tuple(a + b for a, b in zip(m, mp)), n)
        assert left == alg.cocycle(m, n) * alg.cocycle(mp, n)
        right = alg.cocycle(m, tuple(a + b for a, b in zip(n, mp)))
        assert right == alg.cocycle(m, n) * alg.cocycle(m, mp)
        assert (alg.cocycle(m, n) * alg.cocycle(n, m)).is_one()


def test_theta_matrix_antisymmetry():
    alg = NcTorus(3, {(1, 2): (0, 1), (0, 1): (Fraction(1, 2), 0), (0, 2): (0, 0)})
    assert list(alg.slots.items()) == [((0, 1), (Fraction(1, 2), 0)), ((1, 2), (0, 1))]
    # antisymmetry: omega(e1, e0) is the conjugate of omega(e0, e1)
    assert alg.cocycle((0, 1, 0), (1, 0, 0)) == alg.cocycle((1, 0, 0), (0, 1, 0)).conj()
    for slot in ((1, 0), (2, 2), (0, 3)):
        with pytest.raises(ValueError, match="is not an upper-triangle position"):
            NcTorus(3, {slot: (1, 0)})


def test_folded_mode_collapses_phases():
    alg = standard_torus(3, theta_value=Fraction(1, 3), order=24)
    _, v, w = alg.basis_generators()
    phase = alg.cocycle((0, 0, 1), (0, 1, 0))
    b, c = phase.single_phase()
    assert b == 0
    assert c == cyc_root(6, 1, order=24)  # e^{i pi / 3}
    # the defining relation still holds after folding
    assert w * v == v * w * alg.theta_phase(2)


def _fraction_cocycle(alg, m, n):
    """omega(m, n) from the Fraction sum a + b theta, folded by ``PhasedScalar.fold``."""
    a = b = Fraction(0)
    for (j, k), (ea, eb) in alg.slots.items():
        cross = m[j] * n[k] - m[k] * n[j]
        a += ea * cross
        b += eb * cross
    phase = PhasedScalar.phase(b, cyc_root(2 * a.denominator, a.numerator, order=alg.order), order=alg.order)
    return phase if alg.theta_value is None else phase.fold(alg.theta_value)


@pytest.mark.parametrize("theta_value,order", [(None, 24), (Fraction(1, 5), 120), (Fraction(2, 7), 168)])
def test_cocycle_matches_the_fraction_formula(theta_value, order):
    rng = random.Random(f"cocycle:{theta_value}")
    for _ in range(40):
        upper = {(0, 1): (Fraction(rng.randrange(12), 12), 0),
                 (0, 2): (Fraction(rng.randrange(12), 12), Fraction(rng.randint(-2, 2), 3)),
                 (1, 2): (Fraction(rng.randrange(12), 12), -1)}
        alg = NcTorus(3, upper, theta_value=theta_value, order=order)
        for _ in range(10):
            m, n = (tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(2))
            assert alg.cocycle(m, n) == _fraction_cocycle(alg, m, n), (upper, m, n)


def test_cocycle_outside_the_field_raises():
    alg = NcTorus(3, {(0, 1): (Fraction(1, 5), 0)}, order=24)
    assert alg.cocycle((5, 0, 0), (0, 1, 0)) == _fraction_cocycle(alg, (5, 0, 0), (0, 1, 0))
    with pytest.raises(OrderMismatchError, match="order 10 does not divide the field order 24"):
        alg.cocycle((1, 0, 0), (0, 1, 0))


@pytest.mark.parametrize("theta_value,order", [(None, 24), (Fraction(1, 5), 120), (Fraction(2, 7), 168)])
def test_theta_phase_matches_the_fold_reference(theta_value, order):
    alg = standard_torus(3, theta_value=theta_value, order=order)
    for b in {Fraction(n, d) for d in (1, 2, 3, 4, 6) for n in range(-2 * d, 2 * d + 1)}:
        reference = PhasedScalar.phase(b, 1, order=order)
        if theta_value is not None:
            reference = reference.fold(theta_value)
        assert alg.theta_phase(b) == reference, b


def test_theta_phase_outside_the_field_raises_like_the_fold():
    # theta = 1/5 needs a tenth root of unity, outside the order-24 field
    alg = NcTorus(3, {(1, 2): (0, -1)}, theta_value=Fraction(1, 5), order=24)
    with pytest.raises(OrderMismatchError):
        PhasedScalar.phase(1, 1, order=24).fold(alg.theta_value)
    with pytest.raises(OrderMismatchError):
        alg.theta_phase(1)


def test_elements_of_different_algebras_do_not_mix():
    a1 = standard_torus(3)
    a2 = standard_torus(3, theta_value=Fraction(1, 3), order=24)
    with pytest.raises(ValueError):
        a1.one() * a2.one()


def test_a_field_order_above_the_largest_the_command_line_derives_raises_at_once():
    """The field tables grow about 5x per doubling of the order, so an order
    of 10**6 would build for minutes; the algebra refuses it when it is built.
    The bound is the order of ``verify --theta 1/9 --denominator 11``."""
    assert MAX_CYCLOTOMIC_ORDER == field_order(11, 9) == 2376
    for order in (10**6, MAX_CYCLOTOMIC_ORDER + 1):
        with pytest.raises(ValueError, match=f"cyclotomic order {order} is above the largest supported order 2376"):
            NcTorus(3, {}, order=order)
        with pytest.raises(ValueError, match="largest supported order 2376"):
            cyc_root(1, 0, order=order)
