import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncbieberbach.scalars import (
    Cyclotomic,
    OrderMismatchError,
    PhasedScalar,
    cyc_root,
    cyclotomic_polynomial,
)

ORDER = 24


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(24) == (1, 0, 0, 0, -1, 0, 0, 0, 1)


def test_root_constructor_examples():
    i = cyc_root(4, 1, order=ORDER)
    assert i * i == -1
    assert cyc_root(3, 0, order=ORDER) + cyc_root(3, 1, order=ORDER) + cyc_root(3, 2, order=ORDER) == 0
    assert cyc_root(24, 12, order=ORDER) == -1
    assert cyc_root(4, 0, order=ORDER).is_one()


def test_root_constructor_order_mismatch():
    with pytest.raises(OrderMismatchError):
        cyc_root(5, 1, order=ORDER)
    with pytest.raises(OrderMismatchError):
        cyc_root(7, 2, order=ORDER)


def test_elements_of_different_orders_are_never_equal():
    """Equality follows the rule of every sparse element type; arithmetic
    across orders still raises."""
    i24, i48 = cyc_root(4, 1, order=ORDER), cyc_root(4, 1, order=2 * ORDER)
    assert not i24 == i48
    assert i24 != i48
    assert Cyclotomic.from_rational(ORDER, 1) != Cyclotomic.from_rational(2 * ORDER, 1)
    with pytest.raises(OrderMismatchError):
        i24 + i48


def test_root_inverse_pairs():
    for k in range(ORDER):
        assert cyc_root(ORDER, k, order=ORDER) * cyc_root(ORDER, ORDER - k, order=ORDER) == 1


def test_phased_examples():
    assert PhasedScalar.phase(1, 1, order=ORDER) * PhasedScalar.phase(-1, 1, order=ORDER) == PhasedScalar.phase(
        0, 1, order=ORDER
    )
    assert PhasedScalar.phase(Fraction(1, 3), 1, order=ORDER) ** 3 == PhasedScalar.phase(1, 1, order=ORDER)
    i = cyc_root(4, 1, order=ORDER)
    assert PhasedScalar.phase(1, i, order=ORDER).conj() == PhasedScalar.phase(-1, -i, order=ORDER)


def test_phase_rejects_a_coefficient_of_another_order():
    """An order-48 coefficient inside an order-24 scalar would only fail later,
    when the scalar meets another; the constructor refuses it, as ``of`` does."""
    with pytest.raises(OrderMismatchError):
        PhasedScalar.phase(1, cyc_root(4, 1, order=2 * ORDER), order=ORDER)
    with pytest.raises(OrderMismatchError):
        PhasedScalar.of(cyc_root(4, 1, order=2 * ORDER), ORDER)
    assert PhasedScalar.phase(1, cyc_root(4, 1, order=ORDER), order=ORDER) != PhasedScalar.phase(1, 1, order=ORDER)


def test_fold_examples():
    i = cyc_root(4, 1, order=ORDER)
    assert PhasedScalar.phase(1, 1, order=ORDER).fold(Fraction(1, 2)) == PhasedScalar.of(i, ORDER)
    c = cyc_root(24, 7, order=ORDER)
    assert PhasedScalar.phase(0, c, order=ORDER).fold(Fraction(3, 7)) == PhasedScalar.of(c, ORDER)
    assert PhasedScalar.phase(2, 1, order=ORDER).fold(Fraction(1, 3)) == PhasedScalar.of(
        cyc_root(3, 1, order=ORDER), ORDER
    )


def test_fold_order_mismatch():
    # theta = 1/5 requires a tenth root of unity, outside the order-24 field
    with pytest.raises(OrderMismatchError):
        PhasedScalar.phase(1, 1, order=ORDER).fold(Fraction(1, 5))


def test_conjugation_is_field_automorphism():
    rng = random.Random(1)
    for _ in range(50):
        a = _random_scalar(rng)
        b = _random_scalar(rng)
        assert a.conj().conj() == a
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()


def _embed(x: Cyclotomic, k: int) -> complex:
    """sigma_k(x) for sigma_k: zeta -> e^{2 pi i k / order}, read from num, den and order only."""
    return sum(a * cmath.exp(2j * math.pi * k * j / x.order) for j, a in enumerate(x.num)) / x.den


@pytest.mark.parametrize("order", [10, 24, 120, 168])
def test_product_and_conjugation_against_the_complex_embeddings(order):
    """Every embedding sigma_k, gcd(k, order) = 1, is a field homomorphism that
    commutes with complex conjugation: an oracle that shares no reduction
    table with the product under test."""
    rng = random.Random(order)
    deg = len(cyclotomic_polynomial(order)) - 1
    units = [k for k in range(order) if math.gcd(k, order) == 1]

    def dense():
        return Cyclotomic(order, tuple(rng.randint(-9, 9) for _ in range(deg)), rng.randint(1, 12))

    for _ in range(20):
        x, y = dense(), dense()
        xy, xc = x * y, x.conj()
        for k in units:
            sx = _embed(x, k)
            assert abs(_embed(xy, k) - sx * _embed(y, k)) <= 1e-7 * max(1.0, abs(sx * _embed(y, k)))
            assert abs(_embed(xc, k) - sx.conjugate()) <= 1e-7 * max(1.0, abs(sx))


@pytest.mark.parametrize("order", [24, 120])
def test_cyclotomic_subtraction_and_powers(order):
    """Subtraction and powers come from the ring core shared with the sparse
    types; the differences are read against Fraction coordinates."""
    rng = random.Random(f"ring:{order}")
    deg = len(cyclotomic_polynomial(order)) - 1
    half = Fraction(1, 2)
    for _ in range(10):
        c, d = (Cyclotomic(order, tuple(rng.randint(-9, 9) for _ in range(deg)), rng.randint(1, 12))
                for _ in range(2))
        cs, ds = c.coefficients(), d.coefficients()
        assert (c - d).coefficients() == tuple(x - y for x, y in zip(cs, ds))
        assert (1 - c).coefficients() == (1 - cs[0],) + tuple(-x for x in cs[1:])
        assert (half - c).coefficients() == (half - cs[0],) + tuple(-x for x in cs[1:])
        assert c ** 0 == 1
        assert c ** 5 == c * c * c * c * c
    with pytest.raises(ValueError, match="negative powers are not supported"):
        c ** -1
    with pytest.raises(OrderMismatchError):
        c - cyc_root(4, 1, order=2 * order)
    with pytest.raises(TypeError):
        c - "1"


def _random_scalar(rng: random.Random, terms: int = 2) -> PhasedScalar:
    out = PhasedScalar.zero(ORDER)
    for _ in range(terms):
        b = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
        root = cyc_root(ORDER, rng.randrange(ORDER), order=ORDER)
        scale = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        out = out + PhasedScalar.phase(b, root * scale, order=ORDER)
    return out


def test_ring_axioms_on_seeded_triples():
    rng = random.Random(20240)
    one = PhasedScalar.one(ORDER)
    for _ in range(200):
        x = _random_scalar(rng)
        y = _random_scalar(rng)
        z = _random_scalar(rng)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x
        assert x + (-x) == PhasedScalar.zero(ORDER)
        assert x * one == x


def test_canonical_form_uniqueness():
    rng = random.Random(7)
    for _ in range(100):
        x = _random_scalar(rng)
        y = _random_scalar(rng)
        assert ((x - y).is_zero()) == (x.terms() == y.terms())


small_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=6)
root_indices = st.integers(min_value=0, max_value=ORDER - 1)


@st.composite
def phased_scalars(draw):
    n_terms = draw(st.integers(min_value=1, max_value=2))
    out = PhasedScalar.zero(ORDER)
    for _ in range(n_terms):
        b = draw(small_fractions)
        k = draw(root_indices)
        q = draw(st.fractions(min_value=-2, max_value=2, max_denominator=3))
        out = out + PhasedScalar.phase(b, cyc_root(ORDER, k, order=ORDER) * q, order=ORDER)
    return out


@settings(max_examples=60, deadline=None)
@given(phased_scalars(), phased_scalars())
def test_commutativity_and_conj_property(x, y):
    assert x * y == y * x
    assert (x * y).conj() == x.conj() * y.conj()


@settings(max_examples=60, deadline=None)
@given(root_indices, root_indices)
def test_root_products_property(j, k):
    zj = cyc_root(ORDER, j, order=ORDER)
    zk = cyc_root(ORDER, k, order=ORDER)
    assert zj * zk == cyc_root(ORDER, j + k, order=ORDER)
    assert zj.conj() == cyc_root(ORDER, -j, order=ORDER)
    assert (zj * zj.conj()).is_one()


def test_rational_value_and_unit_checks():
    half = Cyclotomic.from_rational(ORDER, Fraction(1, 2))
    assert half.is_rational() and half.rational_value() == Fraction(1, 2)
    with pytest.raises(ValueError):
        (half + cyc_root(ORDER, 1, order=ORDER)).rational_value()
    assert not (half * half.conj()).is_one()
    assert cyc_root(ORDER, 5, order=ORDER).root_exponent() == 5
