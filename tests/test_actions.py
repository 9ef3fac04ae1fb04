import itertools
import math
import random
import re
from fractions import Fraction

import action_oracle
import pytest
import scan_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from ncbieberbach import families, verify
from ncbieberbach.actions import (
    ActionOnTorus,
    GeneratorImage,
    check_compatibility,
    check_order,
    classical_action,
    compatibility_obstructions,
    deformed_action,
    freeness_witness,
    homogeneous_components,
    parse_action_text,
    scan_cocycles,
    scan_row,
)
from ncbieberbach.crossed import random_torus_element
from ncbieberbach.scalars import OrderMismatchError, cyc_root
from ncbieberbach.torus import NcTorus, standard_torus


@pytest.fixture(scope="module")
def preset():
    return standard_torus(3)


# ---------------------------------------------------------------------------
# evaluation


def test_generator_image_coefficient_is_a_root_of_unity_times_a_theta_phase(preset):
    i = cyc_root(4, 1, order=preset.order)
    rest = tuple(GeneratorImage(preset.scalar(1), t) for t in ((0, 1, 0), (0, 0, 1)))
    image = GeneratorImage(preset.theta_phase(1) * i, (1, 0, 0))
    assert ActionOnTorus(4, (image, *rest), preset).images[0].coeff.unit_exponents() == (preset.order // 4, (1, 1))
    # unit modulus is not enough: (3 + 4i)/5 is no root of unity
    for coeff in (preset.scalar(2), preset.scalar(i * Fraction(4, 5) + Fraction(3, 5)),
                  preset.scalar(1) + preset.theta_phase(1)):
        with pytest.raises(ValueError, match="must be a root of unity times a theta phase"):
            ActionOnTorus(4, (GeneratorImage(coeff, (1, 0, 0)), *rest), preset)


def test_an_action_rejects_coefficients_of_another_order():
    """Image exponents of order 24 read at order 48 would send u to the wrong
    root under B4, so the action refuses them when it is built."""
    a24, a48 = (standard_torus(3, order=order) for order in (24, 48))
    with pytest.raises(OrderMismatchError, match="order 24 on an algebra of order 48"):
        ActionOnTorus(4, deformed_action("B4", a24).images, a48)


@pytest.mark.parametrize("targets", [
    ((1, 0, 0), (0, 1, 0)),
    ((1, 0, 0), (0, 1), (0, 0, 1)),
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)),
    (),
], ids=["two-images", "ragged-target", "four-images", "no-images"])
def test_an_action_needs_one_image_of_length_d_per_generator(preset, targets):
    """Two images on the 3-torus would drop the third coordinate of every
    monomial, so the action refuses any image list that does not match d."""
    images = tuple(GeneratorImage(preset.scalar(1), target) for target in targets)
    with pytest.raises(ValueError, match="dimension mismatch between action and algebra"):
        ActionOnTorus(2, images, preset)


@pytest.mark.parametrize("order", [0, -2])
def test_an_action_needs_a_positive_group_order(preset, order):
    """Order 0 would pass check_order vacuously (the zeroth power is the
    identity) and a negative order would recurse without end; order 1 is the
    identity action."""
    images = tuple(GeneratorImage(preset.scalar(1), t) for t in ((1, 0, 0), (0, -1, 0), (0, 0, -1)))
    with pytest.raises(ValueError, match="group order must be at least 1"):
        ActionOnTorus(order, images, preset)
    with pytest.raises(ValueError, match="group order must be at least 1"):
        parse_action_text(f"order: {order}\ne: U -> U\ne: V -> V*\ne: W -> W*", preset)


def test_the_family_tuples_follow_the_registry():
    assert families.FAMILIES == ("B2", "B3", "B4", "B6", "B5", "N1", "N2", "N3", "N4")
    assert families.CYCLIC_FAMILIES == ("B2", "B3", "B4", "B6", "N1", "N2")
    assert families.PRODUCT_FAMILIES == ("B5", "N3", "N4")


def test_classical_action_has_one_factor_per_registry_generator():
    algebra = NcTorus(3, {})
    for family in families.FAMILIES:
        gens = classical_action(family, algebra)
        specs = families.CLASSICAL[family]
        assert type(gens) is tuple and all(type(g) is ActionOnTorus for g in gens), family
        assert [g.order for g in gens] == [n for n, _ in specs], family
        assert [[img.target for img in g.images] for g in gens] == [
            [tuple(target) for _, target in images] for _, images in specs], family
        assert [[img.coeff for img in g.images] for g in gens] == [
            [algebra.phase_of_entry(Fraction(a), Fraction(b)) for (a, b), _ in images] for _, images in specs], family


def test_unknown_families_raise_value_error(preset):
    with pytest.raises(ValueError, match="unknown family 'X'; one of .*'N4'"):
        classical_action("X", preset)
    with pytest.raises(ValueError, match="unknown family 'B5'; one of .*'N2'"):
        deformed_action("B5", preset)
    with pytest.raises(ValueError, match="unknown family 'X'"):
        scan_cocycles("X", 6)


def test_the_checks_reject_generators_on_different_algebras():
    a, b = (classical_action("B5", NcTorus(3, {}, order=order))[0] for order in (24, 48))
    for check in (check_order, check_compatibility, freeness_witness):
        with pytest.raises(ValueError, match="the generators act on different algebras"):
            check(a, b)


def test_b2_generator_images(preset):
    action = deformed_action("B2", preset)
    u, v, w = preset.basis_generators()
    assert action.apply(u) == -u
    assert action.apply(v) == v.star()
    assert action.apply(preset.one()) == preset.one()


def test_b2_is_multiplicative_on_a_product(preset):
    action = deformed_action("B2", preset)
    _, v, w = preset.basis_generators()
    assert action.apply(v * w) == v.star() * w.star()


def test_apply_respects_star(preset):
    rng = random.Random(13)
    for family in families.CYCLIC_FAMILIES:
        action = deformed_action(family, preset)
        for _ in range(20):
            m = tuple(rng.randint(-2, 2) for _ in range(3))
            x = preset.delta(m) * cyc_root(24, rng.randrange(24))
            assert action.apply(x.star()) == action.apply(x).star()


@pytest.mark.parametrize("family", families.CYCLIC_FAMILIES)
def test_deformed_families_have_exact_order(preset, family):
    assert check_order(deformed_action(family, preset))


def test_b3_order_on_generators(preset):
    action = deformed_action("B3", preset)
    _, v, w = preset.basis_generators()
    x = v
    for _ in range(3):
        x = action.apply(x)
    assert x == v
    # the intermediate image is exactly w*
    assert action.apply(action.apply(v)) == w.star()


def test_identity_action_order_one(preset):
    one_img = [GeneratorImage(preset.scalar(1), t) for t in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    identity = ActionOnTorus(1, tuple(one_img), preset)
    assert check_order(identity)
    assert freeness_witness(identity)


def test_b4_fourth_root_on_u(preset):
    action = deformed_action("B4", preset)
    u = preset.basis_generators()[0]
    x = u
    for _ in range(4):
        x = action.apply(x)
    assert x == u


def _oracle_cases():
    """The generators of the four K families in 2d and 3d at formal and folded
    theta, then of every grid-1/2 scan candidate of every family, compatible
    or not."""
    for family in families.K_FAMILIES:
        for theta_value, order in ((None, 24), (Fraction(1, 5), 120), (Fraction(2, 7), 168)):
            for d in (2, 3):
                algebra = standard_torus(d, theta_value=theta_value, order=order)
                yield (deformed_action(family, algebra),), algebra
    for family in families.FAMILIES:
        for _, _, upper in scan_oracle.candidates(2):
            algebra = NcTorus(3, upper, order=24)
            yield classical_action(family, algebra), algebra


def test_closed_form_matches_the_generic_product_reference():
    """``_image`` and ``power_pair(N, .)`` against the ordered generic product
    of ``tests/action_oracle.py`` on the box |m_i| <= 1.  The incompatible
    candidates matter: on compatible actions every s_jk is an integer, so a
    sign error in its phase e^{i pi s_jk m_j m_k} cannot show there."""
    compatible = set()
    for gens, algebra in _oracle_cases():
        compatible.add(check_compatibility(*gens))
        for g in gens:
            ref = action_oracle.Reference(g, algebra)
            for m in itertools.product((-1, 0, 1), repeat=algebra.d):
                assert g._image(m) == ref.image(m), (g, algebra, m)
                assert g.power_pair(g.order, m) == ref.power(g.order, m), (g, algebra, m)
    assert compatible == {True, False}


def test_power_pair_walks_the_orbit_without_recursion():
    """A group order far above the recursion limit; each miss caches g^j of
    every monomial it walks, as a step-by-step application would."""
    (g,) = parse_action_text("order: 5000\ne: U -> U\ne: V -> V\ne: W -> W", NcTorus(3, {}))
    assert check_order(g)
    algebra = standard_torus(3)
    action, reference = deformed_action("B3", algebra), deformed_action("B3", algebra)
    m = (1, 2, -1)
    walk = [m]
    for _ in range(6):
        walk.append(reference.power_pair(1, walk[-1])[0])
    target, r, key = action.power_pair(7, m)
    assert set(action._powers) == {(7 - i, mi) for i, mi in enumerate(walk)}
    x = algebra.delta(m)
    for _ in range(7):
        x = reference.apply(x)
    assert x == algebra.delta(target) * algebra.scalar(1).times_unit(r, key)
    with pytest.raises(ValueError, match="at least 0"):
        action.power_pair(-1, m)


# ---------------------------------------------------------------------------
# compatibility


@pytest.mark.parametrize("family", families.CYCLIC_FAMILIES)
def test_deformed_families_compatible_at_bound_three(preset, family):
    assert check_compatibility(deformed_action(family, preset))


def test_b3_rejects_a_half_twist_slot():
    algebra = NcTorus(3, {
        (0, 1): (Fraction(1, 2), 0),
        (1, 2): (0, 1),
    })
    assert not check_compatibility(*classical_action("B3", algebra))


def test_untwisted_classical_actions_compatible():
    algebra = NcTorus(3, {})
    for family in families.FAMILIES:
        assert check_compatibility(*classical_action(family, algebra)), family


def _literal_box_identity(action, algebra, bound):
    """The compatibility identity verified term by term with generic products."""
    mons = list(itertools.product(range(-bound, bound + 1), repeat=3))
    for m in mons:
        for n in mons:
            lhs = action.apply(algebra.delta(m) * algebra.delta(n))
            rhs = action.apply(algebra.delta(m)) * action.apply(algebra.delta(n))
            if lhs != rhs:
                return False
    return True


@pytest.mark.parametrize(
    "family,upper,expected",
    [
        ("B2", {(1, 2): (0, 1)}, True),
        ("B3", {(0, 1): (Fraction(1, 3), 0),
                (0, 2): (Fraction(2, 3), 0),
                (1, 2): (0, 1)}, True),
        ("B3", {(0, 1): (Fraction(1, 2), 0), (1, 2): (0, 1)}, False),
        ("B6", {(0, 1): (Fraction(1, 3), 0),
                (0, 2): (Fraction(2, 3), 0),
                (1, 2): (0, 1)}, False),
        ("N1", {(0, 1): (0, 1), (0, 2): (Fraction(1, 2), 0)}, True),
    ],
)
def test_slot_conditions_agree_with_literal_identity(family, upper, expected):
    algebra = NcTorus(3, upper)
    gens = classical_action(family, algebra)
    fast = check_compatibility(*gens)
    literal = all(_literal_box_identity(g, algebra, 1) for g in gens)
    assert fast == literal == expected


def test_counterexample_rendering():
    algebra = NcTorus(3, {(0, 1): (Fraction(1, 2), 0), (1, 2): (0, 1)})
    (action,) = classical_action("B3", algebra)
    bad = compatibility_obstructions(action)
    assert bad
    (j, k), _, _ = bad[0]
    e_j, e_k = (tuple(int(i == s) for i in range(3)) for s in (j, k))
    lhs = action.apply(algebra.delta(e_k) * algebra.delta(e_j))
    rhs = action.apply(algebra.delta(e_k)) * action.apply(algebra.delta(e_j))
    assert repr(lhs) != repr(rhs)


# ---------------------------------------------------------------------------
# the scan


@pytest.mark.parametrize("family", families.FAMILIES)
def test_scan_reproduces_the_truth_per_family(family):
    result = scan_cocycles(family, 6)
    assert result.rational_expansion_consistent()
    if family in families.SCAN_KNOWN_DISCREPANCIES:
        # the tabulated rows for these two families fail the exact check
        assert not result.matches_reference()
        assert result.computed() == families.SCAN_KNOWN_DISCREPANCIES[family]
    else:
        assert result.matches_reference()


def test_scan_smaller_denominator_is_a_subgrid():
    full = scan_cocycles("B2", 6)
    halves = scan_cocycles("B2", 2)
    assert halves.computed() == full.computed()


def test_scan_rejects_bad_inputs():
    with pytest.raises(ValueError):
        scan_cocycles("B7", 6)
    with pytest.raises(ValueError):
        scan_cocycles("B2", 13)
    with pytest.raises(ValueError):
        scan_cocycles("B2", 0)


@pytest.mark.parametrize("denominator", range(1, 13))
def test_scan_matches_the_fraction_enumeration(denominator):
    """The integer filter keeps exactly the candidates that every-candidate
    certification in Fraction arithmetic admits (``tests/scan_oracle.py``)."""
    order = math.lcm(24, 2 * denominator)
    for family in families.FAMILIES:
        result = scan_cocycles(family, denominator)
        assert result.order == order, family
        patterns, all_rational, order_flags = scan_oracle.reference_scan(family, denominator, order)
        assert result.patterns == patterns, family
        assert result.all_rational == all_rational, family
        assert result.order_flags == order_flags, family
        # a correct scan passes, or shows the documented defect, on every grid
        assert scan_row(result).status != "fail", family


@pytest.mark.parametrize("family", families.FAMILIES)
def test_slot_obstructions_match_the_fraction_reference(family):
    """``compatibility_obstructions`` returns, value for value, the entries of
    the ``Fraction`` reference ``scan_oracle.slot_obstructions`` that break a
    slot condition, for every generator on every grid candidate, at symbolic
    theta and at theta folded to 1/5 and 2/7."""
    outcomes = set()
    for denominator in (2, 3, 4, 6):
        for theta_value in (None, Fraction(1, 5), Fraction(2, 7)):
            q = 1 if theta_value is None else theta_value.denominator
            order = math.lcm(24, 2 * denominator, 12 * q)
            for _, _, upper in scan_oracle.candidates(denominator):
                algebra = NcTorus(3, upper, theta_value=theta_value, order=order)
                for g in classical_action(family, algebra):
                    reference = scan_oracle.slot_obstructions(g, algebra)
                    expected = [(slot, a, b) for slot, (a, b) in sorted(reference.items())
                                if a.denominator != 1 or b != 0]
                    assert compatibility_obstructions(g) == expected, (family, upper, theta_value)
                    outcomes.add(bool(expected))
    assert outcomes == {True, False}  # both admissible and obstructed generators were compared


def _times_phase(g, i, phase):
    """g with the coefficient of its i-th image multiplied by ``phase``."""
    images = list(g.images)
    images[i] = GeneratorImage(images[i].coeff * phase, images[i].target)
    return ActionOnTorus(g.order, tuple(images), g.algebra)


@pytest.mark.parametrize("theta_value,order", [(None, 24), (Fraction(1, 5), 120), (Fraction(2, 7), 168)])
def test_integer_commutation_check_matches_fraction_reference(theta_value, order):
    """``check_compatibility`` of two generators, which it compares on the
    basis monomials only, against the slot conditions and the
    ``Fraction`` commutation check on the whole box |m_i| <= bound.

    The grid candidates of the product families all commute, so one image
    coefficient also gets a quarter turn or a theta phase, which breaks the
    commutation for some compatible pairs.  Every third candidate of the grid
    1/2 keeps the test short."""
    outcomes = set()
    for family in families.PRODUCT_FAMILIES:
        for _, _, upper in itertools.islice(scan_oracle.candidates(2), 0, None, 3):
            algebra = NcTorus(3, upper, theta_value=theta_value, order=order)
            g1, g2 = classical_action(family, algebra)
            quarter = algebra.scalar(cyc_root(4, 1, order=order))
            for a, b in ((g1, g2), (_times_phase(g1, 0, quarter), g2),
                         (g1, _times_phase(g2, 2, algebra.theta_phase(1)))):
                slots = scan_oracle.slots_hold(a, algebra) and scan_oracle.slots_hold(b, algebra)
                compatible = check_compatibility(a, b)
                for bound in (1, 2):
                    commute = scan_oracle.generators_commute(a, b, algebra, bound)
                    assert compatible == (slots and commute), (family, upper, bound)
                    if slots:
                        outcomes.add(commute)
    assert outcomes == {True, False}


def test_n1_n2_tabulated_rows_coincide_but_checker_separates():
    n1 = scan_cocycles("N1", 6)
    n2 = scan_cocycles("N2", 6)
    assert families.SCAN_REFERENCE["N1"] == families.SCAN_REFERENCE["N2"]
    assert n1.computed() != n2.computed()


def test_n3_n4_rows_coincide_and_checker_confirms():
    assert scan_cocycles("N3", 6).computed() == scan_cocycles("N4", 6).computed()


def test_admissible_patterns_keep_order_and_compatibility_at_bound_three():
    for family in families.FAMILIES:
        result = scan_cocycles(family, 6)
        slot = result.free_slot()
        patterns = result.patterns[slot] if slot else result.all_rational
        for assignment in patterns:
            upper = {}
            if slot:
                upper[{"12": (0, 1), "13": (0, 2), "23": (1, 2)}[slot]] = (0, 1)
            for name, value in assignment:
                upper[{"12": (0, 1), "13": (0, 2), "23": (1, 2)}[name]] = (value, 0)
            algebra = NcTorus(3, upper)
            gens = classical_action(family, algebra)
            assert check_compatibility(*gens), (family, assignment)
            order_ok = check_order(*gens)
            if family == "N2" and ("23", Fraction(1, 2)) in assignment:
                # the tabulated coefficients break the order here; a quarter
                # turn on the sheared image restores it (see below)
                assert not order_ok
            else:
                assert order_ok, (family, assignment)


def test_n2_half_slot_order_restored_by_quarter_turn_coefficient():
    algebra = NcTorus(3, {(0, 1): (0, 1), (1, 2): (Fraction(1, 2), 0)})
    (plain,) = classical_action("N2", algebra)
    assert check_compatibility(plain)
    assert not check_order(plain)
    fixed = ActionOnTorus(2, (
        plain.images[0],
        GeneratorImage(algebra.scalar(cyc_root(4, 1, order=algebra.order)), (0, 1, 1)),
        plain.images[2],
    ), algebra)
    assert check_compatibility(fixed)
    assert check_order(fixed)


# ---------------------------------------------------------------------------
# homogeneous decomposition and freeness


def test_homogeneous_component_examples(preset):
    action = deformed_action("B2", preset)
    u, v, _ = preset.basis_generators()
    comps = homogeneous_components(action, u)
    assert comps[0].is_zero() and comps[1] == u
    comps = homogeneous_components(action, v)
    assert comps[0] == (v + v.star()) * Fraction(1, 2)
    assert comps[1] == (v - v.star()) * Fraction(1, 2)
    comps = homogeneous_components(action, preset.one())
    assert comps[0] == preset.one() and comps[1].is_zero()


def _random_element(rng, algebra, degree=2, terms=2):
    out = algebra.zero()
    for _ in range(terms):
        m = tuple(rng.randint(-degree, degree) for _ in range(algebra.d))
        out = out + algebra.delta(m) * (
            algebra.theta_phase(rng.randint(-1, 1)) * cyc_root(24, rng.randrange(24))
        )
    return out


@pytest.mark.parametrize("family", families.CYCLIC_FAMILIES)
def test_homogeneous_reconstruction_and_eigenvalues(preset, family):
    action = deformed_action(family, preset)
    rng = random.Random(hash(family) % 1000)
    lam = cyc_root(action.order, 1, order=preset.order)
    for _ in range(100):
        x = _random_element(rng, preset)
        comps = homogeneous_components(action, x)
        total = preset.zero()
        for k, comp in enumerate(comps):
            total = total + comp
            eig = lam ** k
            assert action.apply(comp) == comp * eig
        assert total == x


@pytest.mark.parametrize("theta_value,order", [(None, 24), (Fraction(1, 5), 120), (Fraction(2, 7), 168)])
def test_homogeneous_components_match_the_elementwise_sum(theta_value, order):
    """The one-pass kernel decomposition against the N^2 scale-and-add loop of
    ``tests/action_oracle.py``, on every cyclic family, in 2d and 3d."""
    rng = random.Random(f"homogeneous:{theta_value}")
    for family in families.CYCLIC_FAMILIES:
        for d in (2, 3):
            algebra = standard_torus(d, theta_value=theta_value, order=order)
            try:
                action = deformed_action(family, algebra)
            except ValueError:  # the plane restriction of an action moving the circle generator
                continue
            for _ in range(10):
                x = random_torus_element(rng, algebra, 2, terms=3)
                expected = action_oracle.homogeneous_components(action, algebra, x)
                assert homogeneous_components(action, x) == expected, (family, d)


def test_reconstruction_row_catches_rotated_components(monkeypatch):
    """Components rotated k -> k+1 still sum to x, so only the eigen-relation
    g . x_k = lambda^k x_k of the row exposes them; for N = 2 a flipped phase
    sign would not, since there lambda = conj(lambda)."""
    def rotated(action, x):
        comps = homogeneous_components(action, x)
        return comps[-1:] + comps[:-1]

    monkeypatch.setattr(verify, "homogeneous_components", rotated)
    rows = {c.name: c.status for c in verify.actions(verify.Settings(seed=1, samples=20, degree=1, denominator=2))}
    assert {f: rows[f"homogeneous-reconstruction[{f}]"] for f in families.CYCLIC_FAMILIES} == dict.fromkeys(
        families.CYCLIC_FAMILIES, "fail")


def test_homogeneous_components_need_the_group_order_in_the_field():
    algebra = standard_torus(2, order=4)
    images = tuple(GeneratorImage(algebra.scalar(1), e) for e in ((1, 0), (0, 1)))
    with pytest.raises(OrderMismatchError, match="order 3 does not divide the field order 4"):
        homogeneous_components(ActionOnTorus(3, images, algebra), algebra.one())


def test_freeness_witnesses(preset):
    for family in families.CYCLIC_FAMILIES:
        assert freeness_witness(deformed_action(family, preset)), family
    # the product families have no jointly homogeneous generator, so the
    # (sufficient-only) witness is not found there
    zero_theta = NcTorus(3, {})
    for family in families.PRODUCT_FAMILIES:
        assert not freeness_witness(*classical_action(family, zero_theta)), family


@pytest.mark.parametrize("v_image,expected", [("-1 V", True), ("i V", False), ("V", False)])
def test_freeness_witness_of_a_product_needs_spanning_sign_characters(v_image, expected):
    """U and V homogeneous with characters (1, 0) and (0, 1) span the dual of
    Z2 x Z2; an eigenvalue i is no sign character, and a trivial one spans less."""
    zero_theta = NcTorus(3, {})
    text = f"""
    order: 2 x 2
    e1: U -> -1 U
    e1: V -> V
    e1: W -> W
    e2: U -> U
    e2: V -> {v_image}
    e2: W -> W
    """
    assert freeness_witness(*parse_action_text(text, zero_theta)) is expected


def test_freeness_witness_rejects_an_eigenvalue_of_smaller_order():
    zero_theta = NcTorus(3, {})
    text = """
    order: 4
    e: U -> -1 U
    e: V -> W
    e: W -> V*
    """
    gens = parse_action_text(text, zero_theta)
    assert check_order(*gens)
    assert not freeness_witness(*gens)


@pytest.mark.parametrize("text", [
    # no basis eigenvalue has order 6, but delta_(-1,1,0) has e^{2 pi i/6}:
    # the characters 2 (of U) and 3 (of V) generate Z_6
    "order: 6\ne: U -> w(1/3) U\ne: V -> -1 V\ne: W -> W",
    # U alone has the character (1, 1) of order 6, which generates Z2 x Z3
    "order: 2 x 3\ne1: U -> -1 U\ne1: V -> V\ne1: W -> W\ne2: U -> w(1/3) U\ne2: V -> V\ne2: W -> W",
], ids=["Z6", "Z2xZ3"])
def test_freeness_witness_combines_the_characters_of_basis_monomials(text):
    gens = parse_action_text(text, NcTorus(3, {}))
    assert check_order(*gens) and check_compatibility(*gens)
    assert freeness_witness(*gens)


# ---------------------------------------------------------------------------
# declarative text format


B3_TEXT = """
# deformed cubic action
order: 3
e: U -> w(1/3) U
e: V -> t(-1) V* W
e: W -> V*
"""


def test_parse_action_round_trip(preset):
    parsed = parse_action_text(B3_TEXT, preset)
    assert parsed == (deformed_action("B3", preset),)
    assert check_order(*parsed)


def test_parse_product_action():
    zero_theta = NcTorus(3, {})
    text = """
    order: 2 x 2
    e1: U -> -1 U
    e1: V -> V*
    e1: W -> W*
    e2: U -> U*
    e2: V -> -1 V
    e2: W -> -1 W*
    """
    parsed = parse_action_text(text, zero_theta)
    assert [g.order for g in parsed] == [2, 2]
    assert check_order(*parsed)
    assert [g.images for g in parsed] == [g.images for g in classical_action("B5", zero_theta)]


def test_parse_action_errors(preset):
    with pytest.raises(ValueError):
        parse_action_text("e: U -> U", preset)  # missing order header
    with pytest.raises(ValueError):
        parse_action_text("order: 2\ne: U -> -U\ne: V -> V*", preset)  # missing W
    with pytest.raises(ValueError):
        parse_action_text("order: 2\ne: X -> X", preset)


@pytest.mark.parametrize("order", ["3", "2 x 2"])
def test_parse_action_needs_one_order_per_generator_label(order):
    zero_theta = NcTorus(3, {})
    lines = "e1: U -> U\ne1: V -> V*\ne1: W -> W*\n"
    text = f"order: {order}\n" + lines + ("" if "x" in order else lines.replace("e1", "e2"))
    with pytest.raises(ValueError, match="expected . generators, found"):
        parse_action_text(text, zero_theta)


@pytest.mark.parametrize("word", ["- U", "--1 U"])
def test_parse_action_refuses_a_lone_or_doubled_sign(preset, word):
    with pytest.raises(ValueError):
        parse_action_text(f"order: 2\ne: U -> {word}\ne: V -> V*\ne: W -> W*", preset)


@pytest.mark.parametrize("factor", ["1", "i", "w(1/3)", "t(1/2)"])
def test_parse_action_reads_one_leading_sign_as_minus_one(preset, factor):
    def u_image(word):
        text = f"order: 2\ne: U -> {word} U\ne: V -> V*\ne: W -> W*"
        return parse_action_text(text, preset)[0].images[0]

    plain, signed = u_image(factor), u_image(f"-{factor}")
    assert signed.target == plain.target
    assert signed.coeff == -plain.coeff


def test_parse_action_rejects_a_phase_factor_with_a_zero_denominator(preset):
    for token in ("t(1/0)", "w(1/0)"):
        with pytest.raises(ValueError, match=re.escape(repr(token))):
            parse_action_text(f"order: 2\ne: U -> {token} U\ne: V -> V*\ne: W -> W*", preset)


@st.composite
def _action_texts(draw):
    """(text, header orders) from the format's own tokens: at most three
    labels and three orders, scalar factors with or without a sign, and
    generator letters bare, starred or raised to a power in [-3, 3]."""
    scalar = st.one_of(st.sampled_from(["1", "i"]), st.builds(
        "{}({}/{})".format, st.sampled_from("wt"), st.integers(-3, 3), st.integers(0, 4)))
    letter = st.builds(str.__add__, st.sampled_from("UVW"), st.one_of(
        st.sampled_from(["", "*"]), st.integers(-3, 3).map("^{}".format)))
    token = st.builds(str.__add__, st.sampled_from(["", "-"]), st.one_of(scalar, letter))
    orders = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))
    lines = ["order: " + " x ".join(map(str, orders))]
    for label in draw(st.lists(st.sampled_from(["e", "e1", "e2"]), min_size=1, max_size=3, unique=True)):
        for torus_letter in "UVW":
            if draw(st.integers(0, 7)):  # 0: leave the image out
                lines.append(f"{label}: {torus_letter} -> " + " ".join(draw(st.lists(token, min_size=1, max_size=3))))
    return "\n".join(lines), orders


def test_parse_action_text_gives_one_generator_per_order_or_a_value_error(preset):
    outcomes = set()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_action_texts())
    def parse(case):
        text, orders = case
        try:
            gens = parse_action_text(text, preset)
        except ValueError:
            outcomes.add("refused")
            return
        assert type(gens) is tuple and all(type(g) is ActionOnTorus for g in gens), text
        assert [g.order for g in gens] == orders, text
        outcomes.add("parsed")

    parse()
    assert outcomes == {"parsed", "refused"}
