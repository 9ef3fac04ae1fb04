import itertools
import random
from fractions import Fraction

import pytest

from ncbieberbach import families
from ncbieberbach.actions import (
    FiniteAction,
    GeneratorImage,
    ProductAction,
    apply_action,
    check_compatibility,
    check_order,
    classical_action,
    deformed_action,
    freeness_witness,
    homogeneous_components,
    parse_action_text,
    scan_cocycles,
)
from ncbieberbach.scalars import cyc_root
from ncbieberbach.torus import NcTorus, ThetaEntry, ThetaMatrix


@pytest.fixture(scope="module")
def preset():
    return NcTorus(ThetaMatrix.standard_3d())


# ---------------------------------------------------------------------------
# evaluation


def test_generator_image_coefficient_is_a_root_of_unity_times_a_theta_phase(preset):
    i = cyc_root(4, 1, order=preset.order)
    image = GeneratorImage(preset.theta_phase(1) * i, (1, 0, 0))
    assert image.coeff.unit_exponents() == (preset.order // 4, (1, 1))
    # unit modulus is not enough: (3 + 4i)/5 is no root of unity
    for coeff in (preset.scalar(2), preset.scalar(i * Fraction(4, 5) + Fraction(3, 5)),
                  preset.scalar(1) + preset.theta_phase(1)):
        with pytest.raises(ValueError):
            GeneratorImage(coeff, (1, 0, 0))


def test_b2_generator_images(preset):
    action = deformed_action("B2", preset)
    u, v, w = preset.basis_generators()
    assert apply_action(action, preset, u) == -u
    assert apply_action(action, preset, v) == v.star()
    assert apply_action(action, preset, preset.one()) == preset.one()


def test_b2_is_multiplicative_on_a_product(preset):
    action = deformed_action("B2", preset)
    _, v, w = preset.basis_generators()
    assert apply_action(action, preset, v * w) == v.star() * w.star()


def test_apply_respects_star(preset):
    rng = random.Random(13)
    for family in families.CYCLIC_FAMILIES:
        action = deformed_action(family, preset)
        for _ in range(20):
            m = tuple(rng.randint(-2, 2) for _ in range(3))
            x = preset.delta(m) * cyc_root(24, rng.randrange(24))
            assert apply_action(action, preset, x.star()) == apply_action(action, preset, x).star()


@pytest.mark.parametrize("family", families.CYCLIC_FAMILIES)
def test_deformed_families_have_exact_order(preset, family):
    assert check_order(deformed_action(family, preset), preset)


def test_b3_order_on_generators(preset):
    action = deformed_action("B3", preset)
    _, v, w = preset.basis_generators()
    x = v
    for _ in range(3):
        x = apply_action(action, preset, x)
    assert x == v
    # the intermediate image is exactly w*
    assert apply_action(action, preset, apply_action(action, preset, v)) == w.star()


def test_identity_action_order_one(preset):
    one_img = [GeneratorImage(preset.scalar(1), t) for t in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    identity = FiniteAction(1, tuple(one_img), name="id")
    assert check_order(identity, preset)
    assert freeness_witness(identity, preset)


def test_b4_fourth_root_on_u(preset):
    action = deformed_action("B4", preset)
    u = preset.basis_generators()[0]
    x = u
    for _ in range(4):
        x = apply_action(action, preset, x)
    assert x == u


# ---------------------------------------------------------------------------
# compatibility


@pytest.mark.parametrize("family", families.CYCLIC_FAMILIES)
def test_deformed_families_compatible_at_bound_three(preset, family):
    assert check_compatibility(deformed_action(family, preset), preset, degree_bound=3)


def test_b3_rejects_a_half_twist_slot():
    matrix = ThetaMatrix(3, {
        (0, 1): ThetaEntry.of(Fraction(1, 2), 0),
        (1, 2): ThetaEntry.of(0, 1),
    })
    algebra = NcTorus(matrix)
    assert not check_compatibility(classical_action("B3", algebra), algebra, 2)


def test_untwisted_classical_actions_compatible():
    algebra = NcTorus(ThetaMatrix(3, {}))
    for family in families.FAMILIES:
        assert check_compatibility(classical_action(family, algebra), algebra, 2), family


def _literal_box_identity(action, algebra, bound):
    """The compatibility identity verified term by term with generic products."""
    rt = action.runtime(algebra)
    mons = list(itertools.product(range(-bound, bound + 1), repeat=3))
    for m in mons:
        for n in mons:
            lhs = rt.apply(algebra.delta(m) * algebra.delta(n))
            rhs = rt.apply(algebra.delta(m)) * rt.apply(algebra.delta(n))
            if lhs != rhs:
                return False
    return True


@pytest.mark.parametrize(
    "family,upper,expected",
    [
        ("B2", {(1, 2): ThetaEntry.of(0, 1)}, True),
        ("B3", {(0, 1): ThetaEntry.of(Fraction(1, 3), 0),
                (0, 2): ThetaEntry.of(Fraction(2, 3), 0),
                (1, 2): ThetaEntry.of(0, 1)}, True),
        ("B3", {(0, 1): ThetaEntry.of(Fraction(1, 2), 0), (1, 2): ThetaEntry.of(0, 1)}, False),
        ("B6", {(0, 1): ThetaEntry.of(Fraction(1, 3), 0),
                (0, 2): ThetaEntry.of(Fraction(2, 3), 0),
                (1, 2): ThetaEntry.of(0, 1)}, False),
        ("N1", {(0, 1): ThetaEntry.of(0, 1), (0, 2): ThetaEntry.of(Fraction(1, 2), 0)}, True),
    ],
)
def test_slot_conditions_agree_with_literal_identity(family, upper, expected):
    algebra = NcTorus(ThetaMatrix(3, upper))
    action = classical_action(family, algebra)
    gens = action.generators()
    fast = check_compatibility(action, algebra, 1)
    literal = all(_literal_box_identity(g, algebra, 1) for g in gens)
    assert fast == literal == expected


def test_counterexample_rendering():
    from ncbieberbach.actions import compatibility_counterexample

    matrix = ThetaMatrix(3, {(0, 1): ThetaEntry.of(Fraction(1, 2), 0),
                                        (1, 2): ThetaEntry.of(0, 1)})
    algebra = NcTorus(matrix)
    action = classical_action("B3", algebra)
    ce = compatibility_counterexample(action, algebra)
    assert ce is not None and ce["lhs"] != ce["rhs"]


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
        kind, spec_data = families.classical_spec(family)
        for assignment in patterns:
            upper = {}
            if slot:
                upper[{"12": (0, 1), "13": (0, 2), "23": (1, 2)}[slot]] = ThetaEntry.of(0, 1)
            for name, value in assignment:
                upper[{"12": (0, 1), "13": (0, 2), "23": (1, 2)}[name]] = ThetaEntry.of(value, 0)
            algebra = NcTorus(ThetaMatrix(3, upper))
            action = classical_action(family, algebra)
            assert check_compatibility(action, algebra, 3), (family, assignment)
            order_ok = check_order(action, algebra)
            if family == "N2" and ("23", Fraction(1, 2)) in assignment:
                # the tabulated coefficients break the order here; a quarter
                # turn on the sheared image restores it (see below)
                assert not order_ok
            else:
                assert order_ok, (family, assignment)


def test_n2_half_slot_order_restored_by_quarter_turn_coefficient():
    matrix = ThetaMatrix(3, {(0, 1): ThetaEntry.of(0, 1),
                                        (1, 2): ThetaEntry.of(Fraction(1, 2), 0)})
    algebra = NcTorus(matrix)
    plain = classical_action("N2", algebra)
    assert check_compatibility(plain, algebra, 2)
    assert not check_order(plain, algebra)
    fixed = FiniteAction(2, (
        plain.images[0],
        GeneratorImage(algebra.scalar(cyc_root(4, 1, order=algebra.order)), (0, 1, 1)),
        plain.images[2],
    ), name="N2-adjusted")
    assert check_compatibility(fixed, algebra, 2)
    assert check_order(fixed, algebra)


# ---------------------------------------------------------------------------
# homogeneous decomposition and freeness


def test_homogeneous_component_examples(preset):
    action = deformed_action("B2", preset)
    u, v, _ = preset.basis_generators()
    comps = homogeneous_components(action, preset, u)
    assert comps[0].is_zero() and comps[1] == u
    comps = homogeneous_components(action, preset, v)
    assert comps[0] == (v + v.star()) * Fraction(1, 2)
    assert comps[1] == (v - v.star()) * Fraction(1, 2)
    comps = homogeneous_components(action, preset, preset.one())
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
        comps = homogeneous_components(action, preset, x)
        total = preset.zero()
        for k, comp in enumerate(comps):
            total = total + comp
            eig = lam ** k
            assert apply_action(action, preset, comp) == comp * eig
        assert total == x


def test_freeness_witnesses(preset):
    for family in families.CYCLIC_FAMILIES:
        assert freeness_witness(deformed_action(family, preset), preset), family
    # the product families have no jointly homogeneous generator, so the
    # (sufficient-only) witness is not found there
    zero_theta = NcTorus(ThetaMatrix(3, {}))
    for family in families.PRODUCT_FAMILIES:
        assert not freeness_witness(classical_action(family, zero_theta), zero_theta), family


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
    assert parsed == deformed_action("B3", preset)
    assert check_order(parsed, preset)


def test_parse_product_action():
    zero_theta = NcTorus(ThetaMatrix(3, {}))
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
    assert isinstance(parsed, ProductAction)
    assert check_order(parsed, zero_theta)
    reference = classical_action("B5", zero_theta)
    assert [f.images for f in parsed.factors] == [f.images for f in reference.factors]


def test_parse_action_errors(preset):
    with pytest.raises(ValueError):
        parse_action_text("e: U -> U", preset)  # missing order header
    with pytest.raises(ValueError):
        parse_action_text("order: 2\ne: U -> -U\ne: V -> V*", preset)  # missing W
    with pytest.raises(ValueError):
        parse_action_text("order: 2\ne: X -> X", preset)
