"""Acceptance suite: one test per exit criterion, each printing a status line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on the terminal.  Every comparison is exact (no tolerances); sample
counts and seeds are pinned here.

Criterion 2 carries two strict expected failures: the tabulated admissible
patterns for the B6 and N2 families are provably not reproducible (the exact
compatibility check forces smaller sets; see the per-family scan reports).
The computed sets are asserted against their recorded values instead, so a
silent change in either direction fails the suite.
"""
import random
from fractions import Fraction

import pytest

from ncbieberbach import families
from ncbieberbach.actions import homogeneous_components, scan_cocycles
from ncbieberbach.crossed import (
    CanonicalTrace,
    random_crossed_element,
    random_torus_element,
    crossed_product,
    k0_generator_table,
    psi_multiplicativity_mismatch,
    tau_parity_trace,
    verify_projections,
    verify_trace_laws,
)
from ncbieberbach.ktheory import (
    AbelianGroup,
    beta_star_matrix,
    bieberbach_h1,
    compare_with_k0,
    pv_solve,
    smith_normal_form,
    verify_beta_star,
)
from ncbieberbach.ktheory import int_det, mat_mul
from snf_oracle import invariant_factors

PASS = "ACCEPTANCE {n} PASS: {text}"


def _report(n, text):
    print(PASS.format(n=n, text=text), flush=True)


# ---------------------------------------------------------------------------
# 1. K-group reproduction


def test_criterion_1_k_groups():
    expected = {
        "B2": (AbelianGroup(2, (2, 2)), AbelianGroup(2)),
        "B3": (AbelianGroup(2, (3,)), AbelianGroup(2)),
        "B4": (AbelianGroup(2, (2,)), AbelianGroup(2)),
        "B6": (AbelianGroup(2), AbelianGroup(2)),
    }
    for family, (k0_expected, k1_expected) in expected.items():
        eps_values = (1, -1) if family == "B2" else (1,)
        for eps in eps_values:
            k0, k1 = pv_solve(beta_star_matrix(family, eps))
            assert k0 == k0_expected, (family, eps, str(k0))
            assert k1 == k1_expected, (family, eps, str(k1))
    _report(1, "K0/K1 reproduce for B2 (both eps), B3, B4, B6 in canonical form")


# ---------------------------------------------------------------------------
# 2. cocycle scan reproduction

_SCAN_DEFECTS = {
    "B6": "tabulated hexic row repeats the cubic one; the hexic exponent block"
          " has det(B - 1) = 1, which forces the trivial rational pattern",
    "N2": "tabulated row repeats N1; the shear couples the 12/13 slots and"
          " forces theta_13 = 0",
}


@pytest.mark.parametrize(
    "family",
    [
        pytest.param(
            fam,
            marks=pytest.mark.xfail(strict=True, reason=_SCAN_DEFECTS[fam])
            if fam in _SCAN_DEFECTS
            else (),
        )
        for fam in families.FAMILIES
    ],
)
def test_criterion_2_scan_reproduction(family):
    result = scan_cocycles(family, 6)
    assert result.matches_reference(), (family, result.computed())


def test_criterion_2_documented_defects_are_exactly_as_recorded():
    for family, expected in families.SCAN_KNOWN_DISCREPANCIES.items():
        result = scan_cocycles(family, 6)
        assert result.computed() == expected
        assert result.rational_expansion_consistent()
    _report(2, "scan matches the tabulated patterns for 7/9 families;"
               " B6 and N2 rows are unreproducible defects, computed sets pinned")


# ---------------------------------------------------------------------------
# 3. projection suite


def test_criterion_3_projections(plane_products):
    anomalies = []
    for family, cp in plane_products.items():
        checks = verify_projections(family, cp)
        bad = [c for c in checks if not c.ok]
        assert not bad, (family, bad)
        table = k0_generator_table(family, cp)
        anomalies.extend(f"{family}{a.label}" for a in table.anomalies)
    assert anomalies == ["B3[Q(Y)]", "B6[Q(y)]"]
    # the anomaly path: tabulated coefficients fail their order precondition
    cp3 = plane_products["B3"]
    v3, _ = cp3.torus_generators()
    y_tab = v3 * v3 * cp3.p() * cp3.algebra.theta_phase(Fraction(2, 3))
    assert y_tab ** 3 == cp3.one() * cp3.algebra.theta_phase(-2)
    cp6 = plane_products["B6"]
    v6, _ = cp6.torus_generators()
    from ncbieberbach.scalars import cyc_root

    y6_tab = v6 * cp6.p() ** 2 * cp6.algebra.scalar(cyc_root(6, 1, order=cp6.algebra.order))
    assert y6_tab ** 6 == cp6.one() * cp6.algebra.theta_phase(-2)
    _report(3, "all generator projections idempotent, self-adjoint, complete;"
               " two tabulated coefficients corrected with recorded residual e^{-2 i pi theta}")


# ---------------------------------------------------------------------------
# 4. stable-isomorphism identities


def test_criterion_4_morita_identities(torus_products):
    for family, cp in torus_products.items():
        ph = cp.phat()
        assert ph ** cp.n == cp.one(), family
        assert cp.p() * ph == ph * cp.p() * cp.lam, family

        rng = random.Random(20240 + cp.n)
        for _ in range(50):
            x = random_torus_element(rng, cp.algebra, 2, terms=1)
            y = random_torus_element(rng, cp.algebra, 2, terms=1)
            assert psi_multiplicativity_mismatch(cp, x, y) is None, family

        rng = random.Random(777 + cp.n)
        action = cp.action
        for _ in range(100):
            z = random_torus_element(rng, cp.algebra, 2)
            comps = homogeneous_components(action, cp.algebra, z)
            total = cp.algebra.zero()
            for comp in comps:
                total = total + comp
            assert total == z, family
    _report(4, "p_hat^N = 1 and p p_hat = lambda p_hat p exactly for N = 2, 3, 4, 6;"
               " psi multiplicative on 50 seeded pairs per family;"
               " homogeneous decomposition reconstructs 100 seeded elements per family")


# ---------------------------------------------------------------------------
# 5. trace laws


def test_criterion_5_trace_laws(plane_products):
    cp2 = plane_products["B2"]
    for j, k in ((0, 0), (0, 1), (1, 0), (1, 1)):
        report = verify_trace_laws(tau_parity_trace(cp2, j, k), cp2, samples=200, seed=501)
        assert report.ok, (j, k, [c for c in report.checks if not c.ok])
    for family, cp in plane_products.items():
        rng = random.Random(502)
        tau = CanonicalTrace(cp)
        for _ in range(50):
            x = random_crossed_element(rng, cp, 2)
            y = random_crossed_element(rng, cp, 2)
            assert tau.eval(x * y) == tau.eval(y * x), family
    _report(5, "parity traces tracial with the beta-hat scaling law on 200 seeded pairs;"
               " canonical trace tracial for all four families")


# ---------------------------------------------------------------------------
# 6. induced-map consistency


def test_criterion_6_beta_star_consistency():
    for family in families.K_FAMILIES:
        eps_values = (1, -1) if family == "B2" else (1,)
        for eps in eps_values:
            report = verify_beta_star(family, eps)
            bad = [c for c in report.checks if not c.ok]
            assert not bad, (family, eps, bad)
    _report(6, "(1 - M)^N = 1 with the unit class fixed; every non-exotic column"
               " equals the element-level image; order-2 trace rows transform with"
               " the required signs for both eps")


# ---------------------------------------------------------------------------
# 7. Smith-form oracle equivalence


def test_criterion_7_snf_oracle_equivalence():
    from ncbieberbach.ktheory import kernel_cokernel

    rng = random.Random(70707)
    for _ in range(500):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        matrix = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        snf = smith_normal_form(matrix)
        assert mat_mul(mat_mul(snf.u, matrix), snf.v) == snf.s
        assert abs(int_det(snf.u)) == 1
        assert abs(int_det(snf.v)) == 1
        nonzero = tuple(d for d in snf.diagonal if d)
        assert nonzero == invariant_factors(matrix)
        kernel, cokernel = kernel_cokernel(matrix)
        rank = len(nonzero)
        assert kernel.free_rank == cols - rank
        assert cokernel.free_rank == rows - rank
    _report(7, "divisor chains agree with the determinant-divisor oracle on 500"
               " seeded matrices; transforms unimodular; rank-nullity holds")


# ---------------------------------------------------------------------------
# 8. homology relation


def test_criterion_8_homology_relation():
    expected = {
        "B2": AbelianGroup(1, (2, 2)),
        "B3": AbelianGroup(1, (3,)),
        "B4": AbelianGroup(1, (2,)),
        "B6": AbelianGroup(1),
    }
    for family in families.K_FAMILIES:
        assert bieberbach_h1(family) == expected[family]
        assert compare_with_k0(family)
    _report(8, "K0 = Z + H1 of the space group for all four families,"
               " H1 computed by abelianization independently of the solver")


# ---------------------------------------------------------------------------
# 9. rational-theta robustness


def test_criterion_9_folded_mode_reproduces_k_groups():
    theta = Fraction(1, 5)
    order = 120
    symbolic = {family: pv_solve(beta_star_matrix(family, 1)) for family in families.K_FAMILIES}
    for family in families.K_FAMILIES:
        cp = crossed_product(family, dim=2, theta_value=theta, order=order)
        bad = [c for c in verify_projections(family, cp) if not c.ok]
        assert not bad, (family, bad)
        report = verify_beta_star(family, theta_value=theta, order=order)
        assert all(c.ok for c in report.checks), family
        assert pv_solve(beta_star_matrix(family, 1)) == symbolic[family]
    _report(9, "projection and K pipelines at theta = 1/5 (folded, order 120)"
               " reproduce the symbolic K-groups")
