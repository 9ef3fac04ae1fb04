import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import ncbieberbach
from ncbieberbach import ktheory, verify
from ncbieberbach.actions import ActionOnTorus, GeneratorImage, homogeneous_components
from ncbieberbach.crossed import (
    ContextError,
    CrossedProduct,
    NotRootOfUnityError,
    TwistedTrace,
    canonical_trace,
    random_crossed_element,
    random_torus_element,
    crossed_product,
    k0_generator_table,
    psi_lemma_mismatch,
    psi_multiplicativity_mismatch,
    tau_parity_trace,
)
from ncbieberbach.families import K_FAMILIES
from ncbieberbach.report import Check
from ncbieberbach.scalars import PhasedScalar, cyc_root
from ncbieberbach.torus import NcTorus, standard_torus
from ncbieberbach.verify import (
    Settings,
    check_matrix_units,
    hexic_reading_comparison,
    morita,
    verify_exchange_iso,
    verify_projections,
    verify_trace_laws,
)


# ---------------------------------------------------------------------------
# arithmetic


def test_defining_relations(plane_products):
    for family, cp in plane_products.items():
        v, w = cp.torus_generators()
        p = cp.p()
        assert p ** cp.n == cp.one()
        alpha_v = cp.embed(cp.action.apply(cp.algebra.basis_generators()[0]))
        alpha_w = cp.embed(cp.action.apply(cp.algebra.basis_generators()[1]))
        assert p * v == alpha_v * p
        assert p * w == alpha_w * p


def test_b2_relation_p_v(plane_products):
    cp = plane_products["B2"]
    v, _ = cp.torus_generators()
    assert cp.p() * v == v.star() * cp.p()


def test_star_involution_and_associativity(plane_products):
    rng = random.Random(2)
    for family, cp in plane_products.items():
        for _ in range(30):
            x = random_crossed_element(rng, cp, 2)
            y = random_crossed_element(rng, cp, 2)
            z = random_crossed_element(rng, cp, 2)
            assert x.star().star() == x
            assert (x * y).star() == y.star() * x.star()
            assert (x * y) * z == x * (y * z)


def test_context_mismatch():
    cp2 = crossed_product("B2", dim=2)
    cp3 = crossed_product("B3", dim=2)
    with pytest.raises(ContextError):
        cp2.one() * cp3.one()
    with pytest.raises(ContextError):
        cp2.one() + cp3.one()
    assert cp2.one() != cp3.one()
    # a second build of the same family is the same context: keyed on content
    twin = crossed_product("B2", dim=2)
    assert twin.action is not cp2.action
    assert cp2.one() + twin.one() == cp2.one() * 2
    assert cp2.one() == twin.one()
    assert cp2.p() * twin.p() == twin.one()


# ---------------------------------------------------------------------------
# the dual automorphism


def test_beta_hat_examples(plane_products):
    for family, cp in plane_products.items():
        lam_bar = cyc_root(cp.n, -1, order=cp.algebra.order)
        assert cp.beta_hat(cp.p()) == cp.p() * lam_bar
        v, _ = cp.torus_generators()
        assert cp.beta_hat(v) == v


def test_beta_hat_is_an_order_n_automorphism(plane_products):
    rng = random.Random(4)
    for family, cp in plane_products.items():
        for _ in range(25):
            x = random_crossed_element(rng, cp, 2)
            y = random_crossed_element(rng, cp, 2)
            assert cp.beta_hat(x * y) == cp.beta_hat(x) * cp.beta_hat(y)
            assert cp.beta_hat(x.star()) == cp.beta_hat(x).star()
            z = x
            for _ in range(cp.n):
                z = cp.beta_hat(z)
            assert z == x


# ---------------------------------------------------------------------------
# spectral projectors


def test_projector_of_unit_argument(plane_products):
    cp = plane_products["B4"]
    projectors = cp.q_projector(cp.one())
    assert projectors[0] == cp.one()
    for n in range(1, cp.n):
        assert projectors[n].is_zero()


def test_half_sum_projection(plane_products):
    cp = plane_products["B2"]
    e00 = (cp.one() + cp.p()) * Fraction(1, 2)
    assert e00 * e00 == e00
    assert e00.star() == e00
    assert cp.q_projector(cp.p())[0] == e00
    with pytest.raises(TypeError):  # the period is keyword-only; no projector index is taken
        cp.q_projector(0, cp.p())


def test_cubic_generator_projectors(plane_products):
    cp = plane_products["B3"]
    v, _ = cp.torus_generators()
    x = v * cp.p() * cp.algebra.theta_phase(Fraction(1, 3))
    assert x ** 3 == cp.one()
    for q in cp.q_projector(x):
        assert q * q == q and q.star() == q


def test_projector_precondition_reports_residual(plane_products):
    cp = plane_products["B3"]
    v, _ = cp.torus_generators()
    y_tab = v * v * cp.p() * cp.algebra.theta_phase(Fraction(2, 3))
    with pytest.raises(NotRootOfUnityError) as err:
        cp.q_projector(y_tab)
    residual = err.value.residual
    expected = cp.one() * cp.algebra.theta_phase(-2) - cp.one()
    assert residual == expected


def test_projection_suite(plane_products):
    for family, cp in plane_products.items():
        checks = verify_projections(cp)
        bad = [c for c in checks if not c.ok]
        assert not bad, (family, bad)


@pytest.mark.parametrize("family", K_FAMILIES)
def test_projector_laws_row_reads_the_cached_table(family):
    # a fresh product: the doubled projector stays in its cached table
    cp = crossed_product(family)
    table = k0_generator_table(cp)
    stem, *others = table.projectors
    table.projectors[stem][0] = table.projectors[stem][0] * 2
    rows = {c.name: c.status for c in verify_projections(cp)}
    assert rows[f"projector-laws[{stem}][{family}]"] == "fail"
    assert all(rows[f"projector-laws[{other}][{family}]"] == "pass" for other in others)


def test_generator_table_anomalies(plane_products):
    assert not k0_generator_table(plane_products["B2"]).anomalies
    assert not k0_generator_table(plane_products["B4"]).anomalies
    b3 = k0_generator_table(plane_products["B3"])
    assert [a.label for a in b3.anomalies] == ["[Q(Y)]"]
    b6 = k0_generator_table(plane_products["B6"])
    assert [a.label for a in b6.anomalies] == ["[Q(y)]"]


def test_hexic_tabulated_coefficient_defect(plane_products):
    cp = plane_products["B6"]
    v, _ = cp.torus_generators()
    y_tab = v * cp.p() ** 2 * cp.algebra.scalar(cyc_root(6, 1, order=cp.algebra.order))
    assert y_tab ** 6 == cp.one() * cp.algebra.theta_phase(-2)
    # theta-phase correction alone leaves the cube at -1, killing the even projectors
    y_half = y_tab * cp.algebra.theta_phase(Fraction(1, 3))
    assert y_half ** 6 == cp.one() and y_half ** 3 == -cp.one()
    assert cp.q_projector(y_half)[0].is_zero()
    # dropping the sixth root gives an order-3 element with honest projectors
    y = v * cp.p() ** 2 * cp.algebra.theta_phase(Fraction(1, 3))
    assert y ** 3 == cp.one()
    assert not cp.q_projector(y)[0].is_zero()


def test_hexic_reading_comparison(plane_products):
    checks = hexic_reading_comparison(plane_products["B6"])
    assert all(c.ok for c in checks), [c for c in checks if not c.ok]


def test_beta_hat_transport_on_projections(plane_products):
    # beta_hat(e) = 1 - e for the four order-2 projections
    cp = plane_products["B2"]
    table = k0_generator_table(cp)
    for label in ("[e00]", "[e01]", "[e10]", "[e11]"):
        e = table.elements[label]
        assert cp.beta_hat(e) == cp.one() - e
    # index shift for the spectral projectors, degree read off the p-power
    for family in ("B3", "B4", "B6"):
        cpf = plane_products[family]
        for stem, x in k0_generator_table(cpf).stems.items():
            (k,) = x._comps  # each argument is a single a p^k
            projectors = cpf.q_projector(x)
            for n in range(cpf.n):
                assert cpf.beta_hat(projectors[n]) == projectors[(n - k) % cpf.n]


# ---------------------------------------------------------------------------
# stable-isomorphism witnesses


def test_morita_suite_passes():
    checks = morita(Settings(seed=3, samples=3, degree=1, denominator=6))
    assert len(checks) == 7 * len(K_FAMILIES)
    assert all(c.status == "pass" for c in checks), [c for c in checks if c.status != "pass"]


def _edit_psi_matrix(cp, edit):
    """Replace each entry of every ``psi_matrix`` of ``cp`` by ``edit(i, j, entry)``."""
    psi_matrix = cp.psi_matrix
    cp.psi_matrix = lambda comps: [[edit(i, j, e) for j, e in enumerate(row)]
                                   for i, row in enumerate(psi_matrix(comps))]


@pytest.mark.parametrize("family", K_FAMILIES)
def test_psi_row_fails_on_the_certificate(monkeypatch, family):
    """V added to entry (0, 1) of psi(u) takes it out of the commutant of p;
    the row names that entry, whatever the sampled pairs show."""
    def sabotaged_product(name, **options):
        cp = crossed_product(name, **options)
        if name == family:
            v = cp.delta((0, 1, 0), 0)
            _edit_psi_matrix(cp, lambda i, j, e: e + v if (i, j) == (0, 1) else e)
        return cp

    monkeypatch.setattr(verify, "crossed_product", sabotaged_product)
    rows = {c.name: c for c in morita(Settings(seed=3, samples=3, degree=1, denominator=6))}
    row = rows.pop(f"psi-multiplicative[{family}]")
    assert (row.status, row.detail) == ("fail", "entry (0,1) of the matrix of u does not commute with p")
    assert all(c.status == "pass" for c in rows.values())


def test_psi_row_fails_on_a_scaled_p_hat(monkeypatch):
    """lambda p_hat keeps its order, the exchange with p, the matrix units and
    the lemma; only psi(u) = lambda u != u sees it."""
    phat = CrossedProduct.phat
    monkeypatch.setattr(CrossedProduct, "phat", lambda cp: phat(cp) * cp.lam)
    rows = {c.name: c for c in morita(Settings(seed=3, samples=3, degree=1, denominator=6))}
    for family in K_FAMILIES:
        row = rows.pop(f"psi-multiplicative[{family}]")
        assert (row.status, row.detail) == ("fail", "psi(u) = p_hat + s p_hat (u^N - 1) is not u")
    assert all(c.status == "pass" for c in rows.values()), [c for c in rows.values() if c.status != "pass"]


def test_psi_row_fails_on_components_without_their_u_power(monkeypatch):
    """Without the factor u^{-k} the components are not alpha-invariant and
    the compared draw sees psi(x) psi(y) != psi(xy)."""
    monkeypatch.setattr(CrossedProduct, "psi_components", lambda cp, x: homogeneous_components(cp.action, x))
    rows = {c.name: c for c in morita(Settings(seed=3, samples=3, degree=1, denominator=6))}
    for family in K_FAMILIES:
        row = rows[f"psi-multiplicative[{family}]"]
        assert row.status == "fail" and set(row.counterexample) == {"x", "y", "entry", "lhs", "rhs"}, row
        assert rows[f"psi-components-invariant[{family}]"].status == "fail"


def test_psi_row_fails_with_the_matrix_units(monkeypatch):
    monkeypatch.setattr(verify, "check_matrix_units", lambda cp: Check(f"matrix-units[{cp.family}]", "fail"))
    rows = {c.name: c for c in morita(Settings(seed=3, samples=3, degree=1, denominator=6))}
    for family in K_FAMILIES:
        row = rows[f"psi-multiplicative[{family}]"]
        assert (row.status, row.detail) == ("fail", "the matrix units fail, and the lemma rests on them")


def test_the_certificate_checks_p_hat_too():
    """p added to entry (1, 2) of psi(u) keeps it commuting with p, not with p_hat."""
    cp = crossed_product("B3", dim=3)
    _edit_psi_matrix(cp, lambda i, j, e: cp.one() + cp.p() if (i, j) == (1, 2) else e)
    assert psi_lemma_mismatch(cp) == (1, 2, "p_hat")


def test_the_certificate_catches_a_multiplicative_psi_that_is_not_the_sandwich():
    """Conjugating every psi matrix by diag(u, 1, ..., 1) keeps psi
    multiplicative, so no sampled pair can see it; the certificate does."""
    cp = crossed_product("B3", dim=3)
    scale = [cp.delta((1, 0, 0), 0)] + [cp.one()] * (cp.n - 1)
    unscale = [cp.delta((-1, 0, 0), 0)] + [cp.one()] * (cp.n - 1)
    _edit_psi_matrix(cp, lambda i, j, e: scale[i] * e * unscale[j])
    rng = random.Random(5)
    for _ in range(20):
        x = random_torus_element(rng, cp.algebra, 2, terms=1)
        y = random_torus_element(rng, cp.algebra, 2, terms=1)
        assert psi_multiplicativity_mismatch(cp, cp.psi_components(x), y, x * y) is None
    assert psi_lemma_mismatch(cp) == (0, 1, "p")


def test_morita_compares_every_psi_draw(monkeypatch):
    """At 200 samples each family makes 3 psi draws and compares
    psi(x) psi(y) with psi(xy) on each of them."""
    draws, comparisons = Counter(), Counter()
    psi_components = CrossedProduct.psi_components

    def counting_components(self, x):
        draws[self.family] += 1
        return psi_components(self, x)

    def counting_mismatch(cp, comps_x, y, xy):
        comparisons[cp.family] += 1

    monkeypatch.setattr(CrossedProduct, "psi_components", counting_components)
    monkeypatch.setattr(verify, "psi_multiplicativity_mismatch", counting_mismatch)
    checks = morita(Settings(seed=1, samples=200, degree=3, denominator=6))
    assert all(c.status == "pass" for c in checks)
    assert draws == {family: 3 for family in K_FAMILIES}
    assert comparisons == {family: 3 for family in K_FAMILIES}


def test_phat_requires_central_scaled_generator():
    cp = crossed_product("N1", dim=3)
    with pytest.raises(ContextError):
        cp.phat()
    cp2 = crossed_product("B2", dim=2)
    with pytest.raises(ContextError):
        cp2.phat()


def test_matrix_units(torus_products):
    # all N^4 relations E_ij E_kl = delta_jk E_il, independently of the
    # 2 N^2 products the morita suite checks
    for family, cp in torus_products.items():
        units = cp.matrix_units()
        total = cp.zero()
        for i in range(cp.n):
            total = total + units[i][i]
            for j in range(cp.n):
                assert units[i][j].star() == units[j][i]
        assert total == cp.one()
        for i, j, k, l in itertools.product(range(cp.n), repeat=4):
            expected = units[i][l] if j == k else cp.zero()
            assert units[i][j] * units[k][l] == expected, (family, i, j, k, l)
        assert check_matrix_units(cp).status == "pass"


def test_matrix_unit_check_catches_a_sign_flip(monkeypatch):
    # negating E_12 and E_21 keeps the star relation, sum E_ii = 1 and
    # E_01 E_10 = E_00, but breaks E_01 E_12 = E_02
    cp = crossed_product("B3", dim=3)
    units = [list(row) for row in cp.matrix_units()]
    units[1][2], units[2][1] = -units[1][2], -units[2][1]
    assert all(units[i][j].star() == units[j][i] for i in range(3) for j in range(3))
    assert units[0][0] + units[1][1] + units[2][2] == cp.one()
    assert units[0][1] * units[1][0] == units[0][0]
    monkeypatch.setattr(cp, "matrix_units", lambda: units)
    check = check_matrix_units(cp)
    assert (check.name, check.status) == ("matrix-units[B3]", "fail")


def test_psi_decomposition(torus_products):
    rng = random.Random(6)
    for family, cp in torus_products.items():
        for _ in range(5):
            x = random_torus_element(rng, cp.algebra, 2)
            assert cp.psi_element(cp.psi_components(x)) == cp.embed(x)
            for comp in cp.psi_components(x):
                assert cp.action.apply(comp) == comp


def test_psi_unit_is_u(torus_products):
    """s^2 = s gives s p_hat = s u^{1-N}, so p_hat + s p_hat (u^N - 1) = u; the
    closed-form psi(u), read off u's unit component list or off its
    ``psi_components``, is that element in matrix-unit coordinates."""
    for family, cp in torus_products.items():
        u, ph, s = cp.delta((1, 0, 0), 0), cp.phat(), cp.invariant_averaging()
        assert ph + s * ph * (cp.delta((cp.n, 0, 0), 0) - cp.one()) == u, family
        mat_u, units = cp.psi_u_power(1), cp.matrix_units()
        assert mat_u == cp.psi_matrix(cp.psi_components(cp.algebra.delta((1, 0, 0)))), family
        cells = itertools.product(range(cp.n), repeat=2)
        assert cp.dot((mat_u[i][j], units[i][j]) for i, j in cells) == u, family


def _sandwich(cp, x):
    """Phi(x)_ij = sum_m E_mi x E_jm, the coefficient of x on E_ij, from the matrix units alone."""
    units = cp.matrix_units()
    left = [[units[m][i] * x for m in range(cp.n)] for i in range(cp.n)]
    return [[cp.dot((left[i][m], units[j][m]) for m in range(cp.n)) for j in range(cp.n)] for i in range(cp.n)]


@pytest.mark.parametrize("theta", [None, Fraction(1, 5)], ids=["formal", "1/5"])
@pytest.mark.parametrize("family", K_FAMILIES)
def test_the_closed_form_is_the_matrix_unit_sandwich(family, theta):
    """The closed-form psi(u^k) is the generic Phi(u^k) for every k < N."""
    options = {} if theta is None else {"theta_value": theta, "order": 120}
    cp = crossed_product(family, dim=3, **options)
    for k in range(cp.n):
        matrix, phi = cp.psi_u_power(k), _sandwich(cp, cp.delta((k, 0, 0), 0))
        for i, j in itertools.product(range(cp.n), repeat=2):
            assert matrix[i][j] == phi[i][j], (k, i, j)


_MORITA_ROWS = """
import json
from ncbieberbach import verify
from ncbieberbach.crossed import CrossedProduct

psi_matrix = CrossedProduct.psi_matrix
{patch}
rows = verify.morita(verify.Settings(seed=3, samples=3, degree=1, denominator=6))
print(json.dumps([row[:3] for row in rows]))
"""

_CORNER_SCALED = """
def corner_scaled(cp, comps):
    matrix = psi_matrix(cp, comps)
    matrix[0][1] = matrix[0][1] * cp.lam
    return matrix

CrossedProduct.psi_matrix = corner_scaled
"""

_U_POWER_ONLY_IN_ROW_0 = """
def row_0_wraps(cp, comps):
    u_n, one, n = cp.algebra.delta((cp.n, 0, 0)), cp.algebra.one(), cp.n
    return [[cp.embed(comps[(j - i) % n] * (u_n if i == 0 < j else one)) for j in range(n)] for i in range(n)]

CrossedProduct.psi_matrix = row_0_wraps
"""


def _morita_rows(patch, *flags):
    """The morita rows of a fresh interpreter run with ``flags``, ``psi_matrix`` replaced by ``patch``."""
    src = str(Path(ncbieberbach.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, *flags, "-c", _MORITA_ROWS.format(patch=patch)], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(run.stdout)


def test_psi_row_fails_on_a_corner_scaled_by_lambda():
    """lambda u^N at entry (0, 1) still lies in the commutant, so only the
    reconstruction sum_ij psi(u)_ij E_ij = u sees it.  It is a row check, not a
    build-time certificate, so no AssertionError escapes, also under python -O."""
    rows = _morita_rows(_CORNER_SCALED)
    assert _morita_rows(_CORNER_SCALED, "-O") == rows
    failing = {name: detail for name, status, detail in rows if status != "pass"}
    assert failing == {f"psi-multiplicative[{family}]": "psi(u) = p_hat + s p_hat (u^N - 1) is not u"
                       for family in K_FAMILIES}


def test_psi_row_fails_on_a_closed_form_right_for_u_only():
    """u^N only in row 0 gives the right psi(u), which passes the lemma, but a
    wrong psi(u^2) for N >= 3: the reconstruction of u^2 names it, also under
    python -O.  At N = 2 that closed form is the right one, and u is the only
    power the row reconstructs."""
    rows = _morita_rows(_U_POWER_ONLY_IN_ROW_0)
    assert _morita_rows(_U_POWER_ONLY_IN_ROW_0, "-O") == rows
    failing = {name: detail for name, status, detail in rows if status != "pass"}
    assert failing == {f"psi-multiplicative[{family}]": "sum_ij psi(u^2)_ij E_ij is not u^2"
                       for family in K_FAMILIES if family != "B2"}


def test_psi_matrix_multiplicative(torus_products):
    rng = random.Random(8)
    for family, cp in torus_products.items():
        for _ in range(8):
            x = random_torus_element(rng, cp.algebra, 2, terms=1)
            y = random_torus_element(rng, cp.algebra, 2, terms=1)
            mx, my, mxy = (cp.psi_matrix(cp.psi_components(z)) for z in (x, y, x * y))
            for i in range(cp.n):
                for j in range(cp.n):
                    acc = cp.zero()
                    for k in range(cp.n):
                        acc = acc + mx[i][k] * my[k][j]
                    assert acc == mxy[i][j]
            for row in mx:
                for entry in row:
                    assert entry._comps.keys() <= {0}
                    assert cp.action.apply(entry.component(0)) == entry.component(0)


# ---------------------------------------------------------------------------
# traces


def test_trace_values(plane_products):
    cp = plane_products["B2"]
    table = k0_generator_table(cp)
    tau = canonical_trace(cp)
    assert tau.eval(cp.one()) == 1
    for label in ("[e00]", "[e01]", "[e10]", "[e11]"):
        assert tau.eval(table.elements[label]) == Fraction(1, 2)
    t00 = tau_parity_trace(cp, 0, 0)
    assert t00.eval(cp.p()) == 4
    assert t00.eval(table.elements["[e00]"]) == 2
    # the parity traces pair with the generator carrying the matching monomial
    assert tau_parity_trace(cp, 1, 0).eval(table.elements["[e01]"]) == 2
    assert tau_parity_trace(cp, 0, 1).eval(table.elements["[e10]"]) == 2
    assert tau_parity_trace(cp, 1, 1).eval(table.elements["[e11]"]) == 2


def test_parity_trace_laws(plane_products):
    cp = plane_products["B2"]
    parity = [tau_parity_trace(cp, j, k) for j, k in ((0, 0), (0, 1), (1, 0), (1, 1))]
    checks = verify_trace_laws(parity, samples=60, seed=11)
    assert len(checks) == 16 and all(c.ok for c in checks), [c for c in checks if not c.ok]


def _scalar_product_sample(rng, algebra, degree, terms):
    """``random_torus_element``'s draws, built by scalar products and ``fold``."""
    out = algebra.zero()
    for _ in range(terms):
        m = tuple(rng.randint(-degree, degree) for _ in range(algebra.d))
        root = cyc_root(algebra.order, rng.randrange(algebra.order), order=algebra.order)
        coeff = PhasedScalar.phase(Fraction(rng.randint(-2, 2)), root, order=algebra.order)
        if algebra.theta_value is not None:
            coeff = coeff.fold(algebra.theta_value)
        out = out + algebra.delta(m) * (coeff * Fraction(rng.randint(1, 3), rng.randint(1, 2)))
    return out


@pytest.mark.parametrize("theta_value,order", [(None, 24), (Fraction(1, 5), 120), (Fraction(2, 7), 168)])
def test_random_samples_match_the_scalar_product_construction(theta_value, order):
    cp = crossed_product("B4", dim=3, theta_value=theta_value, order=order)
    for seed in range(30):
        rng, ref = random.Random(seed), random.Random(seed)
        assert random_torus_element(rng, cp.algebra, 2, terms=3) == _scalar_product_sample(ref, cp.algebra, 2, 3)
        expected = cp.zero()
        for _ in range(2):
            x = _scalar_product_sample(ref, cp.algebra, 2, 1)
            expected = expected + cp.embed(x) * cp.p(ref.randrange(cp.n))
        assert random_crossed_element(rng, cp, 2) == expected
        assert rng.random() == ref.random()  # the same number of draws


def test_shared_trace_stream_equals_separate_runs(plane_products):
    cp = plane_products["B2"]
    parity = [tau_parity_trace(cp, j, k) for j, k in ((0, 0), (0, 1), (1, 0), (1, 1))]
    separate = [c for t in parity for c in verify_trace_laws([t], samples=25, seed=3)]
    assert verify_trace_laws(parity, samples=25, seed=3) == separate


def test_a_sabotaged_trace_fails_alone(plane_products):
    """A functional supported on delta_(1,0) p alone is not twisted-tracial;
    sharing its samples must not leak its failures into the other rows."""
    cp = plane_products["B2"]
    four = cp.algebra.scalar(4)
    bad = TwistedTrace(cp, lambda m: four if m == (1, 0) else None, s=1, name="bad")
    good = [tau_parity_trace(cp, 0, 0), tau_parity_trace(cp, 1, 1)]
    shared = verify_trace_laws([good[0], bad, good[1]], samples=25, seed=3)
    alone = [verify_trace_laws([t], samples=25, seed=3) for t in (good[0], bad, good[1])]
    assert shared == [c for rows in alone for c in rows]
    assert all(c.ok for c in shared[:4] + shared[8:])
    failed = [c for c in shared[4:8] if not c.ok]
    assert failed and all(c.name.startswith("bad-") and c.detail for c in failed)


def test_canonical_trace_laws_all_families(plane_products):
    for family, cp in plane_products.items():
        checks = verify_trace_laws([canonical_trace(cp)], samples=30, seed=11)
        assert all(c.ok for c in checks), (family, [c for c in checks if not c.ok])


@pytest.mark.parametrize("degree", [2, 3])
def test_the_canonical_trace_certificate_compares_nonzero_values(plane_products, degree):
    """Every law of the canonical trace holds on the box and reads a nonzero
    value: each twist pair (delta_m, delta_{-m}) and each of the N tracial
    pairs per box monomial is one."""
    box = (2 * degree + 1) ** 2
    for family, cp in plane_products.items():
        laws = {law: list(pairs) for law, pairs in verify._canonical_trace_laws(cp, degree).items()}
        assert all(lhs == rhs for pairs in laws.values() for lhs, rhs, _ in pairs), family
        nonzero = {law: sum(not lhs.is_zero() for lhs, _, _ in pairs) for law, pairs in laws.items()}
        assert nonzero == {"base-invariance": 1, "base-twist-law": box,
                           "tracial-on-crossed-product": cp.n * box, "beta-hat-scaling": 1}, family
    rows = [c for c in verify.traces(Settings(seed=1, samples=4, degree=1, denominator=6)) if c.name.startswith("tau[")]
    sampled = [c for cp in plane_products.values() for c in verify_trace_laws([canonical_trace(cp)], samples=1)]
    assert rows == sampled


def test_a_cocycle_sabotaged_on_one_box_pair_fails_the_twist_law(monkeypatch):
    """omega((1, 2), (-1, -2)) = -1 instead of 1 breaks tau(ab) = tau(ba) on
    that one pair of the box, which the certificate reads for every family."""
    cocycle_pair = NcTorus._cocycle_pair

    def sabotaged(alg, m, n):
        return alg.unit_pair(Fraction(1), Fraction(0)) if (m, n) == ((1, 2), (-1, -2)) else cocycle_pair(alg, m, n)

    monkeypatch.setattr(NcTorus, "_cocycle_pair", sabotaged)
    rows = {c.name: c for c in verify.traces(Settings(seed=1, samples=40, degree=2, denominator=6))}
    for family in K_FAMILIES:
        assert (rows[f"tau[{family}]-base-twist-law"][:3]) == (f"tau[{family}]-base-twist-law", "fail", "m=(-1, -2)")


def test_twisted_trace_requires_valid_twist(plane_products):
    cp = plane_products["B2"]
    with pytest.raises(ValueError):
        TwistedTrace(cp, lambda m: None, s=0)
    with pytest.raises(ContextError):
        tau_parity_trace(plane_products["B3"], 0, 0)


def test_a_trace_refuses_an_element_of_another_product(plane_products):
    b2, b3 = plane_products["B2"], plane_products["B3"]
    with pytest.raises(ContextError):
        canonical_trace(b3).eval(b2.p() + b2.one())
    assert canonical_trace(crossed_product("B2", dim=2)).eval(b2.p() + b2.one()) == 1


def test_trace_laws_refuse_traces_of_different_products(plane_products):
    b2, b3 = plane_products["B2"], plane_products["B3"]
    with pytest.raises(ContextError):
        verify_trace_laws([tau_parity_trace(b2, 0, 0), canonical_trace(b3)], samples=3, seed=1)
    checks = verify_trace_laws([tau_parity_trace(b2, 0, 0), canonical_trace(crossed_product("B2", dim=2))],
                               samples=3, seed=1)
    assert len(checks) == 8 and all(c.ok for c in checks)


def test_beta_hat_scaling_reduces_to_invariance_at_full_twist(plane_products):
    # s = N: the scaling factor is 1 and the canonical trace is invariant
    cp = plane_products["B2"]
    tau = canonical_trace(cp)
    rng = random.Random(15)
    for _ in range(50):
        x = random_crossed_element(rng, cp, 2)
        assert tau.eval(cp.beta_hat(x)) == tau.eval(x)


# ---------------------------------------------------------------------------
# the exchange identity


def test_exchange_iso(torus_products):
    for family in K_FAMILIES:
        checks = verify_exchange_iso(torus_products[family])
        assert all(c.ok for c in checks), (family, [c for c in checks if not c.ok])


@pytest.mark.parametrize("family", K_FAMILIES)
def test_exchange_row_reads_the_passed_product(monkeypatch, family):
    cp = crossed_product(family, dim=3)
    monkeypatch.setattr(cp, "beta_hat", lambda x: x)
    rows = {c.name: c.status for c in verify_exchange_iso(cp)}
    assert rows == {f"exchange-p-u-commutation[{family}]": "pass",
                    f"exchange-conjugation-implements-beta-hat[{family}]": "fail"}


def test_exchange_relation_b2():
    cp = crossed_product("B2", dim=3)
    u = cp.delta((1, 0, 0), 0)
    assert cp.p() * u == -(u * cp.p())


def test_exchange_trivial_root():
    # order 1: the double crossed product is plain, conjugation by u is trivial
    algebra = standard_torus(3)
    identity = ActionOnTorus(1, tuple(
        GeneratorImage(algebra.scalar(1), t) for t in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    ), algebra)
    cp = CrossedProduct(identity)
    assert cp.p() == cp.one()
    u = cp.delta((1, 0, 0), 0)
    x = cp.delta((0, 1, -1), 0)
    assert u * x * u.star() == cp.beta_hat(x) == x


# ---------------------------------------------------------------------------
# work per suite


def test_each_suite_builds_each_product_and_each_chain_once(monkeypatch):
    """Within one suite every (family, dim) product is built once, and every
    chain of powers (element and period) once per product."""
    for family in K_FAMILIES:  # the beta_hat_* columns are solved once per process
        ktheory.beta_star_matrix(family)
    init, q_projector = CrossedProduct.__init__, CrossedProduct.q_projector
    products, builds, chains = [], Counter(), Counter()

    def counting_init(self, action, family=""):
        products.append(self)  # alive until the end, so ids are not reused
        builds[family, action.algebra.d] += 1
        init(self, action, family)

    def counting_q_projector(self, x, *, period=None):
        chains[id(self), repr(x), period] += 1
        return q_projector(self, x, period=period)

    monkeypatch.setattr(CrossedProduct, "__init__", counting_init)
    monkeypatch.setattr(CrossedProduct, "q_projector", counting_q_projector)
    settings = Settings(seed=1, samples=2, degree=1, denominator=2)
    for suite in ("crossed", "traces", "morita", "betastar"):
        builds.clear()
        chains.clear()
        verify.SUITES[suite](settings)
        assert set(builds.values()) == {1}, (suite, builds)
        assert set(chains.values()) <= {1}, (suite, chains)
