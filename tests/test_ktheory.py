import functools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ncbieberbach
from ncbieberbach import families, ktheory, lattice, verify
from ncbieberbach.crossed import CrossedProduct, _derived_basis, crossed_product, k0_generator_table
from ncbieberbach.ktheory import (
    BetaStarData,
    beta_star_matrix,
    compare_with_k0,
    fixture_comparison,
    load_fixture_matrix,
    pv_solve,
    solve_in_span,
)
from ncbieberbach.lattice import AbelianGroup, bieberbach_h1, int_det, kernel_cokernel, mat_mul, smith_normal_form
from ncbieberbach.verify import verify_beta_star
from snf_oracle import bareiss_det, invariant_factors


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_identity():
    snf = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert snf.diagonal == (1, 1, 1)


def test_snf_classic_divisor_chain():
    # diag(2, 3) has invariant factors (1, 6)
    snf = smith_normal_form([[2, 0], [0, 3]])
    assert snf.diagonal == (1, 6)


def test_snf_of_the_order_two_map():
    for eps in (1, -1):
        matrix = beta_star_matrix("B2", eps).matrix
        snf = smith_normal_form(matrix)
        assert snf.diagonal == (1, 1, 2, 2, 0, 0)
        assert snf.diagonal[:4] == tuple(invariant_factors(matrix))


def test_snf_transform_identity_holds():
    rng = random.Random(77)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        matrix = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        snf = smith_normal_form(matrix)
        assert mat_mul(mat_mul(snf.u, matrix), snf.v) == snf.s
        assert abs(int_det(snf.u)) == 1
        assert abs(int_det(snf.v)) == 1
        nonzero = tuple(d for d in snf.diagonal if d)
        assert nonzero == invariant_factors(matrix)


@pytest.mark.parametrize("matrix", [[[], []], [[]], []], ids=["2x0", "1x0", "0x0"])
def test_snf_certifies_an_empty_shape(matrix):
    snf = smith_normal_form(matrix)
    assert snf.diagonal == () and snf.s == matrix
    assert kernel_cokernel(matrix) == (AbelianGroup(0), AbelianGroup(len(matrix)))


def test_solve_in_an_empty_span():
    cp = crossed_product("B2")
    assert solve_in_span([], []) == []
    with pytest.raises(AssertionError, match="a target lies outside the span of the basis"):
        solve_in_span([], [cp.one()])


def test_bareiss_det_agrees_with_cofactor_expansion():
    assert bareiss_det([[2, 1], [7, 4]]) == 1
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0



def test_snf_certificate_survives_optimize_flag():
    # under python -O a plain assert would vanish; the certificates must still raise
    code = (
        "import sys\n"
        "import ncbieberbach.ktheory as kt\n"
        "import ncbieberbach.lattice as lattice\n"
        "cp = kt.crossed_product('B3')\n"
        "elements = [el for _, el in kt.k0_generator_table(cp).non_exotic()]\n"
        "try:\n"
        "    kt.solve_in_span(elements[1:], [cp.one()])\n"
        "except AssertionError as exc:\n"
        "    print(sys.flags.optimize, exc)\n"
        "lattice.int_det = lambda m: 2\n"
        "try:\n"
        "    lattice.smith_normal_form([[2, 0], [0, 3]])\n"
        "except AssertionError as exc:\n"
        "    print(sys.flags.optimize, exc)\n"
    )
    assert _run_optimized(code) == [
        "1 a target lies outside the span of the basis",
        "1 transforms are not unimodular",
    ]


def _run_optimized(code: str) -> list[str]:
    """The stdout lines of ``code`` run under ``python -O``; a plain assert would vanish there."""
    src = str(Path(ncbieberbach.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return run.stdout.splitlines()

# ---------------------------------------------------------------------------
# abelian groups


def test_kernel_cokernel_examples():
    ker, cok = kernel_cokernel([[0, 0], [0, 0]])
    assert ker == AbelianGroup(2) and cok == AbelianGroup(2)
    ker, cok = kernel_cokernel([[3]])
    assert ker == AbelianGroup(0) and cok == AbelianGroup(0, (3,))
    ker, cok = kernel_cokernel(beta_star_matrix("B2", 1).matrix)
    assert ker == AbelianGroup(2)
    assert cok == AbelianGroup(2, (2, 2))


def test_abelian_group_canonical_form():
    assert AbelianGroup(0, (2, 2)) != AbelianGroup(0, (4,))
    with pytest.raises(ValueError):
        AbelianGroup(0, (3, 2))
    with pytest.raises(ValueError):
        AbelianGroup(0, (1,))
    assert str(AbelianGroup(2, (2, 2))) == "Z^2 + Z_2 + Z_2"
    assert str(AbelianGroup(0)) == "0"


# ---------------------------------------------------------------------------
# the induced map and the solver


def test_transport_columns_match_stated_formulas():
    data = beta_star_matrix("B2", 1)
    b = data.induced_map()
    idx = {lbl: i for i, lbl in enumerate(data.basis)}
    # the class of the identity is fixed
    assert [row[idx["[1]"]] for row in b] == [1, 0, 0, 0, 0, 0]
    # the exotic column carries [M2] - [e00] + [e11] - eps [e10] + eps [e01]
    col = [row[idx["[M2]"]] for row in b]
    assert col[idx["[M2]"]] == 1
    assert col[idx["[e00]"]] == -1 and col[idx["[e11]"]] == 1
    assert col[idx["[e10]"]] == -1 and col[idx["[e01]"]] == 1
    data_neg = beta_star_matrix("B2", -1)
    col_neg = [row[idx["[M2]"]] for row in data_neg.induced_map()]
    assert col_neg[idx["[e10]"]] == 1 and col_neg[idx["[e01]"]] == -1

    b3 = beta_star_matrix("B3")
    idx3 = {lbl: i for i, lbl in enumerate(b3.basis)}
    col = [row[idx3["[M3]"]] for row in b3.induced_map()]
    assert col[idx3["[M3]"]] == 1 and col[idx3["[1]"]] == 1
    assert col[idx3["[Q0(p)]"]] == col[idx3["[Q0(X)]"]] == col[idx3["[Q0(Y)]"]] == -1


def _b3_elements():
    cp = crossed_product("B3")
    table = k0_generator_table(cp)
    return cp, [el for _, el in table.non_exotic()]


def test_solve_in_span_recovers_integer_combinations():
    cp, elements = _b3_elements()
    target = elements[1] * 2 - elements[4] + elements[6] * 3
    assert solve_in_span(elements, [target, cp.one()]) == [
        [0, 1], [2, 0], [0, 0], [0, 0], [-1, 0], [0, 0], [3, 0]]


def test_solve_in_span_raises_outside_the_span():
    cp, elements = _b3_elements()
    images = [cp.beta_hat(el) for el in elements]
    # without [1] the image Q2(p) = 1 - Q0(p) - Q1(p) of [Q0(p)] is out of reach
    with pytest.raises(AssertionError, match="outside the span"):
        solve_in_span(elements[1:], images[1:])
    with pytest.raises(AssertionError, match="not an integer combination"):
        solve_in_span(elements, [elements[2] * Fraction(1, 2)])
    with pytest.raises(AssertionError, match="linearly dependent"):
        solve_in_span(elements + [elements[1] + elements[3]], images)


@pytest.mark.parametrize("family", families.K_FAMILIES)
def test_pv_solver_reproduces_k_groups(family):
    k0, k1 = pv_solve(beta_star_matrix(family, 1))
    expected_k0, expected_k1 = families.K_EXPECTED[family]
    assert (k0.free_rank, k0.torsion) == expected_k0
    assert (k1.free_rank, k1.torsion) == expected_k1


def test_pv_solver_is_epsilon_independent():
    assert pv_solve(beta_star_matrix("B2", 1)) == pv_solve(beta_star_matrix("B2", -1))


def test_inconsistent_data_is_rejected():
    data = beta_star_matrix("B4", 1)
    broken = BetaStarData(
        family=data.family,
        basis=data.basis,
        matrix=[row[:] for row in data.matrix],
        order=data.order,
    )
    broken.matrix[3][3] += 1
    with pytest.raises(ValueError):
        pv_solve(broken)
    unfixed = BetaStarData(
        family=data.family,
        basis=data.basis,
        matrix=[[1 if (i, j) == (1, 0) else v for j, v in enumerate(row)]
                for i, row in enumerate(data.matrix)],
        order=data.order,
    )
    with pytest.raises(ValueError):
        unfixed.validate()


def test_a_column_touching_the_exotic_class_fails_the_transport_row(monkeypatch):
    data = beta_star_matrix("B4", 1)
    exotic = data.basis.index("[M4]")
    matrix = [row[:] for row in data.matrix]
    matrix[exotic][1] -= 1  # beta_hat_* sends the non-exotic class of column 1 onto [M4]
    broken = BetaStarData(data.family, data.basis, matrix, data.order)
    monkeypatch.setattr(verify, "beta_star_matrix", lambda family, epsilon=1: broken)
    rows = {c.name: c for c in verify_beta_star(crossed_product("B4"))}
    row = rows["element-level-transport[B4]"]
    assert row.status == "fail"
    assert row.detail == f"column {data.basis[1]} touches the exotic class"


def test_unknown_family_and_epsilon():
    with pytest.raises(ValueError):
        beta_star_matrix("B5")
    with pytest.raises(ValueError):
        beta_star_matrix("B2", 2)


# ---------------------------------------------------------------------------
# fixtures


def test_fixture_files_match_assembly():
    assert fixture_comparison("B3")["status"] == "exact"
    assert fixture_comparison("B4")["status"] == "exact"
    assert fixture_comparison("B6")["status"] == "exact"
    for eps in (1, -1):
        result = fixture_comparison("B2", eps)
        assert result["status"] == "basis-transposition"
        assert result["swapped"] == ("[e01]", "[e10]")
        assert result["k_groups_agree"]


def test_the_fixture_row_fails_when_the_k_groups_differ(monkeypatch):
    """The note says the K-groups agree either way; the row holds the comparison to it."""
    comparison = verify.fixture_comparison
    monkeypatch.setattr(verify, "fixture_comparison",
                        lambda family, eps: {**comparison(family, eps), "k_groups_agree": False})
    for eps in (1, -1):
        rows = {c.name: c for c in verify_beta_star(crossed_product("B2"), eps)}
        row = rows[f"fixture-comparison[B2,eps={eps:+d}]"]
        assert row.status == "fail"
        assert row.detail == "fixture matches after exchanging ('[e01]', '[e10]'), K-groups differ"
        assert not [c for c in rows.values() if "K-groups agree" in c.detail]


@pytest.mark.parametrize("family, swap", [("B3", ("[Q1(p)]", "[Q0(p)]")), ("B2", ("[e00]", "[e11]"))])
def test_only_the_pinned_fixture_transposition_is_accepted(monkeypatch, family, swap):
    # a displayed matrix with any other two classes exchanged is a mismatch, not a note
    data = beta_star_matrix(family, 1)
    a, b = (data.basis.index(lbl) for lbl in swap)
    perm = list(range(len(data.basis)))
    perm[a], perm[b] = b, a
    swapped = [[data.matrix[i][j] for j in perm] for i in perm]
    monkeypatch.setattr(ktheory, "load_fixture_matrix", lambda fam, eps=1: swapped)
    assert fixture_comparison(family, 1) == {"status": "mismatch"}
    suffix = "[B2,eps=+1]" if family == "B2" else f"[{family}]"
    row = next(c for c in verify_beta_star(crossed_product(family), 1) if c.name == f"fixture-comparison{suffix}")
    assert row.status == "fail"


def test_fixture_epsilon_substitution():
    plus = load_fixture_matrix("B2", 1)
    minus = load_fixture_matrix("B2", -1)
    assert plus != minus
    assert plus[2][5] == 1 and minus[2][5] == -1


# ---------------------------------------------------------------------------
# consistency layers


@pytest.mark.parametrize("family", families.K_FAMILIES)
def test_verify_beta_star_layers(plane_products, family):
    eps_values = (1, -1) if family == "B2" else (1,)
    for eps in eps_values:
        bad = [c for c in verify_beta_star(plane_products[family], eps) if not c.ok]
        assert not bad, (family, eps, bad)


def test_verify_beta_star_folded_mode():
    # the columns are derived at formal theta; element-level-transport checks
    # them against the generator elements folded at a rational theta
    for theta in (Fraction(1, 5), Fraction(2, 7)):
        order = math.lcm(24, 12 * theta.denominator)
        for family in families.K_FAMILIES:
            cp = crossed_product(family, theta_value=theta, order=order)
            for eps in (1, -1) if family == "B2" else (1,):
                checks = verify_beta_star(cp, eps)
                assert any(c.name.startswith("element-level-transport") for c in checks)
                assert all(c.ok for c in checks), (family, eps, theta, checks)


def test_trace_rows_catch_the_induced_map_of_the_other_sign(monkeypatch, plane_products):
    # the eps = -1 map differs from the eps = +1 one only in the [M2] column,
    # which only the parity-trace rows see
    monkeypatch.setattr(verify, "beta_star_matrix", lambda family, eps=1: beta_star_matrix(family, -eps))
    checks = verify_beta_star(plane_products["B2"], 1)
    failed = [(c.name, c.detail) for c in checks if not c.ok]
    assert failed == [("trace-row-constraints[B2,eps=+1]", "tau_10 does not transform with sign -1")]


def _rows(family):
    # a fresh product: the table is cached on it, and the callers patch K0_GENERATORS
    return {c.name: c.status for c in verify_beta_star(crossed_product(family))}


def test_checks_catch_a_corrupted_generator_table(monkeypatch):
    spec = families.K0_GENERATORS["B3"]
    assert _rows("B3")["fixture-comparison[B3]"] == "pass"
    # exchanging the labels [Q1(p)] and [Q0(p)] moves the typed exotic entry
    # of [Q0(p)] onto the class Q1(p), which only the displayed fixture can see
    swap = {"[Q1(p)]": "[Q0(p)]", "[Q0(p)]": "[Q1(p)]"}
    classes = tuple(swap.get(lbl, lbl) for lbl in spec.classes)
    monkeypatch.setitem(families.K0_GENERATORS, "B3", spec._replace(classes=classes))
    rows = _rows("B3")
    assert rows["fixture-comparison[B3]"] == "fail"
    assert rows["induced-map-order-and-unit[B3]"] == rows["element-level-transport[B3]"] == "pass"
    # a wrong entry in the typed-in exotic column breaks the order of the induced map
    label, column = spec.exotic
    column = tuple((lbl, 0 if lbl == "[1]" else v) for lbl, v in column)
    monkeypatch.setitem(families.K0_GENERATORS, "B3", spec._replace(exotic=(label, column)))
    rows = _rows("B3")
    assert rows["induced-map-order-and-unit[B3]"] == "fail"
    assert rows["element-level-transport[B3]"] == "pass"


# ---------------------------------------------------------------------------
# the K0 basis derived from the holonomy

F = Fraction

# The stems (name, word, k, m, phase) and classes (label, stem, n) that the
# generator table typed in before they were derived.
TYPED_STEMS = {
    "B2": (("p", (0, 0), 1, 2, (0, 0)), ("Vp", (1, 0), 1, 2, (0, 0)),
           ("Wp", (0, 1), 1, 2, (0, 0)), ("VWp", (1, 1), 1, 2, (0, 1))),
    "B3": (("p", (0, 0), 1, 3, (0, 0)), ("X", (1, 0), 1, 3, (0, F(1, 3))), ("Y", (2, 0), 1, 3, (0, F(4, 3)))),
    "B4": (("p", (0, 0), 1, 4, (0, 0)), ("x", (1, 0), 1, 4, (0, F(1, 2))), ("Vp2", (1, 0), 2, 2, (0, 0))),
    "B6": (("p", (0, 0), 1, 6, (0, 0)), ("y", (1, 0), 2, 3, (0, F(1, 3))), ("Vp3", (1, 0), 3, 2, (0, 0))),
}
TYPED_CLASSES = {
    "B2": (("[e00]", "p", 0), ("[e01]", "Vp", 0), ("[e10]", "Wp", 0), ("[e11]", "VWp", 0)),
    "B3": (("[Q1(p)]", "p", 1), ("[Q0(p)]", "p", 0), ("[Q1(X)]", "X", 1),
           ("[Q0(X)]", "X", 0), ("[Q1(Y)]", "Y", 1), ("[Q0(Y)]", "Y", 0)),
    "B4": (("[Q2(p)]", "p", 2), ("[Q1(p)]", "p", 1), ("[Q0(p)]", "p", 0),
           ("[Q2(x)]", "x", 2), ("[Q1(x)]", "x", 1), ("[Q0(x)]", "x", 0), ("[Q0(Vp2)]", "Vp2", 0)),
    "B6": (("[Q4(p)]", "p", 4), ("[Q3(p)]", "p", 3), ("[Q2(p)]", "p", 2), ("[Q1(p)]", "p", 1),
           ("[Q0(p)]", "p", 0), ("[Q2(y)]", "y", 2), ("[Q0(y)]", "y", 0), ("[Q0(Vp3)]", "Vp3", 0)),
}


@pytest.mark.parametrize("family", families.K_FAMILIES)
def test_derived_basis_reproduces_the_typed_table(family):
    spec = families.K0_GENERATORS[family]
    stems, classes = _derived_basis(family)
    assert tuple((name, *stem) for name, stem in zip(spec.stems, stems, strict=True)) == TYPED_STEMS[family]
    assert spec.classes[0] == "[1]"
    named = tuple((lbl, spec.stems[i], n) for lbl, (i, n) in zip(spec.classes[1:], classes, strict=True))
    assert named == TYPED_CLASSES[family]
    # the derivation reads A from the plane action, whose B3 generator is the square of the holonomy
    a = [list(row) for row in zip(*(img.target for img in crossed_product(family).action.images))]
    assert a == lattice._plane_matrix(families.DEFORMED[family])
    h = lattice.holonomy_matrix(family)
    assert a == (mat_mul(h, h) if family == "B3" else h)


@pytest.mark.parametrize("family", families.K_FAMILIES)
def test_every_label_names_its_derived_class(family):
    spec = families.K0_GENERATORS[family]
    stems, classes = _derived_basis(family)

    def label(i, n):
        (v, w), *_ = stems[i]
        # the typed [e_ab] reads the W exponent first: [e01] is Q0(V p)
        return f"[e{w}{v}]" if family == "B2" else f"[Q{n}({spec.stems[i]})]"

    assert spec.classes == ("[1]", *(label(i, n) for i, n in classes))


@pytest.mark.parametrize("family", families.K_FAMILIES)
def test_burnside_count_of_fixed_points_gives_the_rank(family):
    # n_k = (1/N) sum_j |det(A^gcd(j, k, N) - 1)|, from the holonomy and int_det alone
    a = lattice.holonomy_matrix(family)
    n = families.DEFORMED[family][0]

    def fixed_points(e):
        power = functools.reduce(mat_mul, [a] * e)
        return abs(int_det([[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(power)]))

    counts = [Fraction(sum(fixed_points(math.gcd(j, k, n)) for j in range(n)), n) for k in range(1, n)]
    assert all(c.denominator == 1 for c in counts)
    stems, _ = _derived_basis(family)
    assert sum(m - 1 for _, _, m, _ in stems) == sum(counts)
    assert 2 + sum(counts) == len(beta_star_matrix(family).basis) == {"B2": 6, "B3": 8, "B4": 9, "B6": 10}[family]


@pytest.mark.parametrize("family", families.K_FAMILIES)
def test_the_table_builds_one_chain_per_stem(monkeypatch, family):
    """The derivation builds no projector; the table builds each stem's chain once."""
    q_projector = CrossedProduct.q_projector
    chains = []

    def counting_q_projector(cp, x, *, period=None):
        chains.append(x)
        return q_projector(cp, x, period=period)

    _derived_basis.cache_clear()
    monkeypatch.setattr(CrossedProduct, "q_projector", counting_q_projector)
    table = k0_generator_table(crossed_product(family))
    assert chains == list(table.stems.values())
    assert len(chains) == {"B2": 4, "B3": 3, "B4": 3, "B6": 3}[family]


def test_derivation_certificates_survive_optimize_flag():
    """The stem order is certified by the derivation, each class nonzero by the table."""
    code = (
        "import sys\n"
        "import ncbieberbach.crossed as cr\n"
        "def attempt(build):\n"
        "    try:\n"
        "        build()\n"
        "    except AssertionError as exc:\n"
        "        print(sys.flags.optimize, exc)\n"
        "stem = cr._stem_element\n"
        "cr._stem_element = lambda cp, *args: stem(cp, *args) * 2\n"
        "attempt(lambda: cr._derived_basis('B3'))\n"
        "cr._stem_element = stem\n"
        "cr.CrossedProduct.q_projector = lambda cp, x: [cp.zero()] * cp.n\n"
        "attempt(lambda: cr.k0_generator_table(cr.crossed_product('B3')))\n"
    )
    assert _run_optimized(code) == ["1 B3: stem (0, 0) has no order 3", "1 B3: the class [Q1(p)] vanishes"]


# ---------------------------------------------------------------------------
# first homology of the space groups


def test_holonomy_matrices():
    assert lattice.holonomy_matrix("B2") == [[-1, 0], [0, -1]]
    assert lattice.holonomy_matrix("B3") == [[0, 1], [-1, -1]]
    assert lattice.holonomy_matrix("B4") == [[0, -1], [1, 0]]
    assert lattice.holonomy_matrix("B6") == [[0, -1], [1, 1]]


def test_first_homology_values():
    assert bieberbach_h1("B2") == AbelianGroup(1, (2, 2))
    assert bieberbach_h1("B3") == AbelianGroup(1, (3,))
    assert bieberbach_h1("B4") == AbelianGroup(1, (2,))
    assert bieberbach_h1("B6") == AbelianGroup(1)


@pytest.mark.parametrize("family", families.K_FAMILIES)
def test_k0_equals_z_plus_h1(family):
    assert compare_with_k0(family)
