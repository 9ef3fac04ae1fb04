"""Verification: the checks the engine runs on its own results, as report rows.

Every checker returns its rows as a ``list[report.Check]`` under the names the
reports print.  They cover each link the K-theory rests on: the ring laws, the
Z_N actions and the cocycle scan (whose rows ``actions.scan_row`` builds), the
crossed products and their projectors, the trace laws, the Morita witnesses,
the exchange identity, beta_hat_*, the K-groups and K0 = Z + H1.
A check of a crossed product takes the ``CrossedProduct`` it checks and reads
the family from it.  ``SUITES`` maps the suites of ``nbk verify`` to
functions of one ``Settings``; a suite builds each of its crossed products
once, and each sampling suite draws from one ``random.Random(seed)`` in a
fixed order; sharing no state, they run side by side under ``run_suites``.

Some rows rest on a finite certificate rather than on samples.  psi is
multiplicative for every pair by the lemma of ``crossed.psi_lemma_mismatch``
and the reconstruction sum_ij psi(u^k)_ij E_ij = u^k, 1 <= k < N, both
certified once per family, so ``morita`` makes only max(3, samples // 100) psi
draws, each compared entry by entry.  The exchange identity is checked on the
plane subalgebra's generators, and the four ``tau[F]-*`` rows of the canonical
trace on every pair of the sampling box where a side can be nonzero.
"""
from __future__ import annotations

import functools
import itertools
import os
import random
from fractions import Fraction
from typing import NamedTuple

from . import families
from .actions import (
    check_compatibility,
    check_order,
    deformed_action,
    freeness_witness,
    homogeneous_components,
    scan_cocycles,
    scan_row,
)
from .crossed import (
    ContextError,
    CrossedProduct,
    TwistedTrace,
    canonical_trace,
    crossed_product,
    k0_generator_table,
    psi_lemma_mismatch,
    psi_multiplicativity_mismatch,
    random_crossed_element,
    random_torus_element,
    tau_parity_trace,
)
from .ktheory import beta_star_matrix, compare_with_k0, fixture_comparison, pv_solve
from .lattice import mat_mul
from .report import Check
from .scalars import PhasedScalar, cyc_root, field_order
from .torus import standard_torus

__all__ = [
    "Settings",
    "SUITES",
    "SUITE_NOTES",
    "run_suites",
    "verify_trace_laws",
    "verify_exchange_iso",
    "verify_projections",
    "hexic_reading_comparison",
    "verify_beta_star",
    "check_matrix_units",
    "k_group_checks",
    "homology_check",
]


class Settings(NamedTuple):
    """What the suites read.  ``order`` is the derived field order,
    ``scalars.field_order`` of the grid denominator and of ``theta``."""

    seed: int
    samples: int
    degree: int
    denominator: int
    theta: Fraction | None = None

    @property
    def order(self) -> int:
        return field_order(self.denominator, 1 if self.theta is None else self.theta.denominator)


def _sampled(name: str, samples: int, trial) -> Check:
    """``name`` passes when none of ``samples`` calls of ``trial`` returns a
    counterexample; sampling stops at the first one, so a passing check
    makes exactly ``samples`` trials, each drawing in its own fixed order."""
    for _ in range(samples):
        counterexample = trial()
        if counterexample is not None:
            return Check(name, "fail", counterexample=counterexample)
    return Check(name, "pass")


# ---------------------------------------------------------------------------
# crossed products: projectors, matrix units, traces, exchange


def _projector_failure(cp: CrossedProduct, stem: str, projectors) -> str:
    """The first projector law the spectral projectors of ``stem`` break, or ""."""
    for n, q in enumerate(projectors):
        if q * q != q:
            return f"Q{n}({stem}) not idempotent"
        if q.star() != q:
            return f"Q{n}({stem}) not self-adjoint"
    for n1, n2 in itertools.combinations(range(cp.n), 2):
        if not (projectors[n1] * projectors[n2]).is_zero():
            return f"Q{n1}({stem}) Q{n2}({stem}) != 0"
    if sum(projectors, cp.zero()) != cp.one():
        return f"sum of projectors of {stem} is not 1"
    return ""


def verify_projections(cp: CrossedProduct) -> list[Check]:
    """Idempotency, self-adjointness, orthogonality and completeness of the
    spectral projectors behind the K0 generators of the plane crossed product
    ``cp``, the order-2 generator projections, and the tabulated generator
    coefficients that fail their order precondition (as anomalies)."""
    family = cp.family
    table = k0_generator_table(cp)
    checks = []
    for stem, projectors in table.projectors.items():
        failure = _projector_failure(cp, stem, projectors)
        checks.append(Check.of(f"projector-laws[{stem}][{family}]", not failure, failure))
    if family == "B2":
        for lbl, el in table.non_exotic():
            if lbl == "[1]":
                continue
            good = el * el == el and el.star() == el
            checks.append(Check.of(f"projection{lbl}[{family}]", good, "" if good else f"{lbl} fails"))
    for anomaly in table.anomalies:
        checks.append(Check(f"generator-coefficient[{family}]{anomaly.label}", "anomaly", anomaly.message))
    return checks


def hexic_reading_comparison(cp: CrossedProduct) -> list[Check]:
    """Compare the period-3 and period-6 exponent readings of the hexic projectors.

    Both readings give idempotents; only the period-6 reading, the one of the
    K0 generator table, yields six distinct projectors that sum to one.  The
    period-3 reading repeats with period three and sums to 1 + x^3.
    """
    if cp.n != 6:
        raise ContextError("the reading comparison concerns the hexic crossed product")
    p = cp.p()
    third = cp.q_projector(p, period=3)
    sixth = k0_generator_table(cp).projectors["p"]
    total3 = sum(third, cp.zero())
    total6 = sum(sixth, cp.zero())
    distinct = len({repr(q) for q in sixth}) == 6
    return [
        Check.of("hexic-period3-idempotent", all(q * q == q for q in third)),
        Check.of("hexic-period3-repeats", third[0] == third[3] and third[1] == third[4]),
        Check.of("hexic-period3-completeness-fails", total3 == cp.one() + p ** 3 and total3 != cp.one()),
        Check.of("hexic-period6-laws", total6 == cp.one() and distinct),
    ]


def check_matrix_units(cp: CrossedProduct) -> Check:
    """E_ij E_kl = delta_jk E_il and sum E_ii = 1, with E_ij* = E_ji.

    The 2 N^2 products E_i0 E_0j = E_ij and E_0i E_j0 = delta_ij E_00 imply
    all N^4 relations: E_ij E_kl = E_i0 (E_0j E_k0) E_0l = delta_jk E_i0 E_00 E_0l.
    """
    units = cp.matrix_units()
    cells = list(itertools.product(range(cp.n), repeat=2))
    ok = (
        sum((units[i][i] for i in range(cp.n)), cp.zero()) == cp.one()
        and all(units[i][j].star() == units[j][i] for i, j in cells)
        and all(units[i][0] * units[0][j] == units[i][j] for i, j in cells)
        and all(units[0][i] * units[j][0] == (units[0][0] if i == j else cp.zero()) for i, j in cells)
    )
    return Check.of(f"matrix-units[{cp.family}]", ok)


def verify_trace_laws(traces: list[TwistedTrace], samples: int = 200, seed: int = 7, degree: int = 2) -> list[Check]:
    """Sample the twist laws of the base functionals and the trace laws upstairs.

    The traces, all of one crossed product, share one sample stream, whose
    products (alpha(a), a b, alpha^s(b) a, x y, y x, beta_hat(x)) are computed
    once, when a trace still tests the law; each trace tests each law on every
    sample until it fails.  Rows ``{name}-{law}`` (name: the trace's name)
    go trace by trace.
    """
    cp = traces[0].cp
    if not all(cp.same_context(t.cp) for t in traces):
        raise ContextError("the traces live in different crossed products")
    laws = ("base-invariance", "base-twist-law", "tracial-on-crossed-product", "beta-hat-scaling")
    rng = random.Random(seed)
    found: list[dict[str, str]] = [{} for _ in traces]  # law -> counterexample, per trace
    factors = {t.s: cyc_root(cp.n, t.s, order=cp.algebra.order) for t in traces}
    for _ in range(samples):
        a = random_torus_element(rng, cp.algebra, degree)
        b = random_torus_element(rng, cp.algebra, degree)
        x = random_crossed_element(rng, cp, degree)
        y = random_crossed_element(rng, cp, degree)
        alpha_a = functools.cache(lambda: cp.action.apply(a))
        ab = functools.cache(lambda: a * b)
        twisted = functools.cache(lambda s: cp.action.apply(b, power=s % cp.n) * a)
        xy = functools.cache(lambda: x * y)
        yx = functools.cache(lambda: y * x)
        beta_x = functools.cache(lambda: cp.beta_hat(x))
        for t, fails in zip(traces, found):
            if "base-invariance" not in fails and t.base_eval(alpha_a()) != t.base_eval(a):
                fails["base-invariance"] = f"a={a!r}"
            if "base-twist-law" not in fails and t.base_eval(ab()) != t.base_eval(twisted(t.s)):
                fails["base-twist-law"] = f"a={a!r}, b={b!r}"
            if "tracial-on-crossed-product" not in fails and t.eval(xy()) != t.eval(yx()):
                fails["tracial-on-crossed-product"] = f"x={x!r}, y={y!r}"
            if "beta-hat-scaling" not in fails and t.eval(beta_x()) != t.eval(x) * factors[t.s]:
                fails["beta-hat-scaling"] = f"x={x!r}"
    return [Check.of(f"{t.name}-{law}", law not in fails, fails.get(law, ""))
            for t, fails in zip(traces, found) for law in laws]


def _canonical_trace_laws(cp: CrossedProduct, degree: int) -> dict:
    """The canonical trace tau's laws (those of ``verify_trace_laws``), each an iterator
    of (lhs, rhs, witness) that covers the sampling box |m_i| <= ``degree``.  tau reads the
    identity coefficient of a_0 and delta_m alpha^k(delta_n) is a multiple of delta_{m + A^k n},
    so both sides of a bilinear law vanish off the pairs (delta_m, delta_{-m}) (alpha^N = 1) and
    (delta_m p^k, delta_n p^{-k}), n = -A^{-k} m, whose y x is the x y of (n, -k).  The linear
    laws read every delta_m p^k; beta_hat scales tau by lambda^N = 1."""
    tau, n, alg = canonical_trace(cp), cp.n, cp.algebra
    box = list(itertools.product(range(-degree, degree + 1), repeat=alg.d))
    neg = functools.cache(lambda m: tuple(-t for t in m))
    partner = functools.cache(lambda m, k: neg(cp.action.power_pair(-k % n, m)[0]))
    square = functools.cache(lambda m: tau.base_eval(alg.delta(m) * alg.delta(neg(m))))
    xy = functools.cache(lambda m, k: tau.eval(cp.delta(m, k) * cp.delta(partner(m, k), -k)))
    return {
        "base-invariance": ((tau.base_eval(cp.action.apply(alg.delta(m))), tau.base_eval(alg.delta(m)), f"m={m}")
                            for m in box),
        "base-twist-law": ((square(m), square(neg(m)), f"m={m}") for m in box),
        "tracial-on-crossed-product": ((xy(m, k), xy(partner(m, k), -k % n), f"m={m}, k={k}")
                                       for m in box for k in range(n)),
        "beta-hat-scaling": ((tau.eval(cp.beta_hat(x)), tau.eval(x), f"m={m}, k={k}")
                             for m in box for k in range(n) for x in [cp.delta(m, k)]),
    }


def verify_exchange_iso(cp: CrossedProduct) -> list[Check]:
    """Check that conjugation by u implements beta_hat on the plane subalgebra.

    In the three-torus crossed product ``cp`` the relations p u = lambda u p
    and u x u* = beta_hat(x) for x in the plane crossed subalgebra are exactly
    the defining relations of the opposite iterated crossed product.  Ad u
    (u is unitary) and beta_hat are both automorphisms, beta_hat's
    multiplicativity being sampled in ``arithmetic-and-beta-hat[F]``, and
    V^{+-1}, W^{+-1} and p generate the plane subalgebra, so checking
    u g u* = beta_hat(g) on these five generators checks it everywhere.
    """
    family = cp.family
    if family not in families.K_FAMILIES or cp.algebra.d != 3:
        raise ContextError(f"the exchange identity is set up on the three-torus for {families.K_FAMILIES}")
    u = cp.delta((1, 0, 0), 0)
    u_inv = cp.delta((-1, 0, 0), 0)
    generators = {"V": cp.delta((0, 1, 0), 0), "V^-1": cp.delta((0, -1, 0), 0),
                  "W": cp.delta((0, 0, 1), 0), "W^-1": cp.delta((0, 0, -1), 0), "p": cp.p()}

    rel = cp.p() * u == u * cp.p() * cp.lam
    detail = next((f"generator {name}" for name, g in generators.items() if u * g * u_inv != cp.beta_hat(g)), "")
    return [
        Check.of(f"exchange-p-u-commutation[{family}]", rel, "" if rel else "p u != lambda u p"),
        Check.of(f"exchange-conjugation-implements-beta-hat[{family}]", not detail, detail),
    ]


# ---------------------------------------------------------------------------
# the induced map beta_hat_*


def _as_rational(value) -> Fraction:
    """Read a theta-free PhasedScalar as its rational value."""
    if value.is_zero():
        return Fraction(0)
    b, c = value.single_phase()
    if b != 0:
        raise ValueError("trace value is not theta-free")
    return c.rational_value()


def verify_beta_star(cp: CrossedProduct, epsilon: int = 1) -> list[Check]:
    """Three consistency layers for the induced-map data of the plane crossed
    product ``cp``, then the fixture.

    (i) the induced map has the right order and fixes the identity class;
    (ii) each non-exotic column is the exact element-level image under the
    dual automorphism; the columns are solved at formal theta, so at a
    rational theta this checks them against the folded elements;
    (iii) for the order-2 family, the tabulated trace vectors transform with
    the signs forced by the twist (invariant for the canonical trace and the
    pairing row, sign-reversed for the parity traces).

    Rows carry the suffix ``[F]`` (``[B2,eps=+1]`` for the order-2 family);
    the anomalies found on the way follow the checks as ``note`` rows.
    """
    family = cp.family
    suffix = f"[B2,eps={epsilon:+d}]" if family == "B2" else f"[{family}]"
    data = beta_star_matrix(family, epsilon)
    checks: list[Check] = []
    notes: list[str] = []

    try:
        data.validate()
        checks.append(Check.of(f"induced-map-order-and-unit{suffix}", True))
    except ValueError as exc:
        checks.append(Check.of(f"induced-map-order-and-unit{suffix}", False, str(exc)))

    table = k0_generator_table(cp)
    notes.extend(f"{a.label}: {a.message}" for a in table.anomalies)
    induced = data.induced_map()
    index = {lbl: i for i, lbl in enumerate(data.basis)}
    exotic = [lbl for lbl, el in table.elements.items() if el is None]

    ok = True
    detail = ""
    for lbl, element in table.non_exotic():
        j = index[lbl]
        if any(induced[index[bad]][j] for bad in exotic):
            ok, detail = False, f"column {lbl} touches the exotic class"
            break
        expected = sum((table.elements[base] * induced[i][j]
                        for i, base in enumerate(data.basis) if induced[i][j]), cp.zero())
        if cp.beta_hat(element) != expected:
            ok, detail = False, f"column {lbl} disagrees with the element-level image"
            break
    checks.append(Check.of(f"element-level-transport{suffix}", ok, detail))

    if family == "B2":
        eps = Fraction(epsilon)
        tau = canonical_trace(cp)
        tau_row = [_as_rational(tau.eval(table.elements[lbl])) for lbl in data.basis[:-1]]
        vectors = [("tau", tau_row + [Fraction(0)], 1)]  # tau on [M2] is theta/2, whose rational part is 0
        # tau_jk on [M2], keyed by the generator it pairs with: [e00], [e01], [e10], [e11]
        m2_values = {(0, 0): Fraction(1), (1, 0): -eps, (0, 1): eps, (1, 1): Fraction(-1)}
        for (j, k), m2 in m2_values.items():
            t = tau_parity_trace(cp, j, k)
            row = [_as_rational(t.eval(table.elements[lbl])) for lbl in data.basis[:-1]]
            vectors.append((t.name, row + [m2], -1))
        vectors.append(("chern-pairing", [Fraction(0)] * (len(data.basis) - 1) + [Fraction(1)], 1))

        ok = True
        detail = ""
        for name, row, sign in vectors:
            if mat_mul([row], induced) != [[sign * x for x in row]]:
                ok, detail = False, f"{name} does not transform with sign {sign}"
                break
        checks.append(Check.of(f"trace-row-constraints{suffix}", ok, detail))
        notes.append(
            "the tabulated parity-trace column labels are transposed against the"
            " closed formula; values on the exotic class are keyed by the paired"
            " generator (supported monomial), which is the assignment the"
            " transport law confirms"
        )

    comparison = fixture_comparison(family, epsilon)
    swapped = comparison.get("swapped")
    agree = comparison.get("k_groups_agree", True)
    detail = {"exact": "exact match", "mismatch": "fixture mismatch"}.get(
        comparison["status"], f"fixture matches after exchanging {swapped}" + ("" if agree else ", K-groups differ"))
    checks.append(Check.of(f"fixture-comparison{suffix}", comparison["status"] != "mismatch" and agree, detail))
    if swapped and agree:
        notes.append(
            f"displayed matrix for {family} orders the basis with"
            f" {swapped[0]} and {swapped[1]} exchanged; K-groups agree either way"
        )
    return checks + [Check(f"note{suffix}", "anomaly", note) for note in notes]


# ---------------------------------------------------------------------------
# K-groups and homology rows


def k_group_checks(family: str, epsilon: int, k0, k1) -> list[Check]:
    """K0 and K1 against the reference values; for the order-2 family also
    their independence of the sign parameter."""
    expected_k0, expected_k1 = families.K_EXPECTED[family]
    checks = [
        Check.of("k0-matches-reference", (k0.free_rank, k0.torsion) == expected_k0, str(k0)),
        Check.of("k1-matches-reference", (k1.free_rank, k1.torsion) == expected_k1, str(k1)),
    ]
    if family == "B2":
        other = pv_solve(beta_star_matrix("B2", -epsilon))
        checks.append(Check.of("epsilon-independent", other == (k0, k1)))
    return checks


def homology_check(family: str) -> Check:
    return Check.of(f"k0-equals-z-plus-h1[{family}]", compare_with_k0(family))


# ---------------------------------------------------------------------------
# the suites of ``nbk verify``


def algebra(settings: Settings) -> list[Check]:
    rng = random.Random(settings.seed)
    alg = standard_torus(3, settings.theta, settings.order)

    def scalar():
        root = cyc_root(alg.order, rng.randrange(alg.order), order=alg.order)
        s = PhasedScalar.phase(Fraction(rng.randint(-3, 3), rng.randint(1, 6)), root, order=alg.order)
        return s + PhasedScalar.of(Fraction(rng.randint(-2, 2), rng.randint(1, 2)), alg.order)

    def ring():
        x, y, z = scalar(), scalar(), scalar()
        xy = x * y
        if xy * z != x * (y * z) or x * (y + z) != xy + x * z or xy != y * x:
            return {"x": repr(x), "y": repr(y), "z": repr(z)}
        if x.conj().conj() != x or xy.conj() != x.conj() * y.conj():
            return {"x": repr(x), "y": repr(y)}
        return None

    def torus():
        a, b, c = (random_torus_element(rng, alg, 2) for _ in range(3))
        ab = a * b
        if ab * c != a * (b * c):
            return {"a": repr(a), "b": repr(b), "c": repr(c),
                    "lhs": repr(ab * c), "rhs": repr(a * (b * c))}
        if ab.star() != b.star() * a.star() or a.star().star() != a:
            return {"a": repr(a), "b": repr(b)}
        return None

    def bicharacter():
        m, n, mp = (tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(3))
        msum = tuple(a + b for a, b in zip(m, mp))
        if alg.cocycle(msum, n) != alg.cocycle(m, n) * alg.cocycle(mp, n):
            return {"m": m, "m2": mp, "n": n,
                    "lhs": repr(alg.cocycle(msum, n)),
                    "rhs": repr(alg.cocycle(m, n) * alg.cocycle(mp, n))}
        if not (alg.cocycle(m, n) * alg.cocycle(n, m)).is_one():
            return {"m": m, "n": n}
        return None

    return [
        _sampled("scalar-ring-axioms", settings.samples, ring),
        _sampled("torus-associativity-and-star", settings.samples, torus),
        _sampled("cocycle-bicharacter-laws", settings.samples, bicharacter),
    ]


def actions(settings: Settings) -> list[Check]:
    rng = random.Random(settings.seed)
    alg = standard_torus(3, settings.theta, settings.order)
    checks: list[Check] = []
    for family in families.CYCLIC_FAMILIES:
        action = deformed_action(family, alg)

        def reconstruction():
            """x_0 + ... + x_{N-1} = x, and g . x_k = lambda^k x_k."""
            x = random_torus_element(rng, alg, 2)
            comps = homogeneous_components(action, x)
            ok = sum(comps, alg.zero()) == x and all(
                action.apply(comp) == comp * cyc_root(action.order, k, order=alg.order) for k, comp in enumerate(comps))
            return None if ok else {"x": repr(x), "components": [repr(comp) for comp in comps]}

        checks += [
            Check.of(f"order[{family}]", check_order(action)),
            Check.of(f"compatibility[{family}]", check_compatibility(action)),
            Check.of(f"freeness-witness[{family}]", freeness_witness(action)),
            _sampled(f"homogeneous-reconstruction[{family}]", max(2, settings.samples // 10), reconstruction),
        ]
    checks += [
        scan_row(scan_cocycles(family, settings.denominator)) for family in families.FAMILIES
    ]
    return checks


def crossed(settings: Settings) -> list[Check]:
    rng = random.Random(settings.seed)
    checks: list[Check] = []
    hexic: list[Check] = []
    for family in families.K_FAMILIES:  # one product alive at a time
        cp = crossed_product(family, dim=2, theta_value=settings.theta, order=settings.order)

        def arithmetic():
            x, y, z = (random_crossed_element(rng, cp, 2) for _ in range(3))
            xy = x * y
            if xy * z != x * (y * z) or xy.star() != y.star() * x.star():
                return {"x": repr(x), "y": repr(y), "z": repr(z)}
            if cp.beta_hat(xy) != cp.beta_hat(x) * cp.beta_hat(y):
                return {"x": repr(x), "y": repr(y)}
            orbit_end = x
            for _ in range(cp.n):
                orbit_end = cp.beta_hat(orbit_end)
            return None if orbit_end == x else {"x": repr(x), "orbit_end": repr(orbit_end)}

        checks.append(Check.of(f"p-order[{family}]", cp.p() ** cp.n == cp.one()))
        checks.append(_sampled(f"arithmetic-and-beta-hat[{family}]", max(2, settings.samples // 10), arithmetic))
        checks += verify_projections(cp)
        if family == "B6":
            hexic = hexic_reading_comparison(cp)
    return checks + hexic


def traces(settings: Settings) -> list[Check]:
    """The sampled laws of the B2 parity traces, and the certified laws of each
    family's canonical trace (``_canonical_trace_laws``), which draw nothing."""
    checks: list[Check] = []
    for family in families.K_FAMILIES:
        cp = crossed_product(family, dim=2, theta_value=settings.theta, order=settings.order)
        if family == "B2":
            parity = [tau_parity_trace(cp, j, k) for j, k in ((0, 0), (0, 1), (1, 0), (1, 1))]
            checks += verify_trace_laws(parity, samples=settings.samples, seed=settings.seed,
                                        degree=settings.degree)
        laws = _canonical_trace_laws(cp, settings.degree).items()
        witnesses = [(law, next((w for lhs, rhs, w in pairs if lhs != rhs), "")) for law, pairs in laws]
        checks += [Check.of(f"tau[{family}]-{law}", not w, w) for law, w in witnesses]
    return checks


def _psi_row(cp: CrossedProduct, units: Check, sampled: Check) -> Check:
    """``psi-multiplicative[F]``: the certificate of ``psi_lemma_mismatch``, the
    reconstruction sum_ij psi(u^k)_ij E_ij = u^k of every matrix psi uses,
    1 <= k < N (k = 0 is sum E_ii = 1, which ``matrix-units[F]`` checks), the
    ``matrix-units[F]`` row the lemma rests on, then the sampled draws; the
    row passes only if all four do."""
    mismatch, matrix_units = psi_lemma_mismatch(cp), cp.matrix_units()
    cells = list(itertools.product(range(cp.n), repeat=2))
    unreconstructed = (k for k, psi_k in enumerate(map(cp.psi_u_power, range(1, cp.n)), 1)
                       if cp.dot((psi_k[i][j], matrix_units[i][j]) for i, j in cells) != cp.delta((k, 0, 0), 0))
    if mismatch is not None:
        detail = "entry ({},{}) of the matrix of u does not commute with {}".format(*mismatch)
    elif (k := next(unreconstructed, None)) is not None:
        detail = "psi(u) = p_hat + s p_hat (u^N - 1) is not u" if k == 1 else f"sum_ij psi(u^{k})_ij E_ij is not u^{k}"
    elif not units.ok:
        detail = "the matrix units fail, and the lemma rests on them"
    else:
        return sampled
    return Check(sampled.name, "fail", detail, sampled.counterexample)


def morita(settings: Settings) -> list[Check]:
    """The stable-isomorphism witnesses (p, p_hat), their matrix units, psi
    and the exchange identity, per family on the three-torus.

    ``psi-multiplicative[F]`` rests on the lemma of
    ``crossed.psi_lemma_mismatch``: once psi(u) commutes with p and p_hat,
    every psi(u^k) reconstructs u^k and the matrix units hold,
    psi(x) psi(y) = psi(xy) for every pair.
    Each of the max(3, samples // 100) draws reads the alpha-invariance of the
    psi components of x, then compares psi(x) psi(y) with psi(xy) entry by
    entry, so ``psi-components-invariant[F]`` reads at least one draw.
    """
    rng = random.Random(settings.seed)
    checks: list[Check] = []
    for family in families.K_FAMILIES:
        cp = crossed_product(family, dim=3, theta_value=settings.theta, order=settings.order)
        ph = cp.phat()
        invariant_ok = True

        def psi():
            nonlocal invariant_ok
            x = random_torus_element(rng, cp.algebra, 2, terms=1)
            y = random_torus_element(rng, cp.algebra, 2, terms=1)
            comps = cp.psi_components(x)
            invariant_ok &= all(cp.action.apply(comp) == comp for comp in comps)
            mismatch = psi_multiplicativity_mismatch(cp, comps, y, x * y)
            if mismatch is None:
                return None
            i, j, lhs, rhs = mismatch
            return {"x": repr(x), "y": repr(y), "entry": (i, j), "lhs": repr(lhs), "rhs": repr(rhs)}

        units = check_matrix_units(cp)
        checks += [
            Check.of(f"phat-order[{family}]", ph ** cp.n == cp.one()),
            Check.of(f"p-phat-exchange[{family}]", cp.p() * ph == ph * cp.p() * cp.lam),
            units,
            _psi_row(cp, units, _sampled(f"psi-multiplicative[{family}]", max(3, settings.samples // 100), psi)),
        ]
        checks.append(Check.of(f"psi-components-invariant[{family}]", invariant_ok))
        checks += verify_exchange_iso(cp)
    return checks


def betastar(settings: Settings) -> list[Check]:
    checks: list[Check] = []
    for family in families.K_FAMILIES:
        cp = crossed_product(family, dim=2, theta_value=settings.theta, order=settings.order)
        for eps in (1, -1) if family == "B2" else (1,):
            checks += verify_beta_star(cp, eps)
    return checks


def homology(settings: Settings) -> list[Check]:
    return [homology_check(family) for family in families.K_FAMILIES]


SUITES = {suite.__name__: suite for suite in (algebra, actions, crossed, traces, morita, betastar, homology)}

# report notes that go with a suite's rows
SUITE_NOTES = {"crossed": (
    "the hexic projector exponents admit a period-3 misreading; only the"
    " period-6 reading yields six distinct projectors summing to one",
)}


def _worker(queue: int, out: int, names: list[str], settings: Settings) -> None:
    """One forked worker: until ``queue`` is empty, take a suite's index off it
    (one byte) and send on ``out`` one frame, the index, the length of the
    pickled rows and the rows; a suite that raises sends nothing, and the
    parent runs it again."""
    import pickle
    with open(out, "wb") as pipe:
        while index := os.read(queue, 1):
            try:
                rows = pickle.dumps(SUITES[names[index[0]]](settings))
            except Exception:
                continue
            pipe.write(index + len(rows).to_bytes(8, "big") + rows)
            pipe.flush()


def run_suites(names: list[str], settings: Settings) -> list[list[Check]]:
    """The rows of each suite in ``names``, in order, exactly as run one by one.
    With 2 or more suites and CPUs (``os.sched_getaffinity``: a POSIX host, so
    ``os.fork`` exists), one forked worker per CPU, up to one per suite, takes
    the suites off a shared queue of their indices, one byte each (so at most
    256 names), and the frames of ``_worker`` are read as they come.  Once all
    are reaped, a suite that sent no rows (it raised, or its worker died) runs
    again here, in order, and raises as it would."""
    if len(names) < 2 or not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return [SUITES[name](settings) for name in names]
    import pickle
    import select
    import signal
    queue, feed = os.pipe()
    os.write(feed, bytes(range(len(names))))  # one byte per suite: a 1-byte read takes exactly one
    os.close(feed)
    workers: dict[int, tuple[int, bytearray]] = {}  # per unreaped worker: read end -> pid, undecoded bytes
    found = [None] * len(names)
    try:
        for _ in range(min(len(names), len(os.sched_getaffinity(0)))):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker: it never returns into the caller's stack
                try:
                    _worker(queue, write, names, settings)
                finally:
                    os._exit(0)
            os.close(write)
            workers[read] = pid, bytearray()
        while workers:  # read whichever pipe has bytes, so no worker blocks on a full one
            for read in select.select(list(workers), [], [])[0]:
                pid, frame = workers[read]
                if not (chunk := os.read(read, 1 << 16)):  # the worker closed its pipe on its way out
                    os.waitpid(pid, 0)
                    del workers[read]
                    os.close(read)
                frame += chunk
                while len(frame) >= 9 + (size := int.from_bytes(frame[1:9], "big")):  # a whole frame
                    found[frame[0]] = pickle.loads(frame[9:9 + size])
                    del frame[:9 + size]
    finally:
        os.close(queue)
        for read, (pid, _) in workers.items():  # the parent raised: stop the rest
            os.close(read)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [SUITES[name](settings) if rows is None else rows for name, rows in zip(names, found)]
