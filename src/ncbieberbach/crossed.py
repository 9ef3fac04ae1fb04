"""Crossed products of twisted tori by finite cyclic actions.

Elements are finite sums ``sum_k a_k p^k`` with ``a_k`` torus elements and
``p`` the order-N unitary implementing the action, multiplied by

    (a p^k)(b p^j) = a alpha^k(b) p^{k+j mod N}.

A ``CrossedElement`` stores exactly these N components, a dict from k mod N to
the nonzero torus element a_k.  Its product is one pass of the torus kernel
``torus.Accumulator``: for each pair of components the action image of b is
read as (target, r, theta key) unit pairs (``ActionOnTorus.image_terms``) and
its phase is added to the cocycle's, so no intermediate torus element is
built.  ``CrossedProduct.dot`` sums many products x_i y_i in one accumulator
and reduces the coefficients once; the matrix work (``_matrix_of``, the
u-power matrices, ``psi_matrix``, ``psi_multiplicativity_mismatch``) is built
on it.  Sums, negation, powers, scalar multiples and equality come from
``scalars.SparseElement``, the base shared with ``PhasedScalar`` and
``TorusElement``.

On top of the arithmetic this module provides:

* ``beta_hat``, the dual automorphism fixing the torus and scaling p by the
  conjugate root of unity; it drives the K-theory computation downstream.
* spectral projectors ``q_projector`` for elements of order N, with an exact
  precondition check that reports the residual x^N - 1 on failure;
* the stable-isomorphism witness pair (p, p_hat) with its matrix units, the
  inversion identity, and the matrix decomposition of torus elements over the
  invariant subalgebra;
* canonical and twisted trace functionals together with samplers verifying
  the trace laws and the beta_hat scaling law;
* the exchange identity between acting first by Z and then by Z_N or the
  other way around, checked on bounded monomials;
* the tabulated K0 generator projections per family, with exact anomaly
  detection for the two tabulated coefficients that fail their order
  precondition (the cubic V^2 p generator and the hexic V p^2 generator).
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .actions import ActionOnTorus, FiniteAction, deformed_action, homogeneous_components
from .families import K_FAMILIES
from .scalars import PhasedScalar, SparseElement, certify, cyc_root
from .torus import Accumulator, Monomial, NcTorus, ThetaMatrix, TorusElement

__all__ = [
    "ContextError",
    "NotRootOfUnityError",
    "CrossedProduct",
    "CrossedElement",
    "crossed_product",
    "TraceFunctional",
    "CanonicalTrace",
    "TwistedTrace",
    "tau_parity_trace",
    "verify_trace_laws",
    "verify_exchange_iso",
    "AnomalyNote",
    "GeneratorTable",
    "k0_generator_table",
    "verify_projections",
    "hexic_reading_comparison",
    "psi_multiplicativity_mismatch",
    "CheckOutcome",
]


class ContextError(ValueError):
    """Operation requires structure the chosen family does not provide."""


class NotRootOfUnityError(ValueError):
    """x^N != 1 where a spectral projector needs an order-N element."""

    def __init__(self, message: str, residual: "CrossedElement"):
        super().__init__(message)
        self.residual = residual


@dataclass
class CheckOutcome:
    name: str
    ok: bool
    detail: str = ""


class CrossedProduct:
    """A ⋊ Z_N for A a twisted torus and a fixed order-N action."""

    def __init__(self, algebra: NcTorus, action: FiniteAction, family: str = ""):
        self.algebra = algebra
        self.action = action
        self.family = family
        self.n = action.order
        self.rt: ActionOnTorus = action.runtime(algebra)
        self.lam = cyc_root(self.n, 1, order=algebra.order)
        images = tuple((img.target, img.coeff.terms()) for img in action.images)
        self._key = (algebra.key(), self.n, images)
        self._matrix_units: list[list["CrossedElement"]] | None = None
        self._psi_unit_powers: list["CrossedElement"] | None = None
        self._psi_matrix_powers: list[list[list["CrossedElement"]]] | None = None

    # -- identity ------------------------------------------------------------

    def key(self):
        return self._key

    def same_context(self, other: "CrossedProduct") -> bool:
        return other is self or (isinstance(other, CrossedProduct) and self._key == other._key)

    # -- constructors -----------------------------------------------------------

    def zero(self) -> "CrossedElement":
        return CrossedElement._raw(self, {})

    def one(self) -> "CrossedElement":
        return self.delta((0,) * self.algebra.d, 0)

    def delta(self, m, k: int, coeff=1) -> "CrossedElement":
        return CrossedElement(self, {k % self.n: self.algebra.delta(m, coeff)})

    def p(self, k: int = 1) -> "CrossedElement":
        return self.delta((0,) * self.algebra.d, k)

    def embed(self, x: TorusElement) -> "CrossedElement":
        if not self.algebra.same_algebra(x.algebra):
            raise ContextError("torus element lives in a different algebra")
        return CrossedElement(self, {0: x})

    def torus_generators(self) -> list["CrossedElement"]:
        return [self.embed(g) for g in self.algebra.basis_generators()]

    # -- products -------------------------------------------------------------

    def dot(self, pairs) -> "CrossedElement":
        """sum_i x_i y_i over the (x_i, y_i) pairs, accumulated in one pass.

        (a p^k)(b p^j) = a alpha^k(b) p^{k+j}: each pair of components adds
        a times the unit-phased image terms of b into component k + j.
        """
        acc = Accumulator(self.algebra)
        rt, n = self.rt, self.n
        for x, y in pairs:
            for z in (x, y):
                if not self.same_context(z.parent):
                    raise ContextError("elements live in different crossed products")
            for k, a in x._comps.items():
                for j, b in y._comps.items():
                    acc.add((k + j) % n, a, rt.image_terms(b, k))
        return CrossedElement._raw(self, acc.components())

    # -- structure maps -------------------------------------------------------

    def beta_hat(self, x: "CrossedElement") -> "CrossedElement":
        """The dual automorphism: a p^k -> conj(lambda)^k a p^k."""
        order = self.algebra.order
        comps = {k: a * cyc_root(self.n, -k, order=order) for k, a in x._comps.items()}
        return CrossedElement._raw(self, comps)

    def q_projector(self, n: int, x: "CrossedElement", period: int | None = None) -> "CrossedElement":
        """Spectral projector (1/N) sum_k e^{2 pi i n k / period} x^k; needs x^N = 1.

        ``period`` defaults to N; other periods compare exponent readings.
        """
        period = self.n if period is None else period
        acc = self.zero()
        power = self.one()
        for k in range(self.n):
            acc = acc + power * cyc_root(period, n * k, order=self.algebra.order)
            power = power * x
        if power != self.one():
            raise NotRootOfUnityError(
                f"element has no order {self.n}: x^{self.n} - 1 = {(power - self.one())!r}",
                residual=power - self.one(),
            )
        return acc * Fraction(1, self.n)

    # -- stable-isomorphism witnesses -----------------------------------------

    def _require_central_scaled_u(self):
        if self.algebra.d != 3:
            raise ContextError("the p_hat construction needs the three-torus context")
        for k in (1, 2):
            if not self.algebra.theta.entry(0, k).is_zero():
                raise ContextError("the first generator must be central")
        img = self.action.images[0]
        if img.target != (1, 0, 0):
            raise ContextError("the action must scale the central generator")
        b, c = img.coeff.single_phase()
        if b != 0 or c != self.lam:
            raise ContextError("the central generator must be scaled by the primitive root")

    def invariant_averaging(self) -> "CrossedElement":
        """s = (1/N) sum_{k=1}^{N} p^k, the spectral projector of p at 1."""
        acc = self.zero()
        for k in range(1, self.n + 1):
            acc = acc + self.p(k % self.n)
        return acc * Fraction(1, self.n)

    def phat(self) -> "CrossedElement":
        """p_hat = u + s (u^{1-N} - u); satisfies p_hat^N = 1, p p_hat = lambda p_hat p."""
        self._require_central_scaled_u()
        u = self.delta((1, 0, 0), 0)
        u_back = self.delta((1 - self.n, 0, 0), 0)
        s = self.invariant_averaging()
        return u + s * (u_back - u)

    def psi_unit(self) -> "CrossedElement":
        """The image of u: p_hat + s p_hat (u^N - 1)."""
        ph = self.phat()
        s = self.invariant_averaging()
        u_n = self.delta((self.n, 0, 0), 0)
        return ph + s * ph * (u_n - self.one())

    def _psi_powers(self) -> list["CrossedElement"]:
        if self._psi_unit_powers is None:
            powers = [self.one()]
            unit = self.psi_unit()
            for _ in range(self.n - 1):
                powers.append(powers[-1] * unit)
            self._psi_unit_powers = powers
        return self._psi_unit_powers

    def psi_components(self, x: TorusElement) -> list[TorusElement]:
        """The invariant coefficients x_k u^{-k} of the decomposition of x."""
        comps = homogeneous_components(self.action, self.algebra, x)
        out = []
        for k, comp in enumerate(comps):
            u_back = self.algebra.delta((-k, 0, 0))
            out.append(comp * u_back)
        return out

    def psi_element(self, x: TorusElement) -> "CrossedElement":
        """sum_k (x_k u^{-k}) psi_unit^k; equals embed(x) by the inversion identity."""
        powers = self._psi_powers()
        acc = self.zero()
        for k, comp in enumerate(self.psi_components(x)):
            acc = acc + self.embed(comp) * powers[k]
        return acc

    def matrix_units(self) -> list[list["CrossedElement"]]:
        """E[i][j] built from (p, p_hat): E_ij E_kl = delta_jk E_il, sum E_ii = 1."""
        if self._matrix_units is None:
            ph = self.phat()
            ph_powers = [self.one()]
            for _ in range(self.n - 1):
                ph_powers.append(ph_powers[-1] * ph)
            units = []
            for i in range(self.n):
                row = []
                for j in range(self.n):
                    shift = (j - i) % self.n
                    row.append(ph_powers[shift] * self.q_projector(j, self.p()))
                units.append(row)
            self._matrix_units = units
        return self._matrix_units

    def _matrix_of(self, x: "CrossedElement") -> list[list["CrossedElement"]]:
        """Entry (i, j) is sum_m E_mi x E_jm, the coefficient of x on E_ij."""
        units = self.matrix_units()
        n = self.n
        left = [[units[m][i] * x for m in range(n)] for i in range(n)]
        return [
            [self.dot((left[i][m], units[j][m]) for m in range(n)) for j in range(n)]
            for i in range(n)
        ]

    def _matrix_product(self, left, right) -> list[list["CrossedElement"]]:
        """The N x N product of two matrices over the crossed product."""
        n = self.n
        return [
            [self.dot((left[i][k], right[k][j]) for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    def _psi_powers_matrix(self) -> list[list[list["CrossedElement"]]]:
        """Matrices of u^k over the invariant subalgebra, with exact
        reconstruction sum_ij (m_k)_ij E_ij = u^k verified at build time."""
        if self._psi_matrix_powers is None:
            units = self.matrix_units()
            mat_u = self._matrix_of(self.delta((1, 0, 0), 0))
            identity = [
                [self.one() if i == j else self.zero() for j in range(self.n)]
                for i in range(self.n)
            ]
            powers = [identity]
            for _ in range(self.n - 1):
                powers.append(self._matrix_product(powers[-1], mat_u))
            cells = list(itertools.product(range(self.n), repeat=2))
            for k, mat in enumerate(powers):
                acc = self.dot((mat[i][j], units[i][j]) for i, j in cells)
                certify(acc == self.delta((k, 0, 0), 0), "matrix reconstruction of u^k failed")
            self._psi_matrix_powers = powers
        return self._psi_matrix_powers

    def psi_matrix(self, x: TorusElement) -> list[list["CrossedElement"]]:
        """The N x N matrix of x over the invariant subalgebra.

        Assembled as sum_k (x_k u^{-k}) (matrix of u)^k; by the verified
        reconstruction of the u-power matrices and linearity this equals the
        matrix-unit sandwich of x.
        """
        powers = self._psi_powers_matrix()
        comps = [(k, self.embed(comp)) for k, comp in enumerate(self.psi_components(x)) if comp]
        return [
            [self.dot((ce, powers[k][i][j]) for k, ce in comps) for j in range(self.n)]
            for i in range(self.n)
        ]

    def __repr__(self):
        return f"CrossedProduct({self.family or 'custom'}, N={self.n}, d={self.algebra.d})"


class CrossedElement(SparseElement, ctx="parent", data="_comps"):
    """sum_k a_k p^k, stored as its components: k mod N -> nonzero torus element a_k."""

    __slots__ = ("parent", "_comps")

    # -- inspection ------------------------------------------------------------

    def terms(self):
        """The flattened ((monomial, k), coefficient) pairs, sorted."""
        return tuple(sorted(((m, k), c) for k, a in self._comps.items() for m, c in a._terms.items()))

    def coefficient(self, m, k: int) -> PhasedScalar:
        return self.component(k).coefficient(m)

    def component(self, k: int) -> TorusElement:
        """The torus coefficient a_k of p^k."""
        return self._comps.get(k % self.parent.n) or self.parent.algebra.zero()

    def torus_part(self) -> TorusElement:
        """The underlying torus element, requiring all terms at k = 0."""
        if self._comps.keys() - {0}:
            raise ValueError("element has components outside the torus")
        return self.component(0)

    def is_invariant_torus(self) -> bool:
        try:
            t = self.torus_part()
        except ValueError:
            return False
        return self.parent.rt.apply(t) == t

    # -- arithmetic ----------------------------------------------------------------

    def _one(self) -> "CrossedElement":
        return self.parent.one()

    def _check(self, other: "CrossedElement"):
        if not self.parent.same_context(other.parent):
            raise ContextError("elements live in different crossed products")

    def __mul__(self, other):
        """(a p^k)(b p^j) = a alpha^k(b) p^{k+j}, one pass of the kernel."""
        if not isinstance(other, CrossedElement):
            return self._scale(other)
        return self.parent.dot(((self, other),))

    def star(self) -> "CrossedElement":
        """(a p^k)* = alpha^{-k}(a*) p^{-k}."""
        cp = self.parent
        return CrossedElement(
            cp, {(-k) % cp.n: cp.rt.apply(a.star(), power=(-k) % cp.n) for k, a in self._comps.items()}
        )

    # -- display ---------------------------------------------------------------

    def __repr__(self):
        if not self._comps:
            return "0"
        parts = [
            f"[{','.join(map(str, m))}|p^{k}]:{c!r}" for (m, k), c in self.terms()
        ]
        return "CrossedElement{" + "; ".join(parts) + "}"


def psi_multiplicativity_mismatch(cp: CrossedProduct, x: TorusElement, y: TorusElement,
                                  xy: TorusElement | None = None):
    """The first entry (i, j, lhs, rhs) where psi(x) psi(y) != psi(xy), or None.

    ``xy`` defaults to x * y, so None for every sampled pair is the
    multiplicativity of psi; each entry of psi(x) psi(y) is one ``dot``.
    """
    lhs = cp._matrix_product(cp.psi_matrix(x), cp.psi_matrix(y))
    rhs = cp.psi_matrix(x * y if xy is None else xy)
    for i, j in itertools.product(range(cp.n), repeat=2):
        if lhs[i][j] != rhs[i][j]:
            return i, j, lhs[i][j], rhs[i][j]
    return None


def crossed_product(family: str, dim: int = 2, theta_value=None, order: int | None = None) -> CrossedProduct:
    """Build the crossed product of a family on the standard preset."""
    if dim == 2:
        algebra = NcTorus(ThetaMatrix.standard_2d(), theta_value=theta_value, order=order)
    elif dim == 3:
        algebra = NcTorus(ThetaMatrix.standard_3d(), theta_value=theta_value, order=order)
    else:
        raise ValueError("dim must be 2 or 3")
    action = deformed_action(family, algebra)
    return CrossedProduct(algebra, action, family=family)


# ---------------------------------------------------------------------------
# traces


class TraceFunctional:
    """Base class: a linear functional on one crossed product."""

    name = "trace"
    s: int

    def base_eval(self, x: TorusElement) -> PhasedScalar:
        raise NotImplementedError

    def eval(self, x: CrossedElement) -> PhasedScalar:
        """Reads the p^{N-s} component through the base functional."""
        cp = x.parent
        return self.base_eval(x.component((cp.n - self.s) % cp.n))


class CanonicalTrace(TraceFunctional):
    """tau(sum a_k p^k) = coefficient of the identity monomial in a_0."""

    name = "tau"

    def __init__(self, cp: CrossedProduct):
        self.cp = cp
        self.s = cp.n

    def base_eval(self, x: TorusElement) -> PhasedScalar:
        return x.coefficient((0,) * self.cp.algebra.d)


class TwistedTrace(TraceFunctional):
    """Extension of a twisted base functional given by a rule on monomials."""

    def __init__(self, cp: CrossedProduct, rule, s: int, name: str = "phi"):
        if not 0 < s <= cp.n:
            raise ValueError("the twist must satisfy 0 < s <= N")
        self.cp = cp
        self.rule = rule
        self.s = s
        self.name = name

    def base_eval(self, x: TorusElement) -> PhasedScalar:
        acc = self.cp.algebra.scalar_zero()
        for m, c in x.terms():
            weight = self.rule(m)
            if weight is not None:
                acc = acc + c * weight
        return acc


def tau_parity_trace(cp: CrossedProduct, j: int, k: int) -> TwistedTrace:
    """The order-2 parity functionals on the plane crossed product.

    On basis monomials the closed form is weight 4 on delta_(i1,i2) p with
    (i1, i2) = (j, k) mod 2, zero otherwise; the theta-phase in the closed
    form cancels against the monomial normal form exactly.
    """
    if cp.n != 2 or cp.algebra.d != 2:
        raise ContextError("parity traces live on the plane crossed product by Z_2")
    four = cp.algebra.scalar(4)

    def rule(m: Monomial):
        return four if (m[0] % 2, m[1] % 2) == (j, k) else None

    return TwistedTrace(cp, rule, s=1, name=f"tau_{j}{k}")


def random_torus_element(rng: random.Random, algebra: NcTorus, degree: int, terms: int = 2) -> TorusElement:
    out = algebra.zero()
    for _ in range(terms):
        m = tuple(rng.randint(-degree, degree) for _ in range(algebra.d))
        root = cyc_root(algebra.order, rng.randrange(algebra.order), order=algebra.order)
        coeff = PhasedScalar.phase(Fraction(rng.randint(-2, 2)), root, order=algebra.order)
        if algebra.theta_value is not None:
            coeff = coeff.fold(algebra.theta_value)
        scale = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        out = out + algebra.delta(m) * (coeff * scale)
    return out


def random_crossed_element(rng: random.Random, cp: CrossedProduct, degree: int, terms: int = 2) -> CrossedElement:
    out = cp.zero()
    for _ in range(terms):
        x = random_torus_element(rng, cp.algebra, degree, terms=1)
        out = out + cp.embed(x) * cp.p(rng.randrange(cp.n))
    return out


@dataclass
class TraceLawReport:
    name: str
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_trace_laws(t: TraceFunctional, cp: CrossedProduct, samples: int = 200,
                      seed: int = 7, degree: int = 2) -> TraceLawReport:
    """Sample the twist laws of the base functional and the trace laws upstairs."""
    rng = random.Random(seed)
    report = TraceLawReport(name=t.name)
    sigma = cp.rt
    s = t.s

    inv_ok, twist_ok, tracial_ok, scale_ok = True, True, True, True
    inv_ce = twist_ce = tracial_ce = scale_ce = ""
    factor = cyc_root(cp.n, s, order=cp.algebra.order)
    for _ in range(samples):
        a = random_torus_element(rng, cp.algebra, degree)
        b = random_torus_element(rng, cp.algebra, degree)
        if inv_ok and t.base_eval(sigma.apply(a)) != t.base_eval(a):
            inv_ok, inv_ce = False, f"a={a!r}"
        if twist_ok and t.base_eval(a * b) != t.base_eval(sigma.apply(b, power=s % cp.n) * a):
            twist_ok, twist_ce = False, f"a={a!r}, b={b!r}"
        x = random_crossed_element(rng, cp, degree)
        y = random_crossed_element(rng, cp, degree)
        if tracial_ok and t.eval(x * y) != t.eval(y * x):
            tracial_ok, tracial_ce = False, f"x={x!r}, y={y!r}"
        if scale_ok and t.eval(cp.beta_hat(x)) != t.eval(x) * factor:
            scale_ok, scale_ce = False, f"x={x!r}"
    report.checks.append(CheckOutcome("base-invariance", inv_ok, inv_ce))
    report.checks.append(CheckOutcome("base-twist-law", twist_ok, twist_ce))
    report.checks.append(CheckOutcome("tracial-on-crossed-product", tracial_ok, tracial_ce))
    report.checks.append(CheckOutcome("beta-hat-scaling", scale_ok, scale_ce))
    return report


# ---------------------------------------------------------------------------
# exchange of the two crossed products


@dataclass
class ExchangeReport:
    family: str
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_exchange_iso(family: str, degree: int = 3, theta_value=None,
                        order: int | None = None) -> ExchangeReport:
    """Check that conjugation by u implements beta_hat on the plane subalgebra.

    In the three-torus crossed product the relations p u = lambda u p and
    u x u* = beta_hat(x) for x in the plane crossed subalgebra are exactly
    the defining relations of the opposite iterated crossed product, so
    verifying them on bounded monomials verifies the exchange isomorphism.
    """
    if family not in K_FAMILIES:
        raise ContextError(f"the exchange identity is set up for {K_FAMILIES}")
    cp = crossed_product(family, dim=3, theta_value=theta_value, order=order)
    report = ExchangeReport(family=family)
    u = cp.delta((1, 0, 0), 0)
    u_inv = cp.delta((-1, 0, 0), 0)

    rel = cp.p() * u == u * cp.p() * cp.lam
    report.checks.append(CheckOutcome("p-u-commutation", rel, "" if rel else "p u != lambda u p"))

    ok = True
    detail = ""
    for m2, m3 in itertools.product(range(-degree, degree + 1), repeat=2):
        for k in range(cp.n):
            x = cp.delta((0, m2, m3), k)
            if u * x * u_inv != cp.beta_hat(x):
                ok = False
                detail = f"monomial (0,{m2},{m3}) p^{k}"
                break
        if not ok:
            break
    report.checks.append(CheckOutcome("conjugation-implements-beta-hat", ok, detail))
    return report


# ---------------------------------------------------------------------------
# tabulated K0 generators


@dataclass
class AnomalyNote:
    label: str
    message: str


@dataclass
class GeneratorTable:
    family: str
    labels: tuple[str, ...]
    elements: dict  # label -> CrossedElement | None (None marks the exotic class)
    anomalies: list = field(default_factory=list)

    def non_exotic(self):
        return [(lbl, el) for lbl, el in self.elements.items() if el is not None]


def _order_defect(cp: CrossedProduct, x: CrossedElement) -> CrossedElement:
    return x ** cp.n - cp.one()


def k0_generator_table(family: str, cp: CrossedProduct) -> GeneratorTable:
    """The tabulated K0 generator projections, with exact anomaly handling.

    Two tabulated coefficients fail the order precondition of their spectral
    projector; for those the minimal phase correction restoring x^N = 1 is
    adopted and the defect is recorded as an anomaly instead of being hidden.
    """
    if family not in K_FAMILIES:
        raise ValueError(f"K0 generators are tabulated for {K_FAMILIES}")
    if cp.algebra.d != 2 or cp.family != family:
        raise ContextError("expected the plane crossed product of the same family")
    alg = cp.algebra
    v, w = cp.torus_generators()
    p = cp.p()
    half = Fraction(1, 2)
    anomalies: list[AnomalyNote] = []

    def tp(b) -> PhasedScalar:
        return alg.theta_phase(Fraction(b))

    if family == "B2":
        elements = {
            "[1]": cp.one(),
            "[e00]": (cp.one() + p) * half,
            "[e01]": (cp.one() + v * p) * half,
            "[e10]": (cp.one() + w * p) * half,
            "[e11]": (cp.one() + v * w * p * tp(1)) * half,
            "[M2]": None,
        }
        labels = ("[1]", "[e00]", "[e01]", "[e10]", "[e11]", "[M2]")
        return GeneratorTable(family, labels, elements, anomalies)

    if family == "B3":
        x = v * p * tp(Fraction(1, 3))
        defect_x = _order_defect(cp, x)
        certify(defect_x.is_zero(), "cubic V p generator unexpectedly fails its order")
        y_tab = v * v * p * tp(Fraction(2, 3))
        defect_y = _order_defect(cp, y_tab)
        y = v * v * p * tp(Fraction(4, 3))
        if not defect_y.is_zero():
            anomalies.append(AnomalyNote(
                "[Q(Y)]",
                "tabulated coefficient e^{2 pi i theta/3} on V^2 p gives"
                f" Y^3 - 1 = {defect_y!r}; the minimal theta-phase correction"
                " e^{4 pi i theta/3} restores Y^3 = 1 and is used below",
            ))
        certify(_order_defect(cp, y).is_zero(), "corrected cubic V^2 p generator fails its order")
        elements = {
            "[1]": cp.one(),
            "[Q1(p)]": cp.q_projector(1, p),
            "[Q0(p)]": cp.q_projector(0, p),
            "[Q1(X)]": cp.q_projector(1, x),
            "[Q0(X)]": cp.q_projector(0, x),
            "[Q1(Y)]": cp.q_projector(1, y),
            "[Q0(Y)]": cp.q_projector(0, y),
            "[M3]": None,
        }
        labels = ("[1]", "[Q1(p)]", "[Q0(p)]", "[Q1(X)]", "[Q0(X)]", "[Q1(Y)]", "[Q0(Y)]", "[M3]")
        return GeneratorTable(family, labels, elements, anomalies)

    if family == "B4":
        x = v * p * tp(half)
        certify(_order_defect(cp, x).is_zero(), "quartic V p generator unexpectedly fails its order")
        vp2 = v * p ** 2
        certify(_order_defect(cp, vp2).is_zero(), "quartic V p^2 generator fails its order")
        elements = {
            "[1]": cp.one(),
            "[Q2(p)]": cp.q_projector(2, p),
            "[Q1(p)]": cp.q_projector(1, p),
            "[Q0(p)]": cp.q_projector(0, p),
            "[Q2(x)]": cp.q_projector(2, x),
            "[Q1(x)]": cp.q_projector(1, x),
            "[Q0(x)]": cp.q_projector(0, x),
            "[Q0(Vp2)]": cp.q_projector(0, vp2),
            "[M4]": None,
        }
        labels = ("[1]", "[Q2(p)]", "[Q1(p)]", "[Q0(p)]", "[Q2(x)]", "[Q1(x)]", "[Q0(x)]",
                  "[Q0(Vp2)]", "[M4]")
        return GeneratorTable(family, labels, elements, anomalies)

    # B6
    y_tab = v * p ** 2 * alg.scalar(cyc_root(6, 1, order=alg.order))
    defect = _order_defect(cp, y_tab)
    if not defect.is_zero():
        anomalies.append(AnomalyNote(
            "[Q(y)]",
            "tabulated coefficient e^{i pi/3} on V p^2 gives"
            f" y^6 - 1 = {defect!r}; with the theta-phase correction"
            " e^{i pi theta/3} alone one gets y^3 = -1, which kills the"
            " even-index projectors, so the sixth root is dropped and"
            " y = e^{i pi theta/3} V p^2 (y^3 = 1) is used below",
        ))
    y_half = y_tab * tp(Fraction(1, 3))
    certify(_order_defect(cp, y_half).is_zero(), "theta-corrected hexic V p^2 fails y^6 = 1")
    certify(y_half ** 3 == -cp.one(), "theta-corrected hexic V p^2 fails y^3 = -1")
    y = v * p ** 2 * tp(Fraction(1, 3))
    certify(y ** 3 == cp.one(), "hexic y fails y^3 = 1")
    vp3 = v * p ** 3
    certify(_order_defect(cp, vp3).is_zero(), "hexic V p^3 generator fails its order")
    elements = {
        "[1]": cp.one(),
        "[Q4(p)]": cp.q_projector(4, p),
        "[Q3(p)]": cp.q_projector(3, p),
        "[Q2(p)]": cp.q_projector(2, p),
        "[Q1(p)]": cp.q_projector(1, p),
        "[Q0(p)]": cp.q_projector(0, p),
        "[Q2(y)]": cp.q_projector(2, y),
        "[Q0(y)]": cp.q_projector(0, y),
        "[Q0(Vp3)]": cp.q_projector(0, vp3),
        "[M6]": None,
    }
    labels = ("[1]", "[Q4(p)]", "[Q3(p)]", "[Q2(p)]", "[Q1(p)]", "[Q0(p)]",
              "[Q2(y)]", "[Q0(y)]", "[Q0(Vp3)]", "[M6]")
    return GeneratorTable(family, labels, elements, anomalies)


def spectral_arguments(family: str, cp: CrossedProduct) -> dict:
    """The order-N elements whose projectors generate K0, by label stem."""
    alg = cp.algebra
    v, w = cp.torus_generators()
    p = cp.p()

    def tp(b):
        return alg.theta_phase(Fraction(b))

    if family == "B2":
        return {"p": p, "Vp": v * p, "Wp": w * p, "VWp": v * w * p * tp(1)}
    if family == "B3":
        return {"p": p, "X": v * p * tp(Fraction(1, 3)), "Y": v * v * p * tp(Fraction(4, 3))}
    if family == "B4":
        return {"p": p, "x": v * p * tp(Fraction(1, 2)), "Vp2": v * p ** 2}
    if family == "B6":
        return {"p": p, "y": v * p ** 2 * tp(Fraction(1, 3)), "Vp3": v * p ** 3}
    raise ValueError(f"unknown family {family!r}")


def verify_projections(family: str, cp: CrossedProduct) -> list[CheckOutcome]:
    """Idempotency, self-adjointness, orthogonality, and completeness checks."""
    checks: list[CheckOutcome] = []
    for stem, x in spectral_arguments(family, cp).items():
        projectors = [cp.q_projector(n, x) for n in range(cp.n)]
        total = cp.zero()
        ok = True
        detail = ""
        for n, q in enumerate(projectors):
            total = total + q
            if q * q != q:
                ok, detail = False, f"Q{n}({stem}) not idempotent"
                break
            if q.star() != q:
                ok, detail = False, f"Q{n}({stem}) not self-adjoint"
                break
        if ok:
            for n1 in range(cp.n):
                for n2 in range(n1 + 1, cp.n):
                    if not (projectors[n1] * projectors[n2]).is_zero():
                        ok, detail = False, f"Q{n1}({stem}) Q{n2}({stem}) != 0"
                        break
                if not ok:
                    break
        if ok and total != cp.one():
            ok, detail = False, f"sum of projectors of {stem} is not 1"
        checks.append(CheckOutcome(f"projector-laws[{stem}]", ok, detail))
    if family == "B2":
        table = k0_generator_table(family, cp)
        for lbl, el in table.non_exotic():
            if lbl == "[1]":
                continue
            good = el * el == el and el.star() == el
            checks.append(CheckOutcome(f"projection{lbl}", good, "" if good else f"{lbl} fails"))
    return checks


def hexic_reading_comparison(cp: CrossedProduct) -> list[CheckOutcome]:
    """Compare the period-3 and period-6 exponent readings of the hexic projectors.

    Both readings give idempotents; only the period-6 reading yields six
    distinct projectors that sum to one.  The period-3 reading repeats with
    period three and sums to 1 + x^3.
    """
    if cp.n != 6:
        raise ContextError("the reading comparison concerns the hexic crossed product")
    p = cp.p()
    checks = []
    third = [cp.q_projector(n, p, period=3) for n in range(6)]
    sixth = [cp.q_projector(n, p) for n in range(6)]
    idem = all(q * q == q for q in third)
    checks.append(CheckOutcome("period3-idempotent", idem))
    checks.append(CheckOutcome("period3-repeats", third[0] == third[3] and third[1] == third[4]))
    total3 = cp.zero()
    for q in third:
        total3 = total3 + q
    checks.append(CheckOutcome("period3-completeness-fails", total3 == cp.one() + p ** 3 and total3 != cp.one()))
    total6 = cp.zero()
    for q in sixth:
        total6 = total6 + q
    distinct = len({repr(q) for q in sixth}) == 6
    checks.append(CheckOutcome("period6-laws", total6 == cp.one() and distinct))
    return checks
