"""Crossed products of twisted tori by finite cyclic actions.

Elements are finite sums ``sum_k a_k p^k`` with ``a_k`` torus elements and
``p`` the order-N unitary implementing the action, multiplied by

    (a p^k)(b p^j) = a alpha^k(b) p^{k+j mod N}.

A ``CrossedElement`` stores exactly these N components, a dict from k mod N to
the nonzero torus element a_k.  Its product is one pass of the torus kernel
``torus.Accumulator``: for each pair of components the action image of b is
read as (target, r, theta key) unit pairs (``ActionOnTorus.power_pair``) and
its phase is added to the cocycle's, so no intermediate torus element is
built.  ``CrossedProduct.dot`` sums many products x_i y_i in one accumulator
and reduces the coefficients once; ``psi_multiplicativity_mismatch`` and
``psi_lemma_mismatch`` are built on it, while ``psi_matrix`` reads each
entry off one component in closed form.  Sums, negation, powers, scalar
multiples and equality come from ``scalars.SparseElement``, the base shared
with ``PhasedScalar`` and ``TorusElement``.

On top of the arithmetic this module provides:

* ``beta_hat``, the dual automorphism fixing the torus and scaling p by the
  conjugate root of unity; it drives the K-theory computation downstream.
* ``q_projector``: all N spectral projectors of an order-N element from one
  chain of powers, with an exact precondition check that reports the
  residual x^N - 1 on failure;
* the stable-isomorphism witness pair (p, p_hat) with its matrix units, the
  inversion identity, the closed-form matrix psi(x) of a torus element over
  the invariant subalgebra (``psi_u_power`` for x = u^k), and the certificate
  of the lemma that makes psi multiplicative;
* one trace type, ``TwistedTrace``: a base functional on the torus, given
  by a rule on monomials, read on the p^{N-s} component.  The canonical
  trace (``canonical_trace``: s = N, the identity coefficient of a_0) and the
  parity traces (``tau_parity_trace``) are instances;
* seeded random elements for the samplers in ``verify``;
* the K0 generator table of a plane crossed product: its stems
  (``_derived_basis``), their projectors and the generator projections, each
  certified nonzero, built once per product and cached on it, with exact
  anomaly detection for the two tabulated coefficients that fail their order
  (the cubic V^2 p generator and the hexic V p^2 generator).
"""
from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from typing import NamedTuple

from .actions import ActionOnTorus, deformed_action, homogeneous_components
from .families import K0_GENERATORS
from .lattice import coset_stems
from .scalars import DEFAULT_CYCLOTOMIC_ORDER, Cyclotomic, PhasedScalar, SparseElement, certify, cyc_root
from .torus import Accumulator, Monomial, NcTorus, TorusElement, split_terms, standard_torus

__all__ = [
    "ContextError",
    "NotRootOfUnityError",
    "CrossedProduct",
    "CrossedElement",
    "crossed_product",
    "TwistedTrace",
    "canonical_trace",
    "tau_parity_trace",
    "AnomalyNote",
    "GeneratorTable",
    "k0_generator_table",
    "psi_multiplicativity_mismatch",
    "psi_lemma_mismatch",
]


class ContextError(ValueError):
    """Operation requires structure the chosen family does not provide."""


class NotRootOfUnityError(ValueError):
    """x^N != 1 where a spectral projector needs an order-N element."""

    def __init__(self, message: str, residual: "CrossedElement"):
        super().__init__(message)
        self.residual = residual


class CrossedProduct:
    """A ⋊ Z_N for a fixed order-N action on a twisted torus A (``action.algebra``)."""

    def __init__(self, action: ActionOnTorus, family: str = ""):
        self.action = action
        self.algebra = action.algebra
        self.family = family
        self.n = action.order
        self.lam = cyc_root(self.n, 1, order=self.algebra.order)
        self._key = action.key()
        self._matrix_units: list[list["CrossedElement"]] | None = None
        self._k0_table: "GeneratorTable | None" = None

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

    def operand(self, x) -> "Operand":
        """x prepared for ``dot``: an ``Operand`` passes through unchanged."""
        if not self.same_context(x.parent):
            raise ContextError("elements live in different crossed products")
        return x if isinstance(x, Operand) else Operand(x)

    def dot(self, pairs) -> "CrossedElement":
        """sum_i x_i y_i over the (x_i, y_i) pairs, accumulated in one pass.

        (a p^k)(b p^j) = a alpha^k(b) p^{k+j}: each pair of components adds
        the split terms of a times the image terms of b under g^k into
        component k + j.  A factor used in several dots (a matrix entry) is
        passed as one ``operand``, so it is split once.
        """
        acc = Accumulator(self.algebra)
        n = self.n
        for x, y in pairs:
            x, y = self.operand(x), self.operand(y)
            for k, lhs in x.left:
                for j, rhs in y.right(k):
                    acc.add((k + j) % n, lhs, rhs)
        return CrossedElement._raw(self, acc.components())

    def _powers(self, x: "CrossedElement", count: int) -> list["CrossedElement"]:
        """[1, x, ..., x^(count - 1)], one product per power."""
        powers = [self.one()]
        for _ in range(count - 1):
            powers.append(powers[-1] * x)
        return powers

    # -- structure maps -------------------------------------------------------

    def beta_hat(self, x: "CrossedElement") -> "CrossedElement":
        """The dual automorphism: a p^k -> conj(lambda)^k a p^k."""
        order = self.algebra.order
        comps = {k: a * cyc_root(self.n, -k, order=order) for k, a in x._comps.items()}
        return CrossedElement._raw(self, comps)

    def q_projector(self, x: "CrossedElement", *, period: int | None = None) -> list["CrossedElement"]:
        """The spectral projectors [Q_0(x), ..., Q_{N-1}(x)] from one chain of
        powers, Q_n(x) = (1/N) sum_k e^{2 pi i n k / period} x^k; needs x^N = 1.

        ``period`` defaults to N; other periods compare exponent readings.
        """
        period = self.n if period is None else period
        *powers, power = self._powers(x, self.n + 1)
        if power != self.one():
            raise NotRootOfUnityError(
                f"element has no order {self.n}: x^{self.n} - 1 = {(power - self.one())!r}",
                residual=power - self.one(),
            )
        order = self.algebra.order
        return [
            sum((xk * cyc_root(period, n * k, order=order) for k, xk in enumerate(powers)), self.zero())
            * Fraction(1, self.n)
            for n in range(self.n)
        ]

    # -- stable-isomorphism witnesses -----------------------------------------

    def _require_central_scaled_u(self):
        if self.algebra.d != 3:
            raise ContextError("the p_hat construction needs the three-torus context")
        if (0, 1) in self.algebra.slots or (0, 2) in self.algebra.slots:
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

    def psi_components(self, x: TorusElement) -> list[TorusElement]:
        """The invariant coefficients x_k u^{-k} of the decomposition of x;
        ``psi_element`` and ``psi_matrix`` take this list."""
        comps = homogeneous_components(self.action, x)
        return [comp * self.algebra.delta((-k, 0, 0)) for k, comp in enumerate(comps)]

    def psi_element(self, comps: list[TorusElement]) -> "CrossedElement":
        """sum_k (x_k u^{-k}) u^k for the ``psi_components`` of x; equals
        embed(x) by the inversion identity.  Nothing in the package calls it:
        demo 04 and ``tests/test_crossed.py`` show that identity with it."""
        return self.dot((self.embed(comp), self.delta((k, 0, 0), 0)) for k, comp in enumerate(comps) if comp)

    def matrix_units(self) -> list[list["CrossedElement"]]:
        """E[i][j] built from (p, p_hat): E_ij E_kl = delta_jk E_il, sum E_ii = 1."""
        if self._matrix_units is None:
            ph_powers = self._powers(self.phat(), self.n)
            projectors = self.q_projector(self.p())
            self._matrix_units = [
                [ph_powers[(j - i) % self.n] * projectors[j] for j in range(self.n)]
                for i in range(self.n)
            ]
        return self._matrix_units

    def _matrix_product(self, left, right) -> list[list["CrossedElement"]]:
        """The N x N product of two matrices over the crossed product, each
        entry prepared once for the N dots it appears in."""
        n = self.n
        left = [[self.operand(e) for e in row] for row in left]
        right = [[self.operand(e) for e in row] for row in right]
        return [
            [self.dot((left[i][k], right[k][j]) for k in range(n)) for j in range(n)]
            for i in range(n)
        ]

    def psi_matrix(self, comps: list[TorusElement]) -> list[list["CrossedElement"]]:
        """The N x N matrix of x over the invariant subalgebra, from its ``psi_components``.

        psi(x) = sum_k (x_k u^{-k}) psi(u)^k, and psi(u) = p_hat + s p_hat (u^N - 1)
        is the cyclic shift with u^N at (0, 1) and 1 at the other (i, i+1 mod N).
        So entry (i, j) is the component k = j - i mod N, times u^N where the
        shift by k passes row 0: j > 0 and (i = 0 or j < i).  This is the
        matrix-unit sandwich of x once ``psi_lemma_mismatch`` finds no entry and
        every ``psi_u_power`` reconstructs its u^k.
        """
        n = self.n
        u_n = self.algebra.delta((n, 0, 0))
        plain = [self.embed(comp) for comp in comps]
        wrapped = [self.embed(comp * u_n) for comp in comps]
        return [[(wrapped if 0 < j and (i == 0 or j < i) else plain)[(j - i) % n] for j in range(n)]
                for i in range(n)]

    def psi_u_power(self, k: int) -> list[list["CrossedElement"]]:
        """psi(u^k) for 0 <= k < N: the ``psi_matrix`` of the unit component list of u^k."""
        return self.psi_matrix([self.algebra.one() if i == k else self.algebra.zero() for i in range(self.n)])

    def __repr__(self):
        return f"CrossedProduct({self.family or 'custom'}, N={self.n}, d={self.algebra.d})"


class Operand:
    """A crossed element split once for the kernel: ``left`` holds the split terms
    of each component, ``right(k)`` their image terms under g^k (built on first use)."""

    __slots__ = ("parent", "left", "_images")

    def __init__(self, x: "CrossedElement"):
        self.parent = x.parent
        self.left = [(k, split_terms(a)) for k, a in x._comps.items()]
        self._images: dict = {}

    def right(self, k: int) -> list:
        terms = self._images.get(k)
        if terms is None:
            pair = self.parent.action.power_pair
            terms = self._images[k] = [(j, [(*pair(k, m), c) for m, c in split]) for j, split in self.left]
        return terms


class CrossedElement(SparseElement, ctx="parent", data="_comps"):
    """sum_k a_k p^k, stored as its components: k mod N -> nonzero torus element a_k."""

    __slots__ = ("parent", "_comps")

    # -- inspection ------------------------------------------------------------

    def terms(self):
        """The flattened ((monomial, k), coefficient) pairs, sorted."""
        return tuple(sorted(((m, k), c) for k, a in self._comps.items() for m, c in a._terms.items()))

    def component(self, k: int) -> TorusElement:
        """The torus coefficient a_k of p^k."""
        return self._comps.get(k % self.parent.n) or self.parent.algebra.zero()

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
            cp, {(-k) % cp.n: cp.action.apply(a.star(), power=(-k) % cp.n) for k, a in self._comps.items()}
        )

    # -- display ---------------------------------------------------------------

    def __repr__(self):
        if not self._comps:
            return "0"
        parts = [
            f"[{','.join(map(str, m))}|p^{k}]:{c!r}" for (m, k), c in self.terms()
        ]
        return "CrossedElement{" + "; ".join(parts) + "}"


def psi_multiplicativity_mismatch(cp: CrossedProduct, comps_x: list[TorusElement],
                                  y: TorusElement, xy: TorusElement):
    """The first entry (i, j, lhs, rhs) where psi(x) psi(y) != psi(xy), or None.

    ``comps_x`` are the ``psi_components`` of x and xy = x * y.  This is the
    end-to-end comparison of one pair; the multiplicativity of psi for every
    pair is the lemma of ``psi_lemma_mismatch``.  Each entry of
    psi(x) psi(y) is one ``dot``.
    """
    lhs = cp._matrix_product(cp.psi_matrix(comps_x), cp.psi_matrix(cp.psi_components(y)))
    rhs = cp.psi_matrix(cp.psi_components(xy))
    for i, j in itertools.product(range(cp.n), repeat=2):
        if lhs[i][j] != rhs[i][j]:
            return i, j, lhs[i][j], rhs[i][j]
    return None


def psi_lemma_mismatch(cp: CrossedProduct):
    """The first entry (i, j, name) of psi(u) = ``psi_u_power(1)`` that does
    not commute with p or with p_hat (``name``), or None.

    The lemma: let the E_ij be matrix units (``verify.check_matrix_units``).
    Then Phi(x)_ij = sum_m E_mi x E_jm is a *-isomorphism onto the N x N
    matrices over the commutant of the E_ij, since Phi(x) Phi(y) = Phi(xy)
    needs only E_km E_m'k = delta_mm' E_kk and sum_k E_kk = 1.  The E_ij are
    polynomials in p and p_hat, and every entry of every psi(u^k) is one of
    the entries 0, 1, u^N of psi(u), so None here puts them all in that
    commutant; where sum_ij psi(u^k)_ij E_ij = u^k (the ``psi-multiplicative[F]``
    row checks it for 1 <= k < N after this certificate), Phi(u^k) = psi(u^k).
    Each psi_component x_k u^{-k} is alpha-invariant, so it commutes with p,
    and a torus element, so it commutes with the torus-central u and with
    p_hat = u + s (u^{1-N} - u); hence Phi(x_k u^{-k}) = (x_k u^{-k}) I, and
    psi_matrix(x) = sum_k Phi(x_k u^{-k}) Phi(u^k) = Phi(sum_k x_k) = Phi(x).
    So psi(x) psi(y) = psi(xy) for every pair x, y.
    """
    mat_u = cp.psi_u_power(1)
    witnesses = [("p", cp.operand(cp.p())), ("p_hat", cp.operand(cp.phat()))]
    for i, j in itertools.product(range(cp.n), repeat=2):
        for name, g in witnesses:
            if cp.dot(((mat_u[i][j], g),)) != cp.dot(((g, mat_u[i][j]),)):
                return i, j, name
    return None


def crossed_product(
    family: str, dim: int = 2, theta_value=None, order: int = DEFAULT_CYCLOTOMIC_ORDER
) -> CrossedProduct:
    """Build the crossed product of a family on the standard preset."""
    return CrossedProduct(deformed_action(family, standard_torus(dim, theta_value, order)), family=family)


# ---------------------------------------------------------------------------
# traces


class TwistedTrace:
    """A functional on one crossed product: a twisted base functional on the
    torus, given by a rule on monomials, read on the p^{N-s} component."""

    def __init__(self, cp: CrossedProduct, rule, s: int, name: str = "phi"):
        if not 0 < s <= cp.n:
            raise ValueError("the twist must satisfy 0 < s <= N")
        self.cp = cp
        self.rule = rule
        self.s = s
        self.name = name

    def base_eval(self, x: TorusElement) -> PhasedScalar:
        acc = PhasedScalar.zero(self.cp.algebra.order)
        for m, c in x._terms.items():
            weight = self.rule(m)
            if weight is not None:
                acc = acc + c * weight
        return acc

    def eval(self, x: CrossedElement) -> PhasedScalar:
        if not self.cp.same_context(x.parent):
            raise ContextError("the element lives in another crossed product")
        return self.base_eval(x.component((self.cp.n - self.s) % self.cp.n))


def canonical_trace(cp: CrossedProduct) -> TwistedTrace:
    """tau(sum a_k p^k) = coefficient of the identity monomial in a_0."""
    return TwistedTrace(cp, lambda m: None if any(m) else 1, s=cp.n, name=f"tau[{cp.family}]")


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
    """``terms`` monomials of degree <= ``degree``, coefficients (p/q) zeta^r e^{i pi b theta}."""
    order = algebra.order
    out: dict[Monomial, PhasedScalar] = {}
    for _ in range(terms):
        m = tuple(rng.randint(-degree, degree) for _ in range(algebra.d))
        r = rng.randrange(order)
        r_theta, key = algebra.unit_pair(Fraction(0), Fraction(rng.randint(-2, 2)))
        p, q = rng.randint(1, 3), rng.randint(1, 2)
        root = Cyclotomic.root(order, r + r_theta)
        coeff = PhasedScalar._raw(order, {key: Cyclotomic(order, tuple(p * a for a in root.num), q)})
        out[m] = out[m] + coeff if m in out else coeff
    return TorusElement(algebra, out)


def random_crossed_element(rng: random.Random, cp: CrossedProduct, degree: int, terms: int = 2) -> CrossedElement:
    comps: dict[int, TorusElement] = {}
    for _ in range(terms):
        x = random_torus_element(rng, cp.algebra, degree, terms=1)
        k = rng.randrange(cp.n)
        comps[k] = comps[k] + x if k in comps else x
    return CrossedElement(cp, comps)


# ---------------------------------------------------------------------------
# K0 generators


class AnomalyNote(NamedTuple):
    label: str
    message: str


class GeneratorTable(NamedTuple):
    stems: dict  # name -> the order-N element whose projectors give classes
    projectors: dict  # name -> [Q_0, ..., Q_{N-1}] of that stem
    elements: dict  # label -> CrossedElement | None (None marks the exotic class)
    anomalies: list  # AnomalyNote per tabulated coefficient that fails x^N = 1

    def non_exotic(self):
        return [(lbl, el) for lbl, el in self.elements.items() if el is not None]


def _stem_element(cp: CrossedProduct, word, k: int, phase) -> CrossedElement:
    """V^i W^j p^k e^{i pi (a + b theta)} for word (i, j) and phase (a, b)."""
    v, w = cp.torus_generators()
    a, b = phase
    return v ** word[0] * w ** word[1] * cp.p(k) * cp.algebra.phase_of_entry(Fraction(a), Fraction(b))


@functools.lru_cache(maxsize=None)
def _derived_basis(family: str) -> tuple:
    """The stems (word, k, m, phase) and classes (stem index, n) of the K0 basis
    of the family's plane product: each stem (c, k, m) of ``lattice.coset_stems``
    is V^i W^j p^k e^{-i pi beta theta / m}, (i, j) = c, where the certified
    (V^i W^j p^k)^m = e^{i pi beta theta}; ``k0_generator_table`` builds its classes."""
    cp = crossed_product(family)
    stems, classes = [], []
    for c, k, m in coset_stems(family):
        power = _stem_element(cp, c, k, (0, 0)) ** m
        beta = next((b for _, scalar in power.terms() for b, _ in scalar.terms()), 0)
        certify(power == cp.one() * cp.algebra.theta_phase(beta), f"{family}: stem {c} has no order {m}")
        classes += [(len(stems), j * k) for j in range(m - 2, -1, -1)]
        stems.append((c, k, m, (0, Fraction(-beta, m))))
    return tuple(stems), tuple(classes)


def k0_generator_table(cp: CrossedProduct) -> GeneratorTable:
    """The K0 generator projections of ``_derived_basis``, labelled by
    ``families.K0_GENERATORS``, with exact anomaly handling; built once per product.

    Two tabulated coefficients fail the order precondition of their spectral
    projector; for those the stem carries the minimal phase correction
    restoring x^N = 1, and the defect is recorded as an anomaly instead of
    being hidden.  One ``q_projector`` call per stem builds all N of its
    projectors and certifies its order; each class indexes that list.
    Each class is certified nonzero (by label, also under ``python -O``): at
    every theta, Q_{jk} of a stem x of p-power k has p^0 coefficient 1/m,
    m = N / k, since x^m = 1 and x^i has a p^0 component only when m | i.
    """
    if cp._k0_table is None:
        spec = K0_GENERATORS.get(cp.family)
        if spec is None:
            raise ValueError(f"K0 generators are tabulated for {tuple(K0_GENERATORS)}")
        if cp.algebra.d != 2:
            raise ContextError("K0 generators live on the plane crossed product")
        derived, classes = _derived_basis(cp.family)
        words = {name: (word, k) for name, (word, k, _, _) in zip(spec.stems, derived, strict=True)}
        stems = {name: _stem_element(cp, *words[name], phase) for name, (*_, phase) in zip(spec.stems, derived)}
        anomalies = []
        for name, phase, message in spec.tabulated:
            defect = _stem_element(cp, *words[name], phase) ** cp.n - cp.one()
            if not defect.is_zero():
                anomalies.append(AnomalyNote(f"[Q({name})]", message % (defect,)))
        projectors = {stem: cp.q_projector(x) for stem, x in stems.items()}
        derived_classes = [projectors[spec.stems[i]][n] for i, n in classes]
        elements = dict(zip(spec.classes, [cp.one(), *derived_classes], strict=True))
        for label, q in elements.items():
            certify(q, f"{cp.family}: the class {label} vanishes")
        elements[spec.exotic[0]] = None
        cp._k0_table = GeneratorTable(stems, projectors, elements, anomalies)
    return cp._k0_table
