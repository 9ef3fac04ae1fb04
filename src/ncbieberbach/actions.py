"""Finite group actions on twisted tori: Z_{n_1} x ... x Z_{n_k}.

An action is the tuple of its generators.  A generator belongs to one
algebra: ``ActionOnTorus(order, images, algebra)`` holds one phased-monomial
image per torus generator, ``g . delta_{e_i} = mu_i delta_{t_i}``, whose
coefficients live in that algebra (a coefficient of another cyclotomic order
raises ``OrderMismatchError``), and every check takes the generators as its
arguments, ``check_order(*gens)``; generators on different algebras raise
``ValueError``.  A generator acts on every monomial by the closed form
``g . delta_m = phi(m) delta_{A m}`` with ``A`` the integer matrix of target
exponents and

    phi(m) = prod_i mu_i^{m_i} * e^{i pi sum_{j<k} s_jk m_j m_k},
    s_jk   = t_j^T Theta t_k - Theta_jk = sum_{p<q} C[jk][pq] Theta_pq,
    C[jk][pq] = t_j[p] t_k[q] - t_j[q] t_k[p] - [pq = jk].

This is the ordered product of generator-image powers with the cocycle phase
of the same ordered product of basis monomials divided out; the test suite
keeps that generic-product construction as its reference.  Compatibility with
the twisting cocycle means the extension is an algebra map.

The slot matrix ``C`` is an integer matrix read from the theta-free targets.
Theta enters only through the algebra's integer slot table (``torus``),
Theta_pq = (a_pq + b_pq theta) / L with theta folded there when it has a
value, so each s_jk is summed in integers, and the phase polynomial turns
those numerators into unit pairs with the algebra's one conversion, as the
cocycle does.  The multiplicativity identity is bilinear in the pair of
monomials, so it holds for every pair iff the finitely many slot conditions
hold: L divides the rational numerator of each s_jk and its theta numerator
is zero.  ``check_compatibility`` verifies exactly that and the test suite
compares it with the literal identity ``g.(x y) = (g.x)(g.y)`` evaluated
with the generic product.  Generators that pass them are algebra
automorphisms, so they commute everywhere iff they commute on the basis
monomials ``delta_{e_i}``; one basis check serves ``check_order`` and
``check_compatibility``.

The cocycle scan reads the slot conditions on the grid ``k/D`` as integer
congruences, ``C n = 0 (mod D)`` for the grid numerators ``n`` and ``C b = 0``
for the theta coefficients ``b``, and rejects candidates with those alone.
Only the survivors are built, each from its slot dict ``{(j, k): (a, b)}``
as an algebra and an action, and each gets the full certificate:
``check_compatibility`` and ``check_order``.  A ``ScanResult`` compares with
the tabulated row on the grid it ran: the row's assignments whose values are
not multiples of 1/D are left out.  ``scan_checks`` and ``scan_row`` read a
``ScanResult`` as the rows of ``nbk scan`` and of the ``actions`` suite, so
the scan loads no verification code.

A registry family is the tuple of its generators (``families.CLASSICAL``),
and one builder serves the registry factories, the scan and the text format
alike: one ``ActionOnTorus`` per generator, returned as a tuple.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from . import families
from .report import Check
from .scalars import (
    _ZERO_KEY, MAX_DENOMINATOR, OrderMismatchError, PhasedScalar, _key_add, _root_index, certify, cyc_root,
    field_order,
)
from .torus import _ONE_PAIR, Accumulator, Monomial, NcTorus, TorusElement, split_terms

__all__ = [
    "GeneratorImage",
    "ActionOnTorus",
    "check_order",
    "check_compatibility",
    "compatibility_obstructions",
    "scan_cocycles",
    "ScanResult",
    "scan_checks",
    "scan_row",
    "homogeneous_components",
    "freeness_witness",
    "classical_action",
    "deformed_action",
    "parse_action_text",
]


class GeneratorImage(NamedTuple):
    """g . delta_{e_i} = coeff * delta_target; the action that holds it
    requires a unit single-phase coeff."""

    coeff: PhasedScalar
    target: Monomial


class ActionOnTorus:
    """An order-N action on one torus algebra, given by one GeneratorImage per
    torus generator whose coefficients live in that algebra and are each a
    root of unity times a theta phase.

    g . delta_m = phi(m) delta_{A m} (see the module docstring), with phi(m)
    the unit phase zeta^r e^{i pi b theta} summed from the integer phase
    polynomial, built on the first image.  Images are cached as (target, r,
    theta key), so powers compose by adding exponents and the crossed-product
    kernel reads the phase without building a scalar.
    """

    def __init__(self, order: int, images: tuple[GeneratorImage, ...], algebra: NcTorus):
        self.order = int(order)
        if self.order < 1:
            raise ValueError(f"the group order must be at least 1, got {self.order}")
        self.images = tuple(images)
        self.algebra = algebra
        if len(self.images) != algebra.d or any(len(img.target) != algebra.d for img in self.images):
            raise ValueError("dimension mismatch between action and algebra")
        for img in self.images:
            if img.coeff.order != algebra.order:
                raise OrderMismatchError(
                    f"image coefficient of order {img.coeff.order} on an algebra of order {algebra.order}"
                )
            try:
                img.coeff.unit_exponents()
            except ValueError:
                raise ValueError("generator image coefficient must be a root of unity times a theta phase") from None
        self._images: dict[Monomial, tuple[Monomial, int, tuple[int, int]]] = {}
        self._powers: dict[tuple[int, Monomial], tuple[Monomial, int, tuple[int, int]]] = {}
        self._poly: tuple[list, int] | None = None

    def key(self):
        return (self.algebra.key(), self.order, tuple((img.target, img.coeff.terms()) for img in self.images))

    def __eq__(self, other):
        if not isinstance(other, ActionOnTorus):
            return NotImplemented
        return self.key() == other.key()

    def __repr__(self):
        return f"ActionOnTorus(order={self.order})"

    def _image(self, m: Monomial) -> tuple[Monomial, int, tuple[int, int]]:
        """g . delta_m as (target, r, theta key)."""
        cached = self._images.get(m)
        if cached is not None:
            return cached
        if self._poly is None:
            self._poly = _phase_poly(self)
        poly, den = self._poly
        r = n = 0
        for coords, r_c, n_c in poly:
            w = math.prod(m[i] for i in coords)
            r += r_c * w
            n += n_c * w
        g = math.gcd(n, den)
        result = (_target_of(self, m), r % self.algebra.order, (n // g, den // g))
        self._images[m] = result
        return result

    def power_pair(self, k: int, m: Monomial) -> tuple[Monomial, int, tuple[int, int]]:
        """g^k . delta_m as (target, r, theta key), for k >= 0.

        A miss walks the orbit m, g.m, g^2.m, ... forward to a cached power or
        to g^0, then caches the power of each monomial of the walk on the way
        back; no recursion, so any group order works."""
        powers = self._powers
        result = powers.get((k, m))
        if result is not None:
            return result
        if k < 0:
            raise ValueError(f"the power must be at least 0, got {k}")
        walk = []
        while k and result is None:
            image = self._image(m)
            walk.append((k, m, image))
            k, m = k - 1, image[0]
            result = powers.get((k, m))
        if result is None:
            result = (m, *_ONE_PAIR)
        order = self.algebra.order
        for k, m, (_, r, key) in reversed(walk):
            result = (result[0], (r + result[1]) % order, _key_add(key, result[2]))
            powers[(k, m)] = result
        return result

    def apply(self, x: TorusElement, power: int = 1) -> TorusElement:
        if not self.algebra.same_algebra(x.algebra):
            raise ValueError("element lives in a different algebra")
        if not power:
            return x
        out: dict[Monomial, PhasedScalar] = {}
        for m, c in x._terms.items():
            target, r, key = self.power_pair(power, m)
            contrib = c.times_unit(r, key)
            cur = out.get(target)
            out[target] = contrib if cur is None else cur + contrib
        return TorusElement(self.algebra, out)


# ---------------------------------------------------------------------------
# spec-level operations


def _basis(gens: tuple[ActionOnTorus, ...]) -> list[Monomial]:
    """The basis monomials delta_{e_i} of the one algebra the generators act on."""
    algebra = gens[0].algebra
    if not all(g.algebra.same_algebra(algebra) for g in gens[1:]):
        raise ValueError("the generators act on different algebras")
    return [tuple(int(i == j) for j in range(algebra.d)) for i in range(algebra.d)]


def check_order(*gens: ActionOnTorus) -> bool:
    """True iff applying each generator its full order fixes every basis
    monomial and the generators commute on the basis monomials."""
    basis = _basis(gens)
    fixed = all(g.power_pair(g.order, e) == (e, *_ONE_PAIR) for g in gens for e in basis)
    return fixed and _commute_on_basis(gens, basis)


def _slot_matrix(targets) -> list[list[int]]:
    """The integer matrix C with s_jk = sum_{p<q} C[jk][pq] Theta_pq.

    Rows and columns run over the upper slots in order (12, 13, 23 in 3d).
    """
    slots = list(itertools.combinations(range(len(targets)), 2))
    return [
        [targets[j][p] * targets[k][q] - targets[j][q] * targets[k][p] - ((j, k) == (p, q))
         for p, q in slots]
        for j, k in slots
    ]


def _slot_obstructions(action: ActionOnTorus) -> dict:
    """{(j, k): (a, b)} with s_jk = (a + b theta) / L for every upper slot:
    integer numerators over the slot denominator L of the algebra's table."""
    algebra = action.algebra
    slots = list(itertools.combinations(range(algebra.d), 2))
    entries = [algebra._slot_table.get(slot, (0, 0)) for slot in slots]
    matrix = _slot_matrix([img.target for img in action.images])
    return {
        slot: (sum(c * a for c, (a, _) in zip(row, entries)), sum(c * b for c, (_, b) in zip(row, entries)))
        for slot, row in zip(slots, matrix)
    }


def compatibility_obstructions(action: ActionOnTorus):
    """Nonvanishing slot obstructions s_jk = t_j^T Theta t_k - Theta_jk, as
    (slot, rational part, theta part).

    The multiplicative-extension identity holds for every pair of monomials
    iff each s_jk has integral rational part and vanishing theta part.
    """
    den = action.algebra._slot_den
    return [
        (slot, Fraction(a, den), Fraction(b, den)) for slot, (a, b) in _slot_obstructions(action).items()
        if a % den or b
    ]


def check_compatibility(*gens: ActionOnTorus) -> bool:
    """True iff g.(delta_m * delta_n) = (g.delta_m)*(g.delta_n) for every
    generator g and every pair of monomials, and the generators commute.

    The identity is bilinear in (m, n), so it is equivalent to the slot
    conditions computed by :func:`compatibility_obstructions`.  Generators
    that pass them are algebra automorphisms, so they commute everywhere iff
    they commute on the basis monomials.
    """
    basis = _basis(gens)
    return not any(compatibility_obstructions(g) for g in gens) and _commute_on_basis(gens, basis)


def _phase_poly(action: ActionOnTorus):
    """phi(m) = zeta^{sum r_c w_c} e^{i pi theta sum n_c w_c / L}, w_c = prod_{i in c} m_i,
    as ([(c, r_c, n_c)], L): one term per image coefficient and one per slot
    obstruction s_jk, the theta numerators over one common denominator L."""
    terms = [((i,), *img.coeff.unit_exponents()) for i, img in enumerate(action.images)]
    terms += [(slot, *action.algebra._slot_pair(a, b)) for slot, (a, b) in _slot_obstructions(action).items()]
    den = math.lcm(*(d for _, _, (_, d) in terms))
    return [(coords, r, n * (den // d)) for coords, r, (n, d) in terms], den


def _target_of(action: ActionOnTorus, m: Monomial) -> Monomial:
    """A m, the exponent vector of g . delta_m."""
    return tuple(sum(mj * img.target[i] for mj, img in zip(m, action.images)) for i in range(len(m)))


def _commute_on_basis(gens, basis) -> bool:
    """g1 (g2 . delta_e) == g2 (g1 . delta_e) for every pair of generators and
    basis monomial e, as composed image triples."""

    def composed(outer: ActionOnTorus, inner: ActionOnTorus, m: Monomial):
        t, r, key = inner._image(m)
        t, r2, key2 = outer._image(t)
        return t, (r + r2) % outer.algebra.order, _key_add(key, key2)

    return all(composed(g1, g2, e) == composed(g2, g1, e) for g1, g2 in itertools.combinations(gens, 2) for e in basis)


# ---------------------------------------------------------------------------
# cocycle scan

_SLOT_INDEX = {"12": (0, 1), "13": (0, 2), "23": (1, 2)}
_SLOTS = ("12", "13", "23")


class ScanResult(NamedTuple):
    """Admissible theta patterns for one action family on a rational grid."""

    family: str
    denominator: int
    patterns: dict  # designated free slot -> frozenset of fixed assignments
    all_rational: frozenset  # admissible fully rational assignments
    order: int  # cyclotomic order the candidates were certified at
    order_flags: dict  # pattern -> order check with tabulated coefficients

    def free_slot(self) -> str | None:
        hits = [slot for slot in _SLOTS if self.patterns[slot]]
        if not hits:
            return None
        certify(len(hits) == 1, "more than one admissible free slot")
        return hits[0]

    def computed(self) -> tuple[str | None, frozenset]:
        slot = self.free_slot()
        if slot is None:
            return None, self.all_rational
        return slot, self.patterns[slot]

    def on_grid(self, row: tuple[str | None, frozenset]) -> tuple[str | None, frozenset]:
        """A tabulated row restricted to the assignments the k/denominator grid holds."""
        slot, assignments = row
        return slot, frozenset(
            a for a in assignments if all((v * self.denominator).denominator == 1 for _, v in a)
        )

    def reference(self) -> tuple[str | None, frozenset]:
        """The tabulated row, on the grid the scan ran."""
        return self.on_grid(families.SCAN_REFERENCE[self.family])

    def matches_reference(self) -> bool:
        return self.computed() == self.reference()

    def rational_expansion_consistent(self) -> bool:
        """Fully rational admissibles = symbolic patterns with the free slot gridded."""
        slot = self.free_slot()
        if slot is None:
            return True
        grid = [Fraction(k, self.denominator) for k in range(self.denominator)]
        expected = set()
        for assignment in self.patterns[slot]:
            for value in grid:
                expected.add(tuple(sorted(assignment + ((slot, value),))))
        return expected == set(self.all_rational)


def scan_checks(result: ScanResult) -> list[Check]:
    """The rows of one family's scan report: the grid expansion, the order of
    the tabulated coefficients (an anomaly where they break it), and the
    comparison with the tabulated row."""
    bad_order = sorted(
        str({s: str(v) for s, v in key[1]})
        for key, ok in result.order_flags.items()
        if not ok and key[0] == result.free_slot()
    )
    keep_order = Check.of("tabulated-coefficients-keep-order", True)
    if bad_order:
        keep_order = Check(
            keep_order.name, "anomaly",
            "compatible patterns whose tabulated unit coefficients break the"
            f" group order: {', '.join(bad_order)} (a coefficient adjustment restores it)",
        )
    return [
        Check.of("rational-grid-consistency", result.rational_expansion_consistent()),
        keep_order,
        Check.of("matches-reference-table", result.matches_reference()),
    ]


def scan_row(result: ScanResult) -> Check:
    """``scan[F]``: passes on the tabulated row; an anomaly only when the scan
    computes exactly the pinned set of a documented tabulation defect.  Both
    rows are read on the grid the scan ran."""
    name = f"scan[{result.family}]"
    if result.matches_reference():
        return Check.of(name, True)
    known = families.SCAN_KNOWN_DISCREPANCIES.get(result.family)
    if known is not None and result.computed() == result.on_grid(known):
        return Check(
            name, "anomaly",
            "computed admissible set differs from the tabulated row"
            " (documented tabulation defect)",
        )
    return Check.of(name, False, "unexpected scan mismatch")


def _candidate_matrix(assign: dict[str, tuple]) -> dict:
    """The slot dict of one candidate, from its (a, b) pair per slot name."""
    return {_SLOT_INDEX[slot]: pair for slot, pair in assign.items()}


def scan_cocycles(family: str, denominator: int = 6) -> ScanResult:
    """Enumerate admissible theta matrices for one family.

    Candidates put the symbolic theta in one designated slot (or none) and
    run the remaining slots over the grid {k/denominator}.  The slot
    conditions are integer congruences first: with grid numerators n and
    theta coefficients b, every group generator's slot matrix C needs
    ``C n = 0 (mod denominator)`` and ``C b = 0``.  Only the candidates that
    pass are built; each gets the full certificate, check_compatibility
    (several generators also need to commute), and its check_order flag.
    The scan works at ``field_order(denominator)``, which holds every grid
    phase; theta stays formal, so no folded value raises it.
    """
    if not 1 <= denominator <= MAX_DENOMINATOR:
        raise ValueError(f"grid denominator must be between 1 and {MAX_DENOMINATOR}")
    specs = _family(families.CLASSICAL, family)
    order = field_order(denominator)
    rows = [row for _, images in specs for row in _slot_matrix([target for _, target in images])]

    found: dict[str | None, set] = {slot: set() for slot in (*_SLOTS, None)}  # None: no theta slot
    order_flags: dict = {}
    for designated in (*_SLOTS, None):
        if designated is not None and any(row[_SLOTS.index(designated)] for row in rows):
            continue  # C b != 0 for the theta in this slot
        fixed = tuple(s for s in _SLOTS if s != designated)
        for combo in itertools.product(range(denominator), repeat=len(fixed)):
            numerators = dict(zip(fixed, combo))
            n = [numerators.get(slot, 0) for slot in _SLOTS]
            if any(sum(c * x for c, x in zip(row, n)) % denominator for row in rows):
                continue
            assign = {} if designated is None else {designated: (0, 1)}
            for slot, k in numerators.items():
                assign[slot] = (Fraction(k, denominator), 0)
            algebra = NcTorus(3, _candidate_matrix(assign), order=order)
            gens = _build_action(specs, algebra)
            if check_compatibility(*gens):
                key = tuple(sorted((slot, Fraction(k, denominator)) for slot, k in numerators.items()))
                found[designated].add(key)
                order_flags[(designated, key)] = check_order(*gens)

    all_rational = found.pop(None)
    return ScanResult(
        family=family,
        denominator=denominator,
        patterns={slot: frozenset(vals) for slot, vals in found.items()},
        all_rational=frozenset(all_rational),
        order=order,
        order_flags=order_flags,
    )


# ---------------------------------------------------------------------------
# decomposition and freeness


def homogeneous_components(action: ActionOnTorus, x: TorusElement):
    """x_k = (1/N) sum_j conj(lambda)^{kj} (g^j . x); sum_k x_k = x.

    One kernel pass: (1/N) delta_0 times the orbit terms g^j . x shifted by
    conj(lambda)^{kj} = zeta^{kj s}, with zeta^s = e^{-2 pi i / N}, summed
    into component k."""
    algebra = action.algebra
    if not algebra.same_algebra(x.algebra):
        raise ValueError("element lives in a different algebra")
    n, order = action.order, algebra.order
    s = _root_index(n, -1, order)
    orbit = [(j, *action.power_pair(j, m), c) for j in range(n) for m, c in split_terms(x)]
    average = split_terms(algebra.delta((0,) * algebra.d, Fraction(1, n)))
    acc = Accumulator(algebra)
    for k in range(n):
        acc.add(k, average, [(t, (r + k * j * s) % order, key, c) for j, t, r, key, c in orbit])
    comps = acc.components()
    return [comps.get(k) or algebra.zero() for k in range(n)]


def freeness_witness(*gens: ActionOnTorus) -> bool:
    """Look for unitary monomials whose eigencharacters generate the dual group.

    A basis monomial counts when each generator g_i fixes it with no theta
    phase and an eigenvalue zeta^r that is an n_i-th root of unity; its
    character is r n_i / order in Z_{n_i}.  The characters of the monomials
    that count must generate Z_{n_1} x ... x Z_{n_k}, so that products of
    those monomials are homogeneous of every character (for a cyclic action,
    one is homogeneous of a primitive N-th root).  The witness is sufficient
    for freeness, not necessary.
    """
    order, ns = gens[0].algebra.order, [g.order for g in gens]
    span = {(0,) * len(gens)}  # the subgroup the characters generate
    for e in _basis(gens):
        images = [g._image(e) for g in gens]
        if all(t == e and key == _ZERO_KEY and not r * n % order for (t, r, key), n in zip(images, ns)):
            char = [r * n // order for (_, r, _), n in zip(images, ns)]
            span = {tuple((s + j * c) % n for s, c, n in zip(v, char, ns))
                    for v in span for j in range(math.lcm(*ns))}
    return len(span) == math.prod(ns)


# ---------------------------------------------------------------------------
# registry factories


def _realize_images(image_specs, algebra: NcTorus) -> tuple[GeneratorImage, ...]:
    if algebra.d == 2 and len(image_specs) == 3:
        # restriction to the rotation subalgebra: keep the v, w images only
        for _, target in image_specs[1:]:
            if target[0] != 0:
                raise ValueError("cannot restrict an action whose plane images move the circle generator")
        image_specs = [(coeff, target[1:]) for coeff, target in image_specs[1:]]
    images = []
    for (a, b), target in image_specs:
        coeff = algebra.phase_of_entry(Fraction(a), Fraction(b))
        images.append(GeneratorImage(coeff=coeff, target=tuple(target)))
    return tuple(images)


def _family(registry: dict, family: str):
    try:
        return registry[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; one of {tuple(registry)}") from None


def _build_action(specs, algebra: NcTorus) -> tuple[ActionOnTorus, ...]:
    """One ActionOnTorus per (order, image specs) generator."""
    return tuple(ActionOnTorus(n, _realize_images(image_specs, algebra), algebra) for n, image_specs in specs)


def classical_action(family: str, algebra: NcTorus) -> tuple[ActionOnTorus, ...]:
    """The generators of the family's undeformed action on the given algebra.
    Public API: nothing in the package calls it; ``tests/scan_oracle.py`` and
    ``tests/test_actions.py`` use it."""
    return _build_action(_family(families.CLASSICAL, family), algebra)


def deformed_action(family: str, algebra: NcTorus) -> ActionOnTorus:
    """The one generator of the order-N action on the twisted torus (standard preset)."""
    return _build_action((_family(families.DEFORMED, family),), algebra)[0]


# ---------------------------------------------------------------------------
# declarative text format


def _parse_factor(token: str, algebra: NcTorus, letters: dict[str, int]):
    """One factor of an image word: a PhasedScalar, or a generator power as a
    TorusElement.  One leading sign is read; a lone or doubled one is refused."""
    sign = -1 if token.startswith("-") else 1
    token = token.removeprefix("-")
    if token == "1":
        return algebra.scalar(sign)
    if token == "i":
        return algebra.scalar(cyc_root(4, sign, order=algebra.order))
    if token[:2] in ("w(", "t(") and token.endswith(")"):
        try:
            q = Fraction(token[2:-1])
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"cannot parse phase factor {token!r}") from None
        if token[0] == "w":
            return algebra.scalar(cyc_root(q.denominator, q.numerator, order=algebra.order)) * sign
        return algebra.theta_phase(q) * sign
    name = token[:1].upper()
    if name not in letters:
        raise ValueError(f"unknown generator letter {name!r}")
    rest = token[1:]
    power = 1
    if rest == "*":
        power = -1
    elif rest.startswith("^"):
        power = int(rest[1:])
    elif rest:
        raise ValueError(f"cannot parse generator token {token!r}")
    if sign == -1:
        raise ValueError("place the sign before a scalar factor, not a generator")
    base = algebra.basis_generators()[letters[name]]
    return base ** power if power >= 0 else base.star() ** -power


def parse_action_text(text: str, algebra: NcTorus) -> tuple[ActionOnTorus, ...]:
    """Load an action's generators from the declarative one-line-per-generator format.

    Grammar (see README): a header with one order per generator label,
    ``order: N`` or ``order: 2 x 2``, then one line per group generator and
    torus generator::

        e: V -> t(-1) V* W

    Phase factors: ``1``, ``-1``, ``i``, ``-i``, ``w(p/q)`` for e^{2 pi i p/q},
    ``t(p/q)`` for e^{i pi (p/q) theta}.  Generator words such as ``V* W`` are
    evaluated as ordered products in the twisted algebra.  Public API for
    user-typed actions: nothing in the package calls it; demo 02 and
    ``tests/test_actions.py`` use it.
    """
    letters = {"U": 0, "V": 1, "W": 2} if algebra.d == 3 else {"V": 0, "W": 1}
    letter_names = {v: k for k, v in letters.items()}
    order_spec: str | None = None
    lines: dict[str, dict[int, TorusElement]] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.lower().startswith("order:"):
            order_spec = line.split(":", 1)[1].strip().lower().replace(" ", "")
            continue
        head, _, rhs = line.partition("->")
        if not rhs:
            raise ValueError(f"missing '->' in line {raw!r}")
        gen_label, _, letter = head.partition(":")
        gen_label = gen_label.strip()
        letter = letter.strip().upper()
        if letter not in letters:
            raise ValueError(f"unknown torus generator {letter!r} in {raw!r}")
        value = algebra.one()
        for token in rhs.replace("*", "* ").split():
            value = value * _parse_factor(token, algebra, letters)
        lines.setdefault(gen_label, {})[letters[letter]] = value
    if order_spec is None:
        raise ValueError("missing 'order:' header")

    def images_for(gen_label: str) -> tuple[GeneratorImage, ...]:
        per_gen = lines.get(gen_label)
        if per_gen is None or set(per_gen) != set(letters.values()):
            missing = [letter_names[i] for i in letters.values() if not per_gen or i not in per_gen]
            raise ValueError(f"generator {gen_label!r} is missing images for {missing}")
        images = []
        for i in sorted(per_gen):
            target, coeff = per_gen[i].single_term()
            images.append(GeneratorImage(coeff=coeff, target=target))
        return tuple(images)

    ns = [int(part) for part in order_spec.split("x")]
    labels = sorted(lines)
    if len(labels) != len(ns):
        raise ValueError(f"expected {len(ns)} generators, found {labels}")
    return tuple(ActionOnTorus(n, images_for(lbl), algebra) for n, lbl in zip(ns, labels))
