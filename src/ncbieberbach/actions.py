"""Finite cyclic group actions on twisted tori.

An action is given by one phased-monomial image per torus generator and is
extended to arbitrary monomials multiplicatively: the image of ``delta_m`` is
the ordered product of generator-image powers (ascending generator index)
corrected by the cocycle phase that relates ``delta_m`` to the same ordered
product of basis monomials.  Compatibility with the twisting cocycle means
this extension is an algebra map.

Writing ``g . delta_{e_i} = mu_i delta_{t_i}``, the extension has the closed
form ``g . delta_m = phi(m) delta_{A m}`` with ``A`` the integer matrix of
target exponents and

    phi(m) = prod_i mu_i^{m_i} * e^{i pi sum_{j<k} s_jk m_j m_k},
    s_jk   = t_j^T Theta t_k - Theta_jk.

The multiplicativity identity is bilinear in the pair of monomials, so the
degree-bounded compatibility check reduces to the finitely many slot
conditions ``s_jk integral (rational part) and zero (theta part)``; the check
below verifies exactly that and the test suite cross-validates it against the
literal identity ``g.(x y) = (g.x)(g.y)`` evaluated with the generic product.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import families
from .scalars import PhasedScalar, _key_add, certify, cyc_root
from .torus import _ONE_PAIR, Monomial, NcTorus, ThetaEntry, ThetaMatrix, TorusElement

__all__ = [
    "GeneratorImage",
    "FiniteAction",
    "ProductAction",
    "ActionOnTorus",
    "apply_action",
    "check_order",
    "check_compatibility",
    "compatibility_obstructions",
    "scan_cocycles",
    "ScanResult",
    "homogeneous_components",
    "freeness_witness",
    "classical_action",
    "deformed_action",
    "parse_action_text",
]


@dataclass(frozen=True)
class GeneratorImage:
    """g . delta_{e_i} = coeff * delta_target, with a unit single-phase coeff."""

    coeff: PhasedScalar
    target: Monomial

    def __post_init__(self):
        try:
            self.coeff.unit_exponents()
        except ValueError:
            raise ValueError(
                "generator image coefficient must be a root of unity times a theta phase"
            ) from None


class FiniteAction:
    """Order-N action given by one GeneratorImage per torus generator."""

    def __init__(self, order: int, images: tuple[GeneratorImage, ...], name: str = ""):
        self.order = int(order)
        self.images = tuple(images)
        self.name = name
        self._runtime: dict = {}

    @property
    def dimension(self) -> int:
        return len(self.images[0].target)

    def generators(self):
        return [self]

    def runtime(self, algebra: NcTorus) -> "ActionOnTorus":
        key = algebra.key()
        rt = self._runtime.get(key)
        if rt is None:
            rt = ActionOnTorus(self, algebra)
            self._runtime[key] = rt
        return rt

    def __eq__(self, other):
        if not isinstance(other, FiniteAction):
            return NotImplemented
        mine = [(img.coeff.terms(), img.target) for img in self.images]
        theirs = [(img.coeff.terms(), img.target) for img in other.images]
        return self.order == other.order and mine == theirs

    def __repr__(self):
        return f"FiniteAction({self.name or 'anonymous'}, order={self.order})"


class ProductAction:
    """Two (or more) commuting order-2 actions, for the Z2 x Z2 families."""

    def __init__(self, factors: tuple[FiniteAction, ...], name: str = ""):
        self.factors = tuple(factors)
        self.name = name

    @property
    def dimension(self) -> int:
        return self.factors[0].dimension

    def generators(self):
        return list(self.factors)

    def __repr__(self):
        return f"ProductAction({self.name or 'anonymous'}, factors={len(self.factors)})"


class ActionOnTorus:
    """Cached evaluation of one cyclic action on one torus algebra.

    Images are cached as (target, r, theta key): g^k . delta_m is the unit
    phase zeta^r e^{i pi b theta} times delta_target (see ``torus``), so
    powers compose by adding exponents and the crossed-product kernel reads
    the phase without building a scalar.
    """

    def __init__(self, action: FiniteAction, algebra: NcTorus):
        if action.dimension != algebra.d:
            raise ValueError("dimension mismatch between action and algebra")
        self.action = action
        self.algebra = algebra
        self._images: dict[Monomial, tuple[Monomial, int, tuple[int, int]]] = {}
        self._powers: dict[tuple[int, Monomial], tuple[Monomial, int, tuple[int, int]]] = {}
        self._elements = [
            algebra.delta(img.target) * img.coeff for img in action.images
        ]

    def _image(self, m: Monomial) -> tuple[Monomial, int, tuple[int, int]]:
        cached = self._images.get(m)
        if cached is not None:
            return cached
        alg = self.algebra
        prod = alg.one()
        normal = alg.one()
        for i, mi in enumerate(m):
            if not mi:
                continue
            base = self._elements[i]
            factor = base ** mi if mi > 0 else base.star() ** (-mi)
            prod = prod * factor
            e_i = [0] * alg.d
            e_i[i] = mi
            normal = normal * alg.delta(e_i)
        # normal = C(m) * delta_m; the extension divides that phase back out.
        target_check, c_m = normal.single_term()
        certify(target_check == m, "normal-ordered product lost its monomial")
        image = prod * c_m.conj()
        term, coeff = image.single_term()
        result = (term, *coeff.unit_exponents())
        self._images[m] = result
        return result

    def monomial_image(self, m: Monomial) -> tuple[PhasedScalar, Monomial]:
        target, r, key = self._image(m)
        return PhasedScalar.unit(self.algebra.order, r, key), target

    def power_pair(self, k: int, m: Monomial) -> tuple[Monomial, int, tuple[int, int]]:
        """g^k . delta_m as (target, r, theta key)."""
        if k == 0:
            return (m, *_ONE_PAIR)
        cached = self._powers.get((k, m))
        if cached is not None:
            return cached
        target, r, key = self._image(m)
        rest_target, rest_r, rest_key = self.power_pair(k - 1, target)
        result = (rest_target, (r + rest_r) % self.algebra.order, _key_add(key, rest_key))
        self._powers[(k, m)] = result
        return result

    def power_image(self, k: int, m: Monomial) -> tuple[PhasedScalar, Monomial]:
        """Image of delta_m under the k-fold application of the generator."""
        target, r, key = self.power_pair(k, m)
        return PhasedScalar.unit(self.algebra.order, r, key), target

    def image_terms(self, x: TorusElement, power: int) -> list:
        """The terms of g^power . x as (target, r, theta key, coefficient)."""
        return [(*self.power_pair(power, m), c) for m, c in x._terms.items()]

    def apply(self, x: TorusElement, power: int = 1) -> TorusElement:
        if not self.algebra.same_algebra(x.algebra):
            raise ValueError("element lives in a different algebra")
        if not power:
            return x
        out: dict[Monomial, PhasedScalar] = {}
        for target, r, key, c in self.image_terms(x, power):
            contrib = c.times_unit(r, key)
            cur = out.get(target)
            out[target] = contrib if cur is None else cur + contrib
        return TorusElement(self.algebra, out)

    def check_order(self) -> bool:
        for i in range(self.algebra.d):
            e_i = [0] * self.algebra.d
            e_i[i] = 1
            target, r, key = self.power_pair(self.action.order, tuple(e_i))
            if target != tuple(e_i) or (r, key) != _ONE_PAIR:
                return False
        return True


# ---------------------------------------------------------------------------
# spec-level operations


def apply_action(action, algebra: NcTorus, x: TorusElement, power: int = 1) -> TorusElement:
    """Apply the action generator (cyclic actions only)."""
    if isinstance(action, ProductAction):
        raise ValueError("product actions have several generators; apply them separately")
    return action.runtime(algebra).apply(x, power)


def check_order(action, algebra: NcTorus) -> bool:
    """True iff applying each generator its full order fixes every generator."""
    if isinstance(action, ProductAction):
        if not all(f.runtime(algebra).check_order() for f in action.factors):
            return False
        # the generators must also commute on basis monomials
        rts = [f.runtime(algebra) for f in action.factors]
        for r1, r2 in itertools.combinations(rts, 2):
            for g in algebra.basis_generators():
                if r1.apply(r2.apply(g)) != r2.apply(r1.apply(g)):
                    return False
        return True
    return action.runtime(algebra).check_order()


def _theta_pair(algebra: NcTorus, j: int, k: int) -> tuple[Fraction, Fraction]:
    entry = algebra.theta.entry(j, k)
    if algebra.theta_value is not None:
        return entry.a + entry.b * algebra.theta_value, Fraction(0)
    return entry.a, entry.b


def _coeff_pair(algebra: NcTorus, coeff: PhasedScalar) -> tuple[Fraction, Fraction]:
    """Exponent pair (a, b) with coeff = e^{i pi (a + b theta)}."""
    b, c = coeff.single_phase()
    k = c.root_exponent()
    return Fraction(2 * k, algebra.order), b


def _pairing(algebra: NcTorus, m: Monomial, n: Monomial) -> tuple[Fraction, Fraction]:
    """m^T Theta n as an (a, b) exponent pair."""
    a = Fraction(0)
    b = Fraction(0)
    for j in range(algebra.d):
        if not m[j]:
            continue
        for k in range(algebra.d):
            if not n[k]:
                continue
            ea, eb = _theta_pair(algebra, j, k)
            a += ea * m[j] * n[k]
            b += eb * m[j] * n[k]
    return a, b


def compatibility_obstructions(action: FiniteAction, algebra: NcTorus):
    """Nonvanishing slot obstructions s_jk = t_j^T Theta t_k - Theta_jk.

    The multiplicative-extension identity holds for every pair of monomials
    iff each s_jk has integral rational part and vanishing theta part.
    """
    targets = [img.target for img in action.images]
    bad = []
    for j in range(algebra.d):
        for k in range(j + 1, algebra.d):
            pa, pb = _pairing(algebra, targets[j], targets[k])
            ta, tb = _theta_pair(algebra, j, k)
            da, db = pa - ta, pb - tb
            if da.denominator != 1 or db != 0:
                bad.append(((j, k), da, db))
    return bad


def check_compatibility(action, algebra: NcTorus, degree_bound: int = 2) -> bool:
    """True iff g.(delta_m * delta_n) = (g.delta_m)*(g.delta_n) on the box.

    The identity is bilinear in (m, n), so its validity on the box with
    ``degree_bound >= 1`` is equivalent to the slot conditions computed by
    :func:`compatibility_obstructions`; for product actions the generators
    must additionally commute on the box.
    """
    if degree_bound < 1:
        raise ValueError("degree_bound must be at least 1")
    gens = action.generators()
    for g in gens:
        if compatibility_obstructions(g, algebra):
            return False
    if len(gens) > 1:
        for g1, g2 in itertools.combinations(gens, 2):
            if not _generators_commute(g1, g2, algebra, degree_bound):
                return False
    return True


def _phase_poly(action: FiniteAction, algebra: NcTorus):
    """Linear and quadratic exponent data of phi(m) for one generator."""
    lin = [_coeff_pair(algebra, img.coeff) for img in action.images]
    targets = [img.target for img in action.images]
    quad = {}
    for j in range(algebra.d):
        for k in range(j + 1, algebra.d):
            pa, pb = _pairing(algebra, targets[j], targets[k])
            ta, tb = _theta_pair(algebra, j, k)
            quad[(j, k)] = (pa - ta, pb - tb)
    return lin, quad


def _phase_at(lin, quad, m: Monomial) -> tuple[Fraction, Fraction]:
    a = Fraction(0)
    b = Fraction(0)
    for i, mi in enumerate(m):
        if mi:
            a += lin[i][0] * mi
            b += lin[i][1] * mi
    for (j, k), (qa, qb) in quad.items():
        if m[j] and m[k]:
            a += qa * m[j] * m[k]
            b += qb * m[j] * m[k]
    return a, b


def _exponent_matrix(action: FiniteAction) -> list[list[int]]:
    d = action.dimension
    return [[action.images[j].target[i] for j in range(d)] for i in range(d)]


def _mat_vec(mat, m):
    return tuple(sum(mat[i][j] * m[j] for j in range(len(m))) for i in range(len(mat)))


def _generators_commute(g1: FiniteAction, g2: FiniteAction, algebra: NcTorus, bound: int) -> bool:
    a1 = _exponent_matrix(g1)
    a2 = _exponent_matrix(g2)
    lin1, quad1 = _phase_poly(g1, algebra)
    lin2, quad2 = _phase_poly(g2, algebra)
    for m in itertools.product(range(-bound, bound + 1), repeat=algebra.d):
        m12 = _mat_vec(a2, m)
        m21 = _mat_vec(a1, m)
        if _mat_vec(a1, m12) != _mat_vec(a2, m21):
            return False
        pa2, pb2 = _phase_at(lin2, quad2, m)
        pa1, pb1 = _phase_at(lin1, quad1, m12)
        qa1, qb1 = _phase_at(lin1, quad1, m)
        qa2, qb2 = _phase_at(lin2, quad2, m21)
        if (pa2 + pa1 - qa1 - qa2) % 2 != 0 or pb2 + pb1 - qb1 - qb2 != 0:
            return False
    return True


def compatibility_counterexample(action: FiniteAction, algebra: NcTorus):
    """Both sides of the first violated identity, rendered exactly, or None."""
    bad = compatibility_obstructions(action, algebra)
    if not bad:
        return None
    (j, k), _, _ = bad[0]
    rt = action.runtime(algebra)
    d = algebra.d
    e_j = tuple(1 if i == j else 0 for i in range(d))
    e_k = tuple(1 if i == k else 0 for i in range(d))
    lhs = rt.apply(algebra.delta(e_k) * algebra.delta(e_j))
    rhs = rt.apply(algebra.delta(e_k)) * rt.apply(algebra.delta(e_j))
    return {"pair": (e_k, e_j), "lhs": repr(lhs), "rhs": repr(rhs)}


# ---------------------------------------------------------------------------
# cocycle scan

_SLOT_INDEX = {"12": (0, 1), "13": (0, 2), "23": (1, 2)}
_SLOTS = ("12", "13", "23")


@dataclass
class ScanResult:
    """Admissible theta patterns for one action family on a rational grid."""

    family: str
    denominator: int
    patterns: dict  # designated free slot -> frozenset of fixed assignments
    all_rational: frozenset  # admissible fully rational assignments
    order_flags: dict = field(default_factory=dict)  # pattern -> order check with tabulated coefficients

    def free_slot(self) -> str | None:
        hits = [slot for slot in _SLOTS if self.patterns[slot]]
        if not hits:
            return None
        if len(hits) > 1:
            raise AssertionError("more than one admissible free slot")
        return hits[0]

    def computed(self) -> tuple[str | None, frozenset]:
        slot = self.free_slot()
        if slot is None:
            return None, self.all_rational
        return slot, self.patterns[slot]

    def reference(self) -> tuple[str | None, frozenset]:
        return families.SCAN_REFERENCE[self.family]

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


def _candidate_matrix(assign: dict[str, ThetaEntry]) -> ThetaMatrix:
    upper = {_SLOT_INDEX[slot]: entry for slot, entry in assign.items() if not entry.is_zero()}
    return ThetaMatrix(3, upper)


def scan_cocycles(family: str, denominator: int = 6, order: int | None = None) -> ScanResult:
    """Enumerate admissible theta matrices for one family.

    Candidates put the symbolic theta in one designated slot (or none) and
    run the two remaining slots over the grid {k/denominator}; a candidate is
    admissible iff every group generator passes check_compatibility at
    degree bound 2 (product families also need commuting generators).
    """
    if denominator < 1 or denominator > 12:
        raise ValueError("grid denominator must be between 1 and 12")
    kind, spec = families.classical_spec(family)
    grid = [Fraction(k, denominator) for k in range(denominator)]

    def admissible(matrix: ThetaMatrix) -> tuple[bool, bool]:
        algebra = NcTorus(matrix, order=order)
        action = _build_action(spec, kind, algebra)
        ok = check_compatibility(action, algebra, degree_bound=2)
        order_ok = check_order(action, algebra) if ok else False
        return ok, order_ok

    patterns: dict[str, set] = {slot: set() for slot in _SLOTS}
    order_flags: dict = {}
    for designated in _SLOTS:
        fixed_slots = tuple(s for s in _SLOTS if s != designated)
        for combo in itertools.product(grid, repeat=2):
            assign = {designated: ThetaEntry.of(0, 1)}
            for slot, value in zip(fixed_slots, combo):
                assign[slot] = ThetaEntry.of(value, 0)
            ok, order_ok = admissible(_candidate_matrix(assign))
            if ok:
                key = tuple(sorted(zip(fixed_slots, combo)))
                patterns[designated].add(key)
                order_flags[(designated, key)] = order_ok

    all_rational: set = set()
    for combo in itertools.product(grid, repeat=3):
        assign = {slot: ThetaEntry.of(value, 0) for slot, value in zip(_SLOTS, combo)}
        ok, order_ok = admissible(_candidate_matrix(assign))
        if ok:
            key = tuple(sorted(zip(_SLOTS, combo)))
            all_rational.add(key)
            order_flags[(None, key)] = order_ok

    return ScanResult(
        family=family,
        denominator=denominator,
        patterns={slot: frozenset(vals) for slot, vals in patterns.items()},
        all_rational=frozenset(all_rational),
        order_flags=order_flags,
    )


# ---------------------------------------------------------------------------
# decomposition and freeness


def homogeneous_components(action: FiniteAction, algebra: NcTorus, x: TorusElement):
    """x_k = (1/N) sum_j conj(lambda)^{kj} (g^j . x); sum_k x_k = x."""
    rt = action.runtime(algebra)
    n = action.order
    images = [rt.apply(x, power=j) for j in range(n)]
    comps = []
    for k in range(n):
        acc = algebra.zero()
        for j, img in enumerate(images):
            acc = acc + img * cyc_root(n, -k * j, order=algebra.order)
        comps.append(acc * Fraction(1, n))
    return comps


def _primitive_eigenvalue(phi: PhasedScalar, n: int) -> bool:
    if not (phi ** n).is_one():
        return False
    return all(not (phi ** k).is_one() for k in range(1, n))


def freeness_witness(action, algebra: NcTorus) -> bool:
    """Look for a unitary generator monomial that is homogeneous of full order.

    For a cyclic action this is a generator with g.u = lambda u and lambda a
    primitive N-th root of unity.  For product actions the eigencharacters of
    jointly homogeneous generators must generate the whole dual group.  The
    witness is sufficient for freeness, not necessary.
    """
    gens = action.generators()
    if len(gens) == 1:
        act = gens[0]
        if act.order == 1:
            return True
        rt = act.runtime(algebra)
        for i in range(algebra.d):
            e_i = tuple(1 if j == i else 0 for j in range(algebra.d))
            phi, target = rt.monomial_image(e_i)
            if target == e_i and _primitive_eigenvalue(phi, act.order):
                return True
        return False

    # product of order-2 actions: gather sign characters of homogeneous generators
    rts = [g.runtime(algebra) for g in gens]
    vectors = []
    for i in range(algebra.d):
        e_i = tuple(1 if j == i else 0 for j in range(algebra.d))
        bits = []
        for rt in rts:
            phi, target = rt.monomial_image(e_i)
            if target != e_i:
                bits = None
                break
            if phi.is_one():
                bits.append(0)
            elif (phi * phi).is_one():
                bits.append(1)
            else:
                bits = None
                break
        if bits is not None:
            vectors.append(bits)
    # the characters must span (Z_2)^{#factors}
    rank = 0
    basis: list[list[int]] = []
    for vec in vectors:
        v = vec[:]
        for b in basis:
            lead = next(i for i, x in enumerate(b) if x)
            if v[lead]:
                v = [(x + y) % 2 for x, y in zip(v, b)]
        if any(v):
            basis.append(v)
            rank += 1
    return rank == len(gens)


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


def _build_action(spec, kind: str, algebra: NcTorus, name: str = ""):
    if kind == "cyclic":
        n, image_specs = spec
        return FiniteAction(n, _realize_images(image_specs, algebra), name=name)
    factors = tuple(
        FiniteAction(n, _realize_images(image_specs, algebra), name=f"{name}[{i}]")
        for i, (n, image_specs) in enumerate(spec)
    )
    return ProductAction(factors, name=name)


def classical_action(family: str, algebra: NcTorus):
    """The undeformed action of the family on the given algebra."""
    kind, spec = families.classical_spec(family)
    return _build_action(spec, kind, algebra, name=f"{family}-classical")


def deformed_action(family: str, algebra: NcTorus) -> FiniteAction:
    """The order-N action on the twisted torus (standard preset)."""
    spec = families.deformed_spec(family)
    return _build_action(spec, "cyclic", algebra, name=family)


# ---------------------------------------------------------------------------
# declarative text format


def _parse_factor(token: str, algebra: NcTorus, letters: dict[str, int]):
    """Return ('scalar', PhasedScalar) or ('gen', index, power)."""
    sign = 1
    if token.startswith("-") and token not in ("-1", "-i"):
        sign = -1
        token = token[1:]
    if token in ("1", "-1"):
        return ("scalar", algebra.scalar(int(token) * sign))
    if token in ("i", "-i"):
        value = cyc_root(4, 1 if token == "i" else -1, order=algebra.order)
        return ("scalar", algebra.scalar(value) * sign)
    if token.startswith("w(") and token.endswith(")"):
        q = Fraction(token[2:-1])
        return ("scalar", algebra.scalar(cyc_root(q.denominator, q.numerator, order=algebra.order)) * sign)
    if token.startswith("t(") and token.endswith(")"):
        return ("scalar", algebra.theta_phase(Fraction(token[2:-1])) * sign)
    name = token[0].upper()
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
    return ("gen", letters[name], power)


def parse_action_text(text: str, algebra: NcTorus):
    """Load an action from the declarative one-line-per-generator format.

    Grammar (see README): a header ``order: N`` (or ``order: 2x2``), then one
    line per group generator and torus generator::

        e: V -> t(-1) V* W

    Phase factors: ``1``, ``-1``, ``i``, ``-i``, ``w(p/q)`` for e^{2 pi i p/q},
    ``t(p/q)`` for e^{i pi (p/q) theta}.  Generator words such as ``V* W`` are
    evaluated as ordered products in the twisted algebra.
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
            token = token.strip()
            if not token:
                continue
            kind, *data = _parse_factor(token, algebra, letters)
            if kind == "scalar":
                value = value * data[0]
            else:
                idx, power = data
                base = algebra.basis_generators()[idx]
                value = value * (base ** power if power >= 0 else base.star() ** (-power))
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

    if "x" in order_spec:
        ns = [int(part) for part in order_spec.split("x")]
        labels = sorted(lines)
        if len(labels) != len(ns):
            raise ValueError(f"expected {len(ns)} generators, found {labels}")
        factors = tuple(FiniteAction(n, images_for(lbl), name=lbl) for n, lbl in zip(ns, labels))
        return ProductAction(factors, name="parsed")
    n = int(order_spec)
    labels = sorted(lines)
    if len(labels) != 1:
        raise ValueError(f"cyclic action must use a single generator label, found {labels}")
    return FiniteAction(n, images_for(labels[0]), name="parsed")
