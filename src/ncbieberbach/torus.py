"""Twisted group algebras over Z^d at the polynomial level.

The algebra is spanned by basis monomials ``delta_m`` for integer exponent
vectors m, multiplied by the bicharacter cocycle

    omega(m, n) = e^{i pi sum_{j,k} theta_jk m_j n_k},

where theta is a real antisymmetric d x d matrix whose entries are affine
expressions ``a + b*theta`` with rational a, b and theta a formal symbol.
An algebra is built from its upper slots alone, ``NcTorus(d, {(j, k): (a,
b)})`` with j < k and theta_jk = a + b*theta: the same (a, b) pair the action
registries (``families``) use for their coefficients.  Setting theta to an
actual rational number is supported through the algebra's ``theta_value``
(folded mode); the symbolic mode is the default.

The one preset, ``standard_torus(3)``, gives three unitary generators with
relations

    u v = v u,   u w = w u,   w v = e^{2 pi i theta} v w,

and ``standard_torus(2)`` the matching two-generator restriction for the
rotation subalgebra; both certify that sign convention when built.

Every cocycle value is a unit phase e^{i pi (a + b theta)}.  The algebra keeps
it as the integer pair (r, key): zeta^r with r = a * order / 2 modulo the
field order, and the reduced theta key of b (``scalars``).  ``NcTorus`` folds
theta once, when it is built, into its integer slot table: the numerators
(a, b) of each nonzero upper slot over one denominator L, with a rational
theta value already substituted.  The cocycle sums those numerators and
``_slot_pair`` turns the sums into a unit pair, cached per pair of active
coordinates; the slot conditions of ``actions`` read the same table and the
same conversion.  ``cocycle`` builds the public ``PhasedScalar`` from a pair.

All products go through one multiply-accumulate kernel, ``Accumulator``: it
sums c_m c_n zeta^r e^{i pi b theta} delta_{m+n} p^t over pairs of terms into
unreduced integer numerators over one denominator per (t, monomial, theta key)
and reduces each coefficient to a canonical ``Cyclotomic`` once, at the end.
``TorusElement.__mul__`` is one pass of it; the crossed product (``crossed``)
folds the action phases into the same pass.
"""
from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import Iterable

from .scalars import (
    DEFAULT_CYCLOTOMIC_ORDER,
    Cyclotomic,
    PhasedScalar,
    SparseElement,
    _bkey,
    _field_tables,
    _key_add,
    _root_index,
    _root_table,
    certify,
)

__all__ = [
    "NcTorus",
    "standard_torus",
    "TorusElement",
    "Accumulator",
    "split_terms",
]

Monomial = tuple[int, ...]
UnitPair = tuple[int, tuple[int, int]]  # (root exponent r, theta key): zeta^r e^{i pi b theta}
_ONE_PAIR: UnitPair = (0, (0, 1))
_COCYCLE_CACHE_CAP = 200_000


class NcTorus:
    """A twisted group algebra C*(Z^d, omega_theta) at the polynomial level.

    ``slots`` maps each upper slot (j, k), 0 <= j < k < d, to the pair (a, b)
    of theta_jk = a + b theta; the algebra keeps the nonzero pairs, as
    Fractions in slot order.  ``theta_value=None`` keeps theta formal; a
    Fraction folds every phase e^{i pi b theta} into the cyclotomic field of
    the given order.
    """

    __slots__ = ("d", "slots", "theta_value", "order", "_pair_key", "_cocycle_pairs", "_slot_table", "_slot_den")

    def __init__(self, d: int, slots: dict, theta_value=None, order: int = DEFAULT_CYCLOTOMIC_ORDER):
        self.d = d
        self.slots: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}
        for (j, k), (a, b) in sorted(slots.items()):
            if not 0 <= j < k < d:
                raise ValueError(f"slot ({j},{k}) is not an upper-triangle position")
            if a or b:
                self.slots[(j, k)] = (Fraction(a), Fraction(b))
        self.theta_value = None if theta_value is None else Fraction(theta_value)
        self.order = order
        _field_tables(order)  # built once per order; an order above MAX_CYCLOTOMIC_ORDER raises here
        # the one fold of theta: {(j, k): (a, b)} with theta_jk = (a + b theta) / L
        value = self.theta_value
        entries = {slot: (a, b) if value is None else (a + b * value, Fraction(0))
                   for slot, (a, b) in self.slots.items()}
        den = math.lcm(*(x.denominator for pair in entries.values() for x in pair))
        self._slot_table = {slot: (int(a * den), int(b * den)) for slot, (a, b) in entries.items()}
        self._slot_den = den
        # the cocycle cache key: the coordinates coupled by a nonzero slot, of
        # m and of n (a slot couples two coordinates, so the getter returns tuples)
        active = sorted({i for slot in entries for i in slot})
        self._pair_key = operator.itemgetter(*active) if active else None
        self._cocycle_pairs: dict = {}

    # -- identity ----------------------------------------------------------

    def key(self):
        return (self.d, tuple(self.slots.items()), self.theta_value, self.order)

    def same_algebra(self, other: "NcTorus") -> bool:
        return other is self or (isinstance(other, NcTorus) and self.key() == other.key())

    # -- scalars -----------------------------------------------------------

    def scalar(self, value) -> PhasedScalar:
        return PhasedScalar.of(value, self.order)

    def theta_phase(self, b) -> PhasedScalar:
        """The scalar e^{i pi b theta}: the unit pair of the entry 0 + b theta,
        folded there when theta has a rational value.  ``PhasedScalar.fold``
        is the independent reference the tests compare it against."""
        return self.phase_of_entry(Fraction(0), Fraction(b))

    def unit_pair(self, a: Fraction, b: Fraction) -> UnitPair:
        """e^{i pi (a + b theta)} as the pair (r, theta key), folded when theta has a value.

        The rational part e^{i pi a} with a = p/q is zeta_{2q}^p, so 2q must
        divide the field order.
        """
        if self.theta_value is not None:
            a = a + b * self.theta_value
            b = Fraction(0)
        return _root_index(2 * a.denominator, a.numerator, self.order), _bkey(b)

    def _slot_pair(self, a: int, b: int) -> UnitPair:
        """e^{i pi (a + b theta) / L} as a unit pair, for integer numerators
        a, b over the slot denominator L of the table."""
        den = self._slot_den
        g = math.gcd(a, den)
        g_b = math.gcd(b, den)
        return _root_index(2 * den // g, a // g, self.order), (b // g_b, den // g_b)

    def phase_of_entry(self, a: Fraction, b: Fraction) -> PhasedScalar:
        """e^{i pi (a + b theta)} as a single-term PhasedScalar."""
        return PhasedScalar.unit(self.order, *self.unit_pair(a, b))

    def _cocycle_pair(self, m: Monomial, n: Monomial) -> UnitPair:
        """omega(m, n) as a unit pair, cached per pair of active coordinates;
        a miss sums the numerators of the slot table."""
        get = self._pair_key
        if get is None:
            return _ONE_PAIR
        key = (get(m), get(n))
        pair = self._cocycle_pairs.get(key)
        if pair is None:
            a = b = 0
            for (j, k), (na, nb) in self._slot_table.items():
                cross = m[j] * n[k] - m[k] * n[j]
                a += na * cross
                b += nb * cross
            pair = self._slot_pair(a, b)
            if len(self._cocycle_pairs) < _COCYCLE_CACHE_CAP:
                self._cocycle_pairs[key] = pair
        return pair

    def cocycle(self, m: Monomial, n: Monomial) -> PhasedScalar:
        """omega(m, n) = e^{i pi sum theta_jk m_j n_k}, a single unit phase."""
        if len(m) != self.d or len(n) != self.d:
            raise ValueError(f"dimension mismatch: expected vectors of length {self.d}")
        return PhasedScalar.unit(self.order, *self._cocycle_pair(m, n))

    # -- elements ------------------------------------------------------------

    def zero(self) -> "TorusElement":
        return TorusElement(self, {})

    def one(self) -> "TorusElement":
        return self.delta((0,) * self.d)

    def delta(self, m: Iterable[int], coeff=1) -> "TorusElement":
        m = tuple(int(x) for x in m)
        if len(m) != self.d:
            raise ValueError(f"dimension mismatch: expected length {self.d}")
        return TorusElement(self, {m: self.scalar(coeff)})

    def basis_generators(self) -> list["TorusElement"]:
        gens = []
        for i in range(self.d):
            e = [0] * self.d
            e[i] = 1
            gens.append(self.delta(e))
        return gens

    def __repr__(self):
        slots = ", ".join(f"theta_{j + 1}{k + 1}={a}+{b}t" for (j, k), (a, b) in self.slots.items())
        mode = "symbolic" if self.theta_value is None else f"theta={self.theta_value}"
        return f"NcTorus(d={self.d}, {slots or 'zero'}, {mode}, order={self.order})"


class TorusElement(SparseElement, ctx="algebra", data="_terms"):
    """Finite map from exponent vectors to PhasedScalar coefficients."""

    __slots__ = ("algebra", "_terms")

    # -- inspection --------------------------------------------------------

    def terms(self) -> tuple[tuple[Monomial, PhasedScalar], ...]:
        return tuple(sorted(self._terms.items()))

    def single_term(self) -> tuple[Monomial, PhasedScalar]:
        if len(self._terms) != 1:
            raise ValueError("element is not a single monomial term")
        return next(iter(self._terms.items()))

    # -- arithmetic ----------------------------------------------------------

    def _one(self) -> "TorusElement":
        return self.algebra.one()

    def _check(self, other: "TorusElement"):
        if not self.algebra.same_algebra(other.algebra):
            raise ValueError("elements live in different algebras")

    def __mul__(self, other):
        if not isinstance(other, TorusElement):
            return self._scale(other)
        self._check(other)
        acc = Accumulator(self.algebra)
        acc.add(0, split_terms(self), [(n, *_ONE_PAIR, c) for n, c in split_terms(other)])
        return acc.components().get(0) or self.algebra.zero()

    def star(self) -> "TorusElement":
        """The involution: delta_m -> delta_{-m} with conjugated coefficients.

        No cocycle correction is needed because omega(m, -m) = 1 by
        antisymmetry, which also makes every monomial unitary.
        """
        return TorusElement._raw(
            self.algebra,
            {tuple(-x for x in m): c.conj() for m, c in self._terms.items()},
        )

    # -- display ---------------------------------------------------------------

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = [f"[{','.join(map(str, m))}]:{c!r}" for m, c in self.terms()]
        return "TorusElement{" + "; ".join(parts) + "}"


@functools.lru_cache(maxsize=1 << 14)
def _nonzero(num: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The nonzero (index, value) entries of a numerator; cached because the
    same coefficients recur across the entries of a matrix product."""
    return tuple((j, a) for j, a in enumerate(num) if a)


def _split(coeff: PhasedScalar):
    """(theta key, denominator, nonzero (index, numerator) pairs) per term."""
    return [(b, c.den, _nonzero(c.num)) for b, c in coeff._terms.items()]


def split_terms(x: "TorusElement") -> list:
    """The terms of x as kernel operands: (monomial, split coefficient) pairs."""
    return [(m, _split(c)) for m, c in x._terms.items()]


class Accumulator:
    """Sum of c_m c_n zeta^r e^{i pi b theta} delta_{m+n} p^t over pairs of terms.

    Each entry is keyed by (t, monomial, theta key) and holds ``[den, num]``:
    an unreduced integer numerator list over one positive denominator.  A
    coefficient is read as its nonzero power-basis entries a_j zeta^j, so a
    product of coefficients with the unit phase is a sum of a_i a_j
    zeta^(i+j+r), each looked up reduced in ``_root_table``; no general
    product and no intermediate scalar is built.  ``components`` reduces
    each coefficient to a canonical ``Cyclotomic`` once.
    """

    __slots__ = ("algebra", "_entries")

    def __init__(self, algebra: NcTorus):
        self.algebra = algebra
        self._entries: dict = {}

    def add(self, t: int, lhs: list, rhs: list) -> None:
        """Add (sum of the left terms) * (sum of the unit-phased right terms) into component t.

        ``lhs`` holds (m, split c_m) pairs from ``split_terms``; ``rhs`` holds
        (n, r, key, split c_n): the term c_n delta_n scaled by the unit phase
        (r, key), as the action leaves it.
        """
        alg = self.algebra
        order = alg.order
        deg = _field_tables(order)[0]
        roots = _root_table(order)
        entries = self._entries
        get = alg._pair_key
        cache = alg._cocycle_pairs
        pair_of = alg._cocycle_pair
        key_add = _key_add
        add = operator.add
        # the cocycle cache keys of every term, read once per call
        rhs = [(n, get and get(n), r0, b0, cn) for n, r0, b0, cn in rhs]
        for m, cm in lhs:
            gm = get and get(m)
            for n, gn, r0, b0, cn in rhs:
                if get is None:
                    r, bw = r0, b0
                else:
                    r, bw = cache.get((gm, gn)) or pair_of(m, n)
                    r = (r + r0) % order
                    bw = (bw[0] + b0[0], 1) if bw[1] == b0[1] == 1 else key_add(bw, b0)
                target = tuple(map(add, m, n))
                for b1, d1, s1 in cm:
                    # theta keys are integral (denominator 1) on the hot path
                    bb = (bw[0] + b1[0], 1) if bw[1] == b1[1] == 1 else key_add(bw, b1)
                    for b2, d2, s2 in cn:
                        if bb[1] == b2[1] == 1:
                            key = (t, target, (bb[0] + b2[0], 1))
                        else:
                            key = (t, target, key_add(bb, b2))
                        den = d1 * d2
                        scale = 1
                        entry = entries.get(key)
                        if entry is None:
                            entry = entries[key] = [den, [0] * deg]
                        elif entry[0] != den:
                            lcm = math.lcm(entry[0], den)
                            if lcm != entry[0]:
                                grow = lcm // entry[0]
                                entry[1] = [x * grow for x in entry[1]]
                                entry[0] = lcm
                            scale = lcm // den
                        out = entry[1]
                        for i, a1 in s1:
                            a1 *= scale
                            for j, a2 in s2:
                                x = a1 * a2
                                for k, v in roots[i + j + r]:
                                    out[k] += x * v

    def components(self) -> dict[int, "TorusElement"]:
        """The nonzero sums per component t, each coefficient reduced once."""
        order = self.algebra.order
        per_t: dict = {}
        for (t, m, b), (den, num) in self._entries.items():
            if any(num):
                per_t.setdefault(t, {}).setdefault(m, {})[b] = Cyclotomic(order, tuple(num), den)
        return {
            t: TorusElement._raw(
                self.algebra, {m: PhasedScalar._raw(order, cs) for m, cs in terms.items()}
            )
            for t, terms in per_t.items()
        }


_checked_conventions: set = set()  # keys of the preset algebras already certified


def standard_torus(d: int, theta_value=None, order: int = DEFAULT_CYCLOTOMIC_ORDER) -> NcTorus:
    """The standard preset, with its sign convention w v = e^{2 pi i theta} v w
    certified once per algebra.

    ``d = 3``: theta_23 = -theta, so u is central;
    ``d = 2``: theta_12 = -theta, the rotation-subalgebra restriction.
    """
    if d not in (2, 3):
        raise ValueError(f"the standard preset has d = 2 or 3, got {d}")
    algebra = NcTorus(d, {(d - 2, d - 1): (0, -1)}, theta_value, order)
    if algebra.key() not in _checked_conventions:
        v, w = algebra.basis_generators()[-2:]
        certify(w * v == v * w * algebra.theta_phase(2), "sign convention broken: w*v != e^{2 pi i theta} v*w")
        _checked_conventions.add(algebra.key())
    return algebra
