"""Twisted group algebras over Z^d at the polynomial level.

The algebra is spanned by basis monomials ``delta_m`` for integer exponent
vectors m, multiplied by the bicharacter cocycle

    omega(m, n) = e^{i pi sum_{j,k} theta_jk m_j n_k},

where theta is a real antisymmetric d x d matrix whose entries are affine
expressions ``a + b*theta`` with rational a, b and theta a formal symbol.
Setting theta to an actual rational number is supported through the algebra's
``theta_value`` (folded mode); the symbolic mode is the default.

The standard presets give three unitary generators with relations

    u v = v u,   u w = w u,   w v = e^{2 pi i theta} v w,

and the matching two-generator restriction for the rotation subalgebra.

Every cocycle value is a unit phase e^{i pi (a + b theta)}.  The algebra keeps
it as the integer pair (r, key): zeta^r with r = a * order / 2 modulo the
session order, and the reduced theta key of b (``scalars``).  ``NcTorus``
caches these pairs per pair of active coordinates; ``cocycle`` builds the
public ``PhasedScalar`` from them.

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
from typing import Iterable, NamedTuple

from .scalars import (
    Cyclotomic,
    OrderMismatchError,
    PhasedScalar,
    SparseElement,
    _bkey,
    _field_tables,
    _key_add,
    _root_table,
    session_order,
)

__all__ = [
    "ThetaEntry",
    "ThetaMatrix",
    "NcTorus",
    "TorusElement",
    "Accumulator",
    "generators",
]

Monomial = tuple[int, ...]
UnitPair = tuple[int, tuple[int, int]]  # (root exponent r, theta key): zeta^r e^{i pi b theta}
_ONE_PAIR: UnitPair = (0, (0, 1))
_COCYCLE_CACHE_CAP = 200_000


class ThetaEntry(NamedTuple):
    """The value a + b*theta of one matrix slot."""

    a: Fraction
    b: Fraction

    @classmethod
    def of(cls, a, b=0) -> "ThetaEntry":
        return cls(Fraction(a), Fraction(b))

    def __neg__(self) -> "ThetaEntry":
        return ThetaEntry(-self.a, -self.b)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def phase_equal(self, other: "ThetaEntry") -> bool:
        """Equality of the phases e^{i pi (.)}: a is compared modulo 2."""
        return (self.a - other.a) % 2 == 0 and self.b == other.b


class ThetaMatrix:
    """Antisymmetric d x d matrix of ThetaEntry values (diagonal zero)."""

    __slots__ = ("d", "_upper")

    def __init__(self, d: int, upper: dict[tuple[int, int], ThetaEntry]):
        self.d = d
        self._upper = {}
        for (j, k), entry in upper.items():
            if not 0 <= j < k < d:
                raise ValueError(f"slot ({j},{k}) is not an upper-triangle position")
            if not entry.is_zero():
                self._upper[(j, k)] = entry

    @classmethod
    def standard_3d(cls) -> "ThetaMatrix":
        """theta_12 = theta_13 = 0 and theta_23 = -theta (symbolic)."""
        return cls(3, {(1, 2): ThetaEntry.of(0, -1)})

    @classmethod
    def standard_2d(cls) -> "ThetaMatrix":
        """theta_12 = -theta, the rotation-subalgebra restriction."""
        return cls(2, {(0, 1): ThetaEntry.of(0, -1)})

    def entry(self, j: int, k: int) -> ThetaEntry:
        if j == k:
            return ThetaEntry.of(0, 0)
        if j < k:
            return self._upper.get((j, k), ThetaEntry.of(0, 0))
        return -self._upper.get((k, j), ThetaEntry.of(0, 0))

    def upper_items(self):
        return sorted(self._upper.items())

    def key(self):
        return (self.d, tuple(sorted(self._upper.items())))

    def __eq__(self, other):
        if not isinstance(other, ThetaMatrix):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        slots = ", ".join(
            f"theta_{j + 1}{k + 1}={e.a}+{e.b}t" for (j, k), e in self.upper_items()
        )
        return f"ThetaMatrix(d={self.d}, {slots or 'zero'})"


class NcTorus:
    """A twisted group algebra C*(Z^d, omega_theta) at the polynomial level.

    ``theta_value=None`` keeps theta formal; a Fraction folds every phase
    e^{i pi b theta} into the cyclotomic field of the given session order.
    """

    __slots__ = ("theta", "theta_value", "order", "_pair_key", "_cocycle_pairs")

    def __init__(self, theta: ThetaMatrix, theta_value=None, order: int | None = None):
        self.theta = theta
        self.theta_value = None if theta_value is None else Fraction(theta_value)
        self.order = session_order() if order is None else order
        # only coordinates coupled by a nonzero slot influence the cocycle
        active = set()
        for (j, k), _ in theta.upper_items():
            active.add(j)
            active.add(k)
        # the cocycle cache key: the active coordinates of m and of n (a
        # nonzero slot couples two coordinates, so the getter returns tuples)
        self._pair_key = operator.itemgetter(*sorted(active)) if active else None
        self._cocycle_pairs: dict = {}

    # -- identity ----------------------------------------------------------

    @property
    def d(self) -> int:
        return self.theta.d

    def key(self):
        return (self.theta.key(), self.theta_value, self.order)

    def same_algebra(self, other: "NcTorus") -> bool:
        return other is self or (isinstance(other, NcTorus) and self.key() == other.key())

    # -- scalars -----------------------------------------------------------

    def scalar(self, value) -> PhasedScalar:
        return PhasedScalar.of(value, self.order)

    def scalar_zero(self) -> PhasedScalar:
        return PhasedScalar.zero(self.order)

    def theta_phase(self, b) -> PhasedScalar:
        """The scalar e^{i pi b theta}, folded when theta has a rational value."""
        b = Fraction(b)
        if self.theta_value is None:
            return PhasedScalar.phase(b, 1, order=self.order)
        return PhasedScalar.phase(b, 1, order=self.order).fold(self.theta_value)

    def unit_pair(self, a: Fraction, b: Fraction) -> UnitPair:
        """e^{i pi (a + b theta)} as the pair (r, theta key), folded when theta has a value.

        The rational part e^{i pi a} with a = p/q is zeta_{2q}^p, so 2q must
        divide the session order.
        """
        if self.theta_value is not None:
            a = a + b * self.theta_value
            b = Fraction(0)
        q = 2 * a.denominator
        if self.order % q:
            raise OrderMismatchError(f"order {q} does not divide the session order {self.order}")
        return (a.numerator * (self.order // q)) % self.order, _bkey(b)

    def phase_of_entry(self, a: Fraction, b: Fraction) -> PhasedScalar:
        """e^{i pi (a + b theta)} as a single-term PhasedScalar."""
        return PhasedScalar.unit(self.order, *self.unit_pair(a, b))

    def _cocycle_pair(self, m: Monomial, n: Monomial) -> UnitPair:
        """omega(m, n) as a unit pair, cached per pair of active coordinates."""
        get = self._pair_key
        if get is None:
            return _ONE_PAIR
        key = (get(m), get(n))
        pair = self._cocycle_pairs.get(key)
        if pair is None:
            a = Fraction(0)
            b = Fraction(0)
            for (j, k), entry in self.theta.upper_items():
                cross = m[j] * n[k] - m[k] * n[j]
                if cross:
                    a += entry.a * cross
                    b += entry.b * cross
            pair = self.unit_pair(a, b)
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
        mode = "symbolic" if self.theta_value is None else f"theta={self.theta_value}"
        return f"NcTorus({self.theta!r}, {mode}, order={self.order})"


class TorusElement(SparseElement, ctx="algebra", data="_terms"):
    """Finite map from exponent vectors to PhasedScalar coefficients."""

    __slots__ = ("algebra", "_terms")

    # -- inspection --------------------------------------------------------

    def terms(self) -> tuple[tuple[Monomial, PhasedScalar], ...]:
        return tuple(sorted(self._terms.items()))

    def coefficient(self, m: Iterable[int]) -> PhasedScalar:
        return self._terms.get(tuple(m), self.algebra.scalar_zero())

    def single_term(self) -> tuple[Monomial, PhasedScalar]:
        if len(self._terms) != 1:
            raise ValueError("element is not a single monomial term")
        return next(iter(self._terms.items()))

    def degree(self) -> int:
        return max((max(abs(x) for x in m) for m in self._terms), default=0)

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
        acc.add(0, self, [(n, *_ONE_PAIR, c) for n, c in other._terms.items()])
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

    def add(self, t: int, left: "TorusElement", right) -> None:
        """Add left * (sum of unit-phased terms) into component t.

        ``right`` holds (n, r, key, c_n) quadruples: the term c_n delta_n
        scaled by the unit phase (r, key), as the action leaves it.
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
        lhs = [(m, _split(c)) for m, c in left._terms.items()]
        rhs = [(n, r, b, _split(c)) for n, r, b, c in right]
        for m, cm in lhs:
            for n, r0, b0, cn in rhs:
                if get is None:
                    r, bw = r0, b0
                else:
                    r, bw = cache.get((get(m), get(n))) or pair_of(m, n)
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


class Generators3(NamedTuple):
    algebra: NcTorus
    u: TorusElement
    v: TorusElement
    w: TorusElement


class Generators2(NamedTuple):
    algebra: NcTorus
    v: TorusElement
    w: TorusElement


_checked_conventions: set = set()


def _assert_sign_convention(algebra: NcTorus) -> None:
    """One-time check that the preset reproduces w v = e^{2 pi i theta} v w."""
    key = algebra.key()
    if key in _checked_conventions:
        return
    if algebra.d == 3:
        _, v, w = algebra.basis_generators()
    else:
        v, w = algebra.basis_generators()
    lhs = w * v
    rhs = v * w * algebra.theta_phase(2)
    if lhs != rhs:
        raise AssertionError("sign convention broken: w*v != e^{2 pi i theta} v*w")
    _checked_conventions.add(key)


def generators(preset: str, theta_value=None, order: int | None = None):
    """Unitary generators for a standard preset.

    ``"3d"`` returns (algebra, u, v, w) on the three-torus preset;
    ``"2d"`` returns (algebra, v, w) for the rotation subalgebra.
    """
    if preset == "3d":
        algebra = NcTorus(ThetaMatrix.standard_3d(), theta_value=theta_value, order=order)
        u, v, w = algebra.basis_generators()
        _assert_sign_convention(algebra)
        return Generators3(algebra, u, v, w)
    if preset == "2d":
        algebra = NcTorus(ThetaMatrix.standard_2d(), theta_value=theta_value, order=order)
        v, w = algebra.basis_generators()
        _assert_sign_convention(algebra)
        return Generators2(algebra, v, w)
    raise ValueError(f"unknown preset {preset!r}; expected '3d' or '2d'")
