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
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .scalars import PhasedScalar, SparseElement, cyc_root, session_order

__all__ = [
    "ThetaEntry",
    "ThetaMatrix",
    "NcTorus",
    "TorusElement",
    "generators",
]

Monomial = tuple[int, ...]


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

    def value_at(self, theta_value: Fraction | None) -> Fraction:
        """Numeric value once theta is folded to a rational."""
        if theta_value is None:
            raise ValueError("theta is symbolic; no numeric value")
        return self.a + self.b * theta_value

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

    __slots__ = ("theta", "theta_value", "order", "_active", "_cocycle_cache", "_one_phase")

    def __init__(self, theta: ThetaMatrix, theta_value=None, order: int | None = None):
        self.theta = theta
        self.theta_value = None if theta_value is None else Fraction(theta_value)
        self.order = session_order() if order is None else order
        # only coordinates coupled by a nonzero slot influence the cocycle
        active = set()
        for (j, k), _ in theta.upper_items():
            active.add(j)
            active.add(k)
        self._active = tuple(sorted(active))
        self._cocycle_cache: dict = {}
        self._one_phase = PhasedScalar.one(self.order)

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

    def phase_of_entry(self, a: Fraction, b: Fraction) -> PhasedScalar:
        """e^{i pi (a + b theta)} as a single-term PhasedScalar.

        The rational part e^{i pi a} with a = p/q is the root of unity
        zeta_{2q}^p, so 2q must divide the session order.
        """
        if self.theta_value is not None:
            a = a + b * self.theta_value
            b = Fraction(0)
        coeff = cyc_root(2 * a.denominator, a.numerator, order=self.order)
        return PhasedScalar.phase(b, coeff, order=self.order)

    def cocycle(self, m: Monomial, n: Monomial) -> PhasedScalar:
        """omega(m, n) = e^{i pi sum theta_jk m_j n_k}, a single unit phase."""
        if len(m) != self.d or len(n) != self.d:
            raise ValueError(f"dimension mismatch: expected vectors of length {self.d}")
        active = self._active
        if not active:
            return self._one_phase
        key = tuple(m[i] for i in active) + tuple(n[i] for i in active)
        cached = self._cocycle_cache.get(key)
        if cached is not None:
            return cached
        a = Fraction(0)
        b = Fraction(0)
        for (j, k), entry in self.theta.upper_items():
            cross = m[j] * n[k] - m[k] * n[j]
            if cross:
                a += entry.a * cross
                b += entry.b * cross
        result = self.phase_of_entry(a, b)
        if len(self._cocycle_cache) < 200_000:
            self._cocycle_cache[key] = result
        return result

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

    def element(self, terms: dict[Monomial, PhasedScalar]) -> "TorusElement":
        return TorusElement(self, dict(terms))

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

    def support(self) -> tuple[Monomial, ...]:
        return tuple(sorted(self._terms))

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
        alg = self.algebra
        out: dict[Monomial, PhasedScalar] = {}
        for m, cm in self._terms.items():
            for n, cn in other._terms.items():
                phase = alg.cocycle(m, n)
                target = tuple(a + b for a, b in zip(m, n))
                contrib = cm * cn
                if not phase.is_one():
                    contrib = contrib * phase
                cur = out.get(target)
                out[target] = contrib if cur is None else cur + contrib
        return TorusElement._raw(alg, {m: c for m, c in out.items() if not c.is_zero()})

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
