"""Exact scalars for twisted group algebra computations.

Two layers:

* ``Cyclotomic``: an element of the cyclotomic field Q(zeta_M), stored on the
  power basis ``zeta^0 .. zeta^{phi(M)-1}`` and kept reduced modulo the M-th
  cyclotomic polynomial.  The reduced representation is canonical, so equality
  of coefficient tuples is equality of field elements.

* ``PhasedScalar``: a finite sum ``sum_b c_b * e^{i pi b theta}`` with b
  rational and c_b cyclotomic.  ``theta`` stays formal; for irrational theta
  the phases with distinct b are linearly independent over the field, so this
  representation is canonical as well.  Substituting a rational value for
  theta is an explicit operation (``rational_theta_fold``), never a default.

A unit phase ``zeta^r * e^{i pi b theta}`` (a cocycle value, the phase of an
action image) is carried downstream as the integer pair ``(r, key)``: the root
exponent r modulo the order and the reduced theta key ``(numerator,
denominator)`` of b.  Composing two unit phases adds the pairs
(``_key_add`` for the keys); ``PhasedScalar.unit`` and ``unit_exponents``
convert between the pair and the scalar, and ``_root_table`` applies
``zeta^r`` to a numerator vector without a general product.

``SparseElement`` holds the ring boilerplate of every sparse dict type in the
package (``PhasedScalar`` here, ``TorusElement`` and ``CrossedElement``
downstream); each subclass adds only its own product and involution.

All arithmetic is Fraction-exact.  There is no floating point in this module.
"""
from __future__ import annotations

import functools
import math
import os
from fractions import Fraction

__all__ = [
    "DEFAULT_CYCLOTOMIC_ORDER",
    "OrderMismatchError",
    "Cyclotomic",
    "PhasedScalar",
    "SparseElement",
    "session_order",
    "cyclotomic_polynomial",
    "cyc_root",
    "phased",
    "rational_theta_fold",
]

DEFAULT_CYCLOTOMIC_ORDER = 24
_ORDER_ENV = "NBK_CYCLOTOMIC_ORDER"


class OrderMismatchError(ValueError):
    """A required root of unity lies outside the session cyclotomic field."""


def certify(ok: bool, message: str) -> None:
    """Raise AssertionError unless ``ok``; unlike ``assert`` it survives ``python -O``."""
    if not ok:
        raise AssertionError(message)


def session_order() -> int:
    """Cyclotomic order used when none is given (env NBK_CYCLOTOMIC_ORDER)."""
    raw = os.environ.get(_ORDER_ENV)
    if raw is None:
        return DEFAULT_CYCLOTOMIC_ORDER
    order = int(raw)
    if order < 2 or order % 2:
        raise OrderMismatchError(
            f"cyclotomic order must be a positive even integer, got {order}"
        )
    return order


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _poly_divexact(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[int, ...]:
    # Long division of integer polynomials, certifying a zero remainder.
    num_l = list(num)
    deg_n, deg_d = len(num_l) - 1, len(den) - 1
    out = [0] * (deg_n - deg_d + 1)
    for k in range(deg_n - deg_d, -1, -1):
        coeff = num_l[k + deg_d]
        certify(coeff % den[deg_d] == 0, "polynomial division is not exact")
        q = coeff // den[deg_d]
        out[k] = q
        for j, dj in enumerate(den):
            num_l[k + j] -= q * dj
    certify(not any(num_l), "polynomial division left a remainder")
    return tuple(out)


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, ascending."""
    if m < 1:
        raise ValueError("order must be positive")
    if m == 1:
        return (-1, 1)
    num = tuple([-1] + [0] * (m - 1) + [1])  # x^m - 1
    for d in _divisors(m):
        if d < m:
            num = _poly_divexact(num, cyclotomic_polynomial(d))
    return num


@functools.lru_cache(maxsize=None)
def _field_tables(order: int):
    """Degree, overflow-reduction rows, root vectors, and root index for Q(zeta_order).

    ``overflow[j]`` is the basis representation of ``zeta^(deg+j)`` for
    ``0 <= j <= deg-2`` (all that a product of two reduced elements needs).
    ``roots[k]`` is the basis representation of ``zeta^k`` for ``0 <= k < order``.
    All vectors are integer tuples; the cyclotomic polynomial is monic, so the
    reduction never introduces denominators.
    """
    poly = cyclotomic_polynomial(order)
    deg = len(poly) - 1
    top = tuple(-c for c in poly[:deg])  # zeta^deg

    overflow: list[tuple[int, ...]] = [top]
    for _ in range(deg - 2):
        prev = overflow[-1]
        shifted = [0] + list(prev[: deg - 1])
        carry = prev[deg - 1]
        if carry:
            shifted = [s + carry * t for s, t in zip(shifted, top)]
        overflow.append(tuple(shifted))

    roots: list[tuple[int, ...]] = []
    cur = tuple([1] + [0] * (deg - 1))
    for _ in range(order):
        roots.append(cur)
        shifted = [0] + list(cur[: deg - 1])
        carry = cur[deg - 1]
        if carry:
            shifted = [s + carry * t for s, t in zip(shifted, top)]
        cur = tuple(shifted)
    certify(cur == roots[0], "zeta^order must reduce to 1")

    root_index = {vec: k for k, vec in enumerate(roots)}
    return deg, tuple(overflow), tuple(roots), root_index


@functools.lru_cache(maxsize=None)
def _root_table(order: int):
    """``table[e]``: the nonzero (index, value) entries of zeta^e for
    0 <= e < 3 * order, so a sum of up to three reduced exponents (two
    basis indices and a root exponent) indexes it without a modulo."""
    _, _, roots, _ = _field_tables(order)
    sparse = tuple(tuple((k, v) for k, v in enumerate(vec) if v) for vec in roots)
    return sparse * 3


@functools.lru_cache(maxsize=1 << 16)
def _convolve(order: int, left: tuple, right: tuple) -> tuple:
    """Reduced integer product of two numerator tuples; cached because the
    same root-of-unity factors recur throughout a computation."""
    deg, overflow, _, _ = _field_tables(order)
    out = [0] * deg
    high = [0] * (deg - 1)
    for i, a in enumerate(left):
        if not a:
            continue
        for j, b in enumerate(right):
            if not b:
                continue
            k = i + j
            if k < deg:
                out[k] += a * b
            else:
                high[k - deg] += a * b
    for j, h in enumerate(high):
        if h:
            row = overflow[j]
            for k in range(deg):
                if row[k]:
                    out[k] += h * row[k]
    return tuple(out)


class Cyclotomic:
    """Element of Q(zeta_order) in reduced power-basis coordinates.

    Stored as an integer numerator tuple over one positive denominator, kept
    in lowest terms (gcd of all numerators and the denominator is 1), so the
    representation is canonical and the arithmetic is pure integer work.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, num: tuple[int, ...], den: int = 1, reduce: bool = True):
        if reduce:
            if den < 0:
                num = tuple(-a for a in num)
                den = -den
            g = den
            for a in num:
                g = math.gcd(g, a)
                if g == 1:
                    break
            if g > 1:
                num = tuple(a // g for a in num)
                den //= g
        self.order = order
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Cyclotomic":
        deg, _, _, _ = _field_tables(order)
        return cls(order, (0,) * deg, 1, reduce=False)

    @classmethod
    def from_rational(cls, order: int, value) -> "Cyclotomic":
        deg, _, _, _ = _field_tables(order)
        q = Fraction(value)
        return cls(order, (q.numerator,) + (0,) * (deg - 1), q.denominator, reduce=False)

    @classmethod
    def root(cls, order: int, k: int) -> "Cyclotomic":
        """zeta_order^k in reduced form."""
        _, _, roots, _ = _field_tables(order)
        return cls(order, roots[k % order], 1, reduce=False)

    # -- helpers -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.order != self.order:
                raise OrderMismatchError(
                    f"mixed cyclotomic orders {self.order} and {other.order}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(self.order, other)
        return None

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.num[0], self.den)

    def coefficients(self) -> tuple[Fraction, ...]:
        """Power-basis coordinates as Fractions."""
        return tuple(Fraction(a, self.den) for a in self.num)

    def root_exponent(self) -> int:
        """k with self == zeta_order^k, or raise ValueError."""
        _, _, _, index = _field_tables(self.order)
        k = index.get(self.num) if self.den == 1 else None
        if k is None:
            raise ValueError(f"{self!r} is not a power of zeta_{self.order}")
        return k

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return Cyclotomic(self.order, tuple(a + b for a, b in zip(self.num, o.num)), self.den)
        lcm = self.den * o.den // math.gcd(self.den, o.den)
        sa, sb = lcm // self.den, lcm // o.den
        return Cyclotomic(self.order, tuple(a * sa + b * sb for a, b in zip(self.num, o.num)), lcm)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-a for a in self.num), self.den, reduce=False)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_rational():
            p = self.num[0]
            return Cyclotomic(self.order, tuple(p * b for b in o.num), self.den * o.den)
        if o.is_rational():
            p = o.num[0]
            return Cyclotomic(self.order, tuple(p * a for a in self.num), self.den * o.den)
        return Cyclotomic(self.order, _convolve(self.order, self.num, o.num), self.den * o.den)

    __rmul__ = __mul__

    def times_root(self, r: int) -> "Cyclotomic":
        """self * zeta^r.  The root is a unit of Z[zeta], so the numerator
        content, and with it the lowest-terms form, is unchanged."""
        r %= self.order
        if not r:
            return self
        table = _root_table(self.order)
        out = [0] * len(self.num)
        for j, a in enumerate(self.num):
            if a:
                for k, v in table[r + j]:
                    out[k] += a * v
        return Cyclotomic(self.order, tuple(out), self.den, reduce=False)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative cyclotomic powers are not supported")
        result = Cyclotomic.from_rational(self.order, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conj(self) -> "Cyclotomic":
        """Complex conjugation, zeta -> zeta^{-1}."""
        _, _, roots, _ = _field_tables(self.order)
        deg = len(self.num)
        out = [0] * deg
        for j, a in enumerate(self.num):
            if not a:
                continue
            vec = roots[(self.order - j) % self.order]
            for k in range(deg):
                if vec[k]:
                    out[k] += a * vec[k]
        return Cyclotomic(self.order, tuple(out), self.den)

    def is_unit_modulus(self) -> bool:
        return (self * self.conj()).is_one()

    # -- comparisons / display ------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.order, self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coefficients()):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"z{k}" if k > 1 else "z")
            else:
                parts.append(f"{c}*z{k}" if k > 1 else f"{c}*z")
        return " + ".join(parts).replace("+ -", "- ")


class SparseElement:
    """Ring boilerplate shared by PhasedScalar, TorusElement and CrossedElement.

    An element is a context (the ring it lives in) and a dict from keys to
    nonzero coefficients, which form a ring of their own.  A subclass names its
    two slots in the class statement, ``class X(SparseElement, ctx=..., data=...)``;
    the base reaches them through the aliases ``_ctx`` and ``_data`` of their slot
    descriptors.  The subclass supplies ``__mul__`` (which hands scalars to
    ``_scale``) and two hooks: ``_one``, the unit of its context, and ``_check``,
    which raises the subclass's error for an element of another context.
    """

    __slots__ = ()

    def __init_subclass__(cls, ctx: str, data: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._ctx = getattr(cls, ctx)
        cls._data = getattr(cls, data)

    def __init__(self, ctx, data: dict):
        self._ctx = ctx
        self._data = {k: c for k, c in data.items() if not c.is_zero()}

    @classmethod
    def _raw(cls, ctx, data: dict):
        """Internal constructor trusting an already pruned, key-normalized dict."""
        self = object.__new__(cls)
        self._ctx = ctx
        self._data = data
        return self

    def _coerce(self, other):
        """``other`` as an element of this context, or None for foreign types."""
        if isinstance(other, type(self)):
            self._check(other)
            return other
        if isinstance(other, SCALARS):
            return self._one() * other
        return None

    def _scale(self, s):
        """Multiplication by a central scalar, applied coefficientwise."""
        if not isinstance(s, SCALARS):
            return NotImplemented
        if not s:
            return self._raw(self._ctx, {})
        return self._raw(self._ctx, {k: c * s for k, c in self._data.items()})

    def is_zero(self) -> bool:
        return not self._data

    def __bool__(self):
        return bool(self._data)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._data)
        for k, c in o._data.items():
            cur = out.get(k)
            if cur is None:
                out[k] = c
            else:
                s = cur + c
                if s.is_zero():
                    del out[k]
                else:
                    out[k] = s
        return self._raw(self._ctx, out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o + (-self)

    def __neg__(self):
        return self._raw(self._ctx, {k: -c for k, c in self._data.items()})

    def __rmul__(self, other):
        return self * other  # only scalars reach here, and they are central

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not supported; use star() or conj() on unitaries")
        result = self._one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except ValueError:  # elements of different contexts are never equal
            return False
        if o is None:
            return NotImplemented
        return self._data == o._data


class PhasedScalar(SparseElement, ctx="order", data="_terms"):
    """Finite sum of cyclotomic coefficients times formal phases e^{i pi b theta}.

    Internally the exponents b are dict keys stored as reduced integer pairs
    (numerator, positive denominator); the public surface speaks Fractions.
    """

    __slots__ = ("order", "_terms")

    def __init__(self, order: int, terms: dict | None = None):
        self.order = order
        pruned: dict[tuple[int, int], Cyclotomic] = {}
        if terms:
            for b, c in terms.items():
                if c.order != order:
                    raise OrderMismatchError("coefficient order differs from scalar order")
                if not c.is_zero():
                    pruned[_bkey(b)] = c
        self._terms = pruned

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "PhasedScalar":
        return cls._raw(order, {})

    @classmethod
    def one(cls, order: int) -> "PhasedScalar":
        return cls._raw(order, {(0, 1): Cyclotomic.from_rational(order, 1)})

    @classmethod
    def of(cls, value, order: int) -> "PhasedScalar":
        """Coerce an int, Fraction, Cyclotomic, or PhasedScalar."""
        if isinstance(value, PhasedScalar):
            if value.order != order:
                raise OrderMismatchError("mixed scalar orders")
            return value
        if isinstance(value, Cyclotomic):
            if value.order != order:
                raise OrderMismatchError("mixed scalar orders")
            return cls._raw(order, {(0, 1): value} if not value.is_zero() else {})
        if isinstance(value, (int, Fraction)):
            c = Cyclotomic.from_rational(order, value)
            return cls._raw(order, {(0, 1): c} if not c.is_zero() else {})
        raise TypeError(f"cannot coerce {value!r} to PhasedScalar")

    @classmethod
    def phase(cls, b, coeff=1, order: int | None = None) -> "PhasedScalar":
        """coeff * e^{i pi b theta}."""
        order = session_order() if order is None else order
        c = coeff if isinstance(coeff, Cyclotomic) else Cyclotomic.from_rational(order, coeff)
        if c.is_zero():
            return cls._raw(order, {})
        return cls._raw(order, {_bkey(b): c})

    @classmethod
    def unit(cls, order: int, r: int, key: tuple[int, int]) -> "PhasedScalar":
        """The unit phase zeta_order^r * e^{i pi b theta} of the pair (r, key of b)."""
        return cls._raw(order, {key: Cyclotomic.root(order, r)})

    # -- inspection -------------------------------------------------------

    def terms(self) -> tuple[tuple[Fraction, Cyclotomic], ...]:
        items = [(Fraction(n, d), c) for (n, d), c in self._terms.items()]
        items.sort(key=lambda kv: kv[0])
        return tuple(items)

    def coefficient(self, b) -> Cyclotomic:
        return self._terms.get(_bkey(b), Cyclotomic.zero(self.order))

    def is_one(self) -> bool:
        if len(self._terms) != 1:
            return False
        (key, c), = self._terms.items()
        return key == (0, 1) and c.is_one()

    def single_phase(self) -> tuple[Fraction, Cyclotomic]:
        """The unique (b, coefficient) pair, for one-term scalars."""
        if len(self._terms) != 1:
            raise ValueError(f"{self!r} is not a single phased term")
        ((n, d), c), = self._terms.items()
        return Fraction(n, d), c

    def unit_exponents(self) -> tuple[int, tuple[int, int]]:
        """The pair (r, theta key) with self == PhasedScalar.unit(order, r, key).

        Raises ValueError unless self is one root of unity times one theta phase.
        """
        if len(self._terms) != 1:
            raise ValueError(f"{self!r} is not a single phased term")
        (key, c), = self._terms.items()
        return c.root_exponent(), key

    def times_unit(self, r: int, key: tuple[int, int]) -> "PhasedScalar":
        """self * zeta^r * e^{i pi b theta} for the unit phase (r, key of b)."""
        if key == _ZERO_KEY and not r % self.order:
            return self
        return PhasedScalar._raw(
            self.order, {_key_add(b, key): c.times_root(r) for b, c in self._terms.items()}
        )

    # -- arithmetic ---------------------------------------------------------

    def _one(self) -> "PhasedScalar":
        return PhasedScalar.one(self.order)

    def _check(self, other: "PhasedScalar"):
        if other.order != self.order:
            raise OrderMismatchError("mixed scalar orders")

    def __mul__(self, other):
        if not isinstance(other, PhasedScalar):
            return self._scale(other)
        self._check(other)
        if len(self._terms) == 1 and len(other._terms) == 1:
            (b1, c1), = self._terms.items()
            (b2, c2), = other._terms.items()
            c = c1 * c2
            if c.is_zero():
                return PhasedScalar._raw(self.order, {})
            return PhasedScalar._raw(self.order, {_key_add(b1, b2): c})
        out: dict = {}
        for b1, c1 in self._terms.items():
            for b2, c2 in other._terms.items():
                b = _key_add(b1, b2)
                c = c1 * c2
                cur = out.get(b)
                out[b] = c if cur is None else cur + c
        return PhasedScalar._raw(self.order, {b: c for b, c in out.items() if not c.is_zero()})

    def conj(self) -> "PhasedScalar":
        """Complex conjugation: (b, c) -> (-b, conj(c))."""
        return PhasedScalar._raw(self.order, {(-n, d): c.conj() for (n, d), c in self._terms.items()})

    def fold(self, theta) -> "PhasedScalar":
        """Substitute the rational value ``theta``, collapsing all phases to b = 0."""
        theta = Fraction(theta)
        acc = Cyclotomic.zero(self.order)
        for (n, d), c in self._terms.items():
            q = Fraction(n, d) * theta  # phase is e^{i pi q}
            acc = acc + c * cyc_root(2 * q.denominator, q.numerator, order=self.order)
        if acc.is_zero():
            return PhasedScalar._raw(self.order, {})
        return PhasedScalar._raw(self.order, {(0, 1): acc})

    # -- comparisons / display ------------------------------------------------

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for b, c in self.terms():
            if b == 0:
                parts.append(f"({c!r})")
            else:
                parts.append(f"({c!r})*E[{b}]")
        return " + ".join(parts)


SCALARS = (int, Fraction, Cyclotomic, PhasedScalar)
_ZERO_KEY = (0, 1)  # the theta key of b = 0


def _bkey(b) -> tuple[int, int]:
    """Reduced (numerator, denominator) key for a theta exponent."""
    if isinstance(b, int):
        return (b, 1)
    b = Fraction(b)
    return (b.numerator, b.denominator)


def _key_add(k1: tuple[int, int], k2: tuple[int, int]) -> tuple[int, int]:
    n1, d1 = k1
    n2, d2 = k2
    if d1 == 1 and d2 == 1:
        return (n1 + n2, 1)
    n = n1 * d2 + n2 * d1
    d = d1 * d2
    g = math.gcd(n, d)
    return (n // g, d // g) if g > 1 else (n, d)


def cyc_root(m: int, k: int, order: int | None = None) -> Cyclotomic:
    """The root of unity e^{2 pi i k / m} inside the session field.

    Raises OrderMismatchError unless m divides the session order.
    """
    order = session_order() if order is None else order
    if m < 1 or order % m:
        raise OrderMismatchError(f"order {m} does not divide the session order {order}")
    return Cyclotomic.root(order, (k % m) * (order // m))


def phased(b, c=1, order: int | None = None) -> PhasedScalar:
    """The scalar c * e^{i pi b theta} with theta formal."""
    return PhasedScalar.phase(b, c, order=order)


def rational_theta_fold(s: PhasedScalar, theta) -> PhasedScalar:
    """Evaluate a phased scalar at a rational theta (see PhasedScalar.fold)."""
    return s.fold(theta)
