"""The integer geometry of the flat manifolds: Smith normal form, groups, holonomy.

The Smith normal form is the one canonicaliser: every K-group, first homology
group and span solve reads its diagonal.  It states each row operation once,
on the pair (S, U), and each column operation once, on (S, V), and it
certifies U M V = S for every shape, an r x 0 matrix included.

A plane family's generator acts on the (v, w) lattice by an integer matrix A.
Read off ``families.CLASSICAL`` it is the holonomy, which gives the first
homology of the flat space group; read off ``families.DEFORMED`` it is the
action of the crossed product (h^2 for B3), whose K0 stems are the fixed
points of A^k on T^2 (Echterhoff-Lueck-Phillips-Walters).  For k | N, k < N,
a coset c of Z^2 / (A^k - 1) Z^2 is the fixed point y / d of A^k,
y = adj(A^k - 1) c mod d = |det(A^k - 1)|.  Dropping the points that A^j
fixes for some 0 < j < k, the least c of each <A>-orbit in the order
(c[1], c[0]) is the stem (c, k, m), m = N / k, of the classes Q_{jk},
j = m - 2, ..., 0.
"""
from __future__ import annotations

import itertools
from typing import NamedTuple

from . import families
from .scalars import certify

__all__ = [
    "smith_normal_form",
    "SNFResult",
    "kernel_cokernel",
    "AbelianGroup",
    "bieberbach_h1",
    "holonomy_matrix",
    "coset_stems",
    "int_det",
    "mat_mul",
]

IntMatrix = list[list[int]]


# ---------------------------------------------------------------------------
# integer matrices and the Smith normal form


def _identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The product a b, with one row per row of a, also when b has no rows."""
    columns = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in columns] for row in a]


def int_det(matrix: IntMatrix) -> int:
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    n = len(matrix)
    if n == 0:
        return 1
    a = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


class SNFResult(NamedTuple):
    s: IntMatrix  # diagonal, divisor chain
    u: IntMatrix  # unimodular row transform
    v: IntMatrix  # unimodular column transform
    diagonal: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d)


def smith_normal_form(matrix: IntMatrix) -> SNFResult:
    """U * matrix * V = S with U, V unimodular and S a divisor-chain diagonal.

    Deterministic: the pivot is the entry of smallest nonzero absolute value
    in the remaining block, ties broken by lexicographic position.  Every
    shape is certified, an r x 0 matrix included.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    d = [[int(x) for x in row] for row in matrix]
    u = _identity(rows)
    v = _identity(cols)

    def swap_rows(i, j):
        for m in (d, u):
            m[i], m[j] = m[j], m[i]

    def swap_cols(i, j):
        for r in (*d, *v):
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, q):
        for m in (d, u):
            m[dst] = [a + q * b for a, b in zip(m[dst], m[src])]

    def add_col(dst, src, q):
        for r in (*d, *v):
            r[dst] += q * r[src]

    for t in range(min(rows, cols)):
        pivot = min(((abs(d[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if d[i][j]),
                    default=None)
        if pivot is None:
            break
        swap_rows(t, pivot[1])
        swap_cols(t, pivot[2])
        while True:
            if d[t][t] < 0:
                add_row(t, t, -2)
            i = next((i for i in range(t + 1, rows) if d[i][t] % d[t][t]), None)
            if i is not None:
                add_row(i, t, -(d[i][t] // d[t][t]))
                swap_rows(i, t)
                continue
            for i in range(t + 1, rows):
                if d[i][t]:
                    add_row(i, t, -(d[i][t] // d[t][t]))
            j = next((j for j in range(t + 1, cols) if d[t][j] % d[t][t]), None)
            if j is not None:
                add_col(j, t, -(d[t][j] // d[t][t]))
                swap_cols(j, t)
                continue
            for j in range(t + 1, cols):
                if d[t][j]:
                    add_col(j, t, -(d[t][j] // d[t][t]))
            fix = next((i for i in range(t + 1, rows) if any(x % d[t][t] for x in d[i][t + 1:])), None)
            if fix is None:
                break
            add_row(t, fix, 1)

    diag = tuple(d[i][i] for i in range(min(rows, cols)))
    for a, b in zip(diag, diag[1:]):
        certify(b == 0 or (a != 0 and b % a == 0), "divisor chain violated")
    certify(mat_mul(mat_mul(u, [list(map(int, r)) for r in matrix]), v) == d, "U M V != S")
    certify(abs(int_det(u)) == 1 and abs(int_det(v)) == 1, "transforms are not unimodular")
    return SNFResult(s=d, u=u, v=v, diagonal=diag)


# ---------------------------------------------------------------------------
# finitely generated abelian groups


class AbelianGroup(NamedTuple("AbelianGroup", [("free_rank", int), ("torsion", tuple)])):
    """Canonical form: free rank plus a divisor-chain torsion tuple."""

    __slots__ = ()

    def __new__(cls, free_rank: int, torsion: tuple[int, ...] = ()):
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for val in torsion:
            if val < 2:
                raise ValueError("torsion coefficients must exceed 1")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("torsion must form a divisor chain")
        return super().__new__(cls, free_rank, torsion)

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z_{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


def kernel_cokernel(matrix: IntMatrix) -> tuple[AbelianGroup, AbelianGroup]:
    """Kernel and cokernel of an integer matrix acting on column vectors."""
    snf = smith_normal_form(matrix)
    torsion = tuple(x for x in snf.diagonal if x > 1)
    return AbelianGroup(len(snf.v) - snf.rank), AbelianGroup(len(snf.u) - snf.rank, torsion)


# ---------------------------------------------------------------------------
# the plane lattice: the holonomy, the first homology and the K0 stems


def _plane_matrix(generator) -> IntMatrix:
    """The integer 2x2 action of a registry generator (order, image specs) on
    the (v, w) lattice: column j is the image exponent vector of the j-th
    lattice generator."""
    _, images = generator
    if any(target[0] for _, target in images[1:]):
        raise ValueError("lattice images must stay in the (v, w) plane")
    return [list(row) for row in zip(*(target[1:] for _, target in images[1:]))]


def holonomy_matrix(family: str) -> IntMatrix:
    """The holonomy: the plane matrix of the family's undeformed generator."""
    if family not in families.K_FAMILIES:
        raise ValueError(f"holonomy is tabulated for {families.K_FAMILIES}, not {family!r}")
    return _plane_matrix(*families.CLASSICAL[family])


def bieberbach_h1(family: str) -> AbelianGroup:
    """Abelianization of <t1, t2, t3, g | [t_i, t_j], g t g^{-1} = A t on the
    (t2, t3) lattice, g t1 g^{-1} = t1, g^N = t1>, with A the holonomy: the
    cokernel of the relations, one column each, on the rows t1, t2, t3, g."""
    a = holonomy_matrix(family)
    n = families.DEFORMED[family][0]
    relations = [
        [0, 0, -1],
        [a[0][0] - 1, a[0][1], 0],
        [a[1][0], a[1][1] - 1, 0],
        [0, 0, n],
    ]
    _, cokernel = kernel_cokernel(relations)
    return cokernel


def coset_stems(family: str) -> tuple:
    """The K0 stems (c, k, m) of the family's plane action, in derivation order
    (see the module docstring)."""
    generator = families.DEFORMED[family]
    n = generator[0]
    powers = list(itertools.accumulate([_plane_matrix(generator)] * (n - 1), mat_mul, initial=_identity(2)))
    stems = []
    for k in (k for k in range(1, n) if n % k == 0):
        (p, q), (r, s) = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(powers[k])]
        d, seen = abs(p * s - q * r), set()
        for c in sorted(itertools.product(range(d), repeat=2), key=lambda c: c[::-1]):
            y = ((s * c[0] - q * c[1]) % d, (p * c[1] - r * c[0]) % d)
            orbit = [tuple(t % d for t, in mat_mul(power, [[x] for x in y])) for power in powers[:k]]
            if y in seen or y in orbit[1:]:
                continue
            seen.update(orbit)
            stems.append((c, k, n // k))
    return tuple(stems)
