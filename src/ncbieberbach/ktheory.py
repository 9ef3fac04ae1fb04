"""Exact integer linear algebra and the K-group computation.

The solver takes the induced map of the dual automorphism on the K0 basis of
the plane crossed product, forms ``M = id - beta_hat_*``, and reads the two
K-groups of the quotient from the exact sequence with vanishing odd corner:
K1 is the kernel and K0 the cokernel of M, both presented canonically via the
Smith normal form (divisor-chain torsion coefficients).

The Smith normal form is the one canonicaliser: every K-group, first homology
group and span solve reads its diagonal.  It states each row operation once,
on the pair (S, U), and each column operation once, on (S, V), and it
certifies U M V = S for every shape, an r x 0 matrix included.

The basis elements are derived from the holonomy (``crossed._derived_basis``)
and named by the labels of ``families.K0_GENERATORS``.  Every column of
beta_hat_* but the exotic [M_N] one is derived: the image beta_hat(e_j) of
each generator element is solved for its integer coordinates in the other
generators, exactly and with a certified Smith-normal-form solve
(``solve_in_span``); only the exotic column is typed in.  The displayed
reference matrices are shipped as plain-text fixtures and compared against
the derived matrix, reporting (rather than patching) the one pinned
basis-order discrepancy.  A final cross-check computes the first homology of
the corresponding flat space groups by abelianizing their presentations,
which must reproduce K0 up to one free summand.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from . import families
from .crossed import crossed_product, k0_generator_table
from .scalars import certify

__all__ = [
    "smith_normal_form",
    "SNFResult",
    "kernel_cokernel",
    "AbelianGroup",
    "BetaStarData",
    "beta_star_matrix",
    "solve_in_span",
    "pv_solve",
    "load_fixture_matrix",
    "fixture_comparison",
    "bieberbach_h1",
    "compare_with_k0",
    "int_det",
]

IntMatrix = list[list[int]]


# ---------------------------------------------------------------------------
# integer matrix helpers


def _identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The product a b, with one row per row of a, also when b has no rows."""
    columns = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in columns] for row in a]


def transpose(a: IntMatrix) -> IntMatrix:
    return [list(col) for col in zip(*a)]


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


# ---------------------------------------------------------------------------
# Smith normal form


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
# the induced map on K0


def _coordinates(x) -> dict:
    """The exact rational coordinates of a crossed element, keyed by monomial
    and power of p, theta exponent and power-basis index."""
    return {(mk, b, i): q for mk, s in x.terms() for b, c in s.terms()
            for i, q in enumerate(c.coefficients()) if q}


def solve_in_span(basis, targets) -> IntMatrix:
    """The integer c with targets[j] = sum_i c[i][j] basis[i], certified.

    The exact coordinates of the elements form a rational system E c = B,
    each row scaled to integers.  With U E V = S its Smith normal form it is
    solvable over Z iff E has full column rank, each of the first rows of U B
    is divisible by its diagonal entry of S and the remaining rows vanish;
    then c = V S^{-1} U B.  Every step is certified, so a target outside the
    integer span raises AssertionError, also under ``python -O``.
    """
    columns = [_coordinates(x) for x in [*basis, *targets]]
    rows = []
    for key in sorted(set().union(*columns)):
        row = [col.get(key, 0) for col in columns]
        scale = math.lcm(*(Fraction(q).denominator for q in row))
        rows.append([int(q * scale) for q in row])
    n = len(basis)
    snf = smith_normal_form([row[:n] for row in rows])
    certify(snf.rank == n, "the basis elements are linearly dependent")
    ub = mat_mul(snf.u, [row[n:] for row in rows])
    for i, d in enumerate(snf.diagonal):
        certify(all(x % d == 0 for x in ub[i]), "a target is not an integer combination of the basis")
    certify(not any(any(row) for row in ub[n:]), "a target lies outside the span of the basis")
    return mat_mul(snf.v, [[x // d for x in ub[i]] for i, d in enumerate(snf.diagonal)])


@functools.lru_cache(maxsize=None)
def _derived_columns(family: str, spec: families.K0Spec) -> tuple:
    """beta_hat_* on the non-exotic classes of ``spec``, solved at formal theta."""
    cp = crossed_product(family, dim=2)
    elements = [el for _, el in k0_generator_table(cp).non_exotic()]
    columns = solve_in_span(elements, [cp.beta_hat(el) for el in elements])
    return tuple(map(tuple, columns))  # shared by every caller, so immutable


def _entry(token, epsilon: int) -> int:
    """An integer table entry; the tokens E and -E stand for +/- epsilon."""
    if token in ("E", "-E"):
        return epsilon if token == "E" else -epsilon
    return int(token)


class BetaStarData(NamedTuple):
    """id - beta_hat_* on the stated K0 basis, with its consistency facts."""

    family: str
    basis: tuple[str, ...]
    matrix: IntMatrix  # id - beta_hat_*
    order: int

    def induced_map(self) -> IntMatrix:
        n = len(self.basis)
        return [[(1 if i == j else 0) - self.matrix[i][j] for j in range(n)] for i in range(n)]

    def validate(self) -> None:
        b = self.induced_map()
        if functools.reduce(mat_mul, [b] * self.order) != _identity(len(self.basis)):
            raise ValueError(f"{self.family}: the induced map does not have order {self.order}")
        if [row[0] for row in b] != [1] + [0] * (len(self.basis) - 1):
            raise ValueError(f"{self.family}: the class of the identity is not fixed")


def beta_star_matrix(family: str, epsilon: int = 1) -> BetaStarData:
    """id - beta_hat_* on the labelled basis of ``families.K0_GENERATORS``.

    Every column but the exotic one is solved from the generator elements
    (``solve_in_span``, once per table entry and process); the exotic column
    is the typed-in one of the table.
    """
    spec = families.K0_GENERATORS.get(family)
    if spec is None:
        raise ValueError(f"unknown family {family!r}; expected one of {tuple(families.K0_GENERATORS)}")
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    exotic, column = spec.exotic
    basis = (*spec.classes, exotic)
    n = len(basis)
    induced = [[*row, 0] for row in _derived_columns(family, spec)] + [[0] * n]
    for lbl, token in column:
        induced[basis.index(lbl)][-1] += _entry(token, epsilon)
    matrix = [[(1 if i == j else 0) - induced[i][j] for j in range(n)] for i in range(n)]
    return BetaStarData(family, basis, matrix, order=families.DEFORMED[family][0])


def pv_solve(data: BetaStarData) -> tuple[AbelianGroup, AbelianGroup]:
    """K0 = coker(id - beta_hat_*), K1 = ker(id - beta_hat_*)."""
    data.validate()
    kernel, cokernel = kernel_cokernel(data.matrix)
    return cokernel, kernel


# ---------------------------------------------------------------------------
# fixtures (the displayed reference matrices)


_FIXTURE_DIR = Path(__file__).parent / "fixtures"


def load_fixture_matrix(family: str, epsilon: int = 1) -> IntMatrix:
    """Plain-text integer grid per family; the token E stands for epsilon."""
    path = _FIXTURE_DIR / f"{family}.txt"
    rows = []
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rows.append([_entry(token, epsilon) for token in line.split()])
    return rows


def _permute(matrix: IntMatrix, perm: list[int]) -> IntMatrix:
    return [[matrix[perm[i]][perm[j]] for j in range(len(perm))] for i in range(len(perm))]


def fixture_comparison(family: str, epsilon: int = 1) -> dict:
    """Compare the derived matrix with the displayed fixture.

    Returns a status of ``exact``, ``basis-transposition`` (the fixture
    matches after the exchange pinned in ``families.FIXTURE_TRANSPOSITIONS``,
    reported not patched), or ``mismatch`` (any other difference, another
    exchange included), plus identical K-groups evidence in the transposed case.
    """
    data = beta_star_matrix(family, epsilon)
    fixture = load_fixture_matrix(family, epsilon)
    if data.matrix == fixture:
        return {"status": "exact"}
    swapped = families.FIXTURE_TRANSPOSITIONS.get(family)
    if swapped:
        perm = list(range(len(data.basis)))
        a, b = (data.basis.index(lbl) for lbl in swapped)
        perm[a], perm[b] = b, a
        if _permute(data.matrix, perm) == fixture:
            return {
                "status": "basis-transposition",
                "swapped": swapped,
                "k_groups_agree": kernel_cokernel(data.matrix) == kernel_cokernel(fixture),
            }
    return {"status": "mismatch"}


# ---------------------------------------------------------------------------
# first homology of the flat space groups


def bieberbach_h1(family: str) -> AbelianGroup:
    """Abelianization of <t1, t2, t3, g | [t_i, t_j], g t g^{-1} = A t on the
    (t2, t3) lattice, g t1 g^{-1} = t1, g^N = t1>, with A the integer holonomy
    read off the undeformed action table."""
    a = families.holonomy_matrix(family)
    n = families.DEFORMED[family][0]
    relations = [
        [0, a[0][0] - 1, a[1][0], 0],
        [0, a[0][1], a[1][1] - 1, 0],
        [-1, 0, 0, n],
    ]
    _, cokernel = kernel_cokernel(transpose(relations))
    return cokernel


def compare_with_k0(family: str) -> bool:
    """K0 of the quotient equals Z plus the first homology of the space group."""
    k0, _ = pv_solve(beta_star_matrix(family, 1))
    h1 = bieberbach_h1(family)
    return k0 == AbelianGroup(h1.free_rank + 1, h1.torsion)
