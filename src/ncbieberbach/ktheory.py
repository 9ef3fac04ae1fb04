"""Exact integer linear algebra and the K-group computation.

The solver takes the induced map of the dual automorphism on the K0 basis of
the plane crossed product, forms ``M = id - beta_hat_*``, and reads the two
K-groups of the quotient from the exact sequence with vanishing odd corner:
K1 is the kernel and K0 the cokernel of M, both presented canonically via the
Smith normal form (divisor-chain torsion coefficients).

``M`` is assembled from the per-generator transport formulas; the displayed
reference matrices are shipped as plain-text fixtures and compared against
the assembly, reporting (rather than patching) the one basis-order
discrepancy.  A final cross-check computes the first homology of the
corresponding flat space groups by abelianizing their presentations, which
must reproduce K0 up to one free summand.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from . import families
from .scalars import certify

__all__ = [
    "smith_normal_form",
    "SNFResult",
    "kernel_cokernel",
    "AbelianGroup",
    "BetaStarData",
    "beta_star_matrix",
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
    if not a or not b:
        return []
    inner = len(b)
    return [
        [sum(row[k] * b[k][j] for k in range(inner)) for j in range(len(b[0]))]
        for row in a
    ]


def mat_pow(a: IntMatrix, n: int) -> IntMatrix:
    result = _identity(len(a))
    base = [row[:] for row in a]
    while n:
        if n & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        n >>= 1
    return result


def transpose(a: IntMatrix) -> IntMatrix:
    return [list(col) for col in zip(*a)] if a else []


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


@dataclass
class SNFResult:
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
    in the remaining block, ties broken by lexicographic position.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    d = [[int(x) for x in row] for row in matrix]
    u = _identity(rows)
    v = _identity(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, q):
        d[dst] = [a + q * b for a, b in zip(d[dst], d[src])]
        u[dst] = [a + q * b for a, b in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for r in d:
            r[dst] += q * r[src]
        for r in v:
            r[dst] += q * r[src]

    def negate_row(i):
        d[i] = [-a for a in d[i]]
        u[i] = [-a for a in u[i]]

    t = 0
    while t < min(rows, cols):
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                mag = abs(d[i][j])
                if mag and (best is None or mag < best):
                    best, pivot = mag, (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])
        while True:
            if d[t][t] < 0:
                negate_row(t)
            restart = False
            for i in range(t + 1, rows):
                if d[i][t] % d[t][t]:
                    add_row(i, t, -(d[i][t] // d[t][t]))
                    swap_rows(i, t)
                    restart = True
                    break
            if restart:
                continue
            for i in range(t + 1, rows):
                if d[i][t]:
                    add_row(i, t, -(d[i][t] // d[t][t]))
            for j in range(t + 1, cols):
                if d[t][j] % d[t][t]:
                    add_col(j, t, -(d[t][j] // d[t][t]))
                    swap_cols(j, t)
                    restart = True
                    break
            if restart:
                continue
            for j in range(t + 1, cols):
                if d[t][j]:
                    add_col(j, t, -(d[t][j] // d[t][t]))
            pivot_val = d[t][t]
            fix = None
            for i in range(t + 1, rows):
                if any(x % pivot_val for x in d[i][t + 1:]):
                    fix = i
                    break
            if fix is None:
                break
            add_row(t, fix, 1)
        t += 1

    diag = tuple(d[i][i] for i in range(min(rows, cols)))
    for a, b in zip(diag, diag[1:]):
        certify(b == 0 or (a != 0 and b % a == 0), "divisor chain violated")
    certify(mat_mul(mat_mul(u, [list(map(int, r)) for r in matrix]), v) == d, "U M V != S")
    certify(abs(int_det(u)) == 1 and abs(int_det(v)) == 1, "transforms are not unimodular")
    return SNFResult(s=d, u=u, v=v, diagonal=diag)


# ---------------------------------------------------------------------------
# finitely generated abelian groups


@dataclass(frozen=True)
class AbelianGroup:
    """Canonical form: free rank plus a divisor-chain torsion tuple."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for val in self.torsion:
            if val < 2:
                raise ValueError("torsion coefficients must exceed 1")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion must form a divisor chain")

    @classmethod
    def from_parts(cls, free_rank: int, torsion_values) -> "AbelianGroup":
        """Canonicalize an arbitrary list of cyclic orders via SNF."""
        vals = [int(v) for v in torsion_values if int(v) not in (0, 1)]
        if not vals:
            return cls(free_rank, ())
        diag = [[vals[i] if i == j else 0 for j in range(len(vals))] for i in range(len(vals))]
        chain = tuple(x for x in smith_normal_form(diag).diagonal if x > 1)
        return cls(free_rank, chain)

    def direct_sum(self, other: "AbelianGroup") -> "AbelianGroup":
        return AbelianGroup.from_parts(
            self.free_rank + other.free_rank, self.torsion + other.torsion
        )

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
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if rows == 0 or cols == 0:
        return AbelianGroup(cols), AbelianGroup(rows)
    snf = smith_normal_form(matrix)
    kernel = AbelianGroup(cols - snf.rank)
    torsion = tuple(x for x in snf.diagonal if x > 1)
    cokernel = AbelianGroup(rows - snf.rank, torsion)
    return kernel, cokernel


# ---------------------------------------------------------------------------
# the induced map on K0


class _Eps:
    """Symbolic +/- epsilon coefficient marker in the transport tables."""

    def __init__(self, sign: int):
        self.sign = sign


_K_BASIS = {
    "B2": ("[1]", "[e00]", "[e01]", "[e10]", "[e11]", "[M2]"),
    "B3": ("[1]", "[Q1(p)]", "[Q0(p)]", "[Q1(X)]", "[Q0(X)]", "[Q1(Y)]", "[Q0(Y)]", "[M3]"),
    "B4": ("[1]", "[Q2(p)]", "[Q1(p)]", "[Q0(p)]", "[Q2(x)]", "[Q1(x)]", "[Q0(x)]",
           "[Q0(Vp2)]", "[M4]"),
    "B6": ("[1]", "[Q4(p)]", "[Q3(p)]", "[Q2(p)]", "[Q1(p)]", "[Q0(p)]",
           "[Q2(y)]", "[Q0(y)]", "[Q0(Vp3)]", "[M6]"),
}


def _chain_images(stems, top: str):
    """Index-shift transport for one spectral family: Qn -> Q(n-1), plus wrap."""
    out = {}
    labels = [f"[Q{n}({top})]" for n in stems]
    for hi, lo in zip(labels, labels[1:]):
        out[hi] = [(1, lo)]
    out[labels[-1]] = [(1, "[1]")] + [(-1, lbl) for lbl in labels]
    return out


def _k_images(family: str):
    if family == "B2":
        images = {"[1]": [(1, "[1]")]}
        for lbl in ("[e00]", "[e01]", "[e10]", "[e11]"):
            images[lbl] = [(1, "[1]"), (-1, lbl)]
        images["[M2]"] = [
            (1, "[M2]"), (-1, "[e00]"), (1, "[e11]"),
            (_Eps(-1), "[e10]"), (_Eps(1), "[e01]"),
        ]
        return images
    if family == "B3":
        images = {"[1]": [(1, "[1]")]}
        for stem in ("p", "X", "Y"):
            images.update(_chain_images([1, 0], stem))
        images["[M3]"] = [(1, "[M3]"), (-1, "[Q0(p)]"), (-1, "[Q0(X)]"), (-1, "[Q0(Y)]"), (1, "[1]")]
        return images
    if family == "B4":
        images = {"[1]": [(1, "[1]")]}
        images.update(_chain_images([2, 1, 0], "p"))
        images.update(_chain_images([2, 1, 0], "x"))
        images["[Q0(Vp2)]"] = [(1, "[1]"), (-1, "[Q0(Vp2)]")]
        images["[M4]"] = [(1, "[M4]"), (-1, "[Q0(Vp2)]"), (-1, "[Q0(p)]"), (-1, "[Q0(x)]"), (1, "[1]")]
        return images
    if family == "B6":
        images = {"[1]": [(1, "[1]")]}
        images.update(_chain_images([4, 3, 2, 1, 0], "p"))
        images.update(_chain_images([2, 0], "y"))
        images["[Q0(Vp3)]"] = [(1, "[1]"), (-1, "[Q0(Vp3)]")]
        images["[M6]"] = [(1, "[M6]"), (-1, "[Q0(p)]"), (-1, "[Q0(y)]"), (-1, "[Q0(Vp3)]"), (1, "[1]")]
        return images
    raise ValueError(f"unknown family {family!r}")


@dataclass
class BetaStarData:
    """id - beta_hat_* on the stated K0 basis, with its consistency facts."""

    family: str
    basis: tuple[str, ...]
    matrix: IntMatrix  # id - beta_hat_*
    order: int
    epsilon: int | None = None

    def induced_map(self) -> IntMatrix:
        n = len(self.basis)
        return [[(1 if i == j else 0) - self.matrix[i][j] for j in range(n)] for i in range(n)]

    def validate(self) -> None:
        b = self.induced_map()
        if mat_pow(b, self.order) != _identity(len(self.basis)):
            raise ValueError(f"{self.family}: the induced map does not have order {self.order}")
        if [row[0] for row in b] != [1] + [0] * (len(self.basis) - 1):
            raise ValueError(f"{self.family}: the class of the identity is not fixed")


_FAMILY_ORDER = {"B2": 2, "B3": 3, "B4": 4, "B6": 6}


def beta_star_matrix(family: str, epsilon: int = 1) -> BetaStarData:
    """Assemble id - beta_hat_* from the transport formulas on the stated basis."""
    if family not in _K_BASIS:
        raise ValueError(f"unknown family {family!r}; expected one of {tuple(_K_BASIS)}")
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    basis = _K_BASIS[family]
    index = {lbl: i for i, lbl in enumerate(basis)}
    images = _k_images(family)
    n = len(basis)
    induced = [[0] * n for _ in range(n)]
    for j, lbl in enumerate(basis):
        for coeff, target in images[lbl]:
            value = coeff.sign * epsilon if isinstance(coeff, _Eps) else coeff
            induced[index[target]][j] += value
    matrix = [[(1 if i == j else 0) - induced[i][j] for j in range(n)] for i in range(n)]
    data = BetaStarData(
        family=family,
        basis=basis,
        matrix=matrix,
        order=_FAMILY_ORDER[family],
        epsilon=epsilon if family == "B2" else None,
    )
    data.validate()
    return data


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
        row = []
        for token in line.split():
            if token == "E":
                row.append(epsilon)
            elif token == "-E":
                row.append(-epsilon)
            else:
                row.append(int(token))
        rows.append(row)
    return rows


def _permute(matrix: IntMatrix, perm: list[int]) -> IntMatrix:
    return [[matrix[perm[i]][perm[j]] for j in range(len(perm))] for i in range(len(perm))]


def fixture_comparison(family: str, epsilon: int = 1) -> dict:
    """Compare the assembled matrix with the displayed fixture.

    Returns a status of ``exact``, ``basis-transposition`` (the fixture
    matches after exchanging two basis positions, reported not patched), or
    ``mismatch``, plus identical K-groups evidence in the transposed case.
    """
    assembled = beta_star_matrix(family, epsilon).matrix
    fixture = load_fixture_matrix(family, epsilon)
    if assembled == fixture:
        return {"status": "exact"}
    n = len(assembled)
    for a in range(1, n - 1):
        for b in range(a + 1, n - 1):
            perm = list(range(n))
            perm[a], perm[b] = perm[b], perm[a]
            if _permute(assembled, perm) == fixture:
                basis = _K_BASIS[family]
                groups_match = kernel_cokernel(assembled) == kernel_cokernel(fixture)
                return {
                    "status": "basis-transposition",
                    "swapped": (basis[a], basis[b]),
                    "k_groups_agree": groups_match,
                }
    return {"status": "mismatch"}


# ---------------------------------------------------------------------------
# first homology of the flat space groups


def bieberbach_h1(family: str) -> AbelianGroup:
    """Abelianization of <t1, t2, t3, g | [t_i, t_j], g t g^{-1} = A t on the
    (t2, t3) lattice, g t1 g^{-1} = t1, g^N = t1>, with A the integer holonomy
    read off the undeformed action table."""
    a = families.holonomy_matrix(family)
    n = _FAMILY_ORDER[family]
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
    expected = AbelianGroup(1).direct_sum(bieberbach_h1(family))
    return k0 == expected
