"""The K-group computation: beta_hat_* on K0 and the exact-sequence solve.

The solver forms ``M = id - beta_hat_*`` on the K0 basis of the plane crossed
product and reads the K-groups of the quotient from the exact sequence with
vanishing odd corner: K1 = ker M and K0 = coker M, off the Smith normal form
of ``lattice``.  The basis elements are derived from the holonomy
(``crossed._derived_basis``) and named by the labels of
``families.K0_GENERATORS``.  Every column of beta_hat_* but the exotic [M_N]
one is solved from them for its integer coordinates, exactly and with a
certified Smith-normal-form solve (``solve_in_span``); only the exotic column
is typed in.  The displayed reference matrices are shipped as plain-text
fixtures and compared against the derived matrix, reporting (rather than
patching) the one pinned basis-order discrepancy.  A final cross-check
compares K0 with Z plus the first homology of the flat space group
(``lattice.bieberbach_h1``).
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from . import families
from .crossed import crossed_product, k0_generator_table
from .lattice import AbelianGroup, IntMatrix, _identity, bieberbach_h1, kernel_cokernel, mat_mul, smith_normal_form
from .scalars import certify

__all__ = [
    "BetaStarData",
    "beta_star_matrix",
    "solve_in_span",
    "pv_solve",
    "load_fixture_matrix",
    "fixture_comparison",
    "compare_with_k0",
]


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


def compare_with_k0(family: str) -> bool:
    """K0 of the quotient equals Z plus the first homology of the space group."""
    k0, _ = pv_solve(beta_star_matrix(family, 1))
    h1 = bieberbach_h1(family)
    return k0 == AbelianGroup(h1.free_rank + 1, h1.torsion)


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
