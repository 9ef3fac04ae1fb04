"""Exact symbolic engine for noncommutative Bieberbach manifolds.

The package computes, with no floating point anywhere, the K-theory of the
quotients of a three-dimensional noncommutative torus by the free order-N
cyclic actions (N = 2, 3, 4, 6), along with the supporting structures: exact
cyclotomic scalars with formal theta-phases, twisted group algebras, finite
actions and their cocycle-compatibility scan, crossed products with their
dual automorphism, spectral projectors and traces, and divisor-chain integer
linear algebra.
"""

__version__ = "0.1.0"

from .scalars import (  # noqa: F401
    Cyclotomic,
    OrderMismatchError,
    PhasedScalar,
    cyc_root,
)
from .torus import NcTorus, TorusElement, standard_torus  # noqa: F401
from .actions import (  # noqa: F401
    ActionOnTorus,
    check_compatibility,
    check_order,
    classical_action,
    deformed_action,
    freeness_witness,
    homogeneous_components,
    parse_action_text,
    scan_cocycles,
)
from .crossed import (  # noqa: F401
    CrossedElement,
    CrossedProduct,
    NotRootOfUnityError,
    TwistedTrace,
    canonical_trace,
    crossed_product,
    k0_generator_table,
    tau_parity_trace,
)
from .ktheory import (  # noqa: F401
    AbelianGroup,
    BetaStarData,
    beta_star_matrix,
    bieberbach_h1,
    compare_with_k0,
    kernel_cokernel,
    pv_solve,
    smith_normal_form,
)
from .verify import (  # noqa: F401
    Check,
    hexic_reading_comparison,
    verify_beta_star,
    verify_exchange_iso,
    verify_projections,
    verify_trace_laws,
)
