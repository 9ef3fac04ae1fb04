"""Exact symbolic engine for noncommutative Bieberbach manifolds.

The package computes, with no floating point anywhere, the K-theory of the
quotients of a three-dimensional noncommutative torus by the free order-N
cyclic actions (N = 2, 3, 4, 6), along with the supporting structures: exact
cyclotomic scalars with formal theta-phases, twisted group algebras, finite
actions and their cocycle-compatibility scan, crossed products with their
dual automorphism, spectral projectors and traces, and divisor-chain integer
linear algebra.

Importing the package loads none of its modules: each name below is imported
from its submodule on first use, so a command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE = {name: module for module, names in {
    "scalars": ("Cyclotomic", "OrderMismatchError", "PhasedScalar", "cyc_root"),
    "torus": ("NcTorus", "TorusElement", "standard_torus"),
    "actions": (
        "ActionOnTorus", "check_compatibility", "check_order", "classical_action", "deformed_action",
        "freeness_witness", "homogeneous_components", "parse_action_text", "scan_cocycles",
    ),
    "crossed": (
        "CrossedElement", "CrossedProduct", "NotRootOfUnityError", "TwistedTrace", "canonical_trace",
        "crossed_product", "k0_generator_table", "tau_parity_trace",
    ),
    "ktheory": ("BetaStarData", "beta_star_matrix", "compare_with_k0", "pv_solve"),
    "lattice": ("AbelianGroup", "bieberbach_h1", "kernel_cokernel", "smith_normal_form"),
    "report": ("Check",),
    "verify": (
        "hexic_reading_comparison", "verify_beta_star", "verify_exchange_iso", "verify_projections",
        "verify_trace_laws",
    ),
}.items() for name in names}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SUBMODULE})
