"""weakmax: exact dyadic computations for multiplier weak-type inequalities.

Step functions on a dyadic lattice, their Lorentz quasi-norms and maximal
functions, the Muckenhoupt and multiplier weight constants, the
Calderon-Zygmund/sparse machinery, and a verification harness for the
two-sided characterization.
"""

from .grid import CELL_CAP, DyadicCube, GridSpec, StepFunction
from .lorentz import Q_INF, lorentz_norm, weak_norm
from .operators import MaximalQuery, dyadic_maximal
from .weights import (
    PowerWeight,
    SigmaRH,
    WeightConstant,
    a1_constant,
    a1q_constant,
    ap_constant,
    ap_star_constant,
    ap_star_cube_value,
    apq_constant,
    apq_star_constant,
    conjugate,
    dual_weight,
    rh_constant,
    sigma_rh,
    sigma_rh_constant,
    star_constant,
    weight_from_dict,
    weight_to_dict,
)
from .harness import (
    VerificationReport,
    lemma_suite,
    multiplier_ratio,
    necessity_check,
    random_step,
    random_weight,
    sufficiency_check,
    verify_weight,
)

__version__ = "0.1.0"

__all__ = [
    "CELL_CAP", "DyadicCube", "GridSpec", "StepFunction",
    "Q_INF", "lorentz_norm", "weak_norm",
    "MaximalQuery", "dyadic_maximal",
    "PowerWeight", "SigmaRH", "WeightConstant", "a1_constant", "a1q_constant",
    "ap_constant", "ap_star_constant", "ap_star_cube_value",
    "apq_constant", "apq_star_constant", "conjugate", "dual_weight", "rh_constant",
    "sigma_rh", "sigma_rh_constant", "star_constant", "weight_from_dict", "weight_to_dict",
    "CZDecomposition", "SparseFamily", "SparsityError", "build_sparse",
    "cz_decompose", "sparse_sum",
    "VerificationReport", "lemma_suite",
    "multiplier_ratio", "necessity_check", "random_step", "random_weight",
    "sufficiency_check", "verify_weight",
]

# czsparse loads on first use of one of its names: of the CLI's commands only
# cz calls it, and each CLI run compiles every module it imports.
_CZSPARSE = ("CZDecomposition", "SparseFamily", "SparsityError", "build_sparse",
             "cz_decompose", "sparse_sum")


def __getattr__(name):
    if name in _CZSPARSE:
        from . import czsparse
        return getattr(czsparse, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
