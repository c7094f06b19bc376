"""Numerical certification of matrix-convexity constructions and the quantum
entropy inequalities they imply."""

from .convexity import (
    BUILTINS,
    ScalarFunction,
    Verdict,
    builtin,
    definition_test,
    definition_tests,
    jensen_test,
    monotonicity_test,
    second_derivative_test,
)
from .entropy import (
    DensityOperator,
    EntropyReport,
    mutual_information_decomposition,
    ssa_report,
    subadditivity_report,
    von_neumann_entropy,
)
from .errors import MatConvexError
from .jointconcavity import (
    KuboAndoRepresentation,
    parallel_sum,
    parallel_sum_hessian,
    tensor_power_direct,
    tensor_power_integral,
)
from .linalg import SpectrumWindow, hermitian
from .rand import RandomSpec
from .resolvent import PickRepresentation, certify_representation

__version__ = "0.1.0"

__all__ = [
    "BUILTINS",
    "DensityOperator",
    "EntropyReport",
    "KuboAndoRepresentation",
    "MatConvexError",
    "PickRepresentation",
    "RandomSpec",
    "ScalarFunction",
    "SpectrumWindow",
    "Verdict",
    "builtin",
    "certify_representation",
    "definition_test",
    "definition_tests",
    "hermitian",
    "jensen_test",
    "monotonicity_test",
    "mutual_information_decomposition",
    "parallel_sum",
    "parallel_sum_hessian",
    "second_derivative_test",
    "ssa_report",
    "subadditivity_report",
    "tensor_power_direct",
    "tensor_power_integral",
    "von_neumann_entropy",
    "__version__",
]
