"""Mixed-precision quantization toolkit.

Measures cross-layer quantization sensitivities with forward-only loss
evaluations, projects the assembled matrix to the nearest PSD matrix,
and solves the bit-width assignment problem exactly under a model-size
budget.
"""

from .quantizer import (
    LayerSpec,
    calibrate_scale_mse,
    perturbation,
    quantize,
)
from .spectra import EigenDecomposition, eigh, psd_project
from .sensitivity import (
    BitMenu,
    SensitivityMatrix,
    build_matrix,
    layer_perturbations,
    load_matrix,
    merge_batches,
    save_matrix,
)
from .oracles import (
    FileFormatError,
    LossOracle,
    QuadraticOracle,
    ToyClassifierOracle,
    ToyModel,
    load_oracle,
    make_moons,
    random_quadratic,
    save_oracle,
    toy_training_accuracy,
    train_toy,
)
from .solver import (
    METHODS,
    BitAssignment,
    InfeasibleBudgetError,
    SearchSpaceError,
    SizeBudget,
    SolveReport,
    SolverError,
    objective,
    solve_block,
    solve_bnb,
    solve_diagonal_only,
    solve_exhaustive,
    solve_with_method,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "LayerSpec",
    "quantize",
    "calibrate_scale_mse",
    "perturbation",
    "EigenDecomposition",
    "eigh",
    "psd_project",
    "BitMenu",
    "SensitivityMatrix",
    "build_matrix",
    "layer_perturbations",
    "merge_batches",
    "save_matrix",
    "load_matrix",
    "LossOracle",
    "QuadraticOracle",
    "ToyModel",
    "ToyClassifierOracle",
    "FileFormatError",
    "random_quadratic",
    "make_moons",
    "train_toy",
    "toy_training_accuracy",
    "save_oracle",
    "load_oracle",
    "BitAssignment",
    "SizeBudget",
    "SolveReport",
    "SolverError",
    "InfeasibleBudgetError",
    "SearchSpaceError",
    "objective",
    "solve_exhaustive",
    "solve_bnb",
    "solve_diagonal_only",
    "solve_block",
    "solve_with_method",
    "sweep",
    "METHODS",
    "__version__",
]
