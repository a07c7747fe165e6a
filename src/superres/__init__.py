"""Fisher-information analysis of two-point-source superresolution with
entangled versus coherent sources.

Closed-form single-parameter Fisher information, the two-parameter quantum
Fisher information matrix with its nuisance-corrected precisions, an
independent position-grid oracle, and deterministic sweep tooling.
"""

from .errors import (
    ConfigurationError,
    DegenerateGeometryError,
    DomainError,
    OutOfReachError,
)
from .fisher_single import (
    FiRecord,
    f_tot_coherence,
    f_tot_concurrence,
    weighted_fi_reconstruct,
)
from .numeric_oracle import (
    Grid,
    default_grid,
    numeric_concurrence,
    numeric_qfim,
)
from .qfim_two_param import (
    PrecisionPair,
    Qfim2,
    precision,
    precision_concurrence,
    precision_gamma,
    qfim,
    qfim_concurrence,
    qfim_gamma,
)
from .state_model import (
    ModelParams,
    OverlapTriple,
    SpectralData,
    concurrence,
    concurrence_max,
    concurrence_normalized,
    overlap,
    spectral,
    theta_from_concurrence,
)
from .sweep import (
    SweepSpec,
    SweepTable,
    emit,
    figure_preset,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "DegenerateGeometryError",
    "DomainError",
    "OutOfReachError",
    "FiRecord",
    "f_tot_coherence",
    "f_tot_concurrence",
    "weighted_fi_reconstruct",
    "Grid",
    "default_grid",
    "numeric_concurrence",
    "numeric_qfim",
    "PrecisionPair",
    "Qfim2",
    "precision",
    "precision_concurrence",
    "precision_gamma",
    "qfim",
    "qfim_concurrence",
    "qfim_gamma",
    "ModelParams",
    "OverlapTriple",
    "SpectralData",
    "concurrence",
    "concurrence_max",
    "concurrence_normalized",
    "overlap",
    "spectral",
    "theta_from_concurrence",
    "SweepSpec",
    "SweepTable",
    "emit",
    "figure_preset",
    "run_sweep",
]
