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

# The grid oracle and the sweeps need numpy; the scalar API does not.  Their
# names resolve on first use (PEP 562), so that importing superres and calling
# the closed forms loads no numpy.  Nothing is cached here: each lookup reads
# the defining module, so a name replaced there at run time (a tracing
# wrapper, say) is the one returned.
_ARRAY_SIDE = {
    **dict.fromkeys(("Grid", "default_grid", "numeric_concurrence", "numeric_qfim"),
                    "numeric_oracle"),
    **dict.fromkeys(("SweepSpec", "SweepTable", "emit", "figure_preset", "run_sweep"),
                    "sweep"),
}
_ARRAY_MODULES = ("float_text", "numeric_oracle", "sweep")


def __getattr__(name):
    from importlib import import_module

    if name in _ARRAY_MODULES:
        return import_module(f".{name}", __name__)
    if name in _ARRAY_SIDE:
        return getattr(import_module(f".{_ARRAY_SIDE[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    names = {*globals(), *_ARRAY_SIDE, *_ARRAY_MODULES}
    return sorted(names - {"_ARRAY_SIDE", "_ARRAY_MODULES", "__getattr__", "__dir__"})


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
