"""The public surface, pinned: adding or removing a name changes one line."""

import dataclasses
import hashlib
import math
import pickle
import subprocess
import sys

import pytest

import superres
from helpers import SRC_ENV
from superres import DomainError, ModelParams

# superres.__all__ by defining module, each line sorted
PUBLIC = {
    "errors": "ConfigurationError DegenerateGeometryError DomainError OutOfReachError",
    "fisher_single": "FiRecord f_tot_coherence f_tot_concurrence weighted_fi_reconstruct",
    "numeric_oracle": "Grid default_grid numeric_concurrence numeric_qfim",
    "qfim_two_param": "PrecisionPair Qfim2 precision precision_concurrence precision_gamma "
                      "qfim qfim_concurrence qfim_gamma",
    "state_model": "ModelParams OverlapTriple SpectralData concurrence concurrence_max "
                   "concurrence_normalized overlap spectral theta_from_concurrence",
    "sweep": "SweepSpec SweepTable emit figure_preset run_sweep",
}

# the 4x4 operator layer, the Hermite-Gauss route and the sampled sources
# (GridField, make_sources) live on in helpers.py
REMOVED = ("ContractViolationError GridField Rho4 SldPair SweepRecord coherence_of "
           "commutator_expectation drho_ds drho_dtheta hg_coefficients make_sources "
           "max_oracle_delta numeric_pure_qfi pure_state_fi qfim_from_slds rho4 sld_pair "
           "two_source_state").split()


def test_all_is_pinned():
    assert len(set(superres.__all__)) == len(superres.__all__)
    assert sorted(superres.__all__) == sorted(" ".join(PUBLIC.values()).split())
    for module, names in PUBLIC.items():
        assert names.split() == sorted(names.split())
        for name in names.split():
            assert getattr(superres, name).__module__ == f"superres.{module}"


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_not_importable(name):
    with pytest.raises(ImportError):
        exec(f"from superres import {name}", {})


# each result record: positional and keyword arguments (defaults omitted),
# the declared fields with the defaults applied, and its repr
RECORDS = [
    (superres.FiRecord, (0.5, 1.0, 0.25, 0.75, 0.125, 2.0),
     dict(s=0.5, sigma=1.0, theta=0.25, gamma=0.75, concurrence=0.125, f_tot=2.0),
     "FiRecord(s=0.5, sigma=1.0, theta=0.25, gamma=0.75, concurrence=0.125, f_tot=2.0)"),
    (superres.Qfim2, (0.5, 1.0, -0.25), dict(f_ss=0.5, f_tt=1.0, f_st=-0.25),
     "Qfim2(f_ss=0.5, f_tt=1.0, f_st=-0.25, tag='theta')"),
    (superres.PrecisionPair, (0.5, float("inf")), dict(h_s=0.5, h_nuisance=float("inf")),
     "PrecisionPair(h_s=0.5, h_nuisance=inf)"),
    (superres.OverlapTriple, (0.5, -0.25, 0.125), dict(d=0.5, d1=-0.25, d2=0.125),
     "OverlapTriple(d=0.5, d1=-0.25, d2=0.125)"),
    (superres.SpectralData, (0.25, 0.75, 0.5, 0.125),
     dict(lambda1=0.25, lambda2=0.75, a3=0.5, a4=0.125),
     "SpectralData(lambda1=0.25, lambda2=0.75, a3=0.5, a4=0.125)"),
    (ModelParams, (1.0, 2.0, 0.5), dict(s=1.0, sigma=2.0, theta=0.5),
     "ModelParams(s=1.0, sigma=2.0, theta=0.5)"),
]
DEFAULTS = {superres.Qfim2: {"tag": "theta"}}


@pytest.mark.parametrize("cls, args, kwargs, text", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_result_records_are_plain_frozen_dataclasses(cls, args, kwargs, text):
    rec = cls(*args)
    assert rec == cls(**kwargs)
    assert [f.name for f in dataclasses.fields(cls)] == list(vars(rec))
    assert vars(rec) == {**kwargs, **DEFAULTS.get(cls, {})}
    assert repr(rec) == text
    assert hash(rec) == hash(cls(**kwargs))
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.extra = 1.0
    name = next(iter(kwargs))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(rec, name, 0.0)
    assert dataclasses.asdict(rec) == vars(rec)
    moved = dataclasses.replace(rec, **{name: 0.0625})
    assert getattr(moved, name) == 0.0625 and moved != rec
    assert pickle.loads(pickle.dumps(rec)) == rec


def test_scalar_api_loads_no_numpy():
    # numpy was loaded by `import superres` through the oracle and the sweeps
    code = """if True:
        import sys
        import superres as S
        p = S.ModelParams(1.3, 1.0, 0.6)
        for fn in (S.concurrence, S.concurrence_normalized, S.spectral,
                   S.weighted_fi_reconstruct, S.qfim, S.precision):
            fn(p)
        for fn in (S.overlap, S.concurrence_max):
            fn(1.3, 1.0)
        for fn in (S.f_tot_coherence, S.qfim_gamma, S.precision_gamma):
            fn(1.3, 1.0, 0.4)
        for fn in (S.theta_from_concurrence, S.f_tot_concurrence, S.qfim_concurrence,
                   S.precision_concurrence):
            fn(1.3, 1.0, 0.2)
        assert set(S.__all__) <= set(dir(S))
        assert "numpy" not in sys.modules
        print(S.run_sweep.__module__, "numpy" in sys.modules)
    """
    out = subprocess.run([sys.executable, "-c", code], env=SRC_ENV, capture_output=True,
                         text=True, check=True).stdout
    assert out == "superres.sweep True\n"


def test_replace_revalidates_model_params():
    with pytest.raises(DomainError):
        dataclasses.replace(ModelParams(1.0, 1.0, 0.5), theta=2.0)


def test_model_params_has_no_phase():
    # the auxiliary overlap cos(theta) is real: no fourth argument
    with pytest.raises(TypeError):
        ModelParams(1.0, 1.0, 0.3, 0.5)


def test_every_refused_input_is_a_domain_error():
    # the grid rules' error too, so that callers and the CLI catch one class
    assert issubclass(superres.ConfigurationError, DomainError)


# every public scalar entry point on a fixed grid: 40 log-spaced u = s / sigma
# in [1e-4, 20] x sigma in {1, 0.37, 2.5} x 7 values of each nuisance chart
# (concurrence as fractions of C_max, the last one out of reach)
PIN_U = [1e-4 * 2e5 ** (k / 39) for k in range(40)]
PIN_SIGMA = (1.0, 0.37, 2.5)
PIN_THETA = (0.0, 0.1, 0.4, math.pi / 4, 1.0, 1.5, math.pi / 2)
PIN_GAMMA = (0.0, 0.05, 0.3, 0.5, 0.8, 0.999, 1.0)
PIN_C_SHARE = (0.0, 0.05, 0.4, 0.8, 0.999, 1.0, 1.25)
PIN_CHARTS = {
    None: ("overlap", "concurrence_max"),
    "theta": ("concurrence", "concurrence_normalized", "spectral",
              "weighted_fi_reconstruct", "qfim", "precision"),
    "gamma": ("f_tot_coherence", "qfim_gamma", "precision_gamma"),
    "concurrence": ("theta_from_concurrence", "f_tot_concurrence", "qfim_concurrence",
                    "precision_concurrence"),
}
# sha256 of the lines of _scalar_pin_lines; a change that moves any result
# bit, or which exception a call raises, updates the pin and says why
SCALAR_PIN = "c3c5b87f28e77d76c454150c01aca6059e25ea694d141a0edbd6c6c0e46dd624"


def _pin_text(result) -> str:
    if isinstance(result, float):
        return result.hex()
    return ",".join(v.hex() if isinstance(v, float) else v for v in vars(result).values())


def _scalar_pin_lines():
    for sigma in PIN_SIGMA:
        for u in PIN_U:
            s = u * sigma
            c_max = superres.concurrence_max(s, sigma)
            args = {None: [(s, sigma)], "theta": [(ModelParams(s, sigma, th),) for th in PIN_THETA],
                    "gamma": [(s, sigma, g) for g in PIN_GAMMA],
                    "concurrence": [(s, sigma, k * c_max) for k in PIN_C_SHARE]}
            for chart, names in PIN_CHARTS.items():
                for name in names:
                    for a in args[chart]:
                        try:
                            text = _pin_text(getattr(superres, name)(*a))
                        except DomainError as exc:
                            text = type(exc).__name__
                        yield f"{name} {sigma!r} {u!r} {text}\n"


def test_scalar_results_are_pinned_bit_for_bit():
    digest = hashlib.sha256("".join(_scalar_pin_lines()).encode()).hexdigest()
    assert digest == SCALAR_PIN
