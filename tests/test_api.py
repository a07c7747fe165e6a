"""The public surface, pinned: adding or removing a name changes one line."""

import dataclasses
import pickle

import pytest

import superres
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
     "ModelParams(s=1.0, sigma=2.0, theta=0.5, phi=0.0)"),
]
DEFAULTS = {superres.Qfim2: {"tag": "theta"}, ModelParams: {"phi": 0.0}}


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


def test_replace_revalidates_model_params():
    with pytest.raises(DomainError):
        dataclasses.replace(ModelParams(1.0, 1.0, 0.5), theta=2.0)
