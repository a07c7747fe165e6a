"""The public surface, pinned: adding or removing a name changes one line."""

import pytest

import superres

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
