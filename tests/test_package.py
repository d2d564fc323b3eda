import inspect
import types

import entbath
from entbath import asymptotics, bathsim, config, gaussian, rwa, spectra


def test_exports_are_explicit_names_that_resolve():
    names = entbath.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert not isinstance(getattr(entbath, name), types.ModuleType), name


def test_test_only_helpers_are_not_exported():
    # the reference routes live in tests/oracles.py; the package neither defines nor exports them
    for module, name in ((bathsim, "build_generator"), (bathsim, "hamiltonian_matrix"),
                         (bathsim, "full_initial_covariance"), (rwa, "solve_amplitude_stepping"),
                         (asymptotics, "asymptotic_state")):
        assert name not in entbath.__all__ and not hasattr(module, name)


def test_star_import_gives_the_readme_names():
    namespace: dict = {}
    exec("from entbath import *", namespace)
    assert {"FullModel", "OhmicSpectralDensity", "entanglement_trajectory", "initial_state",
            "stationary_variances_position", "summarize", "ModeSpec"} <= set(namespace)


def test_removed_names_are_gone():
    # library-only helpers that neither the CLI nor the acceptance criteria run
    for module, name in ((gaussian, "symplectic_eigenvalues"), (gaussian, "DEGENERACY_RTOL"),
                         (gaussian, "partial_transpose"), (gaussian, "_PT"), (gaussian, "purity"),
                         (gaussian, "thermal_cov"), (gaussian, "coherent_product_state"),
                         (gaussian, "squeezed_product_state"), (bathsim, "_runs")):
        assert name not in entbath.__all__ and not hasattr(module, name), name
    for cls, name in ((gaussian.GaussianState, "from_cov"), (bathsim.Trajectory, "covariances"),
                      (bathsim.Trajectory, "entanglement"),
                      (spectra.OhmicSpectralDensity, "total_weight"),
                      (spectra.DiscretizedBath, "weight_sum"), (config.RunConfig, "recurrence_time"),
                      (asymptotics.Phase, "__str__")):
        assert name not in vars(cls), (cls, name)
    assert list(inspect.signature(gaussian.state_from_virtual_blocks).parameters) == [
        "plus_cov", "minus_cov"]
    assert "cov" not in inspect.signature(bathsim.initial_state).parameters
