import types

import entbath
from entbath import bathsim, rwa


def test_exports_are_explicit_names_that_resolve():
    names = entbath.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert not isinstance(getattr(entbath, name), types.ModuleType), name


def test_test_only_helpers_are_not_exported():
    # the reference routes live in tests/oracles.py; the package neither defines nor exports them
    for module, name in ((bathsim, "build_generator"), (bathsim, "hamiltonian_matrix"),
                         (bathsim, "full_initial_covariance"), (rwa, "solve_amplitude_stepping")):
        assert name not in entbath.__all__ and not hasattr(module, name)


def test_star_import_gives_the_readme_names():
    namespace: dict = {}
    exec("from entbath import *", namespace)
    assert {"FullModel", "OhmicSpectralDensity", "entanglement_trajectory", "initial_state",
            "stationary_variances_position", "summarize", "ModeSpec"} <= set(namespace)
