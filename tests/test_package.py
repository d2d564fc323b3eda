import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

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
                         (asymptotics, "asymptotic_state"),
                         (bathsim, "equilibrium_variances_sim"), (bathsim, "plus_variance_series"),
                         (bathsim, "full_propagator"),
                         (asymptotics, "stationary_variances_symmetric"),
                         (asymptotics, "dominant_frequency"),
                         (gaussian, "two_mode_squeezed_state"), (gaussian, "beam_splitter"),
                         (gaussian, "state_from_virtual_blocks")):
        assert name not in entbath.__all__ and not hasattr(module, name), name
    assert not hasattr(bathsim._PlusSector, "full_blocks")
    assert not hasattr(asymptotics, "CoefficientTrace")  # asymptotics does not import rwa


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
                         (gaussian, "squeezed_product_state"), (bathsim, "_runs"),
                         (bathsim, "release_shared_solver"), (bathsim, "_shared"),
                         (bathsim, "_physics_key"), (bathsim, "_plus_solver"),
                         (asymptotics, "resource_conditions"), (asymptotics, "ResourceFlags"),
                         (rwa, "_TIME_CHUNK")):
        assert name not in entbath.__all__ and not hasattr(module, name), name
    # no artifact wrote the resource flags; a coherent input's fate is e_mean > 0 at r = 0
    assert not {"coherent_entangles", "environment_amplifies"} & set(
        asymptotics.PhaseSummary.__dataclass_fields__)
    for cls, name in ((gaussian.GaussianState, "from_cov"), (bathsim.Trajectory, "covariances"),
                      (bathsim.Trajectory, "entanglement"),
                      (spectra.OhmicSpectralDensity, "total_weight"),
                      (spectra.DiscretizedBath, "weight_sum"), (config.RunConfig, "recurrence_time"),
                      (asymptotics.Phase, "__str__"), (spectra.NormalModes, "dense"),
                      (rwa.AmplitudeSolution, "_rows"), (rwa.AmplitudeSolution, "_propagator")):
        assert name not in vars(cls), (cls, name)
    assert "cov" not in inspect.signature(bathsim.initial_state).parameters


_RUNTIME_CONFIG = """
[model]
coupling = {coupling}
renormalization = renormalized
omega_r = 1.0
c12 = 0.0

[bath]
gamma0 = 0.1
cutoff = 20.0
temperature = {temperature}
modes = 200

[initial]
kind = two-mode-squeezed
r = 2.0

[grid]
t_max = 10.0
dt_out = 0.25

[sweep]
temperatures = 0.5, 8.0
squeezings = 0.0, 1.5
"""

_WITHOUT_SCIPY = """
import sys

sys.modules["scipy"] = None  # any import of scipy or of a submodule now raises ImportError
from entbath import asymptotics
from entbath.cli import main

bound_states = []
solve = asymptotics.ladder_bound_state
asymptotics.ladder_bound_state = lambda *args: bound_states.append(args) or solve(*args)
directory = sys.argv[1]
for command, config in (("evolve", "position"), ("coeffs", "symmetric-cold"),
                        ("verify", "position"), ("phase-diagram", "position"),
                        ("phase-diagram", "symmetric")):
    argv = [command, "--config", f"{directory}/{config}.cfg",
            "--out", f"{directory}/{command}-{config}"]
    assert main(argv) == 0, argv
assert bound_states, "no symmetric point reached the bound-state root"
assert sys.modules.pop("scipy") is None
loaded = [name for name in sys.modules
          if name.split(".")[0] == "scipy" or name.split(".")[:2] == ["numpy", "ma"]]
assert not loaded, loaded
"""


def test_commands_run_without_scipy(tmp_path):
    # a fresh interpreter: this process has imported scipy for the reference routes
    for name, coupling, temperature in (("position", "position", 10.0),
                                        ("symmetric", "symmetric", 10.0),
                                        ("symmetric-cold", "symmetric", 0.0)):
        text = _RUNTIME_CONFIG.format(coupling=coupling, temperature=temperature)
        (tmp_path / f"{name}.cfg").write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(entbath.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
