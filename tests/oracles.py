"""Reference routes that only the tests use.

The dense quadratic form and generator of the full model, its factorized
initial covariance, the trapezoidal stepping solver of the amplitude Volterra
equation, and the row route of the thermal bath term: the (+)-sector
propagator rows at every time, contracted with the bath variances.  Each is
an independent check of a route the package takes.
"""

from __future__ import annotations

import numpy as np

from entbath.bathsim import POSITION, SYMMETRIC, FullModel, _PlusSector
from entbath.errors import ValidationError
from entbath.gaussian import BEAM_SPLITTER, GaussianState, symplectic_form
from entbath.rwa import _validate_grid
from entbath.spectra import DiscretizedBath


def hamiltonian_matrix(model: FullModel, basis: str = "virtual") -> np.ndarray:
    """Symmetric quadratic form H of the full system+bath Hamiltonian.

    Phase-space ordering: (x+, p+, x-, p-, q_1, pi_1, ..., q_N, pi_N) for
    ``basis='virtual'``; ``basis='site'`` rotates the system block to
    (x1, p1, x2, p2).
    """
    bath = model.bath
    n = bath.n_modes
    dim = 2 * (n + 2)
    h = np.zeros((dim, dim))
    m = model.mass
    om0sq = model.omega0**2
    ck = bath.position_couplings
    wk = bath.frequencies
    mk = bath.masses

    if model.coupling_type == POSITION:
        h[0, 0] = m * (om0sq + model.c12)
        h[1, 1] = 1.0 / m
        h[2, 2] = m * (om0sq - model.c12)
        h[3, 3] = 1.0 / m
    else:
        f_plus = 1.0 + model.c12 / om0sq
        f_minus = 1.0 - model.c12 / om0sq
        h[0, 0] = m * om0sq * f_plus
        h[1, 1] = f_plus / m
        h[2, 2] = m * om0sq * f_minus
        h[3, 3] = f_minus / m

    qi = 4 + 2 * np.arange(n)
    pi_ = qi + 1
    h[qi, qi] = mk * wk**2
    h[pi_, pi_] = 1.0 / mk
    h[0, qi] = ck
    h[qi, 0] = ck
    if model.coupling_type == SYMMETRIC:
        gp = ck / (m * model.omega0 * mk * wk)
        h[1, pi_] = gp
        h[pi_, 1] = gp

    if basis == "site":
        t = np.eye(dim)
        t[:4, :4] = BEAM_SPLITTER
        h = t.T @ h @ t
    elif basis != "virtual":
        raise ValidationError("basis must be 'virtual' or 'site'")
    return h


def build_generator(model: FullModel, basis: str = "virtual") -> np.ndarray:
    """Drift matrix A = J H of the full Gaussian model, d<r>/dt = A <r>."""
    h = hamiltonian_matrix(model, basis=basis)
    return symplectic_form(model.bath.n_modes + 2) @ h


def full_initial_covariance(model: FullModel, initial_system: GaussianState) -> np.ndarray:
    """Factorized initial covariance (system x thermal bath), virtual ordering."""
    bath = model.bath
    n = bath.n_modes
    dim = 2 * (n + 2)
    v = np.zeros((dim, dim))
    v[:4, :4] = BEAM_SPLITTER @ initial_system.cov @ BEAM_SPLITTER.T
    occ = bath.occupations + 0.5
    qi = 4 + 2 * np.arange(n)
    v[qi, qi] = occ / (bath.masses * bath.frequencies)
    v[qi + 1, qi + 1] = occ * bath.masses * bath.frequencies
    return v


def solve_amplitude_stepping(bath: DiscretizedBath, omega: float, times) -> np.ndarray:
    """Trapezoidal predictor-corrector solution of the amplitude Volterra equation.

    Direct time-domain stepping with the stored discrete-mode memory kernel,
    O(steps^2); retained as an independent cross-check of the spectral route.
    """
    times = _validate_grid(bath, times)
    dt = np.diff(times)
    if np.max(dt) - np.min(dt) > 1e-9 * dt[0]:
        raise ValidationError("stepping solver needs a uniform grid")
    h = float(dt[0])
    g2 = bath.ladder_couplings**2
    kernel = np.exp(1j * np.outer(times, bath.frequencies)) @ g2
    u = np.zeros(times.size, dtype=complex)
    u[0] = 1.0

    def rhs(n: int, un: complex) -> complex:
        if n == 0:
            mem = 0.0
        else:
            mem = h * (
                0.5 * kernel[n] * u[0]
                + np.dot(kernel[n - 1 : 0 : -1], u[1:n])
                + 0.5 * kernel[0] * un
            )
        return 1j * omega * un - mem

    for n in range(times.size - 1):
        f0 = rhs(n, u[n])
        pred = u[n] + h * f0
        f1 = rhs(n + 1, pred)
        u[n + 1] = u[n] + 0.5 * h * (f0 + f1)
    return u


def row_route_blocks(model: FullModel, times) -> tuple[np.ndarray, np.ndarray]:
    """System block a2 (T, 2, 2) of the (+)-sector propagator and thermal
    covariance (T, 2, 2) of (x+, p+) from the dense propagator rows at every
    time: two (T, N) x (N, N) products and their weighted row sums."""
    times = np.asarray(times, dtype=float)
    bath = model.bath
    occ = bath.occupations + 0.5
    var_q = occ / (bath.masses * bath.frequencies)
    var_p = occ * bath.masses * bath.frequencies
    xx, xp, px, pp = _PlusSector(model).rows(times)
    a2 = np.stack([xx[:, 0], xp[:, 0], px[:, 0], pp[:, 0]], axis=1).reshape(-1, 2, 2)
    bq = (xx[:, 1:], px[:, 1:])
    bp = (xp[:, 1:], pp[:, 1:])
    theta = np.empty((times.size, 2, 2))
    for i, j in ((0, 0), (0, 1), (1, 1)):
        theta[:, i, j] = (np.einsum("tk,k,tk->t", bq[i], var_q, bq[j])
                          + np.einsum("tk,k,tk->t", bp[i], var_p, bp[j]))
    theta[:, 1, 0] = theta[:, 0, 1]
    return a2, theta
