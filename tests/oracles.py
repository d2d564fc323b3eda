"""Reference routes that only the tests use.

The dense quadratic form, generator and propagator of the full model, its
factorized initial covariance, the dense eigenvectors of the arrowhead
secular solve, the trapezoidal stepping solver of the amplitude Volterra
equation, the row route of the thermal bath term (the (+)-sector propagator
rows at every time, contracted with the bath variances) and of the
master-equation coefficients (the bath amplitudes p_k(t) at every time, from
the dense eigenvectors), the stationary dispersions read off a long exact run
and off the D/gamma ratio of a coefficient trace, the late-time state that the
closed-form envelopes describe and the frequency of its oscillation, and the
beam splitter, the site state of two virtual blocks and the two-mode squeezed
state of the Gaussian algebra, and the phase sweep and boundary bisection
taken one grid point and one edge at a time.  Each is an independent check
of a route the package takes.
"""

from __future__ import annotations

import math

import numpy as np

from entbath.asymptotics import phase_slacks, summarize
from entbath.bathsim import (
    POSITION,
    SYMMETRIC,
    FullModel,
    Trajectory,
    _minus_rotation,
    _PlusSector,
    evolve,
    initial_state,
)
from entbath.errors import EntbathError, HorizonError, ValidationError
from entbath.gaussian import (
    BEAM_SPLITTER,
    GaussianState,
    ModeSpec,
    site_cov,
    squeezed_cov,
    symplectic_form,
)
from entbath.rwa import CoefficientTrace, _validate_grid
from entbath.spectra import DiscretizedBath, NormalModes, _blocks, _secular_roots
from entbath.sweep import PHASE_COLUMNS, _stationary_point, sweep_axes


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


def full_propagator(model: FullModel, t: float) -> np.ndarray:
    """Dense propagator exp(A t) in the virtual ordering, from the normal modes:
    the (+)-sector flow of every sector input, and the free (-) rotation."""
    n = model.bath.n_modes
    dim = 2 * (n + 2)
    s = np.zeros((dim, dim))
    solver = _PlusSector.of(model)
    vecs = dense_modes(solver.modes)
    phases = solver.freqs * t
    xx, xp, px, pp = solver.flow((np.cos(phases) * vecs) @ vecs.T,
                                 (solver.sine(phases) * vecs) @ vecs.T, solver.scales[:, None])
    # plus-sector phase indices: positions (x+, q_k) -> 0, 4+2k ; momenta 1, 5+2k
    pos = np.concatenate(([0], 4 + 2 * np.arange(n)))
    mom = pos + 1
    s[np.ix_(pos, pos)] = xx
    s[np.ix_(pos, mom)] = xp
    s[np.ix_(mom, pos)] = px
    s[np.ix_(mom, mom)] = pp
    s[2:4, 2:4] = _minus_rotation(model, np.array([t]))[0]
    return s


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


def dense_arrowhead_eigh(a: float, z, d) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, eigenvectors (columns), z_hat and eigenvector norms of the
    arrowhead [[a, z^T], [z, diag(d)]] from the roots of ``spectra._secular_roots``,
    with every (N+1) x N array formed whole: the dense route that
    ``spectra.arrowhead_eigh`` takes in row blocks.  A deflated coupling gives
    a unit vector, a zero z_hat and an infinite norm."""
    z = np.asarray(z, dtype=float)
    d = np.asarray(d, dtype=float)
    n = d.size
    if n == 0:
        return np.array([float(a)]), np.ones((1, 1)), np.zeros(0), np.ones(1)
    norm = max(abs(a), abs(d[0]), abs(d[-1])) + math.sqrt(z @ z)
    keep = np.abs(z) > np.finfo(float).eps * norm
    if not keep.all():
        lam, sub, sub_zhat, sub_norms = dense_arrowhead_eigh(a, z[keep], d[keep])
        gone = np.flatnonzero(~keep)
        vecs = np.zeros((n + 1, n + 1))
        vecs[np.r_[0, 1 + np.flatnonzero(keep)], : lam.size] = sub
        vecs[1 + gone, lam.size + np.arange(gone.size)] = 1.0
        lam = np.concatenate((lam, d[gone]))
        order = np.argsort(lam, kind="stable")
        zhat = np.zeros(n)
        zhat[keep] = sub_zhat
        norms = np.concatenate((sub_norms, np.full(gone.size, np.inf)))
        return lam[order], vecs[:, order], zhat, norms[order]
    tau, org, _ = _secular_roots(a, z * z, d)
    diff = np.subtract(d[org][:, None], d)
    diff += tau[:, None]
    ratio = np.empty((n + 1, n))
    np.subtract(d[:, None], d, out=ratio[:n])
    ratio[n] = 1.0
    np.fill_diagonal(ratio, 1.0)
    np.divide(diff, ratio, out=ratio)
    zhat = np.copysign(np.sqrt(np.maximum(-ratio.prod(axis=0), 0.0)), z)
    vecs = np.empty((n + 1, n + 1))  # eigenvectors as rows
    np.divide(zhat, diff, out=vecs[:, 1:])
    vecs[:, 0] = 1.0
    norms = np.sqrt(np.einsum("ij,ij->i", vecs, vecs))
    vecs /= norms[:, None]
    return d[org] + tau, vecs.T, zhat, norms


def dense_modes(modes: NormalModes) -> np.ndarray:
    """The orthonormal eigenvectors of ``modes`` as the columns of an (N+1)^2
    matrix, formed a row block at a time as its products form them."""
    n = modes.poles.size
    vecs = np.empty((n + 1, n + 1))
    vecs[0] = modes.first_row
    for lo, hi in _blocks(n + 1, n):
        vecs[1:, lo:hi] = modes._vectors(lo, hi).T
    return vecs


def amplitude_rows(bath: DiscretizedBath, omega: float, times, chunk: int = 2048):
    """(slice, u, p) per chunk of ``times`` on the standard branch exp(-i G t)
    of the ladder arrowhead: the system amplitude u and the bath amplitudes
    p_k(t), one (T x N) (N x N) product with the dense eigenvectors."""
    modes = _PlusSector(bath, omega, 1.0, position=False).modes
    vecs = dense_modes(modes)
    b0 = vecs * vecs[0]
    for lo in range(0, len(times), chunk):
        ts = np.asarray(times[lo : lo + chunk], dtype=float)
        phases = np.exp(-1j * np.outer(ts, modes.values))
        yield slice(lo, lo + ts.size), phases @ b0[0], phases @ b0[1:].T


def row_route_coefficients(baths: list, omega: float, times) -> list[tuple]:
    """(gamma, delta_omega2, diffusion) of each bath, which differ in
    temperature only, from the bath amplitudes of ``amplitude_rows``:
    gamma = -Im(G_u/u)/2, delta_omega2 = w^2 Re(G_u/u) and
    D = (Im(u H^*) - Im(G_u/u) Q)/2 with G_u = p.g, H = p.(2n + 1) g and
    Q = |p|^2.(2n + 1), summed over the rows."""
    g = baths[0].ladder_couplings
    out = [np.empty((3, len(times))) for _ in baths]
    for rows, u, p in amplitude_rows(baths[0], omega, times):
        big_g = (p @ g) / u
        p_sq = np.abs(p) ** 2
        for bath, coefficients in zip(baths, out):
            weight = 2.0 * bath.occupations + 1.0
            coefficients[:, rows] = (
                -0.5 * np.imag(big_g), omega**2 * np.real(big_g),
                0.5 * (np.imag(u * np.conj(p @ (g * weight))) - np.imag(big_g) * (p_sq @ weight)))
    return [tuple(coefficients) for coefficients in out]


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
    time: two (T, N) x (N, N) products with the dense eigenvectors and their
    weighted row sums."""
    times = np.asarray(times, dtype=float)
    bath = model.bath
    occ = bath.occupations + 0.5
    var_q = occ / (bath.masses * bath.frequencies)
    var_p = occ * bath.masses * bath.frequencies
    solver = _PlusSector.of(model)
    _, vecs, _, _ = dense_arrowhead_eigh(*solver.arrowhead)
    phases = np.outer(times, solver.freqs)
    xx, xp, px, pp = solver.flow((np.cos(phases) * vecs[0]) @ vecs.T,
                                 (solver.sine(phases) * vecs[0]) @ vecs.T, solver.scales[0])
    a2 = np.stack([xx[:, 0], xp[:, 0], px[:, 0], pp[:, 0]], axis=1).reshape(-1, 2, 2)
    bq = (xx[:, 1:], px[:, 1:])
    bp = (xp[:, 1:], pp[:, 1:])
    theta = np.empty((times.size, 2, 2))
    for i, j in ((0, 0), (0, 1), (1, 1)):
        theta[:, i, j] = (np.einsum("tk,k,tk->t", bq[i], var_q, bq[j])
                          + np.einsum("tk,k,tk->t", bp[i], var_p, bp[j]))
    theta[:, 1, 0] = theta[:, 0, 1]
    return a2, theta


def asymptotic_state(
    dx_plus: float,
    dp_plus: float,
    dx_minus: float,
    dp_minus: float,
    minus_mode: ModeSpec,
    angle: float,
) -> GaussianState:
    """Site-basis state of the late-time cycle at rotation phase ``angle``.

    The (+) block is the stationary diagonal; the (-) block is the initial
    squeezed state rotated by ``angle`` in its own phase space.
    """
    plus = np.diag([dx_plus**2, dp_plus**2])
    s = minus_mode.xp_scale
    c, sn = math.cos(angle), math.sin(angle)
    rot = np.array([[c, sn / s], [-s * sn, c]])
    minus = rot @ np.diag([dx_minus**2, dp_minus**2]) @ rot.T
    return state_from_virtual_blocks(plus, minus)


def plus_variance_series(traj: Trajectory) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Series (<x+^2>, <p+^2>, <{x+,p+}>/2) of the virtual (+) mode."""
    sbs = BEAM_SPLITTER
    covs = np.einsum("ij,tjk,lk->til", sbs, traj.covs, sbs)
    return covs[:, 0, 0], covs[:, 1, 1], covs[:, 0, 1]


def equilibrium_variances_sim(
    model: FullModel,
    initial_system: GaussianState | None = None,
    rel_drift: float = 1e-3,
    n_samples: int = 2400,
) -> tuple[float, float]:
    """Stationary dispersions (dx+, dp+) extracted from a long exact run.

    Evolves until the windowed relative drift of both (+) variances falls
    below ``rel_drift`` (window = one period of the dressed (+) mode), then
    averages over one (-) period.  Raises HorizonError when the drift target is
    not reached inside the validity horizon.
    """
    if initial_system is None:
        initial_system = initial_state(model, "coherent-product")
    ref_freq = model.omega_plus_dressed or model.omega_plus_bare
    period = 2.0 * math.pi / ref_freq
    period_minus = 2.0 * math.pi / model.minus_mode.frequency
    t_end = 0.98 * model.validity_horizon
    if t_end <= 6.0 * period:
        raise HorizonError("validity horizon too short; increase the number of bath modes")
    times = np.linspace(t_end / n_samples, t_end, n_samples)
    traj = evolve(model, initial_system, times)
    vx, vp, _ = plus_variance_series(traj)

    dt = times[1] - times[0]
    wlen = max(2, int(round(period / dt)))
    kernel = np.ones(wlen) / wlen
    sx = np.convolve(vx, kernel, mode="valid")
    sp = np.convolve(vp, kernel, mode="valid")
    lag = wlen
    drift = np.maximum(
        np.abs(sx[lag:] / sx[:-lag] - 1.0), np.abs(sp[lag:] / sp[:-lag] - 1.0)
    )
    # index i of `drift` corresponds to smoothed sample i+lag, raw sample ~ i+lag+wlen/2
    settle = np.nonzero(drift < rel_drift)[0]
    t_star = None
    for i in settle:
        t_candidate = times[min(i + lag + wlen // 2, times.size - 1)]
        if t_candidate + period_minus <= t_end:
            t_star = t_candidate
            break
    if t_star is None:
        raise HorizonError(
            "variances did not settle below the drift target before the horizon; "
            "increase the number of bath modes"
        )
    sel = (times >= t_star) & (times <= t_star + period_minus)
    return float(np.sqrt(vx[sel].mean())), float(np.sqrt(vp[sel].mean()))


def stationary_variances_symmetric(
    trace: CoefficientTrace, mass_omega: float, max_drift: float = 0.01
) -> tuple[float, float]:
    """Balanced stationary dispersions for symmetric coupling.

    dp+ = M Omega dx+ = sqrt(D / 2 gamma), with ``mass_omega`` the invariant
    M*Omega (= m*omega0) product of the (+) mode.  The ratio D/gamma is the
    stationary symmetrized occupation; it is evaluated pointwise over the
    trailing quarter of the trace, where it has settled even when the two
    coefficients individually still breathe (they oscillate together once the
    occupation is stationary).  A drifting ratio raises a validation error.
    """
    n = trace.times.size
    start = max(1, n - max(4, n // 4))
    gam = trace.gamma[start:]
    dif = trace.diffusion[start:]
    good = np.abs(gam) > 1e-12 * np.abs(gam).max()
    if good.sum() < 4:
        raise ValidationError("dissipation coefficient vanishes on the late window")
    ratio = dif[good] / gam[good]
    sym_occ = float(np.median(ratio))
    drift = float((ratio.max() - ratio.min()) / max(abs(sym_occ), 1e-300))
    if drift > max_drift:
        raise ValidationError(
            f"stationary occupation not settled (drift {drift:.3g} over the "
            "late window); extend the trace"
        )
    if sym_occ <= 0.0:
        raise ValidationError("stationary occupation must be positive")
    dp = math.sqrt(0.5 * sym_occ * mass_omega)
    dx = dp / mass_omega
    return dx, dp


def dominant_frequency(times: np.ndarray, values: np.ndarray) -> float:
    """Angular frequency of the strongest oscillation in a uniformly sampled series.

    Linear detrend, Hann window, FFT peak with parabolic interpolation; used to
    read the late-time entanglement oscillation frequency off a trajectory.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size < 16:
        raise ValidationError("need at least 16 samples to fit a frequency")
    dt = np.diff(times)
    if (dt.max() - dt.min()) > 1e-9 * dt[0]:
        raise ValidationError("frequency fit needs a uniform grid")
    detrended = values - np.polyval(np.polyfit(times, values, 1), times)
    if np.max(np.abs(detrended)) < 1e-13 * max(1.0, np.max(np.abs(values))):
        raise ValidationError("series carries no resolvable oscillation")
    window = np.hanning(times.size)
    spectrum = np.abs(np.fft.rfft(detrended * window))
    k = int(np.argmax(spectrum[1:]) + 1)
    if 1 <= k < spectrum.size - 1:
        a, b, c = np.log(spectrum[k - 1 : k + 2] + 1e-300)
        denom = a - 2.0 * b + c
        shift = 0.5 * (a - c) / denom if abs(denom) > 0.0 else 0.0
        shift = float(np.clip(shift, -0.5, 0.5))
    else:
        shift = 0.0
    freq = (k + shift) / (times.size * float(dt[0]))
    return 2.0 * math.pi * freq


def state_from_virtual_blocks(plus_cov: np.ndarray, minus_cov: np.ndarray) -> GaussianState:
    """Site-basis state, zero means, from the covariances of the (+,-) modes.

    The beam splitter is orthogonal and symplectic, so the one check of the
    site-basis state also decides the virtual one.
    """
    return GaussianState(np.zeros(4), site_cov(plus_cov, minus_cov))


def beam_splitter(state: GaussianState) -> GaussianState:
    """Apply the 50/50 beam splitter mapping site modes to (+,-) virtual modes.

    The map is its own inverse, so it also converts a state expressed in the
    virtual ordering (x+, p+, x-, p-) back to the site ordering.
    """
    s = BEAM_SPLITTER
    return GaussianState(s @ state.mean, s @ state.cov @ s.T)


def two_mode_squeezed_state(r: float, mode: ModeSpec, area_product: float = 0.5) -> GaussianState:
    """Two-mode squeezed state whose (-) virtual mode carries squeezing ``r``.

    The (+) mode carries the opposite squeezing; for a pure state
    (``area_product`` = 1/2 on the minus mode) the logarithmic negativity is 2|r|.
    """
    return state_from_virtual_blocks(
        squeezed_cov(-r, mode), squeezed_cov(r, mode, area_product=area_product)
    )


def pointwise_phase_sweep(config) -> list[dict]:
    """The rows of ``sweep.run_phase_sweep``, one stationary point per (T, C12)
    and one ``summarize`` per grid point."""
    temps, squeezings, c12s, purities = sweep_axes(config)
    results = {}
    for key in ((t, c) for t in temps for c in c12s):
        if key not in results:
            try:
                results[key] = _stationary_point((config, *key))
            except EntbathError as exc:
                results[key] = exc
    rows = []
    for t in temps:
        for r in squeezings:
            for c12 in c12s:
                for pur in purities:
                    point = results[t, c12]
                    row = {"T": t, "r": r, "C12": c12, "purity": pur}
                    if isinstance(point, EntbathError):
                        row.update({k: float("nan") for k in PHASE_COLUMNS[4:-1]}, phase="ERROR")
                    else:
                        minus = ModeSpec(point["minus_mass"], point["minus_freq"])
                        summary = summarize(point["dx_plus"], point["dp_plus"], r, minus,
                                            purity_product=pur)
                        row.update({k: getattr(summary, k) for k in PHASE_COLUMNS[4:-1]},
                                   phase=summary.phase.value)
                    rows.append(row)
    return rows


def bisect_edge(f, a: float, b: float, fa: float, tol: float, max_iter: int = 60) -> float:
    """Crossing of f between a and b (either order), given f(a) = fa and that
    f(b) has the other sign."""
    while abs(b - a) > tol and max_iter > 0:
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if fa * fm < 0.0:
            b = mid
        else:
            a, fa = mid, fm
        max_iter -= 1
    return 0.5 * (a + b)


def pointwise_phase_boundaries(config, rows: list[dict]) -> dict:
    """``sweep.phase_boundaries`` from the rows of ``pointwise_phase_sweep``:
    the closed-form r-edges at each grid temperature, then each crossed
    T-edge bisected alone, with a scalar slack per midpoint."""
    temps, squeezings, c12s, purities = sweep_axes(config)
    r_lo, r_hi = min(squeezings), max(squeezings)
    by_point = {(row["T"], row["r"], row["C12"], row["purity"]): row for row in rows}
    memo = {}

    def slack(t, r, c12, purity, which):
        if (t, c12) not in memo:
            memo[t, c12] = _stationary_point((config, t, c12))
        point = memo[t, c12]
        minus = ModeSpec(point["minus_mass"], point["minus_freq"])
        summary = summarize(point["dx_plus"], point["dp_plus"], r, minus, purity_product=purity)
        return phase_slacks(r, summary.r_crit, summary.s_crit)[which]

    out = {}
    for c12 in c12s:
        for pur in purities:
            grid = [[by_point[t, r, c12, pur] for r in squeezings] for t in temps]
            points = {"nsd_sdr": [], "sdr_sd": []}
            for t, grid_row in zip(temps, grid):
                if grid_row[0]["phase"] == "ERROR":
                    continue
                rc, sc = abs(grid_row[0]["r_crit"]), grid_row[0]["s_crit"]
                for name, roots in (
                    ("nsd_sdr", (rc - sc, rc + sc) if sc >= 0.0 else ()),
                    ("sdr_sd", (sc - rc,)),
                ):
                    found = {sign * root for root in roots if root >= 0.0 for sign in (1.0, -1.0)}
                    points[name].extend([float(t), r] for r in found if r_lo <= r <= r_hi)
            for j, r in enumerate(squeezings):
                for i in range(len(temps) - 1):
                    ends = grid[i][j], grid[i + 1][j]
                    if any(row["phase"] == "ERROR" for row in ends):
                        continue
                    v0, v1 = (phase_slacks(r, row["r_crit"], row["s_crit"]) for row in ends)
                    t0, t1 = temps[i], temps[i + 1]
                    for which, name in enumerate(("nsd_sdr", "sdr_sd")):
                        if v0[which] * v1[which] < 0.0:
                            try:
                                t_star = bisect_edge(
                                    lambda t: slack(t, r, c12, pur, which),
                                    t0, t1, v0[which], tol=1e-3 * max(1.0, abs(t1 - t0)),
                                )
                            except EntbathError:
                                continue
                            points[name].append([float(t_star), float(r)])
            for name in points:
                points[name].sort()
            out[f"c12={c12:g};purity={pur:g}"] = points
    return out
