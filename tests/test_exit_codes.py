"""Exit-code contract of every command under drawn configurations.

Each command must exit 0, 2, 3 or 4 (``verify`` alone exits 4) on any small
configuration, never 5 (an internal error) or with a raised exception, and a
non-finite number anywhere in the file is a configuration error (2).  The draws
mix valid values, boundary values (T = 0, C12 at and near +-omega_r^2, a cutoff
just above Omega+, the smallest gamma0), non-finite and negative values, and
swapped or descending axes.

``phase-diagram`` and ``verify`` draw sweep axes.  ``verify`` draws gamma0 >= 1e-3
and C12 up to +-omega_r^2: its window grows as 4/gamma0 and 3 pi/omega-, and past
a ceiling of bath modes it is a horizon error (3).  The ceiling is lowered from
4000 to 400 modes here, so that no draw builds a large bath.

``evolve`` and ``coeffs`` draw N <= 60 bath modes and a t_max inside the validity
horizon (or past it, with or without [run] override_horizon) that is not a
multiple of dt_out, and check that no written time passes t_max.  ``coeffs`` is
drawn with symmetric coupling mostly, and dt*cutoff <= 0.1.
"""

import math
from unittest import mock

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from entbath import sweep
from entbath.cli import main

NON_FINITE = ("nan", "inf", "-inf", "1e400")
#: dyadic, so that C12 = omega_r^2 puts omega- at exactly 0 in both couplings
OMEGA_R = (0.5, 0.75, 1.0, 1.25, 1.5, 2.0)


def _omega_plus(coupling: str, omega_r: float, c12: float) -> float:
    if coupling == "position":
        return math.sqrt(max(omega_r**2 + c12, 0.0))
    return max(omega_r + c12 / omega_r, 0.0)


def _text(values: dict) -> str:
    sections: dict[str, list] = {}
    for (section, key), value in values.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    return "".join(f"[{s}]\n" + "\n".join(lines) + "\n\n" for s, lines in sections.items())


def _axis(draw, lo: float, hi: float, zero_ok: bool) -> str:
    """One or two axis values: in range, reversed, negative, or a range."""
    kind = draw(st.sampled_from(["one", "two", "descending", "negative", "range"]))
    a = draw(st.floats(lo, hi))
    b = draw(st.floats(lo, hi))
    if kind == "one":
        return repr(0.0 if zero_ok and draw(st.booleans()) else a)
    if kind == "two":
        return f"{min(a, b)!r}, {max(a, b)!r}"
    if kind == "descending":
        return f"{max(a, b)!r}:{min(a, b)!r}:2"
    if kind == "negative":
        return f"{-a!r}, {b!r}"
    return f"{a!r}:{b!r}:2"


@st.composite
def runs(draw):
    """(command, config text, whether the text holds a non-finite number)."""
    command = draw(st.sampled_from(["phase-diagram", "verify"]))
    verify = command == "verify"
    values = _model(draw, draw(st.sampled_from(["position", "symmetric"])),
                    min_gamma0=1e-3 if verify else 0.0, modes=(20, 60))
    values.update({
        ("grid", "t_max"): "1.0",
        ("grid", "dt"): repr(0.05 / float(values["bath", "cutoff"])),
        ("grid", "dt_out"): "0.25",
        ("sweep", "temperatures"): _axis(draw, 0.0, 5.0, zero_ok=True),
        ("sweep", "squeezings"): _axis(draw, 0.0, 2.5, zero_ok=True),
    })
    if draw(st.booleans()):
        values["sweep", "purity_values"] = _axis(draw, 0.5, 1.5, zero_ok=False)
    return (command, *_spoil(draw, values))


def _model(draw, coupling: str, min_gamma0: float, modes: tuple) -> dict:
    """[model], [bath] and [initial] values, at and near the edges of stability."""
    omega_r = draw(st.sampled_from(OMEGA_R))
    edge = omega_r**2
    edges = [edge, -edge]  # omega- or Omega+ exactly 0
    edges += [edge * (1 - 1e-9), -edge * (1 - 1e-9), edge * (1 - 1e-3)]  # near them
    c12 = draw(st.one_of(st.floats(-0.9 * edge, 0.9 * edge), st.sampled_from(edges)))
    gamma0 = draw(st.one_of(st.just(min_gamma0), st.floats(min_gamma0, 0.5)))
    omega_plus = max(_omega_plus(coupling, omega_r, c12), 0.1)
    cutoff = draw(st.one_of(
        st.floats(omega_plus * 1.01, 8.0),
        st.sampled_from([omega_plus * (1 + 1e-9), omega_plus * (1 + 1e-3)]),  # just above
    ))
    return {
        ("model", "coupling"): coupling,
        ("model", "omega_r"): repr(omega_r),
        ("model", "c12"): repr(c12),
        ("bath", "gamma0"): repr(gamma0),
        ("bath", "cutoff"): repr(cutoff),
        ("bath", "temperature"): repr(draw(st.sampled_from([0.0, 0.5, 2.0]))),
        ("bath", "modes"): str(draw(st.integers(*modes))),
        ("initial", "kind"): draw(st.sampled_from(
            ["two-mode-squeezed", "squeezed-product", "coherent-product"])),
        ("initial", "r"): repr(draw(st.floats(0.0, 2.0))),
    }


def _spoil(draw, values: dict) -> tuple:
    """(config text, whether it must exit 2): maybe one value made non-finite or negative."""
    spoiled = draw(st.sampled_from([None, None, *values]))
    non_finite = False
    if spoiled is not None and spoiled[1] not in ("coupling", "modes"):
        if draw(st.booleans()):
            values[spoiled] = draw(st.sampled_from(NON_FINITE))
            non_finite = True
        else:
            values[spoiled] = "-" + values[spoiled]
    return _text(values), non_finite


@st.composite
def trajectories(draw):
    """(command, config text, whether the text must exit 2, t_max) of evolve and coeffs."""
    command = draw(st.sampled_from(["evolve", "coeffs"]))
    coupling = "symmetric" if command == "coeffs" and draw(st.integers(0, 3)) else \
        draw(st.sampled_from(["position", "symmetric"]))
    values = _model(draw, coupling, min_gamma0=0.0, modes=(10, 60))
    cutoff = float(values["bath", "cutoff"])
    horizon = math.pi * int(values["bath", "modes"]) / cutoff
    dt_out = draw(st.floats(0.05, 1.0))
    # a fraction of the horizon: rarely a multiple of dt_out; past it only sometimes
    t_max = min(horizon * draw(st.one_of(st.floats(0.02, 1.0), st.floats(1.0, 1.5))), 30.0)
    values.update({
        ("grid", "t_max"): repr(t_max),
        ("grid", "dt"): repr(draw(st.floats(0.01, 0.1)) / cutoff),
        ("grid", "dt_out"): repr(dt_out),
    })
    if draw(st.booleans()):
        values["run", "override_horizon"] = draw(st.sampled_from(["true", "false"]))
    return (command, *_spoil(draw, values), t_max)


#: found by the draws: a purity below 1/2 on the [sweep] axis reached a square
#: root of a negative number (exit 5); [sweep] purities and temperatures are now
#: validated like the point values they replace
FOUND_SWEEP_PURITY = """[model]
coupling = symmetric
omega_r = 0.75
c12 = 0.0

[bath]
gamma0 = 0.3333333333333333
cutoff = 2.0
temperature = 0.0
modes = 43

[grid]
t_max = 1.0
dt = 0.025

[sweep]
temperatures = 3.5689011476072023:2.276670419276055:2
squeezings = 2.225758915373122:1.915925318717568:2
purity_values = -1.143768777552442
"""


#: t_max = 31.4 sits inside the horizon pi*200/20 = 31.416, but the dt_out = 0.3
#: grid once rounded up to 31.5 and ``evolve`` exited 3
GRID_ROUNDING = """[model]
omega_r = 1.0

[bath]
gamma0 = 0.1
cutoff = 20.0
temperature = 1.0
modes = 200

[grid]
t_max = 31.4
dt_out = 0.3
"""


#: found by the draws once a RuntimeWarning failed tier-1: at the smallest
#: positive temperature w/2T overflowed inside coth(w/2T) (exit 5 under -W error)
SUBNORMAL_TEMPERATURE = FOUND_SWEEP_PURITY.replace(
    "temperatures = 3.5689011476072023:2.276670419276055:2", "temperatures = 5e-324").replace(
    "purity_values = -1.143768777552442", "purity_values = 0.5")


def _run(tmp_path_factory, command: str, text: str, flags=()):
    """(exit code, output directory) of one CLI call; argparse's exit counts."""
    directory = tmp_path_factory.mktemp("run")
    (directory / "run.cfg").write_text(text)
    argv = [command, "--config", str(directory / "run.cfg"), "--out", str(directory / "o")]
    try:
        return main([*argv, *flags]), directory / "o"
    except SystemExit as exc:  # an unknown flag
        return exc.code, directory / "o"


@settings(max_examples=60, deadline=None)
@given(run=runs())
@example(run=("verify", FOUND_SWEEP_PURITY, False))
@example(run=("verify", SUBNORMAL_TEMPERATURE.replace("symmetric", "position"), False))
@example(run=("phase-diagram", SUBNORMAL_TEMPERATURE, False))
@example(run=("phase-diagram", FOUND_SWEEP_PURITY, False))
@example(run=("phase-diagram", FOUND_SWEEP_PURITY.replace("3.5689011476072023:", "-1.0:")
               .replace("-1.143768777552442", "0.5"), False))
def test_sweep_commands_exit_with_a_contract_code(tmp_path_factory, run):
    command, text, non_finite = run
    with mock.patch.object(sweep, "_VERIFY_MODE_CEILING", 400):
        code, _ = _run(tmp_path_factory, command, text)
    event(f"{command} exit {code}")
    assert code in (0, 2, 3, 4)
    if non_finite:
        assert code == 2


@settings(max_examples=60, deadline=None)
@given(run=trajectories(), flags=st.just(()))
@example(run=("evolve", GRID_ROUNDING, False, 31.4), flags=())
@example(run=("coeffs", GRID_ROUNDING.replace("[model]", "[model]\ncoupling = symmetric"),
              False, 31.4), flags=())
@example(run=("evolve", GRID_ROUNDING, True, 31.4), flags=("--workers", "2"))
@example(run=("coeffs", GRID_ROUNDING + "\n[run]\nworkers = 1\n", True, 31.4), flags=())
def test_trajectory_commands_exit_with_a_contract_code(tmp_path_factory, run, flags):
    command, text, must_exit_2, t_max = run
    code, out = _run(tmp_path_factory, command, text, flags)
    event(f"{command} exit {code}")
    assert code in (0, 2, 3)
    if must_exit_2:
        assert code == 2
    if code == 0:
        name = "trajectory.csv" if command == "evolve" else "coefficients.csv"
        rows = [line for line in (out / name).read_text().splitlines()[1:]
                if not line.startswith("#")][1:]
        assert all(float(row.split(",")[0]) <= t_max * (1 + 1e-11) for row in rows)
