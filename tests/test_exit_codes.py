"""Exit-code contract of the sweep commands under drawn configurations.

``phase-diagram`` and ``verify`` must exit 0, 2, 3 or 4 on any small
configuration, never 5 (an internal error) or with a raised exception, and a
non-finite number anywhere in the file is a configuration error (2).  The
draws mix valid values, boundary values (T = 0, C12 at and near +-omega_r^2,
a cutoff just above Omega+, gamma0 = 0 for ``phase-diagram``), non-finite and
negative values, and swapped or descending axes.

``verify`` draws keep gamma0 >= 0.05 and omega- away from 0: its simulation
window grows as 4/gamma0 and 3 pi/omega-, and the bath it builds grows with
the window, without a ceiling.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    coupling = draw(st.sampled_from(["position", "symmetric"]))
    omega_r = draw(st.sampled_from(OMEGA_R))
    edge = omega_r**2
    edges = [edge, -edge]  # omega- or Omega+ exactly 0
    if not verify:  # near the edges: omega- -> 0 enlarges verify's bath without bound
        edges += [edge * (1 - 1e-9), -edge * (1 - 1e-9), edge * (1 - 1e-3)]
    c12 = draw(st.one_of(st.floats(-0.9 * edge, 0.9 * edge), st.sampled_from(edges)))
    gamma0 = draw(st.floats(0.05, 0.5) if verify else
                  st.one_of(st.just(0.0), st.floats(0.0, 0.5)))
    omega_plus = max(_omega_plus(coupling, omega_r, c12), 0.1)
    cutoff = draw(st.one_of(
        st.floats(omega_plus * 1.01, 8.0),
        st.sampled_from([omega_plus * (1 + 1e-9), omega_plus * (1 + 1e-3)]),  # just above
    ))
    modes = draw(st.integers(20, 60))
    values = {
        ("model", "coupling"): coupling,
        ("model", "omega_r"): repr(omega_r),
        ("model", "c12"): repr(c12),
        ("bath", "gamma0"): repr(gamma0),
        ("bath", "cutoff"): repr(cutoff),
        ("bath", "temperature"): repr(draw(st.sampled_from([0.0, 0.5, 2.0]))),
        ("bath", "modes"): str(modes),
        ("initial", "r"): repr(draw(st.floats(0.0, 2.0))),
        ("grid", "t_max"): "1.0",
        ("grid", "dt"): repr(0.05 / cutoff),
        ("grid", "dt_out"): "0.25",
        ("sweep", "temperatures"): _axis(draw, 0.0, 5.0, zero_ok=True),
        ("sweep", "squeezings"): _axis(draw, 0.0, 2.5, zero_ok=True),
    }
    if draw(st.booleans()):
        values["sweep", "purity_values"] = _axis(draw, 0.5, 1.5, zero_ok=False)
    spoiled = draw(st.sampled_from([None, None, *values]))
    non_finite = False
    if spoiled is not None and spoiled[1] not in ("coupling", "modes"):
        if draw(st.booleans()):
            values[spoiled] = draw(st.sampled_from(NON_FINITE))
            non_finite = True
        else:
            values[spoiled] = "-" + values[spoiled]
    return command, _text(values), non_finite


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


@settings(max_examples=60, deadline=None)
@given(run=runs())
@example(run=("verify", FOUND_SWEEP_PURITY, False))
@example(run=("phase-diagram", FOUND_SWEEP_PURITY, False))
@example(run=("phase-diagram", FOUND_SWEEP_PURITY.replace("3.5689011476072023:", "-1.0:")
               .replace("-1.143768777552442", "0.5"), False))
def test_sweep_commands_exit_with_a_contract_code(tmp_path_factory, run):
    command, text, non_finite = run
    directory = tmp_path_factory.mktemp("run")
    (directory / "run.cfg").write_text(text)
    code = main([command, "--config", str(directory / "run.cfg"), "--out", str(directory / "o")])
    assert code in (0, 2, 3, 4)
    if non_finite:
        assert code == 2
