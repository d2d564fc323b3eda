import math
from pathlib import Path

import pytest

from entbath.cli import main
from entbath.config import RunConfig, load_config
from entbath.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

MINIMAL = """
[model]
omega_r = 1.0

[bath]
gamma0 = 0.1
cutoff = 20.0
temperature = 10.0

[initial]
r = 3.0
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoading:
    def test_minimal_config_gets_documented_defaults(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL))
        assert cfg.modes == 1000
        assert cfg.dt == 0.005
        assert cfg.t_max == 100.0
        assert cfg.coupling == "position"
        assert cfg.renormalization == "renormalized"
        assert cfg.kind == "two-mode-squeezed"
        assert cfg.purity_product == 0.5

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_parse_error_reports_location(self, tmp_path):
        path = write(tmp_path, "[model\nomega_r = 1.0\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "line" in str(err.value)

    def test_unknown_key_rejected(self, tmp_path):
        text = MINIMAL.replace("r = 3.0", "r = 3.0\nwat = 3")
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, text))
        assert "wat" in str(err.value)

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, MINIMAL + "\n[mystery]\nx = 1\n"))

    def test_all_problems_reported_at_once(self, tmp_path):
        bad = """
[model]
coupling = sideways

[bath]
gamma0 = -1
cutoff = 20.0
temperature = 10.0

[grid]
dt = -0.1
"""
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, bad))
        problems = err.value.problems
        assert len(problems) >= 3

    def test_horizon_guard(self, tmp_path):
        text = MINIMAL + "\n[grid]\nt_max = 200.0\n"
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, text))
        assert "horizon" in str(err.value)
        ok = text + "\n[run]\noverride_horizon = true\n"
        assert load_config(write(tmp_path, ok, "b.cfg")).t_max == 200.0

    def test_dt_cutoff_product_guard(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, MINIMAL + "\n[grid]\ndt = 0.02\n"))
        assert "dt*cutoff" in str(err.value)

    def test_grid_is_checked_only_where_it_is_read(self, tmp_path, capsys):
        # the default dt = 0.005 at cutoff 25 and the default t_max = 100 past the
        # 64-mode horizon of 8.04: neither is read by phase-diagram or verify
        text = (MINIMAL.replace("cutoff = 20.0", "cutoff = 25.0")
                .replace("temperature = 10.0", "temperature = 10.0\nmodes = 64"))
        path = write(tmp_path, text)
        config = load_config(path, grid=False)
        assert (config.dt, config.t_max) == (0.005, 100.0)
        with pytest.raises(ConfigError, match=r"dt\*cutoff = 0.125 exceeds 0.1"):
            load_config(path)
        assert main(["phase-diagram", "--config", str(path), "--out", str(tmp_path / "p")]) == 0
        capsys.readouterr()
        for command in ("evolve", "coeffs"):
            assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 2
            err = capsys.readouterr().err
            assert "dt*cutoff = 0.125 exceeds 0.1" in err and "validity horizon" in err

    def test_bare_mode_needs_omega0(self, tmp_path):
        text = MINIMAL.replace("omega_r = 1.0", "renormalization = bare")
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, text))
        assert "omega0" in str(err.value)

    def test_list_syntaxes(self, tmp_path):
        text = MINIMAL + "\n[sweep]\ntemperatures = 1, 2, 3.5\nsqueezings = 0:2:5\n"
        cfg = load_config(write(tmp_path, text))
        assert cfg.temperatures == (1.0, 2.0, 3.5)
        assert cfg.squeezings == (0.0, 0.5, 1.0, 1.5, 2.0)

    def test_explicit_covariance_kind_rejected(self, tmp_path):
        # no config key can supply a covariance, so the kind could never run
        path = write(tmp_path, MINIMAL.replace("r = 3.0", "kind = explicit-covariance\nr = 3.0"))
        with pytest.raises(ConfigError, match="kind"):
            load_config(path)
        assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    FLOAT_KEYS = (
        ("model", "mass"), ("model", "omega_r"), ("model", "omega0"), ("model", "c12"),
        ("bath", "gamma0"), ("bath", "cutoff"), ("bath", "temperature"),
        ("initial", "r"), ("initial", "purity_product"),
        ("grid", "t_max"), ("grid", "dt"), ("grid", "dt_out"),
        ("sweep", "temperatures"), ("sweep", "squeezings"), ("sweep", "c12_values"),
        ("sweep", "purity_values"),
    )

    def test_float_keys_cover_the_schema(self):
        from entbath.config import _SCHEMA, _parse_float, _parse_float_list

        floats = {(section, key) for section, keys in _SCHEMA.items()
                  for key, (parse, _) in keys.items() if parse in (_parse_float, _parse_float_list)}
        assert floats == set(self.FLOAT_KEYS)

    @pytest.mark.parametrize("section, key", FLOAT_KEYS)
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, section, key, value):
        values = {"model": {"omega_r": "1.0"},
                  "bath": {"gamma0": "0.1", "cutoff": "20.0", "temperature": "1.0"},
                  "initial": {"r": "1.0"}, "grid": {}, "sweep": {}}
        if section == "sweep":
            value = f"0.5, {value}"
        values[section][key] = value
        text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
                       for name, entries in values.items())
        path = write(tmp_path, text)
        with pytest.raises(ConfigError, match=rf"\] {key}: cannot parse .* must be finite"):
            load_config(path)
        assert main(["phase-diagram", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_non_finite_range_end_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="finite"):
            load_config(write(tmp_path, MINIMAL + "\n[sweep]\ntemperatures = 0:inf:3\n"))

    def test_empty_axis_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write(tmp_path, MINIMAL + "\n[sweep]\ntemperatures = ,\n"))


class TestDigestAndWorkers:
    def test_digest_is_stable_and_sensitive(self, tmp_path):
        a = load_config(write(tmp_path, MINIMAL, "a.cfg"))
        b = load_config(write(tmp_path, MINIMAL, "b.cfg"))
        assert a.digest() == b.digest()  # path does not enter the digest
        c = load_config(write(tmp_path, MINIMAL.replace("r = 3.0", "r = 2.0"), "c.cfg"))
        assert c.digest() != a.digest()
        # [run] says how and where to run, never what
        d = load_config(write(tmp_path, MINIMAL + "\n[run]\nout_dir = elsewhere\n"
                              "override_horizon = true\n", "d.cfg"))
        assert (d.out_dir, d.override_horizon) != (a.out_dir, a.override_horizon)
        assert d.digest() == a.digest()
        assert a.resolve_workers() == 1  # every command runs serially

    @pytest.mark.parametrize("command", ["evolve", "coeffs", "phase-diagram", "verify"])
    def test_workers_flag_and_key_are_rejected(self, tmp_path, command):
        path = write(tmp_path, MINIMAL)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path), "--workers", "2"])
        assert exc.value.code == 2
        keyed = write(tmp_path, MINIMAL + "\n[run]\nworkers = 1\n", "keyed.cfg")
        with pytest.raises(ConfigError, match="unknown key 'workers' in section \\[run\\]"):
            load_config(keyed)
        assert main([command, "--config", str(keyed), "--out", str(tmp_path / "o")]) == 2

    def test_recurrence_time(self, tmp_path):
        cfg = load_config(write(tmp_path, MINIMAL))
        assert cfg.build_model().bath.recurrence_time == pytest.approx(2 * math.pi * 1000 / 20.0)


class TestShippedConfigs:
    @pytest.mark.parametrize(
        "name",
        ["fig2_left", "fig2_right", "fig3a", "fig3a_coupled", "fig3b", "fig3c", "fig4", "fig5"],
    )
    def test_config_loads(self, name):
        cfg = load_config(CONFIG_DIR / f"{name}.cfg")
        assert isinstance(cfg, RunConfig)

    def test_fig3a_matches_caption_parameters(self):
        cfg = load_config(CONFIG_DIR / "fig3a.cfg")
        assert cfg.temperature == 10.0
        assert cfg.gamma0 == 0.1
        assert cfg.cutoff == 20.0
        assert cfg.omega_r == 1.0
        assert cfg.r == 3.0
        assert cfg.c12 == 0.0

    def test_fig3b_pins_physical_frequency_of_three(self):
        cfg = load_config(CONFIG_DIR / "fig3b.cfg")
        assert cfg.renormalization == "bare"
        dos = cfg.density().delta_omega_sq
        assert cfg.omega0**2 + dos / 2.0 == pytest.approx(9.0, rel=1e-12)

    def test_fig5_has_interaction(self):
        cfg = load_config(CONFIG_DIR / "fig5.cfg")
        assert cfg.c12 == -0.5
        assert cfg.c12_values == (-0.5,)

    def test_fig4_is_mixed(self):
        cfg = load_config(CONFIG_DIR / "fig4.cfg")
        assert cfg.purity_product == 1.0
        assert cfg.purity_values == (1.0,)
