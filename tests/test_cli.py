import contextlib
import gc
import io
import json
import math
import re
from pathlib import Path
import weakref

import numpy as np
import pytest
from click.testing import CliRunner
import jsonschema

from nvcdd import cli
from nvcdd.cli import ConfigError, load_config, main, resolve_config
from nvcdd.dephasing import (
    HorizonExceeded,
    NoiseSpec,
    ZeroRateError,
    predicted_t2_mp,
)
from nvcdd.errors import NumericalError
from nvcdd.fitting import MIN_POINTS, NonFiniteResidualsError
from nvcdd.models import FIT_MODELS
from nvcdd.presets import PRESETS
from nvcdd.pulse_sim import NormLossError
from nvcdd.units import GAMMA, khz_to_angular

REPO_ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = REPO_ROOT / "configs"


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    result = runner.invoke(main, args, catch_exceptions=False, **kwargs)
    return result


def all_output(result):
    text = result.output
    try:
        text += result.stderr
    except ValueError:
        pass
    return text


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


# The head of a tau grid's config error, given the section's name.
TAU_KEYS = ("config error: config keys $.{}.tau_start_us, tau_stop_us and "
            "tau_step_us:")


def grab(report: str, label: str) -> float:
    for line in report.splitlines():
        if line.startswith(label):
            return float(re.search(r"(-?\d+\.?\d*)", line.split(":")[1])
                         .group(1))
    raise AssertionError(f"no line starting with {label!r} in:\n{report}")


class TestRates:
    def test_default_preset_anchors(self, runner, tmp_path):
        result = invoke(runner, ["--out", str(tmp_path), "rates"])
        assert result.exit_code == 0
        assert grab(result.output, "omega/2pi") == pytest.approx(581.0)
        assert grab(result.output, "gamma*sigma_b/2pi") == pytest.approx(
            42.0, abs=0.1)
        assert grab(result.output, "sigma_Omega/2pi") == pytest.approx(
            0.0, abs=1e-9)
        assert grab(result.output, "thermal-limit T2*") == pytest.approx(
            12.17, abs=0.05)
        assert grab(result.output, "mech cutoff w_c/2pi") == pytest.approx(
            108.52, abs=0.1)
        assert grab(result.output, "T2*_mp (first)") == pytest.approx(
            10.72, abs=0.1)
        assert grab(result.output, "T2*_mp (second)") == pytest.approx(
            13.5, abs=0.2)
        saved = (tmp_path / "rates.txt").read_text()
        assert saved.strip() == result.output.strip()

    def test_reflectometer_config_anchors(self, runner, tmp_path):
        result = invoke(runner, ["--config", str(CONFIG_DIR / "nv2.json"),
                                 "--out", str(tmp_path), "rates"])
        assert result.exit_code == 0
        assert grab(result.output, "sigma_Omega/2pi") == pytest.approx(
            21.95, abs=0.1)
        assert grab(result.output, "T2*_mp (first)") == pytest.approx(
            5.33, abs=0.05)


# The keywords cli.validate_config checks, the types it knows and the
# annotations it may skip.  The checker writes a key as ".name" in
# "config key $.a.b[i]", as jsonschema does for identifier-like names.
CHECKED_KEYWORDS = {"type", "enum", "minimum", "maximum", "exclusiveMinimum",
                    "exclusiveMaximum", "minItems", "items", "properties",
                    "required", "additionalProperties"}
ANNOTATIONS = {"$schema", "title", "default"}
CHECKED_TYPES = {"object", "array", "string", "boolean", "number", "integer"}


def unchecked_rules(rule: dict, where: str = "$") -> list:
    """Every place in a schema that cli.validate_config would not check
    as jsonschema does, as "where: what" lines."""
    problems = []
    for key, arg in rule.items():
        if key not in CHECKED_KEYWORDS | ANNOTATIONS:
            problems.append(f"{where}: keyword {key!r}")
        elif key == "type" and (not isinstance(arg, str)
                                or arg not in CHECKED_TYPES):
            problems.append(f"{where}: type {arg!r}")
        elif key == "additionalProperties" and arg is not False:
            problems.append(f"{where}: additionalProperties {arg!r}")
        elif key == "properties":
            for name, sub in arg.items():
                if not re.fullmatch(r"[a-zA-Z][a-zA-Z0-9_]*", name):
                    problems.append(f"{where}: property name {name!r}")
                problems += unchecked_rules(sub, f"{where}.{name}")
        elif key == "items":
            problems += unchecked_rules(arg, f"{where}/items")
    return problems


class TestConfigHandling:
    def test_bad_type_reports_key_path(self, runner, tmp_path):
        cfg = write_config(tmp_path, {"system": {"omega_khz": "high"}})
        result = invoke(runner, ["--config", cfg, "rates"])
        assert result.exit_code == 2
        text = all_output(result)
        assert "omega_khz" in text and "config" in text

    def test_unknown_key_rejected(self, runner, tmp_path):
        cfg = write_config(tmp_path, {"turbo": True})
        result = invoke(runner, ["--config", cfg, "rates"])
        assert result.exit_code == 2

    def test_invalid_json_reports_line(self, runner, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  \"preset\": nv2\n}", encoding="utf-8")
        result = invoke(runner, ["--config", str(path), "rates"])
        assert result.exit_code == 2
        assert ":2:" in all_output(result)

    def test_missing_config_file(self, runner, tmp_path):
        result = invoke(runner, ["--config", str(tmp_path / "nope.json"),
                                 "rates"])
        assert result.exit_code == 2

    def test_example_configs_validate(self):
        for name in ("nv1.json", "nv2.json"):
            cfg = load_config(CONFIG_DIR / name)
            resolved = resolve_config(cfg)
            assert resolved["sim"].n_shots > 0

    def test_bom_prefixed_config_loads_the_same(self, tmp_path):
        # editors on some platforms save JSON with a UTF-8 byte-order mark
        source = CONFIG_DIR / "nv2.json"
        copy = tmp_path / "nv2.json"
        copy.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
        assert load_config(copy) == load_config(source)

    def test_undecodable_config_names_file_and_line(self, runner, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b'{\n  "out_dir": "\xff"\n}\n')
        result = invoke(runner, ["--config", str(path), "rates"])
        assert result.exit_code == 2
        assert "cfg.json:2: 'utf-8' codec can't decode byte 0xff" \
            in all_output(result)

    def test_config_round_trips_through_json(self):
        cfg = load_config(CONFIG_DIR / "nv2.json")
        again = json.loads(json.dumps(cfg))
        assert again == cfg

    @pytest.mark.parametrize("payload,line", [
        ({"system": {"omega_khz": "high"}},
         "config error: config key $.system.omega_khz: 'high' is not of "
         "type 'number'"),
        # several errors: best_match picks the shallowest one
        ({"turbo": True, "sim": {"shots": 0}},
         "config error: config key $: Additional properties are not "
         "allowed ('turbo' was unexpected)"),
        # Philox keys are uint64
        ({"sim": {"seed": 2**64}},
         f"config error: config key $.sim.seed: {2**64} is greater than "
         f"the maximum of {2**64 - 1}"),
        # a key of the other amplitude-noise mode would be silently ignored
        ({"noise": {"amplitude": {"mode": "fixed", "eta": 0.3,
                                  "alpha_khz": -100}}},
         "config error: config key $.noise.amplitude: fixed mode takes no "
         "'alpha_khz', 'eta'"),
        ({"noise": {"amplitude": {"mode": "reflectometer", "eta": 0.3,
                                  "alpha_khz": -100, "sigma_omega_khz": 5}}},
         "config error: config key $.noise.amplitude: reflectometer mode "
         "takes no 'sigma_omega_khz'"),
        # the injected noise would be at least the drive itself
        ({"noise": {"amplitude": {"mode": "reflectometer", "eta": 1.0,
                                  "alpha_khz": 0}}},
         "config error: config key $.noise.amplitude.eta: 1.0 is greater "
         "than or equal to the maximum of 1"),
    ], ids=["type", "best_match", "seed_maximum", "fixed_mode_eta",
            "reflectometer_mode_sigma_omega", "eta_maximum"])
    def test_error_line_is_exact(self, runner, tmp_path, payload, line):
        cfg = write_config(tmp_path, payload)
        result = invoke(runner, ["--config", cfg, "rates"])
        assert result.exit_code == 2
        assert line in all_output(result).splitlines()

    def test_schema_is_valid_draft_2020_12(self):
        jsonschema.Draft202012Validator.check_schema(cli.SCHEMA)

    def test_schema_uses_only_checked_keywords(self):
        assert unchecked_rules(cli.SCHEMA) == []

    def test_guard_sees_unchecked_keywords(self):
        schema = {
            "title": "synthetic", "type": "object",
            "properties": {
                "a": {"type": "number", "multipleOf": 3, "default": 1},
                "b-c": {"type": ["number", "null"]},
                "d": {"type": "array", "items": {"pattern": "x"}},
            },
            "allOf": [{"not": {"format": "email"}}],
            "additionalProperties": {"type": "string"},
        }
        assert unchecked_rules(schema) == [
            "$.a: keyword 'multipleOf'",
            "$: property name 'b-c'",
            "$.b-c: type ['number', 'null']",
            "$.d/items: keyword 'pattern'",
            "$: keyword 'allOf'",
            "$: additionalProperties {'type': 'string'}"]

    # Python's json reads NaN and +-Infinity, 1e400 as inf, and any integer.
    @pytest.mark.parametrize("number", ["NaN", "-Infinity", "1e400",
                                        "1" + "0" * 400],
                             ids=["NaN", "-Infinity", "1e400", "401_digits"])
    def test_non_finite_number_is_config_error(self, runner, tmp_path,
                                               number):
        path = tmp_path / "cfg.json"
        path.write_text(f'{{"system": {{"omega_khz": {number}}}}}',
                        encoding="utf-8")
        result = invoke(runner, ["--config", str(path), "--out",
                                 str(tmp_path), "rates"])
        assert result.exit_code == 2
        assert f"config error: {path}: " in all_output(result)

    def test_largest_seed_loads(self, tmp_path):
        cfg = write_config(tmp_path, {"sim": {"seed": 2**64 - 1}})
        assert resolve_config(load_config(cfg))["sim"].seed == 2**64 - 1

    def test_integral_float_seed_and_shots_run(self, runner, tmp_path):
        args = ["ramsey", "--tau-stop-us", "0.1"]
        for name, sim in (("int", {"seed": 3, "shots": 2}),
                          ("float", {"seed": 3.0, "shots": 2.0})):
            cfg = write_config(tmp_path, {"sim": sim}, f"{name}.json")
            result = invoke(runner, ["--config", cfg, "--out",
                                     str(tmp_path / name), *args])
            assert result.exit_code == 0, all_output(result)
        assert (tmp_path / "float" / "ramsey_dressed_mp.csv").read_bytes() \
            == (tmp_path / "int" / "ramsey_dressed_mp.csv").read_bytes()

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_names_one_field_noise_key(self, name):
        keys = PRESETS[name].keys() & cli._SIGMA_B_MG
        assert len(keys) == 1
        key, = keys
        # with no field-noise key in the config, the preset's applies
        given = {"noise": {key: PRESETS[name][key]}}
        assert resolve_config({"preset": name})["noise"].sigma_b \
            == resolve_config(given)["noise"].sigma_b

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            resolve_config({"preset": "nv3"})


def test_rows_print_each_value_with_ten_digits(tmp_path):
    # one % template per row prints what f"{v:.10g}" prints, value by value
    rows = [(581, 0.1 + 0.2, -0.0, np.float64(1e-310)),
            (np.float64(np.nan), np.inf, -np.inf, 2.0**70),
            *zip(*np.random.default_rng(1).normal(size=(4, 50)) * 1e3)]
    cli._write_rows(tmp_path / "rows.csv", "a,b,c,d", rows)
    assert (tmp_path / "rows.csv").read_text().splitlines() == [
        "a,b,c,d", *(",".join(f"{v:.10g}" for v in row) for row in rows)]


class TestT2Scan:
    def test_columns_and_anchors(self, runner, tmp_path):
        result = invoke(runner, ["--out", str(tmp_path), "t2scan",
                                 "--omega-khz", "581", "--no-mc"])
        assert result.exit_code == 0
        lines = (tmp_path / "t2scan.csv").read_text().splitlines()
        assert lines[0] == "omega_khz,t2_first_us,t2_second_us,t2_mc_us,mc_err_us"
        om, first, second, mc, err = (float(v) for v in lines[1].split(","))
        assert om == 581.0
        assert first == pytest.approx(10.72, abs=0.1)
        assert second == pytest.approx(13.5, abs=0.2)
        assert np.isnan(mc) and np.isnan(err)

    def test_empty_omega_list_is_config_error(self, runner, tmp_path):
        cfg = write_config(tmp_path, {"t2scan": {"omega_list_khz": []}})
        result = invoke(runner, ["--config", cfg, "--out", str(tmp_path),
                                 "t2scan"])
        assert result.exit_code == 2
        assert "config key $.t2scan.omega_list_khz" in all_output(result)

    def test_default_drives(self, runner, tmp_path):
        result = invoke(runner, ["--out", str(tmp_path), "t2scan"])
        assert result.exit_code == 0, all_output(result)
        rows = (tmp_path / "t2scan.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] \
            == [230.0, 348.0, 470.0, 581.0]

    def test_analytic_scan_reads_no_tau_grid(self, runner, tmp_path):
        # without mc the T2* columns take no tau: a reversed tau grid is
        # never built, and the scan writes the committed CSV
        cfg = json.loads((CONFIG_DIR / "nv2.json").read_text())
        cfg["t2scan"].update(tau_start_us=30.0, tau_stop_us=25.0)
        result = invoke(runner, ["--config", write_config(tmp_path, cfg),
                                 "--out", str(tmp_path), "t2scan"])
        assert result.exit_code == 0, all_output(result)
        assert (tmp_path / "t2scan.csv").read_bytes() == (
            REPO_ROOT / "out" / "nv2" / "t2scan.csv").read_bytes()

    def test_mc_column(self, runner, tmp_path):
        # the simulate-and-fit column, small: one drive, 20 shots, 101 taus
        cfg = write_config(tmp_path, {"t2scan": {"tau_stop_us": 10.0,
                                                 "tau_step_us": 0.1}})
        rows = []
        for out in ("a", "b"):
            result = invoke(runner, ["--config", cfg, "--shots", "20", "--out",
                                     str(tmp_path / out), "t2scan",
                                     "--omega-khz", "581", "--mc"])
            assert result.exit_code == 0, all_output(result)
            rows.append((tmp_path / out / "t2scan.csv").read_text())
        assert rows[0] == rows[1]
        _, _, second, mc, err = (float(v) for v in
                                 rows[0].splitlines()[1].split(","))
        assert np.isfinite(mc) and np.isfinite(err) and err > 0
        assert mc == pytest.approx(second, rel=0.3)

    def test_mc_traces_equal_one_drive_calls(self, runner, tmp_path,
                                             monkeypatch):
        # one simulate_ramsey call for every drive, whose traces are the
        # one-drive calls' bit for bit
        calls = []

        def spy(*args, **kwargs):
            calls.append((args, kwargs, simulate(*args, **kwargs)))
            return calls[-1][2]

        simulate = cli.simulate_ramsey
        monkeypatch.setattr(cli, "simulate_ramsey", spy)
        cfg = write_config(tmp_path, {"t2scan": {"tau_stop_us": 2.0,
                                                 "tau_step_us": 0.1}})
        result = invoke(runner, ["--config", cfg, "--shots", "20", "--out",
                                 str(tmp_path), "t2scan", "--omega-khz",
                                 "230", "--omega-khz", "581", "--mc"])
        assert result.exit_code == 0, all_output(result)
        (args, kwargs, traces), = calls
        kind, tau, drives, sim = args
        assert [params.omega for params, _ in drives] \
            == [khz_to_angular(230.0), khz_to_angular(581.0)]
        for drive, trace in zip(drives, traces, strict=True):
            alone, = simulate(kind, tau, [drive], sim, **kwargs)
            assert np.array_equal(trace.mean_p0, alone.mean_p0)
            assert np.array_equal(trace.stderr, alone.stderr)

    def test_mc_fit_that_did_not_converge(self, runner, tmp_path):
        # 3 shots to 0.8 us: the 581 kHz fit is degenerate and ends at
        # t2_us's upper bound, which the row must not report as a T2*
        cfg = write_config(tmp_path, {"preset": "nv2", "t2scan": {
            "omega_list_khz": [230, 581], "mc": True, "tau_stop_us": 0.8,
            "tau_step_us": 0.05}})
        result = invoke(runner, ["--config", cfg, "--out", str(tmp_path),
                                 "--shots", "3", "--seed", "1", "t2scan"])
        assert result.exit_code == 3
        assert result.stderr.splitlines() \
            == ["fit did not converge at 581 kHz "
                "(degenerate, at_bound:t2_us)"]
        rows = [[float(v) for v in row.split(",")] for row in
                (tmp_path / "t2scan.csv").read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == [230.0, 581.0]
        assert np.all(np.isfinite(rows[0]))
        assert np.all(np.isfinite(rows[1][:3])) \
            and np.all(np.isnan(rows[1][3:]))

    @pytest.mark.parametrize("tau_stop_us,n_tau", [(0.01, 1), (0.1, 2),
                                                   (0.6, 7)])
    def test_mc_grid_below_the_fit_floor(self, runner, tmp_path, monkeypatch,
                                         tau_stop_us, n_tau):
        # ramsey_mp's fit takes at least MIN_POINTS taus: fewer is a config
        # error naming t2scan's tau keys before any drive is simulated
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated")

        monkeypatch.setattr(cli, "simulate_ramsey", no_simulation)
        cfg = write_config(tmp_path, {"t2scan": {
            "omega_list_khz": [581], "mc": True, "tau_stop_us": tau_stop_us,
            "tau_step_us": 0.1}})
        result = invoke(runner, ["--config", cfg, "--out", str(tmp_path / "o"),
                                 "--shots", "3", "t2scan"])
        assert result.exit_code == 2
        assert result.stderr.splitlines() == [
            f"{TAU_KEYS.format('t2scan')} t2scan needs at least {MIN_POINTS} "
            f"grid points, not {n_tau}"]
        assert not (tmp_path / "o").exists()

    def test_mc_grid_at_the_fit_floor_reaches_the_fit(self, runner, tmp_path,
                                                      monkeypatch):
        # MIN_POINTS taus pass the grid check and nlls_fit's own floor, so
        # the two floors are one
        sizes = []

        def spy(model, points, *args):
            sizes.append(len(points[0]))
            return real_fit(model, points, *args)

        real_fit = cli.nlls_fit
        monkeypatch.setattr(cli, "nlls_fit", spy)
        cfg = write_config(tmp_path, {"t2scan": {
            "omega_list_khz": [581], "mc": True,
            "tau_stop_us": 0.1 * (MIN_POINTS - 1), "tau_step_us": 0.1}})
        result = invoke(runner, ["--config", cfg, "--out", str(tmp_path),
                                 "--shots", "3", "t2scan"])
        assert result.exit_code in (0, 3), all_output(result)
        assert sizes == [MIN_POINTS]
        assert (tmp_path / "t2scan.csv").exists()

    def test_drive_noise_without_power_levelling(self, runner, tmp_path):
        # the reflectometer's sigma_Omega grows with the drive, and the
        # scan's first-order T2* takes it in
        cfg = load_config(CONFIG_DIR / "nv2.json")
        cfg["t2scan"]["power_leveled"] = False
        result = invoke(runner, ["--config", write_config(tmp_path, cfg),
                                 "--out", str(tmp_path), "t2scan",
                                 "--omega-khz", "581", "--no-mc"])
        assert result.exit_code == 0, all_output(result)
        row = (tmp_path / "t2scan.csv").read_text().splitlines()[1]
        first = float(row.split(",")[1])
        omega = khz_to_angular(581.0)
        amplitude = cfg["noise"]["amplitude"]
        sigma_omega = NoiseSpec(
            eta=amplitude["eta"],
            alpha_diode=khz_to_angular(amplitude["alpha_khz"])) \
            .sigma_omega(omega)
        want = predicted_t2_mp(
            omega, khz_to_angular(PRESETS["nv2"]["a_par_khz"]),
            khz_to_angular(cfg["noise"]["gamma_sigma_b_khz"]) / GAMMA,
            sigma_omega, order="first")
        assert first == float(f"{want:.10g}")
        assert first < 10.0   # power-levelled, it reads 10.72

    def test_numerical_failure_exit_code(self, runner, tmp_path):
        # no field noise and power-levelled drive: every rate is zero
        cfg = write_config(tmp_path, {
            "noise": {"gamma_sigma_b_khz": 0, "sigma_t_c": 0.25}})
        result = invoke(runner, ["--config", cfg, "--out", str(tmp_path),
                                 "t2scan", "--omega-khz", "581", "--no-mc"])
        assert result.exit_code == 3


# Each command that uses the reflectometer sigma_Omega at a drive of 100 kHz,
# below nv2's -alpha_khz (133 kHz): the config changes and the arguments.
BELOW_REFLECTOMETER = {
    "rates": ({"system": {"omega_khz": 100.0}}, ["rates"]),
    "ramsey": ({"system": {"omega_khz": 100.0}},
               ["ramsey", "--tau-stop-us", "0.1"]),
    "t2scan": ({"t2scan": {"power_leveled": False}},
               ["t2scan", "--omega-khz", "581", "--omega-khz", "100"]),
    "spectra": ({}, ["spectra", "--omega-khz", "0", "--omega-khz", "100"]),
}


class TestReflectometerDrives:
    @pytest.mark.parametrize("command", list(BELOW_REFLECTOMETER))
    def test_drive_below_threshold_names_the_key(self, runner, tmp_path,
                                                 command):
        changes, args = BELOW_REFLECTOMETER[command]
        cfg = load_config(CONFIG_DIR / "nv2.json")
        for section, keys in changes.items():
            cfg[section].update(keys)
        out = tmp_path / "out"
        result = invoke(runner, ["--config", write_config(tmp_path, cfg),
                                 "--out", str(out), *args])
        assert result.exit_code == 2
        assert "config error: config key $.noise.amplitude.alpha_khz: the " \
            "drive 100 kHz plus alpha_khz -133 kHz must be positive for " \
            "reflectometer amplitude noise" in all_output(result).splitlines()
        # checked before anything is simulated or written
        assert not out.exists() or not any(out.iterdir())


class TestPulseTooWeak:
    # pi / omega_mag overflows a float: the pulse has no duration
    @pytest.mark.parametrize("command, cfg, args", [
        ("ramsey", {}, ["--omega-mag-khz", "1e-320", "--tau-stop-us", "1"]),
        ("spectra", {"spectra": {"omega_mag_khz": 1e-320}}, []),
    ])
    def test_error_names_the_key(self, runner, tmp_path, command, cfg, args):
        out = tmp_path / "out"
        result = invoke(runner, ["--config", write_config(tmp_path, cfg),
                                 "--out", str(out), "--shots", "2", command,
                                 *args])
        assert result.exit_code == 2
        assert result.stderr.splitlines() == [
            f"config error: config key $.{command}.omega_mag_khz: 1e-320 kHz "
            "is too weak: its pulse would outlast a float"]
        # checked before anything is simulated or written
        assert not out.exists()

    def test_a_pi_half_pulse_is_timed_at_its_own_angle(self):
        # dressed_0p's pi/2 pulse still has a duration where a pi pulse
        # overflows, so the check passes it on to the simulator
        section = {"omega_mag_khz": 2e-306}
        assert cli._pulse_strength(section, "ramsey", 0.5 * math.pi) \
            == {"omega_mag": khz_to_angular(2e-306)}
        with pytest.raises(ConfigError, match=r"\$\.ramsey\.omega_mag_khz"):
            cli._pulse_strength(section, "ramsey", math.pi)

    @pytest.mark.parametrize("kind", ["dressed_0p", "undressed_0m1"])
    def test_astronomically_long_pulse_loses_norm_quietly(
            self, runner, tmp_path, kind):
        # the pi/2 pulse lasts ~1.2e308 us: its column is not finite, and
        # the eigh fallback's overflow reaches the norm check unwarned
        out = tmp_path / "out"
        result = invoke(runner, ["--out", str(out), "--shots", "2", "ramsey",
                                 "--kind", kind, "--omega-mag-khz", "2e-306",
                                 "--tau-stop-us", "1"])
        assert result.exit_code == 3, all_output(result)
        assert result.stderr.splitlines() == [
            "numerical failure: propagation lost norm"]
        assert not out.exists() or not any(out.glob("*.csv"))

    def test_no_key_leaves_the_simulators_default(self):
        assert cli._pulse_strength({}, "spectra", math.pi) == {}


BOTH_ZERO = ("config keys $.system.omega_khz and $.system.a_par_khz: "
             "omega and a_par cannot both be zero")
# Each command whose pulse sequence or closed forms the system section
# leaves undefined: its system keys, its arguments and its error line.
DRIVE_OFF = {
    **{f"ramsey-{kind}": (
        {"omega_khz": 0}, ["ramsey", "--kind", kind, "--tau-stop-us", "1"],
        f"config key $.system.omega_khz: kind {kind!r} (every kind but "
        "'undressed_0m1') requires a nonzero mechanical drive")
       for kind in ("dressed_mp", "dressed_0p", "max_protection")},
    "envelope": ({"omega_khz": 0}, ["envelope"],
                 "config key $.system.omega_khz: the max_protection column "
                 "requires a nonzero mechanical drive"),
    "rates-no-splitting": ({"omega_khz": 0, "a_par_khz": 0}, ["rates"],
                           BOTH_ZERO),
    "envelope-no-splitting": ({"omega_khz": 0, "a_par_khz": 0}, ["envelope"],
                              BOTH_ZERO),
}


class TestDriveOff:
    @pytest.mark.parametrize("case", list(DRIVE_OFF))
    def test_error_names_the_system_keys(self, runner, tmp_path, case):
        system, args, line = DRIVE_OFF[case]
        out = tmp_path / "out"
        result = invoke(runner, ["--config",
                                 write_config(tmp_path, {"system": system}),
                                 "--out", str(out), *args])
        assert result.exit_code == 2
        assert f"config error: {line}" in all_output(result).splitlines()
        # checked before anything is simulated or written
        assert not out.exists()

    def test_rates_and_undressed_ramsey_run_without_drive(self, runner,
                                                          tmp_path):
        cfg = write_config(tmp_path, {"system": {"omega_khz": 0}})
        for args in (["rates"], ["ramsey", "--kind", "undressed_0m1",
                                 "--tau-stop-us", "0.1"]):
            result = invoke(runner, ["--config", cfg, "--shots", "2",
                                     "--out", str(tmp_path), *args])
            assert result.exit_code == 0, all_output(result)


class TestWeakNoise:
    def test_rates_reports_long_t2(self, runner, tmp_path):
        # second-order T2* ~3.2 ms, beyond any fixed search horizon
        cfg = write_config(tmp_path, {"noise": {"sigma_b_mg": 0.05}})
        result = invoke(runner, ["--config", cfg, "--out", str(tmp_path),
                                 "rates"])
        assert result.exit_code == 0, all_output(result)
        first = grab(result.output, "T2*_mp (first)")
        second = grab(result.output, "T2*_mp (second)")
        assert 1e3 < first < 1e4 and 1e3 < second < 1e4

    @pytest.mark.parametrize("noise,exponent", [
        ({"sigma_b_mg": 1e-300}, "e+30"),
        ({"sigma_t_c": 1e-300}, "e+30"),
        # strong noise: the noise inputs and rates themselves are huge
        ({"sigma_t_c": 1e300}, "e+300"),
        ({"amplitude": {"mode": "fixed", "sigma_omega_khz": 1e200}}, "e+200"),
        ({"sigma_b_mg": 1e30}, "e+30"),
    ], ids=["sigma_b_mg", "sigma_t_c", "strong_sigma_t_c",
            "strong_sigma_omega_khz", "strong_sigma_b_mg"])
    def test_rates_lines_stay_short(self, runner, tmp_path, noise, exponent):
        # values near 1e300 print in exponent form, not as 300 digits
        cfg = write_config(tmp_path, {"noise": noise})
        result = invoke(runner, ["--config", cfg, "--out", str(tmp_path),
                                 "rates"])
        assert result.exit_code == 0, all_output(result)
        assert exponent in result.output
        for text in (result.output, (tmp_path / "rates.txt").read_text()):
            assert max(map(len, text.splitlines())) <= 80


class TestRamseyAndFit:
    def test_trace_fft_and_fit_round_trip(self, runner, tmp_path):
        out = tmp_path / "run"
        result = invoke(runner, ["--out", str(out), "--shots", "60",
                                 "--seed", "11", "ramsey",
                                 "--kind", "dressed_mp",
                                 "--tau-stop-us", "15",
                                 "--tau-step-us", "0.05"])
        assert result.exit_code == 0
        trace_csv = out / "ramsey_dressed_mp.csv"
        assert trace_csv.exists()
        assert (out / "ramsey_dressed_mp.csv.meta.json").exists()
        fft_lines = (out / "ramsey_dressed_mp_fft.csv").read_text().splitlines()
        assert fft_lines[0] == "freq_khz,magnitude"

        result = invoke(runner, ["--out", str(out), "fit",
                                 "--model", "ramsey_mp",
                                 "--input", str(trace_csv)])
        assert result.exit_code == 0, all_output(result)
        report = (out / "fit_ramsey_mp.txt").read_text()
        assert "converged: True" in report
        omega = float(re.search(r"omega_khz\s+(\S+)", report).group(1))
        assert omega == pytest.approx(581.0, abs=20.0)

    def test_bit_identical_rerun(self, runner, tmp_path):
        args = ["--shots", "25", "--seed", "4", "ramsey",
                "--kind", "dressed_mp", "--tau-stop-us", "5",
                "--tau-step-us", "0.1"]
        invoke(runner, ["--out", str(tmp_path / "a")] + args)
        invoke(runner, ["--out", str(tmp_path / "b")] + args)
        first = (tmp_path / "a" / "ramsey_dressed_mp.csv").read_bytes()
        second = (tmp_path / "b" / "ramsey_dressed_mp.csv").read_bytes()
        assert first == second

    def test_fit_missing_input_is_io_error(self, runner, tmp_path):
        result = invoke(runner, ["--out", str(tmp_path), "fit",
                                 "--model", "ramsey_mp",
                                 "--input", str(tmp_path / "missing.csv")])
        assert result.exit_code == 4

    def test_fit_needs_model_and_input(self, runner, tmp_path):
        # the line names the key that is missing, the model first
        for args, key, what in [
                ([], "model", "a model name"),
                (["--input", "trace.csv"], "model", "a model name"),
                (["--model", "ramsey_mp"], "input_csv", "an input CSV")]:
            result = invoke(runner, ["--out", str(tmp_path / "o"), "fit",
                                     *args])
            assert result.exit_code == 2
            assert result.stderr.splitlines() \
                == [f"config error: config key $.fit.{key}: fit needs {what}"]
            assert not (tmp_path / "o").exists()

    def test_fit_header_only_csv_is_config_error(self, runner, tmp_path):
        path = tmp_path / "header_only.csv"
        path.write_text("abscissa,mean_p0,stderr,n_shots\n")
        result = invoke(runner, ["--out", str(tmp_path), "fit",
                                 "--model", "ramsey_mp", "--input", str(path)])
        assert result.exit_code == 2
        assert "header_only.csv:2:" in all_output(result)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_fit_trace_below_the_fit_floor_names_the_key(self, runner,
                                                         tmp_path, rows):
        # checked before the model's seed, whose FFT needs two points
        path = tmp_path / "short.csv"
        path.write_text("abscissa,mean_p0,stderr,n_shots\n" + "".join(
            f"{0.1 * i},0.5,0.01,100\n" for i in range(rows)))
        result = invoke(runner, ["--out", str(tmp_path / "o"), "fit",
                                 "--model", "ramsey_mp", "--input", str(path)])
        assert result.exit_code == 2
        assert result.stderr.splitlines() == [
            f"config error: config key $.fit.input_csv: {path} has {rows} "
            f"rows, and fit needs at least {MIN_POINTS}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("rows", [1, 2])
    def test_undressed_trace_below_the_fit_floor_names_the_key(
            self, runner, tmp_path, rows):
        # every input CSV meets the fit floor, before the joint seed
        spec = REPO_ROOT / "out" / "spec_smoke"
        path = tmp_path / "short.csv"
        path.write_text("".join((spec / "spectrum_omega0khz.csv").read_text()
                                .splitlines(keepends=True)[:1 + rows]))
        cfg = write_config(tmp_path, {"system": {"a_par_khz": 0.0}})
        result = invoke(runner, ["--config", cfg, "--out", str(tmp_path / "o"),
                                 "fit", "--model", "spectrum_joint", "--input",
                                 str(spec / "spectrum_omega470khz.csv"),
                                 "--undressed", str(path)])
        assert result.exit_code == 2
        assert result.stderr.splitlines() == [
            f"config error: config key $.fit.undressed_csv: {path} has "
            f"{rows} rows, and fit needs at least {MIN_POINTS}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("row,sidecar,where", [
        ("0.1,0.5,0.01,100.5", None, "trace.csv:3:"),
        ("0.1,nan,0.01,100", None, "trace.csv:3:"),
        ("0.1,0.5,inf,100", None, "trace.csv:3:"),
        ("nan,0.5,0.01,100", None, "trace.csv:3: abscissa must be finite"),
        ("inf,0.5,0.01,100", None, "trace.csv:3: abscissa must be finite"),
        ("0.1,0.5,0.01,100", "{not json", "trace.csv.meta.json:1:"),
        ("0.1,0.5,0.01,100", '{"kind": NaN, "n_shots": 1e400}',
         "trace.csv.meta.json: NaN is not a finite number"),
        ("0.1,0.5,0.01,100", "[1, 2]",
         "trace.csv.meta.json:1: metadata must be a JSON object")])
    def test_fit_bad_trace_names_file(self, runner, tmp_path, row, sidecar,
                                      where):
        path = tmp_path / "trace.csv"
        path.write_text("abscissa,mean_p0,stderr,n_shots\n"
                        f"0.0,0.5,0.01,100\n{row}\n")
        if sidecar is not None:
            (tmp_path / "trace.csv.meta.json").write_text(sidecar)
        result = invoke(runner, ["--out", str(tmp_path), "fit",
                                 "--model", "ramsey_mp", "--input", str(path)])
        assert result.exit_code == 2
        assert where in all_output(result)

    @pytest.mark.parametrize("broken,where", [
        ("trace.csv", "trace.csv:3: 'utf-8' codec can't decode byte 0xff"),
        ("trace.csv.meta.json",
         "trace.csv.meta.json:1: 'utf-8' codec can't decode byte 0xff")])
    def test_fit_undecodable_trace_names_file(self, runner, tmp_path, broken,
                                              where):
        path = tmp_path / "trace.csv"
        path.write_bytes(b"abscissa,mean_p0,stderr,n_shots\n"
                         b"0.0,0.5,0.01,100\n0.1,0.5,0.01,100\n")
        (tmp_path / "trace.csv.meta.json").write_bytes(b"{}")
        target = tmp_path / broken
        lines = target.read_bytes().splitlines(keepends=True)
        lines[-1] = b"\xff" + lines[-1]
        target.write_bytes(b"".join(lines))
        result = invoke(runner, ["--out", str(tmp_path), "fit",
                                 "--model", "ramsey_mp", "--input", str(path)])
        assert result.exit_code == 2
        assert where in all_output(result)

    # Every Ramsey kind and every spectrum takes its pulses through
    # _newton_column, whose output the engine's norm check must see.
    ENGINE_RUNS = (["ramsey", "--tau-stop-us", "0.1"],
                   ["spectra", "--omega-khz", "0"])

    def test_norm_loss_is_numerical_error(self, runner, tmp_path,
                                          monkeypatch):
        from nvcdd import pulse_sim
        column = pulse_sim._newton_column
        monkeypatch.setattr(pulse_sim, "_newton_column",
                            lambda *args: 1.01 * column(*args))
        for command in self.ENGINE_RUNS:
            result = invoke(runner, ["--out", str(tmp_path), "--shots", "2",
                                     *command])
            assert result.exit_code == 3, command
            assert "norm" in all_output(result)

    def test_nan_state_is_numerical_error(self, runner, tmp_path,
                                          monkeypatch):
        # NaN fails every comparison, so a norm check written as "too far
        # from 1" would let it through to the trace as a config error
        from nvcdd import pulse_sim
        column = pulse_sim._newton_column
        monkeypatch.setattr(pulse_sim, "_newton_column",
                            lambda *args: np.nan * column(*args))
        for command in self.ENGINE_RUNS:
            result = invoke(runner, ["--out", str(tmp_path), "--shots", "2",
                                     *command])
            assert result.exit_code == 3, command
            assert "norm" in all_output(result)

    def test_long_tau_ramsey_keeps_norm(self, runner, tmp_path):
        # the free rotation's sine and cosine are taken of one angle, so
        # out to tau = 1e8 us the readout loses no norm (np.sinc took the
        # sine at a slightly different angle, and this run exited 3)
        result = invoke(runner, ["--config", str(CONFIG_DIR / "nv2.json"),
                                 "--out", str(tmp_path), "--shots", "20",
                                 "ramsey", "--tau-stop-us", "1e8",
                                 "--tau-step-us", "1e7"])
        assert result.exit_code == 0, all_output(result)
        trace = np.loadtxt(tmp_path / "ramsey_dressed_mp.csv", delimiter=",",
                           skiprows=1)
        assert len(trace) == 11 and np.all(trace[:, 1] <= 1.0)

    def test_fit_equal_abscissae_is_config_error(self, runner, tmp_path):
        # every step is 0: uniform, but no grid to take a spectrum of
        path = tmp_path / "flat.csv"
        path.write_text("abscissa,mean_p0,stderr,n_shots\n"
                        + "".join(f"1.0,{0.5 + 0.01 * (k % 3)},0.01,100\n"
                                  for k in range(30)))
        result = invoke(runner, ["--out", str(tmp_path), "fit",
                                 "--model", "ramsey_mp", "--input", str(path)])
        assert result.exit_code == 2
        assert "fourier_magnitude requires a uniform ascending grid" \
            in all_output(result)

    def test_negative_seed_is_config_error(self, runner, tmp_path):
        result = invoke(runner, ["--out", str(tmp_path), "--seed", "-1",
                                 "--shots", "2", "ramsey",
                                 "--tau-stop-us", "0.1"])
        assert result.exit_code == 2
        assert "seed" in all_output(result)


# Committed input trace, undressed trace and fit report of the models
# whose fit is part of the committed out/ tree.
COMMITTED_FITS = {
    "ramsey_mp": ("out/nv2/ramsey_dressed_mp.csv", None,
                  "out/nv2/fit_ramsey_mp.txt"),
    "spectrum_joint": ("out/spec_smoke/spectrum_omega470khz.csv",
                       "out/spec_smoke/spectrum_omega0khz.csv",
                       "out/spec_smoke/fit_spectrum_joint.txt"),
}
# Ramsey kind, tau stop and tau step (us) of the small simulated trace
# each other model is fitted to.
SIMULATED_FITS = {
    "undressed_ramsey": ("undressed_0m1", "10", "0.05"),
    "ramsey_0p": ("dressed_0p", "10", "0.02"),
    "max_protection": ("max_protection", "20", "0.05"),
}


# How a simulator model's trace sidecar is broken: (id, model, edit of the
# sidecar dict or None to delete the file, the key the error names).
SIDECAR_FAULTS = [
    ("no_sidecar", "ramsey_0p", None, "'kind'"),
    *((f"no_{key}", "ramsey_0p", lambda meta, key=key: meta.pop(key),
       f"'{key}'") for key in ("kind", "omega_mag_khz", "delta_khz",
                               "a_par_khz", "omega_khz", "omega_rot_khz")),
    ("kind_mp", "ramsey_0p", lambda meta: meta.update(kind="dressed_mp"),
     "'kind'"),
    ("kind_0p", "undressed_ramsey", lambda meta: None, "'kind'"),
    ("mp_no_sidecar", "max_protection", None, "'kind'"),
    ("mp_kind_mp", "max_protection",
     lambda meta: meta.update(kind="dressed_mp"), "'kind'"),
    ("omega_rot", "ramsey_0p", lambda meta: meta.update(omega_rot_khz=250.1),
     "'omega_rot_khz'"),
    ("text_number", "ramsey_0p",
     lambda meta: meta.update(omega_mag_khz="696"), "'omega_mag_khz'"),
]


def spec_smoke_config(tmp_path):
    """configs/nv2.json without hyperfine split, as out/spec_smoke used."""
    cfg = load_config(CONFIG_DIR / "nv2.json")
    cfg["system"]["a_par_khz"] = 0.0
    return write_config(tmp_path, cfg, "spec_smoke.json")


class TestFitModels:
    @pytest.mark.parametrize("model_name", list(FIT_MODELS))
    def test_fit_every_registered_model(self, runner, tmp_path, model_name):
        if model_name in SIMULATED_FITS:
            kind, stop, step = SIMULATED_FITS[model_name]
            result = invoke(runner, ["--out", str(tmp_path), "--shots", "20",
                                     "--seed", "3", "ramsey", "--kind", kind,
                                     "--tau-stop-us", stop,
                                     "--tau-step-us", step])
            assert result.exit_code == 0, all_output(result)
            result = invoke(runner, [
                "--out", str(tmp_path), "fit", "--model", model_name,
                "--input", str(tmp_path / f"ramsey_{kind}.csv")])
            assert result.exit_code == 0, all_output(result)
            report = (tmp_path / f"fit_{model_name}.txt").read_text()
            assert "converged: True" in report
            return
        trace, undressed, reference = COMMITTED_FITS[model_name]
        config = spec_smoke_config(tmp_path) if undressed \
            else str(CONFIG_DIR / "nv2.json")
        args = ["--config", config, "--out", str(tmp_path), "fit",
                "--model", model_name, "--input", str(REPO_ROOT / trace)]
        if undressed:
            args += ["--undressed", str(REPO_ROOT / undressed)]
        result = invoke(runner, args)
        assert result.exit_code == 0, all_output(result)
        assert (tmp_path / f"fit_{model_name}.txt").read_bytes() \
            == (REPO_ROOT / reference).read_bytes()

    def test_noise_fitted_near_zero_is_flagged_at_its_bound(self, runner,
                                                           tmp_path):
        # 20 nv1 shots to 2 us: gamma_sigma_b_khz ends about 7e-7 above its
        # lower bound 0, which scipy does not mark active, and its CI,
        # -38.4 to 38.4 kHz, runs past that bound
        cfg = ["--config", str(CONFIG_DIR / "nv1.json"), "--out", str(tmp_path)]
        result = invoke(runner, [*cfg, "--seed", "0", "--shots", "20",
                                 "ramsey", "--kind", "undressed_0m1",
                                 "--tau-stop-us", "2"])
        assert result.exit_code == 0, all_output(result)
        result = invoke(runner, [
            *cfg, "fit", "--model", "undressed_ramsey",
            "--input", str(tmp_path / "ramsey_undressed_0m1.csv")])
        assert result.exit_code == 0, all_output(result)
        report = (tmp_path / "fit_undressed_ramsey.txt").read_text()
        assert report.splitlines()[1] \
            == "converged: True (at_bound:gamma_sigma_b_khz)"
        row = next(line.split() for line in report.splitlines()
                   if line.startswith("gamma_sigma_b_khz"))
        assert 0.0 < float(row[1]) < 1e-6
        assert float(row[2]) < 0.0 < float(row[3])

    @pytest.mark.parametrize("bom_files", [("csv",), ("sidecar",),
                                           ("csv", "sidecar")],
                             ids=["csv", "sidecar", "csv_and_sidecar"])
    def test_bom_prefixed_trace_fits_like_the_committed_one(self, runner,
                                                           tmp_path,
                                                           bom_files):
        # spreadsheet programs save CSVs with a UTF-8 byte-order mark
        trace, _, reference = COMMITTED_FITS["ramsey_mp"]
        source = REPO_ROOT / trace
        copy = tmp_path / source.name
        for name, suffix in (("csv", ""), ("sidecar", ".meta.json")):
            bom = b"\xef\xbb\xbf" if name in bom_files else b""
            Path(f"{copy}{suffix}").write_bytes(
                bom + Path(f"{source}{suffix}").read_bytes())
        outputs = []
        for path, out in ((source, tmp_path / "plain"), (copy, tmp_path / "bom")):
            result = invoke(runner, ["--config", str(CONFIG_DIR / "nv2.json"),
                                     "--out", str(out), "fit",
                                     "--input", str(path)])
            assert result.exit_code == 0, all_output(result)
            assert (out / "fit_ramsey_mp.txt").read_bytes() \
                == (REPO_ROOT / reference).read_bytes()
            outputs.append(result.output)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("fault", SIDECAR_FAULTS,
                             ids=[fault[0] for fault in SIDECAR_FAULTS])
    def test_simulator_model_names_the_sidecar_key(self, runner, tmp_path,
                                                   fault):
        # ramsey_0p, undressed_ramsey and max_protection read the pulse
        # from the sidecar
        _, model_name, edit, key = fault
        result = invoke(runner, ["--out", str(tmp_path), "--shots", "2",
                                 "ramsey", "--kind", "dressed_0p",
                                 "--tau-stop-us", "1"])
        assert result.exit_code == 0, all_output(result)
        trace = tmp_path / "ramsey_dressed_0p.csv"
        sidecar = Path(f"{trace}.meta.json")
        meta = json.loads(sidecar.read_text())
        assert meta["omega_rot_khz"] != 250.0   # rounding, which is fine
        if edit is None:
            sidecar.unlink()
        else:
            edit(meta)
            sidecar.write_text(json.dumps(meta))
        result = invoke(runner, ["--out", str(tmp_path), "fit", "--model",
                                 model_name, "--input", str(trace)])
        assert result.exit_code == 2
        assert key in all_output(result)
        assert not (tmp_path / f"fit_{model_name}.txt").exists()

    def test_spectrum_joint_needs_undressed(self, runner, tmp_path):
        trace, _, _ = COMMITTED_FITS["spectrum_joint"]
        result = invoke(runner, ["--config", spec_smoke_config(tmp_path),
                                 "--out", str(tmp_path), "fit",
                                 "--model", "spectrum_joint",
                                 "--input", str(REPO_ROOT / trace)])
        assert result.exit_code == 2
        assert "config error: spectrum_joint needs an undressed CSV too" \
            in all_output(result).splitlines()


    def test_stderr_weights(self, runner, tmp_path):
        # fit.use_stderr_weights weights the committed trace by its stderr
        trace, _, reference = COMMITTED_FITS["ramsey_mp"]
        cfg = load_config(CONFIG_DIR / "nv2.json")
        cfg["fit"]["use_stderr_weights"] = True
        result = invoke(runner, ["--config", write_config(tmp_path, cfg),
                                 "--out", str(tmp_path), "fit",
                                 "--input", str(REPO_ROOT / trace)])
        assert result.exit_code == 0, all_output(result)
        report = (tmp_path / "fit_ramsey_mp.txt").read_text().splitlines()
        assert [line.rstrip() for line in report] == WEIGHTED_RAMSEY_MP_REPORT
        # every free parameter's CI moves
        unweighted = (REPO_ROOT / reference).read_text().splitlines()
        free = [line for line in report[4:] if "frozen" not in line]
        assert len(free) == 4
        assert not set(free) & set(unweighted)

    @pytest.mark.parametrize("zero", ["input", "undressed"])
    def test_zero_stderr_weights_name_the_key_and_file(self, runner,
                                                       tmp_path, zero):
        # a 1-shot trace's stderr is all 0, so it cannot weight a fit
        trace, undressed, _ = COMMITTED_FITS["spectrum_joint"]
        trace, undressed = REPO_ROOT / trace, REPO_ROOT / undressed
        cfg = load_config(spec_smoke_config(tmp_path))
        result = invoke(runner, ["--config", write_config(tmp_path, cfg),
                                 "--out", str(tmp_path / "one"), "--shots",
                                 "1", "spectra", "--omega-khz",
                                 "470" if zero == "input" else "0"])
        assert result.exit_code == 0, all_output(result)
        one_shot = next((tmp_path / "one").glob("*.csv"))
        if zero == "input":
            trace = one_shot
        else:
            undressed = one_shot
        cfg["fit"]["use_stderr_weights"] = True
        out = tmp_path / "out"
        result = invoke(runner, ["--config", write_config(tmp_path, cfg),
                                 "--out", str(out), "fit",
                                 "--model", "spectrum_joint",
                                 "--input", str(trace),
                                 "--undressed", str(undressed)])
        assert result.exit_code == 2
        assert (f"config error: config key $.fit.use_stderr_weights: "
                f"{one_shot} has a zero stderr, and weights need every "
                "stderr positive") in all_output(result).splitlines()
        assert not out.exists()

    def test_stderr_weights_apply_to_spectrum_joint(self, runner, tmp_path):
        # the joint model is weighted by both spectra's stderr columns
        trace, undressed, reference = COMMITTED_FITS["spectrum_joint"]
        cfg = load_config(spec_smoke_config(tmp_path))
        cfg["fit"]["use_stderr_weights"] = True
        result = invoke(runner, ["--config", write_config(tmp_path, cfg),
                                 "--out", str(tmp_path), "fit",
                                 "--model", "spectrum_joint",
                                 "--input", str(REPO_ROOT / trace),
                                 "--undressed", str(REPO_ROOT / undressed)])
        assert result.exit_code == 0, all_output(result)
        report = (tmp_path / "fit_spectrum_joint.txt").read_text().splitlines()
        assert report[1] == "converged: True"
        # every free parameter's CI moves
        unweighted = (REPO_ROOT / reference).read_text().splitlines()
        free = [line for line in report[4:] if "frozen" not in line]
        assert len(free) == 10
        assert not set(free) & set(unweighted)


# fit --model ramsey_mp of out/nv2/ramsey_dressed_mp.csv, weighted by its
# stderr column.
WEIGHTED_RAMSEY_MP_REPORT = [
    "fit: ramsey_mp",
    "converged: True",
    "rss: 2752.32",
    "parameter                value        ci_low       ci_high  unit",
    "c                     0.532045      0.530613      0.533477",
    "t2_us                  7.02251       6.90185       7.14318  us",
    "omega_khz              582.978       582.152       583.803  kHz",
    "phi                    1.58255        1.5752       1.58989  rad",
    "a_par_khz                  150        frozen                kHz",
    "p0_ud                 0.937511        frozen",
]


def _fit_nan_model():
    from nvcdd.fitting import FitParam, ModelFunction, nlls_fit
    model = ModelFunction(name="nan", params=(FitParam("a", 1.0),),
                          evaluator=lambda theta, x: np.full_like(x, np.nan))
    nlls_fit(model, (np.arange(10.0), np.zeros(10)))


NUMERICAL_FAULTS = [
    (HorizonExceeded, RuntimeError, (50.0,)),
    (ZeroRateError, ValueError, ("all rates are zero",)),
    (NormLossError, RuntimeError, ("propagation lost norm",)),
    (NonFiniteResidualsError, ValueError, ("residuals are not finite",)),
]


def run_with_fault(runner, monkeypatch, fault):
    """A rates run whose config step calls fault instead."""
    monkeypatch.setattr(cli, "resolve_config", lambda cfg: fault())
    return runner.invoke(main, ["rates"])


class TestPipeline:
    @pytest.mark.parametrize(
        "error,base,args", NUMERICAL_FAULTS,
        ids=[fault[0].__name__ for fault in NUMERICAL_FAULTS])
    def test_every_numerical_fault_exits_3(self, error, base, args, runner,
                                           monkeypatch):
        assert issubclass(error, NumericalError) and issubclass(error, base)

        def fault():
            raise error(*args)

        result = run_with_fault(runner, monkeypatch, fault)
        assert result.exit_code == 3
        assert result.stderr.startswith("numerical failure: ")

    @pytest.mark.parametrize("fault,message", [
        (_fit_nan_model, "residuals are not finite")])
    def test_numerical_faults_exit_3(self, fault, message, runner,
                                     monkeypatch):
        result = run_with_fault(runner, monkeypatch, fault)
        assert result.exit_code == 3
        assert message in result.stderr

    # Finite but extreme values overflow a float power in dephasing.
    @pytest.mark.parametrize("payload", [
        {"system": {"omega_khz": 1e60}},
        {"system": {"a_par_khz": 1e60}},
        {"noise": {"gamma_sigma_b_khz": 1e100}},
        {"noise": {"sigma_b_mg": 1e308}}],
        ids=["omega_khz", "a_par_khz", "gamma_sigma_b_khz", "sigma_b_mg"])
    def test_overflow_exits_3(self, runner, tmp_path, payload):
        cfg = write_config(tmp_path, payload)
        result = invoke(runner, ["--config", cfg, "--out", str(tmp_path),
                                 "rates"])
        assert result.exit_code == 3
        assert all_output(result).startswith("numerical failure: ")

    @pytest.mark.parametrize("args,code", [
        (["rates"], 0),
        (["--shots", "0", "rates"], 2),
        (["--shots", "2", "ramsey", "--tau-stop-us", "0.1"], 0)],
        ids=["rates", "exit-2", "ramsey"])
    def test_run_keeps_no_output_stream_alive(self, tmp_path, args, code):
        # click.echo without file= caches the stream in a table whose
        # value is the stream itself, so it would never be freed
        sink = io.StringIO()
        sink_ref = weakref.ref(sink)
        status = 0
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            try:
                main(["--out", str(tmp_path), *args], standalone_mode=False)
            except SystemExit as exc:
                status = exc.code
        assert status == code and sink.getvalue()
        del sink
        gc.collect()
        assert sink_ref() is None


# Every number flag (command None for a global flag), a value that
# breaks its config key's rule, the config that writes that value into
# the key, and the error line both give.
NUMBER_FLAG_CASES = [
    (None, "--shots", "0", {"sim": {"shots": 0}},
     "$.sim.shots: 0 is less than the minimum of 1"),
    (None, "--shots", "-3", {"sim": {"shots": -3}},
     "$.sim.shots: -3 is less than the minimum of 1"),
    (None, "--shots", "1000001", {"sim": {"shots": 1000001}},
     "$.sim.shots: 1000001 is greater than the maximum of 1000000"),
    (None, "--shots", "2.5", {"sim": {"shots": 2.5}},
     "$.sim.shots: 2.5 is not of type 'integer'"),
    (None, "--seed", "-1", {"sim": {"seed": -1}},
     "$.sim.seed: -1 is less than the minimum of 0"),
    (None, "--seed", str(2**64), {"sim": {"seed": 2**64}},
     f"$.sim.seed: {2**64} is greater than the maximum of {2**64 - 1}"),
    ("ramsey", "--tau-stop-us", "0", {"ramsey": {"tau_stop_us": 0}},
     "$.ramsey.tau_stop_us: 0 is less than or equal to the minimum of 0"),
    ("ramsey", "--tau-step-us", "0", {"ramsey": {"tau_step_us": 0}},
     "$.ramsey.tau_step_us: 0 is less than or equal to the minimum of 0"),
    ("ramsey", "--omega-mag-khz", "0", {"ramsey": {"omega_mag_khz": 0}},
     "$.ramsey.omega_mag_khz: 0 is less than or equal to the minimum of 0"),
    ("envelope", "--tau-stop-us", "-1", {"envelope": {"tau_stop_us": -1}},
     "$.envelope.tau_stop_us: -1 is less than or equal to the minimum of 0"),
    ("t2scan", "--omega-khz", "-3", {"t2scan": {"omega_list_khz": [-3]}},
     "$.t2scan.omega_list_khz[0]: -3 is less than or equal to the minimum "
     "of 0"),
    ("t2scan", "--omega-khz", "0", {"t2scan": {"omega_list_khz": [0]}},
     "$.t2scan.omega_list_khz[0]: 0 is less than or equal to the minimum "
     "of 0"),
    ("spectra", "--omega-khz", "-1", {"spectra": {"omega_list_khz": [-1]}},
     "$.spectra.omega_list_khz[0]: -1 is less than the minimum of 0"),
]

# Flag values that are no finite JSON number, given before the command
# (global flags) and after it, and click's message for each.
NON_NUMBER_CASES = [
    (None, "--shots", "NaN", "NaN is not a finite number"),
    (None, "--seed", "1e400", "1e400 is not a finite number"),
    (None, "--shots", "abc", "'abc' is not a JSON number"),
    (None, "--seed", "true", "'true' is not a JSON number"),
    ("ramsey", "--tau-step-us", "Infinity", "Infinity is not a finite number"),
    ("ramsey", "--tau-step-us", "nan", "'nan' is not a JSON number"),
    ("ramsey", "--omega-mag-khz", "inf", "'inf' is not a JSON number"),
    ("envelope", "--tau-stop-us", "-inf", "'-inf' is not a JSON number"),
    ("t2scan", "--omega-khz", "nan", "'nan' is not a JSON number"),
    ("t2scan", "--omega-khz", '"5"', "'\"5\"' is not a JSON number"),
    ("spectra", "--omega-khz", "NaN", "NaN is not a finite number"),
]


def case_id(case):
    return " ".join(part for part in case[:3] if part)


def flag_argv(command, flag, value):
    """A global flag goes before the command (rates), a command's after."""
    return [flag, value, "rates"] if command is None \
        else [command, flag, value]


class TestFloatFlags:
    """A number flag is the JSON literal of the config key it sets, and
    the config's checker checks it."""

    @pytest.mark.parametrize("command,flag,value,payload,message",
                             NUMBER_FLAG_CASES,
                             ids=map(case_id, NUMBER_FLAG_CASES))
    def test_flag_fails_as_its_config_key_does(self, runner, tmp_path,
                                               command, flag, value, payload,
                                               message):
        from_flag = invoke(runner, ["--out", str(tmp_path / "o"),
                                    *flag_argv(command, flag, value)])
        from_config = invoke(runner, ["--config",
                                      write_config(tmp_path, payload),
                                      "--out", str(tmp_path / "o"),
                                      command or "rates"])
        for result in (from_flag, from_config):
            assert result.exit_code == 2
            assert result.stderr.splitlines() \
                == [f"config error: config key {message}"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,flag,value,message", NON_NUMBER_CASES,
                             ids=map(case_id, NON_NUMBER_CASES))
    def test_out_of_bound_flag_is_usage_error(self, runner, tmp_path, command,
                                              flag, value, message):
        # not a number at all: click rejects it while parsing, before
        # any config is read or command run
        result = invoke(runner, ["--out", str(tmp_path),
                                 *flag_argv(command, flag, value)])
        assert result.exit_code == 2
        assert f"Invalid value for '{flag}': {message}" in all_output(result)
        assert list(tmp_path.iterdir()) == []

    def test_seed_flag_takes_every_uint64_exactly(self, runner, monkeypatch):
        # a float-based flag would round seeds above 2**53
        res, _ = settings_of(runner, monkeypatch,
                             ["--seed", str(2 ** 64 - 1), "envelope"])
        assert res["sim"].seed == 2 ** 64 - 1

    def test_integral_float_flags_count_as_integers(self, runner,
                                                    monkeypatch):
        # 3.0 is an integer to the config's checker, in a file or a flag
        res, _ = settings_of(runner, monkeypatch,
                             ["--shots", "3.0", "--seed", "4.0", "envelope"])
        assert (res["sim"].n_shots, res["sim"].seed) == (3, 4)

    def test_bounds_come_from_the_schema(self, runner, monkeypatch, tmp_path):
        rule = cli.SCHEMA["properties"]["spectra"]["properties"][
            "omega_list_khz"]["items"]
        monkeypatch.setitem(rule, "minimum", 5)
        result = invoke(runner, ["--out", str(tmp_path), "spectra",
                                 "--omega-khz", "4"])
        assert result.exit_code == 2
        assert "config error: config key $.spectra.omega_list_khz[0]: 4 is " \
            "less than the minimum of 5" in all_output(result).splitlines()
        _, section = settings_of(runner, monkeypatch,
                                 ["spectra", "--omega-khz", "5"])
        assert section["omega_list_khz"] == [5]

    @pytest.mark.parametrize("shots", ["1000001", "1000000000000"])
    def test_too_many_shots_sample_nothing(self, runner, tmp_path,
                                           monkeypatch, shots):
        # a grid point's shots are sampled in one array: 1e12 would ask
        # for terabytes
        from nvcdd import pulse_sim

        def no_sampling(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr(pulse_sim, "_sample_block", no_sampling)
        cfg = write_config(tmp_path, {"sim": {"shots": int(shots)}})
        for head in (["--shots", shots], ["--config", cfg]):
            result = invoke(runner, [*head, "--out", str(tmp_path / "o"),
                                     "ramsey", "--tau-stop-us", "0.1"])
            assert result.exit_code == 2
            assert f"config error: config key $.sim.shots: {shots} is " \
                "greater than the maximum of 1000000" \
                in all_output(result).splitlines()
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("payload,message", [
        ([], "$: [] is not of type 'object'"),
        ({"sim": 5}, "$.sim: 5 is not of type 'object'"),
    ], ids=["config", "sim"])
    def test_flags_over_a_config_of_the_wrong_type(self, runner, tmp_path,
                                                   payload, message):
        # no flag can go into a config or section that is no object
        result = invoke(runner, ["--config", write_config(tmp_path, payload),
                                 "--shots", "3", "--out", str(tmp_path / "o"),
                                 "rates"])
        assert result.exit_code == 2
        assert result.stderr.splitlines() \
            == [f"config error: config key {message}"]


class TestSpectraAndEnvelope:
    def test_spectra_one_file_per_drive(self, runner, tmp_path):
        cfg = write_config(tmp_path, {
            "spectra": {"omega_list_khz": [0.0, 470.0],
                        "detuning_start_khz": -500.0,
                        "detuning_stop_khz": 500.0,
                        "detuning_step_khz": 25.0}})
        result = invoke(runner, ["--config", cfg, "--out", str(tmp_path),
                                 "--shots", "1", "spectra"])
        assert result.exit_code == 0
        assert (tmp_path / "spectrum_omega0khz.csv").exists()
        assert (tmp_path / "spectrum_omega470khz.csv").exists()

    @pytest.mark.parametrize("drives", [["470", "470.0001"], ["0", "0"],
                                        ["0", "-0.0"]])
    def test_colliding_drive_files_are_config_error(
            self, runner, tmp_path, monkeypatch, drives):
        # both drives would write one file, and one spectrum would be lost;
        # rejected before anything is simulated or written
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated")

        monkeypatch.setattr(cli, "simulate_spectrum", no_simulation)
        flags = [arg for om in drives for arg in ("--omega-khz", om)]
        result = invoke(runner, ["--out", str(tmp_path / "o"), "--shots", "5",
                                 "spectra", *flags])
        assert result.exit_code == 2
        assert result.stderr.splitlines() == [
            "config error: config key $.spectra.omega_list_khz: two drives "
            f"would both write spectrum_omega{drives[0]}khz.csv"]
        assert "wrote" not in all_output(result)
        assert not (tmp_path / "o").exists()

    def test_negative_zero_drive_is_the_undressed_run(self, runner,
                                                      tmp_path):
        # -0.0 passes the drives' minimum of 0; it runs, and is named, as 0
        for drive in ("-0.0", "0.0"):
            result = invoke(runner, ["--out", str(tmp_path / drive),
                                     "--shots", "1", "spectra",
                                     "--omega-khz", drive])
            assert result.exit_code == 0, all_output(result)
        names = ["spectrum_omega0khz.csv", "spectrum_omega0khz.csv.meta.json"]
        assert sorted(p.name for p in (tmp_path / "-0.0").iterdir()) == names
        for name in names:
            assert (tmp_path / "-0.0" / name).read_bytes() \
                == (tmp_path / "0.0" / name).read_bytes()

    def test_envelope_columns(self, runner, tmp_path):
        result = invoke(runner, ["--out", str(tmp_path), "envelope",
                                 "--tau-stop-us", "10"])
        assert result.exit_code == 0
        lines = (tmp_path / "envelope.csv").read_text().splitlines()
        assert lines[0] == "tau_us,second_order,max_protection,gaussian_first"
        first_row = [float(v) for v in lines[1].split(",")]
        assert first_row[1] == pytest.approx(1.0, abs=1e-9)

    # each grid fault names the three keys of the command's own section
    @pytest.mark.parametrize("command,payload,line", [
        ("ramsey", {"ramsey": {"tau_start_us": 5.0, "tau_stop_us": 5.0}},
         f"{TAU_KEYS.format('ramsey')} tau_stop_us must exceed "
         "tau_start_us"),
        ("spectra", {"spectra": {"detuning_start_khz": 100.0,
                                 "detuning_stop_khz": -100.0}},
         "config error: config keys $.spectra.detuning_start_khz, "
         "detuning_stop_khz and detuning_step_khz: detuning_stop_khz must "
         "exceed detuning_start_khz"),
        # a step past the stop leaves tau = 0 alone, with no FFT to write
        ("ramsey", {"ramsey": {"tau_stop_us": 0.01}},
         f"{TAU_KEYS.format('ramsey')} ramsey needs at least 2 grid points, "
         "not 1"),
        ("t2scan", {"t2scan": {"mc": True, "tau_start_us": 5.0,
                               "tau_stop_us": 4.0}},
         f"{TAU_KEYS.format('t2scan')} tau_stop_us must exceed "
         "tau_start_us"),
        ("envelope", {"envelope": {"tau_start_us": 5.0, "tau_stop_us": 5.0}},
         f"{TAU_KEYS.format('envelope')} tau_stop_us must exceed "
         "tau_start_us"),
    ], ids=["tau", "detuning", "one_tau", "t2scan_tau", "envelope_tau"])
    def test_empty_grid_is_config_error(self, runner, tmp_path, command,
                                        payload, line):
        result = invoke(runner, ["--config", write_config(tmp_path, payload),
                                 "--out", str(tmp_path / "o"), command])
        assert result.exit_code == 2
        assert result.stderr.splitlines() == [line]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args,section", [
        (["envelope", "--tau-stop-us", "1e12"], None),
        (["spectra"], {"spectra": {"detuning_step_khz": 1e-9}}),
    ])
    def test_oversized_grid_is_config_error(self, runner, tmp_path, args,
                                            section):
        # 2e13 and 1.2e12 points: rejected before anything is allocated
        head = ["--config", write_config(tmp_path, section)] if section \
            else []
        result = invoke(runner, head + ["--out", str(tmp_path)] + args)
        assert result.exit_code == 2
        assert f"config keys $.{args[0]}." in all_output(result)
        assert "the grid has more than 1000000 points" in all_output(result)


SETTINGS = cli._settings


class _SectionRead(Exception):
    """Stops a command once it has read its settings."""


def settings_of(runner, monkeypatch, args):
    """The (resolved config, merged section) a command runs with: the
    command stops when it has read its settings, before any work."""
    seen = {}

    def settings(cfg, name, **flags):
        seen["res"], seen["section"] = SETTINGS(cfg, name, **flags)
        raise _SectionRead

    monkeypatch.setattr(cli, "_settings", settings)
    result = runner.invoke(main, args)
    assert isinstance(result.exception, _SectionRead), all_output(result)
    return seen["res"], seen["section"]


# Command argv with one flag, the config key the flag overrides, a
# config value for that key and the flag's value (a multiple=True flag
# gives a JSON array).
FLAG_OVERRIDES = [
    (["ramsey", "--kind", "dressed_0p"], "ramsey", "kind",
     "max_protection", "dressed_0p"),
    (["ramsey", "--tau-stop-us", "3"], "ramsey", "tau_stop_us", 7.0, 3.0),
    (["ramsey", "--tau-step-us", "0.2"], "ramsey", "tau_step_us", 0.1, 0.2),
    (["ramsey", "--omega-mag-khz", "900"], "ramsey", "omega_mag_khz",
     700.0, 900.0),
    (["envelope", "--tau-stop-us", "3"], "envelope", "tau_stop_us", 7.0, 3.0),
    (["spectra", "--omega-khz", "0", "--omega-khz", "470"], "spectra",
     "omega_list_khz", [230.0], [0.0, 470.0]),
    (["t2scan", "--omega-khz", "348"], "t2scan", "omega_list_khz",
     [230.0], [348.0]),
    (["t2scan", "--mc"], "t2scan", "mc", False, True),
    (["t2scan", "--no-mc"], "t2scan", "mc", True, False),
    (["fit", "--model", "ramsey_0p"], "fit", "model", "ramsey_mp",
     "ramsey_0p"),
    (["fit", "--input", "b.csv"], "fit", "input_csv", "a.csv", "b.csv"),
    (["fit", "--undressed", "b.csv"], "fit", "undressed_csv", "a.csv",
     "b.csv"),
]

# Global flag, its value, a reader of the resolved setting it overrides,
# a config that sets that key and the flag's value.
GLOBAL_OVERRIDES = [
    ("--seed", "5", lambda res: res["sim"].seed, {"sim": {"seed": 9}}, 9, 5),
    ("--shots", "7", lambda res: res["sim"].n_shots, {"sim": {"shots": 9}},
     9, 7),
    ("--out", "flag_dir", lambda res: res["out_dir"],
     {"out_dir": "config_dir"}, "config_dir", "flag_dir"),
]


class TestSettingsMerge:
    """SCHEMA default, then config section, then each flag given."""

    @pytest.mark.parametrize("args,section,key,config_value,flag_value",
                             FLAG_OVERRIDES,
                             ids=[" ".join(case[0]) for case in FLAG_OVERRIDES])
    def test_flag_overrides_its_config_key(self, runner, monkeypatch,
                                           tmp_path, args, section, key,
                                           config_value, flag_value):
        cfg = write_config(tmp_path, {section: {key: config_value}})
        _, from_config = settings_of(runner, monkeypatch,
                                     ["--config", cfg, args[0]])
        _, from_flag = settings_of(runner, monkeypatch, ["--config", cfg, *args])
        assert from_config[key] == config_value
        assert from_flag[key] == flag_value

    @pytest.mark.parametrize("flag,value,read,payload,config_value,flag_value",
                             GLOBAL_OVERRIDES,
                             ids=[case[0] for case in GLOBAL_OVERRIDES])
    def test_global_flag_overrides_its_config_key(self, runner, monkeypatch,
                                                  tmp_path, flag, value, read,
                                                  payload, config_value,
                                                  flag_value):
        cfg = write_config(tmp_path, payload)
        res, _ = settings_of(runner, monkeypatch,
                             ["--config", cfg, "envelope"])
        assert read(res) == config_value
        res, _ = settings_of(runner, monkeypatch,
                             ["--config", cfg, flag, value, "envelope"])
        assert read(res) == flag_value

    @pytest.mark.parametrize("name", ["ramsey", "spectra", "t2scan",
                                      "envelope", "fit"])
    def test_defaults_come_from_the_schema(self, runner, monkeypatch, name):
        res, section = settings_of(runner, monkeypatch, [name])
        rules = cli.SCHEMA["properties"][name]["properties"]
        assert section == {key: rule["default"] for key, rule in rules.items()
                           if "default" in rule}
        assert (res["sim"].seed, res["sim"].n_shots, res["out_dir"]) \
            == (0, 1000, "out")

    def test_section_copies_schema_lists(self):
        rule = cli.SCHEMA["properties"]["t2scan"]["properties"][
            "omega_list_khz"]
        before = list(rule["default"])
        cli._settings({}, "t2scan")[1]["omega_list_khz"].append(1.0)
        assert rule["default"] == before

    def test_ramsey_default_grid(self, runner, tmp_path):
        result = invoke(runner, ["--out", str(tmp_path), "--shots", "2",
                                 "ramsey"])
        assert result.exit_code == 0, all_output(result)
        rows = (tmp_path / "ramsey_dressed_mp.csv").read_text().splitlines()
        tau = [float(row.split(",")[0]) for row in rows[1:]]
        assert len(tau) == 401
        assert tau[0] == 0.0 and tau[-1] == pytest.approx(20.0)

    @pytest.mark.parametrize("payload,message", [
        ({"ramsey": {"omega_rot_khz": 250.0}},
         "config error: config key $.ramsey: Additional properties are not "
         "allowed ('omega_rot_khz' was unexpected)"),
        ({"ramsey": {"closing_phase_rad": 0.0}},
         "config error: config key $.ramsey: Additional properties are not "
         "allowed ('closing_phase_rad' was unexpected)"),
        ({"spectra": {"omega_list_khz": []}},
         "config error: config key $.spectra.omega_list_khz: [] should be "
         "non-empty"),
        ({"noise": {"sigma_b_mg": 1.0, "t2_0m1_us": 5.0}},
         "config error: config key $.noise: 'sigma_b_mg' and 't2_0m1_us' "
         "both set the field noise; give at most one"),
        ({"noise": {"t2_0m1_us": 5.0, "gamma_sigma_b_khz": 40.0,
                    "sigma_b_mg": 1.0}},
         "config error: config key $.noise: 'sigma_b_mg' and "
         "'gamma_sigma_b_khz' and 't2_0m1_us' all set the field noise; "
         "give at most one"),
    ], ids=["omega_rot_khz", "closing_phase_rad", "empty_spectra_list",
            "two_field_noise_keys", "three_field_noise_keys"])
    def test_rejected_config_exits_2(self, runner, tmp_path, payload,
                                     message):
        cfg = write_config(tmp_path, payload)
        result = invoke(runner, ["--config", cfg, "--out", str(tmp_path),
                                 "rates"])
        assert result.exit_code == 2
        assert message in all_output(result).splitlines()


# Each command with flags of its own section, the key those flags set and
# their value in the config the command checks.
COMMAND_FLAGS = [
    (["rates"], {}),
    (["envelope", "--tau-stop-us", "3"], {"envelope": {"tau_stop_us": 3}}),
    (["t2scan", "--omega-khz", "581", "--no-mc"],
     {"t2scan": {"omega_list_khz": [581], "mc": False}}),
    (["ramsey", "--kind", "dressed_0p", "--tau-stop-us", "0.2"],
     {"ramsey": {"kind": "dressed_0p", "tau_stop_us": 0.2}}),
    (["spectra", "--omega-khz", "0", "--omega-khz", "470"],
     {"spectra": {"omega_list_khz": [0, 470]}}),
    (["fit", "--model", "ramsey_mp", "--input",
      str(REPO_ROOT / "out" / "nv2" / "ramsey_dressed_mp.csv")],
     {"fit": {"model": "ramsey_mp", "input_csv": str(
         REPO_ROOT / "out" / "nv2" / "ramsey_dressed_mp.csv")}}),
]


class TestOneCheck:
    """A command's flags take their keys' places before the one check of
    the whole config."""

    @pytest.mark.parametrize("args,checked", COMMAND_FLAGS,
                             ids=[case[0][0] for case in COMMAND_FLAGS])
    def test_each_run_checks_its_config_once(self, runner, tmp_path,
                                             monkeypatch, args, checked):
        calls, validate = [], cli.validate_config

        def counted(cfg):
            calls.append(cfg)
            validate(cfg)

        monkeypatch.setattr(cli, "validate_config", counted)
        out = str(tmp_path / "o")
        result = invoke(runner, ["--out", out, "--shots", "2", *args])
        assert result.exit_code == 0, all_output(result)
        assert calls == [{"out_dir": out, "sim": {"shots": 2}, **checked}]

    @pytest.mark.parametrize("payload,args,written", [
        ({"ramsey": {"tau_stop_us": -1}}, ["ramsey", "--tau-stop-us", "0.5"],
         "ramsey_dressed_mp.csv"),
        ({"t2scan": {"omega_list_khz": []}}, ["t2scan", "--omega-khz", "581"],
         "t2scan.csv"),
    ], ids=["ramsey_tau_stop_us", "t2scan_omega_list_khz"])
    def test_flag_replaces_a_bad_key_of_its_section(self, runner, tmp_path,
                                                    payload, args, written):
        result = invoke(runner, ["--config", write_config(tmp_path, payload),
                                 "--out", str(tmp_path / "o"), "--shots", "2",
                                 *args])
        assert result.exit_code == 0, all_output(result)
        assert (tmp_path / "o" / written).exists()

    def test_command_help_under_a_bad_config(self, runner, tmp_path):
        # help is shown before any command checks the config
        cfg = write_config(tmp_path, {"sim": {"shots": 0}})
        result = invoke(runner, ["--config", cfg, "ramsey", "--help"])
        assert result.exit_code == 0, all_output(result)
        assert result.output.startswith("Usage: ")
        assert "--tau-stop-us" in result.output

    def test_command_help_under_a_config_that_is_no_json(self, runner,
                                                         tmp_path):
        # the file is read when a command resolves its settings, after
        # click has shown the help
        path = tmp_path / "broken.json"
        path.write_text('{"sim": ')
        result = invoke(runner, ["--config", str(path), "ramsey", "--help"])
        assert result.exit_code == 0, all_output(result)
        assert result.output.startswith("Usage: ")
        assert "--tau-stop-us" in result.output
        result = invoke(runner, ["--config", str(path), "--out",
                                 str(tmp_path / "o"), "ramsey"])
        assert result.exit_code == 2
        assert result.stderr.splitlines() == [
            f"config error: {path}:1: invalid JSON: Expecting value"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args", [case[0] for case in COMMAND_FLAGS],
                             ids=[case[0][0] for case in COMMAND_FLAGS])
    def test_bad_key_of_another_section_fails_every_command(
            self, runner, tmp_path, args):
        # no flag of the command replaces it, so the one check sees it
        other = "t2scan" if args[0] == "spectra" else "spectra"
        cfg = write_config(tmp_path, {other: {"omega_list_khz": []}})
        result = invoke(runner, ["--config", cfg, "--out", str(tmp_path / "o"),
                                 "--shots", "2", *args])
        assert result.exit_code == 2
        assert result.stderr.splitlines() == [
            f"config error: config key $.{other}.omega_list_khz: [] should "
            "be non-empty"]
        assert not (tmp_path / "o").exists()
