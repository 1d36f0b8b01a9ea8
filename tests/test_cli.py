import json
import re
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
import jsonschema

from nvcdd import cli
from nvcdd.cli import ConfigError, load_config, main, resolve_config
from nvcdd.dephasing import HorizonExceeded, ZeroRateError
from nvcdd.errors import NumericalError
from nvcdd.fitting import NonFiniteResidualsError
from nvcdd.models import FIT_MODELS
from nvcdd.pulse_sim import NormLossError
from nvcdd.spin_model import NonHermitianError

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
            assert resolved["shots"] > 0

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
         "allowed ('turbo' was unexpected)")], ids=["type", "best_match"])
    def test_error_line_is_exact(self, runner, tmp_path, payload, line):
        cfg = write_config(tmp_path, payload)
        result = invoke(runner, ["--config", cfg, "rates"])
        assert result.exit_code == 2
        assert line in all_output(result).splitlines()

    def test_schema_is_valid_draft_2020_12(self):
        jsonschema.Draft202012Validator.check_schema(cli.SCHEMA)

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
        assert resolve_config(load_config(cfg))["seed"] == 2**64 - 1

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

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            resolve_config({"preset": "nv3"})


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

    def test_numerical_failure_exit_code(self, runner, tmp_path):
        # noise so weak the envelope never reaches 1/e inside the horizon
        cfg = write_config(tmp_path, {
            "noise": {"gamma_sigma_b_khz": 1e-9, "sigma_t_c": 0.25}})
        result = invoke(runner, ["--config", cfg, "--out", str(tmp_path),
                                 "t2scan", "--omega-khz", "581", "--no-mc"])
        assert result.exit_code == 3


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
        result = invoke(runner, ["--out", str(tmp_path), "fit"])
        assert result.exit_code == 2

    def test_fit_header_only_csv_is_config_error(self, runner, tmp_path):
        path = tmp_path / "header_only.csv"
        path.write_text("abscissa,mean_p0,stderr,n_shots\n")
        result = invoke(runner, ["--out", str(tmp_path), "fit",
                                 "--model", "ramsey_mp", "--input", str(path)])
        assert result.exit_code == 2
        assert "header_only.csv:2:" in all_output(result)

    @pytest.mark.parametrize("row,sidecar,where", [
        ("0.1,0.5,0.01,100.5", None, "trace.csv:3:"),
        ("0.1,nan,0.01,100", None, "trace.csv:3:"),
        ("0.1,0.5,inf,100", None, "trace.csv:3:"),
        ("nan,0.5,0.01,100", None, "trace.csv:3: abscissa must be finite"),
        ("inf,0.5,0.01,100", None, "trace.csv:3: abscissa must be finite"),
        ("0.1,0.5,0.01,100", "{not json", "trace.csv.meta.json:1:"),
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

    def test_norm_loss_is_numerical_error(self, runner, tmp_path,
                                          monkeypatch):
        from nvcdd import pulse_sim
        apply_eigen = pulse_sim._apply_eigen
        monkeypatch.setattr(pulse_sim, "_apply_eigen",
                            lambda *args: 1.01 * apply_eigen(*args))
        result = invoke(runner, ["--out", str(tmp_path), "--shots", "2",
                                 "ramsey", "--tau-stop-us", "0.1"])
        assert result.exit_code == 3
        assert "norm" in all_output(result)

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

    def test_spectrum_joint_needs_undressed(self, runner, tmp_path):
        trace, _, _ = COMMITTED_FITS["spectrum_joint"]
        result = invoke(runner, ["--config", spec_smoke_config(tmp_path),
                                 "--out", str(tmp_path), "fit",
                                 "--model", "spectrum_joint",
                                 "--input", str(REPO_ROOT / trace)])
        assert result.exit_code == 2
        assert "config error: spectrum_joint needs an undressed CSV too" \
            in all_output(result).splitlines()


def _fit_nan_model():
    from nvcdd.fitting import FitParam, ModelFunction, nlls_fit
    model = ModelFunction(name="nan", params=(FitParam("a", 1.0),),
                          evaluator=lambda theta, x: np.full_like(x, np.nan))
    nlls_fit(model, (np.arange(10.0), np.zeros(10)))


def _diagonalize_non_hermitian():
    from nvcdd.spin_model import diagonalize
    diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]]))


NUMERICAL_FAULTS = [
    (HorizonExceeded, RuntimeError, (50.0,)),
    (ZeroRateError, ValueError, ("all rates are zero",)),
    (NormLossError, RuntimeError, ("propagation lost norm",)),
    (NonHermitianError, ValueError, ("not Hermitian",)),
    (NonFiniteResidualsError, ValueError, ("residuals are not finite",)),
]


class TestPipeline:
    @pytest.mark.parametrize(
        "error,base,args", NUMERICAL_FAULTS,
        ids=[fault[0].__name__ for fault in NUMERICAL_FAULTS])
    def test_every_numerical_fault_exits_3(self, error, base, args, capsys):
        assert issubclass(error, NumericalError) and issubclass(error, base)

        def fault():
            raise error(*args)

        with pytest.raises(SystemExit) as exit_info:
            cli.pipeline(fault)()
        assert exit_info.value.code == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")

    @pytest.mark.parametrize("fault,message", [
        (_fit_nan_model, "residuals are not finite"),
        (_diagonalize_non_hermitian, "not Hermitian")])
    def test_numerical_faults_exit_3(self, fault, message, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.pipeline(fault)()
        assert exit_info.value.code == 3
        assert message in capsys.readouterr().err

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


FLOAT_FLAG_CASES = [
    ("ramsey", "--tau-stop-us", "0", "0.0 is not in the range x>0."),
    ("ramsey", "--tau-step-us", "0", "0.0 is not in the range x>0."),
    ("ramsey", "--tau-step-us", "nan", "nan is not a finite number"),
    ("ramsey", "--omega-mag-khz", "0", "0.0 is not in the range x>0."),
    ("ramsey", "--omega-mag-khz", "inf", "inf is not a finite number"),
    ("envelope", "--tau-stop-us", "-1", "-1.0 is not in the range x>0."),
    ("envelope", "--tau-stop-us", "-inf", "-inf is not in the range x>0."),
    ("t2scan", "--omega-khz", "-3", "-3.0 is not in the range x>0."),
    ("t2scan", "--omega-khz", "0", "0.0 is not in the range x>0."),
    ("t2scan", "--omega-khz", "nan", "nan is not a finite number"),
    ("spectra", "--omega-khz", "-1", "-1.0 is not in the range x>=0."),
    ("spectra", "--omega-khz", "NaN", "NaN is not a finite number"),
]


class TestFloatFlags:
    """A flag that overrides a config key obeys that key's schema bound."""

    @pytest.mark.parametrize("command,flag,value,message", FLOAT_FLAG_CASES,
                             ids=[" ".join(case[:3])
                                  for case in FLOAT_FLAG_CASES])
    def test_out_of_bound_flag_is_usage_error(self, runner, tmp_path, command,
                                              flag, value, message):
        result = invoke(runner, ["--out", str(tmp_path), command, flag, value])
        assert result.exit_code == 2
        assert f"Invalid value for '{flag}': {message}" in all_output(result)
        assert list(tmp_path.iterdir()) == []

    def test_bounds_come_from_the_schema(self, monkeypatch):
        rule = cli.SCHEMA["properties"]["spectra"]["properties"][
            "omega_list_khz"]["items"]
        monkeypatch.setitem(rule, "minimum", 5)
        flag = cli._ConfigFloat("spectra", "omega_list_khz")
        assert flag.convert("5", None, None) == 5.0
        with pytest.raises(click.BadParameter, match="range x>=5"):
            flag.convert("4", None, None)


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

    def test_envelope_columns(self, runner, tmp_path):
        result = invoke(runner, ["--out", str(tmp_path), "envelope",
                                 "--tau-stop-us", "10"])
        assert result.exit_code == 0
        lines = (tmp_path / "envelope.csv").read_text().splitlines()
        assert lines[0] == "tau_us,second_order,max_protection,gaussian_first"
        first_row = [float(v) for v in lines[1].split(",")]
        assert first_row[1] == pytest.approx(1.0, abs=1e-9)
