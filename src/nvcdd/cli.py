"""Command-line pipelines composing the simulator, analytics, and fitting.

Every command is driven by a JSON config plus a few override flags. The
config contract is ``SCHEMA`` below (JSON Schema draft 2020-12), the only
copy of it: its preset, Ramsey-kind and fit-model enums come from the
registries, and its ``default`` values are the CLI's defaults. A flag,
if given, overrides the config key its Python name names.
``configs/nv1.json`` and ``configs/nv2.json`` are examples.
All frequencies in configs and reports are ordinary kHz, converted to
angular units at the boundary.
Outputs are plottable CSV artifacts plus text fit reports, deterministic
for a given (config, seed).

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from .dephasing import (
    FixedAmplitudeNoise,
    NoiseSpec,
    ReflectometerNoise,
    envelope_max_protection,
    envelope_second_order,
    gaussian_envelope,
    predicted_t2_mp,
    rate_amplitude_mp,
    rate_magnetic_mp,
    sigma_b_from_t2,
)
from .fitting import format_fit_report, nlls_fit
from .errors import NumericalError
from .models import FIT_MODELS
from .presets import PRESETS
from .pulse_sim import (
    RAMSEY_KINDS,
    SimConfig,
    fourier_magnitude,
    read_trace_csv,
    simulate_ramsey,
    simulate_spectrum,
    write_trace_csv,
)
from .spin_model import SystemParams, mechanical_cutoff
from .units import GAMMA, DD_DT, angular_to_khz, khz_to_angular, mhz_to_angular

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_MAX_GRID_POINTS = 10**6

_AMPLITUDE_SCHEMA = {
    "type": "object",
    "properties": {
        "mode": {"enum": ["fixed", "reflectometer"]},
        "sigma_omega_khz": {"type": "number", "minimum": 0, "default": 0.0},
        "eta": {"type": "number", "minimum": 0},
        "alpha_khz": {"type": "number"},
    },
    "required": ["mode"],
    "additionalProperties": False,
    "default": {"mode": "fixed"},
}


def _tau_grid_keys(stop: float, step: float) -> dict:
    """Rules of a tau_{start,stop,step}_us grid, by default 0..stop by step."""
    positive = {"type": "number", "exclusiveMinimum": 0}
    return {"tau_start_us": {"type": "number", "minimum": 0, "default": 0.0},
            "tau_stop_us": {**positive, "default": stop},
            "tau_step_us": {**positive, "default": step}}


SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "nvcdd scenario config",
    "type": "object",
    "properties": {
        "preset": {"enum": sorted(PRESETS), "default": "nv2"},
        "out_dir": {"type": "string", "default": "out"},
        "system": {
            "type": "object",
            "properties": {
                "omega_khz": {"type": "number", "minimum": 0},
                "delta_khz": {"type": "number", "default": 0.0},
                "a_par_khz": {"type": "number", "minimum": 0},
                "omega_mech_mhz": {"type": "number", "exclusiveMinimum": 0},
                "q_factor": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "noise": {
            "type": "object",
            "properties": {
                "sigma_b_mg": {"type": "number", "minimum": 0},
                "gamma_sigma_b_khz": {"type": "number", "minimum": 0},
                "t2_0m1_us": {"type": "number", "exclusiveMinimum": 0},
                "sigma_t_c": {"type": "number", "minimum": 0},
                "amplitude": _AMPLITUDE_SCHEMA,
            },
            # field noise takes at most one key; the preset fills it otherwise
            "allOf": [{"not": {"required": pair}} for pair in (
                ["sigma_b_mg", "gamma_sigma_b_khz"], ["sigma_b_mg", "t2_0m1_us"],
                ["gamma_sigma_b_khz", "t2_0m1_us"])],
            "additionalProperties": False,
        },
        "sim": {
            "type": "object",
            "properties": {
                "shots": {"type": "integer", "minimum": 1, "default": 1000},
                "seed": {"type": "integer", "minimum": 0, "default": 0},
            },
            "additionalProperties": False,
        },
        "ramsey": {
            "type": "object",
            "properties": {
                "kind": {"enum": list(RAMSEY_KINDS), "default": "dressed_mp"},
                **_tau_grid_keys(20.0, 0.05),
                "omega_mag_khz": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "spectra": {
            "type": "object",
            "properties": {
                "omega_list_khz": {
                    "type": "array",
                    "items": {"type": "number", "minimum": 0},
                    "minItems": 1, "default": [0.0, 230.0, 470.0, 670.0],
                },
                "detuning_start_khz": {"type": "number", "default": -600.0},
                "detuning_stop_khz": {"type": "number", "default": 600.0},
                "detuning_step_khz": {"type": "number", "exclusiveMinimum": 0,
                                      "default": 4.0},
                "omega_mag_khz": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "t2scan": {
            "type": "object",
            "properties": {
                "omega_list_khz": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 1, "default": [230.0, 348.0, 470.0, 581.0],
                },
                "power_leveled": {"type": "boolean", "default": True},
                "mc": {"type": "boolean", "default": False},
                **_tau_grid_keys(25.0, 0.1),
            },
            "additionalProperties": False,
        },
        "envelope": {
            "type": "object",
            "properties": _tau_grid_keys(30.0, 0.05),
            "additionalProperties": False,
        },
        "fit": {
            "type": "object",
            "properties": {
                "model": {"enum": list(FIT_MODELS)},
                "input_csv": {"type": "string"},
                "undressed_csv": {"type": "string"},
                "p0_ud": {"type": "number", "exclusiveMinimum": 0},
                "use_stderr_weights": {"type": "boolean", "default": False},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}


class ConfigError(Exception):
    pass


class _ConfigFloat(click.FloatRange):
    """A float flag that overrides a config key: finite, and held to the
    bound SCHEMA gives that key (or its items, for a list key)."""

    def __init__(self, section: str, key: str):
        rule = SCHEMA["properties"][section]["properties"][key]
        rule = rule.get("items", rule)
        super().__init__(rule.get("minimum", rule.get("exclusiveMinimum")),
                         min_open="exclusiveMinimum" in rule)

    def convert(self, value, param, ctx):
        number = super().convert(value, param, ctx)
        if not math.isfinite(number):
            self.fail(f"{value} is not a finite number", param, ctx)
        return number


def load_config(path) -> dict:
    """Read and schema-validate a JSON scenario config.

    Every number must be finite as a float: NaN, +-Infinity and literals
    that overflow a float (``1e400``, a 400-digit integer) are config errors.
    """
    def finite(parse):
        def hook(text):
            if not math.isfinite(float(text)):
                shown = text if len(text) <= 20 else text[:17] + "..."
                raise ConfigError(f"{path}: {shown} is not a finite number")
            return parse(text)
        return hook

    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh, parse_constant=finite(float),
                            parse_float=finite(float), parse_int=finite(int))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    validate_config(cfg)
    return cfg


@functools.cache
def _config_validator():
    """SCHEMA's validator, built once: jsonschema.validate would check
    SCHEMA against the metaschema on every call (a test does that once).
    jsonschema is imported here, so runs without a config never load it."""
    import jsonschema
    return jsonschema.Draft202012Validator(SCHEMA)


def validate_config(cfg: dict) -> None:
    from jsonschema.exceptions import best_match
    error = best_match(_config_validator().iter_errors(cfg))
    if error is not None:
        raise ConfigError(f"config key {error.json_path}: {error.message}") \
            from error


def _given(**flags) -> dict:
    """The flags given: neither None nor a multiple=True option's ()."""
    return {key: value for key, value in flags.items()
            if value is not None and value != ()}


def _merged(rule: dict, section: dict, **flags) -> dict:
    """The defaults of an object rule of SCHEMA, overlaid by a config
    section, overlaid by every flag given.  Default lists are copied, so
    no caller can edit SCHEMA."""
    defaults = {key: copy.copy(prop["default"])
                for key, prop in rule["properties"].items() if "default" in prop}
    return {**defaults, **section, **_given(**flags)}


def _section(res: dict, name: str, **flags) -> dict:
    """The settings of one command: see _merged."""
    return _merged(SCHEMA["properties"][name], res["raw"].get(name, {}),
                   **flags)


def resolve_config(cfg: dict) -> dict:
    """Fill preset defaults and convert units; returns plain runtime values.

    Resulting dict holds the SystemParams (angular units), a NoiseSpec,
    shot/seed counts, and the raw per-command sections.
    """
    top = _merged(SCHEMA, cfg)
    preset = PRESETS.get(top["preset"])
    if preset is None:
        raise ConfigError(f"unknown preset {top['preset']!r}")
    system = {**preset, **_merged(SCHEMA["properties"]["system"],
                                  cfg.get("system", {}))}
    params = SystemParams(
        omega=khz_to_angular(system["omega_khz"]),
        delta=khz_to_angular(system["delta_khz"]),
        a_par=khz_to_angular(system["a_par_khz"]),
        omega_mech=mhz_to_angular(system["omega_mech_mhz"]),
        q_factor=system["q_factor"],
    )

    noise_cfg = _merged(SCHEMA["properties"]["noise"], cfg.get("noise", {}))
    if "sigma_b_mg" in noise_cfg:
        sigma_b = noise_cfg["sigma_b_mg"]
    elif "gamma_sigma_b_khz" in noise_cfg:
        sigma_b = khz_to_angular(noise_cfg["gamma_sigma_b_khz"]) / GAMMA
    elif "t2_0m1_us" in noise_cfg:
        sigma_b = sigma_b_from_t2(noise_cfg["t2_0m1_us"])
    elif preset["gamma_sigma_b_khz"] is not None:
        sigma_b = khz_to_angular(preset["gamma_sigma_b_khz"]) / GAMMA
    else:
        sigma_b = sigma_b_from_t2(preset["t2_0m1_us"])
    sigma_t = noise_cfg.get("sigma_t_c", preset["sigma_t_c"])
    amp_cfg = _merged(_AMPLITUDE_SCHEMA, noise_cfg["amplitude"])
    if amp_cfg["mode"] == "fixed":
        amplitude = FixedAmplitudeNoise(khz_to_angular(amp_cfg["sigma_omega_khz"]))
    else:
        if "eta" not in amp_cfg or "alpha_khz" not in amp_cfg:
            raise ConfigError(
                "config key $.noise.amplitude: reflectometer mode needs "
                "'eta' and 'alpha_khz'")
        amplitude = ReflectometerNoise(
            eta=amp_cfg["eta"],
            alpha_diode=khz_to_angular(amp_cfg["alpha_khz"]))
    noise = NoiseSpec(sigma_b=sigma_b, sigma_t=sigma_t, amplitude_noise=amplitude)

    sim = _merged(SCHEMA["properties"]["sim"], cfg.get("sim", {}))
    # The schema's "integer" also admits integral floats such as 3.0.
    return {"params": params, "noise": noise, "shots": int(sim["shots"]),
            "seed": int(sim["seed"]), "out_dir": top["out_dir"], "raw": cfg}


def _grid(section: dict, key: str):
    """Evenly spaced grid, stop included, from the section keys
    key.format("start"/"stop"/"step").  Grids of more than
    _MAX_GRID_POINTS points are config errors, not allocations."""
    start_key, stop_key, step_key = (key.format(part)
                                     for part in ("start", "stop", "step"))
    start, stop, step = section[start_key], section[stop_key], section[step_key]
    if stop <= start:
        raise ConfigError(f"{stop_key} must exceed {start_key}")
    # np.arange gives ceil((stop - start) / step + 0.5) points
    if (stop - start) / step + 0.5 > _MAX_GRID_POINTS:
        raise ConfigError(f"the grid {start_key}..{stop_key} by {step_key} "
                          f"has more than {_MAX_GRID_POINTS} points")
    return np.arange(start, stop + 0.5 * step, step)


def _write_rows(path: Path, header: str, rows) -> None:
    lines = [header, *(",".join(f"{v:.10g}" for v in row) for row in rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def pipeline(fn):
    """Map domain failures onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except (NumericalError, ArithmeticError) as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL)
        except ValueError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(EXIT_IO)

    return wrapper


class _PipelineGroup(click.Group):
    """A command group whose callback and subcommands run through pipeline."""

    def invoke(self, ctx):
        return pipeline(super().invoke)(ctx)


@click.group(cls=_PipelineGroup)
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="JSON scenario config; defaults to the nv2 preset.")
@click.option("--seed", type=int, default=None, help="Override RNG seed.")
@click.option("--shots", type=int, default=None, help="Override shots per point.")
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Override output directory.")
@click.pass_context
def main(ctx, config_path, **flags):
    """Continuous-dynamical-decoupling simulation and analysis pipelines."""
    cfg = load_config(config_path) if config_path else {}
    # the flags override the resolved sim.seed, sim.shots and out_dir
    ctx.obj = {**resolve_config(cfg), **_given(**flags)}


def _out_dir(res: dict) -> Path:
    path = Path(res["out_dir"])
    path.mkdir(parents=True, exist_ok=True)
    return path


def _sim_config(res: dict) -> SimConfig:
    return SimConfig(n_shots=res["shots"], seed=res["seed"], noise=res["noise"])


@main.command()
@click.pass_obj
def rates(res):
    """Print the dephasing-rate budget and predicted coherence times."""
    params = res["params"]
    noise = res["noise"]
    sigma_omega = noise.sigma_omega(params.omega)
    gsb_khz = angular_to_khz(GAMMA * noise.sigma_b)
    thermal_t2 = math.sqrt(2.0) / (abs(DD_DT) * noise.sigma_t) \
        if noise.sigma_t else math.inf
    cutoff = mechanical_cutoff(params.omega_mech, params.q_factor)
    gamma_b = rate_magnetic_mp(params.omega, params.a_par, noise.sigma_b)
    gamma_om = rate_amplitude_mp(params.omega, params.a_par, sigma_omega)
    t2_first = predicted_t2_mp(params.omega, params.a_par, noise.sigma_b,
                               sigma_omega, order="first")
    t2_second = predicted_t2_mp(params.omega, params.a_par, noise.sigma_b,
                                sigma_omega, order="second")
    lines = [
        f"omega/2pi           : {angular_to_khz(params.omega):10.2f} kHz",
        f"a_par/2pi           : {angular_to_khz(params.a_par):10.2f} kHz",
        f"gamma*sigma_b/2pi   : {gsb_khz:10.2f} kHz  (sigma_b = {noise.sigma_b:.2f} mG)",
        f"sigma_Omega/2pi     : {angular_to_khz(sigma_omega):10.2f} kHz",
        f"thermal-limit T2*   : {thermal_t2:10.2f} us  (sigma_T = {noise.sigma_t:.2f} C)",
        f"mech cutoff w_c/2pi : {angular_to_khz(cutoff):10.2f} kHz",
        f"Gamma_magnetic     : {gamma_b:10.4f} rad/us",
        f"Gamma_amplitude    : {gamma_om:10.4f} rad/us",
        f"T2*_mp (first)      : {t2_first:10.2f} us",
        f"T2*_mp (second)     : {t2_second:10.2f} us",
    ]
    report = "\n".join(lines)
    click.echo(report)
    (_out_dir(res) / "rates.txt").write_text(report + "\n", encoding="utf-8")


@main.command()
@click.option("--omega-khz", "omega_list_khz", multiple=True,
              type=_ConfigFloat("t2scan", "omega_list_khz"),
              help="Override the mechanical Rabi scan list.")
@click.option("--mc/--no-mc", default=None,
              help="Toggle the Monte-Carlo simulate-and-fit column.")
@click.pass_obj
def t2scan(res, **flags):
    """Scan T2* of the {m,p} qubit against the mechanical drive strength."""
    section = _section(res, "t2scan", **flags)
    tau = _grid(section, "tau_{}_us")
    noise = res["noise"]
    if section["power_leveled"]:
        noise = NoiseSpec(noise.sigma_b, noise.sigma_t, FixedAmplitudeNoise(0.0))
    a_par = res["params"].a_par
    gsb_khz = angular_to_khz(GAMMA * noise.sigma_b)
    rows = []
    for om_khz in section["omega_list_khz"]:
        omega = khz_to_angular(om_khz)
        sigma_omega = noise.sigma_omega(omega)
        t2_first = predicted_t2_mp(omega, a_par, noise.sigma_b,
                                   sigma_omega, order="first")
        t2_second = predicted_t2_mp(omega, a_par, noise.sigma_b,
                                    sigma_omega, order="second")
        t2_mc, mc_err = math.nan, math.nan
        if section["mc"]:
            params = res["params"].with_omega(omega)
            cfg = SimConfig(n_shots=res["shots"], seed=res["seed"], noise=noise)
            trace = simulate_ramsey("dressed_mp", tau, params, cfg)
            model, data = FIT_MODELS["ramsey_mp"](trace, None, params,
                                                  gsb_khz, None)
            outcome = nlls_fit(model, data)
            t2_mc = outcome.params["t2_us"]
            mc_err = outcome.ci_halfwidth("t2_us")
        rows.append((om_khz, t2_first, t2_second, t2_mc, mc_err))
    path = _out_dir(res) / "t2scan.csv"
    _write_rows(path, "omega_khz,t2_first_us,t2_second_us,t2_mc_us,mc_err_us",
                rows)
    click.echo(f"wrote {path}")


@main.command()
@click.option("--kind", type=click.Choice(RAMSEY_KINDS))
@click.option("--tau-stop-us", type=_ConfigFloat("ramsey", "tau_stop_us"))
@click.option("--tau-step-us", type=_ConfigFloat("ramsey", "tau_step_us"))
@click.option("--omega-mag-khz", type=_ConfigFloat("ramsey", "omega_mag_khz"))
@click.pass_obj
def ramsey(res, **flags):
    """Simulate a Ramsey trace; writes the trace and its Fourier magnitude."""
    section = _section(res, "ramsey", **flags)
    kind = section["kind"]
    tau = _grid(section, "tau_{}_us")
    # without omega_mag_khz the simulator picks the kind's pulse strength
    kwargs = {"omega_mag": khz_to_angular(section["omega_mag_khz"])} \
        if "omega_mag_khz" in section else {}
    trace = simulate_ramsey(kind, tau, res["params"], _sim_config(res), **kwargs)
    out = _out_dir(res)
    trace_path = out / f"ramsey_{kind}.csv"
    write_trace_csv(trace, trace_path)
    freq, mag = fourier_magnitude(trace)
    _write_rows(out / f"ramsey_{kind}_fft.csv", "freq_khz,magnitude",
                zip(freq, mag))
    click.echo(f"wrote {trace_path}")


@main.command()
@click.option("--omega-khz", "omega_list_khz", multiple=True,
              type=_ConfigFloat("spectra", "omega_list_khz"),
              help="Override the drive list; 0 means undressed.")
@click.pass_obj
def spectra(res, **flags):
    """Simulate pulsed spectra across a list of mechanical drive strengths."""
    section = _section(res, "spectra", **flags)
    grid = khz_to_angular(_grid(section, "detuning_{}_khz"))
    kwargs = {"omega_mag": khz_to_angular(section["omega_mag_khz"])} \
        if "omega_mag_khz" in section else {}
    cfg = _sim_config(res)
    out = _out_dir(res)
    for om_khz in section["omega_list_khz"]:
        params = res["params"].with_omega(khz_to_angular(om_khz))
        trace = simulate_spectrum(grid, params, cfg, **kwargs)
        path = out / f"spectrum_omega{om_khz:g}khz.csv"
        write_trace_csv(trace, path)
        click.echo(f"wrote {path}")


@main.command()
@click.option("--tau-stop-us", type=_ConfigFloat("envelope", "tau_stop_us"))
@click.pass_obj
def envelope(res, **flags):
    """Tabulate the analytic envelopes against their Gaussian references."""
    tau = _grid(_section(res, "envelope", **flags), "tau_{}_us")
    noise = res["noise"]
    params = res["params"]
    f = envelope_second_order(tau, params.omega, noise.sigma_b, params.a_par)
    h = envelope_max_protection(tau, params.omega, noise.sigma_b)
    t2_first = predicted_t2_mp(params.omega, params.a_par, noise.sigma_b,
                               order="first")
    g = gaussian_envelope(tau, t2_first)
    path = _out_dir(res) / "envelope.csv"
    _write_rows(path, "tau_us,second_order,max_protection,gaussian_first",
                zip(tau, f, h, g))
    click.echo(f"wrote {path}")


@main.command()
@click.option("--model", type=click.Choice(list(FIT_MODELS)))
@click.option("--input", "input_csv", type=click.Path(),
              help="Trace CSV to fit (dressed spectrum for spectrum_joint).")
@click.option("--undressed", "undressed_csv", type=click.Path(),
              help="Undressed spectrum CSV (spectrum_joint only).")
@click.pass_obj
def fit(res, **flags):
    """Fit a signal model to a trace CSV and write the report."""
    section = _section(res, "fit", **flags)
    model_name, input_csv = section.get("model"), section.get("input_csv")
    if not model_name or not input_csv:
        raise ConfigError("fit needs a model name and an input CSV")
    trace = read_trace_csv(input_csv)
    undressed_csv = section.get("undressed_csv")
    undressed = read_trace_csv(undressed_csv) if undressed_csv else None
    gsb_khz = angular_to_khz(GAMMA * res["noise"].sigma_b)
    try:
        model, data = FIT_MODELS[model_name](trace, undressed, res["params"],
                                             gsb_khz, section.get("p0_ud"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    sigma = None
    if section["use_stderr_weights"]:
        if data is not trace:   # spectrum_joint fits two stacked traces
            raise ConfigError(f"fit.use_stderr_weights does not apply to "
                              f"the {model_name} model")
        sigma = trace.stderr
    outcome = nlls_fit(model, data, sigma)

    report = format_fit_report(model, outcome)
    click.echo(report)
    path = _out_dir(res) / f"fit_{model_name}.txt"
    path.write_text(report + "\n", encoding="utf-8")
    if not outcome.converged:
        click.echo("fit did not converge", err=True)
        sys.exit(EXIT_NUMERICAL)


if __name__ == "__main__":
    main()
