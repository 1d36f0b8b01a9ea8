"""Command-line pipelines composing the simulator, analytics, and fitting.

Every command is driven by a JSON config plus a few override flags. The
config contract is ``SCHEMA`` below (JSON Schema draft 2020-12), the only
copy of it: its preset, Ramsey-kind and fit-model enums come from the
registries, its ``default`` values are the CLI's defaults, and
``validate_config`` checks its keywords in-house, worded as jsonschema
words them. A flag, if given, replaces the config key its Python name
names (under ``sim`` for ``--seed`` and ``--shots``, else in the
command's own section) before the one check of the config, so a number
flag, read as that key's JSON literal, and its key fail alike.
``configs/nv1.json`` and ``configs/nv2.json`` are examples. All
frequencies in configs and reports are ordinary kHz, converted to angular
units at the boundary. Outputs are plottable CSV artifacts plus text fit
reports, deterministic for a given (config, seed).

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import click
import numpy as np

from .dephasing import (
    NoiseSpec,
    envelope_second_order,
    gaussian_envelope,
    predicted_t2_mp,
    rate_amplitude_mp,
    rate_magnetic_mp,
    sigma_b_from_t2,
)
from .fitting import MIN_POINTS, format_fit_report, nlls_fit
from .errors import NumericalError
from .models import FIT_MODELS
from .presets import PRESETS
from .pulse_sim import (
    DQ_KINDS,
    RAMSEY_KINDS,
    SimConfig,
    _json,
    _pulse_duration,
    _read_text,
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
        "eta": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
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
            "additionalProperties": False,
        },
        "sim": {
            "type": "object",
            "properties": {
                # a grid point's shots are sampled in one array
                "shots": {"type": "integer", "minimum": 1, "maximum": 10**6,
                          "default": 1000},
                "seed": {"type": "integer", "minimum": 0,
                         "maximum": 2 ** 64 - 1, "default": 0},
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


def load_config(path) -> dict:
    """Parse a JSON scenario config; resolve_config checks it."""
    try:
        text = _read_text(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        return _json(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


class _JsonNumber(click.ParamType):
    """A number flag: the JSON literal of the config key it replaces, which
    resolve_config checks by that key's rule."""

    name = "number"

    def convert(self, value, param, ctx):
        try:
            number = _json(value)
        except json.JSONDecodeError:
            number = None
        except ValueError as exc:
            self.fail(str(exc), param, ctx)
        if not _of_type(number, "number"):
            self.fail(f"{value!r} is not a JSON number", param, ctx)
        return number


def _of_type(value, name: str) -> bool:
    """Draft 2020-12's JSON types: a bool is no number, 3.0 is an integer."""
    if name in ("number", "integer"):
        return isinstance(value, (int, float)) and not isinstance(value, bool) \
            and (name == "number" or isinstance(value, int) or value.is_integer())
    return isinstance(value, {"object": dict, "array": list, "string": str,
                              "boolean": bool}[name])


def _errors(rule: dict, value, path=()):
    """Yield (path, message) for each way value breaks rule, in
    jsonschema's order and wording: keywords and properties as listed.
    tests/test_cli.py fails on a keyword not handled here."""
    obj, num = isinstance(value, dict), _of_type(value, "number")
    for key, arg in rule.items():
        if key == "type" and not _of_type(value, arg):
            yield path, f"{value!r} is not of type {arg!r}"
        elif key == "enum" and value not in arg:
            yield path, f"{value!r} is not one of {arg!r}"
        elif key == "minimum" and num and value < arg:
            yield path, f"{value!r} is less than the minimum of {arg!r}"
        elif key == "maximum" and num and value > arg:
            yield path, f"{value!r} is greater than the maximum of {arg!r}"
        elif key == "exclusiveMinimum" and num and value <= arg:
            yield path, f"{value!r} is less than or equal to the minimum of {arg!r}"
        elif key == "exclusiveMaximum" and num and value >= arg:
            yield path, f"{value!r} is greater than or equal to the maximum of {arg!r}"
        elif key == "minItems" and isinstance(value, list) and len(value) < arg:
            short = "should be non-empty" if arg == 1 else "is too short"
            yield path, f"{value!r} {short}"
        elif key == "items" and isinstance(value, list):
            for index, item in enumerate(value):
                yield from _errors(arg, item, (*path, index))
        elif key == "properties" and obj:
            for name, sub in arg.items():
                if name in value:
                    yield from _errors(sub, value[name], (*path, name))
        elif key == "required" and obj:
            yield from ((path, f"{name!r} is a required property")
                        for name in arg if name not in value)
        elif key == "additionalProperties" and obj and (extra := sorted(
                value.keys() - rule.get("properties", {}).keys())):
            verb = "was" if len(extra) == 1 else "were"
            yield (path, "Additional properties are not allowed "
                   f"({', '.join(map(repr, extra))} {verb} unexpected)")


def validate_config(cfg: dict) -> None:
    """Raise a ConfigError naming the error jsonschema's best_match picks:
    the shallowest, then the greatest path; of equals, the first found.
    Each path has one rule, so the rest of best_match's key ties."""
    best = max(_errors(SCHEMA, cfg), default=None,
               key=lambda error: (-len(error[0]), error[0]))
    if best is not None:
        where = "".join(f"[{p}]" if isinstance(p, int) else "." + p for p in best[0])
        raise ConfigError(f"config key ${where}: {best[1]}")


def _merged(rule: dict, section: dict) -> dict:
    """The defaults of an object rule of SCHEMA, overlaid by a config
    section.  Default lists are copied, so no caller can edit SCHEMA."""
    defaults = {key: copy.copy(prop["default"])
                for key, prop in rule["properties"].items() if "default" in prop}
    return {**defaults, **section}


def _overlaid(cfg, name: str, **flags):
    """cfg with each flag given (neither None nor a multiple=True option's
    ()) in place of its key in section name, a tuple as a JSON array.  A
    cfg or section that is no object takes no flag; resolve_config says so."""
    given = {key: list(value) if isinstance(value, tuple) else value
             for key, value in flags.items() if value not in (None, ())}
    ok = isinstance(cfg, dict) and isinstance(cfg.get(name, {}), dict)
    return {**cfg, name: {**cfg.get(name, {}), **given}} if ok else cfg


def _settings(cfg, name: str, **flags):
    """The run (see resolve_config) and command name's section merged over
    its SCHEMA defaults, with each flag given in place of its key before
    the one check of the whole config."""
    cfg = _overlaid(cfg, name, **flags)
    return resolve_config(cfg), _merged(SCHEMA["properties"][name], cfg[name])


# Field-noise keys, each with its conversion to sigma_b in mG.  A config's
# noise section names at most one (resolve_config); each preset names
# exactly one.
_SIGMA_B_MG = {
    "sigma_b_mg": lambda mg: mg,
    "gamma_sigma_b_khz": lambda khz: khz_to_angular(khz) / GAMMA,
    "t2_0m1_us": sigma_b_from_t2,
}


def resolve_config(cfg: dict) -> dict:
    """Check cfg against SCHEMA, fill preset defaults and convert units:
    the run cfg describes.

    The dict holds the SystemParams (angular units) as "params", the
    NoiseSpec as "noise", the SimConfig as "sim" and the "out_dir".
    """
    validate_config(cfg)
    top = _merged(SCHEMA, cfg)
    preset = PRESETS[top["preset"]]
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
    named = [key for key in _SIGMA_B_MG if key in noise_cfg]
    if len(named) > 1:
        raise ConfigError(
            f"config key $.noise: {' and '.join(map(repr, named))} "
            f"{'both' if len(named) == 2 else 'all'} set the field noise; "
            "give at most one")
    source = noise_cfg if named else preset
    sigma_b = next(to_mg(source[key]) for key, to_mg in _SIGMA_B_MG.items()
                   if key in source)
    sigma_t = noise_cfg.get("sigma_t_c", preset["sigma_t_c"])
    amp_cfg = noise_cfg["amplitude"]   # as written, without its defaults
    mode = amp_cfg["mode"]
    own = {"sigma_omega_khz"} if mode == "fixed" else {"eta", "alpha_khz"}
    if stray := sorted(amp_cfg.keys() - own - {"mode"}):
        raise ConfigError(f"config key $.noise.amplitude: {mode} mode takes "
                          f"no {', '.join(map(repr, stray))}")
    if mode == "reflectometer" and own - amp_cfg.keys():
        raise ConfigError("config key $.noise.amplitude: reflectometer mode "
                          "needs 'eta' and 'alpha_khz'")
    # one law for both modes: the other mode's keys add nothing
    amp = {"eta": 0.0, "alpha_khz": 0.0, **_merged(_AMPLITUDE_SCHEMA, amp_cfg)}
    noise = NoiseSpec(sigma_b, sigma_t, khz_to_angular(amp["sigma_omega_khz"]),
                      amp["eta"], khz_to_angular(amp["alpha_khz"]))
    sim = _merged(SCHEMA["properties"]["sim"], cfg.get("sim", {}))
    return {"params": params, "noise": noise,
            "sim": SimConfig(n_shots=sim["shots"], seed=sim["seed"]),
            "out_dir": top["out_dir"]}


def _check_drives(noise: NoiseSpec, omegas) -> None:
    """Raise a ConfigError, before a command simulates or writes anything,
    if reflectometer amplitude noise is undefined at a drive (rad/us) it
    uses."""
    for omega in omegas:
        try:
            noise.sigma_omega(omega)
        except ValueError:
            raise ConfigError(
                "config key $.noise.amplitude.alpha_khz: the drive "
                f"{angular_to_khz(omega):g} kHz plus alpha_khz "
                f"{angular_to_khz(noise.alpha_diode):g} kHz "
                "must be positive for reflectometer amplitude noise") from None


def _pulse_strength(section: dict, name: str, angle: float) -> dict:
    """The simulator's omega_mag keyword for section name's
    omega_mag_khz, or none, so the simulator picks its own pulse strength.
    Raise a ConfigError, before a command writes anything, if a pulse of
    that rotation angle would last longer than a float can hold."""
    if "omega_mag_khz" not in section:
        return {}
    omega_mag = khz_to_angular(khz := section["omega_mag_khz"])
    try:
        _pulse_duration(angle, omega_mag)
    except ValueError:
        raise ConfigError(f"config key $.{name}.omega_mag_khz: {khz!r} kHz is "
                          "too weak: its pulse would outlast a float") from None
    return {"omega_mag": omega_mag}


def _check_splitting(params: SystemParams) -> None:
    """Raise a ConfigError, before a command writes anything, if the
    {m,p} splitting sqrt(omega^2 + a_par^2) the closed forms divide by
    is 0."""
    if params.omega == 0.0 and params.a_par == 0.0:
        raise ConfigError("config keys $.system.omega_khz and "
                          "$.system.a_par_khz: omega and a_par cannot both "
                          "be zero")


def _check_drive(params: SystemParams, needs: str) -> None:
    """Raise a ConfigError, before a command writes anything, if the
    drive is off; needs names what the command runs that requires it."""
    if params.omega == 0.0:
        raise ConfigError(f"config key $.system.omega_khz: {needs} "
                          "requires a nonzero mechanical drive")


def _grid(section: dict, name: str, key: str, fewest: int = 1):
    """Evenly spaced grid, stop included, from the keys
    key.format("start"/"stop"/"step") of command name's section.  A stop
    not above the start, more than _MAX_GRID_POINTS points (checked before
    any allocation) or fewer than the fewest the command needs is a config
    error that names the three keys."""
    start_key, stop_key, step_key = map(key.format, ("start", "stop", "step"))
    start, stop, step = section[start_key], section[stop_key], section[step_key]
    where = f"config keys $.{name}.{start_key}, {stop_key} and {step_key}:"
    if stop <= start:
        raise ConfigError(f"{where} {stop_key} must exceed {start_key}")
    # np.arange gives ceil((stop - start) / step + 0.5) points
    if (stop - start) / step + 0.5 > _MAX_GRID_POINTS:
        raise ConfigError(f"{where} the grid has more than "
                          f"{_MAX_GRID_POINTS} points")
    grid = np.arange(start, stop + 0.5 * step, step)
    if len(grid) < fewest:
        raise ConfigError(f"{where} {name} needs at least {fewest} grid "
                          f"points, not {len(grid)}")
    return grid


def _write_rows(path: Path, header: str, rows) -> None:
    template = ",".join(["%.10g"] * (header.count(",") + 1))
    lines = [header, *(template % tuple(row) for row in rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class _PipelineGroup(click.Group):
    """A command group whose callback and subcommands map domain failures
    onto the documented exit codes."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", file=sys.stderr)
            sys.exit(EXIT_CONFIG)
        except (NumericalError, ArithmeticError) as exc:
            click.echo(f"numerical failure: {exc}", file=sys.stderr)
            sys.exit(EXIT_NUMERICAL)
        except ValueError as exc:
            click.echo(f"error: {exc}", file=sys.stderr)
            sys.exit(EXIT_CONFIG)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", file=sys.stderr)
            sys.exit(EXIT_IO)


@click.group(cls=_PipelineGroup)
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="JSON scenario config; defaults to the nv2 preset.")
@click.option("--seed", type=_JsonNumber(), help="Override RNG seed.")
@click.option("--shots", type=_JsonNumber(), help="Override shots per point.")
@click.option("--out", "out_dir", type=click.Path(), default=None,
              help="Override output directory.")
@click.pass_context
def main(ctx, config_path, out_dir, **sim):
    """Continuous-dynamical-decoupling simulation and analysis pipelines."""
    def read_cfg():
        # read when a command resolves its settings, after click has shown
        # any --help of the command, so a broken file blocks no help
        cfg = load_config(config_path) if config_path else {}
        if out_dir is not None and isinstance(cfg, dict):
            cfg = {**cfg, "out_dir": out_dir}
        return _overlaid(cfg, "sim", **sim)   # each command checks it

    ctx.obj = read_cfg


def _out_dir(res: dict) -> Path:
    path = Path(res["out_dir"])
    path.mkdir(parents=True, exist_ok=True)
    return path


def _short(value: float, spec: str = "10.2f") -> str:
    """A rates report field: the fixed-point spec below 1e7, where every
    shipped scenario lies, and exponent form with the same width from there
    up, so that extreme noise still prints a short line."""
    if value < 1e7:
        return format(value, spec)
    return format(value, spec.partition(".")[0] + ".3e")


def _predicted_t2(params: SystemParams, noise: NoiseSpec) -> list:
    """predicted_t2_mp of params under noise, first and second order, with
    the amplitude noise at params' drive."""
    sigma_omega = noise.sigma_omega(params.omega)
    return [predicted_t2_mp(params.omega, params.a_par, noise.sigma_b,
                            sigma_omega, order=order)
            for order in ("first", "second")]


@main.command()
@click.pass_obj
def rates(read_cfg):
    """Print the dephasing-rate budget and predicted coherence times."""
    res = resolve_config(read_cfg())
    params = res["params"]
    noise = res["noise"]
    _check_splitting(params)
    _check_drives(noise, [params.omega])
    sigma_omega = noise.sigma_omega(params.omega)
    gsb_khz = angular_to_khz(GAMMA * noise.sigma_b)
    thermal_t2 = math.sqrt(2.0) / (abs(DD_DT) * noise.sigma_t) \
        if noise.sigma_t else math.inf
    cutoff = mechanical_cutoff(params.omega_mech, params.q_factor)
    gamma_b = rate_magnetic_mp(params.omega, params.a_par, noise.sigma_b)
    gamma_om = rate_amplitude_mp(params.omega, params.a_par, sigma_omega)
    t2_first, t2_second = _predicted_t2(params, noise)
    lines = [
        f"omega/2pi           : {angular_to_khz(params.omega):10.2f} kHz",
        f"a_par/2pi           : {angular_to_khz(params.a_par):10.2f} kHz",
        f"gamma*sigma_b/2pi   : {_short(gsb_khz)} kHz  "
        f"(sigma_b = {_short(noise.sigma_b, '.2f')} mG)",
        f"sigma_Omega/2pi     : {_short(angular_to_khz(sigma_omega))} kHz",
        f"thermal-limit T2*   : {_short(thermal_t2)} us  "
        f"(sigma_T = {_short(noise.sigma_t, '.2f')} C)",
        f"mech cutoff w_c/2pi : {angular_to_khz(cutoff):10.2f} kHz",
        f"Gamma_magnetic     : {_short(gamma_b, '10.4f')} rad/us",
        f"Gamma_amplitude    : {_short(gamma_om, '10.4f')} rad/us",
        f"T2*_mp (first)      : {_short(t2_first)} us",
        f"T2*_mp (second)     : {_short(t2_second)} us",
    ]
    report = "\n".join(lines)
    click.echo(report, file=sys.stdout)
    (_out_dir(res) / "rates.txt").write_text(report + "\n", encoding="utf-8")


@main.command()
@click.option("--omega-khz", "omega_list_khz", multiple=True,
              type=_JsonNumber(),
              help="Override the mechanical Rabi scan list.")
@click.option("--mc/--no-mc", default=None,
              help="Toggle the Monte-Carlo simulate-and-fit column.")
@click.pass_obj
def t2scan(read_cfg, **flags):
    """Scan T2* of the {m,p} qubit against the mechanical drive strength."""
    res, section = _settings(read_cfg(), "t2scan", **flags)
    # only the Monte-Carlo column reads tau: it fits each trace with
    # ramsey_mp, and nlls_fit takes at least MIN_POINTS points
    if section["mc"]:
        tau = _grid(section, "t2scan", "tau_{}_us", MIN_POINTS)
    noise = res["noise"]
    if section["power_leveled"]:
        noise = NoiseSpec(noise.sigma_b, noise.sigma_t)
    _check_drives(noise, map(khz_to_angular, section["omega_list_khz"]))
    drives = [(res["params"].with_omega(khz_to_angular(om_khz)), noise)
              for om_khz in section["omega_list_khz"]]
    traces = simulate_ramsey("dressed_mp", tau, drives, res["sim"]) \
        if section["mc"] else [None] * len(drives)
    rows, failed = [], []
    for om_khz, (params, _), trace in zip(section["omega_list_khz"], drives,
                                          traces):
        t2_first, t2_second = _predicted_t2(params, noise)
        t2_mc, mc_err = math.nan, math.nan
        if trace is not None:
            model, points, _ = FIT_MODELS["ramsey_mp"](trace, None, params,
                                                       noise, None)
            outcome = nlls_fit(model, points)
            if outcome.converged:
                t2_mc = outcome.params["t2_us"]
                mc_err = outcome.ci_halfwidth("t2_us")
            else:
                failed.append(f"fit did not converge at {om_khz:g} kHz "
                              f"({', '.join(outcome.flags)})")
        rows.append((om_khz, t2_first, t2_second, t2_mc, mc_err))
    path = _out_dir(res) / "t2scan.csv"
    _write_rows(path, "omega_khz,t2_first_us,t2_second_us,t2_mc_us,mc_err_us",
                rows)
    click.echo(f"wrote {path}", file=sys.stdout)
    if failed:
        click.echo("\n".join(failed), file=sys.stderr)
        sys.exit(EXIT_NUMERICAL)


@main.command()
@click.option("--kind", type=click.Choice(RAMSEY_KINDS))
@click.option("--tau-stop-us", type=_JsonNumber())
@click.option("--tau-step-us", type=_JsonNumber())
@click.option("--omega-mag-khz", type=_JsonNumber())
@click.pass_obj
def ramsey(read_cfg, **flags):
    """Simulate a Ramsey trace; writes the trace and its Fourier magnitude."""
    res, section = _settings(read_cfg(), "ramsey", **flags)
    kind = section["kind"]
    tau = _grid(section, "ramsey", "tau_{}_us", 2)   # two for the FFT
    kwargs = _pulse_strength(section, "ramsey",
                             math.pi if kind in DQ_KINDS else 0.5 * math.pi)
    if kind != "undressed_0m1":   # which runs with the drive off
        _check_drive(res["params"],
                     f"kind {kind!r} (every kind but 'undressed_0m1')")
        _check_drives(res["noise"], [res["params"].omega])
    trace, = simulate_ramsey(kind, tau, [(res["params"], res["noise"])],
                             res["sim"], **kwargs)
    out = _out_dir(res)
    trace_path = out / f"ramsey_{kind}.csv"
    write_trace_csv(trace, trace_path)
    freq, mag = fourier_magnitude(trace)
    _write_rows(out / f"ramsey_{kind}_fft.csv", "freq_khz,magnitude",
                zip(freq, mag))
    click.echo(f"wrote {trace_path}", file=sys.stdout)


@main.command()
@click.option("--omega-khz", "omega_list_khz", multiple=True,
              type=_JsonNumber(),
              help="Override the drive list; 0 means undressed.")
@click.pass_obj
def spectra(read_cfg, **flags):
    """Simulate pulsed spectra across a list of mechanical drive strengths."""
    res, section = _settings(read_cfg(), "spectra", **flags)
    grid = khz_to_angular(_grid(section, "spectra", "detuning_{}_khz"))
    kwargs = _pulse_strength(section, "spectra", math.pi)
    # the drives' minimum of 0 lets -0.0 through: it runs, and is named, as 0
    drives_khz = [abs(om_khz) for om_khz in section["omega_list_khz"]]
    names = [f"spectrum_omega{om_khz:g}khz.csv" for om_khz in drives_khz]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError("config key $.spectra.omega_list_khz: two "
                              f"drives would both write {name}")
    _check_drives(res["noise"], map(khz_to_angular, drives_khz))
    out = _out_dir(res)
    drives = [(res["params"].with_omega(khz_to_angular(om_khz)), res["noise"])
              for om_khz in drives_khz]
    for trace, name in zip(simulate_spectrum(grid, drives, res["sim"],
                                             **kwargs), names):
        path = out / name
        write_trace_csv(trace, path)
        click.echo(f"wrote {path}", file=sys.stdout)


@main.command()
@click.option("--tau-stop-us", type=_JsonNumber())
@click.pass_obj
def envelope(read_cfg, **flags):
    """Tabulate the analytic envelopes against their Gaussian references."""
    res, section = _settings(read_cfg(), "envelope", **flags)
    tau = _grid(section, "envelope", "tau_{}_us")
    noise = res["noise"]
    params = res["params"]
    _check_splitting(params)
    _check_drive(params, "the max_protection column")
    f = envelope_second_order(tau, params.omega, noise.sigma_b, params.a_par)
    h = envelope_second_order(tau, params.omega, noise.sigma_b, 0.0)
    t2_first = predicted_t2_mp(params.omega, params.a_par, noise.sigma_b,
                               order="first")
    g = gaussian_envelope(tau, t2_first)
    path = _out_dir(res) / "envelope.csv"
    _write_rows(path, "tau_us,second_order,max_protection,gaussian_first",
                zip(tau, f, h, g))
    click.echo(f"wrote {path}", file=sys.stdout)


@main.command()
@click.option("--model", type=click.Choice(list(FIT_MODELS)))
@click.option("--input", "input_csv", type=click.Path(),
              help="Trace CSV to fit (dressed spectrum for spectrum_joint).")
@click.option("--undressed", "undressed_csv", type=click.Path(),
              help="Undressed spectrum CSV (spectrum_joint only).")
@click.pass_obj
def fit(read_cfg, **flags):
    """Fit a signal model to a trace CSV and write the report."""
    res, section = _settings(read_cfg(), "fit", **flags)
    for key, what in (("model", "a model name"), ("input_csv", "an input CSV")):
        if not section.get(key):
            raise ConfigError(f"config key $.fit.{key}: fit needs {what}")
    model_name, traces = section["model"], {}
    for key in ("input_csv", "undressed_csv"):   # each meets the fit floor
        if path := section.get(key):
            traces[key] = read_trace_csv(path)
            if (rows := len(traces[key].abscissa)) < MIN_POINTS:
                raise ConfigError(f"config key $.fit.{key}: {path} has {rows} "
                                  f"rows, and fit needs at least {MIN_POINTS}")
    trace, undressed = traces["input_csv"], traces.get("undressed_csv")
    try:
        model, points, stderr = FIT_MODELS[model_name](
            trace, undressed, res["params"], res["noise"],
            section.get("p0_ud"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    weights = stderr if section["use_stderr_weights"] else None
    if weights is not None and not np.all(weights > 0):
        # the points are the trace's rows, then the undressed trace's
        input_ok = np.all(weights[:len(trace.abscissa)] > 0)
        where = section["undressed_csv" if input_ok else "input_csv"]
        raise ConfigError(f"config key $.fit.use_stderr_weights: {where} has "
                          "a zero stderr, and weights need every stderr "
                          "positive")
    outcome = nlls_fit(model, points, weights)

    report = format_fit_report(model, outcome)
    click.echo(report, file=sys.stdout)
    path = _out_dir(res) / f"fit_{model_name}.txt"
    path.write_text(report + "\n", encoding="utf-8")
    if not outcome.converged:
        click.echo("fit did not converge", file=sys.stderr)
        sys.exit(EXIT_NUMERICAL)
