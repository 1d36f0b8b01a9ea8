"""Signal models for the Ramsey and spectroscopy measurements.

Parameters are user-facing: frequencies in kHz, times in us, phases in
rad, populations dimensionless.  Evaluators convert to angular units
internally.

``FIT_MODELS`` is the one place a fit model is registered: it maps each
model name to its seed rule, which builds the model with data-driven
initial values and lays out its points.  The CLI's config schema, its
``fit --model`` choices, ``fit`` itself and ``t2scan --mc`` all read it.
The Ramsey models but ramsey_mp, the paper's Gaussian T2* reading, are
the simulator itself (``_seed_simulated``), not fringe formulas.
"""

from __future__ import annotations

from dataclasses import replace
import functools
import math

import numpy as np

from .fitting import FitParam, ModelFunction
from .pulse_sim import (
    OMEGA_ROT_KHZ, SimConfig, Trace, fourier_magnitude, simulate_ramsey,
)
from .spin_model import (
    SystemParams, _sublevel_splittings, dressed_transition_offsets,
)
from .units import DD_DT, GAMMA, angular_to_khz, khz_to_angular

_K = 2.0 * math.pi * 1e-3  # kHz -> rad/us


def _per_row(fn, *columns):
    """fn of each row's parameters as Python floats, as one (k, 1) column
    per value fn returns: a row's factor keeps the scalar arithmetic
    (math.hypot, C pow for ** 2) of a single parameter vector."""
    rows = zip(*(c[:, 0].tolist() for c in columns))
    return np.array([fn(*row) for row in rows]).T[..., None]


def model_ramsey_mp(a_par_khz: float, p0_ud: float) -> ModelFunction:
    """{m,p} CDD Ramsey: single cosine at sqrt(a_par^2 + omega^2) with a
    Gaussian envelope; amplitude pinned by the undressed contrast."""

    def evaluate(theta, tau):
        c, t2, omega, phi, a_par, amp = theta
        w = _K * _per_row(math.hypot, omega, a_par)
        return c + 0.5 * amp * np.exp(-((tau / t2) ** 2)) * np.cos(w * tau + phi)

    return ModelFunction(
        name="ramsey_mp",
        params=(
            FitParam("c", 0.5, -1.0, 2.0),
            FitParam("t2_us", 10.0, 1e-3, 1e4, unit="us"),
            FitParam("omega_khz", 500.0, 0.0, 5e3, unit="kHz"),
            FitParam("phi", 0.0, -2.0 * math.pi, 2.0 * math.pi, unit="rad"),
            FitParam("a_par_khz", a_par_khz, unit="kHz", frozen=True),
            FitParam("p0_ud", p0_ud, frozen=True),
        ),
        evaluator=evaluate,
    )


def model_spectrum_joint(n_dressed: int) -> ModelFunction:
    """Joint dressed + undressed spectral fit over a concatenated abscissa
    (first n_dressed points dressed): two Lorentzian dips centered at
    w01 + delta/2 -+ sqrt(delta^2+omega^2)/2 sharing w01 with the single
    undressed Lorentzian.  All frequencies in kHz."""

    def lorentz_dip(x, center, scale):
        # scale = (2 / width)**2
        return 1.0 / (scale * (x - center) ** 2 + 1.0)

    def evaluate(theta, x):
        c_d, a_d1, a_d2, g_d, delta, omega, c_ud, a_ud, g_ud, w01 = theta
        lo, hi, s_d, s_ud = _per_row(
            lambda om, de, gd, gu: (*dressed_transition_offsets(om, de),
                                    (2.0 / gd) ** 2, (2.0 / gu) ** 2),
            omega, delta, g_d, g_ud)
        out = np.empty((len(c_d), len(x)))
        xd = x[:n_dressed]
        out[:, :n_dressed] = (c_d
                              - a_d1 * lorentz_dip(xd, w01 + lo, s_d)
                              - a_d2 * lorentz_dip(xd, w01 + hi, s_d))
        xu = x[n_dressed:]
        out[:, n_dressed:] = c_ud - a_ud * lorentz_dip(xu, w01, s_ud)
        return out

    return ModelFunction(
        name="spectrum_joint",
        params=(
            FitParam("c_d", 1.0, -1.0, 2.0),
            FitParam("a_d1", 0.3, 0.0, 2.0),
            FitParam("a_d2", 0.3, 0.0, 2.0),
            FitParam("gamma_d_khz", 80.0, 1.0, 2e3, unit="kHz"),
            FitParam("delta_khz", 0.0, -2e3, 2e3, unit="kHz"),
            FitParam("omega_khz", 400.0, 0.0, 5e3, unit="kHz"),
            FitParam("c_ud", 1.0, -1.0, 2.0),
            FitParam("a_ud", 0.5, 0.0, 2.0),
            FitParam("gamma_ud_khz", 80.0, 1.0, 2e3, unit="kHz"),
            FitParam("w01_khz", 0.0, -2e3, 2e3, unit="kHz"),
        ),
        evaluator=evaluate,
    )


def fit_points(*traces):
    """The (x, y) points a model fits and each point's stderr: the traces'
    rows, concatenated in order (spectrum_joint: dressed, then undressed)."""
    def column(name):
        return np.concatenate([getattr(t, name) for t in traces])
    return (column("abscissa"), column("mean_p0")), column("stderr")


def guess_ramsey_frequency_khz(trace: Trace) -> float:
    """Dominant Fourier component of a Ramsey trace, in kHz."""
    freq, mag = fourier_magnitude(trace)
    return float(freq[1 + np.argmax(mag[1:])])


def guess_envelope_t2_us(trace: Trace) -> float:
    """First 1/e crossing of the smoothed rectified oscillation amplitude."""
    y = np.abs(trace.mean_p0 - trace.mean_p0.mean())
    n = max(len(y) // 16, 1)
    kernel = np.ones(n) / n
    smooth = np.convolve(y, kernel, mode="same")
    peak = smooth.max()
    below = np.nonzero(smooth < peak / math.e)[0]
    if below.size == 0:
        return float(trace.abscissa[-1])
    return float(max(trace.abscissa[below[0]], trace.abscissa[1]))


def guess_spectrum_dips_khz(trace: Trace) -> tuple[float, float]:
    """Centers of the two deepest well-separated dips of a spectrum."""
    y = trace.mean_p0
    x = trace.abscissa
    first = int(np.argmin(y))
    span = x[-1] - x[0]
    mask = np.abs(x - x[first]) > 0.15 * span
    if not mask.any():
        return float(x[first]), float(x[first])
    rest = np.where(mask, y, np.inf)
    second = int(np.argmin(rest))
    lo, hi = sorted((float(x[first]), float(x[second])))
    return lo, hi


def mean_contrast(params) -> float:
    """Sublevel-averaged fringe contrast of the {m,p} qubit: the p0_ud
    ramsey_mp pins when none is given."""
    out = 0.0
    for w in _sublevel_splittings(params):
        out += (params.omega / w) ** 2 if w else 1.0
    return 0.5 * out


# Seed rules: (trace, undressed trace or None, SystemParams, NoiseSpec,
# p0_ud or None for mean_contrast) -> (model with data-driven initial
# values, its (x, y) points, their stderr).  A rule raises ValueError when
# its inputs cannot seed the model; the CLI reports it as a config error.

def _seed_ramsey_mp(trace, undressed, params, noise, p0_ud):
    a_par_khz = angular_to_khz(params.a_par)
    if p0_ud is None:
        p0_ud = mean_contrast(params)
    model = model_ramsey_mp(a_par_khz, p0_ud).with_initials(
        c=float(trace.mean_p0.mean()),
        omega_khz=max(math.sqrt(max(
            guess_ramsey_frequency_khz(trace) ** 2 - a_par_khz ** 2, 1.0)), 1.0),
        t2_us=guess_envelope_t2_us(trace))
    return model, *fit_points(trace)


def _seed_spectrum_joint(trace, undressed, params, noise, p0_ud):
    if undressed is None:
        raise ValueError("spectrum_joint needs an undressed CSV too")
    lo, hi = guess_spectrum_dips_khz(trace)
    depth = float(trace.mean_p0.max() - trace.mean_p0.min())
    model = model_spectrum_joint(len(trace.abscissa)).with_initials(
        omega_khz=max(hi - lo, 10.0),
        w01_khz=float(undressed.abscissa[np.argmin(undressed.mean_p0)]),
        c_d=float(trace.mean_p0.max()),
        c_ud=float(undressed.mean_p0.max()),
        a_d1=depth,
        a_d2=depth,
        a_ud=float(undressed.mean_p0.max() - undressed.mean_p0.min()),
    )
    return model, *fit_points(trace, undressed)


# The pulse a simulator model reads from its trace's sidecar, and the most
# nodes it evaluates per point (a 20-us nv2 {0,p} trace takes about 6700).
_PULSE_KEYS = ("omega_mag_khz", "delta_khz", "a_par_khz", "omega_khz",
               "omega_rot_khz")
_MAX_NODES = 2 ** 14


def _seed_simulated(name, kind, trace, undressed, params, noise, p0_ud):
    """ramsey_0p (kind dressed_0p), undressed_ramsey (undressed_0m1) and
    max_protection (max_protection, {m,p} at delta = -|a_par|):
    c + s (P0 - 1/2), P0 the simulator's exact mean (Gauss-Hermite
    quadrature) for the sidecar's pulse.  Free: omega (a_par if undressed)
    and gamma*sigma_b, each bounded by twice its seed, c and s; the other
    noises are the config's.  6 + a^2/2 nodes take E[cos(a x)] to 1e-4:
    a is the most phase an axis's noise spreads by the last tau."""
    meta, where = trace.metadata, f"{name}: the trace's .meta.json sidecar"
    if meta.get("kind") != kind:
        raise ValueError(f"{where} key 'kind' must be {kind}, not "
                         f"{meta.get('kind', 'absent')}")
    for key in _PULSE_KEYS:
        if type(meta.get(key)) not in (int, float):
            raise ValueError(f"{where} key {key!r} must be a number, not "
                             f"{meta.get(key, 'absent')}")
    om_mag, delta, a_par, omega, rot = (float(meta[k]) for k in _PULSE_KEYS)
    if not math.isclose(rot, OMEGA_ROT_KHZ, rel_tol=1e-12):
        raise ValueError(f"{where} key 'omega_rot_khz' must be the "
                         f"simulator's {OMEGA_ROT_KHZ:g}, not {rot!r}")
    dressed = kind != "undressed_0m1"
    # a reflectometer's sigma_omega needs omega + alpha > 0
    floor = 1.0 + max(0.0, -angular_to_khz(noise.alpha_diode))
    omega = max(omega, floor) if dressed else 0.0
    gsb = angular_to_khz(GAMMA * noise.sigma_b)
    g_max = max(2.0 * gsb, 1.0)
    # how fast the field, drive and temperature noise move a Ramsey line
    tau = trace.abscissa.max()
    nodes = [6 + math.ceil(min((a * tau) ** 2 / 2, _MAX_NODES)) if a else 1
             for a in (khz_to_angular(g_max),
                       0.5 * noise.sigma_omega(khz_to_angular(2.0 * omega)),
                       -DD_DT * noise.sigma_t)]
    if math.prod(nodes) > _MAX_NODES:
        raise ValueError(f"{name}: tau up to {tau:g} us needs more than "
                         f"{_MAX_NODES} quadrature nodes per point")

    def evaluate(theta, tau):
        c, s, *columns = theta   # one drive per row, one simulator call
        drives = [(SystemParams(*map(khz_to_angular, (omega, delta, a_par))),
                   replace(noise, sigma_b=khz_to_angular(gsb) / GAMMA))
                  for omega, a_par, gsb in zip(*(v[:, 0] for v in columns))]
        exact = simulate_ramsey(kind, tau, drives, SimConfig(n_shots=1),
                                nodes=nodes, omega_mag=khz_to_angular(om_mag))
        return c + s * (np.array([t.mean_p0 for t in exact]) - 0.5)

    return ModelFunction(name=name, evaluator=evaluate, params=(
        FitParam("c", float(trace.mean_p0.mean()), -1.0, 2.0),
        FitParam("s", 1.0, 0.0, 2.0),
        FitParam("omega_khz", omega, floor, 2.0 * omega, "kHz", not dressed),
        FitParam("a_par_khz", abs(a_par), 0.0, 5e3, "kHz", dressed),
        FitParam("gamma_sigma_b_khz", gsb, 0.0, g_max, "kHz"),
    )), *fit_points(trace)


FIT_MODELS = {
    "undressed_ramsey": functools.partial(_seed_simulated, "undressed_ramsey",
                                          "undressed_0m1"),
    "ramsey_0p": functools.partial(_seed_simulated, "ramsey_0p", "dressed_0p"),
    "ramsey_mp": _seed_ramsey_mp,
    "max_protection": functools.partial(_seed_simulated, "max_protection",
                                        "max_protection"),
    "spectrum_joint": _seed_spectrum_joint,
}
