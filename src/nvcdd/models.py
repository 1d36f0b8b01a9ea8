"""Signal models for the Ramsey and spectroscopy measurements.

Parameters are user-facing: frequencies in kHz, times in us, phases in
rad, populations dimensionless.  Evaluators convert to angular units
internally.

``FIT_MODELS`` is the one place a fit model is registered: it maps each
model name to its seed rule, which builds the model with data-driven
initial values.  The CLI's config schema, its ``fit --model`` choices,
``fit`` itself and ``t2scan --mc`` all read it.
"""

from __future__ import annotations

import math

import numpy as np

from .dephasing import envelope_max_protection
from .fitting import FitParam, ModelFunction
from .pulse_sim import OMEGA_ROT_KHZ, Trace, fourier_magnitude
from .units import GAMMA, angular_to_khz, khz_to_angular

_K = 2.0 * math.pi * 1e-3  # kHz -> rad/us


def model_undressed_ramsey() -> ModelFunction:
    """Gaussian-damped two-cosine undressed Ramsey fringe, 13C-split by
    +-a_par/2 about the phase-advance frequency."""

    def evaluate(theta, tau):
        c, a, t2, dmag, a_par, wrot = theta
        env = np.exp(-((tau / t2) ** 2))
        w_hi = _K * (wrot + dmag + 0.5 * a_par)
        w_lo = _K * (wrot + dmag - 0.5 * a_par)
        return c - 0.25 * a * env * (np.cos(w_hi * tau) + np.cos(w_lo * tau))

    return ModelFunction(
        name="undressed_ramsey",
        params=(
            FitParam("c", 0.5, -1.0, 2.0),
            FitParam("a", 1.0, 0.0, 2.0),
            FitParam("t2_us", 5.0, 1e-3, 1e4, unit="us"),
            FitParam("delta_mag_khz", 0.0, -1e3, 1e3, unit="kHz"),
            FitParam("a_par_khz", 150.0, 0.0, 2e3, unit="kHz"),
            FitParam("omega_rot_khz", OMEGA_ROT_KHZ, unit="kHz", frozen=True),
        ),
        evaluator=evaluate,
    )


def model_ramsey_0p(a_par_khz: float) -> ModelFunction:
    """{0,p} CDD Ramsey: slow branch at the residual detuning plus a fast
    branch offset by sqrt(omega^2 + a_par^2), shared Gaussian envelope."""

    def evaluate(theta, tau):
        c, a_p, a_m, phi, omega, dmag, t2, a_par, wrot = theta
        env = np.exp(-((tau / t2) ** 2))
        w_slow = _K * (dmag + wrot)
        w_fast = w_slow + _K * math.hypot(omega, a_par)
        return c + 0.25 * env * (a_p * np.cos(w_slow * tau + phi)
                                 + a_m * np.cos(w_fast * tau + phi))

    return ModelFunction(
        name="ramsey_0p",
        params=(
            FitParam("c", 0.5, -1.0, 2.0),
            FitParam("a_p", 1.0, 0.0, 2.0),
            FitParam("a_m", 1.0, 0.0, 2.0),
            FitParam("phi", 0.0, -2.0 * math.pi, 2.0 * math.pi, unit="rad"),
            FitParam("omega_khz", 400.0, 0.0, 5e3, unit="kHz"),
            FitParam("delta_mag_khz", 0.0, -1e3, 1e3, unit="kHz"),
            FitParam("t2_us", 10.0, 1e-3, 1e4, unit="us"),
            FitParam("a_par_khz", a_par_khz, unit="kHz", frozen=True),
            FitParam("omega_rot_khz", OMEGA_ROT_KHZ, unit="kHz", frozen=True),
        ),
        evaluator=evaluate,
    )


def model_ramsey_mp(a_par_khz: float, p0_ud: float) -> ModelFunction:
    """{m,p} CDD Ramsey: single cosine at sqrt(a_par^2 + omega^2) with a
    Gaussian envelope; amplitude pinned by the undressed contrast."""

    def evaluate(theta, tau):
        c, t2, omega, phi, a_par, amp = theta
        w = _K * math.hypot(omega, a_par)
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


def model_max_protection(a_par_khz: float, gamma_sigma_b_khz: float,
                         p0_ud: float) -> ModelFunction:
    """Maximally protected {m,p} Ramsey at delta = -|a_par|: a slowly
    decaying branch at omega under the algebraic envelope plus a
    Gaussian-damped branch at sqrt(omega^2 + 4*a_par^2)."""

    def evaluate(theta, tau):
        omega, phi, c, t2_up, a_par, gsb, amp = theta
        om_ang = khz_to_angular(omega)
        sigma_b = khz_to_angular(gsb) / GAMMA
        slow = envelope_max_protection(tau, om_ang, sigma_b) \
            * np.cos(om_ang * tau + phi)
        w_fast = _K * math.hypot(omega, 2.0 * a_par)
        fast = np.exp(-((tau / t2_up) ** 2)) * np.cos(w_fast * tau + phi)
        return c + 0.25 * amp * (slow + fast)

    return ModelFunction(
        name="max_protection",
        params=(
            FitParam("omega_khz", 450.0, 1.0, 5e3, unit="kHz"),
            FitParam("phi", 0.0, -2.0 * math.pi, 2.0 * math.pi, unit="rad"),
            FitParam("c", 0.5, -1.0, 2.0),
            FitParam("t2_up_us", 4.0, 1e-3, 1e4, unit="us"),
            FitParam("a_par_khz", a_par_khz, unit="kHz", frozen=True),
            FitParam("gamma_sigma_b_khz", gamma_sigma_b_khz, unit="kHz",
                     frozen=True),
            FitParam("p0_ud", p0_ud, frozen=True),
        ),
        evaluator=evaluate,
    )


def model_spectrum_joint(n_dressed: int) -> ModelFunction:
    """Joint dressed + undressed spectral fit over a concatenated abscissa
    (first n_dressed points dressed): two Lorentzian dips centered at
    w01 + delta/2 -+ sqrt(delta^2+omega^2)/2 sharing w01 with the single
    undressed Lorentzian.  All frequencies in kHz."""

    def lorentz_dip(x, center, width):
        return 1.0 / ((2.0 / width) ** 2 * (x - center) ** 2 + 1.0)

    def evaluate(theta, x):
        c_d, a_d1, a_d2, g_d, delta, omega, c_ud, a_ud, g_ud, w01 = theta
        root = math.hypot(delta, omega)
        out = np.empty_like(x)
        xd = x[:n_dressed]
        out[:n_dressed] = (c_d
                           - a_d1 * lorentz_dip(xd, w01 + 0.5 * (delta - root), g_d)
                           - a_d2 * lorentz_dip(xd, w01 + 0.5 * (delta + root), g_d))
        xu = x[n_dressed:]
        out[n_dressed:] = c_ud - a_ud * lorentz_dip(xu, w01, g_ud)
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


def stack_spectra(dressed: Trace, undressed: Trace):
    """Concatenate dressed and undressed spectra for the joint model.
    Returns (x, y, n_dressed)."""
    x = np.concatenate([dressed.abscissa, undressed.abscissa])
    y = np.concatenate([dressed.mean_p0, undressed.mean_p0])
    return x, y, len(dressed.abscissa)


def guess_ramsey_frequency_khz(trace: Trace) -> float:
    """Dominant Fourier component of a Ramsey trace, in kHz."""
    freq, mag = fourier_magnitude(trace)
    if len(freq) < 2:
        raise ValueError("trace too short for a frequency guess")
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
    the {m,p} models pin when none is given."""
    out = 0.0
    for s in (+1.0, -1.0):
        w = math.hypot(params.omega, params.delta + s * params.a_par)
        out += (params.omega / w) ** 2 if w else 1.0
    return 0.5 * out


# Seed rules: (trace, undressed trace or None, resolved SystemParams,
# gamma*sigma_b in kHz, p0_ud or None for mean_contrast) -> (model with
# data-driven initial values, data to fit).  A rule raises ValueError when
# its inputs cannot seed the model; the CLI reports that as a config error.

def _seed_undressed_ramsey(trace, undressed, params, gsb_khz, p0_ud):
    model = model_undressed_ramsey().with_initials(
        c=float(trace.mean_p0.mean()), t2_us=guess_envelope_t2_us(trace))
    return model, trace


def _seed_ramsey_0p(trace, undressed, params, gsb_khz, p0_ud):
    model = model_ramsey_0p(angular_to_khz(params.a_par)).with_initials(
        c=float(trace.mean_p0.mean()), t2_us=guess_envelope_t2_us(trace))
    return model, trace


def _seed_ramsey_mp(trace, undressed, params, gsb_khz, p0_ud):
    a_par_khz = angular_to_khz(params.a_par)
    if p0_ud is None:
        p0_ud = mean_contrast(params)
    model = model_ramsey_mp(a_par_khz, p0_ud).with_initials(
        c=float(trace.mean_p0.mean()),
        omega_khz=max(math.sqrt(max(
            guess_ramsey_frequency_khz(trace) ** 2 - a_par_khz ** 2, 1.0)), 1.0),
        t2_us=guess_envelope_t2_us(trace))
    return model, trace


def _seed_max_protection(trace, undressed, params, gsb_khz, p0_ud):
    if p0_ud is None:
        p0_ud = mean_contrast(params)
    model = model_max_protection(angular_to_khz(params.a_par), gsb_khz, p0_ud) \
        .with_initials(c=float(trace.mean_p0.mean()),
                       omega_khz=max(guess_ramsey_frequency_khz(trace), 10.0))
    return model, trace


def _seed_spectrum_joint(trace, undressed, params, gsb_khz, p0_ud):
    if undressed is None:
        raise ValueError("spectrum_joint needs an undressed CSV too")
    x, y, n_dressed = stack_spectra(trace, undressed)
    lo, hi = guess_spectrum_dips_khz(trace)
    depth = float(trace.mean_p0.max() - trace.mean_p0.min())
    model = model_spectrum_joint(n_dressed).with_initials(
        omega_khz=max(hi - lo, 10.0),
        delta_khz=0.0,
        w01_khz=float(undressed.abscissa[np.argmin(undressed.mean_p0)]),
        c_d=float(trace.mean_p0.max()),
        c_ud=float(undressed.mean_p0.max()),
        a_d1=depth,
        a_d2=depth,
        a_ud=float(undressed.mean_p0.max() - undressed.mean_p0.min()),
    )
    return model, (x, y)


FIT_MODELS = {
    "undressed_ramsey": _seed_undressed_ramsey,
    "ramsey_0p": _seed_ramsey_0p,
    "ramsey_mp": _seed_ramsey_mp,
    "max_protection": _seed_max_protection,
    "spectrum_joint": _seed_spectrum_joint,
}
