"""Analytic dephasing rates and decay envelopes for the dressed qubits.

Rates are angular (rad/us); the matching coherence time is T2* = 2*pi/Gamma.
Envelopes are normalized to 1 at tau = 0 and are non-increasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import NumericalError
from .units import GAMMA

SQRT2 = math.sqrt(2.0)

# Bisection tolerance of one_over_e_time, us.
ONE_OVER_E_TOL = 1e-3


class ZeroRateError(NumericalError, ValueError):
    """All rates vanish: the coherence time is unbounded."""


class HorizonExceeded(NumericalError, RuntimeError):
    """The envelope stays above 1/e out to the largest tau the bracket
    reaches before doubling overflows."""

    def __init__(self, horizon: float):
        super().__init__(f"envelope stays above 1/e out to {horizon} us")
        self.horizon = horizon


@dataclass(frozen=True)
class FixedAmplitudeNoise:
    sigma_omega: float = 0.0  # rad/us

    def __post_init__(self):
        if self.sigma_omega < 0:
            raise ValueError("sigma_omega must be non-negative")

    def resolve(self, mean_omega: float) -> float:
        return self.sigma_omega


@dataclass(frozen=True)
class ReflectometerNoise:
    """Amplitude noise injected via the reflected-voltage loop:
    sigma_omega = (mean_omega + alpha_diode) * eta."""

    eta: float
    alpha_diode: float  # rad/us

    def __post_init__(self):
        if not 0.0 <= self.eta < 1.0:
            raise ValueError("eta must be in [0, 1)")

    def resolve(self, mean_omega: float) -> float:
        if mean_omega == 0.0:
            return 0.0  # drive off: nothing for the loop to fluctuate
        return sigma_omega_from_reflectometer(mean_omega, self.eta,
                                              self.alpha_diode)


@dataclass(frozen=True)
class NoiseSpec:
    """Quasi-static Gaussian noise channels."""

    sigma_b: float = 0.0   # mG
    sigma_t: float = 0.0   # degC
    amplitude_noise: FixedAmplitudeNoise | ReflectometerNoise = field(
        default_factory=FixedAmplitudeNoise)

    def __post_init__(self):
        if self.sigma_b < 0 or self.sigma_t < 0:
            raise ValueError("noise standard deviations must be >= 0")

    def sigma_omega(self, mean_omega: float) -> float:
        return self.amplitude_noise.resolve(mean_omega)


@dataclass(frozen=True)
class RateBudget:
    """Labelled collection of uncorrelated dephasing rates."""

    entries: tuple  # of (label, rate) pairs

    def __post_init__(self):
        for label, rate in self.entries:
            if rate < 0:
                raise ValueError(f"rate {label} must be >= 0, got {rate}")

    def total(self) -> float:
        return sum(rate for _, rate in self.entries)


def gaussian_dephasing_rate(alpha: float, sigma_x: float) -> float:
    """Gamma = sqrt(2)*pi*alpha*sigma_x for a linear frequency deviation
    alpha*delta_x with Gaussian delta_x."""
    if sigma_x < 0:
        raise ValueError("sigma_x must be non-negative")
    return SQRT2 * math.pi * abs(alpha) * sigma_x


def sigma_b_from_t2(t2_0m1: float) -> float:
    """Field-noise sigma (mG) implied by the undressed {0,-1} coherence
    time: gamma*sigma_b = sqrt(2)/t2."""
    if not t2_0m1 > 0:
        raise ValueError("t2 must be positive")
    return SQRT2 / (GAMMA * t2_0m1)


def kappa(omega: float, a_par: float) -> float:
    """1/kappa = sqrt(a_par^2 + omega^2) / (sqrt(2)*pi)."""
    root = math.hypot(a_par, omega)
    if root == 0.0:
        raise ValueError("omega and a_par cannot both be zero")
    return SQRT2 * math.pi / root


def rate_magnetic_mp(omega: float, a_par: float, sigma_b: float) -> float:
    """First-order {m,p} dephasing rate from field noise:
    Gamma_b = sqrt(2)*pi * (2*|a_par|*gamma/sqrt(a_par^2+omega^2)) * sigma_b."""
    if sigma_b < 0:
        raise ValueError("sigma_b must be non-negative")
    if a_par == 0.0 and omega == 0.0:
        # Undressed {+1,-1} qubit: slope is 2*gamma.
        return gaussian_dephasing_rate(2.0 * GAMMA, sigma_b)
    slope = 2.0 * abs(a_par) * GAMMA / math.hypot(a_par, omega)
    return gaussian_dephasing_rate(slope, sigma_b)


def rate_amplitude_mp(omega: float, a_par: float, sigma_omega: float) -> float:
    """First-order {m,p} dephasing rate from drive-amplitude noise:
    Gamma_Omega = kappa * omega * sigma_omega."""
    if sigma_omega < 0:
        raise ValueError("sigma_omega must be non-negative")
    if sigma_omega == 0.0 or omega == 0.0:
        return 0.0
    return kappa(omega, a_par) * omega * sigma_omega


def combine_rates(budget: RateBudget) -> float:
    """T2* = 2*pi / sum(Gamma_i) for uncorrelated noise sources."""
    total = budget.total()
    if total <= 0.0:
        raise ZeroRateError("all rates are zero; T2* is unbounded")
    return 2.0 * math.pi / total


def sigma_omega_from_reflectometer(mean_omega: float, eta: float,
                                   alpha_diode: float) -> float:
    """sigma_omega = (<omega> + alpha) * eta from the reflected-voltage
    noise-injection calibration."""
    if mean_omega + alpha_diode <= 0:
        raise ValueError("mean_omega + alpha_diode must be positive")
    return (mean_omega + alpha_diode) * eta


def _beta(tau, omega, sigma_b, a_par):
    cube = (a_par * a_par + omega * omega) ** 3
    q = (2.0 * GAMMA * sigma_b * omega) ** 4 * tau * tau
    return np.sqrt(cube / (cube + q))


def envelope_second_order(tau, omega: float, sigma_b: float, a_par: float):
    """Second-order-in-delta_b Ramsey decay envelope
    f = sqrt(beta) * exp(-2*(gamma*sigma_b*a_par*beta*tau)^2/(a_par^2+omega^2)).

    Accepts scalar or array tau.
    """
    if a_par == 0.0 and omega == 0.0:
        raise ValueError("omega and a_par cannot both be zero")
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ValueError("tau must be non-negative")
    beta = _beta(tau, omega, sigma_b, a_par)
    expo = 2.0 * (GAMMA * sigma_b * a_par * beta * tau) ** 2 \
        / (a_par * a_par + omega * omega)
    out = np.sqrt(beta) * np.exp(-expo)
    return float(out) if out.ndim == 0 else out


def envelope_max_protection(tau, omega: float, sigma_b: float):
    """a_par -> 0 limit of the second-order envelope:
    h = sqrt(omega / sqrt(omega^2 + (2*gamma*sigma_b)^4 * tau^2))."""
    if not omega > 0:
        raise ValueError("omega must be positive")
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ValueError("tau must be non-negative")
    out = np.sqrt(omega / np.sqrt(omega * omega
                                  + (2.0 * GAMMA * sigma_b) ** 4 * tau * tau))
    return float(out) if out.ndim == 0 else out


def gaussian_envelope(tau, t2: float):
    """exp(-(tau/t2)^2); t2 is the 1/e time."""
    if not t2 > 0:
        raise ValueError("t2 must be positive")
    tau = np.asarray(tau, dtype=float)
    # (tau/t2)**2 may overflow to inf; exp(-inf) = 0 is the right limit
    with np.errstate(over="ignore"):
        out = np.exp(-(tau / t2) ** 2)
    return float(out) if out.ndim == 0 else out


def one_over_e_time(envelope) -> float:
    """Solve envelope(tau) = 1/e by doubling bracket + bisection, to
    ONE_OVER_E_TOL us, or to the float resolution where that is coarser.

    The envelope must be non-increasing with envelope(0) = 1.  Raises
    HorizonExceeded if the doubling bracket overflows to inf first.
    """
    target = 1.0 / math.e
    lo = 0.0
    hi = 1e-3
    while float(envelope(hi)) > target:
        lo = hi
        hi *= 2.0
        if hi == math.inf:
            raise HorizonExceeded(lo)
    while hi - lo > ONE_OVER_E_TOL:
        mid = 0.5 * lo + 0.5 * hi   # equals 0.5 * (lo + hi), never inf
        if not lo < mid < hi:
            break
        if float(envelope(mid)) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * lo + 0.5 * hi


def predicted_t2_mp(omega: float, a_par: float, sigma_b: float,
                    sigma_omega: float = 0.0, order: str = "first") -> float:
    """Predicted {m,p} coherence time at delta = 0.

    order='first': 2*pi / (Gamma_b + Gamma_Omega).
    order='second': 1/e time of the second-order delta_b envelope times the
    Gaussian delta_omega envelope (independent channels multiply).
    """
    if order == "first":
        budget = RateBudget((
            ("magnetic", rate_magnetic_mp(omega, a_par, sigma_b)),
            ("amplitude", rate_amplitude_mp(omega, a_par, sigma_omega)),
        ))
        return combine_rates(budget)
    if order == "second":
        gamma_om = rate_amplitude_mp(omega, a_par, sigma_omega)

        def env(tau):
            f = envelope_second_order(tau, omega, sigma_b, a_par)
            if gamma_om > 0.0:
                f = f * gaussian_envelope(tau, 2.0 * math.pi / gamma_om)
            return f

        return one_over_e_time(env)
    raise ValueError(f"unknown order {order!r}")


def mc_envelope_second_order(tau_grid, omega: float, sigma_b: float,
                             a_par: float, n_draws: int = 100_000,
                             seed: int = 0):
    """Monte-Carlo evaluation of the Gaussian phase average behind the
    second-order envelope: |<exp(i*dw*tau)>| over delta_b ~ N(0, sigma_b^2)
    with dw the second-order expansion of the {m,p} Larmor deviation.

    Returns (envelope estimate, standard error) arrays over tau_grid.
    Independent oracle for envelope_second_order.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    db = rng.standard_normal(n_draws) * sigma_b
    gdb = GAMMA * db
    denom = (a_par * a_par + omega * omega) ** 1.5
    dw = 2.0 * gdb * (a_par ** 3 + a_par * omega * omega + gdb * omega * omega) \
        / denom
    tau_grid = np.asarray(tau_grid, dtype=float)
    phases = np.exp(1j * np.outer(tau_grid, dw))
    mean = phases.mean(axis=1)
    # SE of |mean| from the component scatter.
    se_re = phases.real.std(axis=1) / math.sqrt(n_draws)
    se_im = phases.imag.std(axis=1) / math.sqrt(n_draws)
    env = np.abs(mean)
    with np.errstate(invalid="ignore", divide="ignore"):
        se = np.where(env > 0,
                      np.sqrt((mean.real * se_re) ** 2
                              + (mean.imag * se_im) ** 2) / np.maximum(env, 1e-300),
                      np.hypot(se_re, se_im))
    return env, se
