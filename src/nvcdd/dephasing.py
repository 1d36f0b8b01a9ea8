"""Analytic dephasing rates and decay envelopes for the dressed qubits.

Rates are angular (rad/us); the matching coherence time is T2* = 2*pi/Gamma.
Envelopes are normalized to 1 at tau = 0 and are non-increasing.
"""

from __future__ import annotations

from dataclasses import dataclass
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
class NoiseSpec:
    """Quasi-static Gaussian noise channels.  The drive amplitude's
    deviation is sigma_omega_fixed + (mean_omega + alpha_diode) * eta:
    a fixed sigma_omega, or the reflectometer loop's law with eta > 0."""

    sigma_b: float = 0.0             # mG
    sigma_t: float = 0.0             # degC
    sigma_omega_fixed: float = 0.0   # rad/us
    eta: float = 0.0
    alpha_diode: float = 0.0         # rad/us

    def __post_init__(self):
        if self.sigma_b < 0 or self.sigma_t < 0:
            raise ValueError("noise standard deviations must be >= 0")
        if self.sigma_omega_fixed < 0:
            raise ValueError("sigma_omega must be non-negative")
        if not 0.0 <= self.eta < 1.0:
            raise ValueError("eta must be in [0, 1)")

    def sigma_omega(self, mean_omega: float) -> float:
        if mean_omega == 0.0:
            return 0.0  # drive off: no amplitude to fluctuate, in either mode
        if mean_omega + self.alpha_diode <= 0:
            raise ValueError("mean_omega + alpha_diode must be positive")
        return (self.sigma_omega_fixed
                + (mean_omega + self.alpha_diode) * self.eta)


def sigma_b_from_t2(t2_0m1: float) -> float:
    """Field-noise sigma (mG) implied by the undressed {0,-1} coherence
    time: gamma*sigma_b = sqrt(2)/t2."""
    if not t2_0m1 > 0:
        raise ValueError("t2 must be positive")
    return SQRT2 / (GAMMA * t2_0m1)


def rate_magnetic_mp(omega: float, a_par: float, sigma_b: float) -> float:
    """First-order {m,p} dephasing rate from field noise:
    Gamma_b = sqrt(2)*pi * (2*|a_par|*gamma/sqrt(a_par^2+omega^2)) * sigma_b,
    the rate sqrt(2)*pi*|slope|*sigma of a line that moves by slope*delta_x
    for a Gaussian delta_x of deviation sigma."""
    if sigma_b < 0:
        raise ValueError("sigma_b must be non-negative")
    # the undressed {+1,-1} qubit's slope is 2*gamma
    slope = 2.0 * GAMMA if a_par == 0.0 and omega == 0.0 \
        else 2.0 * abs(a_par) * GAMMA / math.hypot(a_par, omega)
    return SQRT2 * math.pi * slope * sigma_b


def rate_amplitude_mp(omega: float, a_par: float, sigma_omega: float) -> float:
    """First-order {m,p} dephasing rate from drive-amplitude noise:
    Gamma_Omega = sqrt(2)*pi * (omega/sqrt(a_par^2+omega^2)) * sigma_omega."""
    if sigma_omega < 0:
        raise ValueError("sigma_omega must be non-negative")
    if sigma_omega == 0.0 or omega == 0.0:
        return 0.0
    return SQRT2 * math.pi / math.hypot(a_par, omega) * omega * sigma_omega


def envelope_second_order(tau, omega: float, sigma_b: float, a_par: float):
    """Second-order-in-delta_b Ramsey decay envelope
    f = sqrt(beta) * exp(-2*(gamma*sigma_b*a_par*beta*tau)^2/(a_par^2+omega^2)),
    beta = sqrt(W^3 / (W^3 + (2*gamma*sigma_b*omega)^4 * tau^2)) with
    W = a_par^2 + omega^2.

    Accepts scalar or array tau.  a_par = 0 gives the envelope at the
    maximally protected point delta = -|a_par|.
    """
    if a_par == 0.0 and omega == 0.0:
        raise ValueError("omega and a_par cannot both be zero")
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0):
        raise ValueError("tau must be non-negative")
    square = a_par * a_par + omega * omega
    cube = square ** 3
    beta = np.sqrt(cube / (cube + (2.0 * GAMMA * sigma_b * omega) ** 4
                           * tau * tau))
    expo = 2.0 * (GAMMA * sigma_b * a_par * beta * tau) ** 2 / square
    out = np.sqrt(beta) * np.exp(-expo)
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
        gamma_b = rate_magnetic_mp(omega, a_par, sigma_b)
        gamma_om = rate_amplitude_mp(omega, a_par, sigma_omega)
        if gamma_om < 0:   # omega < 0; gamma_b is never negative
            raise ValueError(f"rate amplitude must be >= 0, got {gamma_om}")
        total = gamma_b + gamma_om
        if total <= 0.0:
            raise ZeroRateError("all rates are zero; T2* is unbounded")
        return 2.0 * math.pi / total
    if order == "second":
        gamma_om = rate_amplitude_mp(omega, a_par, sigma_omega)

        def env(tau):
            f = envelope_second_order(tau, omega, sigma_b, a_par)
            if gamma_om > 0.0:
                f = f * gaussian_envelope(tau, 2.0 * math.pi / gamma_om)
            return f

        return one_over_e_time(env)
    raise ValueError(f"unknown order {order!r}")
