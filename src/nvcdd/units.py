"""Unit conventions and physical constants.

Everything internal is angular frequency in rad/us.  User-facing I/O
(CLI, configs, fit reports) uses ordinary frequency in kHz and converts
at the boundary.  Times are microseconds, magnetic fields are milligauss,
temperatures are degrees Celsius.  hbar = 1.
"""

import math

TWO_PI = 2.0 * math.pi


def khz_to_angular(f_khz: float) -> float:
    """Ordinary frequency in kHz -> angular frequency in rad/us."""
    return TWO_PI * f_khz * 1e-3


def angular_to_khz(w: float) -> float:
    """Angular frequency in rad/us -> ordinary frequency in kHz."""
    return w * 1e3 / TWO_PI


def mhz_to_angular(f_mhz: float) -> float:
    return TWO_PI * f_mhz


# NV gyromagnetic ratio, 2.8 MHz/G = 2.8e-3 MHz/mG, stored angular per mG.
GAMMA = TWO_PI * 2.8e-3  # rad/us/mG

# Thermal slope of the zero-field splitting, -74 kHz/degC.
DD_DT = -TWO_PI * 74e-3  # rad/us/degC
