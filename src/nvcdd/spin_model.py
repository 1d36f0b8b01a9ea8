"""Lab-frame, rotating-frame, and dressed Hamiltonians of a mechanically
driven NV-center spin coupled to one 13C nuclear spin.

Basis order everywhere: {+1 up, +1 down, 0 up, 0 down, -1 up, -1 down},
where up/down are the m_I = +-1/2 sublevels of the 13C spin.  The 13C
index is never coupled: every Hamiltonian here is block-diagonal in it.

All frequencies are angular (rad/us), fields in mG, times in us.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import math

import numpy as np

from .errors import NumericalError
from .units import GAMMA, D0, DD_DT

HERMITICITY_RTOL = 1e-12

# Sublevel sign: +1 for 13C up (m_I=+1/2), -1 for down.
SUBLEVELS = {"u": +1.0, "d": -1.0}


class NonHermitianError(NumericalError, ValueError):
    """Raised when a matrix expected to be Hermitian is not."""


@dataclass(frozen=True)
class SystemParams:
    """Static configuration of the spin + mechanical drive system.

    The bias field b is derived, not stored: it follows from the
    resonance condition omega_mech = 2*GAMMA*b + delta (the drive rotates
    the frame at omega_mech/2).
    """

    omega: float = 0.0          # mechanical Rabi field, rad/us
    delta: float = 0.0          # mechanical detuning, rad/us
    a_par: float = 0.0          # 13C coupling (signed), rad/us
    omega_mech: float = 0.0     # mechanical mode frequency, rad/us
    q_factor: float = 1.0       # dimensionless

    def __post_init__(self):
        if not self.q_factor > 0:
            raise ValueError(f"q_factor must be positive, got {self.q_factor}")
        if self.omega < 0:
            raise ValueError(f"omega must be non-negative, got {self.omega}")

    @property
    def b(self) -> float:
        """Bias field in mG."""
        return (self.omega_mech - self.delta) / (2.0 * GAMMA)

    def with_delta(self, delta: float) -> "SystemParams":
        """Retune the drive detuning at fixed omega_mech (moves b)."""
        return replace(self, delta=delta)

    def with_omega(self, omega: float) -> "SystemParams":
        return replace(self, omega=omega)


@dataclass(frozen=True)
class EnvironmentSample:
    """One quasi-static noise draw, held fixed for an entire shot."""

    delta_b: float = 0.0       # mG
    delta_omega: float = 0.0   # rad/us
    delta_t: float = 0.0       # degC

    def __post_init__(self):
        for name in ("delta_b", "delta_omega", "delta_t"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


ZERO_ENV = EnvironmentSample()


def zero_field_splitting(params: SystemParams, env: EnvironmentSample) -> float:
    """D = D0 + (dD/dT) * deltaT, angular."""
    return D0 + DD_DT * env.delta_t


def build_lab_hamiltonian(params: SystemParams, env: EnvironmentSample,
                          t: float) -> np.ndarray:
    """Lab-frame Hamiltonian with the mechanical drive at cos(omega_mech*t).

    Exists for structural checks; time-domain integration of it is out of
    scope.
    """
    gb = GAMMA * (params.b + env.delta_b)
    om = (params.omega + env.delta_omega) * math.cos(params.omega_mech * t)
    d = zero_field_splitting(params, env)
    a2 = 0.5 * params.a_par
    h = np.zeros((6, 6), dtype=complex)
    h[0, 0] = gb + a2
    h[1, 1] = gb - a2
    h[2, 2] = -d
    h[3, 3] = -d
    h[4, 4] = -gb - a2
    h[5, 5] = -gb + a2
    h[0, 4] = h[4, 0] = om
    h[1, 5] = h[5, 1] = om
    return h


def build_rotating_hamiltonian(params: SystemParams,
                               env: EnvironmentSample) -> np.ndarray:
    """RWA Hamiltonian in the frame rotating at omega_mech/2.

    Diagonal on the +-1 block is +-[gamma*b_sum + (delta +- a_par)/2] per
    13C sublevel; the 0 block sits at -D; the mechanical coupling is
    (omega + delta_omega)/2 between +1 and -1 within each sublevel.
    """
    gb = GAMMA * (params.b + env.delta_b)
    om2 = 0.5 * (params.omega + env.delta_omega)
    d = zero_field_splitting(params, env)
    a = params.a_par
    h = np.zeros((6, 6), dtype=complex)
    h[0, 0] = gb + 0.5 * (params.delta + a)
    h[1, 1] = gb + 0.5 * (params.delta - a)
    h[2, 2] = -d
    h[3, 3] = -d
    h[4, 4] = -gb - 0.5 * (params.delta + a)
    h[5, 5] = -gb - 0.5 * (params.delta - a)
    h[0, 4] = h[4, 0] = om2
    h[1, 5] = h[5, 1] = om2
    return h


def zeeman_frame_shift(params: SystemParams) -> np.ndarray:
    """Static Zeeman offset gamma*b on the +-1 manifold.

    Subtracting this from the rotating-frame Hamiltonian centers the
    +-1 blocks so their eigenvalues are the dressed energies directly.
    """
    gb = GAMMA * params.b
    return np.diag([gb, gb, 0.0, 0.0, -gb, -gb]).astype(complex)


def xi(params: SystemParams, env: EnvironmentSample, sublevel: str) -> float:
    """Effective detuning xi = delta + 2*gamma*delta_b +- a_par."""
    s = SUBLEVELS[sublevel]
    return params.delta + 2.0 * GAMMA * env.delta_b + s * params.a_par


@dataclass(frozen=True)
class DressedLevels:
    """Dressed eigenenergies, one (label, energy) pair per basis state.

    Labels are '0u', '0d', 'mu', 'md', 'pu', 'pd'.
    """

    energies: dict

    def energy(self, label: str) -> float:
        return self.energies[label]


def dressed_energies(params: SystemParams,
                     env: EnvironmentSample = ZERO_ENV) -> DressedLevels:
    """Closed-form dressed energies {-D, -+sqrt(omega_sum^2 + xi^2)/2}."""
    d = zero_field_splitting(params, env)
    om = params.omega + env.delta_omega
    energies = {"0u": -d, "0d": -d}
    for sub in ("u", "d"):
        half = 0.5 * math.hypot(om, xi(params, env, sub))
        energies["m" + sub] = -half
        energies["p" + sub] = +half
    return DressedLevels(energies)


def diagonalize(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, ascending eigenvalues.

    Rejects input whose anti-Hermitian part exceeds the relative
    tolerance.  Returns (eigenvalues, eigenvector matrix with orthonormal
    columns).
    """
    h = np.asarray(h, dtype=complex)
    scale = max(np.abs(h).max(), 1.0)
    if np.abs(h - h.conj().T).max() > HERMITICITY_RTOL * scale * 100:
        raise NonHermitianError("matrix is not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(h)
    return vals, vecs


def larmor_frequency(level_i: str, level_j: str, params: SystemParams,
                     env: EnvironmentSample = ZERO_ENV) -> float:
    """Phase-accumulation rate |E_i - E_j| between two dressed levels."""
    if level_i == level_j:
        raise ValueError("levels must be distinct")
    levels = dressed_energies(params, env)
    return abs(levels.energy(level_i) - levels.energy(level_j))


def dressed_transition_offsets(omega: float, delta: float) -> tuple[float, float]:
    """Offsets of the 0<->m and 0<->p lines from the undressed 0<->-1 line.

    Returns ((delta - sqrt(delta^2 + omega^2))/2,
             (delta + sqrt(delta^2 + omega^2))/2).
    """
    if omega < 0:
        raise ValueError("omega must be non-negative")
    root = math.hypot(delta, omega)
    return 0.5 * (delta - root), 0.5 * (delta + root)


def detuning_from_lines(w0m: float, w0p: float, w0m1: float) -> float:
    """Mechanical detuning from the three measured spectral lines:
    delta = 2 * [(w0m + w0p)/2 - w0m1]."""
    return 2.0 * (0.5 * (w0m + w0p) - w0m1)


def mechanical_cutoff(omega_mech: float, q_factor: float) -> float:
    """Resonator noise cutoff omega_mech / (2 Q)."""
    if not q_factor > 0:
        raise ValueError("q_factor must be positive")
    return omega_mech / (2.0 * q_factor)
