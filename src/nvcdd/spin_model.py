"""The static scenario of a mechanically driven NV-center spin coupled
to one 13C nuclear spin, and the closed forms the simulator and the CLI
read from it: the dressed spectral-line offsets and the resonator's
noise cutoff.

All frequencies are angular (rad/us).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import math


@dataclass(frozen=True)
class SystemParams:
    """Static configuration of the spin + mechanical drive system.

    The bias field is not a parameter: the resonance condition
    omega_mech = 2*GAMMA*b + delta fixes it, so retuning delta at fixed
    omega_mech moves it.
    """

    omega: float = 0.0          # mechanical Rabi field, rad/us
    delta: float = 0.0          # mechanical detuning, rad/us
    a_par: float = 0.0          # 13C coupling (signed), rad/us
    omega_mech: float = 0.0     # mechanical mode frequency, rad/us
    q_factor: float = 1.0       # dimensionless

    def __post_init__(self):
        if not self.q_factor > 0:
            raise ValueError(f"q_factor must be positive, got {self.q_factor}")
        for name in ("omega", "delta", "a_par", "omega_mech"):
            value = getattr(self, name)
            if not -math.inf < value < math.inf:   # NaN fails it too
                raise ValueError(f"{name} must be finite, got {value}")
        if self.omega < 0:
            raise ValueError(f"omega must be non-negative, got {self.omega}")

    def with_delta(self, delta: float) -> "SystemParams":
        """Retune the drive detuning at fixed omega_mech (moves the bias
        field)."""
        return replace(self, delta=delta)

    def with_omega(self, omega: float) -> "SystemParams":
        return replace(self, omega=omega)


def _sublevel_splittings(params: SystemParams) -> tuple[float, float]:
    """{m,p} splittings sqrt(omega^2 + (delta +- a_par)^2), 13C up, down."""
    return (math.hypot(params.omega, params.delta + params.a_par),
            math.hypot(params.omega, params.delta - params.a_par))


def dressed_transition_offsets(omega: float, delta: float) -> tuple[float, float]:
    """Offsets of the 0<->m and 0<->p lines from the undressed 0<->-1 line.

    Returns ((delta - sqrt(delta^2 + omega^2))/2,
             (delta + sqrt(delta^2 + omega^2))/2).
    """
    if omega < 0:
        raise ValueError("omega must be non-negative")
    root = math.hypot(delta, omega)
    return 0.5 * (delta - root), 0.5 * (delta + root)


def mechanical_cutoff(omega_mech: float, q_factor: float) -> float:
    """Resonator noise cutoff omega_mech / (2 Q)."""
    if not q_factor > 0:
        raise ValueError("q_factor must be positive")
    return omega_mech / (2.0 * q_factor)
