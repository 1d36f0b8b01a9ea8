"""Independent reference physics the suite checks nvcdd against.

No command, engine path or fit model runs this code.  It restates the
paper's closed forms in their most direct form, so that the shot engine,
the dephasing formulas and the fit models can be compared with them:
the six-level Hamiltonians and their 3x3 13C blocks, the dressed
energies and Larmor frequencies, the Gaussian dephasing rate of a linear
slope, the rate budget, a Monte-Carlo estimate
of the second-order envelope, its closed form at the maximally protected
point and the two-branch fringe formula built on it, the ramsey_mp and
spectrum_joint fit models for one parameter vector, whole-state
propagation of the 13C blocks, numpy's own per-shot
generator, the exact ensemble mean of a simulated trace by quadrature,
and a trace CSV reader that checks one row at a time.

Basis order of the six-level model: {+1 up, +1 down, 0 up, 0 down,
-1 up, -1 down}, where up/down are the m_I = +-1/2 sublevels of the 13C
spin.  The 13C index is never coupled: every Hamiltonian here is
block-diagonal in it.

All frequencies are angular (rad/us), fields in mG, times in us.
"""

from __future__ import annotations

from dataclasses import dataclass
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np

from nvcdd import pulse_sim
from nvcdd.dephasing import ZeroRateError, envelope_second_order
from nvcdd.fitting import FitParam, ModelFunction
from nvcdd.pulse_sim import Trace
from nvcdd.spin_model import SystemParams
from nvcdd.units import DD_DT, GAMMA, TWO_PI, khz_to_angular

# Zero-field splitting, 2.87 GHz.
D0 = TWO_PI * 2.87e3  # rad/us

HERMITICITY_RTOL = 1e-12

_K = 2.0 * math.pi * 1e-3  # kHz -> rad/us

# Sublevel sign: +1 for 13C up (m_I=+1/2), -1 for down.
SUBLEVELS = {"u": +1.0, "d": -1.0}


class NonHermitianError(ValueError):
    """Raised when a matrix expected to be Hermitian is not."""


def bias_field(params: SystemParams) -> float:
    """Bias field in mG, from the resonance condition
    omega_mech = 2*GAMMA*b + delta (the drive rotates the frame at
    omega_mech/2)."""
    return (params.omega_mech - params.delta) / (2.0 * GAMMA)


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
    gb = GAMMA * (bias_field(params) + env.delta_b)
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
    gb = GAMMA * (bias_field(params) + env.delta_b)
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
    gb = GAMMA * bias_field(params)
    return np.diag([gb, gb, 0.0, 0.0, -gb, -gb]).astype(complex)


def frame_hamiltonians(params: SystemParams, db, dom, dt,
                       detuning_mag, omega_mag=0.0) -> np.ndarray:
    """Stacked doubly-rotating-frame Hamiltonians at pulse phase 0, as
    their two real 13C blocks: shape (n, 2, 3, 3), up block first, each
    ordered (+1, 0, -1).  pulse_sim._run_batch forms only their entries.

    db, dom, dt are environment arrays of shape (n,), and detuning_mag a
    scalar or an array (n,).  The drive (carrier at detuning_mag) couples
    |0> to |-1> only, addressing 0<->m and 0<->p through their |-1>
    components; its 0<->+1 element, detuned by the full Zeeman splitting,
    is dropped like every other counter-rotating term.
    """
    db = np.atleast_1d(np.asarray(db, dtype=float))
    dom = np.broadcast_to(np.asarray(dom, dtype=float), db.shape)
    dt = np.broadcast_to(np.asarray(dt, dtype=float), db.shape)
    h = np.zeros((db.shape[0], 2, 3, 3))
    gdb = GAMMA * db[:, None]
    a = params.a_par
    h[..., 0, 0] = gdb + 0.5 * np.array([params.delta + a, params.delta - a])
    h[..., 1, 1] = (detuning_mag - DD_DT * dt)[:, None]
    h[..., 2, 2] = -h[..., 0, 0]
    h[..., 0, 2] = h[..., 2, 0] = 0.5 * (params.omega + dom)[:, None]
    h[..., 1, 2] = h[..., 2, 1] = 0.5 * omega_mag
    return h


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


def detuning_from_lines(w0m: float, w0p: float, w0m1: float) -> float:
    """Mechanical detuning from the three measured spectral lines:
    delta = 2 * [(w0m + w0p)/2 - w0m1]."""
    return 2.0 * (0.5 * (w0m + w0p) - w0m1)


def gaussian_dephasing_rate(alpha: float, sigma_x: float) -> float:
    """Gamma = sqrt(2)*pi*|alpha|*sigma_x for a linear frequency deviation
    alpha*delta_x with Gaussian delta_x of deviation sigma_x."""
    if sigma_x < 0:
        raise ValueError("sigma_x must be non-negative")
    return math.sqrt(2.0) * math.pi * abs(alpha) * sigma_x


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


def combine_rates(budget: RateBudget) -> float:
    """T2* = 2*pi / sum(Gamma_i) for uncorrelated noise sources."""
    total = budget.total()
    if total <= 0.0:
        raise ZeroRateError("all rates are zero; T2* is unbounded")
    return 2.0 * math.pi / total


def mc_envelope_second_order(tau_grid, omega: float, sigma_b: float,
                             a_par: float, n_draws: int = 100_000,
                             seed: int = 0):
    """Monte-Carlo evaluation of the Gaussian phase average behind the
    second-order envelope: |<exp(i*dw*tau)>| over delta_b ~ N(0, sigma_b^2)
    with dw the second-order expansion of the {m,p} Larmor deviation.

    Returns (envelope estimate, standard error) arrays over tau_grid.
    Independent oracle for dephasing.envelope_second_order.
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


def envelope_max_protection(tau, omega: float, sigma_b: float):
    """The paper's envelope at the maximally protected point
    delta = -|a_par|, the a_par -> 0 limit of the second-order envelope:
    h = sqrt(omega / sqrt(omega^2 + (2*gamma*sigma_b)^4 * tau^2)).

    Independent oracle for dephasing.envelope_second_order at a_par = 0.
    """
    tau = np.asarray(tau, dtype=float)
    return np.sqrt(omega / np.sqrt(omega * omega
                                   + (2.0 * GAMMA * sigma_b) ** 4 * tau * tau))


def model_max_protection(a_par_khz: float, gamma_sigma_b_khz: float,
                         p0_ud: float) -> ModelFunction:
    """Maximally protected {m,p} Ramsey at delta = -|a_par|: a slowly
    decaying branch at omega under the algebraic envelope plus a
    Gaussian-damped branch at sqrt(omega^2 + 4*a_par^2)."""

    def evaluate_row(tau, omega, phi, c, t2_up, a_par, gsb, amp):
        om_ang = khz_to_angular(omega)
        sigma_b = khz_to_angular(gsb) / GAMMA
        slow = envelope_second_order(tau, om_ang, sigma_b, 0.0) \
            * np.cos(om_ang * tau + phi)
        w_fast = _K * math.hypot(omega, 2.0 * a_par)
        fast = np.exp(-((tau / t2_up) ** 2)) * np.cos(w_fast * tau + phi)
        return c + 0.25 * amp * (slow + fast)

    def evaluate(theta, tau):
        # envelope_second_order and math.hypot take one vector's scalars
        return np.array([evaluate_row(tau, *row) for row in theta[..., 0].T])

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


def ramsey_mp_one_vector(theta, tau):
    """models.model_ramsey_mp's value for one parameter vector, in scalar
    arithmetic: math.hypot, and numpy scalars for the parameters."""
    c, t2, omega, phi, a_par, amp = np.asarray(theta, dtype=float)
    w = _K * math.hypot(omega, a_par)
    return c + 0.5 * amp * np.exp(-((tau / t2) ** 2)) * np.cos(w * tau + phi)


def spectrum_joint_one_vector(theta, x, n_dressed: int):
    """models.model_spectrum_joint's value for one parameter vector, in
    scalar arithmetic: math.hypot for the dressed offsets, and a numpy
    scalar's ** 2 (C pow) for each (2 / width)**2."""
    c_d, a_d1, a_d2, g_d, delta, omega, c_ud, a_ud, g_ud, w01 = \
        np.asarray(theta, dtype=float)

    def dip(x, center, width):
        return 1.0 / ((2.0 / width) ** 2 * (x - center) ** 2 + 1.0)

    root = math.hypot(delta, omega)
    lo, hi = 0.5 * (delta - root), 0.5 * (delta + root)
    xd, xu = x[:n_dressed], x[n_dressed:]
    return np.concatenate([
        c_d - a_d1 * dip(xd, w01 + lo, g_d) - a_d2 * dip(xd, w01 + hi, g_d),
        c_ud - a_ud * dip(xu, w01, g_ud)])


def _apply_eigen(states: np.ndarray, vals: np.ndarray, vecs: np.ndarray,
                 duration: float) -> np.ndarray:
    """exp(-i h t) applied to block states (n, 2, 3), given h's block
    eigendecomposition: the whole-state propagation that the engine's
    |0>-column form (pulse_sim._newton_column) specialises."""
    coeff = (states[..., None, :] @ vecs.conj())[..., 0, :]
    coeff *= np.exp(-1j * vals * duration)
    return (vecs @ coeff[..., None])[..., 0]


def shot_rng(seed: int, shot_index: int, point_index: int) -> np.random.Generator:
    """numpy's own generator for one shot's noise stream: Philox keyed by
    [seed, shot], counter [0, point, 0, 0].  pulse_sim._sample_block must
    reproduce its standard_normal draws bit for bit."""
    bitgen = np.random.Philox(key=np.array([seed, shot_index], dtype=np.uint64),
                              counter=np.array([0, point_index, 0, 0],
                                               dtype=np.uint64))
    return np.random.Generator(bitgen)


def shot_normals(seed: int, shots, points) -> np.ndarray:
    """shot_rng(seed, shot, point).standard_normal(3) for each (shot,
    point) pair, shape (len(shots), 3), from one generator re-keyed per
    shot by assigning its state, which is much cheaper than constructing
    one per shot."""
    key = np.array([seed, 0], dtype=np.uint64)
    counter = np.zeros(4, dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    gen = np.random.Generator(bitgen)
    state = {"bit_generator": "Philox",
             "state": {"key": key, "counter": counter},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    draws = np.empty((len(shots), 3))
    for row, (shot, point) in enumerate(zip(shots, points)):
        key[1], counter[1] = shot, point
        bitgen.state = state
        gen.standard_normal(out=draws[row])
    return draws


def exact_mean_trace(simulate, *args, nodes=(40, 12, 10), **kwargs) -> list:
    """The traces whose mean P0 the Monte Carlo of simulate(*args,
    **kwargs) estimates, one per drive, simulate being
    pulse_sim.simulate_ramsey or simulate_spectrum, computed without
    sampling: every noise is quasi-static and Gaussian, so each mean is a
    3-D Gaussian integral over delta_b, delta_Omega and delta_T, taken
    here by tensor Gauss-Hermite quadrature with nodes[i] nodes on each
    axis (one on an axis whose sigma is zero).  pulse_sim._simulate is
    swapped out while simulate runs, so the simulator's own runs, each a
    point_at, its params and its noise, and pulse_sim._run_batch give P0
    at every node.  The traces' stderr is zero."""
    def exact_mean(grid, point_at, params, noise):
        sigmas = (noise.sigma_b, noise.sigma_omega(params.omega), noise.sigma_t)
        axes = [np.polynomial.hermite_e.hermegauss(n if sigma else 1)
                for n, sigma in zip(nodes, sigmas)]
        env = [x.ravel() for x in np.meshgrid(
            *(sigma * x for sigma, (x, _) in zip(sigmas, axes)), indexing="ij")]
        weights = math.prod(np.ix_(*(w / w.sum() for _, w in axes))).ravel()
        n = len(weights)
        mean = np.empty(len(grid))
        per_call = max(1, 2**16 // n)
        for first in range(0, len(grid), per_call):
            rows = slice(first, first + per_call)
            count = len(grid[rows])
            p0 = pulse_sim._run_batch(point_at(np.repeat(grid[rows], n)),
                                      params, *(np.tile(x, count) for x in env))
            mean[rows] = p0.reshape(count, n) @ weights
        return np.clip(mean, 0.0, 1.0), np.zeros(len(grid))

    def quadrature(grid, runs, config, nodes=None):
        # the engine's own quadrature (its nodes argument) is not used:
        # this one builds and reduces its nodes itself
        return [exact_mean(grid, point_at, params, noise)
                for point_at, params, noise in runs]

    with mock.patch.object(pulse_sim, "_simulate", quadrature):
        return simulate(*args, **kwargs)


def read_trace_csv_per_row(path) -> Trace:
    """A trace CSV (and its sidecar) read one row at a time, each row
    checked in full before the next is read: the rows and messages that
    pulse_sim.read_trace_csv must match, checking whole columns."""
    path = str(path)
    lines = []
    data = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")
    for n, ln in enumerate(data.splitlines(), 1):
        try:
            ln = ln.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}:{n}: {exc}") from None
        if ln:
            lines.append((n, ln))
    if not lines or lines[0][1] != "abscissa,mean_p0,stderr,n_shots":
        raise ValueError(f"{path}:1: expected header "
                         "'abscissa,mean_p0,stderr,n_shots'")
    if len(lines) == 1:
        raise ValueError(f"{path}:{lines[0][0] + 1}: no data rows")
    rows = []
    for lineno, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
        try:
            row = tuple(float(p) for p in parts)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        abscissa, mean_p0, stderr, n_shots = row
        if not -math.inf < abscissa < math.inf:
            raise ValueError(f"{path}:{lineno}: abscissa must be finite")
        if not -1e-9 <= mean_p0 <= 1 + 1e-9:
            raise ValueError(f"{path}:{lineno}: mean_p0 must lie in [0, 1]")
        if not 0 <= stderr < math.inf:
            raise ValueError(f"{path}:{lineno}: stderr must be finite and >= 0")
        if not (n_shots >= 1 and n_shots.is_integer()):
            raise ValueError(f"{path}:{lineno}: n_shots must be an integer >= 1")
        if rows and n_shots != rows[0][3]:
            raise ValueError(f"{path}:{lineno}: n_shots differs from the first row")
        rows.append(row)
    sidecar = Path(path + ".meta.json")
    metadata = {}
    if sidecar.exists():
        try:
            metadata = json.loads(sidecar.read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ValueError(f"{sidecar}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"{sidecar}:{exc.lineno}: {exc.msg}") from None
        if not isinstance(metadata, dict):
            raise ValueError(f"{sidecar}:1: metadata must be a JSON object")
    arr = np.array(rows)
    return Trace(arr[:, 0], arr[:, 1], arr[:, 2], int(arr[0, 3]), metadata)
