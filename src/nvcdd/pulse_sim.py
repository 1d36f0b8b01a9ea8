"""Quasi-static Monte-Carlo simulation of the CDD pulse sequences.

Sequences are propagated as piecewise-constant Hamiltonians in the doubly
rotating frame: the mechanical drive rotates the +-1 manifold at
omega_mech/2 and the magnetic carrier absorbs the nominal zero-field
splitting, so the |0> level sits at (carrier detuning) - (dD/dT)*deltaT.
Spectral abscissae are detunings from the nominal undressed 0<->-1 line.

One environment sample is drawn per shot and held constant across the
whole sequence.  Shot RNG streams are counter-based (Philox keyed by
(seed, shot), counter positioned by the abscissa index), so execution
order never changes results; _sample_block re-keys one generator per shot
instead of constructing one, with bit-identical draws.

The engine is batch-only: _simulate runs all shots of a grid point as one
stack; a single shot is a batch of one.  The Hamiltonian never couples
the 13C index, so states are propagated as two 3-level blocks, {0,2,4}
and {1,3,5}.  Free evolution is closed-form (|0> only picks up a phase,
the +-1 pair rotates), and each distinct pulse is diagonalised once per
point at phase 0: a pulse of phase phi is h(phi) = P h(0) P^dagger with
P = exp(i phi) on |0>, so opening and closing pulses share one
eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json
import math
from pathlib import Path

import numpy as np

from .dephasing import NoiseSpec
from .spin_model import SystemParams, dressed_transition_offsets
from .units import angular_to_khz

NORM_TOL = 1e-9

# Paper-grade default pulse strengths (angular rad/us).
DEFAULT_OMEGA_MAG_SQ = 2.0 * math.pi * 0.696   # {0,p} pi/2 pulses, 696 kHz
DEFAULT_OMEGA_MAG_DQ = 2.0 * math.pi * 1.513   # {m,p} DQ pi pulses, 1513 kHz
# Phase-advance rate of the closing {0,p} pulse; a visualization aid, not a
# measured quantity.
DEFAULT_OMEGA_ROT = 2.0 * math.pi * 0.250

RAMSEY_KINDS = ("undressed_0m1", "dressed_0p", "dressed_mp", "max_protection")


class NormLossError(RuntimeError):
    """Propagation changed a state's norm by more than NORM_TOL."""


class SequenceError(ValueError):
    """Malformed pulse sequence; carries the offending segment index."""

    def __init__(self, index: int, message: str):
        super().__init__(f"segment {index}: {message}")
        self.index = index


@dataclass(frozen=True)
class Reset:
    """Optical initialization into |0> with the given 13C weights."""

    weights: tuple = (0.5, 0.5)

    def __post_init__(self):
        w = self.weights
        if len(w) != 2 or min(w) < 0 or abs(w[0] + w[1] - 1.0) > 1e-12:
            raise ValueError("carbon weights must be two non-negatives summing to 1")


@dataclass(frozen=True)
class MagneticPulse:
    """Magnetic drive segment.

    The drive couples |0> to |-1> only, so at the dressed-line midpoint it
    addresses both 0<->m and 0<->p through their |-1> components.  The
    0<->+1 element of a tone near the 0<->-1 splitting is detuned by the
    full Zeeman splitting and is dropped, like every other counter-rotating
    term in this frame.
    """

    omega_mag: float            # Rabi strength, rad/us
    duration: float             # us
    phase: float = 0.0          # rad
    detuning_mag: float | None = None  # rad/us; None -> sequence frame value

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError("duration must be >= 0")
        if not math.isfinite(self.phase):
            raise ValueError("phase must be finite")


@dataclass(frozen=True)
class FreeEvolution:
    duration: float  # us

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError("duration must be >= 0")


@dataclass(frozen=True)
class Readout:
    pass


@dataclass(frozen=True)
class PulseSequence:
    """Ordered segments plus the carrier frame detuning shared by all
    free-evolution segments (and pulses that do not override it)."""

    segments: tuple
    frame_detuning: float = 0.0  # rad/us


@dataclass(frozen=True)
class SimConfig:
    n_shots: int = 1000
    seed: int = 0
    carbon_weights: tuple = (0.5, 0.5)
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self):
        if self.n_shots < 1:
            raise ValueError("n_shots must be >= 1")
        if not 0 <= self.seed < 2 ** 64:   # Philox keys are uint64
            raise ValueError("seed must lie in [0, 2**64)")
        Reset(self.carbon_weights)


@dataclass
class Trace:
    """Simulated measurement record: mean |0> population per grid point."""

    abscissa: np.ndarray      # tau in us, or detuning in kHz
    mean_p0: np.ndarray
    stderr: np.ndarray
    n_shots: int
    metadata: dict

    def __post_init__(self):
        self.abscissa = np.asarray(self.abscissa, dtype=float)
        self.mean_p0 = np.asarray(self.mean_p0, dtype=float)
        self.stderr = np.asarray(self.stderr, dtype=float)
        if not np.all(_abscissa_valid(self.abscissa)):
            raise ValueError("abscissa must be finite")
        if not np.all(_mean_p0_valid(self.mean_p0)):
            raise ValueError("mean_p0 must lie in [0, 1]")
        if not np.all(_stderr_valid(self.stderr)):
            raise ValueError("stderr must be finite and >= 0")


# Row checks shared by Trace and read_trace_csv, written so that NaN,
# which fails every comparison, is rejected.
def _abscissa_valid(abscissa):
    return (abscissa > -np.inf) & (abscissa < np.inf)


def _mean_p0_valid(mean_p0):
    return (mean_p0 >= -1e-9) & (mean_p0 <= 1 + 1e-9)


def _stderr_valid(stderr):
    return (stderr >= 0) & (stderr < np.inf)


def shot_rng(seed: int, shot_index: int, point_index: int) -> np.random.Generator:
    """Counter-based per-shot RNG stream, independent of execution order."""
    bitgen = np.random.Philox(key=np.array([seed, shot_index], dtype=np.uint64),
                              counter=np.array([0, point_index, 0, 0],
                                               dtype=np.uint64))
    return np.random.Generator(bitgen)


def _frame_hamiltonians(params: SystemParams, db, dom, dt,
                        detuning_mag, omega_mag=0.0, phase=0.0) -> np.ndarray:
    """Stacked doubly-rotating-frame Hamiltonians, shape (n, 6, 6).

    db, dom, dt are environment arrays of shape (n,).
    """
    db = np.atleast_1d(np.asarray(db, dtype=float))
    dom = np.broadcast_to(np.asarray(dom, dtype=float), db.shape)
    dt = np.broadcast_to(np.asarray(dt, dtype=float), db.shape)
    h = np.zeros((db.shape[0], 6, 6), dtype=complex)
    gdb = params.gamma * db
    a = params.a_par
    h[:, 0, 0] = gdb + 0.5 * (params.delta + a)
    h[:, 1, 1] = gdb + 0.5 * (params.delta - a)
    h[:, 2, 2] = detuning_mag - params.dd_dt * dt
    h[:, 3, 3] = h[:, 2, 2]
    h[:, 4, 4] = -gdb - 0.5 * (params.delta + a)
    h[:, 5, 5] = -gdb - 0.5 * (params.delta - a)
    om2 = 0.5 * (params.omega + dom)
    h[:, 0, 4] = h[:, 4, 0] = om2
    h[:, 1, 5] = h[:, 5, 1] = om2
    if omega_mag:  # 0<->-1 only, see MagneticPulse
        g = 0.5 * omega_mag * np.exp(1j * phase)
        h[:, 2, 4] = h[:, 3, 5] = g
        h[:, 4, 2] = h[:, 5, 3] = np.conj(g)
    return h


# Basis indices of the two uncoupled 13C blocks, each ordered (+1, 0, -1).
_BLOCKS = np.array([[0, 2, 4], [1, 3, 5]])


def _eigen_blocks(h: np.ndarray):
    """Eigendecomposition of the two 13C blocks of stacked (n, 6, 6)
    Hamiltonians: values (n, 2, 3) and vectors (n, 2, 3, 3)."""
    return np.linalg.eigh(h[:, _BLOCKS[:, :, None], _BLOCKS[:, None, :]])


def _apply_eigen(states: np.ndarray, vals: np.ndarray, vecs: np.ndarray,
                 duration: float) -> np.ndarray:
    """exp(-i h t) applied to block states (n, 2, 3), given h's block
    eigendecomposition."""
    coeff = (states[..., None, :] @ vecs.conj())[..., 0, :]
    coeff *= np.exp(-1j * vals * duration)
    return (vecs @ coeff[..., None])[..., 0]


def _free_evolve(states: np.ndarray, h: np.ndarray,
                 duration: float) -> np.ndarray:
    """exp(-i h t) applied to block states (n, 2, 3) in closed form, for
    drive-free Hamiltonians h (n, 6, 6).

    |0> only picks up a phase.  In each block the +-1 pair rotates under
    e*sigma_z + w*sigma_x, whose propagator is
    cos(rt) - i sin(rt)/r (e*sigma_z + w*sigma_x) with r = hypot(e, w).
    """
    e = h[:, [0, 1], [0, 1]].real
    w = h[:, [0, 1], [4, 5]].real
    r = np.hypot(e, w)
    cos = np.cos(r * duration)
    sin_r = duration * np.sinc(r * duration / math.pi)   # sin(rt)/r
    plus, minus = states[..., 0], states[..., 2]
    out = np.empty_like(states)
    out[..., 0] = (cos - 1j * sin_r * e) * plus - 1j * sin_r * w * minus
    zero = h[:, [2, 3], [2, 3]].real
    out[..., 1] = np.exp(-1j * zero * duration) * states[..., 1]
    out[..., 2] = (cos + 1j * sin_r * e) * minus - 1j * sin_r * w * plus
    return out


def _propagate_batch(states: np.ndarray, h: np.ndarray,
                     duration: float) -> np.ndarray:
    """exp(-i h t) applied to stacked states (n, 6), block by block."""
    out = np.empty(states.shape, dtype=complex)
    out[:, _BLOCKS] = _apply_eigen(states[:, _BLOCKS], *_eigen_blocks(h),
                                   duration)
    return out


def _validate_sequence(seq: PulseSequence) -> None:
    segs = seq.segments
    if not segs or not isinstance(segs[0], Reset):
        raise SequenceError(0, "sequence must begin with Reset")
    if not isinstance(segs[-1], Readout):
        raise SequenceError(len(segs) - 1, "sequence must end with Readout")
    for i, seg in enumerate(segs[1:-1], start=1):
        if not isinstance(seg, (MagneticPulse, FreeEvolution)):
            raise SequenceError(i, f"unexpected segment {type(seg).__name__}")


def _run_batch(seq: PulseSequence, params: SystemParams,
               db, dom, dt) -> np.ndarray:
    """Run the sequence for stacked environment samples; returns P0 (n,).

    Each distinct (detuning, strength) pulse is diagonalised once, at
    phase 0, and a pulse of phase phi is applied as P h(0) P^dagger.
    """
    _validate_sequence(seq)
    db = np.atleast_1d(np.asarray(db, dtype=float))
    states = np.zeros((db.shape[0], 2, 3), dtype=complex)
    states[:, :, 1] = np.sqrt(seq.segments[0].weights)
    eigen = {}
    for seg in seq.segments[1:-1]:
        if isinstance(seg, MagneticPulse):
            det = seq.frame_detuning if seg.detuning_mag is None \
                else seg.detuning_mag
            key = (det, seg.omega_mag)
            if key not in eigen:
                # At phase 0 the Hamiltonian is real.
                eigen[key] = _eigen_blocks(_frame_hamiltonians(
                    params, db, dom, dt, det, seg.omega_mag).real)
            rot = np.exp(1j * seg.phase)
            states[..., 1] *= rot.conjugate()
            states = _apply_eigen(states, *eigen[key], seg.duration)
            states[..., 1] *= rot
        else:
            states = _free_evolve(states, _frame_hamiltonians(
                params, db, dom, dt, seq.frame_detuning), seg.duration)
        norms = np.linalg.norm(states, axis=(1, 2))
        if np.any(np.abs(norms - 1.0) > NORM_TOL):
            raise NormLossError("propagation lost norm")
    return np.abs(states[:, 0, 1]) ** 2 + np.abs(states[:, 1, 1]) ** 2


def _sample_block(noise: NoiseSpec, mean_omega: float, seed: int,
                  point_index: int, n_shots: int):
    """Per-shot environment draws for one grid point, shape (n_shots,) each.

    The draws equal shot_rng(seed, shot, point_index).standard_normal(3)
    bit for bit: one generator is re-keyed per shot by assigning its
    state, which is much cheaper than constructing a generator per shot.
    """
    key = np.array([seed, 0], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    gen = np.random.Generator(bitgen)
    state = {"bit_generator": "Philox",
             "state": {"key": key,
                       "counter": np.array([0, point_index, 0, 0],
                                           dtype=np.uint64)},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    draws = np.empty((n_shots, 3))
    for shot in range(n_shots):
        key[1] = shot
        bitgen.state = state
        gen.standard_normal(out=draws[shot])
    return (draws[:, 0] * noise.sigma_b,
            draws[:, 1] * noise.sigma_omega(mean_omega),
            draws[:, 2] * noise.sigma_t)


def _mean_p_line(params: SystemParams) -> float:
    """Frame position of the 0<->p line, averaged over 13C sublevels."""
    up = 0.5 * math.hypot(params.omega, params.delta + params.a_par)
    dn = 0.5 * math.hypot(params.omega, params.delta - params.a_par)
    return 0.5 * (up + dn)


def _simulate(grid, sequence_at, params: SystemParams, config: SimConfig):
    """Mean P0 (clipped to [0, 1]) and its standard error at each grid
    point, running the sequence sequence_at(x) for config.n_shots shots."""
    mean = np.empty(len(grid))
    stderr = np.empty(len(grid))
    for i, x in enumerate(grid):
        db, dom, dt = _sample_block(config.noise, params.omega,
                                    config.seed, i, config.n_shots)
        p0 = _run_batch(sequence_at(x), params, db, dom, dt)
        mean[i] = p0.mean()
        stderr[i] = p0.std(ddof=1) / math.sqrt(config.n_shots) \
            if config.n_shots > 1 else 0.0
    return np.clip(mean, 0.0, 1.0), stderr


def _metadata(kind: str, unit: str, params: SystemParams,
              config: SimConfig, omega_mag: float, **extra) -> dict:
    """Sidecar record of a simulated trace's run parameters."""
    return {
        "kind": kind,
        "abscissa_unit": unit,
        "seed": config.seed,
        "n_shots": config.n_shots,
        "omega_mag_khz": angular_to_khz(omega_mag),
        "omega_khz": angular_to_khz(params.omega),
        "delta_khz": angular_to_khz(params.delta),
        "a_par_khz": angular_to_khz(params.a_par),
        **extra,
    }


def simulate_ramsey(kind: str, tau_grid, params: SystemParams,
                    config: SimConfig, *, omega_mag: float | None = None,
                    omega_rot: float = DEFAULT_OMEGA_ROT,
                    closing_phase: float = 0.0) -> Trace:
    """Monte-Carlo Ramsey trace: mean P0 +- stderr over n_shots per tau."""
    if kind not in RAMSEY_KINDS:
        raise ValueError(f"unknown Ramsey kind {kind!r}")
    tau_grid = np.asarray(tau_grid, dtype=float)
    if np.any(np.diff(tau_grid) <= 0):
        raise ValueError("tau_grid must be strictly ascending")
    if kind == "undressed_0m1":
        params = params.with_omega(0.0)
    elif params.omega <= 0:
        raise ValueError(f"kind {kind!r} requires a nonzero mechanical drive")
    if kind == "max_protection":
        params = params.with_delta(-abs(params.a_par))
    if kind in ("dressed_mp", "max_protection"):
        # DQ pi pulses at the dressed-line midpoint; fixed closing phase
        omega_mag = DEFAULT_OMEGA_MAG_DQ if omega_mag is None else omega_mag
        frame, t_pulse, phase_rate = 0.0, math.pi / omega_mag, 0.0
    else:
        # pi/2 pulses on one line; the closing phase advances with tau
        omega_mag = DEFAULT_OMEGA_MAG_SQ if omega_mag is None else omega_mag
        frame = -0.5 * params.delta if kind == "undressed_0m1" \
            else _mean_p_line(params)
        t_pulse, phase_rate = 0.5 * math.pi / omega_mag, omega_rot
    opening = (Reset(config.carbon_weights), MagneticPulse(omega_mag, t_pulse))

    def sequence_at(tau):
        closing = MagneticPulse(omega_mag, t_pulse,
                                phase=phase_rate * tau + closing_phase)
        return PulseSequence(
            opening + (FreeEvolution(tau), closing, Readout()), frame)

    mean, stderr = _simulate(tau_grid, sequence_at, params, config)
    metadata = _metadata(kind, "us", params, config, omega_mag,
                         omega_rot_khz=angular_to_khz(omega_rot))
    return Trace(tau_grid, mean, stderr, config.n_shots, metadata)


def simulate_spectrum(detuning_grid, params: SystemParams, config: SimConfig,
                      *, omega_mag: float = 2.0 * math.pi * 0.080,
                      pulse_area: float = math.pi) -> Trace:
    """Spectroscopy scan: P0 versus magnetic drive detuning.

    detuning_grid is angular (rad/us), measured from the nominal undressed
    0<->-1 line; the returned Trace abscissa is in kHz.
    """
    detuning_grid = np.asarray(detuning_grid, dtype=float)
    if np.any(np.diff(detuning_grid) <= 0):
        raise ValueError("detuning grid must be strictly ascending")
    segments = (Reset(config.carbon_weights),
                MagneticPulse(omega_mag, pulse_area / omega_mag), Readout())
    mean, stderr = _simulate(
        detuning_grid,
        lambda det_axis: PulseSequence(
            segments, frame_detuning=det_axis - 0.5 * params.delta),
        params, config)
    offsets = dressed_transition_offsets(params.omega, params.delta)
    metadata = _metadata("spectrum", "khz", params, config, omega_mag,
                         expected_dips_khz=[angular_to_khz(o) for o in offsets])
    return Trace(angular_to_khz(detuning_grid), mean, stderr,
                 config.n_shots, metadata)


def fourier_magnitude(trace: Trace) -> tuple[np.ndarray, np.ndarray]:
    """DFT magnitude of the mean-subtracted signal; frequency axis in kHz.

    Requires a uniform tau grid (in us).
    """
    tau = trace.abscissa
    if len(tau) < 2:
        raise ValueError("need at least two points")
    steps = np.diff(tau)
    if np.max(np.abs(steps - steps[0])) > 1e-9 * max(abs(steps[0]), 1e-12):
        raise ValueError("fourier_magnitude requires a uniform grid")
    signal = trace.mean_p0 - trace.mean_p0.mean()
    mag = np.abs(np.fft.rfft(signal))
    freq_khz = np.fft.rfftfreq(len(tau), d=steps[0]) * 1e3
    return freq_khz, mag


def write_trace_csv(trace: Trace, path) -> None:
    """CSV body plus a JSON metadata sidecar at <path>.meta.json."""
    lines = ["abscissa,mean_p0,stderr,n_shots"]
    for x, m, s in zip(trace.abscissa, trace.mean_p0, trace.stderr):
        lines.append(f"{float(x)!r},{float(m)!r},{float(s)!r},{trace.n_shots}")
    path = str(path)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(path + ".meta.json", "w") as fh:
        json.dump(trace.metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_trace_csv(path) -> Trace:
    """Re-ingest a trace CSV (and its sidecar, if present)."""
    path = str(path)
    with open(path) as fh:
        lines = [(n, ln.strip()) for n, ln in enumerate(fh, 1) if ln.strip()]
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
        if not _abscissa_valid(abscissa):
            raise ValueError(f"{path}:{lineno}: abscissa must be finite")
        if not _mean_p0_valid(mean_p0):
            raise ValueError(f"{path}:{lineno}: mean_p0 must lie in [0, 1]")
        if not _stderr_valid(stderr):
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
            metadata = json.loads(sidecar.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{sidecar}:{exc.lineno}: {exc.msg}") from None
        if not isinstance(metadata, dict):
            raise ValueError(f"{sidecar}:1: metadata must be a JSON object")
    arr = np.array(rows)
    return Trace(arr[:, 0], arr[:, 1], arr[:, 2], int(arr[0, 3]), metadata)
