"""Quasi-static Monte-Carlo simulation of the CDD pulse sequences.

Sequences are propagated as piecewise-constant Hamiltonians in the doubly
rotating frame: the mechanical drive rotates the +-1 manifold at
omega_mech/2 and the magnetic carrier absorbs the nominal zero-field
splitting, so the |0> level sits at (carrier detuning) - (dD/dT)*deltaT.
Spectral abscissae are detunings from the nominal undressed 0<->-1 line.

One environment sample is drawn per shot and held constant across the
whole sequence.  Shot RNG streams are counter-based (Philox keyed by
(seed, shot), counter positioned by the abscissa index), so execution
order never changes results.  _sample_block draws a block of whole grid
points at once, bit-identical to shot_rng: Philox4x64-10 and numpy's
ziggurat fast path run as numpy array operations, with numpy's tables
(ziggurat_double.bin), and the few shots that miss the fast path are
redrawn by numpy through one re-keyed generator.

The engine is batch-only: _simulate runs all shots of a grid point as one
stack; a single shot is a batch of one.  Each shot starts in |0> with the
13C spin unpolarized and ends with a readout of the |0> population; in
between, a sequence holds only magnetic pulses and free evolution.  The
Hamiltonian never couples the 13C index, so _frame_hamiltonians builds
the two real 3x3 blocks, 13C up (basis states {0,2,4} of the six-level
model) and down ({1,3,5}), each ordered (+1, 0, -1), and states
propagate as two 3-level blocks.  Free evolution is closed-form (|0>
only picks up a phase, the +-1 pair rotates), and each distinct pulse is
diagonalised once per point at phase 0: a pulse of phase phi is
h(phi) = P h(0) P^dagger with P = exp(i phi) on |0>, so opening and
closing pulses share one eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import functools
import json
import math
from pathlib import Path

import numpy as np

from .dephasing import NoiseSpec
from .errors import NumericalError
from .spin_model import SystemParams, dressed_transition_offsets
from .units import DD_DT, GAMMA, angular_to_khz, khz_to_angular

NORM_TOL = 1e-9

# Paper-grade default pulse strengths (angular rad/us).
DEFAULT_OMEGA_MAG_SQ = 2.0 * math.pi * 0.696   # {0,p} pi/2 pulses, 696 kHz
DEFAULT_OMEGA_MAG_DQ = 2.0 * math.pi * 1.513   # {m,p} DQ pi pulses, 1513 kHz
# Phase-advance rate of the closing {0,p} pulse, kHz; a visualization aid,
# not a measured quantity.  The fit models freeze the same value.
OMEGA_ROT_KHZ = 250.0

RAMSEY_KINDS = ("undressed_0m1", "dressed_0p", "dressed_mp", "max_protection")


class NormLossError(NumericalError, RuntimeError):
    """Propagation changed a state's norm by more than NORM_TOL."""


@dataclass(frozen=True)
class MagneticPulse:
    """Magnetic drive segment.

    The drive couples |0> to |-1> only, so at the dressed-line midpoint it
    addresses both 0<->m and 0<->p through their |-1> components.  The
    0<->+1 element of a tone near the 0<->-1 splitting is detuned by the
    full Zeeman splitting and is dropped, like every other counter-rotating
    term in this frame.  The carrier sits at the sequence's frame detuning.
    """

    omega_mag: float            # Rabi strength, rad/us
    duration: float             # us
    phase: float = 0.0          # rad

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
class PulseSequence:
    """Ordered MagneticPulse and FreeEvolution segments, run from |0> with
    the 13C spin unpolarized up to the |0> readout, plus the carrier frame
    detuning that every segment shares."""

    segments: tuple
    frame_detuning: float = 0.0  # rad/us


@dataclass(frozen=True)
class SimConfig:
    n_shots: int = 1000
    seed: int = 0
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self):
        if self.n_shots < 1:
            raise ValueError("n_shots must be >= 1")
        if not 0 <= self.seed < 2 ** 64:   # Philox keys are uint64
            raise ValueError("seed must lie in [0, 2**64)")


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
                        detuning_mag, omega_mag=0.0) -> np.ndarray:
    """Stacked doubly-rotating-frame Hamiltonians at pulse phase 0, as
    their two real 13C blocks: shape (n, 2, 3, 3), up block first, each
    ordered (+1, 0, -1).

    db, dom, dt are environment arrays of shape (n,).
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
    h[..., 1, 2] = h[..., 2, 1] = 0.5 * omega_mag   # 0<->-1, see MagneticPulse
    return h


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
    drive-free block Hamiltonians h (n, 2, 3, 3).

    |0> only picks up a phase.  In each block the +-1 pair rotates under
    e*sigma_z + w*sigma_x, whose propagator is
    cos(rt) - i sin(rt)/r (e*sigma_z + w*sigma_x) with r = hypot(e, w).
    """
    e, w = h[..., 0, 0], h[..., 0, 2]
    r = np.hypot(e, w)
    cos = np.cos(r * duration)
    sin_r = duration * np.sinc(r * duration / math.pi)   # sin(rt)/r
    plus, minus = states[..., 0], states[..., 2]
    out = np.empty_like(states)
    out[..., 0] = (cos - 1j * sin_r * e) * plus - 1j * sin_r * w * minus
    out[..., 1] = np.exp(-1j * h[..., 1, 1] * duration) * states[..., 1]
    out[..., 2] = (cos + 1j * sin_r * e) * minus - 1j * sin_r * w * plus
    return out


def _run_batch(seq: PulseSequence, params: SystemParams,
               db, dom, dt) -> np.ndarray:
    """Run the sequence for stacked environment samples; returns P0 (n,).

    Each shot starts in |0> with the 13C spin unpolarized.  Each distinct
    pulse strength is diagonalised once, at phase 0, and a pulse of phase
    phi is applied as P h(0) P^dagger.
    """
    db = np.atleast_1d(np.asarray(db, dtype=float))
    states = np.zeros((db.shape[0], 2, 3), dtype=complex)
    states[:, :, 1] = math.sqrt(0.5)
    eigen = {}
    for seg in seq.segments:
        if isinstance(seg, MagneticPulse):
            if seg.omega_mag not in eigen:
                eigen[seg.omega_mag] = np.linalg.eigh(_frame_hamiltonians(
                    params, db, dom, dt, seq.frame_detuning, seg.omega_mag))
            rot = np.exp(1j * seg.phase)
            states[..., 1] *= rot.conjugate()
            states = _apply_eigen(states, *eigen[seg.omega_mag], seg.duration)
            states[..., 1] *= rot
        else:
            states = _free_evolve(states, _frame_hamiltonians(
                params, db, dom, dt, seq.frame_detuning), seg.duration)
        norms = np.linalg.norm(states, axis=(1, 2))
        if np.any(np.abs(norms - 1.0) > NORM_TOL):
            raise NormLossError("propagation lost norm")
    return np.abs(states[:, 0, 1]) ** 2 + np.abs(states[:, 1, 1]) ** 2


# Philox4x64-10 round multipliers and key increments, as in numpy's philox.h.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_U64 = 2 ** 64 - 1
_LO32 = np.uint64(0xFFFFFFFF)
# Shot-points _simulate samples per _sample_block call: enough to amortise
# numpy's per-call overhead, few enough that each uint64 temporary (32 KiB)
# stays small and peak memory does not grow with the grid.
_BLOCK_SHOT_POINTS = 4096
# Shots (seed 0, point 0) the first-use self-check compares with numpy;
# between them they take every ziggurat layer with a fast path (all but
# layer 1) on it.
_CHECK_SHOTS = 640


def _mulhilo(m: int, b: np.ndarray):
    """High and low words of the 128-bit products m * b, for a constant m
    and a uint64 array b, built from 32-bit halves."""
    m_hi, m_lo = np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)
    b_hi, b_lo = b >> 32, b & _LO32
    lo_lo, hi_lo, lo_hi = m_lo * b_lo, m_hi * b_lo, m_lo * b_hi
    carry = ((lo_lo >> 32) + (hi_lo & _LO32) + (lo_hi & _LO32)) >> 32
    return m_hi * b_hi + (hi_lo >> 32) + (lo_hi >> 32) + carry, \
        b * np.uint64(m)


def _philox_words(seed: int, shots: np.ndarray, points: np.ndarray):
    """First three outputs of each shot_rng(seed, shot, point) stream.

    numpy increments the Philox counter before each block, so they are the
    first three words of the Philox4x64-10 block of counter [1, point, 0, 0]
    under key [seed, shot].  Round 1 of that counter is written out:
    its products are M0 * 1 and M1 * 0.
    """
    c0, c1, c2, c3 = (points ^ np.uint64(seed), np.zeros_like(shots), shots,
                      np.full_like(shots, _PHILOX_M[0]))
    for r in range(1, 10):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        k0 = np.uint64((seed + r * _PHILOX_W[0]) & _U64)
        k1 = shots + np.uint64(r * _PHILOX_W[1] & _U64)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1, c2


def _ziggurat_fast(words, wi: np.ndarray, ki: np.ndarray):
    """numpy's ziggurat standard normals for raw words, fast path only.

    Returns the draws (n, 3), one column per word array, and whether all
    three words of a row were accepted on the first try: rabs < ki[idx].
    Every word of layer 1 (ki[1] = 0), layer 0's tail and the wedges miss.
    """
    draws = np.empty((len(words[0]), 3))
    fast = np.ones(len(words[0]), dtype=bool)
    for j, r in enumerate(words):
        idx = (r & 0xFF).astype(np.intp)
        rabs = (r >> 9) & 0xFFFFFFFFFFFFF
        x = rabs * wi[idx]
        draws[:, j] = np.where(r & 0x100, -x, x)
        fast &= rabs < ki[idx]
    return draws, fast


def _redraw(draws: np.ndarray, rows: np.ndarray, seed: int,
            shots: np.ndarray, points: np.ndarray) -> None:
    """Overwrite draws[rows] with shot_rng(seed, shot, point)
    .standard_normal(3).  One generator is re-keyed per shot by assigning
    its state, which is much cheaper than constructing a generator."""
    key = np.array([seed, 0], dtype=np.uint64)
    counter = np.zeros(4, dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    gen = np.random.Generator(bitgen)
    state = {"bit_generator": "Philox",
             "state": {"key": key, "counter": counter},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0}
    for row in np.flatnonzero(rows):
        key[1], counter[1] = shots[row], points[row]
        bitgen.state = state
        gen.standard_normal(out=draws[row])


def _read_tables():
    """numpy's ziggurat tables wi_double (float64) and ki_double (uint64),
    256 entries each, from the package file ziggurat_double.bin."""
    raw = Path(__file__).with_name("ziggurat_double.bin").read_bytes()
    return (np.frombuffer(raw, "<f8", 256),
            np.frombuffer(raw, "<u8", 256, offset=2048))


@functools.cache
def _ziggurat_tables():
    """The ziggurat tables, checked once against numpy.

    If the fast path disagrees with shot_rng on any of _CHECK_SHOTS shots
    (say, after numpy changes its ziggurat), ki is zeroed, so that every
    shot misses the fast path and is redrawn by numpy itself.
    """
    wi, ki = _read_tables()
    shots = np.arange(_CHECK_SHOTS, dtype=np.uint64)
    points = np.zeros_like(shots)
    draws, fast = _ziggurat_fast(_philox_words(0, shots, points), wi, ki)
    want = np.empty_like(draws)
    _redraw(want, fast, 0, shots, points)
    if not np.array_equal(draws[fast], want[fast]):
        ki = np.zeros_like(ki)
    return wi, ki


def _sample_block(noise: NoiseSpec, mean_omega: float, seed: int,
                  point_index, n_shots: int):
    """Per-shot environment draws for one grid point (an int point_index;
    arrays of shape (n_shots,)) or for a range of points (shape
    (len(point_index), n_shots)).

    The draws equal shot_rng(seed, shot, point).standard_normal(3) bit for
    bit.  Philox and numpy's ziggurat fast path run vectorised over every
    shot of the block; the shots where any of the three draws misses the
    fast path (about 4%) are redrawn by numpy.
    """
    points = np.asarray(point_index, dtype=np.uint64)
    shape = points.shape + (n_shots,)
    shots = np.broadcast_to(np.arange(n_shots, dtype=np.uint64), shape).ravel()
    points = np.broadcast_to(points[..., None], shape).ravel()
    draws, fast = _ziggurat_fast(_philox_words(seed, shots, points),
                                 *_ziggurat_tables())
    _redraw(draws, ~fast, seed, shots, points)
    draws = draws.reshape(shape + (3,))
    return (draws[..., 0] * noise.sigma_b,
            draws[..., 1] * noise.sigma_omega(mean_omega),
            draws[..., 2] * noise.sigma_t)


def _mean_p_line(params: SystemParams) -> float:
    """Frame position of the 0<->p line, averaged over 13C sublevels."""
    up = 0.5 * math.hypot(params.omega, params.delta + params.a_par)
    dn = 0.5 * math.hypot(params.omega, params.delta - params.a_par)
    return 0.5 * (up + dn)


def _simulate(grid, sequence_at, params: SystemParams, config: SimConfig):
    """Mean P0 (clipped to [0, 1]) and its standard error at each grid
    point, running the sequence sequence_at(x) for config.n_shots shots.

    Environments are sampled for a block of whole points at a time, at
    most _BLOCK_SHOT_POINTS shot-points (at least one point) per block.
    """
    n = config.n_shots
    mean = np.empty(len(grid))
    stderr = np.empty(len(grid))
    per_block = max(1, _BLOCK_SHOT_POINTS // n)
    for first in range(0, len(grid), per_block):
        points = range(first, min(first + per_block, len(grid)))
        env = _sample_block(config.noise, params.omega, config.seed, points, n)
        for i, db, dom, dt in zip(points, *env):
            p0 = _run_batch(sequence_at(grid[i]), params, db, dom, dt)
            mean[i] = p0.mean()
            stderr[i] = p0.std(ddof=1) / math.sqrt(n) if n > 1 else 0.0
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
                    config: SimConfig, *, omega_mag: float | None = None) -> Trace:
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
    omega_rot = khz_to_angular(OMEGA_ROT_KHZ)
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
    opening = MagneticPulse(omega_mag, t_pulse)

    def sequence_at(tau):
        closing = MagneticPulse(omega_mag, t_pulse, phase=phase_rate * tau)
        return PulseSequence((opening, FreeEvolution(tau), closing), frame)

    mean, stderr = _simulate(tau_grid, sequence_at, params, config)
    metadata = _metadata(kind, "us", params, config, omega_mag,
                         omega_rot_khz=angular_to_khz(omega_rot))
    return Trace(tau_grid, mean, stderr, config.n_shots, metadata)


def simulate_spectrum(detuning_grid, params: SystemParams, config: SimConfig,
                      *, omega_mag: float = 2.0 * math.pi * 0.080) -> Trace:
    """Spectroscopy scan: P0 versus magnetic drive detuning, one pi
    pulse per shot.

    detuning_grid is angular (rad/us), measured from the nominal undressed
    0<->-1 line; the returned Trace abscissa is in kHz.
    """
    detuning_grid = np.asarray(detuning_grid, dtype=float)
    if np.any(np.diff(detuning_grid) <= 0):
        raise ValueError("detuning grid must be strictly ascending")
    segments = (MagneticPulse(omega_mag, math.pi / omega_mag),)
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

    Requires a uniform ascending tau grid (in us).
    """
    tau = trace.abscissa
    if len(tau) < 2:
        raise ValueError("need at least two points")
    steps = np.diff(tau)
    if not steps[0] > 0 \
            or np.max(np.abs(steps - steps[0])) > 1e-9 * max(steps[0], 1e-12):
        raise ValueError("fourier_magnitude requires a uniform ascending grid")
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
