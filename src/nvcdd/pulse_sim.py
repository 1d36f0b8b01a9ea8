"""Quasi-static Monte-Carlo simulation of the CDD pulse sequences.

Sequences are propagated as piecewise-constant Hamiltonians in the doubly
rotating frame: the mechanical drive rotates the +-1 manifold at
omega_mech/2 and the magnetic carrier absorbs the nominal zero-field
splitting, so the |0> level sits at (carrier detuning) - (dD/dT)*deltaT.
Spectral abscissae are detunings from the nominal undressed 0<->-1 line.

A drive is a pair (SystemParams, NoiseSpec): the simulators take a list of
drives, and each drive carries its own noise.  SimConfig holds only what
the drives of one call share, the shots and the seed.

One environment sample is drawn per shot and held constant across the
whole sequence.  Shot RNG streams are counter-based, so execution order
never changes results: a shot's three draws (field, drive amplitude,
temperature) are numpy's standard_normal draws from a Philox4x64-10
generator keyed by [seed, shot] with counter [0, point, 0, 0], point
being the abscissa index, scaled by each drive's own sigmas: the drives
of one call see the same per-shot unit draws.  _sample_block draws a block
of whole grid points at once, bit-identical to that stream, without
numpy.random: Philox4x64-10 and numpy's whole ziggurat (the fast path,
and the wedge and tail steps of the few shots that miss it) run as numpy
array operations, with numpy's tables (ziggurat_double.bin, checked once
against its CRC-32) and the C library's exp and log1p, as numpy's C code
calls them.  The engine owns this copy of numpy's algorithm and tables,
so the stream does not move with the installed numpy; the test suite
holds it to numpy's own generator draw for draw.

The engine is batch-only.  The program builds two kinds of grid point: a
spectrum point is one pulse, and a Ramsey point is a pulse, free
evolution tau and the same pulse at a closing phase.  Each shot starts in
|0> with the 13C spin unpolarized and ends with a readout of the |0>
population.  With Gauss-Hermite nodes in place of the draws, _simulate
gives the exact ensemble mean instead: the fit models' P0.  The nodes and
a Ramsey run's frame are the same at every tau, so the quadrature forms a
Ramsey run's pulse once and reads every tau out of it.

The Hamiltonian never couples the 13C index: it is two real 3x3 blocks,
13C up (basis states {0,2,4} of the six-level model) and down ({1,3,5}),
each [[e, 0, w], [0, z, g], [w, g, -e]] in the order (+1, 0, -1), and
_pulse forms only these entries; no matrix is built.  Only |0> is
prepared and read out, so a pulse needs only the |0> column u of its
propagator U(0) = exp(-i h t) at phase 0, formed by _newton_column from
h's three eigenvalues alone; the rare block whose column is not finite
goes to np.linalg.eigh.

h is real symmetric, so U(0) is complex symmetric: u is also its |0>
row.  The opening pulse sets the state from u alone and the closing
pulse, P U(0) P^dagger with P = exp(i phi) on |0>, forms only the readout
amplitude from the same u.  Free evolution between them is closed form
(|0> only picks up a phase, the +-1 pair rotates), so a Ramsey point's
amplitude is one expression in u, e, w, z, tau and phi, with sin and cos
taken of the same angle (_readout).  One norm check of u (_pulse), and
a check that the readout is finite, see every loss.

A kernel call takes whole grid points, at most a budget of block
entries: its shot-points, or its points times the nodes, times the run's
distinct 13C blocks, so a one-block run takes twice the points per call.
The Monte Carlo's budget is _MC_CHUNK_ENTRIES (4096) and the quadrature's
_CHUNK_ENTRIES (2048): the exact mean's matrix-vector product rounds by
the rows it holds, so the quadrature keeps the rows per call it has
always taken.  Each run first frees an untouched 2 MiB block, so that
glibc serves the sampler's and the kernel's temporaries from reused heap
pages, not from fresh mmap pages (_simulate).
The entries lie blocks first: e is (blocks, n) and z, w, tau and phi are
rows (1, n); against n nodes a chunk's P points take a leading axis, (P,
1, 1).  P0 sums the blocks over axis -2, so every ufunc runs over
contiguous rows.  Rows, not 1-D arrays: numpy multiplies two complex
arrays of different rank and one element each without fused
multiply-adds, which would move the last bit of a one-shot-point call, so
the operands of a Monte-Carlo call's complex products have one rank.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import json
import math
from pathlib import Path
import zlib

import numpy as np

from .errors import NumericalError
from .spin_model import (
    SystemParams, _sublevel_splittings, dressed_transition_offsets,
)
from .units import DD_DT, GAMMA, angular_to_khz, khz_to_angular

NORM_TOL = 1e-9
# Angles added to phi for the smallest and the largest root: l = m + 2r
# cos(phi + turn).
_ROOT_TURNS = np.array([2.0 * math.pi / 3.0, 0.0])

# Paper-grade default pulse strengths (angular rad/us).
DEFAULT_OMEGA_MAG_SQ = 2.0 * math.pi * 0.696   # {0,p} pi/2 pulses, 696 kHz
DEFAULT_OMEGA_MAG_DQ = 2.0 * math.pi * 1.513   # {m,p} DQ pi pulses, 1513 kHz
# Phase-advance rate of the closing {0,p} pulse, kHz; a visualization aid,
# not a measured quantity.  A trace's sidecar records it.
OMEGA_ROT_KHZ = 250.0

RAMSEY_KINDS = ("undressed_0m1", "dressed_0p", "dressed_mp", "max_protection")
# the kinds whose pulses are DQ pi pulses; the others take pi/2 pulses
DQ_KINDS = ("dressed_mp", "max_protection")


class NormLossError(NumericalError, RuntimeError):
    """Propagation changed a state's norm by more than NORM_TOL."""


def _pulse_duration(angle, omega_mag):
    """angle / omega_mag, the duration of a pulse of that rotation angle,
    for a finite omega_mag > 0; a subnormal omega_mag overflows it."""
    if not 0 < omega_mag < math.inf:   # NaN fails it too
        raise ValueError("omega_mag must be finite and > 0")
    if not angle / omega_mag < math.inf:
        raise ValueError("duration must be finite and >= 0")
    return angle / omega_mag


@dataclass(frozen=True)
class SimConfig:
    n_shots: int = 1000
    seed: int = 0

    def __post_init__(self):
        for name in ("n_shots", "seed"):   # numpy integers become ints
            object.__setattr__(self, name, _whole(name, getattr(self, name)))
        if self.n_shots < 1:
            raise ValueError("n_shots must be >= 1")
        if not 0 <= self.seed < 2 ** 64:   # Philox keys are uint64
            raise ValueError("seed must lie in [0, 2**64)")


def _whole(name: str, value) -> int:
    """value as an int, if it is a whole number and not a bool."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value or isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be an integer")
    return whole


@dataclass
class Trace:
    """Simulated measurement record: mean |0> population per grid point."""

    abscissa: np.ndarray      # tau in us, or detuning in kHz
    mean_p0: np.ndarray
    stderr: np.ndarray
    n_shots: int
    metadata: dict

    def __post_init__(self):
        for column in ("abscissa", "mean_p0", "stderr"):
            setattr(self, column, np.asarray(getattr(self, column), float))
        if not self.abscissa.size:
            raise ValueError(_NO_ROWS)
        if {self.abscissa.shape, self.mean_p0.shape, self.stderr.shape} \
                != {(self.abscissa.size,)}:
            raise ValueError("a trace needs 1-D columns of one length")
        for column, test, rule in _ROW_RULES:
            if not np.all(test(np.asarray(getattr(self, column), dtype=float))):
                raise ValueError(rule)


# (column, test, rule) for each trace column, in CSV order: the rows that
# Trace and read_trace_csv accept.  A test takes a float array; NaN fails it.
_ROW_RULES = (
    ("abscissa", np.isfinite, "abscissa must be finite"),
    ("mean_p0", lambda p: (p >= -1e-9) & (p <= 1 + 1e-9),
     "mean_p0 must lie in [0, 1]"),
    ("stderr", lambda s: (s >= 0) & np.isfinite(s),
     "stderr must be finite and >= 0"),
    ("n_shots", lambda n: (n >= 1) & np.isfinite(n) & (np.floor(n) == n),
     "n_shots must be an integer >= 1"),
)
# The rule on the rows as a whole, which Trace and read_trace_csv share:
# a trace needs at least one row.
_NO_ROWS = "no data rows"
_HEADER = ",".join(column for column, _, _ in _ROW_RULES)


def _newton_column(e, z, w, g, duration: float) -> np.ndarray:
    """The |0> column of exp(-i h t), shape (3,) + block shape, components
    in the order (+1, 0, -1), for real blocks h = [[e, 0, w], [0, z, g],
    [w, g, -e]] given by their broadcastable entries, from h's three
    eigenvalues alone.

    u = p(h) e0, where p interpolates f(l) = exp(-i l t) at the eigenvalues
    l1 <= l2 <= l3 in Newton form, f[l1] + f[l1,l2] (h - l1)
    + f[l1,l2,l3] (h - l1)(h - l2), and (h - l1) e0 = (0, z - l1, g),
    (h - l1)(h - l2) e0 = (wg, (z - l2)(z - l1) + g^2, g (z - l1 - e - l2)).
    l1 and l3 are the trigonometric roots of the characteristic polynomial
    l^3 - z l^2 - (e^2 + w^2 + g^2) l + z (e^2 + w^2) + g^2 e, whose
    depressed form has spread 2r, and l2 = z - l1 - l3.  A two-node
    difference is -i t exp(-i (a + b) t / 2) sinc((b - a) t / 2), stable at
    any gap, and the three-node one divides by l3 - l1 >= 3r, so level
    crossings and double roots need no special case.  Blocks whose column
    is not finite (h = 0, or entries whose squares leave the double range)
    go to np.linalg.eigh, the one place the 3x3 matrices are built:
    u = V (V[|0>, :] * exp(-i vals t)).  A column that overflows there
    too (t near the double range) is left, without a warning, to the
    caller's norm check.
    """
    with np.errstate(all="ignore"):
        g2 = g * g
        m = z / 3.0
        r = np.sqrt((e * e + w * w + g2) / 3.0 + m * m)
        # cos(3 phi) = 4a^3 - 3a + (g/r)^2 (z - e) / 2r with a = m/r: each
        # factor is O(1), so no power of r leaves the double range.
        # Rounding past +-1 at a double root is clipped.
        s = 1.0 / r
        a = m * s
        cos3 = (4.0 * a * a - 3.0) * a + 0.5 * (g2 * s * s) * ((z - e) * s)
        phi = np.arccos(np.clip(cos3, -1.0, 1.0)) / 3.0
        lam = np.empty((3,) + phi.shape)
        lam[::2] = m + 2.0 * r * np.cos(np.add.outer(_ROOT_TURNS, phi))
        lam[1] = z - lam[0] - lam[2]
        half = np.exp((-0.5j * duration) * lam)     # f at half the time
        # f[l1,l2] and f[l2,l3]
        x = (0.5 * duration) * (lam[1:] - lam[:2])
        sinc = np.sin(x)
        sinc /= x
        sinc[x == 0.0] = 1.0
        f2 = half[:2] * half[1:]
        f2 *= (-1j * duration) * sinc
        f3 = (f2[1] - f2[0]) / (lam[2] - lam[0])
        c1 = z - lam[0]
        u = np.empty(lam.shape, dtype=complex)
        u[0] = f3 * (w * g)
        u[1] = half[0] * half[0] + f2[0] * c1 + f3 * ((z - lam[1]) * c1 + g2)
        u[2] = g * (f2[0] + f3 * (c1 - e - lam[1]))
        if not np.isfinite(u.sum()):    # NaN and inf reach the sum
            bad = ~np.isfinite(u).all(axis=0)
            e, z, w, g = (v[bad] for v in np.broadcast_arrays(e, z, w, g))
            h = np.zeros(e.shape + (3, 3))
            h[:, 0, 0], h[:, 1, 1], h[:, 2, 2] = e, z, -e
            h[:, 0, 2] = h[:, 2, 0] = w
            h[:, 1, 2] = h[:, 2, 1] = g
            vals, vecs = np.linalg.eigh(h)
            coeff = np.exp(-1j * vals * duration) * vecs[..., 1, :]
            u[:, bad] = (vecs @ coeff[..., None])[..., 0].T
    return u


def _blocks(params: SystemParams) -> list:
    """The distinct d of (delta + a_par, delta - a_par), in that order: one
    per 13C block the engine runs."""
    return [*dict.fromkeys((params.delta + params.a_par,
                            params.delta - params.a_par))]


def _pulse(params: SystemParams, frame, omega_mag, duration, db, dom, dt):
    """The block entries e (blocks, n), z and w (rows (1, n), or (P, 1, n)),
    and the pulse's |0> column u (3, ..., blocks, n), for environment
    samples db, dom, dt (n,) or scalars and a frame detuning that
    broadcasts against them: a scalar, (n,), or (P, 1, 1) for P points
    against n nodes.

    The block entries (module docstring) are e = GAMMA db + d/2 for each d
    of _blocks, z = frame - DD_DT dt and w = (omega + dom)/2, and g =
    omega_mag/2: the drive's 0<->+1 element, detuned by the full Zeeman
    splitting, is dropped like every other counter-rotating term.  With
    the blocks first, every entry's ufuncs run over contiguous rows.
    """
    e = GAMMA * np.asarray(db) + 0.5 * np.array(_blocks(params))[:, None]
    z = np.atleast_2d(frame - DD_DT * np.asarray(dt))
    w = np.atleast_2d(0.5 * (params.omega + np.asarray(dom)))
    u = _newton_column(e, z, w, 0.5 * omega_mag, duration)
    # every step is unitary (module docstring); NaN fails the test
    norms = np.sqrt((u.real ** 2 + u.imag ** 2).sum(axis=0))
    if not np.all(np.abs(norms - 1.0) <= NORM_TOL):
        raise NormLossError("propagation lost norm")
    return e, z, w, u


def _readout(e, z, w, u, ramsey) -> np.ndarray:
    """P0 of a _pulse's blocks and column: ramsey None is a spectrum
    point, the pulse alone; ramsey = (tau, phi) is a Ramsey point, the
    pulse, free evolution tau, the pulse at phase phi, with tau and phi
    broadcast against the pulse's environment axes: scalars, (n,), or
    (P, 1, 1) for P points against nodes.

    With u the pulse's |0> column, a block's readout amplitude is u0 for a
    spectrum point and, for a Ramsey point (closing pulse and free
    evolution as in the module docstring), u0^2 exp(-i z tau)
    + exp(i phi) [cos(r tau) (u+^2 + u-^2) - i sin(r tau)/r (e (u+^2
    - u-^2) + 2 w u+ u-)], r = hypot(e, w); P0 is |amplitude|^2 averaged
    over the blocks, axis -2.
    """
    amp = u[1]
    if ramsey is not None:
        tau, phi = np.atleast_2d(*ramsey)
        plus2, minus2 = u[0] * u[0], u[2] * u[2]
        r = np.hypot(e, w)
        # a non-finite angle fails the check below; sin(r tau)/r is tau
        # at r = 0
        with np.errstate(all="ignore"):
            angle = r * tau
            sin_r = np.where(r > 0.0, np.sin(angle) / r, tau)
            amp = u[1] * u[1] * np.exp(-1j * z * tau) + np.exp(1j * phi) * (
                np.cos(angle) * (plus2 + minus2)
                - 1j * sin_r * (e * (plus2 - minus2) + 2.0 * w * u[0] * u[2]))
    p0 = (amp.real ** 2 + amp.imag ** 2).sum(axis=-2) / len(e)
    if not np.isfinite(p0.sum()):
        raise NormLossError("propagation lost norm")
    return p0


def _run_batch(point: tuple, params: SystemParams, db, dom, dt) -> np.ndarray:
    """P0 (n,) of n shot-points, for stacked environment samples db, dom,
    dt (n,) or scalars: the _readout of a _pulse.

    point is (frame detuning, pulse strength, pulse duration, ramsey),
    where the frame detuning and ramsey's entries are scalars or arrays
    (n,), one value per shot-point.
    """
    return _readout(*_pulse(params, *point[:3], db, dom, dt), point[3])


# Philox4x64-10 round multipliers and key increments, as in numpy's philox.h.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_U64 = 2 ** 64 - 1
_LO32 = np.uint64(0xFFFFFFFF)
# numpy's ziggurat (random_standard_normal in its distributions.c): the
# tables wi_double, ki_double and fi_double, 256 entries each in that order
# in ziggurat_double.bin, whose CRC-32 is pinned, and the start r of layer
# 0's tail and 1/r.
_TABLES = Path(__file__).with_name("ziggurat_double.bin")
_TABLES_CRC = 0x9AE62862
_TAIL_R = 3.6541528853610087963519472518
_TAIL_INV_R = 0.27366123732975827203338247596
# Shot-points _simulate samples per _sample_block call: enough to amortise
# numpy's per-call overhead and the slow path's extra Philox call and
# Python loop, few enough that peak memory does not grow with the grid.
# nvbench sweep on a shared 2-core x86-64 VM, 10 alternating 10-s runs
# each, medians of spectra and ramsey_mp wall_s and peak_rss_mb: 4096
# shot-points 12.6 and 24.3 ms at 34.8 and 34.9 MB, 8192 11.8 and 21.8 ms
# at 35.1 and 35.8 MB, 16384 10.6 and 21.4 ms at 35.4 and 36.7 MB.
_BLOCK_SHOT_POINTS = 16384
# Block entries (shot-points, or points times nodes, times the run's
# distinct 13C blocks) per kernel call, in whole points: _CHUNK_ENTRIES
# for the quadrature, _MC_CHUNK_ENTRIES for the Monte Carlo.  At 2048 a
# two-block quadrature takes the points per call it took at 1024
# shot-points; more would give its matrix-vector product more rows, which
# moves the last bits of a two-block exact mean and with them a fit that
# ends near a bound.  nvbench sweep on a shared 2-core x86-64 VM, 4
# alternating 8-s rounds, medians of ramsey_mp and spectra wall_s and
# peak_rss_mb, with _simulate's freed 2 MiB block and without: 2048
# entries without 19.1 and 9.2 ms at 36.3 and 35.1 MB; 4096 with 16.0 and
# 8.4 ms at 36.3 and 35.7 MB, without 16.4 and 9.4 ms; 8192 with 15.5 and
# 8.3 ms at 37.5 and 37.1 MB, without 18.6 and 10.0 ms.
_CHUNK_ENTRIES = 2048
_MC_CHUNK_ENTRIES = 4096


def _mulhilo(m: int, b: np.ndarray):
    """High and low words of the 128-bit products m * b, for a constant m
    and a uint64 array b: Hacker's Delight's mulhu on 32-bit halves, whose
    partial sums t and mid each stay below 2**64."""
    m_hi, m_lo = np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)
    b_hi, b_lo = b >> 32, b & _LO32
    t = m_hi * b_lo + (m_lo * b_lo >> 32)
    mid = m_lo * b_hi + (t & _LO32)
    return m_hi * b_hi + (t >> 32) + (mid >> 32), b * np.uint64(m)


def _philox_words(seed: int, shots: np.ndarray, points: np.ndarray, block=1):
    """The four words of block `block` (1, 2, ...) of each shot's stream
    (see the module doc).

    numpy increments the Philox counter before each block, so they are the
    Philox4x64-10 block of counter [block, point, 0, 0] under key [seed,
    shot].  shots and points broadcast: a (P, 1) column of points and an
    (n,) row of shots give words (P, n), and each early round runs on the
    axes its inputs span.
    """
    c0, c1, c2, c3 = np.array([block], dtype=np.uint64), points, 0, 0
    for r in range(10):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        k0 = np.uint64((seed + r * _PHILOX_W[0]) & _U64)
        k1 = shots + np.uint64(r * _PHILOX_W[1] & _U64)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1, c2, c3


@functools.cache
def _tables():
    """numpy's ziggurat tables wi (float64), ki (uint64) and fi (float64),
    read once; a file that fails its CRC-32 check is an OSError."""
    raw = _TABLES.read_bytes()
    if zlib.crc32(raw) != _TABLES_CRC:
        raise OSError(f"{_TABLES}: ziggurat tables fail their CRC-32 check")
    return tuple(np.frombuffer(raw, dtype, 256, offset=2048 * k)
                 for k, dtype in enumerate(("<f8", "<u8", "<f8")))


def _ziggurat_fast(r: np.ndarray, wi, ki):
    """numpy's ziggurat fast path for raw words r: the layer idx, rabs, the
    draw x and whether r is accepted on the first try, rabs < ki[idx].
    Every word of layer 1 (ki[1] = 0), layer 0's tail and the wedges miss.
    """
    idx = (r & 0xFF).astype(np.intp)
    rabs = (r >> 9) & 0xFFFFFFFFFFFFF
    x = rabs * wi[idx]
    return idx, rabs, np.where(r & 0x100, -x, x), rabs < ki[idx]


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """fn (math.exp or math.log1p: the C library's, as numpy's C code
    calls it) of each element of x."""
    return np.fromiter(map(fn, x.tolist()), float, len(x))


def _sample_block(seed: int, point_index, n_shots: int) -> np.ndarray:
    """Unit per-shot environment draws (field, drive amplitude,
    temperature) for one grid point (an int point_index; shape
    (n_shots, 3)) or for a range of points (shape (len(point_index),
    n_shots, 3)), equal to each shot's stream (module doc) bit for bit.

    The first three words of every shot go through the fast path at once.
    The shots that miss it (about 5%) run numpy's loop again from their
    first word, all in step: each pass takes one word per unfinished shot,
    which the fast path, a wedge test on one more word, or the tail's
    pairs of words accept, or a failed wedge test rejects.  Words past a
    shot's first Philox block come from its next blocks.
    """
    points = np.asarray(point_index, dtype=np.uint64)
    wi, ki, fi = _tables()
    words = [w.ravel() for w in _philox_words(
        seed, np.arange(n_shots, dtype=np.uint64), points[..., None])]
    draws = np.empty((len(words[0]), 3))
    fast = np.ones(len(draws), dtype=bool)
    for j, r in enumerate(words[:3]):
        *_, draws[:, j], ok = _ziggurat_fast(r, wi, ki)
        fast &= ok
    slow = np.flatnonzero(~fast)
    stream = np.column_stack([w[slow] for w in words])
    pos, made = np.zeros((2, len(slow)), dtype=np.intp)

    def take(rows):   # each row's next word, past a block from the next
        nonlocal stream
        if len(rows) and pos[rows].max() == stream.shape[1]:
            stream = np.column_stack([stream, *_philox_words(
                seed, (slow % n_shots).astype(np.uint64),
                points.ravel()[slow // n_shots], stream.shape[1] // 4 + 1)])
        pos[rows] += 1
        return stream[rows, pos[rows] - 1]

    def uniform(rows):   # numpy's next_double
        return (take(rows) >> 11) * (1.0 / 9007199254740992.0)

    while len(live := np.flatnonzero(made < 3)):
        idx, rabs, x, ok = _ziggurat_fast(take(live), wi, ki)
        wedge = np.flatnonzero(~ok & (idx > 0))
        f = fi[idx[wedge]]
        ok[wedge] = (fi[idx[wedge] - 1] - f) * uniform(live[wedge]) + f \
            < _libm(math.exp, -0.5 * x[wedge] * x[wedge])
        tail = np.flatnonzero(~ok & (idx == 0))
        ok[tail] = True   # the tail loops until it accepts
        while len(tail):
            xx = -_TAIL_INV_R * _libm(math.log1p, -uniform(live[tail]))
            yy = -_libm(math.log1p, -uniform(live[tail]))
            hit = yy + yy > xx * xx
            x[tail[hit]] = np.where(rabs[tail[hit]] & 0x100, -1.0, 1.0) \
                * (_TAIL_R + xx[hit])
            tail = tail[~hit]
        done = live[ok]
        draws[slow[done], made[done]] = x[ok]
        made[done] += 1
    return draws.reshape(points.shape + (n_shots, 3))


def _simulate(grid, runs, config: SimConfig, nodes=None):
    """Per run (point_at, params, noise), in order: mean P0 (clipped to
    [0, 1]) and its standard error at each grid point x, over
    config.n_shots shots of point_at(x) under params; or, given nodes,
    over the tensor grid of nodes[i] Gauss-Hermite nodes on each noise
    axis with product weights, which is the exact mean (stderr 0).  Each
    run scales the unit draws or nodes by its own noise's sigmas.

    Unit draws are sampled once for a block of whole points, at most
    _BLOCK_SHOT_POINTS shot-points (at least one point), and each run
    takes the block in chunks of whole points, at most _MC_CHUNK_ENTRIES
    block entries (shot-points times the run's distinct 13C blocks; at
    least one point): point_at takes the chunk's grid values.  Every
    shot-point has its own draws, so the Monte Carlo runs a chunk through
    _run_batch.  The nodes serve every point, so the quadrature reads each
    chunk, sized with the nodes as its shots against _CHUNK_ENTRIES, out
    of a _pulse of the nodes, the chunk's points on a leading axis (P, 1,
    1): a spectrum's frame moves with the point, so it forms one per
    chunk, and a Ramsey run forms its pulse once.
    """
    if not runs:
        raise ValueError("drives needs at least one drive")
    # glibc's malloc serves a request of its mmap threshold (128 KiB until
    # raised) or more with fresh mmap pages, which fault in on first touch
    # and go back to the kernel on free; freeing such a block raises the
    # threshold to its size and the trim threshold to twice that
    # (mallopt(3), M_MMAP_THRESHOLD).  Freeing 2 MiB that np.empty never
    # touched sets them to 2 and 4 MiB, so the sampler's and the kernel's
    # temporaries (the sampler's words are 128 KiB) reuse heap pages.
    np.empty(1 << 21, np.uint8)
    n = config.n_shots
    if nodes is not None:   # only fits load numpy.polynomial
        from numpy.polynomial.hermite_e import hermegauss
        x, w = zip(*map(hermegauss, nodes))
        tensor = np.stack(np.meshgrid(*x, indexing="ij"), -1).reshape(-1, 3)
        weights = math.prod(np.ix_(*(v / v.sum() for v in w))).ravel()
        n = len(weights)
    mean, stderr = np.zeros((2, len(runs), len(grid)))
    block = max(1, _BLOCK_SHOT_POINTS // n) if nodes is None else len(grid)
    budget = _MC_CHUNK_ENTRIES if nodes is None else _CHUNK_ENTRIES
    for first in range(0, len(grid), block):
        points = range(first, min(first + block, len(grid)))
        draws = _sample_block(config.seed, points, n) if nodes is None \
            else tensor
        for run, (point_at, params, noise) in enumerate(runs):
            env = (draws[..., 0] * noise.sigma_b,
                   draws[..., 1] * noise.sigma_omega(params.omega),
                   draws[..., 2] * noise.sigma_t)
            pulse = None
            chunk = max(1, budget // n // len(_blocks(params)))
            for start in range(0, len(points), chunk):
                rows = slice(first + start, min(first + start + chunk,
                                                points.stop))
                if nodes is not None:
                    *pulse_at, ramsey = point_at(grid[rows, None, None])
                    if pulse is None or ramsey is None:
                        pulse = _pulse(params, *pulse_at, *env)
                    mean[run, rows] = _readout(*pulse, ramsey) @ weights
                    continue
                p0 = _run_batch(point_at(np.repeat(grid[rows], n)), params,
                                *(x[start:start + chunk].ravel() for x in env)
                                ).reshape(-1, n)
                mean[run, rows] = p0.mean(axis=1)
                if n > 1:
                    stderr[run, rows] = p0.std(axis=1, ddof=1) / math.sqrt(n)
    return list(zip(np.clip(mean, 0.0, 1.0), stderr))


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


def _checked_grid(grid, name: str, lowest: float = -math.inf) -> np.ndarray:
    """grid as a float array, checked to have a point, to hold finite points
    of at least lowest, and to ascend strictly; a ValueError names it."""
    grid = np.asarray(grid, dtype=float)
    if not grid.size:
        raise ValueError(f"{name} needs at least one point")
    if not np.all(np.isfinite(grid) & (grid >= lowest)):
        bound = f" and >= {lowest:g}" if lowest > -math.inf else ""
        raise ValueError(f"{name} must be finite{bound}")
    if not np.all(np.diff(grid) > 0):
        raise ValueError(f"{name} must be strictly ascending")
    return grid


def simulate_ramsey(kind: str, tau_grid, drives, config: SimConfig, *,
                    omega_mag: float | None = None, nodes=None) -> list[Trace]:
    """Ramsey traces, one per drive (SystemParams, NoiseSpec) in drives,
    in order: mean P0 +- stderr over n_shots per tau, or given nodes the
    exact mean."""
    if kind not in RAMSEY_KINDS:
        raise ValueError(f"unknown Ramsey kind {kind!r}")
    tau_grid = _checked_grid(tau_grid, "tau_grid", lowest=0.0)
    # DQ pi pulses at the dressed-line midpoint with a fixed closing phase,
    # or pi/2 pulses on one line whose closing phase advances with tau
    dq = kind in DQ_KINDS
    if omega_mag is None:
        omega_mag = DEFAULT_OMEGA_MAG_DQ if dq else DEFAULT_OMEGA_MAG_SQ
    t_pulse = _pulse_duration(math.pi if dq else 0.5 * math.pi, omega_mag)
    omega_rot = khz_to_angular(OMEGA_ROT_KHZ)
    phase_rate = 0.0 if dq else omega_rot

    def run(params, noise):
        if kind == "undressed_0m1":
            params = params.with_omega(0.0)
        elif params.omega <= 0:
            raise ValueError(
                f"kind {kind!r} requires a nonzero mechanical drive")
        if kind == "max_protection":
            params = params.with_delta(-abs(params.a_par))
        if dq:
            frame = 0.0
        elif kind == "undressed_0m1":
            frame = -0.5 * params.delta
        else:   # the 0<->p line, half the splitting, averaged over sublevels
            frame = 0.25 * sum(_sublevel_splittings(params))
        return (lambda tau: (frame, omega_mag, t_pulse,
                             (tau, phase_rate * tau))), params, noise

    runs = [run(*drive) for drive in drives]
    return [Trace(tau_grid, mean, stderr, config.n_shots,
                  _metadata(kind, "us", params, config, omega_mag,
                            omega_rot_khz=angular_to_khz(omega_rot)))
            for (_, params, _), (mean, stderr)
            in zip(runs, _simulate(tau_grid, runs, config, nodes))]


def simulate_spectrum(detuning_grid, drives, config: SimConfig, *,
                      omega_mag: float = 2.0 * math.pi * 0.080) -> list[Trace]:
    """Spectroscopy scans, one per drive (SystemParams, NoiseSpec) in
    drives, in order: P0 versus magnetic drive detuning, one pi pulse per
    shot.

    detuning_grid is angular (rad/us), measured from the nominal undressed
    0<->-1 line; the returned Traces' abscissa is in kHz.
    """
    detuning_grid = _checked_grid(detuning_grid, "detuning_grid")
    t_pulse = _pulse_duration(math.pi, omega_mag)

    def run(params, noise):
        return (lambda det_axis: (det_axis - 0.5 * params.delta, omega_mag,
                                  t_pulse, None)), params, noise

    runs = [run(*drive) for drive in drives]
    dips = [dressed_transition_offsets(p.omega, p.delta) for _, p, _ in runs]
    return [Trace(angular_to_khz(detuning_grid), mean, stderr, config.n_shots,
                  _metadata("spectrum", "khz", params, config, omega_mag,
                            expected_dips_khz=list(map(angular_to_khz, d))))
            for (_, params, _), d, (mean, stderr)
            in zip(runs, dips, _simulate(detuning_grid, runs, config))]


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
    rows = (f"{float(x)!r},{float(m)!r},{float(s)!r},{trace.n_shots}"
            for x, m, s in zip(trace.abscissa, trace.mean_p0, trace.stderr))
    Path(path).write_text("\n".join([_HEADER, *rows]) + "\n", encoding="utf-8")
    meta = json.dumps(trace.metadata, indent=2, sort_keys=True)
    Path(f"{path}.meta.json").write_text(meta + "\n", encoding="utf-8")


def _read_text(path) -> str:
    """The text of an input file: UTF-8 with any leading byte-order mark
    dropped and line ends made "\n", as text-mode open makes them.  A
    byte that is not UTF-8 is a ValueError naming path:line."""
    data = Path(path).read_bytes().removeprefix(b"\xef\xbb\xbf")
    try:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError:   # name the first line that does not decode
        for n, line in enumerate(data.splitlines(), 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{n}: {exc}") from None


def _json(text: str):
    """json.loads, except that every number must be finite as a float:
    NaN, +-Infinity and literals that overflow a float (``1e400``, a
    400-digit integer) are ValueErrors that show the literal.  Configs,
    number flags and trace sidecars are all read with it."""
    def finite(parse):
        def hook(literal):
            if not math.isfinite(float(literal)):
                shown = literal if len(literal) <= 20 else literal[:17] + "..."
                raise ValueError(f"{shown} is not a finite number")
            return parse(literal)
        return hook

    return json.loads(text, parse_constant=finite(float),
                      parse_float=finite(float), parse_int=finite(int))


def read_trace_csv(path) -> Trace:
    """Re-ingest a trace CSV (and its sidecar, if present).  Of several
    faults the first line's is reported: on one line, a parse fault, else
    the first rule of _ROW_RULES broken, else an n_shots unlike the first
    row's."""
    lines = [(n, ln.strip()) for n, ln in
             enumerate(_read_text(path).split("\n"), 1) if ln.strip()]
    if not lines or lines[0][1] != _HEADER:
        raise ValueError(f"{path}:1: expected header '{_HEADER}'")
    if len(lines) == 1:
        raise ValueError(f"{path}:{lines[0][0] + 1}: {_NO_ROWS}")
    rows, fault = [], None
    for lineno, ln in lines[1:]:
        parts = ln.split(",")
        try:
            if len(parts) != 4:
                raise ValueError(f"expected 4 fields, got {len(parts)}")
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            fault = f"{path}:{lineno}: {exc}"
            break
    arr = np.array(rows).reshape(-1, 4)
    ok = np.array([test(col) for (_, test, _), col in zip(_ROW_RULES, arr.T)]
                  + [arr[:, 3] == arr[:1, 3]]).T
    if not ok.all():
        row, k = divmod(int(np.argmin(ok)), ok.shape[1])
        rules = [rule for _, _, rule in _ROW_RULES]
        rules.append("n_shots differs from the first row")
        fault = f"{path}:{lines[1 + row][0]}: {rules[k]}"
    if fault:
        raise ValueError(fault)
    sidecar = Path(f"{path}.meta.json")
    metadata = {}
    if sidecar.exists():
        text = _read_text(sidecar)
        try:
            metadata = _json(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{sidecar}:{exc.lineno}: {exc.msg}") from None
        except ValueError as exc:
            raise ValueError(f"{sidecar}: {exc}") from None
        if not isinstance(metadata, dict):
            raise ValueError(f"{sidecar}:1: metadata must be a JSON object")
    return Trace(arr[:, 0], arr[:, 1], arr[:, 2], int(arr[0, 3]), metadata)
