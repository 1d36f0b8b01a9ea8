"""The block-diagonal shot engine against a dense reference.

Every kernel of the engine -- the pulse column from the eigenvalues and
its eigh fallback, and the full _run_batch on spectrum and Ramsey points,
whose fused closed-form readout holds the free evolution, with a frame
detuning, tau and closing phase per shot-point -- is compared with
scipy.linalg.expm of the dense 6x6 Hamiltonians over random environment
draws and random blocks.  The dense form exists only here: the blocks of
reference.frame_hamiltonians are scattered into a 6x6 matrix, with the
pulse phase put on its 0<->-1 element.  The vectorised sampler is
compared with shot_rng, numpy's own generator, draw for draw, and traces
are checked not to depend on how grid points are chunked.  Monte-Carlo
traces of every Ramsey kind and a spectrum, on both shipped configs, are
held to the exact ensemble mean by quadrature (reference.exact_mean_trace),
whose nodes are themselves checked against dense expm, and the engine's
own quadrature (the nodes argument) is held to that oracle.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
import functools
import math
from pathlib import Path
import struct
import sys
import types
import zlib

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
import numpy as np
import pytest
from scipy.linalg import expm

from nvcdd import pulse_sim
from nvcdd.cli import load_config, main, resolve_config
from nvcdd.dephasing import NoiseSpec, sigma_b_from_t2
from nvcdd.pulse_sim import (
    RAMSEY_KINDS,
    SimConfig,
    _newton_column,
    _run_batch,
    _sample_block,
    simulate_ramsey,
    simulate_spectrum,
    write_trace_csv,
)
from nvcdd.units import GAMMA, khz_to_angular

from conftest import BLOCKS, dense_hamiltonians, make_params
from reference import (
    _apply_eigen,
    exact_mean_trace,
    frame_hamiltonians,
    shot_normals,
    shot_rng,
)

TOLERANCE = 1e-12
N_DRAWS = 40
NOISE = NoiseSpec(sigma_b=sigma_b_from_t2(5.4), sigma_t=0.25,
                  sigma_omega_fixed=2.0 * math.pi * 0.02)
# make_params' hyperfine splitting, and none: two 13C blocks, then one
A_PAR_KHZ = (150.0, 0.0)


def environment(rng, n=N_DRAWS):
    return (rng.normal(0.0, 15.0, n), rng.normal(0.0, 0.2, n),
            rng.normal(0.0, 0.3, n))


def random_states(rng, n=N_DRAWS):
    psi = rng.normal(size=(n, 6)) + 1j * rng.normal(size=(n, 6))
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


def dense(states, h, duration, phase=0.0):
    """Reference propagation of stacked 6-states: expm of each dense 6x6
    form of the block Hamiltonians h, for a scalar duration and phase or
    one per state."""
    duration = np.asarray(duration)[..., None, None]
    return np.einsum("nij,nj->ni",
                     expm(-1j * duration * dense_hamiltonians(h, phase)),
                     states)


def block_kernel(kernel, states, *args):
    """A block kernel applied to stacked 6-states."""
    out = np.empty_like(states)
    out[:, BLOCKS] = kernel(states[:, BLOCKS], *args)
    return out


class TestPulses:
    @pytest.mark.parametrize("phase", [0.0])
    def test_block_propagation_matches_expm(self, rng, phase):
        h = frame_hamiltonians(make_params(), *environment(rng), -0.3,
                               2.0 * math.pi * 1.5)
        psi = random_states(rng)
        got = block_kernel(_apply_eigen, psi, *np.linalg.eigh(h), 0.33)
        assert np.abs(got - dense(psi, h, 0.33, phase)).max() <= TOLERANCE

    @pytest.mark.parametrize("phase", [0.9, -2.4])
    def test_phase_by_conjugating_phase_zero(self, rng, phase):
        # h(phi) = P h(0) P^dagger with P = exp(i phi) on |0>
        h0 = frame_hamiltonians(make_params(), *environment(rng), -0.3,
                                2.0 * math.pi * 1.5)
        vals, vecs = np.linalg.eigh(h0)
        psi = random_states(rng)
        rot = np.exp(1j * phase)
        blocks = psi[:, BLOCKS]
        blocks[..., 1] *= rot.conjugate()
        blocks = _apply_eigen(blocks, vals, vecs, 0.33)
        blocks[..., 1] *= rot
        got = np.empty_like(psi)
        got[:, BLOCKS] = blocks
        assert np.abs(got - dense(psi, h0, 0.33, phase)).max() <= TOLERANCE


def blocks(e, z, w, g):
    """Stacked pulse blocks [[e, 0, w], [0, z, g], [w, g, -e]] from arrays
    of shape (n, 2)."""
    h = np.zeros(np.shape(e) + (3, 3))
    h[..., 0, 0], h[..., 1, 1], h[..., 2, 2] = e, z, -np.asarray(e)
    h[..., 0, 2] = h[..., 2, 0] = w
    h[..., 1, 2] = h[..., 2, 1] = g
    return h


def dense_column(h, duration):
    """Reference |0> column of exp(-i h t) in each block (n, 2, 3): dense
    expm applied to the |0> states of both 13C blocks at once."""
    zero = np.zeros((len(h), 6), dtype=complex)
    zero[:, 2:4] = 1.0
    return dense(zero, h, duration)[:, BLOCKS]


def column(h, duration):
    """_newton_column of stacked blocks h (..., 3, 3), shaped (..., 3)."""
    u = _newton_column(h[..., 0, 0], h[..., 1, 1], h[..., 0, 2], h[..., 1, 2],
                       duration)
    return np.moveaxis(u, 0, -1)


@pytest.fixture
def fallback_blocks(monkeypatch):
    """Every block _newton_column hands to np.linalg.eigh."""
    seen = []
    eigh = np.linalg.eigh

    def spy(h):
        seen.extend(h)
        return eigh(h)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return seen


# A w = 0 block with e on the {0,-1} pair's upper level: the +1 level
# (e, decoupled) crosses it where 2 e^2 - 2 z e - g^2 = 0.
Z_CROSS, G_CROSS = 0.4, 1.1
E_CROSS = 0.5 * (Z_CROSS + math.sqrt(Z_CROSS ** 2 + 2.0 * G_CROSS ** 2))
# (e, z, w, g) of one block each: degenerate and special blocks.
BLOCK_CASES = {
    "h=0": (0.0, 0.0, 0.0, 0.0),
    "g=0,z=+r": (0.6, 1.0, 0.8, 0.0),
    "g=0,z=-r": (0.6, -1.0, 0.8, 0.0),
    "w=0,crossing": (E_CROSS, Z_CROSS, 0.0, G_CROSS),
    "w=0,near-crossing": (E_CROSS * (1 + 1e-6), Z_CROSS, 0.0, G_CROSS),
    "w=0": (0.7, -1.2, 0.0, 1.1),
    "g=0": (0.7, -1.2, 0.4, 0.0),
    "w=0,g=0": (0.7, -1.2, 0.0, 0.0),
    "w=0,off-crossing": (E_CROSS * 1.2, Z_CROSS, 0.0, G_CROSS),
    "pulse": (2.1, -0.3, 3.6, 4.75),
}


def case_blocks(scale):
    """Every BLOCK_CASES block times scale, in both 13C blocks."""
    cases = scale * np.array(list(BLOCK_CASES.values()))
    return blocks(*np.repeat(cases.T[:, :, None], 2, axis=2))


class TestNewtonColumn:
    """_newton_column, the engine's pulse column from h's eigenvalues."""

    @settings(max_examples=150, deadline=None)
    @given(coeffs=arrays(np.float64, (6, 2, 4),
                         elements=st.floats(-10.0, 10.0)),
           duration=st.floats(0.0, 2.0))
    def test_matches_expm(self, coeffs, duration):
        h = blocks(*np.moveaxis(coeffs, -1, 0))
        assert np.abs(column(h, duration)
                      - dense_column(h, duration)).max() <= TOLERANCE

    def test_broadcast_entries_match_whole_blocks(self, rng):
        # the engine passes z and w per shot (n, 1) and g as a scalar
        e, z, w = rng.normal(size=(3, N_DRAWS, 2))
        z[:, 1], w[:, 1] = z[:, 0], w[:, 0]
        whole = _newton_column(e, z, w, np.full_like(e, 1.3), 0.41)
        assert np.array_equal(
            _newton_column(e, z[:, :1], w[:, :1], 1.3, 0.41), whole)
        assert np.abs(np.moveaxis(whole, 0, -1)
                      - dense_column(blocks(e, z, w, 1.3), 0.41)).max() \
            <= TOLERANCE

    @pytest.mark.parametrize("scale", [1e-140, 1e-120, 1.0, 1e120, 1e140])
    def test_block_cases_run_in_closed_form(self, fallback_blocks, scale):
        # level crossings and double roots included; only h = 0 has no
        # finite column
        h = case_blocks(scale)
        duration = 0.9 / max(scale, 1.0)
        assert np.abs(column(h, duration)
                      - dense_column(h, duration)).max() <= TOLERANCE
        assert np.array_equal(np.array(fallback_blocks),
                              np.zeros((2, 3, 3)))

    @pytest.mark.parametrize("scale", [1e-170, 1e170])
    def test_extreme_blocks_take_the_fallback(self, fallback_blocks, scale):
        # every square of an entry leaves the double range
        h = case_blocks(scale)
        duration = 0.9 / max(scale, 1.0)
        assert np.abs(column(h, duration)
                      - dense_column(h, duration)).max() <= TOLERANCE
        assert np.array_equal(np.array(fallback_blocks),
                              h.reshape(-1, 3, 3))


def dense_run(point, params, db, dom, dt):
    """Reference _run_batch: dense expm for every step of the point, from
    |0> with the 13C spin unpolarized, free evolution under the
    drive-free Hamiltonian."""
    frame, omega_mag, duration, ramsey = point
    pulse = frame_hamiltonians(params, db, dom, dt, frame, omega_mag)
    psi = np.zeros((len(db), 6), dtype=complex)
    psi[:, 2:4] = math.sqrt(0.5)
    psi = dense(psi, pulse, duration)
    if ramsey is not None:
        tau, phase = ramsey
        psi = dense(psi, frame_hamiltonians(params, db, dom, dt, frame), tau)
        psi = dense(psi, pulse, duration, phase)
    return np.abs(psi[:, 2]) ** 2 + np.abs(psi[:, 3]) ** 2


@pytest.fixture
def recorded_batches(monkeypatch):
    """Every _run_batch call made by a simulation, with its result."""
    calls = []
    original = pulse_sim._run_batch

    def spy(*args):
        calls.append((args, original(*args)))
        return calls[-1][1]

    monkeypatch.setattr(pulse_sim, "_run_batch", spy)
    return calls


OM_A, OM_B = 2.0 * math.pi * 1.5, 2.0 * math.pi * 0.7
# Points of both shapes _run_batch runs: (frame detuning, pulse strength,
# pulse duration, None or (tau, closing phase)).  A spectrum point is a
# lone pulse; a Ramsey point is the same pulse twice around free evolution.
POINTS = {
    "lone-pulse": (0.4, OM_A, 0.41, None),
    "same-pulse-twice": (0.4, OM_A, 0.33, (2.3, 1.9)),
    "same-pulse-twice-tau-0": (-0.2, OM_B, 0.52, (0.0, -0.4)),
}


class TestFreeEvolution:
    """Free evolution, which _run_batch folds into a Ramsey point's
    closed-form readout, against dense expm, with one frame detuning, tau
    and closing phase per shot-point."""

    @pytest.mark.parametrize("duration", [0.0, 0.37, 4.1])
    def test_matches_expm(self, rng, duration):
        params, env = make_params(delta_khz=40.0), environment(rng)
        frame = rng.normal(0.0, 0.8, N_DRAWS)
        tau = duration * rng.uniform(0.5, 1.5, N_DRAWS)
        tau[::4] = 0.0
        phase = rng.uniform(-math.pi, math.pi, N_DRAWS)
        point = (frame, OM_A, 0.33, (tau, phase))
        assert np.abs(_run_batch(point, params, *env)
                      - dense_run(point, params, *env)).max() <= TOLERANCE

    def test_zero_rotation_rate(self):
        # omega + delta_omega = 0 and e = 0 in both blocks: r = 0
        params = make_params(omega_khz=581.0, a_par_khz=0.0)
        env = (np.zeros(3), np.full(3, -params.omega), np.zeros(3))
        h = frame_hamiltonians(params, *env, 0.5)
        assert np.all(h[..., 0, [0, 2]] == 0.0)
        point = (0.5, OM_B, 0.52, (np.array([0.0, 2.3, 40.0]),
                                   np.array([0.3, -1.2, 2.0])))
        got = _run_batch(point, params, *env)
        assert np.all(np.isfinite(got))
        assert np.abs(got - dense_run(point, params, *env)).max() <= TOLERANCE

    def test_norm_preserved(self, rng):
        # sin and cos are taken of one angle, so out to tau = 1e8 us, a
        # rotation angle of ~2e8 rad, P0 stays a probability and the
        # readout loses no norm
        params, env = make_params(delta_khz=40.0), environment(rng)
        tau = np.geomspace(1e3, 1e8, N_DRAWS)
        got = _run_batch((0.4, OM_A, 0.33, (tau, 0.7 * tau)), params, *env)
        assert np.all((got >= 0.0) & (got <= 1.0 + 1e-12))

    def test_non_finite_readout_is_norm_loss(self, rng):
        # r tau overflows, and the sine and cosine of inf are NaN
        params, env = make_params(), environment(rng)
        with pytest.raises(pulse_sim.NormLossError):
            _run_batch((0.4, OM_A, 0.33, (1e308, 0.0)), params, *env)


class TestRunBatch:
    @pytest.mark.parametrize("kind", RAMSEY_KINDS)
    def test_ramsey_matches_dense(self, recorded_batches, kind):
        config = SimConfig(n_shots=N_DRAWS, seed=5)
        for a_par_khz in A_PAR_KHZ:
            simulate_ramsey(kind, [0.0, 0.85, 3.1],
                            [(make_params(delta_khz=30.0, a_par_khz=a_par_khz),
                              NOISE)], config)
        # the three points in one chunk per run
        assert len(recorded_batches) == len(A_PAR_KHZ)
        for args, p0 in recorded_batches:
            assert np.abs(p0 - dense_run(*args)).max() <= TOLERANCE

    @pytest.mark.parametrize("omega_khz", [0.0, 470.0])
    def test_spectrum_point_matches_dense(self, recorded_batches, omega_khz):
        config = SimConfig(n_shots=N_DRAWS, seed=5)
        detunings = 2.0 * math.pi * np.array([-0.24, 0.0, 0.31])
        for a_par_khz in A_PAR_KHZ:
            simulate_spectrum(detunings, [(make_params(omega_khz=omega_khz,
                                                       a_par_khz=a_par_khz),
                                           NOISE)], config)
        assert len(recorded_batches) == len(A_PAR_KHZ)
        for args, p0 in recorded_batches:
            assert np.abs(p0 - dense_run(*args)).max() <= TOLERANCE

    @pytest.mark.parametrize("a_par_khz,n_blocks", [
        (150.0, 2), (0.0, 1), (1e-17, 1)])
    def test_one_column_per_distinct_block(self, monkeypatch, rng, a_par_khz,
                                           n_blocks):
        # delta +- a_par at 1e-17 kHz round to one double at delta 30 kHz
        seen = []
        column = pulse_sim._newton_column

        def spy(e, *args):
            seen.append(e)
            return column(e, *args)

        monkeypatch.setattr(pulse_sim, "_newton_column", spy)
        params = make_params(delta_khz=30.0, a_par_khz=a_par_khz)
        env = environment(rng)
        pulse_sim._run_batch(POINTS["same-pulse-twice"], params, *env)
        blocks = np.array([params.delta + params.a_par,
                           params.delta - params.a_par])[:n_blocks]
        (e,) = seen
        assert np.array_equal(e, GAMMA * env[0] + 0.5 * blocks[:, None])

    @pytest.mark.parametrize("name", POINTS)
    def test_segment_positions_match_dense(self, rng, name):
        params, env = make_params(delta_khz=30.0), environment(rng)
        got = pulse_sim._run_batch(POINTS[name], params, *env)
        assert np.abs(got - dense_run(POINTS[name], params, *env)).max() \
            <= TOLERANCE

    @pytest.mark.parametrize("name", POINTS)
    def test_norm_check_sees_every_column(self, monkeypatch, rng, name):
        params, env = make_params(), environment(rng)
        column = pulse_sim._newton_column
        monkeypatch.setattr(pulse_sim, "_newton_column",
                            lambda *args: 1.01 * column(*args))
        with pytest.raises(pulse_sim.NormLossError):
            pulse_sim._run_batch(POINTS[name], params, *env)

    @pytest.mark.parametrize("kind", RAMSEY_KINDS)
    def test_one_pulse_build_per_point(self, monkeypatch, kind):
        # free evolution reads the pulse's own block entries, so a Ramsey
        # point forms one column, and a chunk of points forms theirs in
        # one call: 3 points of 4 shots in two 13C blocks at 16 block
        # entries per chunk
        columns = []
        column = pulse_sim._newton_column

        def spy(*args):
            columns.append(column(*args))
            return columns[-1]

        monkeypatch.setattr(pulse_sim, "_newton_column", spy)
        monkeypatch.setattr(pulse_sim, "_MC_CHUNK_ENTRIES", 16)
        config = SimConfig(n_shots=4, seed=5)
        simulate_ramsey(kind, [0.0, 0.85, 3.1], [(make_params(), NOISE)],
                        config)
        assert [u.shape for u in columns] == [(3, 2, 8), (3, 2, 4)]


    @pytest.mark.parametrize("kind", RAMSEY_KINDS)
    def test_quadrature_forms_each_ramsey_pulse_once(self, monkeypatch,
                                                      kind):
        # the nodes and the frame are the same at every tau: one column
        # per run over 401 tau, read out in chunks
        columns = []
        column = pulse_sim._newton_column

        def spy(*args):
            columns.append(column(*args))
            return columns[-1]

        monkeypatch.setattr(pulse_sim, "_newton_column", spy)
        drives = [(make_params(omega_khz=om), NOISE) for om in (470.0, 581.0)]
        traces = simulate_ramsey(kind, np.linspace(0.0, 20.0, 401), drives,
                                 SimConfig(n_shots=1), nodes=(7, 5, 3))
        assert [u.shape for u in columns] == [(3, 2, 105)] * len(drives)
        assert all(not t.stderr.any() for t in traces)


def oracle_run(case, n_shots):
    """simulate_ramsey or simulate_spectrum and its arguments for a
    (config, Ramsey kind or "spectrum", drives) case: configs/<config>.json
    at seed 7, 101 points of 0..20 us or -600..600 kHz, at the drives in
    kHz, or at the config's own drive if drives is None."""
    name, kind, drives_khz = case
    res = resolve_config(load_config(
        Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"))
    drives = [(res["params"], res["noise"])] if drives_khz is None else \
        [(res["params"].with_omega(khz_to_angular(om)), res["noise"])
         for om in drives_khz]
    config = SimConfig(n_shots=n_shots, seed=7)
    if kind == "spectrum":
        grid = khz_to_angular(np.linspace(-600.0, 600.0, ORACLE_POINTS))
        return simulate_spectrum, grid, drives, config
    return (simulate_ramsey, kind, np.linspace(0.0, 20.0, ORACLE_POINTS),
            drives, config)


def oracle_ids(case):
    """The test ids of a case's traces, one per drive."""
    name, kind, drives_khz = case
    if drives_khz is None:
        return [f"{name}-{kind}"]
    return [f"{name}-{kind}-{om:g}khz" for om in drives_khz]


# MC against the exact mean: 2000 shots at 101 points per trace, 13
# traces: every Ramsey kind and a spectrum on each config, and one nv2
# spectrum call over three drives, whose reflectometer sigma_Omega is 0
# with the drive off and differs per drive while the drives share each
# shot's unit draws.  The bands hold each trace's chi^2/dof (101 dof, s.d.
# 0.14) and the pooled one (1313 dof, s.d. 0.04); seeds 3, 7 and 11 gave
# 0.76..1.35 per trace and 0.96..1.08 pooled, with max |z| 3.4.  Scaling
# the sampler's delta_b by 1.05, its delta_Omega by 1.1 or its delta_T by
# 1.1 moved the pooled chi^2/dof of the ten single-drive traces at seed 7
# to 1.96, 1.77 and 2.63.
ORACLE_CASES = [(preset, kind, None) for preset in ("nv1", "nv2")
                for kind in (*RAMSEY_KINDS, "spectrum")] \
    + [("nv2", "spectrum", (0.0, 230.0, 470.0))]
ORACLE_IDS = [tid for case in ORACLE_CASES for tid in oracle_ids(case)]
ORACLE_POINTS = 101
ORACLE_SHOTS = 2000
CASE_BAND, POOLED_BAND, MAX_Z = (0.6, 1.5), (0.85, 1.2), 4.5


@pytest.fixture(scope="module")
def oracle_z():
    """(MC - exact) / MC stderr at every point, by trace id."""
    z = {}
    for case in ORACLE_CASES:
        simulate, *args = oracle_run(case, ORACLE_SHOTS)
        for tid, mc, exact in zip(oracle_ids(case), simulate(*args),
                                  exact_mean_trace(simulate, *args),
                                  strict=True):
            z[tid] = (mc.mean_p0 - exact.mean_p0) / mc.stderr
    return z


class TestExactMean:
    @pytest.mark.parametrize("trace", ORACLE_IDS)
    def test_mc_scatters_about_the_exact_mean(self, oracle_z, trace):
        z = oracle_z[trace]
        assert CASE_BAND[0] <= np.mean(z ** 2) <= CASE_BAND[1]
        assert np.abs(z).max() <= MAX_Z

    def test_pooled_chi2(self, oracle_z):
        z = np.concatenate(list(oracle_z.values()))
        assert POOLED_BAND[0] <= np.mean(z ** 2) <= POOLED_BAND[1]

    @pytest.mark.parametrize("kind", [*RAMSEY_KINDS, "spectrum"])
    def test_engine_quadrature_matches_the_oracle(self, monkeypatch, kind):
        # the engine's nodes= path builds and reduces its own nodes; nv2
        # has all three noises, at unequal node counts
        simulate, *args = oracle_run(("nv2", kind, None), 1)
        args[-3] = args[-3][::4]
        nodes = (7, 5, 3)
        exact = exact_mean_trace(simulate, *args, nodes=nodes)
        if kind == "spectrum":   # simulate_spectrum takes no nodes
            monkeypatch.setattr(pulse_sim, "_simulate", functools.partial(
                pulse_sim._simulate, nodes=nodes))
            engine = simulate(*args)
        else:
            engine = simulate(*args, nodes=nodes)
        for got, want in zip(engine, exact, strict=True):
            assert np.abs(got.mean_p0 - want.mean_p0).max() <= TOLERANCE
            assert not got.stderr.any()

    @pytest.mark.parametrize("kind", ["dressed_mp", "spectrum"])
    def test_nodes_match_dense(self, recorded_batches, kind):
        # nv2 has all three noises; 3 nodes each and a short grid
        simulate, *args = oracle_run(("nv2", kind, None), 1)
        args[-3] = args[-3][::25]
        exact_mean_trace(simulate, *args, nodes=(3, 3, 3))
        [(params, noise)] = args[-2]
        nodes = np.polynomial.hermite_e.hermegauss(3)[0]
        sigmas = (noise.sigma_b, noise.sigma_omega(params.omega),
                  noise.sigma_t)
        assert len(recorded_batches) == 1
        for (point, params, *env), p0 in recorded_batches:
            for x, sigma in zip(env, sigmas):
                assert np.array_equal(np.unique(x), sigma * nodes)
            assert np.abs(p0 - dense_run(point, params, *env)).max() \
                <= TOLERANCE


class TestSampler:
    @pytest.mark.parametrize("seed,point", [(0, 0), (7, 13), (2 ** 64 - 1, 400)])
    def test_bit_identical_to_shot_rng(self, seed, point):
        got = _sample_block(seed, point, 30)
        want = np.stack([shot_rng(seed, shot, point).standard_normal(3)
                         for shot in range(30)])
        assert np.array_equal(got, want)

    def test_interleaved_calls_match_isolated(self):
        keys = [(3, 5), (11, 2), (3, 6)]
        isolated = [_sample_block(seed, point, 25) for seed, point in keys]
        for _ in range(2):
            for (seed, point), want in zip(keys, isolated):
                assert np.array_equal(_sample_block(seed, point, 25), want)

    def test_concurrent_callers_share_no_state(self):
        keys = [(seed, point) for seed in (1, 9) for point in range(4)] * 2
        want = [_sample_block(seed, point, 200) for seed, point in keys]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(
                    lambda key: _sample_block(*key, 200), keys,
                    timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g, w)


def sampled(seed, point_index, n_shots):
    """_sample_block's unit draws, shape (..., n_shots, 3)."""
    return _sample_block(seed, point_index, n_shots)


def reference(seed, points, n_shots):
    """shot_rng draws, shape (len(points), n_shots, 3)."""
    return np.array([[shot_rng(seed, shot, point).standard_normal(3)
                      for shot in range(n_shots)] for point in points])


def raw_words(seed, point, n_shots, n_words=3):
    """The first n_words raw words of each shot's stream, (n_shots,
    n_words)."""
    return np.array([shot_rng(seed, shot, point).bit_generator
                     .random_raw(n_words) for shot in range(n_shots)])


def first_pass(words):
    """Whether each row of the first three words (three arrays) is accepted
    by the fast path: the shots _sample_block draws without its loop."""
    wi, ki, _ = pulse_sim._tables()
    return np.all([pulse_sim._ziggurat_fast(w, wi, ki)[3] for w in words[:3]],
                  axis=0)


class TestVectorisedSampler:
    @pytest.mark.parametrize("seed", [0, 1, 2, 2 ** 63, 2 ** 64 - 1])
    @pytest.mark.parametrize("first", [0, 2 ** 32 - 2, 2 ** 40 + 7])
    def test_block_bit_identical_to_shot_rng(self, seed, first):
        points = range(first, first + 4)
        assert np.array_equal(sampled(seed, points, 50),
                              reference(seed, points, 50))

    def test_slow_path_shots(self):
        # A word misses the fast path when rabs >= ki[idx]: every word of
        # layer 1 (ki[1] = 0), layer 0's tail and the wedges.  Shot 110 of
        # (seed 5, point 3) has a layer-0 tail word.
        seed, point, n_shots = 5, 3, 200
        words = raw_words(seed, point, n_shots, 4)
        _, ki, _ = pulse_sim._tables()
        idx = (words[:, :3] & 0xFF).astype(np.intp)
        miss = ((words[:, :3] >> 9) & 0xFFFFFFFFFFFFF) >= ki[idx]
        slow = miss.any(axis=1)
        assert (miss & (idx == 0))[110].any()
        assert (miss & (idx == 1)).any() and (miss & (idx > 1)).any()
        shots = np.arange(n_shots, dtype=np.uint64)
        vector_words = pulse_sim._philox_words(
            seed, shots, np.full_like(shots, point))
        assert np.array_equal(np.stack(vector_words, axis=1), words)
        assert np.array_equal(first_pass(vector_words), ~slow)
        got = sampled(seed, point, n_shots)
        want = reference(seed, [point], n_shots)[0]
        assert np.array_equal(got[slow], want[slow])

    @pytest.mark.parametrize("cap,n_shots,n_points", [
        (100, 30, 7),       # three points per block, a last block of one
        (100, 150, 3),      # n_shots over the cap: one point per block
        (pulse_sim._BLOCK_SHOT_POINTS, pulse_sim._BLOCK_SHOT_POINTS + 1, 2),
    ])
    def test_simulate_samples_whole_points(self, monkeypatch, recorded_batches,
                                           cap, n_shots, n_points):
        monkeypatch.setattr(pulse_sim, "_BLOCK_SHOT_POINTS", cap)
        blocks = []
        sample = pulse_sim._sample_block

        def spy(*args):
            blocks.append(args[1])
            return sample(*args)

        monkeypatch.setattr(pulse_sim, "_sample_block", spy)
        params = make_params(omega_khz=470.0)
        simulate_spectrum(2.0 * math.pi * np.linspace(-0.3, 0.3, n_points),
                          [(params, NOISE)], SimConfig(n_shots=n_shots,
                                                       seed=5))
        per_block = max(1, cap // n_shots)
        assert blocks == [range(first, min(first + per_block, n_points))
                          for first in range(0, n_points, per_block)]
        assert_chunks(recorded_batches, blocks, params, n_shots)


def assert_chunks(batches, blocks, params, n_shots):
    """The recorded _run_batch calls of a spectrum run split each sampled
    block into chunks of whole points, at most _MC_CHUNK_ENTRIES block
    entries (shot-points times the run's distinct 13C blocks; at least one
    point) each, and carry each point's own environment draws: its unit
    draws times NOISE's sigmas at the drive."""
    n_blocks = len({params.delta + params.a_par, params.delta - params.a_par})
    per_chunk = max(1, pulse_sim._MC_CHUNK_ENTRIES // (n_shots * n_blocks))
    chunks = [range(first, min(first + per_chunk, block.stop))
              for block in blocks
              for first in range(block.start, block.stop, per_chunk)]
    sigmas = (NOISE.sigma_b, NOISE.sigma_omega(params.omega), NOISE.sigma_t)
    assert len(batches) == len(chunks)
    for chunk, (args, p0) in zip(chunks, batches):
        assert len(p0) == len(chunk) * n_shots
        want = np.concatenate([_sample_block(5, point, n_shots)
                               for point in chunk]) * sigmas
        assert all(np.array_equal(g, w)
                   for g, w in zip(args[2:], want.T, strict=True))


GRID_POINTS = 60


def one_and_two_blocks(cases):
    """pytest params of each case (a tuple of arguments) followed by
    a_par_khz: 150 kHz (two 13C blocks) under the case's plain id, then 0
    (one block) under that id and "one_block"."""
    return [pytest.param(*case, a_par, id="-".join(map(str, case)) + tail)
            for a_par, tail in zip(A_PAR_KHZ, ("", "-one_block"))
            for case in cases]


def simulated_files(tmp_path, kind, n_shots, a_par_khz):
    """The CSV and sidecar bytes of a GRID_POINTS-point trace of kind (a
    Ramsey kind or "spectrum") at hyperfine coupling a_par_khz."""
    params = make_params(delta_khz=30.0, a_par_khz=a_par_khz)
    config = SimConfig(n_shots=n_shots, seed=5)
    if kind == "spectrum":
        trace, = simulate_spectrum(
            2.0 * math.pi * np.linspace(-0.6, 0.6, GRID_POINTS),
            [(params, NOISE)], config)
    else:
        trace, = simulate_ramsey(kind, np.linspace(0.0, 3.0, GRID_POINTS),
                                 [(params, NOISE)], config)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    return path.read_bytes(), Path(f"{path}.meta.json").read_bytes()


class TestChunks:
    """_simulate runs each sampled block through _run_batch in chunks of
    whole points; the chunk size changes no byte of a trace.  The
    quadrature's chunks keep their own, smaller budget."""

    @pytest.mark.parametrize("kind,n_shots,a_par_khz", one_and_two_blocks(
        [(kind, n_shots) for n_shots in (1, 37)
         for kind in RAMSEY_KINDS + ("spectrum",)]))
    def test_traces_do_not_depend_on_chunk_size(self, monkeypatch, tmp_path,
                                                kind, n_shots, a_par_khz):
        want = simulated_files(tmp_path, kind, n_shots, a_par_khz)
        # one point per call, chunks that 37 shots do not divide, and the
        # whole grid (one sampled block) in one call at either block count
        for cap in (1, 100, GRID_POINTS * n_shots * 2):
            monkeypatch.setattr(pulse_sim, "_MC_CHUNK_ENTRIES", cap)
            assert simulated_files(tmp_path, kind, n_shots, a_par_khz) \
                == want, cap

    @pytest.mark.parametrize("chunk_cap", [1, 60, 89, 1000])
    def test_chunks_hold_whole_points(self, monkeypatch, recorded_batches,
                                      chunk_cap):
        # 30 shots in two 13C blocks, 3 points per sampled block, at most
        # chunk_cap shot-points per chunk: chunks of 1, 2, 2 and 3 points,
        # never across a block boundary
        monkeypatch.setattr(pulse_sim, "_BLOCK_SHOT_POINTS", 100)
        monkeypatch.setattr(pulse_sim, "_MC_CHUNK_ENTRIES", 2 * chunk_cap)
        params = make_params(omega_khz=470.0)
        grid = 2.0 * math.pi * np.linspace(-0.3, 0.3, 7)
        simulate_spectrum(grid, [(params, NOISE)],
                          SimConfig(n_shots=30, seed=5))
        blocks = [range(0, 3), range(3, 6), range(6, 7)]
        assert_chunks(recorded_batches, blocks, params, 30)
        # one frame detuning per shot-point
        frames = np.concatenate([args[0][0] for args, _ in recorded_batches])
        assert np.array_equal(frames,
                              np.repeat(grid, 30) - 0.5 * params.delta)

    @pytest.mark.parametrize("kind", ["dressed_mp", "spectrum"])
    @pytest.mark.parametrize("a_par_khz,n_blocks", [(150.0, 2), (0.0, 1)])
    def test_quadrature_calls_keep_2048_entries(self, monkeypatch, kind,
                                                a_par_khz, n_blocks):
        # the exact mean's matrix-vector product rounds by the rows it
        # holds, so the quadrature keeps 2048 block entries per call while
        # the Monte Carlo takes more: 401 points of 105 nodes
        points = []
        readout = pulse_sim._readout

        def spy(e, z, w, u, ramsey):
            points.append(len(u[0]) if ramsey is None else len(ramsey[0]))
            return readout(e, z, w, u, ramsey)

        monkeypatch.setattr(pulse_sim, "_readout", spy)
        drives = [(make_params(a_par_khz=a_par_khz), NOISE)]
        grid, nodes = np.linspace(0.0, 2.0, 401), (7, 5, 3)
        if kind == "spectrum":   # simulate_spectrum takes no nodes
            monkeypatch.setattr(pulse_sim, "_simulate", functools.partial(
                pulse_sim._simulate, nodes=nodes))
            simulate_spectrum(grid, drives, SimConfig(n_shots=1))
        else:
            simulate_ramsey(kind, grid, drives, SimConfig(n_shots=1),
                            nodes=nodes)
        per_call = 2048 // math.prod(nodes) // n_blocks
        assert points == [per_call] * (401 // per_call) + [401 % per_call]


def nv2_run():
    """configs/nv2.json's drive, its params and its noise, and 40 shots at
    seed 5: the reflectometer sigma_Omega, 0 with the drive off and
    different at every drive."""
    res = resolve_config(load_config(
        Path(__file__).resolve().parents[1] / "configs" / "nv2.json"))
    return (res["params"], res["noise"]), SimConfig(n_shots=40, seed=5)


class TestSharedDraws:
    """The drives of one call share each shot's unit draws: they are
    sampled once per block, and every trace equals a one-drive call's."""

    DRIVES_KHZ = (0.0, 230.0, 470.0)

    def drives(self, drive):
        params, noise = drive
        return [(params.with_omega(khz_to_angular(om)), noise)
                for om in self.DRIVES_KHZ]

    @pytest.mark.parametrize("kind,a_par_khz", one_and_two_blocks(
        [(kind,) for kind in ("spectrum", *RAMSEY_KINDS)]))
    def test_each_drive_equals_a_one_drive_call(self, monkeypatch, kind,
                                                a_par_khz):
        # 7 points of 40 shots in blocks of 3 points, so a block boundary
        # falls inside the grid, and kernel calls of one point (two 13C
        # blocks) or two (one block), so chunk boundaries fall inside a block
        monkeypatch.setattr(pulse_sim, "_BLOCK_SHOT_POINTS", 120)
        monkeypatch.setattr(pulse_sim, "_MC_CHUNK_ENTRIES", 80)
        (params, noise), config = nv2_run()
        drives = self.drives((replace(params, a_par=khz_to_angular(a_par_khz)),
                              noise))
        if kind == "spectrum":
            grid = khz_to_angular(np.linspace(-600.0, 600.0, 7))
            simulate = lambda drives: simulate_spectrum(grid, drives, config)
        else:
            if kind != "undressed_0m1":
                drives = drives[1:]    # the dressed kinds need a drive
            grid = np.linspace(0.0, 3.0, 7)
            simulate = lambda drives: simulate_ramsey(kind, grid, drives,
                                                      config)
        together = simulate(drives)
        assert len(together) == len(drives)
        for drive, trace in zip(drives, together):
            alone, = simulate([drive])
            assert np.array_equal(trace.mean_p0, alone.mean_p0)
            assert np.array_equal(trace.stderr, alone.stderr)
            assert trace.metadata == alone.metadata

    def test_one_sample_per_block(self, monkeypatch):
        monkeypatch.setattr(pulse_sim, "_BLOCK_SHOT_POINTS", 120)
        blocks = []
        sample = pulse_sim._sample_block

        def spy(*args):
            blocks.append(args[1])
            return sample(*args)

        monkeypatch.setattr(pulse_sim, "_sample_block", spy)
        drive, config = nv2_run()
        simulate_spectrum(khz_to_angular(np.linspace(-600.0, 600.0, 7)),
                          self.drives(drive), config)
        assert blocks == [range(0, 3), range(3, 6), range(6, 7)]

    @pytest.mark.parametrize("simulate", [
        lambda grid, config: simulate_spectrum(grid, [], config),
        lambda grid, config: simulate_ramsey("dressed_mp", grid, (), config),
    ], ids=["spectrum", "ramsey"])
    def test_no_drives_rejected(self, simulate):
        _, config = nv2_run()
        with pytest.raises(ValueError, match="^drives needs at least one"):
            simulate(np.linspace(0.0, 1.0, 3), config)


@pytest.fixture
def fresh_tables():
    """Reads and checks the sampler's tables again inside the test."""
    pulse_sim._tables.cache_clear()
    yield
    pulse_sim._tables.cache_clear()


class TestSlowPath:
    """The shots that miss the ziggurat fast path run numpy's wedge and
    tail steps inside the engine, on further Philox blocks of their own
    streams, and match numpy's generator bit for bit."""

    @pytest.mark.parametrize("m", pulse_sim._PHILOX_M, ids=["m0", "m1"])
    def test_mulhilo_is_the_exact_product(self, rng, m):
        # both words of m * b against Python's integer product, at the
        # edge words and at 10**5 random ones
        edges = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1]
        b = np.concatenate([np.array(edges, dtype=np.uint64),
                            rng.integers(2 ** 64, size=10 ** 5,
                                         dtype=np.uint64)])
        hi, lo = pulse_sim._mulhilo(m, b)
        want = [m * word for word in b.tolist()]
        assert hi.tolist() == [p >> 64 for p in want]
        assert lo.tolist() == [p & (2 ** 64 - 1) for p in want]

    # the first three are one point's shots; the rest also run as
    # _sample_block passes them, a (P, 1) column of points against an (n,)
    # row of shots, which must equal the flat per-shot-point call
    @pytest.mark.parametrize("seed,points,n_shots", [
        (0, [0], 20), (7, [36], 20), (2 ** 64 - 1, [9], 20),
        (0, [0, 36, 2 ** 63], 20), (2 ** 64 - 1, [9, 2 ** 40, 2 ** 63], 7),
        (2 ** 64 - 1, [2 ** 63], 1),
    ], ids=["0-0", "7-36", "18446744073709551615-9", "column-0",
            "column-max", "one_shot_one_point"])
    def test_philox_blocks_are_numpys_stream(self, seed, points, n_shots):
        shots = np.arange(n_shots, dtype=np.uint64)
        column = np.array(points, dtype=np.uint64)[:, None]
        flat = [pulse_sim._philox_words(
            seed, np.tile(shots, len(points)), np.repeat(column, n_shots),
            block) for block in (1, 2, 3)]
        got = np.concatenate([np.stack(w, axis=1) for w in flat], axis=1)
        assert np.array_equal(got, np.concatenate(
            [raw_words(seed, point, n_shots, 12) for point in points]))
        for block, words in enumerate(flat, 1):
            grid = pulse_sim._philox_words(seed, shots, column, block)
            assert all(w.shape == (len(points), n_shots) for w in grid)
            assert np.array_equal(np.stack(grid, axis=-1).reshape(-1, 4),
                                  np.stack(words, axis=1))

    def test_random_shots_match_numpy(self, rng):
        # about a million shot-points of a random seed: every shot that
        # misses the fast path, and every 50th other shot, against numpy's
        # generator; they hold hundreds of layer-0 tail words
        seed = int(rng.integers(2 ** 64, dtype=np.uint64))
        first, n_points, n_shots = int(rng.integers(2 ** 40)), 250, 4000
        wi, ki, _ = pulse_sim._tables()
        shots = np.arange(n_shots, dtype=np.uint64)
        tail_words = checked = 0
        for point in range(first, first + n_points, 4):
            points = range(point, point + 4)
            got = sampled(seed, points, n_shots).reshape(-1, 3)
            shot = np.tile(shots, 4)
            at = np.repeat(np.array(points, dtype=np.uint64), n_shots)
            words = pulse_sim._philox_words(seed, shot, at)
            rows = np.flatnonzero(~first_pass(words)
                                  | (np.arange(len(shot)) % 50 == 0))
            assert np.array_equal(got[rows],
                                  shot_normals(seed, shot[rows], at[rows]))
            for w in words[:3]:
                tail_words += np.sum((w & 0xFF == 0)
                                     & ((w >> 9) & 0xFFFFFFFFFFFFF >= ki[0]))
            checked += len(rows)
        assert tail_words >= 200 and checked > 60_000

    @pytest.mark.parametrize("seed,point,shot,blocks", [
        (5, 3, 110, 2),      # a layer-0 tail word
        (7, 36, 2243, 3),    # a stream that runs into its third block
    ], ids=["tail", "third_block"])
    def test_pinned_shots(self, monkeypatch, seed, point, shot, blocks):
        calls = []
        words = pulse_sim._philox_words

        def spy(*args):
            calls.append(args[3] if len(args) > 3 else 1)
            return words(*args)

        monkeypatch.setattr(pulse_sim, "_philox_words", spy)
        got = _sample_block(seed, point, shot + 1)[shot]
        assert np.array_equal(got, shot_rng(seed, shot, point)
                              .standard_normal(3))
        assert calls == list(range(1, blocks + 1))

    def test_wedge_test_takes_the_c_librarys_exp(self, monkeypatch):
        # numpy's C code tests a wedge with libm's exp, from which np.exp
        # differs on about 5% of inputs; a one-ulp difference flips an
        # accept only when the uniform lands within an ulp of the bound, so
        # no draw shows the swap, and a spy on the module's math does
        seen = []
        spy = types.SimpleNamespace(**vars(math))
        spy.exp = lambda v: seen.append(v) or math.exp(v)
        monkeypatch.setattr(pulse_sim, "math", spy)
        # (seed 5, point 3) has slow shots in layers above 1: wedge words
        got = _sample_block(5, 3, 200)
        assert np.array_equal(got, reference(5, [3], 200)[0])
        assert seen and all(-8.0 < v <= 0.0 for v in seen)   # -x^2/2

    def test_no_slow_shot_draws_no_further_block(self, monkeypatch):
        # shot 0 of (seed 0, point 0) takes the fast path three times
        calls = []
        words = pulse_sim._philox_words
        monkeypatch.setattr(pulse_sim, "_philox_words",
                            lambda *args: calls.append(args) or words(*args))
        assert np.array_equal(_sample_block(0, 0, 1),
                              reference(0, [0], 1)[0])
        assert len(calls) == 1


class TestSelfCheck:
    """The sampler checks its table file once, against a pinned CRC-32."""

    def test_shipped_tables_pass(self, fresh_tables):
        wi, ki, fi = pulse_sim._tables()
        raw = pulse_sim._TABLES.read_bytes()
        assert zlib.crc32(raw) == pulse_sim._TABLES_CRC
        assert raw == wi.tobytes() + ki.tobytes() + fi.tobytes()
        assert pulse_sim._tables() is pulse_sim._tables()   # read once

    @pytest.mark.parametrize("table,entry", [
        (0, 17),    # a wrong wi: fast-path values change
        (1, 1),     # ki[1] > 0: layer 1 would take the fast path
        (2, 200),   # a wrong fi: the wedge tests change
    ], ids=["wi", "ki", "fi"])
    def test_corrupt_table_is_an_io_error(self, monkeypatch, tmp_path,
                                          fresh_tables, table, entry):
        raw = bytearray(pulse_sim._TABLES.read_bytes())
        raw[2048 * table + 8 * entry] ^= 1
        corrupt = tmp_path / "ziggurat_double.bin"
        corrupt.write_bytes(bytes(raw))
        monkeypatch.setattr(pulse_sim, "_TABLES", corrupt)
        with pytest.raises(OSError, match="fail their CRC-32 check"):
            _sample_block(5, 3, 10)
        result = CliRunner().invoke(main, ["--out", str(tmp_path), "--shots",
                                           "2", "spectra"])
        assert result.exit_code == 4
        assert "i/o error: " in result.output + result.stderr
        assert not list(tmp_path.glob("*.csv"))


# numpy's static library, whose distributions object holds the ziggurat
# tables that src/nvcdd/ziggurat_double.bin copies.
LIBNPYRANDOM = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"


def archive_member(data, name):
    """Body of the named member of a System V ar archive."""
    pos, long_names = 8, b""
    while pos < len(data):
        ident = data[pos:pos + 16].decode().strip()
        size = int(data[pos + 48:pos + 58])
        body = data[pos + 60:pos + 60 + size]
        if ident == "//":
            long_names = body
        elif ident[:1] == "/" and ident[1:].isdigit():
            start = int(ident[1:])
            ident = long_names[start:long_names.index(b"/\n", start)].decode()
        if ident.rstrip("/") == name:
            return body
        pos += 60 + size + size % 2
    raise LookupError(name)


def elf_symbol(obj, name):
    """Bytes of a defined symbol of a little-endian ELF64 object."""
    shoff, = struct.unpack_from("<Q", obj, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", obj, 0x3A)
    sections = [struct.unpack_from("<IIQQQQIIQQ", obj, shoff + i * shentsize)
                for i in range(shnum)]
    symtab = next(sec for sec in sections if sec[1] == 2)   # SHT_SYMTAB
    strtab = sections[symtab[6]]
    for k in range(symtab[5] // 24):
        st_name, _, _, shndx, value, size = struct.unpack_from(
            "<IBBHQQ", obj, symtab[4] + 24 * k)
        start = strtab[4] + st_name
        if obj[start:obj.index(b"\0", start)] == name.encode():
            offset = sections[shndx][4] + value
            return obj[offset:offset + size]
    raise LookupError(name)


def test_tables_are_numpys():
    if not LIBNPYRANDOM.exists():
        pytest.skip("numpy ships no libnpyrandom.a here")
    obj = archive_member(LIBNPYRANDOM.read_bytes(),
                         "src_distributions_distributions.c.o")
    if obj[:6] != b"\x7fELF\x02\x01":
        pytest.skip("numpy's library is not little-endian ELF64 here")
    shipped = Path(pulse_sim.__file__).with_name("ziggurat_double.bin")
    assert b"".join(elf_symbol(obj, f"{name}_double")
                    for name in ("wi", "ki", "fi")) == shipped.read_bytes()
