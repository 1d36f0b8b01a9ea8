"""The block-diagonal shot engine against a dense reference.

Every kernel of the engine -- the closed-form free evolution, the block
eigendecomposition with phase conjugation, and the full _run_batch -- is
compared with scipy.linalg.expm of the dense 6x6 _frame_hamiltonians over
random environment draws.
"""

from concurrent.futures import ThreadPoolExecutor
import math
import sys

import numpy as np
import pytest
from scipy.linalg import expm

from nvcdd import pulse_sim
from nvcdd.dephasing import FixedAmplitudeNoise, NoiseSpec, sigma_b_from_t2
from nvcdd.pulse_sim import (
    RAMSEY_KINDS,
    MagneticPulse,
    SimConfig,
    _BLOCKS,
    _apply_eigen,
    _eigen_blocks,
    _frame_hamiltonians,
    _free_evolve,
    _propagate_batch,
    _sample_block,
    shot_rng,
    simulate_ramsey,
    simulate_spectrum,
)

from conftest import make_params

TOLERANCE = 1e-12
N_DRAWS = 40
NOISE = NoiseSpec(sigma_b=sigma_b_from_t2(5.4), sigma_t=0.25,
                  amplitude_noise=FixedAmplitudeNoise(2.0 * math.pi * 0.02))


def environment(rng, n=N_DRAWS):
    return (rng.normal(0.0, 15.0, n), rng.normal(0.0, 0.2, n),
            rng.normal(0.0, 0.3, n))


def random_states(rng, n=N_DRAWS):
    psi = rng.normal(size=(n, 6)) + 1j * rng.normal(size=(n, 6))
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


def dense(states, h, duration):
    """Reference propagation: expm of each dense 6x6 Hamiltonian."""
    return np.einsum("nij,nj->ni", expm(-1j * duration * h), states)


def free_evolve6(states, h, duration):
    """_free_evolve on stacked 6-states."""
    out = np.empty_like(states)
    out[:, _BLOCKS] = _free_evolve(states[:, _BLOCKS], h, duration)
    return out


class TestFreeEvolution:
    @pytest.mark.parametrize("duration", [0.0, 0.37, 4.1])
    def test_matches_expm(self, rng, duration):
        params = make_params(delta_khz=40.0)
        h = _frame_hamiltonians(params, *environment(rng), 0.8)
        psi = random_states(rng)
        assert np.abs(free_evolve6(psi, h, duration)
                      - dense(psi, h, duration)).max() <= TOLERANCE

    def test_zero_rotation_rate(self, rng):
        # omega + delta_omega = 0 and e = 0 in both blocks: r = 0
        params = make_params(omega_khz=581.0, a_par_khz=0.0)
        h = _frame_hamiltonians(params, np.zeros(3), np.full(3, -params.omega),
                                np.zeros(3), 0.5)
        assert np.all(h[:, [0, 1, 0, 1], [0, 1, 4, 5]] == 0.0)
        psi = random_states(rng, 3)
        got = free_evolve6(psi, h, 2.3)
        assert np.all(np.isfinite(got))
        assert np.abs(got - dense(psi, h, 2.3)).max() <= TOLERANCE


class TestPulses:
    @pytest.mark.parametrize("phase", [0.0, 0.9, -2.4])
    def test_block_propagation_matches_expm(self, rng, phase):
        h = _frame_hamiltonians(make_params(), *environment(rng), -0.3,
                                2.0 * math.pi * 1.5, phase)
        psi = random_states(rng)
        assert np.abs(_propagate_batch(psi, h, 0.33)
                      - dense(psi, h, 0.33)).max() <= TOLERANCE

    @pytest.mark.parametrize("phase", [0.9, -2.4])
    def test_phase_by_conjugating_phase_zero(self, rng, phase):
        # h(phi) = P h(0) P^dagger with P = exp(i phi) on |0>
        env = environment(rng)
        params = make_params()
        h0 = _frame_hamiltonians(params, *env, -0.3, 2.0 * math.pi * 1.5)
        vals, vecs = _eigen_blocks(h0.real)
        psi = random_states(rng)
        rot = np.exp(1j * phase)
        blocks = psi[:, _BLOCKS]
        blocks[..., 1] *= rot.conjugate()
        blocks = _apply_eigen(blocks, vals, vecs, 0.33)
        blocks[..., 1] *= rot
        got = np.empty_like(psi)
        got[:, _BLOCKS] = blocks
        h = _frame_hamiltonians(params, *env, -0.3, 2.0 * math.pi * 1.5, phase)
        assert np.abs(got - dense(psi, h, 0.33)).max() <= TOLERANCE


def dense_run(seq, params, db, dom, dt):
    """Reference _run_batch: dense expm for every segment."""
    psi = np.zeros((len(db), 6), dtype=complex)
    psi[:, 2:4] = np.sqrt(seq.segments[0].weights)
    for seg in seq.segments[1:-1]:
        if isinstance(seg, MagneticPulse):
            det = seq.frame_detuning if seg.detuning_mag is None \
                else seg.detuning_mag
            h = _frame_hamiltonians(params, db, dom, dt, det, seg.omega_mag,
                                    seg.phase)
        else:
            h = _frame_hamiltonians(params, db, dom, dt, seq.frame_detuning)
        psi = dense(psi, h, seg.duration)
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


class TestRunBatch:
    @pytest.mark.parametrize("kind", RAMSEY_KINDS)
    def test_ramsey_matches_dense(self, recorded_batches, kind):
        config = SimConfig(n_shots=N_DRAWS, seed=5, noise=NOISE)
        simulate_ramsey(kind, [0.0, 0.85, 3.1], make_params(delta_khz=30.0),
                        config)
        assert len(recorded_batches) == 3
        for args, p0 in recorded_batches:
            assert np.abs(p0 - dense_run(*args)).max() <= TOLERANCE

    @pytest.mark.parametrize("omega_khz", [0.0, 470.0])
    def test_spectrum_point_matches_dense(self, recorded_batches, omega_khz):
        config = SimConfig(n_shots=N_DRAWS, seed=5, noise=NOISE)
        detunings = 2.0 * math.pi * np.array([-0.24, 0.0, 0.31])
        simulate_spectrum(detunings, make_params(omega_khz=omega_khz), config)
        assert len(recorded_batches) == 3
        for args, p0 in recorded_batches:
            assert np.abs(p0 - dense_run(*args)).max() <= TOLERANCE


class TestSampler:
    @pytest.mark.parametrize("seed,point", [(0, 0), (7, 13), (2 ** 64 - 1, 400)])
    def test_bit_identical_to_shot_rng(self, seed, point):
        noise = NoiseSpec(sigma_b=1.0, sigma_t=1.0,
                          amplitude_noise=FixedAmplitudeNoise(1.0))
        got = np.stack(_sample_block(noise, 0.0, seed, point, 30), axis=1)
        want = np.stack([shot_rng(seed, shot, point).standard_normal(3)
                         for shot in range(30)])
        assert np.array_equal(got, want)

    def test_interleaved_calls_match_isolated(self):
        keys = [(3, 5), (11, 2), (3, 6)]
        isolated = [_sample_block(NOISE, 1.0, seed, point, 25)
                    for seed, point in keys]
        for _ in range(2):
            for (seed, point), want in zip(keys, isolated):
                got = _sample_block(NOISE, 1.0, seed, point, 25)
                assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_concurrent_callers_share_no_state(self):
        keys = [(seed, point) for seed in (1, 9) for point in range(4)] * 2
        want = [_sample_block(NOISE, 1.0, seed, point, 200)
                for seed, point in keys]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(
                    lambda key: _sample_block(NOISE, 1.0, *key, 200), keys,
                    timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for g, w in zip(got, want, strict=True):
            assert all(np.array_equal(x, y) for x, y in zip(g, w))
