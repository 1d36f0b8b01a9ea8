import math

import numpy as np
import pytest

from nvcdd import pulse_sim
from nvcdd.dephasing import (
    NoiseSpec,
    sigma_b_from_t2,
)
from nvcdd.pulse_sim import (
    DEFAULT_OMEGA_MAG_DQ,
    SimConfig,
    Trace,
    _run_batch,
    _sample_block,
    fourier_magnitude,
    read_trace_csv,
    simulate_ramsey,
    simulate_spectrum,
    write_trace_csv,
)
from nvcdd.units import angular_to_khz, khz_to_angular, mhz_to_angular

from conftest import dense_hamiltonians, make_params
from reference import (
    D0,
    EnvironmentSample,
    _apply_eigen,
    build_rotating_hamiltonian,
    frame_hamiltonians,
    shot_rng,
    zeeman_frame_shift,
)

QUIET = SimConfig(n_shots=1, seed=0)
NO_NOISE = NoiseSpec()
NV2_NOISE = NoiseSpec(sigma_b=sigma_b_from_t2(5.4), sigma_t=0.25)


def zero_noise_mp_prediction(tau, params):
    """Exact ideal-pulse {m,p} Ramsey signal, averaged over sublevels.

    Starting from |-1> = (|p> - |m>)/sqrt(2) per sublevel, the return
    probability is 1 - (omega/w_s)^2 sin^2(w_s tau / 2) with
    w_s = sqrt(omega^2 + (delta + s*a_par)^2).
    """
    out = 0.0
    for s in (+1.0, -1.0):
        w = math.hypot(params.omega, params.delta + s * params.a_par)
        out = out + 1.0 - (params.omega / w) ** 2 * np.sin(0.5 * w * tau) ** 2
    return 0.5 * out


def refined_peak_khz(freq, mag, lo=None, hi=None):
    """FFT peak frequency with parabolic sub-bin interpolation."""
    band = np.ones_like(freq, dtype=bool)
    band[0] = False  # skip DC
    if lo is not None:
        band &= freq > lo
    if hi is not None:
        band &= freq < hi
    k = np.flatnonzero(band)[np.argmax(mag[band])]
    a, b, c = mag[k - 1], mag[k], mag[k + 1]
    shift = 0.5 * (a - c) / (a - 2.0 * b + c)
    return freq[k] + shift * (freq[1] - freq[0])


class TestSampling:
    def test_zero_spec_gives_zero_sample(self, monkeypatch, nv2_params):
        # the unit draws are scaled by the run's sigmas, all zero here
        envs = []

        def spy(point, params, *env):
            envs.append(env)
            return _run_batch(point, params, *env)

        monkeypatch.setattr(pulse_sim, "_run_batch", spy)
        simulate_spectrum([0.0, 1.0], [(nv2_params, NO_NOISE)],
                          SimConfig(n_shots=4, seed=1))
        assert envs and all(np.array_equal(x, np.zeros(8))
                            for env in envs for x in env)

    def test_sample_variance(self):
        draws = _sample_block(9, 0, 100_000)
        assert draws.var(axis=0) == pytest.approx([1.0] * 3, rel=0.03)

    def test_replay_determinism(self):
        assert np.array_equal(_sample_block(4, 7, 50), _sample_block(4, 7, 50))

    def test_streams_independent_of_order(self):
        # shot s always draws from stream (seed, s, point), however many
        # shots the block holds and in whichever order they are drawn
        db = _sample_block(4, 0, 10)[:, 0]
        backward = [shot_rng(4, s, 0).standard_normal(3)[0]
                    for s in reversed(range(10))]
        assert list(db) == backward[::-1]
        assert np.array_equal(_sample_block(4, 0, 20)[:10, 0], db)

    @pytest.mark.parametrize("n_shots", [0, -3])
    def test_shots_below_one_rejected(self, n_shots):
        with pytest.raises(ValueError, match="^n_shots must be >= 1$"):
            SimConfig(n_shots=n_shots)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_philox_key_range_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(seed=seed)

    @pytest.mark.parametrize("field,value", [
        ("n_shots", 2.5), ("seed", 1.5), ("n_shots", True), ("seed", False),
        ("seed", np.True_), ("n_shots", math.nan), ("seed", math.inf),
        ("n_shots", "3"), ("n_shots", None)])
    def test_non_integer_shots_or_seed_rejected(self, field, value):
        # a bool or a fraction used to construct and fail later in the
        # engine with a bare TypeError
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            SimConfig(**{field: value})

    @pytest.mark.parametrize("value", [np.int64(3), np.uint64(3), 3.0])
    def test_whole_numbers_become_ints(self, tmp_path, nv2_params, value):
        config = SimConfig(n_shots=value, seed=value)
        assert type(config.n_shots) is int and type(config.seed) is int
        assert config == SimConfig(n_shots=3, seed=3)
        # the sidecar records them as JSON numbers
        trace = simulate_spectrum([0.0, 1.0], [(nv2_params, NV2_NOISE)],
                                  config)[0]
        write_trace_csv(trace, tmp_path / "t.csv")
        assert read_trace_csv(tmp_path / "t.csv").metadata["seed"] == 3


class TestHamiltonians:
    def test_free_matches_rotating_frame_up_to_carrier(self, nv2_params):
        # same physics as the single-rotating-frame builder once the
        # static Zeeman offset and the absorbed carrier are put back
        env = EnvironmentSample(delta_b=7.0, delta_omega=0.3, delta_t=0.4)
        for det in (0.0, khz_to_angular(-75.0)):
            h = frame_hamiltonians(nv2_params, [7.0], [0.3], [0.4], det)
            href = build_rotating_hamiltonian(nv2_params, env)
            carrier = (D0 + det) * np.diag([0, 0, 1, 1, 0, 0])
            np.testing.assert_allclose(dense_hamiltonians(h)[0],
                                       href - zeeman_frame_shift(nv2_params)
                                       + carrier, atol=1e-9)

    def test_single_quantum_matches_three_level_form(self, nv2_params):
        p = nv2_params
        omega_mag = khz_to_angular(80.0)
        detuning_mag = khz_to_angular(-10.0)
        h = frame_hamiltonians(p, [0.0], [0.0], [0.0], detuning_mag,
                               omega_mag)[0]
        assert h.dtype == float and np.array_equal(h, h.swapaxes(-1, -2))
        # up-sublevel block in {+1, 0, -1}, at pulse phase 0
        g = 0.5 * omega_mag
        expected = np.array([
            [0.5 * (p.delta + p.a_par), 0.0, 0.5 * p.omega],
            [0.0, detuning_mag, g],
            [0.5 * p.omega, g, -0.5 * (p.delta + p.a_par)],
        ])
        np.testing.assert_allclose(h[0], expected, atol=1e-12)

    def test_no_crosstalk_to_plus_one(self, nv2_params):
        h = frame_hamiltonians(nv2_params, [0.0], [0.0], [0.0], 0.0, 1.0)[0]
        assert np.all(h[:, 0, 1] == 0.0) and np.all(h[:, 1, 0] == 0.0)


def random_block_state(rng):
    """A normalised state of the two 13C blocks, shape (2, 3)."""
    psi = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    return psi / np.linalg.norm(psi)


class TestPropagate:
    def test_zero_duration_identity(self, nv2_params, rng):
        h = frame_hamiltonians(nv2_params, [0.0], [0.0], [0.0], 0.0)
        psi = random_block_state(rng)
        np.testing.assert_allclose(
            _apply_eigen(psi[None], *np.linalg.eigh(h), 0.0)[0], psi,
            atol=1e-14)

    def test_norm_preserved(self, nv2_params, rng):
        psi = random_block_state(rng)
        h = frame_hamiltonians(nv2_params, [0.0], [0.0], [0.0], 0.0, 2.0)
        h = h.astype(complex)
        # phase 0.3, applied as P h(0) P^dagger with P = exp(0.3i) on |0>
        h[..., 1, 2] *= np.exp(0.3j)
        h[..., 2, 1] *= np.exp(-0.3j)
        eigen = np.linalg.eigh(h)
        for _ in range(40):
            psi = _apply_eigen(psi[None], *eigen, 0.37)[0]
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-9

    def test_resonant_pi_pulse_empties_zero(self):
        # a spectrum point on resonance
        p = make_params(omega_khz=0.0, a_par_khz=0.0)
        om = khz_to_angular(696.0)
        point = (0.0, om, math.pi / om, None)
        assert _run_batch(point, p, 0.0, 0.0, 0.0)[0] < 1e-6

    def test_undressed_double_pi_is_identity(self):
        # a Ramsey point of DQ pi pulses at tau = 0 with the mechanical
        # drive off is a 2pi rotation of the undressed {0,-1} qubit
        p = make_params(omega_khz=0.0, a_par_khz=0.0)
        t_pi = math.pi / DEFAULT_OMEGA_MAG_DQ
        point = (0.0, DEFAULT_OMEGA_MAG_DQ, t_pi, (0.0, 0.0))
        assert _run_batch(point, p, 0.0, 0.0, 0.0)[0] == pytest.approx(
            1.0, abs=1e-9)
        # hyperfine detuning degrades it only at the % level
        p2 = make_params(omega_khz=0.0, a_par_khz=150.0)
        assert _run_batch(point, p2, 0.0, 0.0, 0.0)[0] > 0.99


NAN, INF = float("nan"), float("inf")


class TestEngineInputs:
    """Non-finite and out-of-range engine inputs are a ValueError that
    names the argument.  NaN fails every comparison, so each check must
    be written to pass only on valid values."""

    @pytest.mark.parametrize("kind", ["dressed_mp", "dressed_0p"])
    @pytest.mark.parametrize("tau", [[0.0, NAN, 1.0], [0.0, INF], [NAN],
                                     [-0.5, 0.0]])
    def test_ramsey_tau(self, nv2_params, kind, tau):
        with pytest.raises(ValueError, match="tau_grid must be finite"):
            simulate_ramsey(kind, tau, [(nv2_params, NO_NOISE)], QUIET)

    @pytest.mark.parametrize("omega_mag", [0.0, -1.0, NAN, INF])
    def test_ramsey_strength(self, nv2_params, omega_mag):
        with pytest.raises(ValueError, match="omega_mag must be finite"):
            simulate_ramsey("dressed_mp", [0.0, 1.0], [(nv2_params, NO_NOISE)],
                            QUIET, omega_mag=omega_mag)

    @pytest.mark.parametrize("simulate", [
        lambda p, om: simulate_ramsey("dressed_mp", [0.0], [(p, NO_NOISE)],
                                      QUIET, omega_mag=om),
        lambda p, om: simulate_ramsey("dressed_0p", [0.0], [(p, NO_NOISE)],
                                      QUIET, omega_mag=om),
        lambda p, om: simulate_spectrum([0.0], [(p, NO_NOISE)], QUIET,
                                        omega_mag=om),
    ], ids=["ramsey-pi", "ramsey-half-pi", "spectrum"])
    def test_subnormal_strength_overflows_duration(self, nv2_params,
                                                   simulate):
        # finite and > 0, but the pulse duration angle / omega_mag is inf
        with pytest.raises(ValueError, match="duration must be finite"):
            simulate(nv2_params, 5e-324)

    @pytest.mark.parametrize("detuning", [[0.0, NAN], [NAN], [-INF, 0.0]])
    def test_spectrum_detuning(self, nv2_params, detuning):
        with pytest.raises(ValueError, match="detuning_grid must be finite"):
            simulate_spectrum(detuning, [(nv2_params, NO_NOISE)], QUIET)

    @pytest.mark.parametrize("simulate", [
        lambda p: simulate_ramsey("dressed_mp", [], [(p, NO_NOISE)], QUIET),
        lambda p: simulate_ramsey("undressed_0m1", np.empty(0),
                                  [(p, NO_NOISE)], QUIET),
        lambda p: simulate_spectrum([], [(p, NO_NOISE)], QUIET),
    ], ids=["ramsey", "ramsey-undressed", "spectrum"])
    def test_empty_grid(self, nv2_params, simulate):
        # an empty grid used to give a header-only CSV that
        # read_trace_csv rejects
        with pytest.raises(ValueError, match="grid needs at least one point"):
            simulate(nv2_params)

    @pytest.mark.parametrize("grid", [[1.0, 0.5], [0.0, 1.0, 1.0]],
                             ids=["descending", "repeated"])
    @pytest.mark.parametrize("simulate", [
        lambda p, grid: simulate_ramsey("dressed_mp", grid, [(p, NO_NOISE)],
                                        QUIET),
        lambda p, grid: simulate_spectrum(grid, [(p, NO_NOISE)], QUIET),
    ], ids=["ramsey", "spectrum"])
    def test_grid_not_ascending(self, nv2_params, simulate, grid):
        with pytest.raises(ValueError, match="must be strictly ascending"):
            simulate(nv2_params, grid)

    @pytest.mark.parametrize("omega_mag", [0.0, -1.0, NAN, INF])
    def test_spectrum_strength(self, nv2_params, omega_mag):
        with pytest.raises(ValueError, match="omega_mag must be finite"):
            simulate_spectrum([0.0, 1.0], [(nv2_params, NO_NOISE)], QUIET,
                              omega_mag=omega_mag)


class TestSimulateRamsey:
    def test_zero_noise_mp_matches_analytic(self, nv2_params):
        tau = np.arange(0.0, 20.0, 0.01)
        trace, = simulate_ramsey("dressed_mp", tau, [(nv2_params, NO_NOISE)],
                                 QUIET, omega_mag=mhz_to_angular(5e6))
        pred = zero_noise_mp_prediction(tau, nv2_params)
        assert np.abs(trace.mean_p0 - pred).max() < 1e-6

    def test_zero_noise_mp_frequency(self, nv2_params):
        tau = np.arange(0.0, 40.0, 0.02)
        trace = simulate_ramsey("dressed_mp", tau, [(nv2_params, NO_NOISE)],
                                QUIET)[0]
        freq, mag = fourier_magnitude(trace)
        peak = refined_peak_khz(freq, mag)
        assert peak == pytest.approx(600.06, abs=2.0)

    def test_dressed_kind_requires_drive(self, nv2_params):
        with pytest.raises(ValueError):
            simulate_ramsey("dressed_mp", np.arange(0.0, 1.0, 0.1),
                            [(nv2_params.with_omega(0.0), NO_NOISE)], QUIET)

    def test_unknown_kind_rejected(self, nv2_params):
        with pytest.raises(ValueError):
            simulate_ramsey("spin_echo", np.arange(0.0, 1.0, 0.1),
                            [(nv2_params, NO_NOISE)], QUIET)

    def test_undressed_beat_reveals_hyperfine(self):
        p = make_params(omega_khz=581.0, a_par_khz=145.0)
        tau = np.arange(0.0, 320.0, 0.2)
        trace = simulate_ramsey("undressed_0m1", tau, [(p, NO_NOISE)],
                                QUIET)[0]
        freq, mag = fourier_magnitude(trace)
        # two lines near omega_rot +- a_par/2 (177.5 and 322.5 kHz); the
        # mechanical drive pulls them inward by about 1%
        lo = refined_peak_khz(freq, mag, lo=100, hi=250)
        hi = refined_peak_khz(freq, mag, lo=250, hi=400)
        assert hi - lo == pytest.approx(145.0, abs=3.0)

    def test_bit_identical_replay(self, nv2_params):
        cfg = SimConfig(n_shots=40, seed=123)
        tau = np.arange(0.0, 4.0, 0.2)
        drives = [(nv2_params, NV2_NOISE)]
        a = simulate_ramsey("dressed_mp", tau, drives, cfg)[0]
        b = simulate_ramsey("dressed_mp", tau, drives, cfg)[0]
        assert np.array_equal(a.mean_p0, b.mean_p0)
        assert np.array_equal(a.stderr, b.stderr)

    def test_stderr_scaling(self, nv2_params):
        tau = np.array([2.0, 5.0, 9.0])
        means = []
        for n in (500, 2000, 8000):
            cfg = SimConfig(n_shots=n, seed=5)
            tr = simulate_ramsey("dressed_mp", tau, [(nv2_params, NV2_NOISE)],
                                 cfg)[0]
            means.append(tr.stderr.mean())
        assert means[0] / means[1] == pytest.approx(2.0, rel=0.15)
        assert means[1] / means[2] == pytest.approx(2.0, rel=0.15)

    def test_noisy_envelope_decays(self, nv2_params):
        cfg = SimConfig(n_shots=300, seed=2)
        tau = np.arange(0.0, 30.0, 0.05)
        tr = simulate_ramsey("dressed_mp", tau, [(nv2_params, NV2_NOISE)],
                             cfg)[0]
        early = np.ptp(tr.mean_p0[tau < 5])
        late = np.ptp(tr.mean_p0[tau > 25])
        assert late < 0.5 * early


class TestSimulateSpectrum:
    def test_undressed_single_dip(self):
        p = make_params(omega_khz=0.0, a_par_khz=0.0)
        grid = khz_to_angular(np.arange(-400.0, 400.0, 4.0))
        tr = simulate_spectrum(grid, [(p, NO_NOISE)], QUIET)[0]
        assert abs(tr.abscissa[np.argmin(tr.mean_p0)]) < 10.0

    def test_dressed_dips_at_half_omega(self):
        p = make_params(omega_khz=470.0, a_par_khz=0.0)
        grid = khz_to_angular(np.arange(-400.0, 400.0, 2.0))
        tr = simulate_spectrum(grid, [(p, NO_NOISE)], QUIET)[0]
        low = tr.mean_p0[tr.abscissa < 0]
        high = tr.mean_p0[tr.abscissa >= 0]
        lo = tr.abscissa[tr.abscissa < 0][np.argmin(low)]
        hi = tr.abscissa[tr.abscissa >= 0][np.argmin(high)]
        assert lo == pytest.approx(-235.0, abs=6.0)
        assert hi == pytest.approx(235.0, abs=6.0)

    def test_no_amplitude_noise_with_the_drive_off(self):
        # at omega = 0 there is no drive to fluctuate, so a fixed
        # sigma_Omega of 200 kHz, which would deepen the undressed dip's
        # wings at -200 kHz, changes nothing
        p = make_params(omega_khz=0.0)
        grid = khz_to_angular(np.arange(-300.0, 300.0, 20.0))
        quiet, noisy = (simulate_spectrum(grid, [(p, NoiseSpec(
            sigma_omega_fixed=khz_to_angular(sigma_khz)))],
            SimConfig(n_shots=50, seed=3))[0]
            for sigma_khz in (0.0, 200.0))
        assert np.array_equal(noisy.mean_p0, quiet.mean_p0)
        assert np.array_equal(noisy.stderr, quiet.stderr)

    def test_splitting_monotone_in_omega(self):
        grid = khz_to_angular(np.arange(-500.0, 500.0, 4.0))
        seps = []
        for f in (230.0, 470.0, 670.0):
            p = make_params(omega_khz=f, a_par_khz=0.0)
            tr = simulate_spectrum(grid, [(p, NO_NOISE)], QUIET)[0]
            low = tr.abscissa[tr.abscissa < 0][
                np.argmin(tr.mean_p0[tr.abscissa < 0])]
            high = tr.abscissa[tr.abscissa >= 0][
                np.argmin(tr.mean_p0[tr.abscissa >= 0])]
            seps.append(high - low)
        assert seps[0] < seps[1] < seps[2]


class TestFourier:
    def _trace(self, tau, y):
        return Trace(tau, y, np.zeros_like(tau), 1, {})

    def test_pure_cosine_peak(self):
        tau = np.arange(0.0, 40.0, 0.05)
        y = 0.5 + 0.4 * np.cos(khz_to_angular(100.0) * tau)
        freq, mag = fourier_magnitude(self._trace(tau, y))
        assert freq[1 + np.argmax(mag[1:])] == pytest.approx(100.0, abs=0.05)

    def test_constant_signal_zero_spectrum(self):
        tau = np.arange(0.0, 10.0, 0.05)
        freq, mag = fourier_magnitude(self._trace(tau, np.full_like(tau, 0.7)))
        assert np.abs(mag).max() < 1e-12

    def test_non_uniform_grid_rejected(self):
        for tau in (np.array([0.0, 0.1, 0.3, 0.35]),   # uneven
                    np.full(30, 1.0),                  # zero step
                    1.0 - 0.1 * np.arange(30)):        # descending
            with pytest.raises(ValueError, match="uniform ascending grid"):
                fourier_magnitude(self._trace(tau, np.zeros_like(tau)))


class TestTraceIO:
    def test_round_trip(self, tmp_path, nv2_params):
        cfg = SimConfig(n_shots=20, seed=8)
        tr = simulate_ramsey("dressed_mp", np.arange(0.0, 2.0, 0.1),
                             [(nv2_params, NV2_NOISE)], cfg)[0]
        path = tmp_path / "trace.csv"
        write_trace_csv(tr, path)
        back = read_trace_csv(path)
        np.testing.assert_array_equal(tr.abscissa, back.abscissa)
        np.testing.assert_array_equal(tr.mean_p0, back.mean_p0)
        np.testing.assert_array_equal(tr.stderr, back.stderr)
        assert back.n_shots == tr.n_shots
        assert back.metadata["kind"] == "dressed_mp"

    def test_rerun_byte_identical(self, tmp_path, nv2_params):
        cfg = SimConfig(n_shots=20, seed=8)
        blobs = []
        for name in ("a.csv", "b.csv"):
            tr = simulate_ramsey("dressed_mp", np.arange(0.0, 2.0, 0.1),
                                 [(nv2_params, NV2_NOISE)], cfg)[0]
            path = tmp_path / name
            write_trace_csv(tr, path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_malformed_csv_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("abscissa,mean_p0,stderr,n_shots\n"
                        "0.0,0.5,0.01,100\n"
                        "0.1,oops,0.01,100\n")
        with pytest.raises(ValueError, match=":3:"):
            read_trace_csv(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError, match=":1:"):
            read_trace_csv(path)

    def test_out_of_range_population_rejected(self):
        tau = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            Trace(tau, np.array([0.5, 1.5]), np.zeros(2), 1, {})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, bad):
        tau = np.array([0.0, 1.0])
        with pytest.raises(ValueError, match="mean_p0"):
            Trace(tau, np.array([0.5, bad]), np.zeros(2), 1, {})
        with pytest.raises(ValueError, match="stderr"):
            Trace(tau, np.full(2, 0.5), np.array([0.01, bad]), 1, {})

    @pytest.mark.parametrize("bad", [0, -3, 2.5, math.nan, math.inf])
    def test_trace_rejects_bad_shot_count(self, bad):
        # write_trace_csv would write a file that read_trace_csv rejects
        with pytest.raises(ValueError, match="n_shots must be an integer >= 1"):
            Trace(np.array([0.0, 1.0]), np.full(2, 0.5), np.zeros(2), bad, {})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_abscissa_rejected(self, bad):
        with pytest.raises(ValueError, match="abscissa must be finite"):
            Trace(np.array([0.0, bad]), np.full(2, 0.5), np.zeros(2), 1, {})

    def test_empty_trace_rejected(self):
        # the rule the reader states for a header-only file
        with pytest.raises(ValueError, match="^no data rows$"):
            Trace([], [], [], 3, {})

    @pytest.mark.parametrize("columns", [
        ([0.0, 1.0, 2.0], [0.5], [0.1, 0.1]),
        ([0.0, 1.0], [0.5, 0.5], [0.1, 0.1, 0.1]),
        ([[0.0, 1.0]], [[0.5, 0.5]], [[0.1, 0.1]]),
    ], ids=["short_mean_p0", "long_stderr", "two_d"])
    def test_unequal_or_nested_columns_rejected(self, columns):
        # write_trace_csv would write only as many rows as the shortest
        with pytest.raises(ValueError, match="1-D columns of one length"):
            Trace(*columns, 3, {})

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("abscissa,mean_p0,stderr,n_shots\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2: no data rows"):
            read_trace_csv(path)

    def test_mixed_shot_counts_rejected(self, tmp_path):
        # the blank line still counts towards the reported line number
        path = tmp_path / "bad.csv"
        path.write_text("abscissa,mean_p0,stderr,n_shots\n"
                        "0.0,0.5,0.01,100\n"
                        "\n"
                        "0.1,0.5,0.01,50\n")
        with pytest.raises(ValueError, match=r"bad\.csv:4: n_shots"):
            read_trace_csv(path)

    @pytest.mark.parametrize("n_shots", ["100.5", "0", "-2", "nan", "inf"])
    def test_bad_shot_count_rejected(self, tmp_path, n_shots):
        path = tmp_path / "bad.csv"
        path.write_text("abscissa,mean_p0,stderr,n_shots\n"
                        f"0.0,0.5,0.01,{n_shots}\n")
        with pytest.raises(ValueError, match=r"bad\.csv:2: n_shots"):
            read_trace_csv(path)

    @pytest.mark.parametrize("row,column", [
        ("nan,0.01", "mean_p0"), ("inf,0.01", "mean_p0"),
        ("1.5,0.01", "mean_p0"), ("0.5,nan", "stderr"),
        ("0.5,-inf", "stderr"), ("0.5,-0.1", "stderr")])
    def test_bad_row_values_name_the_line(self, tmp_path, row, column):
        path = tmp_path / "bad.csv"
        path.write_text("abscissa,mean_p0,stderr,n_shots\n"
                        "0.0,0.5,0.01,100\n"
                        f"0.1,{row},100\n")
        with pytest.raises(ValueError, match=rf"bad\.csv:3: {column}"):
            read_trace_csv(path)

    def test_malformed_sidecar_named(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("abscissa,mean_p0,stderr,n_shots\n0.0,0.5,0.01,100\n")
        (tmp_path / "trace.csv.meta.json").write_text('{\n  "kind": }\n')
        with pytest.raises(ValueError, match=r"trace\.csv\.meta\.json:2: "):
            read_trace_csv(path)

    @pytest.mark.parametrize("sidecar", ["[1, 2]", '"kind"', "3", "null"])
    def test_non_object_sidecar_rejected(self, tmp_path, sidecar):
        path = tmp_path / "trace.csv"
        path.write_text("abscissa,mean_p0,stderr,n_shots\n0.0,0.5,0.01,100\n")
        (tmp_path / "trace.csv.meta.json").write_text(sidecar)
        with pytest.raises(ValueError, match=r"trace\.csv\.meta\.json:1: "
                           "metadata must be a JSON object"):
            read_trace_csv(path)
