import math

import numpy as np
import pytest

from nvcdd.dephasing import (
    FixedAmplitudeNoise,
    NoiseSpec,
    ReflectometerNoise,
    sigma_b_from_t2,
)
from nvcdd.pulse_sim import (
    DEFAULT_OMEGA_MAG_DQ,
    FreeEvolution,
    MagneticPulse,
    PulseSequence,
    SimConfig,
    Trace,
    _apply_eigen,
    _frame_hamiltonians,
    _run_batch,
    _sample_block,
    fourier_magnitude,
    read_trace_csv,
    shot_rng,
    simulate_ramsey,
    simulate_spectrum,
    write_trace_csv,
)
from nvcdd.spin_model import (
    EnvironmentSample,
    build_rotating_hamiltonian,
    zeeman_frame_shift,
)
from nvcdd.units import D0, angular_to_khz, khz_to_angular, mhz_to_angular

from conftest import dense_hamiltonians, make_params

QUIET = SimConfig(n_shots=1, seed=0, noise=NoiseSpec())
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
    def test_zero_spec_gives_zero_sample(self):
        for draws in _sample_block(NoiseSpec(), 0.0, 1, 3, 4):
            assert np.array_equal(draws, np.zeros(4))

    def test_sample_variance(self):
        noise = NoiseSpec(sigma_b=15.0, sigma_t=0.25,
                          amplitude_noise=FixedAmplitudeNoise(0.1))
        db, _, _ = _sample_block(noise, 0.0, 9, 0, 100_000)
        assert db.var() == pytest.approx(15.0 ** 2, rel=0.03)

    def test_replay_determinism(self):
        noise = NoiseSpec(sigma_b=15.0)
        a = _sample_block(noise, 0.0, 4, 7, 50)
        b = _sample_block(noise, 0.0, 4, 7, 50)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_streams_independent_of_order(self):
        # shot s always draws from stream (seed, s, point), however many
        # shots the block holds and in whichever order they are drawn
        noise = NoiseSpec(sigma_b=15.0)
        db = _sample_block(noise, 0.0, 4, 0, 10)[0]
        backward = [shot_rng(4, s, 0).standard_normal(3)[0] * 15.0
                    for s in reversed(range(10))]
        assert list(db) == backward[::-1]
        assert np.array_equal(_sample_block(noise, 0.0, 4, 0, 20)[0][:10], db)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_philox_key_range_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(seed=seed)


class TestHamiltonians:
    def test_free_matches_rotating_frame_up_to_carrier(self, nv2_params):
        # same physics as the single-rotating-frame builder once the
        # static Zeeman offset and the absorbed carrier are put back
        env = EnvironmentSample(delta_b=7.0, delta_omega=0.3, delta_t=0.4)
        for det in (0.0, khz_to_angular(-75.0)):
            h = _frame_hamiltonians(nv2_params, [7.0], [0.3], [0.4], det)
            href = build_rotating_hamiltonian(nv2_params, env)
            carrier = (D0 + det) * np.diag([0, 0, 1, 1, 0, 0])
            np.testing.assert_allclose(dense_hamiltonians(h)[0],
                                       href - zeeman_frame_shift(nv2_params)
                                       + carrier, atol=1e-9)

    def test_single_quantum_matches_three_level_form(self, nv2_params):
        p = nv2_params
        omega_mag = khz_to_angular(80.0)
        detuning_mag = khz_to_angular(-10.0)
        h = _frame_hamiltonians(p, [0.0], [0.0], [0.0], detuning_mag,
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
        h = _frame_hamiltonians(nv2_params, [0.0], [0.0], [0.0], 0.0, 1.0)[0]
        assert np.all(h[:, 0, 1] == 0.0) and np.all(h[:, 1, 0] == 0.0)


def random_block_state(rng):
    """A normalised state of the two 13C blocks, shape (2, 3)."""
    psi = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    return psi / np.linalg.norm(psi)


class TestPropagate:
    def test_zero_duration_identity(self, nv2_params, rng):
        h = _frame_hamiltonians(nv2_params, [0.0], [0.0], [0.0], 0.0)
        psi = random_block_state(rng)
        np.testing.assert_allclose(
            _apply_eigen(psi[None], *np.linalg.eigh(h), 0.0)[0], psi,
            atol=1e-14)

    def test_norm_preserved(self, nv2_params, rng):
        psi = random_block_state(rng)
        h = _frame_hamiltonians(nv2_params, [0.0], [0.0], [0.0], 0.0, 2.0)
        h = h.astype(complex)
        # phase 0.3, applied as P h(0) P^dagger with P = exp(0.3i) on |0>
        h[..., 1, 2] *= np.exp(0.3j)
        h[..., 2, 1] *= np.exp(-0.3j)
        eigen = np.linalg.eigh(h)
        for _ in range(40):
            psi = _apply_eigen(psi[None], *eigen, 0.37)[0]
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-9

    def test_resonant_pi_pulse_empties_zero(self):
        p = make_params(omega_khz=0.0, a_par_khz=0.0)
        om = khz_to_angular(696.0)
        seq = PulseSequence((MagneticPulse(om, math.pi / om),))
        assert _run_batch(seq, p, 0.0, 0.0, 0.0)[0] < 1e-6

    def test_undressed_double_pi_is_identity(self):
        # back-to-back DQ pi pulses with the mechanical drive off are a
        # 2pi rotation of the undressed {0,-1} qubit
        p = make_params(omega_khz=0.0, a_par_khz=0.0)
        t_pi = math.pi / DEFAULT_OMEGA_MAG_DQ
        seq = PulseSequence((MagneticPulse(DEFAULT_OMEGA_MAG_DQ, t_pi),
                             MagneticPulse(DEFAULT_OMEGA_MAG_DQ, t_pi)))
        assert _run_batch(seq, p, 0.0, 0.0, 0.0)[0] == pytest.approx(
            1.0, abs=1e-9)
        # hyperfine detuning degrades it only at the % level
        p2 = make_params(omega_khz=0.0, a_par_khz=150.0)
        assert _run_batch(seq, p2, 0.0, 0.0, 0.0)[0] > 0.99


class TestRunSequence:
    def test_reset_readout(self, nv2_params):
        # every shot is reset into |0> and read out: with no segment in
        # between, P0 is 1
        seq = PulseSequence(())
        assert _run_batch(seq, nv2_params, 0.0, 0.0, 0.0)[0] == \
            pytest.approx(1.0, abs=1e-12)


class TestSimulateRamsey:
    def test_zero_noise_mp_matches_analytic(self, nv2_params):
        tau = np.arange(0.0, 20.0, 0.01)
        trace = simulate_ramsey("dressed_mp", tau, nv2_params, QUIET,
                                omega_mag=mhz_to_angular(5e6))
        pred = zero_noise_mp_prediction(tau, nv2_params)
        assert np.abs(trace.mean_p0 - pred).max() < 1e-6

    def test_zero_noise_mp_frequency(self, nv2_params):
        tau = np.arange(0.0, 40.0, 0.02)
        trace = simulate_ramsey("dressed_mp", tau, nv2_params, QUIET)
        freq, mag = fourier_magnitude(trace)
        peak = refined_peak_khz(freq, mag)
        assert peak == pytest.approx(600.06, abs=2.0)

    def test_dressed_kind_requires_drive(self, nv2_params):
        with pytest.raises(ValueError):
            simulate_ramsey("dressed_mp", np.arange(0.0, 1.0, 0.1),
                            nv2_params.with_omega(0.0), QUIET)

    def test_unknown_kind_rejected(self, nv2_params):
        with pytest.raises(ValueError):
            simulate_ramsey("spin_echo", np.arange(0.0, 1.0, 0.1),
                            nv2_params, QUIET)

    def test_undressed_beat_reveals_hyperfine(self):
        p = make_params(omega_khz=581.0, a_par_khz=145.0)
        tau = np.arange(0.0, 320.0, 0.2)
        trace = simulate_ramsey("undressed_0m1", tau, p, QUIET)
        freq, mag = fourier_magnitude(trace)
        # two lines near omega_rot +- a_par/2 (177.5 and 322.5 kHz); the
        # mechanical drive pulls them inward by about 1%
        lo = refined_peak_khz(freq, mag, lo=100, hi=250)
        hi = refined_peak_khz(freq, mag, lo=250, hi=400)
        assert hi - lo == pytest.approx(145.0, abs=3.0)

    def test_bit_identical_replay(self, nv2_params):
        cfg = SimConfig(n_shots=40, seed=123, noise=NV2_NOISE)
        tau = np.arange(0.0, 4.0, 0.2)
        a = simulate_ramsey("dressed_mp", tau, nv2_params, cfg)
        b = simulate_ramsey("dressed_mp", tau, nv2_params, cfg)
        assert np.array_equal(a.mean_p0, b.mean_p0)
        assert np.array_equal(a.stderr, b.stderr)

    def test_stderr_scaling(self, nv2_params):
        tau = np.array([2.0, 5.0, 9.0])
        means = []
        for n in (500, 2000, 8000):
            cfg = SimConfig(n_shots=n, seed=5, noise=NV2_NOISE)
            tr = simulate_ramsey("dressed_mp", tau, nv2_params, cfg)
            means.append(tr.stderr.mean())
        assert means[0] / means[1] == pytest.approx(2.0, rel=0.15)
        assert means[1] / means[2] == pytest.approx(2.0, rel=0.15)

    def test_noisy_envelope_decays(self, nv2_params):
        cfg = SimConfig(n_shots=300, seed=2, noise=NV2_NOISE)
        tau = np.arange(0.0, 30.0, 0.05)
        tr = simulate_ramsey("dressed_mp", tau, nv2_params, cfg)
        early = np.ptp(tr.mean_p0[tau < 5])
        late = np.ptp(tr.mean_p0[tau > 25])
        assert late < 0.5 * early


class TestSimulateSpectrum:
    def test_undressed_single_dip(self):
        p = make_params(omega_khz=0.0, a_par_khz=0.0)
        grid = khz_to_angular(np.arange(-400.0, 400.0, 4.0))
        tr = simulate_spectrum(grid, p, QUIET)
        assert abs(tr.abscissa[np.argmin(tr.mean_p0)]) < 10.0

    def test_dressed_dips_at_half_omega(self):
        p = make_params(omega_khz=470.0, a_par_khz=0.0)
        grid = khz_to_angular(np.arange(-400.0, 400.0, 2.0))
        tr = simulate_spectrum(grid, p, QUIET)
        low = tr.mean_p0[tr.abscissa < 0]
        high = tr.mean_p0[tr.abscissa >= 0]
        lo = tr.abscissa[tr.abscissa < 0][np.argmin(low)]
        hi = tr.abscissa[tr.abscissa >= 0][np.argmin(high)]
        assert lo == pytest.approx(-235.0, abs=6.0)
        assert hi == pytest.approx(235.0, abs=6.0)

    def test_splitting_monotone_in_omega(self):
        grid = khz_to_angular(np.arange(-500.0, 500.0, 4.0))
        seps = []
        for f in (230.0, 470.0, 670.0):
            p = make_params(omega_khz=f, a_par_khz=0.0)
            tr = simulate_spectrum(grid, p, QUIET)
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
        cfg = SimConfig(n_shots=20, seed=8, noise=NV2_NOISE)
        tr = simulate_ramsey("dressed_mp", np.arange(0.0, 2.0, 0.1),
                             nv2_params, cfg)
        path = tmp_path / "trace.csv"
        write_trace_csv(tr, path)
        back = read_trace_csv(path)
        np.testing.assert_array_equal(tr.abscissa, back.abscissa)
        np.testing.assert_array_equal(tr.mean_p0, back.mean_p0)
        np.testing.assert_array_equal(tr.stderr, back.stderr)
        assert back.n_shots == tr.n_shots
        assert back.metadata["kind"] == "dressed_mp"

    def test_rerun_byte_identical(self, tmp_path, nv2_params):
        cfg = SimConfig(n_shots=20, seed=8, noise=NV2_NOISE)
        blobs = []
        for name in ("a.csv", "b.csv"):
            tr = simulate_ramsey("dressed_mp", np.arange(0.0, 2.0, 0.1),
                                 nv2_params, cfg)
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_abscissa_rejected(self, bad):
        with pytest.raises(ValueError, match="abscissa must be finite"):
            Trace(np.array([0.0, bad]), np.full(2, 0.5), np.zeros(2), 1, {})

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
