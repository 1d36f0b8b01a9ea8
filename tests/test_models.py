import math

import numpy as np
import pytest

from nvcdd.cli import resolve_config
from nvcdd.dephasing import NoiseSpec, sigma_b_from_t2
from nvcdd.fitting import nlls_fit
from nvcdd.models import (
    FIT_MODELS,
    fit_points,
    guess_envelope_t2_us,
    guess_ramsey_frequency_khz,
    guess_spectrum_dips_khz,
    model_ramsey_0p,
    model_spectrum_joint,
    model_undressed_ramsey,
)
from nvcdd.pulse_sim import (
    SimConfig,
    Trace,
    fourier_magnitude,
    simulate_ramsey,
)
from nvcdd.units import mhz_to_angular

from conftest import make_params
from reference import detuning_from_lines

_K = 2.0 * math.pi * 1e-3  # kHz -> rad/us


def _trace(x, y, n_shots=1):
    return Trace(abscissa=np.asarray(x), mean_p0=np.asarray(y),
                 stderr=np.zeros(len(x)), n_shots=n_shots, metadata={})


class TestGuessHelpers:
    def test_frequency_guess_within_one_bin(self):
        tau = np.arange(0.0, 20.0, 0.01)
        trace = _trace(tau, 0.5 + 0.4 * np.cos(_K * 600.0 * tau))
        bin_width = 1000.0 / (0.01 * len(tau))  # kHz
        assert guess_ramsey_frequency_khz(trace) == pytest.approx(
            600.0, abs=bin_width)

    def test_frequency_guess_needs_points(self):
        with pytest.raises(ValueError):
            guess_ramsey_frequency_khz(_trace([0.0], [0.5]))

    def test_t2_guess_tracks_envelope(self):
        tau = np.arange(0.0, 30.0, 0.01)
        for t2 in (3.0, 8.0):
            y = 0.5 + 0.4 * np.exp(-((tau / t2) ** 2)) * np.cos(_K * 500 * tau)
            guess = guess_envelope_t2_us(_trace(tau, y))
            assert 0.4 * t2 < guess < 2.5 * t2

    def test_t2_guess_undamped_returns_span(self):
        tau = np.arange(0.0, 10.0, 0.01)
        y = 0.5 + 0.4 * np.cos(_K * 500 * tau)
        assert guess_envelope_t2_us(_trace(tau, y)) > 5.0

    def test_spectrum_dip_guesses(self):
        x = np.linspace(-600.0, 600.0, 601)
        dip = lambda c: 0.3 / ((2.0 / 90.0) ** 2 * (x - c) ** 2 + 1.0)
        trace = _trace(x, 1.0 - dip(-240.0) - dip(260.0))
        lo, hi = guess_spectrum_dips_khz(trace)
        assert lo == pytest.approx(-240.0, abs=5.0)
        assert hi == pytest.approx(260.0, abs=5.0)


class TestUndressedFit:
    def test_recovers_hyperfine_splitting(self):
        # fast pi/2 pulses so no extra phase accumulates during the pulses
        # themselves (the model has no per-line phase parameter)
        p = make_params(omega_khz=0.0, a_par_khz=150.0)
        noise = NoiseSpec(sigma_b=sigma_b_from_t2(5.4))
        cfg = SimConfig(n_shots=400, seed=21, noise=noise)
        tau = np.arange(0.05, 8.0, 0.05)
        trace = simulate_ramsey("undressed_0m1", tau, [p], cfg,
                                omega_mag=mhz_to_angular(50.0))[0]
        model = model_undressed_ramsey().with_initials(a_par_khz=145.0,
                                                       t2_us=5.0)
        outcome = nlls_fit(model, fit_points(trace)[0])
        assert outcome.converged
        assert outcome.params["a_par_khz"] == pytest.approx(150.0, abs=1.5)
        assert outcome.params["delta_mag_khz"] == pytest.approx(0.0, abs=1.0)
        assert outcome.params["t2_us"] == pytest.approx(5.4, rel=0.15)

    def test_finite_pulse_bias_is_small_vs_splitting(self):
        # with the default pulse strength the missing phase parameter
        # biases the splitting by tens of kHz at most
        p = make_params(omega_khz=0.0, a_par_khz=150.0)
        cfg = SimConfig(n_shots=1, seed=0, noise=NoiseSpec())
        tau = np.arange(0.05, 6.0, 0.05)
        trace = simulate_ramsey("undressed_0m1", tau, [p], cfg)[0]
        outcome = nlls_fit(model_undressed_ramsey().with_initials(
            a_par_khz=150.0, t2_us=1e3), fit_points(trace)[0])
        assert outcome.params["a_par_khz"] == pytest.approx(150.0, abs=30.0)


class TestDressed0pFit:
    def test_line_geometry_recovers_drive_amplitude(self):
        # the {0,p} fringe carries the drive amplitude in the splitting
        # between its slow and fast branches: sqrt(split^2 - a_par^2)
        p = make_params(omega_khz=348.0, a_par_khz=150.0)
        cfg = SimConfig(n_shots=1, seed=0, noise=NoiseSpec())
        tau = np.arange(0.0, 160.0, 0.1)
        trace = simulate_ramsey("dressed_0p", tau, [p], cfg)[0]
        freq, mag = fourier_magnitude(trace)

        def refine(lo, hi):
            band = (freq > lo) & (freq < hi)
            k = np.flatnonzero(band)[np.argmax(mag[band])]
            a, b, c = mag[k - 1], mag[k], mag[k + 1]
            return freq[k] + 0.5 * (a - c) / (a - 2 * b + c) * (freq[1]
                                                                - freq[0])

        slow = refine(200.0, 300.0)
        fast = refine(560.0, 700.0)
        assert slow == pytest.approx(250.0, abs=2.0)
        omega = math.sqrt((fast - slow) ** 2 - 150.0 ** 2)
        assert omega == pytest.approx(348.0, rel=0.02)

    def test_two_branch_fit_recovers_drive_amplitude_roughly(self):
        # the nonselective pi/2 pulse also excites the other dressed state,
        # adding an m<->p tone the two-branch model omits; the fitted
        # amplitude is biased by a few percent but stays in range
        p = make_params(omega_khz=348.0, a_par_khz=150.0)
        noise = NoiseSpec(sigma_b=sigma_b_from_t2(5.9))
        cfg = SimConfig(n_shots=400, seed=22, noise=noise)
        tau = np.arange(0.0, 20.0, 0.05)
        trace = simulate_ramsey("dressed_0p", tau, [p], cfg)[0]
        model = model_ramsey_0p(a_par_khz=150.0).with_initials(
            omega_khz=360.0, t2_us=6.0, phi=math.pi)
        outcome = nlls_fit(model, fit_points(trace)[0])
        assert outcome.converged
        assert outcome.params["omega_khz"] == pytest.approx(348.0, rel=0.10)

    def test_fit_does_not_hinge_on_rounding(self):
        # With branch amplitudes bounded below by 0, this 20-shot trace fit
        # to a_p = 0, where omega_khz and delta_mag_khz enter only through
        # the fast tone and the fit is degenerate, or not, depending on
        # 1e-15 changes to the data.  Signed amplitudes leave no such edge.
        res = resolve_config({})
        params = res["params"]
        trace = simulate_ramsey(
            "dressed_0p", np.arange(0.0, 10.01, 0.02), [params],
            SimConfig(n_shots=20, seed=3, noise=res["sim"].noise))[0]
        rng = np.random.default_rng(1)
        fitted = []
        for k in range(6):
            y = trace.mean_p0 + k * rng.normal(0.0, 1e-15, len(trace.mean_p0))
            model, points, _ = FIT_MODELS["ramsey_0p"](
                _trace(trace.abscissa, y), None, params, res["sim"].noise,
                None)
            outcome = nlls_fit(model, points)
            assert outcome.converged, outcome.flags
            fitted.append(outcome.params["omega_khz"])
        assert np.ptp(fitted) <= 1e-6 * fitted[0]


class TestSpectrumGeometry:
    def test_detuning_from_fitted_centers_is_exact(self):
        # the joint model parameterizes the dips by (delta, omega); the
        # three line centers it implies must invert back to delta exactly
        model = model_spectrum_joint(n_dressed=10)
        for delta, omega in [(0.0, 581.0), (75.0, 470.0), (-120.0, 348.0),
                             (30.0, 0.0)]:
            w01 = 12.5
            root = math.hypot(delta, omega)
            w0m = w01 + 0.5 * (delta - root)
            w0p = w01 + 0.5 * (delta + root)
            assert detuning_from_lines(w0m, w0p, w01) == pytest.approx(
                delta, abs=1e-12)

    def test_stack_spectra_order(self):
        d = _trace([1.0, 2.0], [0.9, 0.8])
        u = _trace([3.0, 4.0, 5.0], [0.7, 0.6, 0.5])
        (x, y), stderr = fit_points(d, u)
        np.testing.assert_array_equal(x, [1, 2, 3, 4, 5])
        np.testing.assert_array_equal(y, [0.9, 0.8, 0.7, 0.6, 0.5])
        assert stderr.shape == (5,)

    def test_joint_model_splits_sections(self):
        model = model_spectrum_joint(n_dressed=3)
        theta = model.initial_vector()
        x = np.array([-100.0, 0.0, 100.0, -100.0, 0.0, 100.0])
        y = model.evaluate(theta, x)
        # identical abscissa values land on different branches
        assert not np.allclose(y[:3], y[3:])


class TestFrozenParameters:
    def test_frozen_values_survive_fit(self):
        model = model_undressed_ramsey()
        tau = np.arange(0.0, 12.0, 0.01)
        truth = np.array([0.5, 0.9, 6.0, 10.0, 150.0, 250.0])
        y = model.evaluate(truth, tau)
        outcome = nlls_fit(model, (tau, y))
        assert outcome.params["omega_rot_khz"] == 250.0
        assert "omega_rot_khz" not in outcome.ci
