from dataclasses import replace
import math
from pathlib import Path

import numpy as np
import pytest

from nvcdd import models
from nvcdd.cli import load_config, resolve_config
from nvcdd.dephasing import NoiseSpec
from nvcdd.fitting import nlls_fit
from nvcdd.models import (
    FIT_MODELS,
    fit_points,
    guess_envelope_t2_us,
    guess_ramsey_frequency_khz,
    guess_spectrum_dips_khz,
    model_ramsey_mp,
    model_spectrum_joint,
)
from nvcdd.pulse_sim import (
    SimConfig,
    Trace,
    fourier_magnitude,
    simulate_ramsey,
)
from nvcdd.units import GAMMA, angular_to_khz, khz_to_angular

from conftest import make_params
from reference import (
    detuning_from_lines,
    ramsey_mp_one_vector,
    spectrum_joint_one_vector,
)

NV1 = resolve_config({"preset": "nv1"})
NV2_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "nv2.json"

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


@pytest.fixture(scope="module")
def nv1_trace():
    """A 200-shot nv1 trace (seed 3, tau 0-10 us by 0.02 us) of a kind at
    a drive, and the drive's SystemParams, cached per (kind, drive)."""
    traces = {}

    def trace(kind, omega_khz):
        if (kind, omega_khz) not in traces:
            params = NV1["params"].with_omega(khz_to_angular(omega_khz))
            traces[kind, omega_khz] = simulate_ramsey(
                kind, np.arange(0.0, 10.01, 0.02), [(params, NV1["noise"])],
                replace(NV1["sim"], n_shots=200, seed=3))[0], params
        return traces[kind, omega_khz]

    return trace


def assert_recovers_the_truth(name, trace, params):
    """A stderr-weighted fit with the simulator model lands every free
    physical parameter within 1.5 CI half-widths of the truth, at a
    chi^2/dof in [0.8, 1.25]."""
    model, points, stderr = FIT_MODELS[name](trace, None, params,
                                             NV1["noise"], None)
    outcome = nlls_fit(model, points, stderr)
    assert outcome.converged and not outcome.flags, outcome.flags
    assert 0.8 <= outcome.rss / (len(stderr) - 4) <= 1.25
    truth = {"omega_khz": angular_to_khz(params.omega),
             "a_par_khz": angular_to_khz(params.a_par),
             "gamma_sigma_b_khz": angular_to_khz(GAMMA
                                                 * NV1["noise"].sigma_b)}
    for name in outcome.ci.keys() & truth.keys():
        assert abs(outcome.params[name] - truth[name]) \
            <= 1.5 * outcome.ci_halfwidth(name), name


class TestUndressedFit:
    def test_recovers_hyperfine_splitting(self, nv1_trace):
        assert_recovers_the_truth("undressed_ramsey",
                                  *nv1_trace("undressed_0m1", 0.0))


class TestDressed0pFit:
    def test_line_geometry_recovers_drive_amplitude(self):
        # the {0,p} fringe carries the drive amplitude in the splitting
        # between its slow and fast branches: sqrt(split^2 - a_par^2)
        p = make_params(omega_khz=348.0, a_par_khz=150.0)
        cfg = SimConfig(n_shots=1, seed=0)
        tau = np.arange(0.0, 160.0, 0.1)
        trace = simulate_ramsey("dressed_0p", tau, [(p, NoiseSpec())], cfg)[0]
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

    @pytest.mark.parametrize("omega_khz", [348.0, 470.0])
    def test_recovers_drive_and_field_noise(self, nv1_trace, omega_khz):
        assert_recovers_the_truth("ramsey_0p",
                                  *nv1_trace("dressed_0p", omega_khz))


class TestMaxProtectionFit:
    @pytest.mark.parametrize("omega_khz", [470.0, 581.0])
    def test_recovers_drive_and_field_noise(self, nv1_trace, omega_khz):
        # delta = -|a_par|: the simulator's own {m,p} fringe at that point
        assert_recovers_the_truth("max_protection",
                                  *nv1_trace("max_protection", omega_khz))


class TestSimulatorModels:
    @pytest.mark.parametrize("name,kind,omega_khz", [
        ("ramsey_0p", "dressed_0p", 348.0),
        ("undressed_ramsey", "undressed_0m1", 0.0),
        ("max_protection", "max_protection", 470.0)])
    def test_doubled_nodes_move_the_model_little(self, nv1_trace, monkeypatch,
                                                 name, kind, omega_khz):
        # at the seed and where gamma*sigma_b and omega reach their upper
        # bounds, which the node counts are sized for
        trace, params = nv1_trace(kind, omega_khz)
        model, (x, _), stderr = FIT_MODELS[name](
            trace, None, params, NV1["noise"], None)
        top = model.initial_vector()
        for i, p in enumerate(model.params):
            if p.name in ("omega_khz", "gamma_sigma_b_khz") and not p.frozen:
                top[i] = p.upper
        for theta in (model.initial_vector(), top):
            y = model.evaluate(theta, x)
            with monkeypatch.context() as patch:
                patch.setattr(models, "simulate_ramsey",
                              lambda *args, nodes, **kwargs: simulate_ramsey(
                                  *args, nodes=[2 * n for n in nodes],
                                  **kwargs))
                fine = model.evaluate(theta, x)
            assert not np.array_equal(fine, y)   # the nodes did change
            assert np.abs(fine - y).max() < 0.1 * np.median(stderr)

    def test_too_long_a_trace_needs_too_many_nodes(self):
        # at 100 us nv1's field noise alone spreads the phase by ~48 rad:
        # over a thousand nodes on that axis, refused before any is built
        tau = np.linspace(0.0, 100.0, 11)
        trace = Trace(tau, np.full(len(tau), 0.5), np.zeros(len(tau)), 1,
                      {"kind": "undressed_0m1", "omega_mag_khz": 696.0,
                       "delta_khz": 0.0, "a_par_khz": 145.0,
                       "omega_khz": 0.0, "omega_rot_khz": 250.0})
        with pytest.raises(ValueError, match="more than 16384 quadrature"):
            FIT_MODELS["undressed_ramsey"](trace, None, None,
                                           NV1["noise"], None)

    def test_omega_bound_keeps_reflectometer_noise_defined(self):
        # nv2's reflectometer noise needs omega + alpha > 0, alpha being
        # -133 kHz: the fit may reach omega's lower bound, never past it
        noise = resolve_config(load_config(NV2_CONFIG))["noise"]
        tau = np.arange(0.0, 2.0, 0.05)
        pulse = {"kind": "dressed_0p", "omega_mag_khz": 696.0,
                 "delta_khz": 0.0, "a_par_khz": 150.0, "omega_khz": 140.0,
                 "omega_rot_khz": 250.0}
        trace = Trace(tau, np.full(len(tau), 0.5), np.zeros(len(tau)), 1,
                      pulse)
        model, (x, _), _ = FIT_MODELS["ramsey_0p"](trace, None, None, noise,
                                                   None)
        theta = model.initial_vector()
        i = [p.name for p in model.params].index("omega_khz")
        assert model.params[i].lower > 133.0
        theta[i] = model.params[i].lower
        assert np.all(np.isfinite(model.evaluate(theta, x)))


def _random_rows(model, n_rows, rng):
    """n_rows parameter vectors drawn within the model's bounds, log-uniform
    where a bound spans decades; a frozen parameter, unbounded, from -1e3
    to 1e3."""
    columns = []
    for p in model.params:
        lo, hi = (-1e3, 1e3) if p.frozen else (p.lower, p.upper)
        if lo > 0 and hi / lo > 100:
            columns.append(np.exp(rng.uniform(math.log(lo), math.log(hi),
                                              n_rows)))
        else:
            columns.append(rng.uniform(lo, hi, n_rows))
    return np.column_stack(columns)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


class TestStackedEvaluators:
    # Each row of a stacked evaluation must be the one-vector formula's
    # value bit for bit.  Per-row factors keep their scalar arithmetic:
    # np.hypot differs from math.hypot, and an array's ** 2 (a square)
    # from a numpy scalar's (C pow), in about 1 value in 1000.
    N_ROWS = 10_000

    def test_ramsey_mp_rows_equal_the_one_vector_formula(self):
        model = model_ramsey_mp(150.0, 0.9375)
        rows = _random_rows(model, self.N_ROWS, np.random.default_rng(5))
        tau = np.arange(0.0, 20.0, 0.2)
        stack = model.evaluate(rows, tau)
        assert stack.shape == (self.N_ROWS, len(tau))
        for row, y in zip(rows, stack):
            assert _same_bits(y, ramsey_mp_one_vector(row, tau)), row
        assert _same_bits(model.evaluate(rows[7], tau),
                          ramsey_mp_one_vector(rows[7], tau))

    def test_spectrum_joint_rows_equal_the_one_vector_formula(self):
        n_dressed = 31
        model = model_spectrum_joint(n_dressed)
        rows = _random_rows(model, self.N_ROWS, np.random.default_rng(6))
        x = np.concatenate([np.linspace(-600.0, 600.0, n_dressed),
                            np.linspace(-300.0, 300.0, 21)])
        stack = model.evaluate(rows, x)
        assert stack.shape == (self.N_ROWS, len(x))
        for row, y in zip(rows, stack):
            assert _same_bits(y, spectrum_joint_one_vector(row, x,
                                                           n_dressed)), row
        assert _same_bits(model.evaluate(rows[7], x),
                          spectrum_joint_one_vector(rows[7], x, n_dressed))

    def test_simulator_model_rows_equal_one_vector_calls(self, nv1_trace):
        trace, params = nv1_trace("dressed_0p", 348.0)
        model, (x, _), _ = FIT_MODELS["ramsey_0p"](
            trace, None, params, NV1["noise"], None)
        top = model.initial_vector()
        top[[p.name for p in model.params].index("omega_khz")] *= 1.5
        stack = model.evaluate([model.initial_vector(), top], x)
        assert _same_bits(stack[0], model.evaluate(model.initial_vector(), x))
        assert _same_bits(stack[1], model.evaluate(top, x))

    @pytest.mark.parametrize("name,kind,omega_khz", [
        ("ramsey_0p", "dressed_0p", 348.0),
        ("undressed_ramsey", "undressed_0m1", 0.0),
        ("max_protection", "max_protection", 470.0)])
    def test_stacked_simulator_model_is_one_simulator_call(
            self, nv1_trace, monkeypatch, name, kind, omega_khz):
        # one drive per row, each with its own field noise, in one call
        trace, params = nv1_trace(kind, omega_khz)
        model, (x, _), _ = FIT_MODELS[name](trace, None, params,
                                            NV1["noise"], None)
        rows = np.tile(model.initial_vector(), (len(model.params), 1))
        for i, p in enumerate(model.params):   # row i moves parameter i
            rows[i, i] = 0.5 * (rows[i, i] + p.upper)
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return simulate_ramsey(*args, **kwargs)

        monkeypatch.setattr(models, "simulate_ramsey", spy)
        stack = model.evaluate(rows, x)
        assert [len(drives) for _, _, drives, _ in calls] == [len(rows)]
        for row, y in zip(rows, stack, strict=True):
            assert np.array_equal(y, model.evaluate(row, x))

    def test_result_is_broadcast_to_one_row_per_vector(self):
        model = replace(model_ramsey_mp(150.0, 0.9375),
                        evaluator=lambda theta, x: np.sin(x))
        x = np.linspace(0.0, 1.0, 5)
        rows = np.ones((3, len(model.params)))
        assert model.evaluate(rows, x).shape == (3, 5)
        assert model.evaluate(rows[0], x).shape == (5,)


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
        model = model_ramsey_mp(a_par_khz=150.0, p0_ud=0.9375)
        tau = np.arange(0.0, 12.0, 0.01)
        truth = np.array([0.5, 6.0, 500.0, 0.1, 150.0, 0.9375])
        y = model.evaluate(truth, tau)
        outcome = nlls_fit(model, (tau, y))
        assert outcome.params["a_par_khz"] == 150.0
        assert "a_par_khz" not in outcome.ci
