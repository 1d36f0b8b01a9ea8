"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line through the conftest report hook.
Criteria 4-7 run Monte-Carlo pipelines end to end and take a few minutes
combined; everything else is analytic and instant.
"""

import math

import numpy as np
import pytest

from nvcdd.dephasing import (
    NoiseSpec,
    envelope_second_order,
    gaussian_envelope,
    predicted_t2_mp,
    rate_amplitude_mp,
    rate_magnetic_mp,
    sigma_b_from_t2,
)
from nvcdd.fitting import nlls_fit
from nvcdd.models import (
    FIT_MODELS,
    guess_ramsey_frequency_khz,
    guess_spectrum_dips_khz,
    mean_contrast,
    model_ramsey_mp,
    fit_points,
    model_spectrum_joint,
)
from nvcdd.pulse_sim import (
    SimConfig,
    simulate_ramsey,
    simulate_spectrum,
    write_trace_csv,
)
from nvcdd.spin_model import mechanical_cutoff
from nvcdd.units import (
    DD_DT,
    GAMMA,
    angular_to_khz,
    khz_to_angular,
    mhz_to_angular,
)

from conftest import assert_hermitian_blockdiag, make_params, random_params
from reference import (
    ZERO_ENV,
    EnvironmentSample,
    RateBudget,
    _apply_eigen,
    build_rotating_hamiltonian,
    combine_rates,
    detuning_from_lines,
    diagonalize,
    dressed_energies,
    frame_hamiltonians,
    larmor_frequency,
    mc_envelope_second_order,
    model_max_protection,
    zeeman_frame_shift,
)

SIGMA_B_54 = sigma_b_from_t2(5.4)                  # from T2*(0,-1) = 5.4 us
SIGMA_B_42 = khz_to_angular(42.0) / GAMMA          # pinned 42 kHz calibration
A_PAR = khz_to_angular(150.0)
OMEGA_581 = khz_to_angular(581.0)


def test_calibration_identities():
    gsb = angular_to_khz(GAMMA * SIGMA_B_54)
    assert gsb == pytest.approx(41.7, rel=0.01)
    thermal_t2 = math.sqrt(2.0) / (abs(DD_DT) * 0.25)
    assert thermal_t2 == pytest.approx(12.2, rel=0.01)
    cutoff = angular_to_khz(mechanical_cutoff(mhz_to_angular(586.0), 2700.0))
    assert cutoff == pytest.approx(108.5, rel=0.01)


def test_undressed_limit():
    t2 = predicted_t2_mp(0.0, A_PAR, SIGMA_B_54, order="first")
    assert t2 == pytest.approx(2.7, rel=1e-12)
    tau = np.linspace(0.0, 10.0, 1001)
    second = envelope_second_order(tau, 0.0, SIGMA_B_54, A_PAR)
    gauss = gaussian_envelope(tau, 2.7)
    assert np.abs(second - gauss).max() < 1e-6


def test_t2_vs_drive_predictions():
    first = predicted_t2_mp(OMEGA_581, A_PAR, SIGMA_B_54, order="first")
    assert first == pytest.approx(10.8, abs=0.05)
    second = predicted_t2_mp(OMEGA_581, A_PAR, SIGMA_B_54, order="second")
    assert second == pytest.approx(13.5, abs=0.2)
    for om_khz in np.arange(425.0, 700.0, 25.0):
        om = khz_to_angular(om_khz)
        assert predicted_t2_mp(om, A_PAR, SIGMA_B_54, order="second") \
            > predicted_t2_mp(om, A_PAR, SIGMA_B_54, order="first")
    measured = 15.0
    assert measured > first
    assert abs(measured - second) / second < 0.20


def test_amplitude_noise_budget_and_mc_fit():
    sigma_omega = NoiseSpec(eta=0.049, alpha_diode=khz_to_angular(-133.0)) \
        .sigma_omega(OMEGA_581)
    budget = RateBudget((
        ("magnetic", rate_magnetic_mp(OMEGA_581, A_PAR, SIGMA_B_42)),
        ("amplitude", rate_amplitude_mp(OMEGA_581, A_PAR, sigma_omega)),
    ))
    combined = combine_rates(budget)
    assert combined == pytest.approx(5.35, abs=0.15)

    params = make_params(omega_khz=581.0)
    noise = NoiseSpec(sigma_b=SIGMA_B_42, sigma_t=0.25,
                      eta=0.049, alpha_diode=khz_to_angular(-133.0))
    cfg = SimConfig(n_shots=2000, seed=7)
    tau = np.arange(0.0, 20.0, 0.1)
    trace = simulate_ramsey("dressed_mp", tau, [(params, noise)], cfg)[0]
    # the CLI's fit rule: FIT_MODELS seeds the model, mean_contrast pins p0_ud
    model, points, _ = FIT_MODELS["ramsey_mp"](trace, None, params, noise,
                                               None)
    outcome = nlls_fit(model, points)
    assert outcome.converged
    predicted = predicted_t2_mp(OMEGA_581, A_PAR, SIGMA_B_42, sigma_omega,
                                order="second")
    assert abs(outcome.params["t2_us"] - predicted) / predicted < 0.15


def test_mc_envelope_matches_analytic():
    tau = np.linspace(0.5, 20.0, 20)
    for om_khz in (230.0, 470.0, 581.0):
        omega = khz_to_angular(om_khz)
        mc, se = mc_envelope_second_order(tau, omega, SIGMA_B_42, A_PAR,
                                          n_draws=400_000, seed=5)
        analytic = envelope_second_order(tau, omega, SIGMA_B_42, A_PAR)
        assert np.all(np.abs(mc - analytic) <= 3.0 * se + 1e-4), om_khz


def test_max_protection_point():
    om_khz = 455.7
    params = make_params(omega_khz=om_khz)
    noise = NoiseSpec(sigma_b=SIGMA_B_42, sigma_t=0.25)
    cfg = SimConfig(n_shots=1000, seed=9)
    # the long window also averages down the quasi-static second-order
    # frequency pull that the envelope model does not parameterize
    tau = np.arange(0.0, 50.0, 0.15)
    trace = simulate_ramsey("max_protection", tau, [(params, noise)], cfg)[0]

    fit_params = params.with_delta(-abs(params.a_par))
    base = model_max_protection(150.0, 42.0, p0_ud=mean_contrast(fit_params))
    guess = max(guess_ramsey_frequency_khz(trace), 30.0)
    outcome = None
    for start in (guess - 20.0, guess, guess + 20.0, guess + 40.0):
        model = base.with_initials(c=float(trace.mean_p0.mean()),
                                   omega_khz=max(start, 10.0))
        candidate = nlls_fit(model, fit_points(trace)[0])
        if candidate.converged and (outcome is None
                                    or candidate.rss < outcome.rss):
            outcome = candidate
    assert outcome is not None and outcome.converged
    assert outcome.params["omega_khz"] == pytest.approx(om_khz, rel=0.01)
    assert 3.0 <= outcome.params["t2_up_us"] <= 6.0
    assert envelope_second_order(50.0, khz_to_angular(om_khz), SIGMA_B_42,
                                 0.0) > 1.0 / math.e


def test_spectroscopy_joint_fit():
    grid = khz_to_angular(np.arange(-600.0, 600.0 + 2.0, 4.0))
    noise = NoiseSpec(sigma_b=SIGMA_B_42, sigma_t=0.25)
    cfg = SimConfig(n_shots=400, seed=11)
    dressed_params = make_params(omega_khz=470.0, a_par_khz=0.0)
    undressed_params = make_params(omega_khz=0.0, a_par_khz=0.0)
    dressed, undressed = simulate_spectrum(
        grid, [(dressed_params, noise), (undressed_params, noise)], cfg)

    points, _ = fit_points(dressed, undressed)
    lo, hi = guess_spectrum_dips_khz(dressed)
    model = model_spectrum_joint(len(dressed.abscissa)).with_initials(
        omega_khz=max(hi - lo, 10.0),
        delta_khz=0.0,
        w01_khz=float(undressed.abscissa[np.argmin(undressed.mean_p0)]),
        c_d=float(dressed.mean_p0.max()),
        c_ud=float(undressed.mean_p0.max()),
        a_d1=float(dressed.mean_p0.max() - dressed.mean_p0.min()),
        a_d2=float(dressed.mean_p0.max() - dressed.mean_p0.min()),
        a_ud=float(undressed.mean_p0.max() - undressed.mean_p0.min()),
    )
    outcome = nlls_fit(model, points)
    assert outcome.converged
    assert outcome.params["omega_khz"] == pytest.approx(470.0, rel=0.03)
    assert abs(outcome.params["delta_khz"]) < 5.0

    # line-geometry inversion is exact on the model's own centers
    delta = outcome.params["delta_khz"]
    omega = outcome.params["omega_khz"]
    w01 = outcome.params["w01_khz"]
    root = math.hypot(delta, omega)
    w0m = w01 + 0.5 * (delta - root)
    w0p = w01 + 0.5 * (delta + root)
    assert detuning_from_lines(w0m, w0p, w01) == pytest.approx(delta,
                                                               abs=1e-9)


def test_property_suite(tmp_path):
    rng = np.random.default_rng(99)

    # Hermiticity, 13C block structure, closed-form vs numeric eigenvalues
    for _ in range(20):
        params = random_params(rng)
        env = EnvironmentSample(delta_b=rng.normal(0.0, 10.0),
                                delta_omega=rng.normal(0.0, 0.2),
                                delta_t=rng.normal(0.0, 0.3))
        h = build_rotating_hamiltonian(params, env)
        assert_hermitian_blockdiag(h)
        vals, _ = diagonalize(h - zeeman_frame_shift(params))
        closed = np.sort(list(dressed_energies(params, env).energies.values()))
        scale = max(np.abs(closed).max(), 1.0)
        np.testing.assert_allclose(vals, closed, atol=1e-10 * scale)

    # propagator unitarity over long products
    params = make_params(omega_khz=581.0)
    psi = (rng.normal(size=6) + 1j * rng.normal(size=6)).reshape(2, 3)
    psi /= np.linalg.norm(psi)
    h = frame_hamiltonians(params, [5.0], [0.0], [0.0], 0.0, 2.0)[0]
    phase = np.diag([1.0, np.exp(0.7j), 1.0])  # P h(0) P^dagger, 0.7 rad
    vals, vecs = np.linalg.eigh(phase @ h @ phase.conj().T)
    for _ in range(100):
        psi = _apply_eigen(psi, vals, vecs, 0.31)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-9

    # finite-difference vs analytic field-noise slope of the {m,p} Larmor
    analytic = 2.0 * params.a_par * GAMMA / math.hypot(params.a_par,
                                                       params.omega)
    db = 1e-3
    fd = (larmor_frequency("mu", "pu", params, EnvironmentSample(delta_b=db))
          - larmor_frequency("mu", "pu", params,
                             EnvironmentSample(delta_b=-db))) / (2.0 * db)
    assert abs(fd - analytic) / analytic < 1e-6
    rate = rate_magnetic_mp(params.omega, params.a_par, SIGMA_B_42)
    assert rate == pytest.approx(math.sqrt(2.0) * math.pi * analytic
                                 * SIGMA_B_42, rel=1e-12)

    # fit round-trip at 1e-6
    model = model_ramsey_mp(150.0, p0_ud=0.9375)
    truth = {"c": 0.47, "t2_us": 7.0, "omega_khz": 581.0, "phi": 0.1}
    tau = np.arange(0.0, 20.0, 0.01)
    theta = np.array([0.47, 7.0, 581.0, 0.1, 150.0, 0.9375])
    y = model.evaluate(theta, tau)
    outcome = nlls_fit(model.with_initials(c=0.5, t2_us=8.4, omega_khz=579.0,
                                           phi=0.0), (tau, y))
    assert outcome.converged
    for name, val in truth.items():
        assert outcome.params[name] == pytest.approx(val, rel=1e-6, abs=1e-6)

    # CI coverage >= 90% over repeated noisy fits
    x = tau[::20]
    clean = model.evaluate(theta, x)
    sigma = np.full_like(x, 0.01)
    hits = 0
    n_fits = 120
    for _ in range(n_fits):
        noisy = clean + rng.normal(0.0, 0.01, size=len(x))
        fit = nlls_fit(model.with_initials(**truth), (x, noisy), sigma=sigma)
        lo, hi = fit.ci["omega_khz"]
        hits += lo <= truth["omega_khz"] <= hi
    assert hits / n_fits >= 0.90

    # deterministic replay is byte-identical
    cfg = SimConfig(n_shots=30, seed=17)
    drive = (params, NoiseSpec(sigma_b=SIGMA_B_42, sigma_t=0.25))
    grid = np.arange(0.0, 4.0, 0.2)
    for name in ("a.csv", "b.csv"):
        write_trace_csv(simulate_ramsey("dressed_mp", grid, [drive], cfg)[0],
                        tmp_path / name)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
