import functools
import math

from hypothesis import assume, given, strategies as st
import numpy as np
import pytest

from nvcdd.dephasing import (
    HorizonExceeded,
    NoiseSpec,
    ZeroRateError,
    envelope_second_order,
    gaussian_envelope,
    one_over_e_time,
    predicted_t2_mp,
    rate_amplitude_mp,
    rate_magnetic_mp,
    sigma_b_from_t2,
)
from nvcdd.units import GAMMA, angular_to_khz, khz_to_angular

from conftest import make_params
from reference import (
    EnvironmentSample,
    RateBudget,
    combine_rates,
    envelope_max_protection,
    gaussian_dephasing_rate,
    larmor_frequency,
    mc_envelope_second_order,
)

SIGMA_B_NV2 = sigma_b_from_t2(5.4)  # mG


class TestGaussianRate:
    def test_t2_anchor_42khz(self):
        rate = gaussian_dephasing_rate(GAMMA, SIGMA_B_NV2)
        assert 2 * math.pi / rate == pytest.approx(5.4, rel=1e-12)
        # the undressed {+1,-1} qubit moves twice as fast as {0,-1}
        assert rate_magnetic_mp(0.0, 0.0, SIGMA_B_NV2) \
            == pytest.approx(2.0 * rate, rel=1e-15)
        assert angular_to_khz(GAMMA * SIGMA_B_NV2) == pytest.approx(41.68,
                                                                    abs=0.01)

    def test_zero_sigma(self):
        assert gaussian_dephasing_rate(GAMMA, 0.0) == 0.0

    def test_thermal_anchor(self):
        from nvcdd.units import DD_DT
        rate = gaussian_dephasing_rate(abs(DD_DT), 0.25)
        assert 2 * math.pi / rate == pytest.approx(12.17, abs=0.01)


class TestSigmaBFromT2:
    def test_anchors(self):
        assert angular_to_khz(GAMMA * sigma_b_from_t2(5.4)) \
            == pytest.approx(41.7, abs=0.05)
        assert angular_to_khz(GAMMA * sigma_b_from_t2(2.7)) \
            == pytest.approx(83.4, abs=0.1)

    def test_round_trip_identity(self):
        for t2 in (1.0, 5.4, 17.3):
            rate = gaussian_dephasing_rate(GAMMA, sigma_b_from_t2(t2))
            assert 2 * math.pi / rate == pytest.approx(t2, rel=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            sigma_b_from_t2(0.0)


def kappa_from_rate(omega, a_par):
    """kappa = sqrt(2)*pi / sqrt(a_par^2 + omega^2), read off the amplitude
    rate Gamma_Omega = kappa * omega * sigma_omega."""
    return rate_amplitude_mp(omega, a_par, 1.0) / omega


class TestKappa:
    def test_drive_off(self):
        a = khz_to_angular(150.0)
        # no drive, no amplitude to fluctuate; kappa tends to sqrt(2)*pi/a_par
        assert rate_amplitude_mp(0.0, a, 1.0) == 0.0
        assert kappa_from_rate(1e-9, a) \
            == pytest.approx(math.sqrt(2) * math.pi / a)

    def test_anchor(self):
        inv = 1.0 / kappa_from_rate(khz_to_angular(581.0),
                                    khz_to_angular(150.0))
        assert inv == pytest.approx(khz_to_angular(600.06)
                                    / (math.sqrt(2) * math.pi), rel=1e-4)

    def test_monotone_decreasing_in_omega(self):
        a = khz_to_angular(150.0)
        vals = [kappa_from_rate(khz_to_angular(f), a)
                for f in (1e-6, 100, 300, 600)]
        assert all(x > y for x, y in zip(vals, vals[1:]))


class TestRateMagnetic:
    def test_undressed_pm_qubit(self):
        # no drive and no 13C: the {+1,-1} qubit's slope is 2*gamma
        rate = rate_magnetic_mp(0.0, 0.0, SIGMA_B_NV2)
        assert rate == math.sqrt(2) * math.pi * 2.0 * GAMMA * SIGMA_B_NV2

    def test_undressed_halving(self):
        rate = rate_magnetic_mp(0.0, khz_to_angular(150.0), SIGMA_B_NV2)
        assert 2 * math.pi / rate == pytest.approx(2.7, rel=1e-12)

    def test_dressed_anchor(self):
        rate = rate_magnetic_mp(khz_to_angular(581.0), khz_to_angular(150.0),
                                SIGMA_B_NV2)
        assert 2 * math.pi / rate == pytest.approx(10.8, abs=0.01)

    def test_matches_finite_difference_slope(self):
        p = make_params(omega_khz=581.0)
        step = 1e-4  # mG
        w_hi = larmor_frequency("mu", "pu", p, EnvironmentSample(delta_b=step))
        w_lo = larmor_frequency("mu", "pu", p, EnvironmentSample(delta_b=-step))
        slope = (w_hi - w_lo) / (2 * step)
        expected = gaussian_dephasing_rate(slope, SIGMA_B_NV2)
        got = rate_magnetic_mp(p.omega, p.a_par, SIGMA_B_NV2)
        assert got == pytest.approx(expected, rel=1e-6)


class TestRateAmplitude:
    def test_zero_sigma(self):
        assert rate_amplitude_mp(khz_to_angular(581.0), khz_to_angular(150.0),
                                 0.0) == 0.0

    def test_anchor(self):
        rate = rate_amplitude_mp(khz_to_angular(581.0), khz_to_angular(150.0),
                                 khz_to_angular(21.95))
        assert 2 * math.pi / rate == pytest.approx(10.6, abs=0.05)

    def test_matches_finite_difference_slope(self):
        p = make_params(omega_khz=581.0)
        sigma_om = khz_to_angular(21.95)
        step = 1e-6
        w_hi = larmor_frequency("mu", "pu", p,
                                EnvironmentSample(delta_omega=step))
        w_lo = larmor_frequency("mu", "pu", p,
                                EnvironmentSample(delta_omega=-step))
        slope = (w_hi - w_lo) / (2 * step)
        expected = gaussian_dephasing_rate(slope, sigma_om)
        got = rate_amplitude_mp(p.omega, p.a_par, sigma_om)
        assert got == pytest.approx(expected, rel=1e-6)


class TestCombineRates:
    def test_single_rate(self):
        t2 = combine_rates(RateBudget((("b", 2 * math.pi / 10.8),)))
        assert t2 == pytest.approx(10.8, rel=1e-12)

    def test_fig3c_combination(self):
        gb = rate_magnetic_mp(khz_to_angular(581.0), khz_to_angular(150.0),
                              SIGMA_B_NV2)
        gom = rate_amplitude_mp(khz_to_angular(581.0), khz_to_angular(150.0),
                                khz_to_angular(21.95))
        t2 = combine_rates(RateBudget((("b", gb), ("omega", gom))))
        assert t2 == pytest.approx(5.35, abs=0.02)

    def test_order_independent(self):
        a = combine_rates(RateBudget((("x", 0.3), ("y", 1.1))))
        b = combine_rates(RateBudget((("y", 1.1), ("x", 0.3))))
        assert a == b

    def test_all_zero_rejected(self):
        with pytest.raises(ZeroRateError):
            combine_rates(RateBudget((("x", 0.0),)))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            RateBudget((("x", -1.0),)).total()


def reflectometer(eta):
    return NoiseSpec(eta=eta, alpha_diode=khz_to_angular(-133.0))


class TestReflectometer:
    def test_anchor(self):
        s = reflectometer(0.049).sigma_omega(khz_to_angular(581.0))
        assert angular_to_khz(s) == pytest.approx(21.95, abs=0.02)

    def test_zero_eta(self):
        assert reflectometer(0.0).sigma_omega(khz_to_angular(581.0)) == 0.0

    def test_400khz(self):
        s = reflectometer(0.049).sigma_omega(khz_to_angular(400.0))
        assert angular_to_khz(s) == pytest.approx(13.08, abs=0.01)

    def test_nonpositive_amplitude_rejected(self):
        with pytest.raises(ValueError, match=r"mean_omega \+ alpha_diode "
                                             "must be positive"):
            reflectometer(0.049).sigma_omega(khz_to_angular(100.0))

    def test_noise_spec_resolves_modes(self):
        fixed = NoiseSpec(sigma_omega_fixed=0.25)
        assert fixed.sigma_omega(1.0) == 0.25
        assert fixed.sigma_omega(0.0) == 0.0  # drive off -> no amplitude noise
        refl = NoiseSpec(eta=0.049, alpha_diode=khz_to_angular(-133.0))
        assert refl.sigma_omega(0.0) == 0.0  # drive off -> no loop noise

    @pytest.mark.parametrize("eta", [-0.1, 1.0, math.nan])
    def test_eta_outside_its_range_rejected(self, eta):
        with pytest.raises(ValueError, match=r"eta must be in \[0, 1\)"):
            NoiseSpec(eta=eta)

    @pytest.mark.parametrize("field, message", [
        ("sigma_b", "noise standard deviations must be >= 0"),
        ("sigma_t", "noise standard deviations must be >= 0"),
        ("sigma_omega_fixed", "sigma_omega must be non-negative"),
    ])
    def test_negative_sigma_rejected(self, field, message):
        with pytest.raises(ValueError, match=message):
            NoiseSpec(**{field: -1e-300})


# drives > 0, far from overflow, so w + a stays finite
_SIZES = st.floats(1e-150, 1e150)


@given(sigma=st.floats(0.0, 1e300), omega=_SIZES)
def test_fixed_law_is_the_given_sigma(sigma, omega):
    assert NoiseSpec(sigma_omega_fixed=sigma).sigma_omega(omega) == sigma


@given(eta=st.floats(0.0, 1.0, exclude_max=True), omega=_SIZES,
       alpha=st.floats(-1e150, 1e150))
def test_reflectometer_law_is_the_loops(eta, omega, alpha):
    assume(omega + alpha > 0)
    noise = NoiseSpec(eta=eta, alpha_diode=alpha)
    assert noise.sigma_omega(omega) == (omega + alpha) * eta


class TestEnvelopes:
    def test_second_order_no_noise(self):
        tau = np.linspace(0, 50, 101)
        f = envelope_second_order(tau, khz_to_angular(581.0), 0.0,
                                  khz_to_angular(150.0))
        np.testing.assert_array_equal(f, np.ones_like(tau))

    def test_second_order_undressed_gaussian_limit(self):
        tau = np.linspace(0, 10, 201)
        f = envelope_second_order(tau, 0.0, SIGMA_B_NV2, khz_to_angular(150.0))
        g = gaussian_envelope(tau, 2.7)
        np.testing.assert_allclose(f, g, atol=1e-6)

    def test_second_order_one_over_e_anchor(self):
        f = envelope_second_order(13.5, khz_to_angular(581.0), SIGMA_B_NV2,
                                  khz_to_angular(150.0))
        assert f == pytest.approx(math.exp(-1), abs=0.01)

    # the max-protection envelope is the second-order one at a_par = 0
    def test_max_protection_at_zero(self):
        assert envelope_second_order(0.0, khz_to_angular(455.7),
                                     SIGMA_B_NV2, 0.0) == 1.0

    def test_max_protection_equals_second_order_without_hyperfine(self):
        tau = np.linspace(0, 80, 161)
        h = envelope_max_protection(tau, khz_to_angular(455.7), SIGMA_B_NV2)
        f = envelope_second_order(tau, khz_to_angular(455.7), SIGMA_B_NV2, 0.0)
        np.testing.assert_allclose(h, f, rtol=1e-12)

    def test_max_protection_survives_50us(self):
        h = envelope_second_order(50.0, khz_to_angular(455.7), SIGMA_B_NV2,
                                  0.0)
        assert h > math.exp(-1)

    def test_max_protection_drive_off_rejected(self):
        with pytest.raises(ValueError):
            envelope_second_order(1.0, 0.0, SIGMA_B_NV2, 0.0)

    @pytest.mark.parametrize("omega_khz,a_par_khz", [
        (581.0, 150.0), (230.0, 150.0), (455.7, 0.0), (50.0, 145.0)])
    def test_positive_unit_start_nonincreasing(self, omega_khz, a_par_khz):
        tau = np.linspace(0, 200, 2001)
        f = envelope_second_order(tau, khz_to_angular(omega_khz), SIGMA_B_NV2,
                                  khz_to_angular(a_par_khz))
        assert f[0] == 1.0
        assert np.all(f > 0)
        assert np.all(np.diff(f) <= 1e-15)


class TestOneOverETime:
    def test_gaussian_definition(self):
        env = functools.partial(gaussian_envelope, t2=5.4)
        assert one_over_e_time(env) == pytest.approx(5.4, abs=1e-3)

    def test_second_order_anchor(self):
        env = functools.partial(envelope_second_order,
                                omega=khz_to_angular(581.0),
                                sigma_b=SIGMA_B_NV2,
                                a_par=khz_to_angular(150.0))
        assert one_over_e_time(env) == pytest.approx(13.5, abs=0.2)

    def test_horizon_exceeded(self):
        # an envelope that never decays outruns every finite bracket
        with pytest.raises(HorizonExceeded) as err:
            one_over_e_time(lambda tau: 1.0)
        assert math.isfinite(err.value.horizon)
        assert 2.0 * err.value.horizon == math.inf

    def test_crossing_beyond_float_resolution(self):
        # near 1e20 us adjacent floats lie ~1.6e4 us apart, far above
        # ONE_OVER_E_TOL: bisection stops at the float resolution
        env = functools.partial(gaussian_envelope, t2=1e20)
        assert one_over_e_time(env) == pytest.approx(1e20, rel=1e-12)

    def test_second_order_converges_to_gaussian_limit(self):
        env = functools.partial(envelope_second_order,
                                omega=khz_to_angular(0.5),
                                sigma_b=SIGMA_B_NV2,
                                a_par=khz_to_angular(150.0))
        assert one_over_e_time(env) == pytest.approx(2.7, rel=0.01)


class TestPredictedT2:
    def test_first_order_anchor(self):
        t2 = predicted_t2_mp(khz_to_angular(581.0), khz_to_angular(150.0),
                             SIGMA_B_NV2, order="first")
        assert t2 == pytest.approx(10.8, abs=0.01)

    def test_second_order_anchor(self):
        t2 = predicted_t2_mp(khz_to_angular(581.0), khz_to_angular(150.0),
                             SIGMA_B_NV2, order="second")
        assert t2 == pytest.approx(13.5, abs=0.2)

    def test_second_exceeds_first_above_a_par(self):
        a = khz_to_angular(150.0)
        for f in (160.0, 230.0, 348.0, 470.0, 581.0, 800.0):
            om = khz_to_angular(f)
            first = predicted_t2_mp(om, a, SIGMA_B_NV2, order="first")
            second = predicted_t2_mp(om, a, SIGMA_B_NV2, order="second")
            assert second > first

    def test_monotone_in_omega_without_amplitude_noise(self):
        a = khz_to_angular(150.0)
        values = [predicted_t2_mp(khz_to_angular(f), a, SIGMA_B_NV2,
                                  order="first")
                  for f in (0.0, 100.0, 300.0, 581.0, 900.0)]
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            predicted_t2_mp(1.0, 1.0, SIGMA_B_NV2, order="third")

    def test_first_order_is_the_rate_budget(self):
        a = khz_to_angular(150.0)
        for f, sigma_om in ((0.0, 0.0), (348.0, 0.0), (581.0, 0.14),
                            (900.0, 0.3)):
            om = khz_to_angular(f)
            budget = RateBudget((
                ("magnetic", rate_magnetic_mp(om, a, SIGMA_B_NV2)),
                ("amplitude", rate_amplitude_mp(om, a, sigma_om))))
            assert predicted_t2_mp(om, a, SIGMA_B_NV2, sigma_om) \
                == combine_rates(budget)

    def test_first_order_rate_failures(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            predicted_t2_mp(-1.0, 1.0, SIGMA_B_NV2, 0.1)
        with pytest.raises(ZeroRateError):
            predicted_t2_mp(1.0, 1.0, 0.0)


class TestMonteCarloOracle:
    def test_matches_closed_form_within_three_sigma(self):
        om = khz_to_angular(470.0)
        a = khz_to_angular(150.0)
        tau = np.linspace(0.5, 25.0, 20)
        env, se = mc_envelope_second_order(tau, om, SIGMA_B_NV2, a,
                                           n_draws=400_000, seed=5)
        f = envelope_second_order(tau, om, SIGMA_B_NV2, a)
        assert np.all(np.abs(env - f) < 3.0 * se + 1e-4)
