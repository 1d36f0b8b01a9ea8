import math

import numpy as np
import pytest

from nvcdd import fitting
from nvcdd.fitting import (
    FitParam,
    ModelFunction,
    NonFiniteResidualsError,
    format_fit_report,
    nlls_fit,
)
from nvcdd.models import (
    FIT_MODELS,
    model_max_protection,
    model_ramsey_0p,
    model_ramsey_mp,
    model_spectrum_joint,
    model_undressed_ramsey,
)


def _exp_decay_model(a=1.0, b=5.0):
    def evaluate(theta, x):
        return theta[0] * np.exp(-x / theta[1])

    return ModelFunction(
        name="exp_decay",
        params=(FitParam("a", a, 0.0, 10.0), FitParam("b", b, 1e-6, 1e9)),
        evaluator=evaluate,
    )


# (model factory, truth for the free parameters, abscissa) used by the
# self-consistency round-trip tests
ROUND_TRIPS = {
    "undressed_ramsey": (
        lambda: model_undressed_ramsey(),
        {"c": 0.5, "a": 0.9, "t2_us": 6.0, "delta_mag_khz": 10.0,
         "a_par_khz": 150.0},
        np.arange(0.0, 15.0, 0.01),
    ),
    "ramsey_0p": (
        lambda: model_ramsey_0p(a_par_khz=150.0),
        {"c": 0.5, "a_p": 1.0, "a_m": 0.6, "phi": 0.3, "omega_khz": 581.0,
         "delta_mag_khz": 5.0, "t2_us": 8.0},
        np.arange(0.0, 15.0, 0.005),
    ),
    "ramsey_mp": (
        lambda: model_ramsey_mp(a_par_khz=150.0, p0_ud=0.9375),
        {"c": 0.47, "t2_us": 7.0, "omega_khz": 581.0, "phi": 0.1},
        np.arange(0.0, 20.0, 0.01),
    ),
    "max_protection": (
        lambda: model_max_protection(a_par_khz=150.0, gamma_sigma_b_khz=42.0,
                                     p0_ud=0.9375),
        {"omega_khz": 470.0, "phi": 0.2, "c": 0.5, "t2_up_us": 4.0},
        np.arange(0.0, 30.0, 0.01),
    ),
    "spectrum_joint": (
        lambda: model_spectrum_joint(n_dressed=241),
        {"c_d": 1.0, "a_d1": 0.3, "a_d2": 0.25, "gamma_d_khz": 90.0,
         "delta_khz": 30.0, "omega_khz": 470.0, "c_ud": 1.0, "a_ud": 0.5,
         "gamma_ud_khz": 80.0, "w01_khz": 10.0},
        np.concatenate([np.linspace(-600.0, 600.0, 241),
                        np.linspace(-300.0, 300.0, 121)]),
    ),
}


def _truth_vector(model, truth):
    return np.array([truth.get(p.name, p.initial) for p in model.params])


FREQUENCY_PARAMS = {"omega_khz", "delta_mag_khz", "a_par_khz", "w01_khz"}


def _perturbed(model, truth, rng):
    """Initials moved up to +-20% (additively for near-zero values).

    Oscillatory fits are periodic in their frequency parameters, so those
    are perturbed by at most a couple of kHz (well under one spectral
    linewidth) to stay in the basin of the global minimum.
    """
    values = {}
    for p in model.params:
        if p.frozen or p.name not in truth:
            continue
        t = truth[p.name]
        if p.name in FREQUENCY_PARAMS:
            guess = t + rng.uniform(-2.0, 2.0)
        elif abs(t) > 0.5:
            guess = t * (1.0 + rng.uniform(-0.2, 0.2))
        else:
            guess = t + rng.uniform(-0.2, 0.2)
        values[p.name] = np.clip(guess, p.lower, p.upper)
    return model.with_initials(**values)


class TestRoundTrip:
    def test_every_registered_model_has_a_round_trip(self):
        assert sorted(ROUND_TRIPS) == sorted(FIT_MODELS)

    @pytest.mark.parametrize("case", sorted(ROUND_TRIPS))
    def test_noiseless_recovery(self, case):
        factory, truth, x = ROUND_TRIPS[case]
        model = factory()
        y = model.evaluate(_truth_vector(model, truth), x)
        rng = np.random.default_rng(11)
        for _ in range(3):
            outcome = nlls_fit(_perturbed(model, truth, rng), (x, y))
            assert outcome.converged, outcome.message
            for name, val in truth.items():
                assert outcome.params[name] == pytest.approx(
                    val, rel=1e-6, abs=1e-6), (case, name)


class TestConfidenceIntervals:
    @pytest.mark.parametrize("case", ["ramsey_mp", "undressed_ramsey"])
    def test_coverage_at_least_90_percent(self, case):
        factory, truth, x = ROUND_TRIPS[case]
        x = x[::10]
        model = factory()
        clean = model.evaluate(_truth_vector(model, truth), x)
        rng = np.random.default_rng(2024)
        sigma = np.full_like(x, 0.01)
        hits = {name: 0 for name in truth}
        n_fits = 200
        for _ in range(n_fits):
            y = clean + rng.normal(0.0, 0.01, size=len(x))
            outcome = nlls_fit(model.with_initials(**truth), (x, y),
                               sigma=sigma)
            assert outcome.converged
            for name, val in truth.items():
                lo, hi = outcome.ci[name]
                hits[name] += lo <= val <= hi
        for name, n in hits.items():
            assert n / n_fits >= 0.90, (case, name, n)

    def test_ci_halfwidth(self):
        factory, truth, x = ROUND_TRIPS["ramsey_mp"]
        model = factory()
        y = model.evaluate(_truth_vector(model, truth), x)
        outcome = nlls_fit(model.with_initials(**truth), (x, y))
        lo, hi = outcome.ci["omega_khz"]
        assert outcome.ci_halfwidth("omega_khz") == pytest.approx(
            0.5 * (hi - lo))

    @pytest.mark.parametrize("n_points", [8, 9, 12, 43, 300])
    @pytest.mark.parametrize("confidence", [0.68, 0.95, 0.99])
    def test_t_quantile_matches_scipy_stats(self, n_points, confidence,
                                            monkeypatch):
        # nlls_fit takes the quantile from scipy.special.stdtrit; the CI
        # must be bit-identical to one built on scipy.stats.t.ppf, at the
        # shipped level and at others
        from scipy import stats

        monkeypatch.setattr(fitting, "CONFIDENCE", confidence)
        model = _exp_decay_model(a=2.0, b=4.0)
        x = np.linspace(0.0, 10.0, n_points)
        y = 2.0 * np.exp(-x / 4.0) + 0.01 * np.cos(7.0 * x)
        outcome = nlls_fit(model, (x, y))
        dof = n_points - 2
        tval = stats.t.ppf(0.5 + 0.5 * confidence, dof)
        for k, name in enumerate(("a", "b")):
            half = tval * math.sqrt(outcome.covariance[k, k])
            value = outcome.params[name]
            assert outcome.ci[name] == (value - half, value + half)


class TestDegeneracy:
    def test_constant_data_flagged_not_crashed(self):
        model = model_undressed_ramsey()
        x = np.arange(0.0, 15.0, 0.05)
        outcome = nlls_fit(model, (x, np.full_like(x, 0.5)))
        assert "degenerate" in outcome.flags
        assert not outcome.converged
        assert np.all(np.isfinite(outcome.covariance))

    def test_report_mentions_flags(self):
        model = model_undressed_ramsey()
        x = np.arange(0.0, 15.0, 0.05)
        outcome = nlls_fit(model, (x, np.full_like(x, 0.5)))
        report = format_fit_report(model, outcome)
        assert "degenerate" in report
        assert "converged: False" in report


class TestValidation:
    def test_too_few_points(self):
        model = _exp_decay_model()
        x = np.array([0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="points"):
            nlls_fit(model, (x, np.exp(-x / 5.0)))

    def test_initial_outside_bounds(self):
        model = _exp_decay_model(a=20.0)  # upper bound is 10
        x = np.linspace(0.0, 10.0, 50)
        with pytest.raises(ValueError, match="bounds"):
            nlls_fit(model, (x, np.exp(-x / 5.0)))

    def test_nonpositive_sigma(self):
        model = _exp_decay_model()
        x = np.linspace(0.0, 10.0, 50)
        with pytest.raises(ValueError, match="sigma"):
            nlls_fit(model, (x, np.exp(-x / 5.0)), sigma=np.zeros_like(x))

    def test_all_frozen_rejected(self):
        model = _exp_decay_model()
        frozen = ModelFunction(
            name="frozen",
            params=tuple(FitParam(p.name, p.initial, frozen=True)
                         for p in model.params),
            evaluator=model.evaluator,
        )
        x = np.linspace(0.0, 10.0, 50)
        with pytest.raises(ValueError, match="free"):
            nlls_fit(frozen, (x, np.exp(-x / 5.0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_initial_residuals(self, bad):
        model = _exp_decay_model()
        model = ModelFunction(
            name="broken", params=model.params,
            evaluator=lambda theta, x: np.where(x > 5.0, bad, x))
        x = np.linspace(0.0, 10.0, 50)
        with pytest.raises(NonFiniteResidualsError,
                           match="broken: residuals are not finite"):
            nlls_fit(model, (x, np.exp(-x / 5.0)))

    def test_unknown_initial_name(self):
        with pytest.raises(KeyError):
            model_ramsey_mp(150.0, 0.9).with_initials(bogus=1.0)


class TestUnitInvariance:
    def test_abscissa_rescaling(self):
        # the same decay expressed in us and in ms must fit equally well,
        # with the time constant scaling by exactly the unit ratio
        rng = np.random.default_rng(3)
        x_us = np.linspace(0.0, 20.0, 200)
        y = 0.8 * np.exp(-x_us / 5.0) + rng.normal(0.0, 0.002, size=len(x_us))
        fit_us = nlls_fit(_exp_decay_model(a=1.0, b=3.0), (x_us, y))
        fit_ms = nlls_fit(_exp_decay_model(a=1.0, b=3.0e-3), (x_us / 1e3, y))
        assert fit_us.converged and fit_ms.converged
        assert fit_ms.params["a"] == pytest.approx(fit_us.params["a"],
                                                   rel=1e-8)
        assert fit_ms.params["b"] * 1e3 == pytest.approx(fit_us.params["b"],
                                                         rel=1e-8)


class TestWeights:
    def test_weighting_changes_solution(self):
        # points with tiny sigma dominate a weighted fit
        model = _exp_decay_model(a=1.0, b=4.0)
        x = np.linspace(0.0, 10.0, 100)
        y = 0.8 * np.exp(-x / 5.0)
        y[:50] += 0.05  # biased early section
        sigma = np.ones_like(x)
        sigma[50:] = 1e-3  # trust only the clean tail
        plain = nlls_fit(model, (x, y))
        weighted = nlls_fit(model, (x, y), sigma=sigma)
        resid_tail_plain = np.abs(
            plain.params["a"] * np.exp(-x[50:] / plain.params["b"]) - y[50:])
        resid_tail_wt = np.abs(
            weighted.params["a"] * np.exp(-x[50:] / weighted.params["b"])
            - y[50:])
        assert resid_tail_wt.max() < resid_tail_plain.max()
