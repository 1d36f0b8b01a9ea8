import math

import numpy as np
import pytest

from nvcdd.spin_model import (
    EnvironmentSample,
    NonHermitianError,
    SystemParams,
    ZERO_ENV,
    build_lab_hamiltonian,
    build_rotating_hamiltonian,
    detuning_from_lines,
    diagonalize,
    dressed_energies,
    dressed_transition_offsets,
    larmor_frequency,
    mechanical_cutoff,
    zeeman_frame_shift,
)
from nvcdd.units import D0, DD_DT, GAMMA, angular_to_khz, khz_to_angular

from conftest import assert_hermitian_blockdiag, make_params, random_params


class TestSystemParams:
    def test_constraint_enforced(self, nv2_params):
        p = nv2_params
        assert p.omega_mech == pytest.approx(2 * GAMMA * p.b + p.delta,
                                             rel=1e-12)

    def test_inconsistent_construction_rejected(self, nv2_params):
        # b follows from omega_mech and delta, so it cannot be given
        with pytest.raises(TypeError):
            SystemParams(omega=1.0, b=5.0)
        with pytest.raises(AttributeError):
            nv2_params.b = 5.0

    def test_with_delta_keeps_mech_frequency(self, nv2_params):
        q = nv2_params.with_delta(khz_to_angular(-150.0))
        assert q.omega_mech == nv2_params.omega_mech
        assert q.omega_mech == pytest.approx(2 * GAMMA * q.b + q.delta,
                                             rel=1e-12)

    def test_negative_omega_rejected(self, nv2_params):
        with pytest.raises(ValueError):
            nv2_params.with_omega(-1.0)


class TestLabHamiltonian:
    def test_drive_off_is_diagonal(self, nv2_params):
        p = nv2_params.with_omega(0.0)
        h = build_lab_hamiltonian(p, ZERO_ENV, t=0.37)
        gb, a, d = GAMMA * p.b, p.a_par, D0
        expected = np.diag([gb + a / 2, gb - a / 2, -d, -d,
                            -gb - a / 2, -gb + a / 2])
        np.testing.assert_allclose(h, expected, rtol=1e-12, atol=0)

    def test_structure_random_inputs(self, rng):
        for _ in range(50):
            p = random_params(rng)
            env = EnvironmentSample(rng.normal(0, 20), rng.normal(0, 0.2),
                                    rng.normal(0, 0.5))
            assert_hermitian_blockdiag(build_lab_hamiltonian(p, env,
                                                             rng.uniform(0, 1)))

    def test_drive_entries_at_cosine_peak(self, nv2_params):
        p = nv2_params
        env = EnvironmentSample(delta_omega=khz_to_angular(10.0))
        t = 2 * math.pi / p.omega_mech  # cos(omega_mech * t) = 1
        h = build_lab_hamiltonian(p, env, t)
        assert h[0, 4] == pytest.approx(p.omega + env.delta_omega, rel=1e-12)
        assert h[1, 5] == pytest.approx(p.omega + env.delta_omega, rel=1e-12)


class TestRotatingHamiltonian:
    def test_drive_off_is_diagonal(self, nv2_params):
        p = nv2_params
        env = EnvironmentSample(delta_omega=-p.omega)  # omega_sum = 0
        h = build_rotating_hamiltonian(p, env)
        assert np.abs(h - np.diag(np.diag(h))).max() == 0.0

    def test_field_cancels_detuning(self):
        p = make_params(a_par_khz=0.0, delta_khz=40.0)
        db = -0.5 * p.delta / GAMMA
        h = build_rotating_hamiltonian(p, EnvironmentSample(delta_b=db))
        gb = GAMMA * p.b
        np.testing.assert_allclose(np.diag(h)[[0, 1, 4, 5]],
                                   [gb, gb, -gb, -gb], rtol=1e-12)

    def test_eigenvalues_match_closed_form(self, rng):
        for _ in range(1000):
            p = random_params(rng)
            env = EnvironmentSample(rng.normal(0, 20), rng.normal(0, 0.3),
                                    rng.normal(0, 0.5))
            h = build_rotating_hamiltonian(p, env) - zeeman_frame_shift(p)
            numeric, _ = diagonalize(h)
            closed = np.sort(list(dressed_energies(p, env).energies.values()))
            scale = np.abs(closed).max()
            np.testing.assert_allclose(numeric, closed, rtol=0,
                                       atol=1e-10 * scale)


class TestDressedEnergies:
    def test_drive_off_hyperfine_split(self):
        p = make_params(omega_khz=0.0, delta_khz=0.0)
        lv = dressed_energies(p)
        assert lv.energy("mu") == pytest.approx(-abs(p.a_par) / 2)
        assert lv.energy("pu") == pytest.approx(abs(p.a_par) / 2)

    def test_mp_splitting_anchor(self, nv2_params):
        w = larmor_frequency("mu", "pu", nv2_params)
        assert angular_to_khz(w) == pytest.approx(math.hypot(150.0, 581.0),
                                                  rel=1e-12)
        assert angular_to_khz(w) == pytest.approx(600.06, abs=0.01)

    def test_zero_level_at_minus_d(self, nv2_params):
        env = EnvironmentSample(delta_t=1.5)
        lv = dressed_energies(nv2_params, env)
        d = D0 + DD_DT * env.delta_t
        assert lv.energy("0u") == pytest.approx(-d, rel=1e-12)

    def test_mp_symmetric(self, rng):
        for _ in range(20):
            p = random_params(rng)
            env = EnvironmentSample(rng.normal(0, 20))
            lv = dressed_energies(p, env)
            assert lv.energy("mu") == pytest.approx(-lv.energy("pu"), rel=1e-12)
            assert lv.energy("md") == pytest.approx(-lv.energy("pd"), rel=1e-12)


class TestDiagonalize:
    def test_identity(self):
        vals, _ = diagonalize(np.eye(6, dtype=complex))
        np.testing.assert_allclose(vals, np.ones(6))

    def test_diagonal_sorted(self):
        d = np.diag([3.0, -1.0, 2.0, 0.0, -5.0, 4.0])
        vals, _ = diagonalize(d)
        np.testing.assert_allclose(vals, sorted(np.diag(d)))

    def test_reconstruction(self, rng):
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = a + a.conj().T
        vals, vecs = diagonalize(h)
        np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.conj().T, h,
                                   atol=1e-10 * np.abs(h).max())
        np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(6), atol=1e-10)

    def test_non_hermitian_rejected(self):
        h = np.eye(6, dtype=complex)
        h[0, 1] = 1.0
        with pytest.raises(NonHermitianError):
            diagonalize(h)


class TestLarmorFrequency:
    def test_identical_levels_rejected(self, nv2_params):
        with pytest.raises(ValueError):
            larmor_frequency("mu", "mu", nv2_params)

    def test_protected_point_equals_omega(self):
        p = make_params(omega_khz=455.7, delta_khz=-150.0, a_par_khz=150.0)
        # sublevel with xi = delta + a_par + 2*gamma*db = 0 at db = 0
        w = larmor_frequency("mu", "pu", p)
        assert w == pytest.approx(p.omega, rel=1e-12)

    def test_field_slope_matches_closed_form(self, nv2_params):
        p = nv2_params
        step = 1e-3  # mG
        w_plus = larmor_frequency("mu", "pu", p, EnvironmentSample(delta_b=step))
        w_minus = larmor_frequency("mu", "pu", p,
                                   EnvironmentSample(delta_b=-step))
        slope = (w_plus - w_minus) / (2 * step)
        expected = 2 * GAMMA * abs(p.a_par) / math.hypot(p.a_par, p.omega)
        assert slope == pytest.approx(expected, rel=1e-6)

    def test_mp_immune_to_temperature(self, rng):
        for _ in range(20):
            p = random_params(rng)
            w0 = larmor_frequency("mu", "pu", p)
            w1 = larmor_frequency("mu", "pu", p, EnvironmentSample(delta_t=2.0))
            assert w0 == w1

    def test_0p_temperature_slope(self, nv2_params):
        step = 1e-3  # degC
        w_plus = larmor_frequency("0u", "pu", nv2_params,
                                  EnvironmentSample(delta_t=step))
        w_minus = larmor_frequency("0u", "pu", nv2_params,
                                   EnvironmentSample(delta_t=-step))
        slope = (w_plus - w_minus) / (2 * step)
        # omega_0p = D + sqrt(..)/2 with the 0 level at -D, so the
        # splitting tracks D directly and the slope is dD/dT itself
        assert slope == pytest.approx(DD_DT, rel=1e-6)

    def test_avoided_crossing_even_in_xi(self, nv2_params):
        # at delta=0, omega_mp is even in (2*gamma*db + a_par) about xi=0
        p = nv2_params
        center = -p.a_par / (2 * GAMMA)
        for off in (5.0, 11.0):
            w_lo = larmor_frequency("mu", "pu", p,
                                    EnvironmentSample(delta_b=center - off))
            w_hi = larmor_frequency("mu", "pu", p,
                                    EnvironmentSample(delta_b=center + off))
            assert w_lo == pytest.approx(w_hi, rel=1e-12)


def _three_level_offsets(omega, delta, omega_mag):
    """Oracle: dressed line positions from the exact 3-level spectrum.

    Basis {+1, 0, -1} for one sublevel in the doubly rotating frame; the
    magnetic drive couples 0<->-1 with strength omega_mag/2 and sits at
    detuning d from the nominal undressed 0<->-1 line.  A line center is
    the root in d where the exact 0-like <-> dressed-like transition
    energy crosses zero, i.e. where the drive is resonant; this is what
    a spectroscopy dip measures, with no first-order expansion.
    """
    from scipy.optimize import minimize_scalar

    def gap(d, pair):
        h = np.array([
            [0.5 * delta, 0.0, 0.5 * omega],
            [0.0, d - 0.5 * delta, 0.5 * omega_mag],
            [0.5 * omega, 0.5 * omega_mag, -0.5 * delta],
        ])
        vals = np.linalg.eigvalsh(h)
        return vals[pair + 1] - vals[pair]

    centers = []
    root = math.hypot(delta, omega)
    # lower line: 0-like state anticrosses the m eigenvalue (lowest pair);
    # upper line: anticrossing with p (highest pair)
    for pair, guess in ((0, 0.5 * (delta - root)), (1, 0.5 * (delta + root))):
        res = minimize_scalar(gap, bounds=(guess - 0.4 * root,
                                           guess + 0.4 * root),
                              args=(pair,), method="bounded",
                              options={"xatol": 1e-12})
        centers.append(res.x)
    return tuple(centers)


class TestTransitionOffsets:
    def test_resonant_symmetric(self):
        om = khz_to_angular(470.0)
        lo, hi = dressed_transition_offsets(om, 0.0)
        assert lo == pytest.approx(-om / 2)
        assert hi == pytest.approx(om / 2)
        assert angular_to_khz(hi) == pytest.approx(235.0)

    def test_drive_off(self):
        d = khz_to_angular(50.0)
        assert dressed_transition_offsets(0.0, d) == pytest.approx((0.0, d))

    def test_negative_omega_rejected(self):
        with pytest.raises(ValueError):
            dressed_transition_offsets(-1.0, 0.0)

    def test_against_three_level_oracle(self):
        om = khz_to_angular(470.0)
        d = khz_to_angular(35.0)
        exact = _three_level_offsets(om, d, 0.1 * om)
        approx = dressed_transition_offsets(om, d)
        for e, a in zip(exact, approx):
            assert abs(e - a) < 0.01 * om

    def test_oracle_convergence_order(self):
        om = khz_to_angular(470.0)
        d = khz_to_angular(35.0)
        errs = []
        for ratio in (0.1, 0.05, 0.025):
            exact = _three_level_offsets(om, d, ratio * om)
            approx = dressed_transition_offsets(om, d)
            errs.append(max(abs(e - a) for e, a in zip(exact, approx)))
        order = math.log(errs[0] / errs[2]) / math.log(4.0)
        assert order >= 2.0 - 0.1


class TestDetuningFromLines:
    def test_symmetric_lines_zero(self):
        assert detuning_from_lines(-1.0, 1.0, 0.0) == 0.0

    def test_closed_form_round_trip(self):
        om = khz_to_angular(470.0)
        d = khz_to_angular(35.0)
        lo, hi = dressed_transition_offsets(om, d)
        w0m1 = khz_to_angular(2870e3)  # arbitrary reference line
        assert detuning_from_lines(w0m1 + lo, w0m1 + hi, w0m1) \
            == pytest.approx(d, rel=1e-12)

    def test_eigensolver_round_trip(self):
        om = khz_to_angular(470.0)
        d = khz_to_angular(35.0)
        lo, hi = _three_level_offsets(om, d, 0.05 * om)
        est = detuning_from_lines(lo, hi, 0.0)
        assert abs(est - d) < khz_to_angular(0.5)


class TestMechanicalCutoff:
    def test_anchor(self, nv2_params):
        wc = mechanical_cutoff(nv2_params.omega_mech, 2700.0)
        assert angular_to_khz(wc) == pytest.approx(108.5, abs=0.05)

    def test_half_q_doubles(self, nv2_params):
        wc = mechanical_cutoff(nv2_params.omega_mech, 1350.0)
        assert angular_to_khz(wc) == pytest.approx(217.0, abs=0.1)

    def test_monotone_to_zero(self, nv2_params):
        vals = [mechanical_cutoff(nv2_params.omega_mech, q)
                for q in (1e3, 1e5, 1e7, 1e9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-5

    def test_bad_q_rejected(self, nv2_params):
        with pytest.raises(ValueError):
            mechanical_cutoff(nv2_params.omega_mech, 0.0)
