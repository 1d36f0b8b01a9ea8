import math

import numpy as np
import pytest

from nvcdd.spin_model import SystemParams
from nvcdd.units import khz_to_angular, mhz_to_angular

OMEGA_MECH = mhz_to_angular(586.0)


def make_params(omega_khz=581.0, delta_khz=0.0, a_par_khz=150.0,
                q_factor=2700.0) -> SystemParams:
    return SystemParams(
        omega=khz_to_angular(omega_khz),
        delta=khz_to_angular(delta_khz),
        a_par=khz_to_angular(a_par_khz),
        omega_mech=OMEGA_MECH,
        q_factor=q_factor,
    )


@pytest.fixture
def nv2_params() -> SystemParams:
    return make_params()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20210901)


def random_params(rng: np.random.Generator) -> SystemParams:
    return make_params(
        omega_khz=rng.uniform(0.0, 800.0),
        delta_khz=rng.uniform(-200.0, 200.0),
        a_par_khz=rng.uniform(-200.0, 200.0),
    )


# Basis states of the two 13C blocks of the six-level model, up block
# first, each ordered (+1, 0, -1): the order of pulse_sim's blocks.
BLOCKS = np.array([[0, 2, 4], [1, 3, 5]])


def dense_hamiltonians(h: np.ndarray, phase=0.0) -> np.ndarray:
    """The dense (n, 6, 6) form of block Hamiltonians h (n, 2, 3, 3) built
    at pulse phase 0, with the drive's 0<->-1 element 1/2 Omega put at
    phase phi: 1/2 Omega exp(i phi), for a scalar phi or one per matrix."""
    out = np.zeros((len(h), 6, 6), dtype=complex)
    out[:, BLOCKS[:, :, None], BLOCKS[:, None, :]] = h
    rot = np.exp(1j * np.asarray(phase))[..., None]
    out[:, [2, 3], [4, 5]] *= rot
    out[:, [4, 5], [2, 3]] *= rot.conj()
    return out


def assert_hermitian_blockdiag(h: np.ndarray, tol=1e-12):
    scale = max(np.abs(h).max(), 1.0)
    assert np.abs(h - h.conj().T).max() <= tol * scale
    up = [0, 2, 4]
    dn = [1, 3, 5]
    assert np.abs(h[np.ix_(up, dn)]).max() == 0.0
    assert np.abs(h[np.ix_(dn, up)]).max() == 0.0


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        word = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {name}: {word}", flush=True)
