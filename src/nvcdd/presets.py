"""Named parameter presets for the two NV centers studied.

NV1 hosts the {0,p} measurements (a_par 145 kHz, undressed T2* 5.9 us);
NV2 hosts the {m,p} measurements (a_par 150 kHz, undressed T2* 5.4 us,
gamma*sigma_b/2pi = 42 kHz).  Both share the 586 MHz, Q=2700 resonator.

Note on sigma_b: the T2*-derived gamma*sigma_b of 42 kHz corresponds to
about 15 mG; the directly quoted 2.4 mG figure is inconsistent with it
and is not used anywhere in the toolkit.
"""

from __future__ import annotations

Q_FACTOR = 2700.0

PRESETS = {
    "nv1": {
        "a_par_khz": 145.0,
        "t2_0m1_us": 5.9,
        "gamma_sigma_b_khz": None,   # derived from t2_0m1
        "sigma_t_c": 0.25,
        "omega_mech_mhz": 586.0,
        "q_factor": Q_FACTOR,
        "omega_khz": 348.0,
    },
    "nv2": {
        "a_par_khz": 150.0,
        "t2_0m1_us": 5.4,
        "gamma_sigma_b_khz": 42.0,   # quoted calibration, pinned
        "sigma_t_c": 0.25,
        "omega_mech_mhz": 586.0,
        "q_factor": Q_FACTOR,
        "omega_khz": 581.0,
    },
}
