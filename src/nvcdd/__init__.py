"""Desk-scale simulation and analysis of mechanically dressed NV-center
spins: dressed-state energies, analytic dephasing, Monte-Carlo pulse
sequences, and nonlinear curve fitting."""

from .spin_model import (
    SystemParams, EnvironmentSample, DressedLevels, ZERO_ENV,
    build_lab_hamiltonian, build_rotating_hamiltonian, dressed_energies,
    diagonalize, larmor_frequency, dressed_transition_offsets,
    detuning_from_lines, mechanical_cutoff,
)
from .dephasing import (
    NoiseSpec, FixedAmplitudeNoise, ReflectometerNoise, RateBudget,
    HorizonExceeded, ZeroRateError,
    gaussian_dephasing_rate, sigma_b_from_t2, kappa, rate_magnetic_mp,
    rate_amplitude_mp, combine_rates, sigma_omega_from_reflectometer,
    envelope_second_order, envelope_max_protection, gaussian_envelope,
    one_over_e_time, predicted_t2_mp, mc_envelope_second_order,
)
from .errors import NumericalError
from .pulse_sim import (
    SimConfig, Trace, PulseSequence, MagneticPulse, FreeEvolution,
    simulate_ramsey, simulate_spectrum, fourier_magnitude,
    write_trace_csv, read_trace_csv, shot_rng,
)
from .fitting import FitParam, FitOutcome, ModelFunction, nlls_fit, \
    format_fit_report
from .models import (
    model_undressed_ramsey, model_ramsey_0p, model_ramsey_mp,
    model_max_protection, model_spectrum_joint, stack_spectra,
)
from . import units, presets

__all__ = [
    # spin_model
    "SystemParams", "EnvironmentSample", "DressedLevels", "ZERO_ENV",
    "build_lab_hamiltonian", "build_rotating_hamiltonian", "dressed_energies",
    "diagonalize", "larmor_frequency", "dressed_transition_offsets",
    "detuning_from_lines", "mechanical_cutoff",
    # dephasing
    "NoiseSpec", "FixedAmplitudeNoise", "ReflectometerNoise", "RateBudget",
    "HorizonExceeded", "ZeroRateError",
    "gaussian_dephasing_rate", "sigma_b_from_t2", "kappa", "rate_magnetic_mp",
    "rate_amplitude_mp", "combine_rates", "sigma_omega_from_reflectometer",
    "envelope_second_order", "envelope_max_protection", "gaussian_envelope",
    "one_over_e_time", "predicted_t2_mp", "mc_envelope_second_order",
    # errors
    "NumericalError",
    # pulse_sim
    "SimConfig", "Trace", "PulseSequence", "MagneticPulse",
    "FreeEvolution", "simulate_ramsey", "simulate_spectrum",
    "fourier_magnitude", "write_trace_csv", "read_trace_csv", "shot_rng",
    # fitting
    "FitParam", "FitOutcome", "ModelFunction", "nlls_fit", "format_fit_report",
    # models
    "model_undressed_ramsey", "model_ramsey_0p", "model_ramsey_mp",
    "model_max_protection", "model_spectrum_joint", "stack_spectra",
    # submodules
    "units", "presets",
]
__version__ = "0.1.0"
