"""Desk-scale simulation and analysis of mechanically dressed NV-center
spins: dressed spectral lines, analytic dephasing, Monte-Carlo pulse
sequences, and nonlinear curve fitting."""

from .spin_model import (
    SystemParams, dressed_transition_offsets, mechanical_cutoff,
)
from .dephasing import (
    NoiseSpec, FixedAmplitudeNoise, ReflectometerNoise,
    HorizonExceeded, ZeroRateError,
    gaussian_dephasing_rate, sigma_b_from_t2, rate_magnetic_mp,
    rate_amplitude_mp, envelope_second_order, gaussian_envelope,
    one_over_e_time, predicted_t2_mp,
)
from .errors import NumericalError
from .pulse_sim import (
    SimConfig, Trace, simulate_ramsey, simulate_spectrum, fourier_magnitude,
    write_trace_csv, read_trace_csv,
)
from .fitting import FitParam, FitOutcome, ModelFunction, nlls_fit, \
    format_fit_report
from .models import (
    model_undressed_ramsey, model_ramsey_0p, model_ramsey_mp,
    model_max_protection, model_spectrum_joint, fit_points,
)
from . import units, presets

__all__ = [
    # spin_model
    "SystemParams", "dressed_transition_offsets", "mechanical_cutoff",
    # dephasing
    "NoiseSpec", "FixedAmplitudeNoise", "ReflectometerNoise",
    "HorizonExceeded", "ZeroRateError",
    "gaussian_dephasing_rate", "sigma_b_from_t2", "rate_magnetic_mp",
    "rate_amplitude_mp", "envelope_second_order", "gaussian_envelope",
    "one_over_e_time", "predicted_t2_mp",
    # errors
    "NumericalError",
    # pulse_sim
    "SimConfig", "Trace", "simulate_ramsey", "simulate_spectrum",
    "fourier_magnitude", "write_trace_csv", "read_trace_csv",
    # fitting
    "FitParam", "FitOutcome", "ModelFunction", "nlls_fit", "format_fit_report",
    # models
    "model_undressed_ramsey", "model_ramsey_0p", "model_ramsey_mp",
    "model_max_protection", "model_spectrum_joint", "fit_points",
    # submodules
    "units", "presets",
]
__version__ = "0.1.0"
