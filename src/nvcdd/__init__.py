"""Desk-scale simulation and analysis of mechanically dressed NV-center
spins: dressed spectral lines, analytic dephasing, Monte-Carlo pulse
sequences, and nonlinear curve fitting."""

__version__ = "0.1.0"
