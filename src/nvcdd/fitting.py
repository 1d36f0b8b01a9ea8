"""Nonlinear least-squares engine with linearized confidence intervals.

Thin policy layer over scipy.optimize.least_squares: bounded
trust-region iteration with a finite-difference Jacobian (relative step
1e-6), convergence when the relative cost improvement or step norm drops
below 1e-10, and 95% confidence intervals from the t-distribution on the
linearized covariance.  Rank-deficient Jacobians are flagged, never a
silent success; residuals that are not finite at the initial guess raise
NonFiniteResidualsError.

Importing this module does not import scipy: ``nlls_fit`` loads
``scipy.optimize.least_squares`` and ``scipy.special.stdtrit`` (the
t-quantile that ``scipy.stats.t.ppf`` computes, without loading
``scipy.stats``) on a process's first fit.  Of the CLI commands only
``fit`` and ``t2scan --mc`` pay for that import.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import math

import numpy as np

from .errors import NumericalError


# Solver policy, as stated above; at most MAX_ITER * (n_free + 1)
# residual evaluations, and CONFIDENCE is the two-sided CI level.
FTOL = 1e-10
XTOL = 1e-10
DIFF_STEP = 1e-6
MAX_ITER = 500
CONFIDENCE = 0.95


class NonFiniteResidualsError(NumericalError, ValueError):
    """The model gives NaN or infinite residuals at the initial guess."""


@dataclass(frozen=True)
class FitParam:
    name: str
    initial: float
    lower: float = -np.inf
    upper: float = np.inf
    unit: str = ""
    frozen: bool = False


@dataclass(frozen=True)
class ModelFunction:
    """Named parameter list plus an evaluator (full param vector, x) -> y."""

    name: str
    params: tuple  # of FitParam
    evaluator: object

    def free_index(self):
        return [i for i, p in enumerate(self.params) if not p.frozen]

    def initial_vector(self):
        return np.array([p.initial for p in self.params], dtype=float)

    def with_initials(self, **values) -> "ModelFunction":
        updated = []
        for p in self.params:
            if p.name in values:
                p = replace(p, initial=float(values.pop(p.name)))
            updated.append(p)
        if values:
            raise KeyError(f"unknown parameters: {sorted(values)}")
        return replace(self, params=tuple(updated))

    def evaluate(self, theta, x):
        return self.evaluator(np.asarray(theta, dtype=float),
                              np.asarray(x, dtype=float))


@dataclass
class FitOutcome:
    params: dict                 # name -> fitted value (frozen included)
    covariance: np.ndarray       # over free parameters
    ci: dict                     # name -> (low, high), free parameters
    rss: float
    converged: bool
    n_iter: int
    flags: list = field(default_factory=list)
    message: str = ""

    def ci_halfwidth(self, name: str) -> float:
        lo, hi = self.ci[name]
        return 0.5 * (hi - lo)


def nlls_fit(model: ModelFunction, data, sigma=None) -> FitOutcome:
    """Fit a model to a Trace (or an (x, y) pair).

    sigma: optional per-point standard deviations used as weights.
    """
    if hasattr(data, "abscissa"):
        x = np.asarray(data.abscissa, dtype=float)
        y = np.asarray(data.mean_p0, dtype=float)
    else:
        x, y = data
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
    weights = None
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=float)
        if np.any(sigma <= 0):
            raise ValueError("sigma weights must be positive")
        weights = 1.0 / sigma

    free = model.free_index()
    n_free = len(free)
    if n_free == 0:
        raise ValueError("model has no free parameters")
    if len(x) < max(2 * n_free, 8):
        raise ValueError(f"need at least {max(2 * n_free, 8)} points for "
                         f"{n_free} free parameters, got {len(x)}")
    theta0 = model.initial_vector()
    lower = np.array([model.params[i].lower for i in free])
    upper = np.array([model.params[i].upper for i in free])
    if np.any(theta0[free] < lower) or np.any(theta0[free] > upper):
        raise ValueError("initial guess outside bounds")

    def residuals(free_vals):
        theta = theta0.copy()
        theta[free] = free_vals
        r = model.evaluate(theta, x) - y
        return r * weights if weights is not None else r

    if not np.all(np.isfinite(residuals(theta0[free]))):
        raise NonFiniteResidualsError(
            f"{model.name}: residuals are not finite at the initial guess")

    # imported here so that importing nvcdd loads no scipy
    from scipy.optimize import least_squares
    from scipy.special import stdtrit

    result = least_squares(
        residuals, theta0[free], bounds=(lower, upper), method="trf",
        ftol=FTOL, xtol=XTOL, gtol=None, diff_step=DIFF_STEP,
        max_nfev=MAX_ITER * (n_free + 1),
    )

    theta = theta0.copy()
    theta[free] = result.x
    rss = float(2.0 * result.cost)
    dof = len(x) - n_free
    flags = []
    converged = bool(result.status > 0)
    if not converged:
        flags.append("non-converged")

    jac = result.jac
    jtj = jac.T @ jac
    sv = np.linalg.svd(jac, compute_uv=False) if jac.size else np.array([0.0])
    degenerate = sv.size == 0 or sv[0] == 0 or (sv[-1] / sv[0]) < 1e-10
    if degenerate:
        flags.append("degenerate")
        converged = False
        cov = np.linalg.pinv(jtj) * (rss / max(dof, 1))
    else:
        cov = np.linalg.inv(jtj) * (rss / max(dof, 1))
    cov = 0.5 * (cov + cov.T)

    tval = stdtrit(max(dof, 1), 0.5 + 0.5 * CONFIDENCE)
    ci = {}
    for k, i in enumerate(free):
        half = tval * math.sqrt(max(cov[k, k], 0.0))
        ci[model.params[i].name] = (theta[i] - half, theta[i] + half)

    params = {p.name: theta[i] for i, p in enumerate(model.params)}
    return FitOutcome(params=params, covariance=cov, ci=ci, rss=rss,
                      converged=converged,
                      n_iter=int(result.nfev // max(n_free, 1)),
                      flags=flags, message=result.message)


def format_fit_report(model: ModelFunction, outcome: FitOutcome) -> str:
    """Structured text record: parameter table, RSS, convergence status."""
    lines = [f"fit: {model.name}",
             f"converged: {outcome.converged}"
             + (f" ({', '.join(outcome.flags)})" if outcome.flags else ""),
             f"rss: {outcome.rss:.6g}",
             f"{'parameter':<16}{'value':>14}{'ci_low':>14}{'ci_high':>14}  unit"]
    for p in model.params:
        val = outcome.params[p.name]
        if p.frozen:
            lines.append(f"{p.name:<16}{val:>14.6g}{'frozen':>14}{'':>14}  {p.unit}")
        else:
            lo, hi = outcome.ci[p.name]
            lines.append(f"{p.name:<16}{val:>14.6g}{lo:>14.6g}{hi:>14.6g}  {p.unit}")
    return "\n".join(lines)
