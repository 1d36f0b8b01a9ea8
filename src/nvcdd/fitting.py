"""Nonlinear least-squares engine with linearized confidence intervals.

Thin policy layer over scipy.optimize.least_squares: bounded
trust-region iteration with a forward-difference Jacobian, convergence
when the relative cost improvement or step norm drops below 1e-10, and
95% confidence intervals from the t-distribution on the linearized
covariance.  Rank-deficient Jacobians are flagged, never a silent
success, and a parameter that ends at a bound, or whose confidence
interval reaches one of its finite bounds, is flagged at_bound:<name>;
residuals that are not finite at the initial guess raise
NonFiniteResidualsError.

The Jacobian is scipy's '2-point' rule at the relative step DIFF_STEP,
step for step and bit for bit: sqrt(eps) * max(1, |x|) where that step
would not move x, and a step that would leave the bounds flipped, or cut
to the farther bound.  It is evaluated as one stacked model call (see
ModelFunction.evaluate): the current point, then one row per free
parameter with that parameter stepped.

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
# residual evaluations outside the Jacobian (least_squares' max_nfev does
# not count the Jacobian's), and CONFIDENCE is the two-sided CI level.  A fit
# takes at least MIN_POINTS points, and two per free parameter.
FTOL = 1e-10
XTOL = 1e-10
DIFF_STEP = 1e-6
MAX_ITER = 500
CONFIDENCE = 0.95
MIN_POINTS = 8
# the step scipy's '2-point' rule takes where DIFF_STEP * |x| does not
# move x
_SQRT_EPS = math.sqrt(np.finfo(float).eps)


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
    """Named parameter list plus an evaluator (params, x) -> y.

    ``evaluate(theta, x)`` takes one full parameter vector, shape (P,),
    and returns y, shape (m,), or a stack of k of them, shape (k, P), and
    returns one row per vector, shape (k, m).  Either way the evaluator
    receives the parameters as P columns of shape (k, 1), so that
    ``c, t2, ... = theta`` unpacks them and numpy broadcasts each against
    x; its result is broadcast to (k, m).  A factor that needs Python
    scalars is computed row by row, as one vector computes it.
    """

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
        theta = np.asarray(theta, dtype=float)
        x = np.asarray(x, dtype=float)
        rows = theta.reshape(-1, theta.shape[-1])
        y = np.broadcast_to(self.evaluator(rows.T[..., None], x),
                            (len(rows), len(x)))
        return y[0] if theta.ndim == 1 else y


@dataclass
class FitOutcome:
    params: dict                 # name -> fitted value (frozen included)
    covariance: np.ndarray       # over free parameters
    ci: dict                     # name -> (low, high), free parameters
    rss: float
    converged: bool
    flags: list = field(default_factory=list)
    message: str = ""

    def ci_halfwidth(self, name: str) -> float:
        lo, hi = self.ci[name]
        return 0.5 * (hi - lo)


def nlls_fit(model: ModelFunction, points, sigma=None) -> FitOutcome:
    """Fit a model to its (x, y) points.

    sigma: optional per-point standard deviations used as weights.
    """
    x, y = (np.asarray(column, dtype=float) for column in points)
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
    if len(x) < (fewest := max(2 * n_free, MIN_POINTS)):
        raise ValueError(f"need at least {fewest} points for "
                         f"{n_free} free parameters, got {len(x)}")
    theta0 = model.initial_vector()
    lower = np.array([model.params[i].lower for i in free])
    upper = np.array([model.params[i].upper for i in free])
    if np.any(theta0[free] < lower) or np.any(theta0[free] > upper):
        raise ValueError("initial guess outside bounds")

    def residuals(free_vals):
        # free_vals (n_free,), or a stack (k, n_free) giving k rows
        theta = np.empty(free_vals.shape[:-1] + theta0.shape)
        theta[...] = theta0
        theta[..., free] = free_vals
        r = model.evaluate(theta, x) - y
        return r * weights if weights is not None else r

    bounds = list(zip(lower.tolist(), upper.tolist()))

    def jacobian(free_vals):
        # scipy's '2-point' steps in its arithmetic, from one stacked call:
        # row 0 the current point, row i + 1 free parameter i stepped
        stack = np.empty((n_free + 1, n_free))
        stack[...] = free_vals
        for i, (v, (lo, hi)) in enumerate(zip(free_vals.tolist(), bounds)):
            sign = 1.0 if v >= 0 else -1.0
            h = DIFF_STEP * sign * abs(v)
            if (v + h) - v == 0:
                h = _SQRT_EPS * sign * max(1.0, abs(v))
            if abs(h) > max(v - lo, hi - v):   # fits neither way
                h = hi - v if hi - v >= v - lo else -(v - lo)
            elif not lo <= v + h <= hi:
                h = -h
            stack[i + 1, i] = v + h
        r = residuals(stack)
        step = stack[1:].diagonal() - free_vals
        # the transpose of a C-ordered (n_free, m) array, the layout of
        # scipy's own: it sets the summation order of trf's products
        return ((r[1:] - r[0]) / step[:, None]).T

    if not np.all(np.isfinite(residuals(theta0[free]))):
        raise NonFiniteResidualsError(
            f"{model.name}: residuals are not finite at the initial guess")

    # imported here so that importing nvcdd loads no scipy
    from scipy.optimize import least_squares
    from scipy.special import stdtrit

    result = least_squares(
        residuals, theta0[free], jacobian, bounds=(lower, upper),
        method="trf", ftol=FTOL, xtol=XTOL, gtol=None,
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
    sv = np.linalg.svd(jac, compute_uv=False)
    degenerate = sv[0] == 0 or (sv[-1] / sv[0]) < 1e-10
    if degenerate:
        flags.append("degenerate")
        converged = False
        cov = np.linalg.pinv(jtj) * (rss / max(dof, 1))
    else:
        cov = np.linalg.inv(jtj) * (rss / max(dof, 1))
    cov = 0.5 * (cov + cov.T)

    half = stdtrit(max(dof, 1), 0.5 + 0.5 * CONFIDENCE) \
        * np.sqrt(np.maximum(cov.diagonal(), 0.0))
    ci_lo, ci_hi = result.x - half, result.x + half
    ci = {model.params[i].name: bounds for i, bounds
          in zip(free, zip(ci_lo.tolist(), ci_hi.tolist()))}
    # scipy's active_mask marks a bound only within 1e-10 of it
    reach = (ci_lo <= lower) & np.isfinite(lower) \
        | (ci_hi >= upper) & np.isfinite(upper)
    flags += [f"at_bound:{model.params[i].name}" for i, active, near
              in zip(free, result.active_mask, reach) if active or near]

    params = {p.name: theta[i] for i, p in enumerate(model.params)}
    return FitOutcome(params=params, covariance=cov, ci=ci, rss=rss,
                      converged=converged, flags=flags,
                      message=result.message)


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
