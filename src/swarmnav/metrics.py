"""Evaluation mathematics: NEES, the chi-square interval for ANEES, absolute
trajectory error with yaw+translation alignment, and gate scoring."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AteReport:
    rmse: float
    yaw: float
    translation: np.ndarray


def nees(error, cov):
    """Normalized estimation error squared, e' P^-1 e."""
    e = np.asarray(error, dtype=float)
    P = np.asarray(cov, dtype=float)
    try:
        L = np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        raise ValueError("covariance is not symmetric positive definite")
    y = np.linalg.solve(L, e)
    return float(y @ y)


def _gamma_p(a, x):
    """Regularized lower incomplete gamma P(a, x): its series below
    x = a + 1, one minus the continued fraction of Q(a, x) above (modified
    Lentz; Press et al., Numerical Recipes, 6.2)."""
    if x <= 0.0:
        return 0.0
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    tiny = 1e-300
    if x < a + 1.0:
        term = total = 1.0 / a
        k = a
        while term > total * 1e-17:
            k += 1.0
            term *= x / k
            total += term
        return front * total
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for n in range(1, 100_000):
        an = -n * (n - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return 1.0 - front * h


def _chi2_quantile(p, dof):
    """The p-quantile of the chi-square distribution with `dof` degrees of
    freedom: Newton's method on P(dof/2, x/2) = p, from the Wilson-Hilferty
    approximation with a rational normal quantile (Abramowitz & Stegun
    26.2.23)."""
    a = dof / 2.0
    t = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
    z = t - (2.515517 + 0.802853 * t + 0.010328 * t * t) / (
        1.0 + 1.432788 * t + 0.189269 * t * t + 0.001308 * t ** 3)
    z = z if p > 0.5 else -z
    w = 2.0 / (9.0 * dof)
    y = a * max(1.0 - w + z * math.sqrt(w), 0.1) ** 3
    for _ in range(100):
        density = math.exp((a - 1.0) * math.log(y) - y - math.lgamma(a))
        step = (_gamma_p(a, y) - p) / density
        y = max(y - step, y / 2.0)
        if abs(step) <= 4e-16 * y:
            break
    return 2.0 * y


def anees_interval(runs, dof=3):
    """95% acceptance interval for the run-averaged NEES of a consistent
    filter: chi-square quantiles with runs*dof degrees of freedom, scaled
    by the run count. The quantiles come from `_chi2_quantile`, in plain
    Python floats."""
    if runs < 1:
        raise ValueError("need at least one run")
    alpha = 1.0 - 0.95
    lo = _chi2_quantile(alpha / 2.0, runs * dof) / runs
    hi = _chi2_quantile(1.0 - alpha / 2.0, runs * dof) / runs
    return float(lo), float(hi)


def ate(est_positions, truth_positions) -> AteReport:
    """Absolute trajectory error of estimate and truth rows taken at the same
    times: closed-form yaw+translation alignment (roll/pitch/scale are
    observable from GNSS and gravity, so only 4 degrees of freedom are
    free), RMSE of the residuals."""
    P = np.asarray(est_positions, dtype=float)
    Q = np.asarray(truth_positions, dtype=float)
    if len(P) == 0:
        raise ValueError("empty trajectory")
    if P.shape != Q.shape:
        raise ValueError(f"estimate rows {P.shape} and truth rows {Q.shape} differ")
    pc = P - P.mean(axis=0)
    qc = Q - Q.mean(axis=0)
    # Planar Procrustes for the yaw angle.
    num = np.sum(pc[:, 0] * qc[:, 1] - pc[:, 1] * qc[:, 0])
    den = np.sum(pc[:, 0] * qc[:, 0] + pc[:, 1] * qc[:, 1])
    yaw = float(np.arctan2(num, den))
    c, s = np.cos(yaw), np.sin(yaw)
    Rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    t = Q.mean(axis=0) - Rz @ P.mean(axis=0)
    resid = (Rz @ P.T).T + t - Q
    rmse = float(np.sqrt(np.mean(np.sum(resid ** 2, axis=1))))
    return AteReport(rmse, yaw, t)


def gate_score(accepted_flags, outlier_labels):
    """(recall, precision, fpr) of outlier detection: a rejection of a
    labeled outlier is a true positive."""
    a = np.asarray(accepted_flags, dtype=bool)
    o = np.asarray(outlier_labels, dtype=bool)
    if a.shape != o.shape:
        raise ValueError("verdicts and labels differ in length")
    tp = np.sum(~a & o)
    fn = np.sum(a & o)
    fp = np.sum(~a & ~o)
    tn = np.sum(a & ~o)
    recall = tp / (tp + fn) if tp + fn else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    fpr = fp / (fp + tn) if fp + tn else 0.0
    return float(recall), float(precision), float(fpr)
