"""Evaluation mathematics: NEES, the chi-square interval for ANEES, absolute
trajectory error with yaw+translation alignment, and gate scoring."""

from __future__ import annotations

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


def anees_interval(runs, dof=3):
    """95% acceptance interval for the run-averaged NEES of a consistent
    filter: chi-square quantiles with runs*dof degrees of freedom, scaled
    by the run count."""
    from scipy.stats import chi2  # here, so a single run skips the import
    if runs < 1:
        raise ValueError("need at least one run")
    alpha = 1.0 - 0.95
    lo = chi2.ppf(alpha / 2.0, runs * dof) / runs
    hi = chi2.ppf(1.0 - alpha / 2.0, runs * dof) / runs
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
