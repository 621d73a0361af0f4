"""NEES/ANEES statistics, trajectory alignment error and gate scoring."""

import numpy as np
import pytest
from scipy.stats import chi2

from swarmnav.cli import EXIT_OK, main
from swarmnav.metrics import _chi2_quantile, anees_interval, ate, gate_score, nees
from swarmnav.sim import read_yaml

rng = np.random.default_rng(17)


def test_nees_identity_cov():
    e = np.array([1.0, 2.0, 2.0])
    assert np.isclose(nees(e, np.eye(3)), 9.0)
    assert nees(np.zeros(3), np.eye(3)) == 0.0


def test_nees_general_cov():
    A = rng.standard_normal((4, 4))
    P = A @ A.T + np.eye(4)
    e = rng.standard_normal(4)
    assert np.isclose(nees(e, P), e @ np.linalg.solve(P, e))
    with pytest.raises(ValueError):
        nees(np.ones(2), -np.eye(2))


def test_nees_sampling_distribution():
    # Gaussian errors with matching covariance: the mean NEES is the dof.
    A = rng.standard_normal((3, 3))
    P = A @ A.T + np.eye(3)
    L = np.linalg.cholesky(P)
    vals = [nees(L @ rng.standard_normal(3), P) for _ in range(4000)]
    assert abs(np.mean(vals) - 3.0) < 0.15


def test_anees_interval_matches_chi2():
    lo, hi = anees_interval(50, dof=3)
    assert np.isclose(lo, chi2.ppf(0.025, 150) / 50)
    assert np.isclose(hi, chi2.ppf(0.975, 150) / 50)
    # The often-quoted band for 50 runs and 3 dof.
    assert 2.3 < lo < 2.4
    assert 3.6 < hi < 3.8
    with pytest.raises(ValueError):
        anees_interval(0)


def test_chi2_quantile_matches_scipy():
    # SciPy is a test-only reference: both tails of the 95% interval for
    # 3 * runs degrees of freedom, within 1e-12 relative.
    worst = 0.0
    for runs in [*range(1, 301), 1000, 5000]:
        for p in (0.025, 0.975):
            want = chi2.ppf(p, 3 * runs)
            worst = max(worst, abs(_chi2_quantile(p, 3 * runs) - want) / want)
    assert worst <= 1e-12


def test_anees_aggregation(tmp_path):
    # montecarlo's merged ANEES and ATE are the means of its runs' summaries.
    config = tmp_path / "config.yaml"
    config.write_text("agents:\n"
                      "  - trajectory: {kind: circle, speed: 2.0, size: 20.0, duration: 2.0}\n"
                      "seed: 8\ngate: {enabled: false}\ncollaboration: false\n"
                      "gnss_delay: 0.0\nuse_vision: false\n")
    out = tmp_path / "mc"
    assert main(["montecarlo", "--config", str(config), "--runs", "3",
                 "--out", str(out)]) == EXIT_OK
    merged = read_yaml(str(out / "montecarlo_summary.yaml"))
    runs = [read_yaml(str(out / f"run{i:03d}" / "summary.yaml"))["agents"][0]
            for i in range(3)]
    agent = merged["agents"][0]
    for name, key in (("position_anees", "mean_position_nees"),
                      ("orientation_anees", "mean_orientation_nees"),
                      ("mean_ate", "ate_rmse")):
        assert agent[name] == np.mean([r[key] for r in runs]), name
    assert agent["position_anees"] > 0.0
    assert tuple(merged["anees_interval_95"]) == anees_interval(3)


def _circle(n=200):
    th = np.linspace(0, 2 * np.pi, n)
    return np.c_[10 * np.cos(th), 10 * np.sin(th), np.full(n, 5.0)]


def test_ate_zero_for_identical():
    P = _circle()
    rep = ate(P, P)
    assert rep.rmse < 1e-12


def test_ate_removes_yaw_and_translation():
    Q = _circle()
    yaw = 0.4
    c, s = np.cos(yaw), np.sin(yaw)
    Rz = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])
    P = (Rz.T @ (Q - np.array([1.0, -2.0, 0.5])).T).T
    rep = ate(P, Q)
    assert rep.rmse < 1e-9
    assert np.isclose(rep.yaw, yaw, atol=1e-9)


def test_ate_of_noisy_estimate():
    th = np.linspace(0, 2 * np.pi, 5000)
    Q = np.c_[10 * np.cos(th), 10 * np.sin(th), np.zeros(5000)]
    P = Q + 0.1 * rng.standard_normal(Q.shape)
    rep = ate(P, Q)
    assert np.isclose(rep.rmse, 0.1 * np.sqrt(3), rtol=0.05)


def test_ate_nearest_time_association():
    # Rows are taken at the same times, so row k of the estimate is paired
    # with row k of the truth, whatever positions lie nearer.
    truth_p = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]], dtype=float)
    est_p = truth_p + np.array([0.4, 0.0, 0.0])
    assert ate(est_p, truth_p).rmse < 1e-9
    assert ate(est_p[[1, 0, 2, 3]], truth_p).rmse > 0.5
    with pytest.raises(ValueError):
        ate(np.zeros((0, 3)), np.zeros((0, 3)))
    with pytest.raises(ValueError):
        ate(est_p[:3], truth_p)


def test_gate_score_confusion():
    accepted = [True, True, False, False, True, False]
    outlier = [False, False, True, True, True, False]
    recall, precision, fpr = gate_score(accepted, outlier)
    assert np.isclose(recall, 2.0 / 3.0)
    assert np.isclose(precision, 2.0 / 3.0)
    assert np.isclose(fpr, 1.0 / 3.0)
    assert gate_score([True], [False]) == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        gate_score([True, False], [True])
