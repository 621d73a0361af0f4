"""Sensor synthesis: noiseless streams equal the analytic truth, noise is
seed-deterministic with the expected statistics."""

import numpy as np
import pytest

from swarmnav.filters import NoiseDensities
from swarmnav.sensors import (
    LandmarkMap,
    SensorSuite,
    grid_landmarks,
    inject_outliers,
    synthesize_bearings,
    synthesize_gnss,
    synthesize_imu,
)
from swarmnav.trajectories import TrajectorySpec, truth_at

SPEC = TrajectorySpec(kind="circle", speed=2.0, size=20.0, duration=10.0)


def quiet_suite(**kw):
    return SensorSuite(noise=NoiseDensities(), gnss_sigma=0.0, pixel_sigma=0.0, **kw)


def test_noiseless_imu_equals_truth():
    suite = quiet_suite()
    samples = synthesize_imu(SPEC, suite, seed=0)
    assert len(samples) == 2000
    for k in range(0, 2000, 200):
        _, omega, f = truth_at(SPEC, samples.times[k] - 0.5 / suite.imu_rate)
        assert np.allclose(samples.gyro[k], omega, atol=1e-12)
        assert np.allclose(samples.accel[k], f, atol=1e-12)


def test_imu_determinism_and_seed_sensitivity():
    suite = SensorSuite(noise=NoiseDensities(1e-3, 1e-2, 1e-5, 1e-4))
    a = synthesize_imu(SPEC, suite, seed=5)
    b = synthesize_imu(SPEC, suite, seed=5)
    c = synthesize_imu(SPEC, suite, seed=6)
    assert np.array_equal(a.gyro, b.gyro)
    assert not np.array_equal(a.gyro, c.gyro)


def test_imu_noise_scale():
    # White-noise density sigma over rate fs gives per-sample std
    # sigma * sqrt(fs).
    nd = NoiseDensities(gyro_noise=1e-3)
    suite = SensorSuite(noise=nd)
    long_spec = TrajectorySpec(kind="circle", speed=2.0, size=20.0, duration=50.0)
    samples = synthesize_imu(long_spec, suite, seed=1)
    _, omega, _ = truth_at(long_spec, samples.times - 0.5 / suite.imu_rate)
    std = np.std(samples.gyro - omega)
    assert np.isclose(std, 1e-3 * np.sqrt(200.0), rtol=0.05)


def test_gnss_measures_antenna_not_imu():
    suite = quiet_suite(lever_arm=(0.5, 0.0, 0.2))
    fixes = synthesize_gnss(SPEC, suite, seed=0)
    assert len(fixes) == 100
    for fix in fixes[::10]:
        pose, _, _ = truth_at(SPEC, fix.timestamp)
        expect = pose.position + pose.rotation @ np.array([0.5, 0.0, 0.2])
        assert np.allclose(fix.position, expect, atol=1e-12)
        assert not fix.is_outlier


def test_gnss_noise_statistics():
    suite = SensorSuite(noise=NoiseDensities(), gnss_sigma=0.5, gnss_rate=50.0)
    long_spec = TrajectorySpec(kind="circle", speed=2.0, size=20.0, duration=60.0)
    fixes = synthesize_gnss(long_spec, suite, seed=2)
    resid = []
    for fix in fixes:
        pose, _, _ = truth_at(long_spec, fix.timestamp)
        resid.append(fix.position - pose.position
                     - pose.rotation @ np.asarray(suite.lever_arm))
    resid = np.array(resid)
    assert np.abs(resid.mean(axis=0)).max() < 0.05
    assert np.allclose(resid.std(axis=0), 0.5, rtol=0.1)


def test_bearings_noiseless_reprojection():
    lmap = LandmarkMap(((0, np.array([20.0, 0.0, 0.0])),
                        (1, np.array([0.0, 20.0, 2.0]))))
    suite = quiet_suite()
    frames = synthesize_bearings(SPEC, suite, lmap, seed=0)
    R_ic, p_ic = suite.camera_extrinsics
    checked = 0
    for fr in frames:
        pose, _, _ = truth_at(SPEC, fr.timestamp)
        R_c = pose.rotation @ R_ic
        p_c = pose.position + pose.rotation @ p_ic
        for lid, uv in fr.observations:
            pw = dict(lmap.points)[lid]
            X = R_c.T @ (pw - p_c)
            assert X[2] > suite.min_depth
            assert np.allclose(uv, X[:2] / X[2], atol=1e-12)
            assert np.max(np.abs(uv)) <= suite.fov_half_tangent
            checked += 1
    assert checked > 50


def test_bearings_snap_to_grid():
    suite = quiet_suite(camera_rate=30.0)
    lmap = LandmarkMap(((0, np.array([20.0, 0.0, 0.0])),))
    frames = synthesize_bearings(SPEC, suite, lmap, seed=0, snap_rate=200.0)
    for fr in frames:
        assert np.isclose(round(fr.timestamp * 200.0), fr.timestamp * 200.0)
    ts = [fr.timestamp for fr in frames]
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_depth_and_fov_culling():
    # One landmark right under the start pose but below min depth, one far
    # beyond max depth.
    suite = quiet_suite(min_depth=0.5, max_depth=80.0)
    pose0, _, _ = truth_at(SPEC, 1.0 / suite.camera_rate)
    near = pose0.position - np.array([0.0, 0.0, 0.2])
    far = pose0.position - np.array([0.0, 0.0, 200.0])
    lmap = LandmarkMap(((0, near), (1, far)))
    frames = synthesize_bearings(SPEC, suite, lmap, seed=0)
    seen = {lid for fr in frames[:1] for lid, _ in fr.observations}
    assert 0 not in seen and 1 not in seen


def test_bearing_noise_follows_map_order():
    # Each visible landmark draws its two pixel-noise normals in map order,
    # as in one draw per landmark; the projections are the per-landmark
    # ones, bit for bit.
    suite = SensorSuite(pixel_sigma=0.01)
    lmap = grid_landmarks((0.0, 0.0), 40.0, 60, (-5.0, 30.0), seed=2)
    frames = synthesize_bearings(SPEC, suite, lmap, seed=7)
    rng = np.random.default_rng(7)
    R_ic, p_ic = suite.camera_extrinsics
    visible = 0
    for fr in frames:
        pose, _, _ = truth_at(SPEC, fr.timestamp)
        R_c = pose.rotation @ R_ic
        p_c = pose.position + pose.rotation @ p_ic
        expected = []
        for lid, pw in lmap.points:
            X = R_c.T @ (pw - p_c)
            if suite.min_depth < X[2] < suite.max_depth:
                uv = X[:2] / X[2]
                if np.max(np.abs(uv)) <= suite.fov_half_tangent:
                    expected.append((lid, uv + suite.pixel_sigma * rng.standard_normal(2)))
        assert [lid for lid, _ in fr.observations] == [lid for lid, _ in expected]
        for (_, uv), (_, ref) in zip(fr.observations, expected):
            assert uv.tobytes() == ref.tobytes()
        visible += len(expected)
    assert 0 < visible < 60 * len(frames)


def test_grid_landmarks():
    lmap = grid_landmarks((1.0, 2.0), 10.0, 25, (0.0, 3.0), seed=3)
    assert len(lmap.points) == 25
    for lid, p in lmap.points:
        assert abs(p[0] - 1.0) <= 10.0 and abs(p[1] - 2.0) <= 10.0
        assert 0.0 <= p[2] <= 3.0
    again = grid_landmarks((1.0, 2.0), 10.0, 25, (0.0, 3.0), seed=3)
    assert all(np.array_equal(a[1], b[1]) for a, b in zip(lmap.points, again.points))


def test_landmark_ids_unique():
    with pytest.raises(ValueError):
        LandmarkMap(((0, np.zeros(3)), (0, np.ones(3))))


def test_inject_outliers():
    suite = quiet_suite()
    fixes = synthesize_gnss(SPEC, suite, seed=0)
    out = inject_outliers(fixes, rate=0.3, magnitude=10.0, seed=7)
    flagged = [f for f in out if f.is_outlier]
    assert 10 <= len(flagged) <= 50  # Bernoulli(0.3) of 100
    for f, orig in zip(out, fixes):
        if f.is_outlier:
            assert np.isclose(np.linalg.norm(f.position - orig.position), 10.0)
        else:
            assert np.array_equal(f.position, orig.position)
    assert [f.is_outlier for f in inject_outliers(fixes, 0.3, 10.0, 7)] \
        == [f.is_outlier for f in out]
    with pytest.raises(ValueError):
        inject_outliers(fixes, 1.5, 10.0, 0)


def test_suite_validation():
    with pytest.raises(ValueError):
        SensorSuite(imu_rate=0.0)
    with pytest.raises(ValueError):
        SensorSuite(gnss_rate=-1.0)
