"""Analytic trajectories: internal kinematic consistency and agreement
with the strapdown integrator fed the exact rate/force stream."""

import numpy as np
import pytest

from swarmnav.filters import GRAVITY, ImuSample, mechanize
from swarmnav.lie import ExtendedPose
from swarmnav.state import SystemState
from swarmnav.trajectories import (
    KINDS,
    TrajectorySpec,
    _spline_for,
    _spline_state,
    kinematics,
    truth_at,
)

WAYPOINTS = ((0.0, 0.0), (30.0, 5.0), (20.0, 25.0), (-5.0, 15.0))


def numeric_derivatives(spec, t, h=1e-5):
    pm, _, _ = truth_at(spec, t - h)
    p0, _, _ = truth_at(spec, t)
    pp, _, _ = truth_at(spec, t + h)
    v = (pp.position - pm.position) / (2 * h)
    a = (pp.position - 2 * p0.position + pm.position) / (h * h)
    return v, a


@pytest.mark.parametrize("spec", [
    TrajectorySpec(kind="circle", speed=2.0, size=20.0, duration=30.0),
    TrajectorySpec(kind="figure-eight", speed=2.0, size=15.0, duration=30.0),
    TrajectorySpec(kind="circle", speed=1.0, size=5.0, alt_amplitude=2.0,
                   duration=30.0),
])
def test_velocity_and_force_consistent(spec):
    for t in (1.0, 7.3, 15.0, 22.9):
        pose, omega, f = truth_at(spec, t)
        v_num, a_num = numeric_derivatives(spec, t)
        assert np.allclose(pose.velocity, v_num, atol=1e-5)
        # The specific force in the body frame must map back to the inertial
        # acceleration minus gravity.
        assert np.allclose(pose.rotation @ f, a_num - GRAVITY, atol=1e-3)


def test_circle_geometry():
    spec = TrajectorySpec(kind="circle", speed=2.0, size=10.0, duration=60.0,
                          center=(5.0, -3.0))
    for t in np.linspace(0, 60, 13):
        pose, omega, _ = truth_at(spec, t)
        r = np.linalg.norm(pose.position[:2] - np.array([5.0, -3.0]))
        assert np.isclose(r, 10.0, atol=1e-9)
        assert np.isclose(np.linalg.norm(pose.velocity), 2.0, atol=1e-9)
        assert np.isclose(omega[2], 0.2, atol=1e-9)  # yaw rate = v / r
        assert omega[0] == omega[1] == 0.0


def test_heading_along_velocity():
    spec = TrajectorySpec(kind="circle", speed=3.0, size=12.0, duration=30.0)
    pose, _, _ = truth_at(spec, 4.2)
    body_x = pose.rotation[:, 0]
    v_dir = pose.velocity / np.linalg.norm(pose.velocity)
    assert np.allclose(body_x, v_dir, atol=1e-9)


def test_hover_waypoint():
    spec = TrajectorySpec(kind="waypoint-spline", waypoints=((2.0, 3.0),),
                          speed=1.0, duration=10.0, phase=0.7, altitude=5.0)
    pose, omega, f = truth_at(spec, 3.0)
    assert np.allclose(pose.position, [2.0, 3.0, 5.0])
    assert np.allclose(pose.velocity, 0.0)
    assert np.allclose(omega, 0.0)
    assert np.allclose(pose.rotation @ f, -GRAVITY, atol=1e-12)


def test_square_closes_and_is_smooth():
    spec = TrajectorySpec(kind="square", speed=2.0, size=10.0, duration=60.0)
    p0, _, _ = truth_at(spec, 0.0)
    # The perimeter is 40 m at 2 m/s: one lap every 20 s.
    p1, _, _ = truth_at(spec, 20.0)
    assert np.allclose(p0.position, p1.position, atol=1e-6)
    v_num, _ = numeric_derivatives(spec, 7.7)
    pose, _, _ = truth_at(spec, 7.7)
    assert np.allclose(pose.velocity, v_num, atol=1e-4)


def test_strapdown_reproduces_trajectory():
    # Integrating the exact midpoint rate/force stream at 200 Hz must track
    # the analytic positions to well under a millimeter over 30 s.
    spec = TrajectorySpec(kind="circle", speed=2.0, size=20.0, duration=30.0)
    pose0, _, _ = truth_at(spec, 0.0)
    state = SystemState(
        nav=pose0, gyro_bias=np.zeros(3), accel_bias=np.zeros(3),
        lever_arm=np.zeros(3), timestamp=0.0,
    )
    dt = 1.0 / 200.0
    for k in range(1, 6001):
        t = k * dt
        _, omega, f = truth_at(spec, t - dt / 2.0)
        state = mechanize(state, [ImuSample(omega, f, t)]).state
    truth_end, _, _ = truth_at(spec, 30.0)
    assert np.linalg.norm(state.nav.position - truth_end.position) < 1e-3
    assert np.linalg.norm(state.nav.velocity - truth_end.velocity) < 1e-3


def test_truth_states_helper():
    # The stacked truth that the sensor streams and the record handler read
    # equals truth_at at each time, bit for bit.
    times = np.array([0.0, 2.5, 5.0, 10.0])
    for kind in KINDS:
        spec = TrajectorySpec(kind=kind, duration=10.0, waypoints=WAYPOINTS
                              if kind == "waypoint-spline" else None)
        stacked = kinematics(spec, times)
        for k, t in enumerate(times):
            pose, omega, f = truth_at(spec, t)
            assert isinstance(pose, ExtendedPose)
            for got, want in zip(stacked, (pose.rotation, pose.velocity, pose.position, omega, f)):
                assert np.array_equal(got[k], want), (kind, t)


def test_spec_validation():
    with pytest.raises(ValueError):
        TrajectorySpec(kind="spiral")
    with pytest.raises(ValueError):
        TrajectorySpec(speed=-1.0)
    with pytest.raises(ValueError):
        TrajectorySpec(kind="waypoint-spline")
    spec = TrajectorySpec(duration=5.0)
    with pytest.raises(ValueError):
        truth_at(spec, 6.0)
    with pytest.raises(ValueError):
        truth_at(spec, -0.1)
    for times in ([0.0, 5.0 + 1e-9], [-1e-9, 2.0]):
        with pytest.raises(ValueError):
            truth_at(spec, np.array(times))


def test_spline_cache_follows_the_spec_value():
    # Each spec is freed before the next is built, so a cache keyed by
    # id() would hand many of them a previous spec's spline. The first
    # knot of a square centered at the origin is its corner (-a/2, -a/2).
    for k in range(200):
        size = 10.0 + 0.5 * k
        pose, _, _ = truth_at(TrajectorySpec(kind="square", size=size, duration=30.0), 0.0)
        assert np.allclose(pose.position[:2], -size / 2.0, atol=1e-9), size


def test_spline_matches_scipy_periodic_cubic_spline():
    # SciPy is a test-only reference: on the square and on a 4-point
    # waypoint spline, the value and both derivatives are within 1e-13 of
    # CubicSpline(..., bc_type="periodic"), max |error| / max |value|.
    from scipy.interpolate import CubicSpline
    for spec in (TrajectorySpec(kind="square", duration=100.0),
                 TrajectorySpec(kind="waypoint-spline", duration=100.0,
                                center=(3.0, -4.0), waypoints=WAYPOINTS)):
        t_knots, coef = _spline_for(spec)
        ref = CubicSpline(t_knots, np.vstack([coef[0], coef[0][:1]]), bc_type="periodic")
        tau = np.linspace(0.0, t_knots[-1], 2001)
        for order, got in enumerate(_spline_state(t_knots, coef, tau)):
            want = ref(tau, order)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), \
                (spec.kind, order)
