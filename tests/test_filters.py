"""Propagation and measurement models, validated with finite differences
against the mechanization and the measurement functions themselves."""

import numpy as np
import pytest

from swarmnav.filters import (
    GRAVITY,
    ImuSample,
    LinearMeasurement,
    NoiseDensities,
    UpdateRejected,
    bearing_measurement,
    feature_world_position,
    gnss_measurement,
    kalman_step,
    landmark_position_measurement,
    mechanize,
    propagate_covariance,
    stack_measurements,
    transition,
    transition_left,
    update,
)
from swarmnav.lie import ExtendedPose, so3_exp
from swarmnav.state import (
    CONVENTIONS,
    CameraClone,
    Feature,
    SystemState,
    error_between,
    retract,
)

rng = np.random.default_rng(11)


def random_nav_state(t=0.0, biases=True):
    return SystemState(
        nav=ExtendedPose(so3_exp(rng.uniform(-1.5, 1.5, 3)),
                         rng.uniform(-3, 3, 3), rng.uniform(-10, 10, 3)),
        gyro_bias=0.02 * rng.standard_normal(3) if biases else np.zeros(3),
        accel_bias=0.1 * rng.standard_normal(3) if biases else np.zeros(3),
        lever_arm=np.array([0.1, 0.0, 0.05]),
        clones=(), features=(), timestamp=t,
    )


def random_imu(state, t):
    omega = rng.uniform(-0.5, 0.5, 3)
    f = rng.uniform(-2, 2, 3) - state.nav.rotation.T @ GRAVITY
    return ImuSample(omega + state.gyro_bias, f + state.accel_bias, t)


# ----------------------------------------------------------------------
# mechanization


def test_mechanize_matches_substepped_integration():
    # The closed-form step is the exact ZOH solution, so splitting one step
    # into many sub-steps with the same constant sample must agree.
    state = random_nav_state()
    imu = random_imu(state, 0.1)
    coarse = mechanize(state, [imu]).state
    n = 200
    fine = mechanize(state, [ImuSample(imu.gyro, imu.accel, (k + 1) * 0.1 / n)
                             for k in range(n)]).state
    assert np.allclose(coarse.nav.rotation, fine.nav.rotation, atol=1e-12)
    assert np.allclose(coarse.nav.velocity, fine.nav.velocity, atol=1e-10)
    assert np.allclose(coarse.nav.position, fine.nav.position, atol=1e-10)


def test_mechanize_freefall():
    s = SystemState.identity()
    # Zero specific force: pure gravity.
    out = mechanize(s, [ImuSample(np.zeros(3), np.zeros(3), 2.0)]).state
    assert np.allclose(out.nav.velocity, GRAVITY * 2.0)
    assert np.allclose(out.nav.position, 0.5 * GRAVITY * 4.0)
    assert np.allclose(out.nav.rotation, np.eye(3))
    assert out.timestamp == 2.0


def test_mechanize_compensates_biases():
    s = random_nav_state()
    imu = random_imu(s, 0.01)
    unbiased = SystemState(nav=s.nav, gyro_bias=np.zeros(3), accel_bias=np.zeros(3),
                           lever_arm=s.lever_arm, clones=(), features=(),
                           timestamp=s.timestamp)
    imu0 = ImuSample(imu.gyro - s.gyro_bias, imu.accel - s.accel_bias, 0.01)
    a = mechanize(s, [imu]).state
    b = mechanize(unbiased, [imu0]).state
    assert np.allclose(a.nav.as_matrix(), b.nav.as_matrix(), atol=1e-14)


def test_mechanize_rejects_bad_dt():
    with pytest.raises(ValueError):
        mechanize(SystemState.identity(), [ImuSample(np.zeros(3), np.zeros(3), 0.0)])


# ----------------------------------------------------------------------
# transition matrices vs. finite differences of the mechanization


def numeric_transition(convention, truth, imu, eps=1e-6):
    """d(error after step)/d(error before step) by central differences."""
    truth_next = mechanize(truth, [imu]).state
    n = truth.error_dim
    J = np.zeros((n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = eps
        plus = mechanize(retract(truth, e, convention), [imu]).state
        minus = mechanize(retract(truth, -e, convention), [imu]).state
        J[:, k] = (error_between(truth_next, plus, convention)
                   - error_between(truth_next, minus, convention)) / (2 * eps)
    return J


@pytest.mark.parametrize("convention,tol", [("liekf", 2e-6), ("ekf", 2e-6),
                                            ("riekf", 1e-4)])
def test_transition_finite_difference(convention, tol):
    # The right-invariant matrix freezes the estimate over the step, so it
    # carries an O(dt^2) discretization remainder the others do not. The
    # left-invariant matrix is checked at zero bias because it linearizes at
    # the raw rates by design (see the note in transition); that
    # approximation is bounded separately below.
    for _ in range(3):
        truth = random_nav_state(biases=(convention != "liekf"))
        imu = random_imu(truth, 0.005)
        T = transition(convention, truth, imu, 0.005)
        J = numeric_transition(convention, truth, imu)
        assert np.max(np.abs(T.F - J)) < tol, convention


def test_transition_left_raw_rate_error_bounded():
    # With nonzero bias the raw-rate linearization differs from the true
    # Jacobian by no more than a small multiple of |bias| * dt.
    truth = random_nav_state(biases=True)
    imu = random_imu(truth, 0.005)
    T = transition("liekf", truth, imu, 0.005)
    J = numeric_transition("liekf", truth, imu)
    bound = 10.0 * max(np.max(np.abs(truth.gyro_bias)),
                       np.max(np.abs(truth.accel_bias))) * 0.005
    assert np.max(np.abs(T.F - J)) < bound


def test_transition_bias_coupling_signs():
    # Errors are estimate minus truth, which flips the usual sign of the
    # bias-coupling blocks: a positive gyro-bias error must rotate the
    # attitude error negatively.
    imu = ImuSample(np.array([0.1, -0.2, 0.3]), np.array([0.0, 0.0, 9.81]), 0.005)
    dt = 0.005
    F = transition_left([imu], [dt])[0].F
    assert np.allclose(F[0:3, 9:12], -np.eye(3) * dt, atol=1e-5)
    assert np.allclose(F[3:6, 12:15], -np.eye(3) * dt, atol=1e-5)
    s = random_nav_state()
    Fr = transition("riekf", s, imu, dt).F
    assert np.allclose(Fr[0:3, 9:12], -s.nav.rotation * dt, atol=1e-5)


def test_transition_left_state_independent():
    imu = ImuSample(np.array([0.3, 0.1, -0.2]), np.array([1.0, 0.0, 9.0]), 0.0)
    ref = transition_left([imu], [0.004])[0]
    for _ in range(10):
        again = transition_left([imu], [0.004])[0]
        assert np.array_equal(ref.F, again.F)
        assert np.array_equal(ref.G, again.G)


def test_left_invariant_log_linear_error_transport():
    # With no bias error the left-invariant navigation error propagates
    # exactly linearly through a step, not just to first order.
    truth = random_nav_state(biases=False)
    imu = random_imu(truth, 0.005)
    e = np.zeros(18)
    e[:9] = 0.2 * rng.standard_normal(9)
    est = retract(truth, e, "liekf")
    F = transition_left([imu], [0.005])[0].F
    e_next = error_between(mechanize(truth, [imu]).state,
                           mechanize(est, [imu]).state, "liekf")
    assert np.allclose(e_next, F @ e, atol=1e-11)


def test_transition_lever_arm_static():
    imu = ImuSample(rng.standard_normal(3), rng.standard_normal(3), 0.0)
    for convention in CONVENTIONS:
        F = transition(convention, random_nav_state(), imu, 0.01).F
        assert np.allclose(F[15:18, :], np.eye(18)[15:18, :])
        assert np.allclose(F[:15, 15:18], 0.0)


def test_transition_rejects_bad_dt():
    imu = ImuSample(np.zeros(3), np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        transition_left([imu], [-0.1])
    with pytest.raises(ValueError):
        transition("foo", random_nav_state(), imu, 0.01)


@pytest.mark.parametrize("convention", sorted(CONVENTIONS))
@pytest.mark.parametrize("dt", [float("nan"), 0.0, -0.01])
def test_every_convention_rejects_a_non_positive_or_nan_dt(convention, dt):
    imu = ImuSample(np.array([0.1, -0.2, 0.3]), np.array([0.0, 0.0, 9.81]), 0.0)
    with pytest.raises(ValueError):
        transition(convention, random_nav_state(), imu, dt)


def _segment_near_the_series_cutoff(state, n, scale, t0=0.0):
    """n IMU samples whose rotation increments all have the angle
    scale * 1e-4, where the EKF transition switches to its series."""
    samples = []
    t = t0
    for _ in range(n):
        dt = rng.uniform(1e-3, 1e-2)
        t += dt
        u = rng.standard_normal(3)
        w = scale * 1e-4 / dt * u / np.linalg.norm(u)
        samples.append(ImuSample(state.gyro_bias + w, rng.uniform(-12, 12, 3), t))
    return samples


@pytest.mark.parametrize("convention", sorted(CONVENTIONS))
def test_segment_transitions_match_one_sample_calls_byte_for_byte(convention):
    # Each stacked transition equals the same function called on its one
    # sample, dt and starting nav. The segments of 1..29 samples start with
    # one at exactly the gyro bias (a zero rotation increment), then up to
    # two just below the EKF series cutoff (angle 1e-4); three more lie
    # below it, above it and across it.
    step = CONVENTIONS[convention].transition
    segments = []
    for n in range(1, 30):
        state = random_nav_state()
        samples = [ImuSample(state.gyro_bias.copy(), rng.uniform(-12, 12, 3), 0.004)]
        samples += _segment_near_the_series_cutoff(state, min(n - 1, 2), 0.999, 0.004)
        samples += [random_imu(state, samples[-1].timestamp + 0.005 * (k + 1))
                    for k in range(n - len(samples))]
        segments.append((state, samples))
    for scale in (0.999, 1.001):
        state = random_nav_state()
        segments.append((state, _segment_near_the_series_cutoff(state, 7, scale)))
    state = random_nav_state()
    below = _segment_near_the_series_cutoff(state, 5, 0.999)
    segments.append((state, below + _segment_near_the_series_cutoff(
        state, 5, 1.001, below[-1].timestamp)))
    thetas = []
    for state, samples in segments:
        seg = mechanize(state, samples, GRAVITY)
        stacked = step(state, samples, seg.dts, seg.navs, GRAVITY)
        assert len(stacked) == len(samples)
        for imu, dt, nav, T in zip(samples, seg.dts, seg.navs, stacked):
            thetas.append(np.linalg.norm((imu.gyro - state.gyro_bias) * dt))
            (one,) = step(state, [imu], [dt], [nav], GRAVITY)
            assert T.F.tobytes() == one.F.tobytes()
            assert T.G.tobytes() == one.G.tobytes()
    thetas = np.array(thetas)
    assert np.any(thetas == 0.0)
    assert np.any((thetas > 0.99e-4) & (thetas < 1e-4))
    assert np.any((thetas > 1e-4) & (thetas < 1.01e-4))


# ----------------------------------------------------------------------
# covariance algebra


def test_propagate_covariance_formula():
    imu = ImuSample(rng.standard_normal(3), rng.standard_normal(3), 0.0)
    T = transition_left([imu], [0.01])[0]
    Q = NoiseDensities(1e-3, 1e-2, 1e-5, 1e-4).discrete_q(0.01)
    A = rng.standard_normal((18, 18))
    P = A @ A.T + np.eye(18)
    out = propagate_covariance(P, T, Q)
    expect = T.F @ P @ T.F.T + T.G @ Q @ T.G.T
    assert np.allclose(out, (expect + expect.T) / 2, atol=1e-12)
    with pytest.raises(ValueError):
        propagate_covariance(-np.eye(18), T, Q)


def test_discrete_q():
    nd = NoiseDensities(gyro_noise=0.1, accel_noise=0.2, gyro_walk=0.3, accel_walk=0.4)
    Q = nd.discrete_q(0.5)
    assert np.allclose(np.diag(Q)[:3], 0.1 ** 2 * 0.5)
    assert np.allclose(np.diag(Q)[6:9], 0.3 ** 2 * 0.5)
    assert np.allclose(np.diag(Q)[9:12], 0.4 ** 2 * 0.5)
    with pytest.raises(ValueError):
        NoiseDensities(gyro_noise=-1.0)


def test_kalman_step_matches_textbook():
    A = rng.standard_normal((6, 6))
    P = A @ A.T + np.eye(6)
    H = rng.standard_normal((2, 6))
    N = np.diag([0.1, 0.2])
    r = rng.standard_normal(2)
    K, IKH, P_post, xi = kalman_step(P, LinearMeasurement(r, H, N, 0.0))
    S = H @ P @ H.T + N
    K_ref = P @ H.T @ np.linalg.inv(S)
    assert np.allclose(K, K_ref, atol=1e-10)
    assert np.allclose(P_post, P - K_ref @ S @ K_ref.T, atol=1e-9)
    assert np.allclose(xi, K_ref @ r)
    assert np.allclose(IKH, np.eye(6) - K_ref @ H)


def test_kalman_step_rejects_singular():
    P = np.zeros((3, 3))
    meas = LinearMeasurement(np.zeros(2), np.zeros((2, 3)), np.zeros((2, 2)), 0.0)
    with pytest.raises(UpdateRejected):
        kalman_step(P, meas)
    with pytest.raises(ValueError):
        kalman_step(np.eye(4), LinearMeasurement(np.zeros(2), np.zeros((2, 3)),
                                                 np.eye(2), 0.0))


@pytest.mark.parametrize("m", [3, 42])
def test_kalman_step_matches_joseph_form_at_full_window(m):
    # D = 126 is the largest vision update (6 clones, 24 landmarks).
    D = 126
    A = rng.standard_normal((D, D))
    P = A @ A.T / D + 0.1 * np.eye(D)
    H = rng.standard_normal((m, D))
    N = np.diag(rng.uniform(0.05, 0.5, m))
    r = rng.standard_normal(m)
    K, Lam, P_post, xi = kalman_step(P, LinearMeasurement(r, H, N, 0.0))
    S = H @ P @ H.T + N
    K_ref = P @ H.T @ np.linalg.inv(S)
    IKH = np.eye(D) - K_ref @ H
    P_ref = IKH @ P @ IKH.T + K_ref @ N @ K_ref.T
    assert np.allclose(K, K_ref, rtol=1e-9, atol=1e-12)
    assert np.allclose(P_post, P_ref, rtol=1e-9, atol=1e-12)
    assert np.array_equal(P_post, P_post.T)
    assert np.allclose(xi, K_ref @ r, rtol=1e-9, atol=1e-12)
    assert Lam.shape == (18, 18)
    assert np.allclose(Lam, IKH[:18, :18], rtol=1e-9, atol=1e-12)


def test_kalman_step_rejects_ill_conditioned():
    # S = R here: positive definite, but with condition number 1e13.
    zero = LinearMeasurement(np.zeros(3), np.zeros((3, 3)),
                             np.diag([1.0, 1.0, 1e-13]), 0.0)
    with pytest.raises(UpdateRejected):
        kalman_step(np.eye(3), zero)
    ok = LinearMeasurement(np.zeros(3), np.zeros((3, 3)),
                           np.diag([1.0, 1.0, 1e-11]), 0.0)
    kalman_step(np.eye(3), ok)
    nan = LinearMeasurement(np.zeros(2), np.eye(2), np.full((2, 2), np.nan), 0.0)
    with pytest.raises(UpdateRejected):
        kalman_step(np.eye(2), nan)


def test_stack_measurements():
    m1 = LinearMeasurement(np.ones(2), np.ones((2, 5)), np.eye(2), 1.0)
    m2 = LinearMeasurement(2 * np.ones(3), 2 * np.ones((3, 5)), 2 * np.eye(3), 2.0)
    m = stack_measurements([m1, m2])
    assert m.residual.shape == (5,)
    assert m.H.shape == (5, 5)
    assert np.allclose(m.noise_cov[:2, 2:], 0.0)
    assert m.timestamp == 2.0
    with pytest.raises(ValueError):
        stack_measurements([])


# ----------------------------------------------------------------------
# measurement models vs. finite differences

# With est = retract(truth, e) and z emitted from the truth, the residual
# z - h(est) shrinks along -H e; the numeric derivative of the residual in
# e must equal -H.


def numeric_meas_jacobian(build, truth, convention, eps=1e-6):
    m0 = build(truth)
    n = truth.error_dim
    J = np.zeros((m0.residual.shape[0], n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = eps
        rp = build(retract(truth, e, convention)).residual
        rm = build(retract(truth, -e, convention)).residual
        J[:, k] = (rp - rm) / (2 * eps)
    return J


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_gnss_jacobian(convention):
    truth = random_nav_state()
    z = truth.nav.position + truth.nav.rotation @ truth.lever_arm

    def build(s):
        return gnss_measurement(s, z, 0.02, convention)

    H = build(truth).H
    J = numeric_meas_jacobian(build, truth, convention)
    assert np.max(np.abs(J + H)) < 1e-6
    assert np.allclose(build(truth).residual, 0.0, atol=1e-12)


def windowed_state():
    s = random_nav_state()
    clones = tuple(
        CameraClone(so3_exp(rng.uniform(-0.5, 0.5, 3)),
                    s.nav.position + rng.uniform(-2, 2, 3), float(i))
        for i in range(3)
    )
    feat = Feature(0, 1.0, np.array([0.2, -0.1, 0.12]))
    return SystemState(nav=s.nav, gyro_bias=s.gyro_bias, accel_bias=s.accel_bias,
                       lever_arm=s.lever_arm, clones=clones, features=(feat,),
                       timestamp=3.0)


def test_feature_world_position_jacobian():
    truth = windowed_state()
    p0, D = feature_world_position(truth, 0)
    eps = 1e-6
    for k in range(truth.error_dim):
        e = np.zeros(truth.error_dim)
        e[k] = eps
        pp, _ = feature_world_position(retract(truth, e), 0)
        pm, _ = feature_world_position(retract(truth, -e), 0)
        assert np.allclose((pp - pm) / (2 * eps), D[:, k], atol=1e-5)


def test_bearing_jacobian():
    truth = windowed_state()
    p_w, _ = feature_world_position(truth, 0)
    clone = truth.clones[2]
    X = clone.rotation.T @ (p_w - clone.position)
    if X[2] <= 0:  # make the landmark visible from the observing clone
        return
    uv = X[:2] / X[2]

    def build(s):
        return bearing_measurement(s, 2, 0, uv, 0.002)

    m = build(truth)
    assert np.allclose(m.residual, 0.0, atol=1e-12)
    J = numeric_meas_jacobian(build, truth, "liekf")
    assert np.max(np.abs(J + m.H)) < 1e-5
    # Convention independence: only clone/feature columns are populated.
    assert np.allclose(m.H[:, :18], 0.0)


def test_bearing_behind_camera_skipped():
    truth = windowed_state()
    p_w, _ = feature_world_position(truth, 0)
    clone = truth.clones[0]
    X = clone.rotation.T @ (p_w - clone.position)
    flipped = CameraClone(clone.rotation @ so3_exp(np.array([np.pi * 0.999, 0, 0])),
                          clone.position, clone.timestamp)
    s = SystemState(nav=truth.nav, gyro_bias=truth.gyro_bias,
                    accel_bias=truth.accel_bias, lever_arm=truth.lever_arm,
                    clones=(flipped,) + truth.clones[1:], features=truth.features,
                    timestamp=truth.timestamp)
    Xf = flipped.rotation.T @ (p_w - flipped.position)
    if Xf[2] <= 0:
        assert bearing_measurement(s, 0, 0, np.zeros(2), 0.002) is None


def test_landmark_position_jacobian():
    truth = windowed_state()
    z, _ = feature_world_position(truth, 0)

    def build(s):
        return landmark_position_measurement(s, 0, z, 0.01 * np.eye(3))

    m = build(truth)
    J = numeric_meas_jacobian(build, truth, "liekf")
    assert np.max(np.abs(J + m.H)) < 1e-5


def test_update_reduces_error():
    local = np.random.default_rng(1234)
    truth = SystemState(
        nav=ExtendedPose(so3_exp(local.uniform(-1, 1, 3)),
                         local.uniform(-3, 3, 3), local.uniform(-10, 10, 3)),
        gyro_bias=np.zeros(3), accel_bias=np.zeros(3),
        lever_arm=np.array([0.1, 0.0, 0.05]),
        clones=(), features=(), timestamp=0.0,
    )
    e = 0.1 * local.standard_normal(18)
    est = retract(truth, e, "liekf")
    P = 0.04 * np.eye(18)
    z = truth.nav.position + truth.nav.rotation @ truth.lever_arm
    meas = gnss_measurement(est, z, 1e-3, "liekf")
    res = update(est, P, meas, "liekf")
    before = np.linalg.norm(est.nav.position - truth.nav.position)
    after = np.linalg.norm(res.state.nav.position - truth.nav.position)
    assert after < before
    assert np.trace(res.covariance) < np.trace(P)
