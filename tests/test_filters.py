"""Propagation and measurement models, validated with finite differences
against the mechanization and the measurement functions themselves."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmnav.filters import (
    GRAVITY,
    ImuStream,
    LinearMeasurement,
    NoiseDensities,
    Strapdown,
    TransitionPair,
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
)
from swarmnav.conventions import _THETA
from swarmnav.lie import ExtendedPose, skew, so3_exp, so3_gamma2, so3_left_jacobian
from swarmnav.state import (
    CONVENTIONS,
    CORE_DIM,
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
        timestamp=t,
    )


def one_sample(gyro, accel, t):
    """A one-sample IMU stream."""
    return ImuStream(np.array([t], dtype=float), np.array([gyro], dtype=float),
                     np.array([accel], dtype=float))


def stream_of(samples):
    """An IMU stream from (gyro, accel, t) triples."""
    gyro, accel, times = zip(*samples)
    return ImuStream(np.array(times, dtype=float), np.array(gyro, dtype=float),
                     np.array(accel, dtype=float))


def left_step(imu, dt):
    """The left-invariant transition of a one-sample stream, from its raw
    rates."""
    T = transition_left(imu.gyro, imu.accel, np.array([dt]))
    return TransitionPair(T.F[0], T.G[0])


def random_rates(state):
    omega = rng.uniform(-0.5, 0.5, 3)
    f = rng.uniform(-2, 2, 3) - state.nav.rotation.T @ GRAVITY
    return omega + state.gyro_bias, f + state.accel_bias


def random_imu(state, t):
    return one_sample(*random_rates(state), t)


def rates(imu):
    """The raw rate and force of a one-sample stream."""
    return imu.gyro[0], imu.accel[0]


# ----------------------------------------------------------------------
# mechanization


def test_mechanize_matches_substepped_integration():
    # The closed-form step is the exact ZOH solution, so splitting one step
    # into many sub-steps with the same constant sample must agree.
    state = random_nav_state()
    imu = random_imu(state, 0.1)
    coarse = mechanize(state, imu).state
    n = 200
    fine = mechanize(state, stream_of((*rates(imu), (k + 1) * 0.1 / n)
                                      for k in range(n))).state
    assert np.allclose(coarse.nav.rotation, fine.nav.rotation, atol=1e-12)
    assert np.allclose(coarse.nav.velocity, fine.nav.velocity, atol=1e-10)
    assert np.allclose(coarse.nav.position, fine.nav.position, atol=1e-10)


def test_mechanize_freefall():
    s = SystemState.identity()
    # Zero specific force: pure gravity.
    out = mechanize(s, one_sample(np.zeros(3), np.zeros(3), 2.0)).state
    assert np.allclose(out.nav.velocity, GRAVITY * 2.0)
    assert np.allclose(out.nav.position, 0.5 * GRAVITY * 4.0)
    assert np.allclose(out.nav.rotation, np.eye(3))
    assert out.timestamp == 2.0


def test_mechanize_compensates_biases():
    s = random_nav_state()
    imu = random_imu(s, 0.01)
    unbiased = SystemState(nav=s.nav, gyro_bias=np.zeros(3), accel_bias=np.zeros(3),
                           lever_arm=s.lever_arm, timestamp=s.timestamp)
    imu0 = one_sample(imu.gyro[0] - s.gyro_bias, imu.accel[0] - s.accel_bias, 0.01)
    a = mechanize(s, imu).state
    b = mechanize(unbiased, imu0).state
    assert np.allclose(a.nav.as_matrix(), b.nav.as_matrix(), atol=1e-14)


def test_mechanize_rejects_bad_dt():
    # A non-increasing or NaN sample time raises, naming it and the time
    # before it (the state's, for the first sample).
    for times, bad, before in (([0.0], "0.0", "0.0"), ([0.1, 0.2, 0.2], "0.2", "0.2"),
                               ([0.1, float("nan")], "nan", "0.1")):
        imu = stream_of((np.zeros(3), np.zeros(3), t) for t in times)
        with pytest.raises(ValueError, match=f"t={bad} is not after t={before}"):
            mechanize(SystemState.identity(), imu)


def _stepwise_mechanize(state, samples, gravity):
    """The one-step-at-a-time composition that `mechanize` replaced with
    stacked passes, kept as the reference for its bits: each step runs from
    the clock the one before it left, its sample's time."""
    dts = []
    t = state.timestamp
    for t_k in samples.times.tolist():
        dts.append(t_k - t)
        t = t_k
    n = len(dts)
    g = np.asarray(gravity, dtype=float)
    steps = np.array(dts)
    dt_col = steps[:, None]
    gyro, accel = samples.gyro, samples.accel
    psi = (gyro - state.gyro_bias) * dt_col
    a = accel - state.accel_bias
    Gamma, J1, G2 = so3_exp(psi), so3_left_jacobian(psi), so3_gamma2(psi)
    J1a = (J1 @ a[:, :, None])[:, :, 0]
    G2a = (G2 @ a[:, :, None])[:, :, 0]
    g_dt = g * dt_col
    g_dt2 = 0.5 * g * dt_col * dt_col
    R, v, p = state.nav.rotation, state.nav.velocity, state.nav.position
    Rs, vs, ps = np.empty((n, 3, 3)), np.empty((n, 3)), np.empty((n, 3))
    for k, dt in enumerate(dts):
        Rs[k], vs[k], ps[k] = R, v, p
        R, v, p = (R @ Gamma[k],
                   v + R @ J1a[k] * dt + g_dt[k],
                   p + v * dt + R @ G2a[k] * dt * dt + g_dt2[k])
    return Strapdown(replace(state, nav=ExtendedPose(R, v, p), timestamp=t),
                     steps, gyro, accel, psi, a, Gamma, J1, G2, J1a, G2a,
                     Rs, vs, ps, g)


# Per sample: a random rate, a rate at exactly the gyro bias (a zero
# rotation increment), or one whose increment angle sits just below or just
# above the so3 series cutoff (1e-7 rad).
_SAMPLE_KINDS = st.lists(st.sampled_from(["random", "at_bias", "below", "above"]),
                         min_size=1, max_size=40)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(kinds=_SAMPLE_KINDS, seed=st.integers(0, 2 ** 32 - 1))
def test_mechanize_matches_the_stepwise_composition_bit_for_bit(kinds, seed):
    rg = np.random.default_rng(seed)
    state = SystemState(
        nav=ExtendedPose(so3_exp(rg.uniform(-2, 2, 3)), rg.uniform(-5, 5, 3),
                         rg.uniform(-50, 50, 3)),
        gyro_bias=0.02 * rg.standard_normal(3), accel_bias=0.1 * rg.standard_normal(3),
        lever_arm=np.zeros(3), timestamp=rg.uniform(0.0, 100.0))
    t = state.timestamp
    samples = []
    for kind in kinds:
        dt = rg.uniform(1e-3, 1e-2)
        t = t + dt
        u = rg.standard_normal(3)
        u = u / np.linalg.norm(u)
        w = {"random": rg.uniform(-1.0, 1.0, 3), "at_bias": np.zeros(3),
             "below": 0.999e-7 / dt * u, "above": 1.001e-7 / dt * u}[kind]
        samples.append((state.gyro_bias + w, rg.uniform(-12, 12, 3), t))
    samples = stream_of(samples)
    seg = mechanize(state, samples, GRAVITY)
    theta = np.linalg.norm(seg.psi, axis=1)
    for kind, th in zip(kinds, theta):
        assert {"random": th > 1e-7, "at_bias": th == 0.0,
                "below": 0.0 < th < 1e-7, "above": 1e-7 < th < 1.01e-7}[kind]
    ref = _stepwise_mechanize(state, samples, GRAVITY)
    for field in Strapdown._fields[1:]:
        assert getattr(seg, field).tobytes() == getattr(ref, field).tobytes(), field
    nav, ref_nav = seg.state.nav, ref.state.nav
    for name in ("rotation", "velocity", "position"):
        assert getattr(nav, name).tobytes() == getattr(ref_nav, name).tobytes(), name
    assert seg.state.timestamp == ref.state.timestamp
    # The state's arrays are its own: they neither alias the record's
    # writable stacks nor keep the arrays those stacks are views of alive.
    for stack in (seg.R, seg.v, seg.p):
        assert stack.flags.writeable
        owner = stack if stack.base is None else stack.base
        for a in (nav.rotation, nav.velocity, nav.position):
            assert not np.shares_memory(owner, a)


# ----------------------------------------------------------------------
# transition matrices vs. finite differences of the mechanization


def numeric_transition(convention, truth, imu, eps=1e-6):
    """d(error after step)/d(error before step) by central differences."""
    truth_next = mechanize(truth, imu).state
    n = truth.error_dim
    J = np.zeros((n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = eps
        plus = mechanize(retract(truth, e, convention), imu).state
        minus = mechanize(retract(truth, -e, convention), imu).state
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
        T = transition(convention, truth, *rates(imu), 0.005)
        J = numeric_transition(convention, truth, imu)
        assert np.max(np.abs(T.F - J)) < tol, convention


def test_transition_left_raw_rate_error_bounded():
    # With nonzero bias the raw-rate linearization differs from the true
    # Jacobian by no more than a small multiple of |bias| * dt.
    truth = random_nav_state(biases=True)
    imu = random_imu(truth, 0.005)
    T = transition("liekf", truth, *rates(imu), 0.005)
    J = numeric_transition("liekf", truth, imu)
    bound = 10.0 * max(np.max(np.abs(truth.gyro_bias)),
                       np.max(np.abs(truth.accel_bias))) * 0.005
    assert np.max(np.abs(T.F - J)) < bound


def test_transition_bias_coupling_signs():
    # Errors are estimate minus truth, which flips the usual sign of the
    # bias-coupling blocks: a positive gyro-bias error must rotate the
    # attitude error negatively.
    imu = one_sample(np.array([0.1, -0.2, 0.3]), np.array([0.0, 0.0, 9.81]), 0.005)
    dt = 0.005
    F = left_step(imu, dt).F
    assert np.allclose(F[0:3, 9:12], -np.eye(3) * dt, atol=1e-5)
    assert np.allclose(F[3:6, 12:15], -np.eye(3) * dt, atol=1e-5)
    s = random_nav_state()
    Fr = transition("riekf", s, *rates(imu), dt).F
    assert np.allclose(Fr[0:3, 9:12], -s.nav.rotation * dt, atol=1e-5)


def test_transition_left_state_independent():
    imu = one_sample(np.array([0.3, 0.1, -0.2]), np.array([1.0, 0.0, 9.0]), 0.0)
    ref = left_step(imu, 0.004)
    for _ in range(10):
        again = left_step(imu, 0.004)
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
    F = left_step(imu, 0.005).F
    e_next = error_between(mechanize(truth, imu).state,
                           mechanize(est, imu).state, "liekf")
    assert np.allclose(e_next, F @ e, atol=1e-11)


def test_transition_lever_arm_static():
    gyro, accel = rng.standard_normal(3), rng.standard_normal(3)
    for convention in CONVENTIONS:
        F = transition(convention, random_nav_state(), gyro, accel, 0.01).F
        assert np.allclose(F[15:18, :], np.eye(18)[15:18, :])
        assert np.allclose(F[:15, 15:18], 0.0)


def test_transition_rejects_bad_dt():
    with pytest.raises(ValueError):
        transition("liekf", random_nav_state(), np.zeros(3), np.zeros(3), -0.1)
    with pytest.raises(ValueError):
        transition("foo", random_nav_state(), np.zeros(3), np.zeros(3), 0.01)


@pytest.mark.parametrize("convention", sorted(CONVENTIONS))
@pytest.mark.parametrize("dt", [float("nan"), 0.0, -0.01])
def test_every_convention_rejects_a_non_positive_or_nan_dt(convention, dt):
    with pytest.raises(ValueError):
        transition(convention, random_nav_state(), np.array([0.1, -0.2, 0.3]),
                   np.array([0.0, 0.0, 9.81]), dt)


def _segment_near_the_series_cutoff(state, n, scale, t0=0.0):
    """n IMU samples, as (gyro, accel, t), whose rotation increments all have
    the angle scale * 1e-4, where the EKF transition switches to its series."""
    samples = []
    t = t0
    for _ in range(n):
        dt = rng.uniform(1e-3, 1e-2)
        t += dt
        u = rng.standard_normal(3)
        w = scale * 1e-4 / dt * u / np.linalg.norm(u)
        samples.append((state.gyro_bias + w, rng.uniform(-12, 12, 3), t))
    return samples


@pytest.mark.parametrize("convention", sorted(CONVENTIONS))
def test_segment_transitions_match_one_sample_calls_byte_for_byte(convention):
    # Each stacked transition equals the same function formed from a
    # one-sample mechanization of its sample from the same start pose and
    # clock. The segments of 1..29 samples start with one at exactly the
    # gyro bias (a zero rotation increment), then up to two just below the
    # EKF series cutoff (angle 1e-4); three more lie below it, above it and
    # across it.
    step = CONVENTIONS[convention].transition
    segments = []
    for n in range(1, 30):
        state = random_nav_state()
        samples = [(state.gyro_bias.copy(), rng.uniform(-12, 12, 3), 0.004)]
        samples += _segment_near_the_series_cutoff(state, min(n - 1, 2), 0.999, 0.004)
        samples += [(*random_rates(state), samples[-1][2] + 0.005 * (k + 1))
                    for k in range(n - len(samples))]
        segments.append((state, samples))
    for scale in (0.999, 1.001):
        state = random_nav_state()
        segments.append((state, _segment_near_the_series_cutoff(state, 7, scale)))
    state = random_nav_state()
    below = _segment_near_the_series_cutoff(state, 5, 0.999)
    segments.append((state, below + _segment_near_the_series_cutoff(
        state, 5, 1.001, below[-1][2])))
    thetas = []
    for state, triples in segments:
        samples = stream_of(triples)
        seg = mechanize(state, samples, GRAVITY)
        stacked = step(seg)
        assert len(stacked.F) == len(stacked.G) == len(samples)
        clock = state.timestamp
        for k, (dt, F, G) in enumerate(zip(seg.dts, stacked.F, stacked.G)):
            imu = samples[k:k + 1]
            thetas.append(np.linalg.norm((imu.gyro[0] - state.gyro_bias) * dt))
            start = replace(state, nav=ExtendedPose(seg.R[k], seg.v[k], seg.p[k]),
                            timestamp=clock)
            one_seg = mechanize(start, imu, GRAVITY)
            assert one_seg.dts[0] == dt
            clock = one_seg.state.timestamp
            one = step(one_seg)
            assert F.tobytes() == one.F.tobytes()
            assert G.tobytes() == one.G.tobytes()
    thetas = np.array(thetas)
    assert np.any(thetas == 0.0)
    assert np.any((thetas > 0.99e-4) & (thetas < 1e-4))
    assert np.any((thetas > 1e-4) & (thetas < 1.01e-4))


def _stress_segment(rg, n=60):
    """A start state and n IMU samples with step lengths log-uniform in
    [1e-3, 0.5] s and body rates up to 3 rad/s, so that the generators'
    1-norms lie on both sides of the exponential's scaling threshold."""
    state = SystemState(
        nav=ExtendedPose(so3_exp(rg.uniform(-1.5, 1.5, 3)), rg.uniform(-3, 3, 3),
                         rg.uniform(-10, 10, 3)),
        gyro_bias=0.02 * rg.standard_normal(3), accel_bias=0.1 * rg.standard_normal(3),
        lever_arm=np.array([0.1, 0.0, 0.05]), timestamp=0.0,
    )
    dts = np.exp(rg.uniform(np.log(1e-3), np.log(0.5), n))
    u = rg.standard_normal((n, 3))
    w = u / np.linalg.norm(u, axis=1, keepdims=True) * rg.uniform(0.0, 3.0, (n, 1))
    samples = stream_of((state.gyro_bias + w_k, rg.uniform(-12, 12, 3), t)
                        for w_k, t in zip(w, np.cumsum(dts)))
    return state, samples


def _generators(convention, seg):
    """Each step's 15x15 generator A times its dt, from the textbook
    blocks: what the reference exponential is taken of."""
    n = len(seg.dts)
    A = np.zeros((n, 15, 15))
    if convention == "liekf":
        Sw = skew(seg.gyro)
        A[:, 0:3, 0:3] = -Sw
        A[:, 3:6, 0:3] = -skew(seg.accel)
        A[:, 3:6, 3:6] = -Sw
        A[:, 6:9, 6:9] = -Sw
        A[:, 0:3, 9:12] = -np.eye(3)
        A[:, 3:6, 12:15] = -np.eye(3)
    else:
        R = seg.R
        A[:, 3:6, 0:3] = skew(seg.gravity)
        A[:, 0:3, 9:12] = -R
        A[:, 3:6, 9:12] = -skew(seg.v) @ R
        A[:, 6:9, 9:12] = -skew(seg.p) @ R
        A[:, 3:6, 12:15] = -R
    A[:, 6:9, 3:6] = np.eye(3)
    return A * seg.dts[:, None, None]


@pytest.mark.parametrize("convention", ["liekf", "riekf"])
def test_stacked_transitions_across_the_scaling_threshold_match_one_sample_calls(convention):
    # Each matrix of a stack is scaled by its own 1-norm. A degree or a
    # scaling chosen from the stack's largest norm would make a sample's F
    # depend on the other samples of its segment, and buffered transitions
    # would then differ from what a rewind recomputes.
    rg = np.random.default_rng(19)
    state, samples = _stress_segment(rg)
    seg = mechanize(state, samples, GRAVITY)
    norms = np.abs(_generators(convention, seg)).sum(axis=-2).max(axis=-1)
    assert norms.min() < _THETA and norms.max() > 8.0 * _THETA
    step = CONVENTIONS[convention].transition
    clock = state.timestamp
    stacked = step(seg)
    for k, (F, G) in enumerate(zip(stacked.F, stacked.G)):
        start = replace(state, nav=ExtendedPose(seg.R[k], seg.v[k], seg.p[k]),
                        timestamp=clock)
        one_seg = mechanize(start, samples[k:k + 1], GRAVITY)
        assert one_seg.dts[0] == seg.dts[k]
        clock = one_seg.state.timestamp
        one = step(one_seg)
        assert F.tobytes() == one.F.tobytes()
        assert G.tobytes() == one.G.tobytes()


def _a1_segments():
    """A1's 1,000 samples and step lengths (test_acceptance.py: same seed,
    same draws in the same order), each mechanized from the first of its 10
    random linearization states."""
    rg = np.random.default_rng(2024)
    for _ in range(1000):
        gyro, accel = rg.uniform(-1, 1, 3), rg.uniform(-12, 12, 3)
        dt = rg.uniform(1e-3, 1e-2)
        states = [SystemState(
            nav=ExtendedPose(so3_exp(rg.uniform(-2, 2, 3)), rg.uniform(-5, 5, 3),
                             rg.uniform(-50, 50, 3)),
            gyro_bias=0.01 * rg.standard_normal(3),
            accel_bias=0.05 * rg.standard_normal(3),
            lever_arm=np.array([0.1, 0.0, 0.05]),
            timestamp=0.0,
        ) for _ in range(10)]
        yield mechanize(states[0], one_sample(gyro, accel, dt), GRAVITY)


@pytest.mark.parametrize("convention", ["liekf", "riekf"])
def test_transitions_match_scipy_expm(convention):
    # SciPy is a test-only reference: on A1's samples and on the stress
    # stack, each F is within 1e-13 of expm, max |dF| / max |F|.
    from scipy.linalg import expm

    def worst(seg):
        ref = expm(_generators(convention, seg))
        got = CONVENTIONS[convention].transition(seg).F[:, :15, :15]
        return max(np.max(np.abs(g - r)) / np.max(np.abs(r)) for g, r in zip(got, ref))

    assert max(worst(seg) for seg in _a1_segments()) <= 1e-13
    state, samples = _stress_segment(np.random.default_rng(19))
    assert worst(mechanize(state, samples, GRAVITY)) <= 1e-13


# ----------------------------------------------------------------------
# covariance algebra


def test_propagate_covariance_formula():
    imu = one_sample(rng.standard_normal(3), rng.standard_normal(3), 0.0)
    T = left_step(imu, 0.01)
    Q = NoiseDensities(1e-3, 1e-2, 1e-5, 1e-4).discrete_q(0.01)
    A = rng.standard_normal((18, 18))
    P = A @ A.T + np.eye(18)
    out = propagate_covariance(P, T.F, T.G @ Q @ T.G.T)
    expect = T.F @ P @ T.F.T + T.G @ Q @ T.G.T
    assert np.allclose(out, (expect + expect.T) / 2, atol=1e-12)


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
    step = kalman_step(P, LinearMeasurement(r, H, N))
    S = H @ P @ H.T + N
    K_ref = P @ H.T @ np.linalg.inv(S)
    assert np.allclose(step.K, K_ref, atol=1e-10)
    assert np.allclose(step.P_post, P - K_ref @ S @ K_ref.T, atol=1e-9)
    assert np.allclose(step.xi, K_ref @ r)


def test_kalman_step_rejects_singular():
    P = np.zeros((3, 3))
    meas = LinearMeasurement(np.zeros(2), np.zeros((2, 3)), np.zeros((2, 2)))
    with pytest.raises(UpdateRejected):
        kalman_step(P, meas)
    with pytest.raises(ValueError):
        kalman_step(np.eye(4), LinearMeasurement(np.zeros(2), np.zeros((2, 3)),
                                                 np.eye(2)))


@pytest.mark.parametrize("m", [3, 42])
def test_kalman_step_matches_joseph_form_at_full_window(m):
    # D = 126 is the largest vision update (6 clones, 24 landmarks).
    D = 126
    A = rng.standard_normal((D, D))
    P = A @ A.T / D + 0.1 * np.eye(D)
    H = rng.standard_normal((m, D))
    N = np.diag(rng.uniform(0.05, 0.5, m))
    r = rng.standard_normal(m)
    step = kalman_step(P, LinearMeasurement(r, H, N))
    K, P_post, xi = step.K, step.P_post, step.xi
    S = H @ P @ H.T + N
    K_ref = P @ H.T @ np.linalg.inv(S)
    IKH = np.eye(D) - K_ref @ H
    P_ref = IKH @ P @ IKH.T + K_ref @ N @ K_ref.T
    assert np.allclose(K, K_ref, rtol=1e-9, atol=1e-12)
    assert np.allclose(P_post, P_ref, rtol=1e-9, atol=1e-12)
    assert np.array_equal(P_post, P_post.T)
    assert np.allclose(xi, K_ref @ r, rtol=1e-9, atol=1e-12)


def test_kalman_step_rejects_ill_conditioned():
    # S = R here: positive definite, but with condition number 1e13.
    zero = LinearMeasurement(np.zeros(3), np.zeros((3, 3)),
                             np.diag([1.0, 1.0, 1e-13]))
    with pytest.raises(UpdateRejected):
        kalman_step(np.eye(3), zero)
    ok = LinearMeasurement(np.zeros(3), np.zeros((3, 3)),
                           np.diag([1.0, 1.0, 1e-11]))
    kalman_step(np.eye(3), ok)
    nan = LinearMeasurement(np.zeros(2), np.eye(2), np.full((2, 2), np.nan))
    with pytest.raises(UpdateRejected):
        kalman_step(np.eye(2), nan)


def test_stack_measurements():
    from scipy.linalg import block_diag

    m1 = LinearMeasurement(np.ones(2), np.ones((2, 5)), np.eye(2))
    m2 = LinearMeasurement(2 * np.ones(3), 2 * np.ones((3, 5)), 2 * np.eye(3))
    m = stack_measurements([m1, m2])
    assert m.residual.shape == (5,)
    assert m.H.shape == (5, 5)
    assert np.allclose(m.noise_cov[:2, 2:], 0.0)
    # Unequal blocks with distinct entries land on the diagonal as placed.
    local = np.random.default_rng(7)
    blocks = [local.standard_normal((k, k)) for k in (2, 3, 1, 2)]
    ms = [LinearMeasurement(np.zeros(len(N)), np.zeros((len(N), 4)), N)
          for N in blocks]
    assert np.array_equal(stack_measurements(ms).noise_cov, block_diag(*blocks))
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

    # With a window, H still spans only the core: clone and landmark
    # errors do not move the antenna.
    windowed = replace(truth, clone_rotations=np.eye(3)[None],
                       clone_positions=truth.nav.position[None], clone_times=np.zeros(1),
                       feature_ids=np.zeros(1, dtype=int),
                       feature_anchors=np.zeros(1, dtype=int),
                       feature_params=np.array([[0.2, -0.1, 0.12]]))
    for s in (truth, windowed):
        H = build(s).H
        assert H.shape == (3, CORE_DIM)
        J = numeric_meas_jacobian(build, s, convention)
        assert np.max(np.abs(J[:, :CORE_DIM] + H)) < 1e-6
        assert np.max(np.abs(J[:, CORE_DIM:]), initial=0.0) < 1e-6
        assert np.allclose(build(s).residual, 0.0, atol=1e-12)


def windowed_state():
    s = random_nav_state()
    poses = [(so3_exp(rng.uniform(-0.5, 0.5, 3)), s.nav.position + rng.uniform(-2, 2, 3))
             for _ in range(3)]
    # One landmark, anchored at clone row 1 (captured at t = 1.0).
    return replace(s, timestamp=3.0,
                   clone_rotations=np.array([R for R, _ in poses]),
                   clone_positions=np.array([p for _, p in poses]),
                   clone_times=np.arange(3.0),
                   feature_ids=np.zeros(1, dtype=int),
                   feature_anchors=np.ones(1, dtype=int),
                   feature_params=np.array([[0.2, -0.1, 0.12]]))


def test_feature_world_position_jacobian():
    truth = windowed_state()
    p0, D = feature_world_position(truth, 0)
    eps = 1e-6
    for k in range(truth.error_dim):
        e = np.zeros(truth.error_dim)
        e[k] = eps
        pp, _ = feature_world_position(retract(truth, e, "liekf"), 0)
        pm, _ = feature_world_position(retract(truth, -e, "liekf"), 0)
        assert np.allclose((pp - pm) / (2 * eps), D[:, k], atol=1e-5)


def test_bearing_jacobian():
    truth = windowed_state()
    p_w, _ = feature_world_position(truth, 0)
    R_c, p_c = truth.clone_rotations[2], truth.clone_positions[2]
    X = R_c.T @ (p_w - p_c)
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
    R_c, p_c = truth.clone_rotations[0], truth.clone_positions[0]
    X = R_c.T @ (p_w - p_c)
    flipped = R_c @ so3_exp(np.array([np.pi * 0.999, 0, 0]))
    rotations = truth.clone_rotations.copy()
    rotations[0] = flipped
    s = replace(truth, clone_rotations=rotations)
    Xf = flipped.T @ (p_w - p_c)
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
        timestamp=0.0,
    )
    e = 0.1 * local.standard_normal(18)
    est = retract(truth, e, "liekf")
    P = 0.04 * np.eye(18)
    z = truth.nav.position + truth.nav.rotation @ truth.lever_arm
    meas = gnss_measurement(est, z, 1e-3, "liekf")
    step = kalman_step(P, meas)
    updated = retract(est, step.xi, "liekf")
    before = np.linalg.norm(est.nav.position - truth.nav.position)
    after = np.linalg.norm(updated.nav.position - truth.nav.position)
    assert after < before
    assert np.trace(step.P_post) < np.trace(P)
