"""The segmented filter against a dense filter, under any event sequence.

A hypothesis state machine drives one `liekf` AgentFilter with a small
window through IMU segments, immediate and delayed GNSS fixes, clone
augmentation with eviction, landmark additions and removals, vision
updates and CI correspondences. A dense reference kept here holds the full
covariance: it propagates with each buffered segment's core transition
and noise padded block-diagonally, applies every update through
`kalman_step` on the full matrix with the agent's own measurement, and
meets a delayed fix by rewinding to the fix's epoch and replaying the
segments since. After every rule the agent's full covariance equals the
dense one, `assemble_full` raises exactly when the cross block owes a
transition, and the core is symmetric positive definite.
"""

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from swarmnav.agent import AgentFilter, FilterOptions
from swarmnav.covariance import (
    Correspondence,
    StaleBlockError,
    assemble_full,
    ci_weight,
    sync_cross,
)
from swarmnav.filters import (
    ImuStream,
    LinearMeasurement,
    NoiseDensities,
    UpdateRejected,
    bearing_measurements,
    feature_world_position,
    gnss_measurement,
    kalman_step,
    landmark_position_measurement,
)
from swarmnav.lie import ExtendedPose, so3_exp
from swarmnav.sensors import SensorSuite
from swarmnav.state import CORE_DIM, SystemState

SUITE = SensorSuite(noise=NoiseDensities(2e-4, 2e-3, 1e-6, 1e-5), gnss_sigma=0.05,
                    pixel_sigma=0.002, cam_rotation=[[1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]],
                    cam_offset=[0.02, 0.0, -0.01])
# A fix's window holds at most PENDING_SAMPLES + 11 samples, all of which the
# buffer keeps: a delayed fix is never dropped here, but older segments are.
OPTIONS = FilterOptions(max_clones=4, max_features=4, imu_buffer_capacity=60)
PENDING_SAMPLES = 40
TOL = 1e-9   # relative Frobenius, A4's tolerance

offsets = st.tuples(*[st.floats(-0.3, 0.3)] * 3).map(np.array)


def grown(P, at, rows, prior=None):
    """P with len(rows) new entries inserted at `at`, each the linear
    function `rows[i]` of the old entries, plus `prior` on their own block."""
    A = np.insert(np.eye(len(P)), at, rows, axis=0)
    P = A @ P @ A.T
    if prior is not None:
        P[at:at + len(prior), at:at + len(prior)] += prior
    return P


def without(P, at, size):
    keep = np.r_[0:at, at + size:len(P)]
    return P[np.ix_(keep, keep)]


def propagated(P, F, noise):
    """P through a segment's core transition and noise, padded with the
    identity and zeros over the static clone and landmark entries."""
    F_full = np.eye(len(P))
    F_full[:CORE_DIM, :CORE_DIM] = F
    P = F_full @ P @ F_full.T
    P[:CORE_DIM, :CORE_DIM] += noise
    return P


def updated(P, meas):
    """The dense Kalman update, H padded with zeros to the full dimension."""
    H = np.zeros((len(meas.residual), len(P)))
    H[:, :meas.H.shape[1]] = meas.H
    return kalman_step(P, LinearMeasurement(meas.residual, H, meas.noise_cov)).P_post


class SegmentedAgainstDense(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        nav = ExtendedPose(so3_exp(np.array([0.0, 0.0, 0.8])), np.array([2.0, 0.0, 0.0]),
                           np.array([20.0, 0.0, 10.0]))
        state = SystemState(nav=nav, gyro_bias=np.array([1e-3, -2e-3, 5e-4]),
                            accel_bias=np.array([0.01, -0.02, 0.005]),
                            lever_arm=np.array([0.1, 0.0, 0.05]))
        P0 = np.diag(np.concatenate([np.full(6, 0.01), np.full(3, 0.09), np.full(9, 1e-4)]))
        self.agent = AgentFilter(state, P0, "liekf", SUITE, OPTIONS)
        self.P = P0.copy()
        self.rng = np.random.default_rng(3)
        self.pending = None   # (snapshot, dense P at its epoch, segments since)
        self.next_id = 0

    def idle(self):
        return self.pending is None

    def landmarks(self):
        return self.idle() and self.agent.state.num_features > 0

    # ------------------------------------------------------------------
    # rules

    @precondition(lambda self: self.idle()
                  or sum(len(e.samples) for e in self.pending[2]) < PENDING_SAMPLES)
    @rule(n=st.integers(1, 12))
    def propagate(self, n):
        ag = self.agent
        times = np.round(ag.clock + 0.005 * np.arange(1, n + 1), 9)
        gyro = np.array([0.0, 0.0, 0.4]) + 0.05 * self.rng.standard_normal((n, 3))
        accel = np.array([0.3, -0.1, 9.81]) + 0.2 * self.rng.standard_normal((n, 3))
        ag.propagate(ImuStream(times, gyro, accel))
        e = ag.imu_buffer.entries[-1]
        self.P = propagated(self.P, e.F, e.noise)
        if self.pending:
            self.pending[2].append(e)

    @precondition(idle)
    @rule(offset=offsets)
    def gnss(self, offset):
        ag = self.agent
        z = ag.state.nav.position + offset
        self.P = updated(self.P, gnss_measurement(ag.state, z, SUITE.gnss_sigma, "liekf"))
        ag.update_gnss(z)

    @precondition(idle)
    @rule()
    def snapshot(self):
        self.pending = (self.agent.snapshot(), self.P.copy(), [])

    @precondition(lambda self: not self.idle())
    @rule(offset=offsets)
    def delayed_fix(self, offset):
        # The dense side rewinds to the epoch, updates there and replays.
        snap, P, segments = self.pending
        self.pending = None
        z = snap[0].nav.position + offset
        P = updated(P, gnss_measurement(snap[0], z, SUITE.gnss_sigma, "liekf"))
        for e in segments:
            P = propagated(P, e.F, e.noise)
        self.P = P
        self.agent.update_gnss_delayed(z, snap)

    @precondition(idle)
    @rule()
    def augment(self):
        ag = self.agent
        s = ag.state
        J = ag._clone_jacobian()
        if s.num_clones == OPTIONS.max_clones:   # eviction of clone 0 and its landmarks
            base = CORE_DIM + 6 * s.num_clones
            for j in reversed(np.flatnonzero(s.feature_anchors == 0)):
                self.P = without(self.P, base + 3 * j, 3)
            self.P = without(self.P, CORE_DIM, 6)
        rows = np.zeros((6, len(self.P)))
        rows[:, :CORE_DIM] = J
        self.P = grown(self.P, CORE_DIM + 6 * min(s.num_clones, OPTIONS.max_clones - 1), rows)
        ag.augment_clone()

    @precondition(lambda self: self.idle() and self.agent.state.num_clones > 0
                  and self.agent.state.num_features < OPTIONS.max_features)
    @rule(anchor=st.integers(0, 3), alpha=st.floats(-0.3, 0.3), beta=st.floats(-0.3, 0.3),
          rho=st.floats(0.1, 1.0))
    def add_landmark(self, anchor, alpha, beta, rho):
        ag = self.agent
        s = ag.state
        at = CORE_DIM + 6 * s.num_clones + 3 * s.num_features
        self.P = grown(self.P, at, np.zeros((3, len(self.P))),
                       prior=np.eye(3) * OPTIONS.feature_prior_sigma ** 2)
        ag.add_feature(self.next_id, anchor % s.num_clones, np.array([alpha, beta, rho]))
        self.next_id += 1

    @precondition(landmarks)
    @rule(views=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1,
                         max_size=4),
          noise=st.floats(-0.01, 0.01))
    def vision(self, views, noise):
        ag = self.agent
        s = ag.state
        obs = []
        for c, j in views:
            c, j = c % s.num_clones, j % s.num_features
            X = s.clone_rotations[c].T @ (feature_world_position(s, j)[0] - s.clone_positions[c])
            obs.append((c, j, X[:2] / X[2] + noise if X[2] > 1e-3 else np.zeros(2)))
        meas = bearing_measurements(s, *zip(*obs), SUITE.pixel_sigma)
        if meas is not None:
            self.P = updated(self.P, meas)
        ag.update_vision(obs)

    @precondition(landmarks)
    @rule(j=st.integers(0, 3), offset=offsets, sigma=st.floats(0.01, 0.5))
    def ci(self, j, offset, sigma):
        ag = self.agent
        s = ag.state
        j %= s.num_features
        c = Correspondence(int(s.feature_ids[j]), feature_world_position(s, j)[0] + offset,
                           np.eye(3) * sigma ** 2)
        meas = landmark_position_measurement(s, j, c.remote_position, c.remote_cov)
        # The weight is the agent's, searched on its own covariance: a search
        # on a matrix that differs in its last bits may settle apart.
        w = ci_weight(ag.full_covariance(), meas)
        if 1e-6 <= w < 1.0 - 1e-9:
            try:
                self.P = kalman_step(self.P / w, LinearMeasurement(
                    meas.residual, meas.H, meas.noise_cov / (1.0 - w))).P_post
            except UpdateRejected:
                pass
        ag.update_collaborative([c])

    @precondition(landmarks)
    @rule(j=st.integers(0, 3))
    def remove_landmark(self, j):
        ag = self.agent
        j %= ag.state.num_features
        self.P = without(self.P, CORE_DIM + 6 * ag.state.num_clones + 3 * j, 3)
        ag.remove_feature(j)

    # ------------------------------------------------------------------
    # invariants, read from copies so that they sync nothing of the agent's

    @invariant()
    def stale_exactly_when_owed(self):
        part = self.agent.partition
        if part.owed is None:
            assemble_full(part)
        else:
            with pytest.raises(StaleBlockError):
                assemble_full(part)

    @invariant()
    def full_covariance_is_the_dense_one(self):
        part = self.agent.partition.copy()
        sync_cross(part, None, None, "visual", self.agent.clock)
        P = assemble_full(part)
        assert P.shape == self.P.shape
        assert np.linalg.norm(P - self.P) <= TOL * np.linalg.norm(self.P)

    @invariant()
    def core_is_symmetric_positive_definite(self):
        core = self.agent.partition.core
        assert np.array_equal(core, core.T)
        np.linalg.cholesky(core)


TestSegmentedAgainstDense = SegmentedAgainstDense.TestCase
TestSegmentedAgainstDense.settings = settings(max_examples=100, stateful_step_count=40,
                                              deadline=None, derandomize=True)
