"""Filter cores: strapdown propagation, the Kalman update algebra and the
measurement models.

The strapdown integrator is the closed-form zero-order-hold solution of the
rigid-body kinematics (left Jacobian and second-integral coefficient
matrices for the velocity and position columns). The transition matrices of
an IMU segment depend on the error convention and live in
``swarmnav.conventions``; ``transition_left``, ``transition_right`` and
``transition_ekf`` are importable from here as well.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .conventions import GRAVITY, TransitionPair, lookup
from .conventions import transition_ekf, transition_left, transition_right  # re-exported
from .lie import (
    ExtendedPose,
    skew,
    so3_exp,
    so3_gamma2,
    so3_left_jacobian,
)
from .state import CORE_DIM, SystemState, retract
from .trajectories import finite_vector


class UpdateRejected(RuntimeError):
    """Raised when an innovation covariance is numerically singular."""


@dataclass(frozen=True)
class ImuSample:
    gyro: np.ndarray       # rad/s, body frame
    accel: np.ndarray      # m/s^2, body frame (specific force)
    timestamp: float


@dataclass(frozen=True)
class NoiseDensities:
    """Continuous-time IMU noise densities and the gravity vector."""

    gyro_noise: float = 0.0        # rad/s/sqrt(Hz)
    accel_noise: float = 0.0       # m/s^2/sqrt(Hz)
    gyro_walk: float = 0.0         # rad/s^2/sqrt(Hz)
    accel_walk: float = 0.0        # m/s^3/sqrt(Hz)
    gravity: np.ndarray = None

    def __post_init__(self):
        gravity = GRAVITY if self.gravity is None else self.gravity
        object.__setattr__(self, "gravity", np.array(finite_vector("gravity", gravity, 3)))
        for name in ("gyro_noise", "accel_noise", "gyro_walk", "accel_walk"):
            if not 0 <= getattr(self, name) < np.inf:  # NaN fails too
                raise ValueError(f"{name} must be non-negative and finite")
        sig = np.array(
            [self.gyro_noise] * 3 + [self.accel_noise] * 3
            + [self.gyro_walk] * 3 + [self.accel_walk] * 3
        )
        object.__setattr__(self, "_q_rate", np.diag(sig ** 2))

    def discrete_q(self, dt):
        """First-order discrete process noise: diag(sigma^2) * dt."""
        return self._q_rate * dt


@dataclass(frozen=True)
class LinearMeasurement:
    residual: np.ndarray
    H: np.ndarray
    noise_cov: np.ndarray
    timestamp: float


def stack_measurements(measurements):
    """Stack several LinearMeasurements into one block measurement."""
    if not measurements:
        raise ValueError("nothing to stack")
    r = np.concatenate([m.residual for m in measurements])
    H = np.vstack([m.H for m in measurements])
    from scipy.linalg import block_diag
    N = block_diag(*[m.noise_cov for m in measurements])
    return LinearMeasurement(r, H, N, measurements[-1].timestamp)


class Strapdown(NamedTuple):
    """A mechanized IMU segment."""

    state: SystemState   # after the last sample
    navs: list           # navs[i]: the navigation state sample i starts from
    dts: list            # step lengths, by the filter clock's subtraction chain


def mechanize(state: SystemState, samples, gravity=None) -> Strapdown:
    """Bias-compensated strapdown over a segment of IMU samples, with
    closed-form ZOH integration.

    The biases are fixed across the segment, so the rotation increments and
    the integral coefficient matrices of every sample come from one
    vectorized pass; only the composition runs step by step. Each step's dt
    is the sample time minus the state time reached by the steps before it,
    as when the samples are applied one at a time. Biases, lever arm, clones
    and features are carried over unchanged.
    """
    dts = []
    t = state.timestamp
    for imu in samples:
        dt = imu.timestamp - t
        if not dt > 0:  # NaN fails too
            raise ValueError(f"IMU sample at t={imu.timestamp} is not after state t={t}")
        dts.append(dt)
        t = t + dt
    if not dts:
        return Strapdown(state, [], [])
    g = GRAVITY if gravity is None else np.asarray(gravity, dtype=float)
    dt_col = np.array(dts)[:, None]
    psi = (np.array([imu.gyro for imu in samples]) - state.gyro_bias) * dt_col
    a = (np.array([imu.accel for imu in samples]) - state.accel_bias)[:, :, None]
    Gamma = so3_exp(psi)
    J1a = (so3_left_jacobian(psi) @ a)[:, :, 0]
    G2a = (so3_gamma2(psi) @ a)[:, :, 0]
    g_dt = g * dt_col
    g_dt2 = 0.5 * g * dt_col * dt_col
    R, v, p = state.nav.rotation, state.nav.velocity, state.nav.position
    navs = []
    for k, dt in enumerate(dts):
        navs.append(ExtendedPose(R, v, p))
        R, v, p = (R @ Gamma[k],
                   v + R @ J1a[k] * dt + g_dt[k],
                   p + v * dt + R @ G2a[k] * dt * dt + g_dt2[k])
    return Strapdown(replace(state, nav=ExtendedPose(R, v, p), timestamp=t), navs, dts)


def transition(convention, state_estimate, imu, dt, gravity=None) -> TransitionPair:
    """Core transition of one strapdown step in the given convention."""
    return lookup(convention).transition(state_estimate, [imu], [dt],
                                         [state_estimate.nav], gravity)[0]


def _check_psd(P, tol=1e-9):
    P = np.asarray(P)
    try:
        np.linalg.cholesky(P + tol * np.eye(P.shape[0]))
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(P).min())
        raise ValueError(f"covariance is not PSD (min eigenvalue {min_eig:.3e})")


def propagate_covariance(P_core, T: TransitionPair, Q_d, check=True):
    """F P F' + G Q G', re-symmetrized."""
    if check:
        _check_psd(P_core)
    P = T.F @ P_core @ T.F.T + T.G @ Q_d @ T.G.T
    return (P + P.T) / 2.0


@dataclass(frozen=True)
class UpdateResult:
    state: SystemState
    covariance: np.ndarray


class KalmanStep(tuple):
    """(K, Lambda, P_post, xi) of one update. The innovation covariance S
    rides along as `.S` for callers that extend the update to blocks
    outside P."""

    def __new__(cls, K, Lam, P_post, xi, S):
        step = super().__new__(cls, (K, Lam, P_post, xi))
        step.S = S
        return step


def kalman_step(P, meas: LinearMeasurement):
    """Gain, Joseph-form posterior covariance and correction for one update.

    The Joseph form (I-KH) P (I-KH)' + K R K' is expanded to
    P - KHP - (KHP)' + K S K', which costs O(D^2 m) instead of O(D^3).
    Lambda = I - K H is returned over the top-left core block only (the
    whole matrix when D < CORE_DIM): that is all the in-place cross-block
    correction of `core_update_partitioned` uses.
    """
    H = meas.H
    if H.shape[1] != P.shape[0]:
        raise ValueError(f"H has {H.shape[1]} columns, covariance dim is {P.shape[0]}")
    PHt = P @ H.T
    S = H @ PHt + meas.noise_cov
    S = (S + S.T) / 2.0
    # Singular or ill-conditioned S (2-norm condition above 1e12), checked
    # on the m x m eigenvalues; the negated test also rejects NaN.
    try:
        eig = np.linalg.eigvalsh(S)
        usable = eig[0] > 0.0 and eig[-1] <= 1e12 * eig[0]
    except np.linalg.LinAlgError:
        usable = False
    if not usable:
        raise UpdateRejected("innovation covariance is numerically singular")
    K = np.linalg.solve(S, PHt.T).T
    KHP = K @ PHt.T
    P_post = P - KHP - KHP.T + (K @ S) @ K.T
    P_post = (P_post + P_post.T) / 2.0
    xi = K @ meas.residual
    c = min(P.shape[0], CORE_DIM)
    Lam = np.eye(c) - K[:c] @ H[:, :c]
    return KalmanStep(K, Lam, P_post, xi, S)


def update(state: SystemState, P_full, meas: LinearMeasurement, convention="liekf") -> UpdateResult:
    """Measurement update: gain, Joseph-stabilized covariance, retraction."""
    _, _, P_post, xi = kalman_step(P_full, meas)
    return UpdateResult(retract(state, xi, convention), P_post)


def gnss_measurement(state: SystemState, z, sigma, convention="liekf") -> LinearMeasurement:
    """World-frame antenna position measurement z = p + R * lever + noise.

    H is the derivative of the predicted measurement through the active
    convention's retraction, so that residual ~ H @ (truth-relative error).
    """
    R = state.nav.rotation
    p = state.nav.position
    lb = state.lever_arm
    h = p + R @ lb
    H = np.zeros((3, state.error_dim))
    H[:, 0:9] = lookup(convention).point_jacobian(R, p, lb)
    H[:, 15:18] = R
    N = np.eye(3) * sigma ** 2
    return LinearMeasurement(np.asarray(z, dtype=float) - h, H, N, state.timestamp)


def _projection(X):
    """Pinhole projection and its Jacobian for a camera-frame point."""
    x, y, z = X
    uv = np.array([x / z, y / z])
    J = np.array([[1.0 / z, 0.0, -x / (z * z)], [0.0, 1.0 / z, -y / (z * z)]])
    return uv, J


def _anchor_clone_index(state: SystemState, feature):
    for i, c in enumerate(state.clones):
        if c.timestamp == feature.anchor_timestamp:
            return i
    raise ValueError(f"anchor clone at t={feature.anchor_timestamp} not in window")


def feature_world_position(state: SystemState, feature_index):
    """Landmark position in the world frame, plus Jacobian over the error
    vector (anchor clone and feature blocks)."""
    f = state.features[feature_index]
    ai = _anchor_clone_index(state, f)
    anchor = state.clones[ai]
    alpha, beta, rho = f.params
    X_a = np.array([alpha / rho, beta / rho, 1.0 / rho])
    p_w = anchor.position + anchor.rotation @ X_a
    D = np.zeros((3, state.error_dim))
    off_a = CORE_DIM + 6 * ai
    D[:, off_a:off_a + 3] = -anchor.rotation @ skew(X_a)
    D[:, off_a + 3:off_a + 6] = np.eye(3)
    dXa = np.array([
        [1.0 / rho, 0.0, -alpha / rho ** 2],
        [0.0, 1.0 / rho, -beta / rho ** 2],
        [0.0, 0.0, -1.0 / rho ** 2],
    ])
    off_f = CORE_DIM + 6 * state.num_clones + 3 * feature_index
    D[:, off_f:off_f + 3] = anchor.rotation @ dXa
    return p_w, D


def bearing_measurement(state: SystemState, clone_index, feature_index, uv, sigma,
                        min_depth=1e-3):
    """Normalized-image-plane observation of an in-state landmark from a
    window clone. Returns None when the predicted depth is non-positive
    (measurement skipped). Independent of the nav error convention because
    H only touches clone and feature blocks."""
    clone = state.clones[clone_index]
    p_w, D_pw = feature_world_position(state, feature_index)
    X = clone.rotation.T @ (p_w - clone.position)
    if X[2] <= min_depth:
        return None
    uv_pred, Pi = _projection(X)
    # Camera-frame point Jacobian: observing clone blocks plus the chain
    # through the landmark world position.
    D_X = clone.rotation.T @ D_pw
    off_c = CORE_DIM + 6 * clone_index
    D_X[:, off_c:off_c + 3] += skew(X)
    D_X[:, off_c + 3:off_c + 6] += -clone.rotation.T
    H = Pi @ D_X
    N = np.eye(2) * sigma ** 2
    return LinearMeasurement(np.asarray(uv, dtype=float) - uv_pred, H, N, state.timestamp)


def landmark_position_measurement(state: SystemState, feature_index, z, noise_cov):
    """Direct world-position constraint on an in-state landmark (used by
    collaborative updates with a remote agent's estimate)."""
    p_w, D = feature_world_position(state, feature_index)
    return LinearMeasurement(np.asarray(z, dtype=float) - p_w, D,
                             np.asarray(noise_cov, dtype=float), state.timestamp)
