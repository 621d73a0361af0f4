"""Filter cores: strapdown propagation, the Kalman update algebra and the
measurement models.

The strapdown integrator is the closed-form zero-order-hold solution of the
rigid-body kinematics (left Jacobian and second-integral coefficient
matrices for the velocity and position columns), run as stacked numpy
passes over a whole IMU segment, a slice of an ``ImuStream``'s arrays:
only the rotation chain is a Python loop. Its record of a segment, a
``Strapdown``, is what the convention's transitions in ``swarmnav.conventions``
are formed from; ``transition_left``, ``transition_right`` and
``transition_ekf`` are importable from here too.

The vision models read the state's window arrays directly: a landmark's
anchor clone is the row ``state.feature_anchors[j]``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .checks import number, vector
from .conventions import GRAVITY, TransitionPair, lookup
from .conventions import transition_ekf, transition_left, transition_right  # re-exported
from .lie import ExtendedPose, skew, so3_integrals
from .state import CORE_DIM, SystemState


class UpdateRejected(RuntimeError):
    """Raised when an innovation covariance is numerically singular."""


@dataclass(frozen=True, eq=False)
class ImuStream:
    """IMU samples as stacked arrays; a segment `stream[i:j]` holds views."""

    times: np.ndarray      # (n,) s, increasing
    gyro: np.ndarray       # (n, 3) rad/s, body frame
    accel: np.ndarray      # (n, 3) m/s^2, body frame (specific force)

    def __len__(self):
        return len(self.times)

    def __getitem__(self, index):
        return ImuStream(self.times[index], self.gyro[index], self.accel[index])


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
        object.__setattr__(self, "gravity", np.array(vector("gravity", gravity, 3)))
        for name in ("gyro_noise", "accel_noise", "gyro_walk", "accel_walk"):
            number(name, getattr(self, name), low=0)
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


def stack_measurements(measurements):
    """Stack several LinearMeasurements into one block measurement."""
    if not measurements:
        raise ValueError("nothing to stack")
    r = np.concatenate([m.residual for m in measurements])
    H = np.vstack([m.H for m in measurements])
    N = np.zeros((len(r), len(r)))
    i = 0
    for m in measurements:
        k = len(m.residual)
        N[i:i + k, i:i + k] = m.noise_cov
        i += k
    return LinearMeasurement(r, H, N)


class Strapdown(NamedTuple):
    """A mechanized IMU segment, each term computed once; row k of each
    stack belongs to sample k."""

    state: SystemState   # after the last sample
    dts: np.ndarray      # step lengths, differences of the clock
    gyro: np.ndarray     # raw rates, the segment's own array
    accel: np.ndarray
    psi: np.ndarray      # bias-corrected rotation increments, (gyro - bias) * dt
    a: np.ndarray        # bias-corrected specific force
    Gamma: np.ndarray    # so3_exp(psi)
    J1: np.ndarray       # so3_left_jacobian(psi)
    G2: np.ndarray       # so3_gamma2(psi)
    J1a: np.ndarray      # J1 @ a
    G2a: np.ndarray      # G2 @ a
    R: np.ndarray        # the navigation state each step starts from
    v: np.ndarray
    p: np.ndarray
    gravity: np.ndarray


def mechanize(state: SystemState, imu: ImuStream, gravity=None) -> Strapdown:
    """Bias-compensated strapdown over an IMU segment, with closed-form ZOH
    integration.

    The biases are fixed across the segment, so the rotation increments, the
    integral coefficient matrices and the rotated specific-force terms of
    every sample come from stacked numpy passes; only the rotation chain
    R_{k+1} = R_k Gamma_k runs step by step. Velocities and positions are
    running sums of interleaved term rows, [v_0, R_0 J1a_0 dt_0, g dt_0,
    R_1 J1a_1 dt_1, ...], and np.cumsum adds strictly left to right, so each
    partial sum has the bits of the one-step-at-a-time recursion. The step
    lengths are the differences of the clock [state time, sample times], and
    the state time after the segment is its last sample's time, so neither
    depends on where a stream is cut. Biases, lever arm, clones and features
    are carried over unchanged; the returned state's arrays share no memory
    with the record's stacks.
    """
    clock = np.concatenate(([state.timestamp], imu.times))
    steps = np.diff(clock)
    if not np.all(steps > 0):  # NaN fails too
        k = np.argmin(steps > 0)
        raise ValueError(f"IMU sample at t={clock[k + 1]} is not after t={clock[k]}")
    n = len(steps)
    g = GRAVITY if gravity is None else np.asarray(gravity, dtype=float)
    dt_col = steps[:, None]
    psi = (imu.gyro - state.gyro_bias) * dt_col
    a = imu.accel - state.accel_bias
    Gamma, J1, G2 = so3_integrals(psi)
    J1a = (J1 @ a[:, :, None])[:, :, 0]
    G2a = (G2 @ a[:, :, None])[:, :, 0]
    R = state.nav.rotation
    Rs = np.empty((n, 3, 3))
    for k in range(n):
        Rs[k] = R
        R = R @ Gamma[k]
    # v_{k+1} = v_k + R_k J1a_k dt + g dt: row 2k of the running sum is v_k.
    terms = np.empty((2 * n + 1, 3))
    terms[0] = state.nav.velocity
    terms[1::2] = (Rs @ J1a[:, :, None])[:, :, 0] * dt_col
    terms[2::2] = g * dt_col
    v = np.cumsum(terms, axis=0)
    vs = v[0:2 * n:2]
    # p_{k+1} = p_k + v_k dt + R_k G2a_k dt dt + g dt^2 / 2: row 3k is p_k.
    terms = np.empty((3 * n + 1, 3))
    terms[0] = state.nav.position
    terms[1::3] = vs * dt_col
    terms[2::3] = (Rs @ G2a[:, :, None])[:, :, 0] * dt_col * dt_col
    terms[3::3] = 0.5 * g * dt_col * dt_col
    p = np.cumsum(terms, axis=0)
    nav = ExtendedPose(R, v[-1].copy(), p[-1].copy())
    return Strapdown(replace(state, nav=nav, timestamp=float(clock[-1])),
                     steps, imu.gyro, imu.accel, psi, a, Gamma, J1, G2, J1a, G2a,
                     Rs, vs, p[0:3 * n:3], g)


def transition(convention, state_estimate, gyro, accel, dt, gravity=None) -> TransitionPair:
    """Core transition in `convention` of one strapdown step of length dt."""
    seg = mechanize(replace(state_estimate, timestamp=0.0),
                    ImuStream(np.array([dt]), np.array([gyro]), np.array([accel])), gravity)
    T = lookup(convention).transition(seg)
    return TransitionPair(T.F[0], T.G[0])


def propagate_covariance(P_core, F, noise):
    """F P F' + noise, re-symmetrized; F and noise are a step's or a whole
    segment's (`covariance.compose_transport`)."""
    P = F @ P_core @ F.T + noise
    return (P + P.T) / 2.0


class KalmanStep(NamedTuple):
    """One update: gain, posterior covariance, correction and the
    innovation covariance (for callers that extend the update to blocks
    outside P)."""

    P_post: np.ndarray
    xi: np.ndarray
    K: np.ndarray
    S: np.ndarray


def kalman_step(P, meas: LinearMeasurement):
    """Gain, Joseph-form posterior covariance and correction for one update.

    The Joseph form (I-KH) P (I-KH)' + K R K' is expanded to
    P - KHP - (KHP)' + K S K', which costs O(D^2 m) instead of O(D^3).
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
    return KalmanStep(P_post, K @ meas.residual, K, S)


def gnss_measurement(state: SystemState, z, sigma, convention) -> LinearMeasurement:
    """World-frame antenna position measurement z = p + R * lever + noise.

    H is the derivative of the predicted measurement through the active
    convention's retraction, so that residual ~ H @ (truth-relative error).
    It spans the 18-dim core error, the only block a fix touches.
    """
    R = state.nav.rotation
    p = state.nav.position
    lb = state.lever_arm
    h = p + R @ lb
    H = np.zeros((3, CORE_DIM))
    H[:, 0:9] = lookup(convention).point_jacobian(R, p, lb)
    H[:, 15:18] = R
    N = np.eye(3) * sigma ** 2
    return LinearMeasurement(np.asarray(z, dtype=float) - h, H, N)


def _projection(X):
    """Pinhole projection and its Jacobian for a camera-frame point."""
    x, y, z = X
    uv = np.array([x / z, y / z])
    J = np.array([[1.0 / z, 0.0, -x / (z * z)], [0.0, 1.0 / z, -y / (z * z)]])
    return uv, J


def feature_world_position(state: SystemState, feature_index):
    """Landmark position in the world frame, plus Jacobian over the error
    vector (anchor clone and feature blocks)."""
    ai = state.feature_anchors[feature_index]
    R_a = state.clone_rotations[ai]
    alpha, beta, rho = state.feature_params[feature_index]
    X_a = np.array([alpha / rho, beta / rho, 1.0 / rho])
    p_w = state.clone_positions[ai] + R_a @ X_a
    D = np.zeros((3, state.error_dim))
    off_a = CORE_DIM + 6 * ai
    D[:, off_a:off_a + 3] = -R_a @ skew(X_a)
    D[:, off_a + 3:off_a + 6] = np.eye(3)
    dXa = np.array([
        [1.0 / rho, 0.0, -alpha / rho ** 2],
        [0.0, 1.0 / rho, -beta / rho ** 2],
        [0.0, 0.0, -1.0 / rho ** 2],
    ])
    off_f = CORE_DIM + 6 * state.num_clones + 3 * feature_index
    D[:, off_f:off_f + 3] = R_a @ dXa
    return p_w, D


def bearing_measurement(state: SystemState, clone_index, feature_index, uv, sigma):
    """Normalized-image-plane observation of an in-state landmark from a
    window clone. Returns None when the predicted depth is at most 1 mm
    (measurement skipped). Independent of the nav error convention because
    H only touches clone and feature blocks."""
    R_c = state.clone_rotations[clone_index]
    p_w, D_pw = feature_world_position(state, feature_index)
    X = R_c.T @ (p_w - state.clone_positions[clone_index])
    if X[2] <= 1e-3:
        return None
    uv_pred, Pi = _projection(X)
    # Camera-frame point Jacobian: observing clone blocks plus the chain
    # through the landmark world position.
    D_X = R_c.T @ D_pw
    off_c = CORE_DIM + 6 * clone_index
    D_X[:, off_c:off_c + 3] += skew(X)
    D_X[:, off_c + 3:off_c + 6] += -R_c.T
    H = Pi @ D_X
    N = np.eye(2) * sigma ** 2
    return LinearMeasurement(np.asarray(uv, dtype=float) - uv_pred, H, N)


def landmark_position_measurement(state: SystemState, feature_index, z, noise_cov):
    """Direct world-position constraint on an in-state landmark (used by
    collaborative updates with a remote agent's estimate)."""
    p_w, D = feature_world_position(state, feature_index)
    return LinearMeasurement(np.asarray(z, dtype=float) - p_w, D,
                             np.asarray(noise_cov, dtype=float))
