"""Filter cores: strapdown propagation, the Kalman update algebra and the
measurement models.

The strapdown integrator is the closed-form zero-order-hold solution of the
rigid-body kinematics (left Jacobian and second-integral coefficient
matrices for the velocity and position columns), run as stacked numpy
passes over a whole IMU segment, a slice of an ``ImuStream``'s arrays:
only the rotation chain is a Python loop. A propagated segment carries its
step lengths, and consecutive ones join into one record. The integrator's
record, a ``Strapdown``, is what the convention's transitions in
``swarmnav.conventions`` are formed from (a samples-only one reads the
segment); ``transition_left``, ``transition_right`` and
``transition_ekf`` are importable from here too. Gravity is
``conventions.GRAVITY``, the constant the truth is generated with;
``NoiseDensities`` holds only the four IMU noise densities.

The vision models read the state's window arrays directly: a landmark's
anchor clone is the row ``state.feature_anchors[j]``. One stacked pass,
``landmark_rows``, turns a set of landmark rows into world points and the
nonzero blocks of their Jacobians; an update's bearing rows
(``bearing_measurements``) and a reply's landmark covariances are built
from it, and ``feature_world_position`` and ``bearing_measurement`` are its
one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .checks import number
from .conventions import GRAVITY, lookup
from .conventions import transition_ekf, transition_left, transition_right  # re-exported
from .lie import ExtendedPose, skew, so3_integrals
from .state import CORE_DIM, SystemState


class UpdateRejected(RuntimeError):
    """Raised when an innovation covariance is numerically singular."""


@dataclass(frozen=True, eq=False)
class ImuStream:
    """IMU samples as stacked arrays; a segment `stream[i:j]` holds views.
    A propagated segment carries its step lengths too, a raw stream none."""

    times: np.ndarray      # (n,) s, increasing
    gyro: np.ndarray       # (n, 3) rad/s, body frame
    accel: np.ndarray      # (n, 3) m/s^2, body frame (specific force)
    dts: np.ndarray = None  # (n,) s, differences of the clock from the start

    def __len__(self):
        return len(self.times)

    def __getitem__(self, index):
        return ImuStream(self.times[index], self.gyro[index], self.accel[index],
                         None if self.dts is None else self.dts[index])

    @staticmethod
    def join(records):
        """Consecutive propagated segments as one record."""
        if len(records) == 1:
            return records[0]
        return ImuStream(*(np.concatenate([getattr(r, name) for r in records])
                           for name in ("times", "gyro", "accel", "dts")))


@dataclass(frozen=True)
class NoiseDensities:
    """Continuous-time IMU noise densities (gravity is ``conventions.GRAVITY``)."""

    gyro_noise: float = 0.0        # rad/s/sqrt(Hz)
    accel_noise: float = 0.0       # m/s^2/sqrt(Hz)
    gyro_walk: float = 0.0         # rad/s^2/sqrt(Hz)
    accel_walk: float = 0.0        # m/s^3/sqrt(Hz)

    def __post_init__(self):
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


def step_lengths(start, times):
    """The step lengths of samples at `times` taken from the state time
    `start`: the differences of the clock [start, times]. ValueError unless
    each sample is after the one before it (or after `start`)."""
    clock = np.concatenate(([start], times))
    steps = np.diff(clock)
    if not np.all(steps > 0):  # NaN fails too
        k = np.argmin(steps > 0)
        raise ValueError(f"IMU sample at t={clock[k + 1]} is not after t={clock[k]}")
    return steps


def mechanize(state: SystemState, imu: ImuStream) -> Strapdown:
    """Bias-compensated strapdown over an IMU segment, with closed-form ZOH
    integration against ``conventions.GRAVITY``.

    The biases are fixed across the segment, so the rotation increments, the
    integral coefficient matrices and the rotated specific-force terms of
    every sample come from stacked numpy passes; only the rotation chain
    R_{k+1} = R_k Gamma_k runs step by step. Velocities and positions are
    running sums of interleaved term rows, [v_0, R_0 J1a_0 dt_0, g dt_0,
    R_1 J1a_1 dt_1, ...], and np.cumsum adds strictly left to right, so each
    partial sum has the bits of the one-step-at-a-time recursion. The step
    lengths are the segment's own, formed here only for a raw stream, as
    ``step_lengths(state.timestamp, imu.times)``; the state time after the
    segment is its last sample's time, so neither depends on where a stream
    is cut. Biases, lever arm, clones and features are carried over
    unchanged; the returned state's arrays share no memory with the record's
    stacks.
    """
    steps = step_lengths(state.timestamp, imu.times) if imu.dts is None else imu.dts
    n = len(steps)
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
    terms[2::2] = GRAVITY * dt_col
    v = np.cumsum(terms, axis=0)
    vs = v[0:2 * n:2]
    # p_{k+1} = p_k + v_k dt + R_k G2a_k dt dt + g dt^2 / 2: row 3k is p_k.
    terms = np.empty((3 * n + 1, 3))
    terms[0] = state.nav.position
    terms[1::3] = vs * dt_col
    terms[2::3] = (Rs @ G2a[:, :, None])[:, :, 0] * dt_col * dt_col
    terms[3::3] = 0.5 * GRAVITY * dt_col * dt_col
    p = np.cumsum(terms, axis=0)
    nav = ExtendedPose(R, v[-1].copy(), p[-1].copy())
    timestamp = float(imu.times[-1] if n else state.timestamp)
    return Strapdown(replace(state, nav=nav, timestamp=timestamp),
                     steps, imu.gyro, imu.accel, psi, a, Gamma, J1, G2, J1a, G2a,
                     Rs, vs, p[0:3 * n:3])


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


class LandmarkRows(NamedTuple):
    """In-state landmarks in the world frame, row k for the k-th index
    asked for. Each point's Jacobian over the error vector is zero outside
    nine columns, `columns[k]`: the anchor clone's attitude and position
    blocks, then the landmark's own parameters. `blocks[k]` (3 x 9) holds
    those columns."""

    points: np.ndarray   # (n, 3) world positions
    anchors: np.ndarray  # (n,) anchor clone rows
    blocks: np.ndarray   # (n, 3, 9) the Jacobians' nonzero columns
    columns: np.ndarray  # (n, 9) where they sit in the error vector

    def jacobians(self, dim):
        """The Jacobians over an error vector of length `dim`, (n, 3, dim)."""
        n = len(self.points)
        D = np.zeros((n, 3, dim))
        D[np.arange(n)[:, None], :, self.columns] = self.blocks.transpose(0, 2, 1)
        return D

    def covariances(self, P):
        """Each point's covariance D P D' under the full covariance P, in
        one stacked product that gives each landmark's D @ P @ D' bit for
        bit."""
        D = self.jacobians(len(P))
        cov = D @ P @ D.transpose(0, 2, 1)
        return (cov + cov.transpose(0, 2, 1)) / 2.0


_EYE3 = np.eye(3)
_ANCHOR_COLUMNS = CORE_DIM + np.arange(6)   # from 6 * the anchor's clone row
_FEATURE_COLUMNS = np.arange(3)             # from the landmark's own start


def landmark_rows(state: SystemState, features) -> LandmarkRows:
    """World positions of the landmarks at the state rows `features` and
    their Jacobians' nonzero blocks, in one stacked pass."""
    features = np.asarray(features)
    n = len(features)
    anchors = state.feature_anchors[features]
    R_a = state.clone_rotations[anchors]
    params = state.feature_params[features]       # (alpha, beta, rho) rows
    rho = params[:, 2:]
    X_a = params / rho
    X_a[:, 2:] = 1.0 / rho
    points = state.clone_positions[anchors] + (R_a @ X_a[:, :, None])[:, :, 0]
    # R_a's right factors, [-skew(X_a) | d X_a / d params], in one product.
    rho2 = rho ** 2
    right = np.zeros((n, 3, 6))
    right[:, :, 0:3] = -skew(X_a)
    right[:, 0, 3] = right[:, 1, 4] = X_a[:, 2]
    right[:, :, 5] = -params / rho2
    right[:, 2, 5] = -1.0 / rho2[:, 0]
    product = R_a @ right
    blocks = np.empty((n, 3, 9))
    blocks[:, :, 0:3] = product[:, :, 0:3]
    blocks[:, :, 3:6] = _EYE3
    blocks[:, :, 6:9] = product[:, :, 3:6]
    columns = np.empty((n, 9), dtype=int)
    columns[:, 0:6] = 6 * anchors[:, None] + _ANCHOR_COLUMNS
    columns[:, 6:9] = 3 * features[:, None] + (CORE_DIM + 6 * state.num_clones
                                               + _FEATURE_COLUMNS)
    return LandmarkRows(points, anchors, blocks, columns)


def feature_world_position(state: SystemState, feature_index):
    """Landmark position in the world frame, plus Jacobian over the error
    vector (anchor clone and feature blocks): the one-row `landmark_rows`."""
    rows = landmark_rows(state, [feature_index])
    return rows.points[0], rows.jacobians(state.error_dim)[0]


def bearing_measurements(state: SystemState, clones, features, uvs, sigma):
    """Stacked normalized-image-plane observations of in-state landmarks,
    landmark `features[k]` seen as `uvs[k]` from window clone `clones[k]`,
    built from one `landmark_rows` pass. A row whose predicted depth is at
    most 1 mm is skipped; returns the measurement of the kept rows, two
    each in the given order, or None when none is kept. Independent of the
    nav error convention because H only touches clone and feature blocks."""
    clones, uvs = np.asarray(clones), np.asarray(uvs, dtype=float)
    rows = landmark_rows(state, features)
    R_cT = state.clone_rotations[clones].transpose(0, 2, 1)
    X = (R_cT @ (rows.points - state.clone_positions[clones])[:, :, None])[:, :, 0]
    kept = ~(X[:, 2] <= 1e-3)
    if not kept.all():
        if not kept.any():
            return None
        clones, uvs, R_cT, X = clones[kept], uvs[kept], R_cT[kept], X[kept]
        rows = LandmarkRows(*(a[kept] for a in rows))
    n = len(clones)
    z = X[:, 2:]
    Pi = np.zeros((n, 6))     # the pinhole projection's Jacobian, row-major
    Pi[:, 0::4] = 1.0 / z
    Pi[:, 2::3] = -X[:, :2] / (z * z)
    # Camera-frame point Jacobians, [observing clone's blocks | the chain
    # through the landmark's world position], projected in one product. The
    # observing clone's blocks are the anchor's when the two are one clone.
    D_X = np.empty((n, 3, 15))
    D_X[:, :, 0:3] = skew(X)
    D_X[:, :, 3:6] = -R_cT
    D_X[:, :, 6:15] = R_cT @ rows.blocks
    own = clones == rows.anchors
    if own.any():
        D_X[own, :, 6:12] += D_X[own, :, 0:6]
    HX = (Pi.reshape(n, 2, 3) @ D_X).transpose(0, 2, 1)
    # The observing clone's columns are written first, so that the anchor's
    # folded blocks overwrite them when the two are one clone.
    H = np.zeros((n, 2, state.error_dim))
    at = np.arange(n)[:, None]
    H[at, :, 6 * clones[:, None] + _ANCHOR_COLUMNS] = HX[:, 0:6]
    H[at, :, rows.columns] = HX[:, 6:15]
    return LinearMeasurement((uvs - X[:, :2] / z).ravel(), H.reshape(2 * n, -1),
                             np.eye(2 * n) * sigma ** 2)


def bearing_measurement(state: SystemState, clone_index, feature_index, uv, sigma):
    """Normalized-image-plane observation of an in-state landmark from a
    window clone: the one-row `bearing_measurements`. Returns None when the
    predicted depth is at most 1 mm (measurement skipped)."""
    return bearing_measurements(state, [clone_index], [feature_index], [uv], sigma)


def landmark_position_measurement(state: SystemState, feature_index, z, noise_cov):
    """Direct world-position constraint on an in-state landmark (used by
    collaborative updates with a remote agent's estimate)."""
    p_w, D = feature_world_position(state, feature_index)
    return LinearMeasurement(np.asarray(z, dtype=float) - p_w, D,
                             np.asarray(noise_cov, dtype=float))
