"""Per-agent system state, its error-vector layout, and the retraction.

The full state holds the navigation extended pose, IMU biases, the GNSS
antenna lever arm, M camera pose clones and N inverse-depth landmarks.
The matching error vector is laid out as

    [dtheta(3), dv(3), dp(3), dbg(3), dba(3), dlever(3),
     (clone_att(3), clone_pos(3)) x M, dfeature(3) x N]

for a total of 18 + 6M + 3N entries.

The navigation block follows one of the error conventions in
``swarmnav.conventions``. Clone, bias, lever-arm and feature errors are
convention-independent (body-frame clone attitude, plain differences
est - truth). ``retract`` is the exact inverse of ``error_between`` in every
convention.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .conventions import CONVENTIONS, CORE_DIM, lookup  # CONVENTIONS: re-exported
from .lie import ExtendedPose, so3_exp, so3_log


@dataclass(frozen=True)
class CameraClone:
    """Camera pose kept in the sliding window, keyed by capture timestamp."""

    rotation: np.ndarray
    position: np.ndarray
    timestamp: float


@dataclass(frozen=True)
class Feature:
    """Anchored inverse-depth landmark (alpha, beta, rho) = (x/z, y/z, 1/z)
    in the anchor clone's camera frame."""

    feature_id: int
    anchor_timestamp: float
    params: np.ndarray


@dataclass(frozen=True)
class SystemState:
    nav: ExtendedPose
    gyro_bias: np.ndarray
    accel_bias: np.ndarray
    lever_arm: np.ndarray
    clones: tuple
    features: tuple
    timestamp: float = 0.0

    @staticmethod
    def identity(timestamp=0.0):
        return SystemState(
            nav=ExtendedPose.identity(),
            gyro_bias=np.zeros(3),
            accel_bias=np.zeros(3),
            lever_arm=np.zeros(3),
            clones=(),
            features=(),
            timestamp=timestamp,
        )

    @property
    def num_clones(self):
        return len(self.clones)

    @property
    def num_features(self):
        return len(self.features)

    @property
    def error_dim(self):
        return CORE_DIM + 6 * len(self.clones) + 3 * len(self.features)


def nav_error(truth: ExtendedPose, estimate: ExtendedPose, convention):
    """9-dim navigation error (attitude, velocity, position) in the given
    convention; the nav block of error_between without requiring matching
    clone/feature structure."""
    return lookup(convention).nav_error(truth, estimate)


def _check_matching(truth: SystemState, estimate: SystemState):
    if truth.num_clones != estimate.num_clones or truth.num_features != estimate.num_features:
        raise ValueError("state structures (M, N) do not match")
    for a, b in zip(truth.clones, estimate.clones):
        if a.timestamp != b.timestamp:
            raise ValueError("clone timestamps do not match")
    for a, b in zip(truth.features, estimate.features):
        if a.feature_id != b.feature_id:
            raise ValueError("feature identities do not match")


def error_between(truth: SystemState, estimate: SystemState, convention):
    """Error vector e such that estimate == retract(truth, e)."""
    conv = lookup(convention)
    _check_matching(truth, estimate)
    parts = [
        conv.nav_error(truth.nav, estimate.nav),
        estimate.gyro_bias - truth.gyro_bias,
        estimate.accel_bias - truth.accel_bias,
        estimate.lever_arm - truth.lever_arm,
    ]
    for ct, ce in zip(truth.clones, estimate.clones):
        parts.append(so3_log(ct.rotation.T @ ce.rotation))
        parts.append(ce.position - ct.position)
    for ft, fe in zip(truth.features, estimate.features):
        parts.append(fe.params - ft.params)
    return np.concatenate(parts) if parts else np.zeros(0)


def retract(state: SystemState, correction, convention) -> SystemState:
    """Apply an error vector to a state; exact inverse of error_between."""
    conv = lookup(convention)
    correction = np.asarray(correction, dtype=float)
    if correction.shape != (state.error_dim,):
        raise ValueError(
            f"correction has length {correction.shape}, state error dim is {state.error_dim}"
        )
    nav = conv.nav_retract(state.nav, correction[:9])
    base = CORE_DIM + 6 * state.num_clones
    clone_rows = correction[CORE_DIM:base].reshape(-1, 6)
    feature_rows = correction[base:].reshape(-1, 3)
    return SystemState(
        nav=nav,
        gyro_bias=state.gyro_bias + correction[9:12],
        accel_bias=state.accel_bias + correction[12:15],
        lever_arm=state.lever_arm + correction[15:18],
        clones=tuple(CameraClone(c.rotation @ so3_exp(e[:3]), c.position + e[3:], c.timestamp)
                     for c, e in zip(state.clones, clone_rows)),
        features=tuple(replace(f, params=f.params + e)
                       for f, e in zip(state.features, feature_rows)),
        timestamp=state.timestamp,
    )


def clone_pose_from_nav(nav: ExtendedPose, camera_extrinsics):
    """Camera pose in the world frame from the IMU pose and fixed extrinsics
    (R_imu_cam, p_imu_cam)."""
    R_ic, p_ic = camera_extrinsics
    return nav.rotation @ R_ic, nav.position + nav.rotation @ p_ic


def augment_clone(state: SystemState, camera_extrinsics, max_clones=None) -> SystemState:
    """Append a camera clone of the current IMU pose to the sliding window."""
    if max_clones is not None and state.num_clones >= max_clones:
        raise ValueError(f"clone window is full (M = {state.num_clones})")
    R_c, p_c = clone_pose_from_nav(state.nav, camera_extrinsics)
    clone = CameraClone(R_c, p_c, state.timestamp)
    return replace(state, clones=state.clones + (clone,))


def marginalize_clone(state: SystemState, index) -> SystemState:
    """Drop the clone at the given index from the window."""
    if not 0 <= index < state.num_clones:
        raise ValueError(f"clone index {index} out of range (M = {state.num_clones})")
    clones = state.clones[:index] + state.clones[index + 1:]
    return replace(state, clones=clones)


def add_feature(state: SystemState, feature: Feature, max_features=None) -> SystemState:
    if max_features is not None and state.num_features >= max_features:
        raise ValueError(f"feature list is full (N = {state.num_features})")
    return replace(state, features=state.features + (feature,))


def remove_feature(state: SystemState, index) -> SystemState:
    if not 0 <= index < state.num_features:
        raise ValueError(f"feature index {index} out of range")
    return replace(state, features=state.features[:index] + state.features[index + 1:])
