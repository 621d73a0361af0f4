"""Per-agent system state, its error-vector layout, and the retraction.

The full state holds the navigation extended pose, IMU biases, the GNSS
antenna lever arm and the sliding window: M camera pose clones and N
inverse-depth landmarks. The matching error vector is laid out as

    [dtheta(3), dv(3), dp(3), dbg(3), dba(3), dlever(3),
     (clone_att(3), clone_pos(3)) x M, dfeature(3) x N]

for a total of 18 + 6M + 3N entries.

The window is kept as stacked arrays in that row order: clone i is row i
of ``clone_rotations``, ``clone_positions`` and ``clone_times``, and
landmark j, an inverse-depth point (alpha, beta, rho) = (x/z, y/z, 1/z) in
its anchor clone's camera frame, is row j of ``feature_ids``,
``feature_anchors`` (the anchor's clone row) and ``feature_params``.

The navigation block follows one of the error conventions in
``swarmnav.conventions``. Clone, bias, lever-arm and feature errors are
convention-independent (body-frame clone attitude, plain differences
est - truth). ``retract`` is the exact inverse of ``error_between`` in every
convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .conventions import CONVENTIONS, CORE_DIM, lookup  # CONVENTIONS: re-exported
from .lie import ExtendedPose, so3_exp, so3_log


def _rows(*shape, dtype=float):
    return field(default_factory=lambda: np.zeros((0, *shape), dtype=dtype))


@dataclass(frozen=True)
class SystemState:
    nav: ExtendedPose
    gyro_bias: np.ndarray
    accel_bias: np.ndarray
    lever_arm: np.ndarray
    timestamp: float = 0.0
    clone_rotations: np.ndarray = _rows(3, 3)
    clone_positions: np.ndarray = _rows(3)
    clone_times: np.ndarray = _rows()
    feature_ids: np.ndarray = _rows(dtype=int)
    feature_anchors: np.ndarray = _rows(dtype=int)
    feature_params: np.ndarray = _rows(3)

    @staticmethod
    def identity(timestamp=0.0):
        return SystemState(ExtendedPose.identity(), np.zeros(3), np.zeros(3), np.zeros(3),
                           timestamp)

    @property
    def num_clones(self):
        return len(self.clone_times)

    @property
    def num_features(self):
        return len(self.feature_ids)

    @property
    def error_dim(self):
        return CORE_DIM + 6 * len(self.clone_times) + 3 * len(self.feature_ids)


def nav_error(truth: ExtendedPose, estimate: ExtendedPose, convention):
    """9-dim navigation error (attitude, velocity, position) in the given
    convention; the nav block of error_between without requiring matching
    clone/feature structure."""
    return lookup(convention).nav_error(truth, estimate)


def error_between(truth: SystemState, estimate: SystemState, convention):
    """Error vector e such that estimate == retract(truth, e)."""
    conv = lookup(convention)
    if not (np.array_equal(truth.clone_times, estimate.clone_times)
            and np.array_equal(truth.feature_ids, estimate.feature_ids)):
        raise ValueError("window capture times or landmark ids do not match")
    clone_errors = [np.concatenate([so3_log(Rt.T @ Re), pe - pt]) for Rt, Re, pt, pe in
                    zip(truth.clone_rotations, estimate.clone_rotations,
                        truth.clone_positions, estimate.clone_positions)]
    return np.concatenate([
        conv.nav_error(truth.nav, estimate.nav),
        estimate.gyro_bias - truth.gyro_bias,
        estimate.accel_bias - truth.accel_bias,
        estimate.lever_arm - truth.lever_arm,
        *clone_errors,
        (estimate.feature_params - truth.feature_params).ravel(),
    ])


def retract(state: SystemState, correction, convention) -> SystemState:
    """Apply an error vector to a state; exact inverse of error_between."""
    conv = lookup(convention)
    correction = np.asarray(correction, dtype=float)
    if correction.shape != (state.error_dim,):
        raise ValueError(
            f"correction has length {correction.shape}, state error dim is {state.error_dim}"
        )
    M = state.num_clones
    base = CORE_DIM + 6 * M
    rotations, positions = state.clone_rotations, state.clone_positions
    if M:  # a window-less state makes no Lie call here
        clone_rows = correction[CORE_DIM:base].reshape(M, 6)
        rotations = rotations @ so3_exp(clone_rows[:, :3])
        positions = positions + clone_rows[:, 3:]
    return replace(state, nav=conv.nav_retract(state.nav, correction[:9]),
                   gyro_bias=state.gyro_bias + correction[9:12],
                   accel_bias=state.accel_bias + correction[12:15],
                   lever_arm=state.lever_arm + correction[15:18],
                   clone_rotations=rotations, clone_positions=positions,
                   feature_params=state.feature_params + correction[base:].reshape(-1, 3))


def augment_clone(state: SystemState, camera_extrinsics, max_clones=None) -> SystemState:
    """Append a camera clone of the current IMU pose, the camera pose in the
    world frame from fixed extrinsics (R_imu_cam, p_imu_cam), to the
    sliding window."""
    if max_clones is not None and state.num_clones >= max_clones:
        raise ValueError(f"clone window is full (M = {state.num_clones})")
    R_ic, p_ic = camera_extrinsics
    R, p = state.nav.rotation, state.nav.position
    return replace(state, clone_rotations=np.concatenate([state.clone_rotations, [R @ R_ic]]),
                   clone_positions=np.concatenate([state.clone_positions, [p + R @ p_ic]]),
                   clone_times=np.append(state.clone_times, state.timestamp))


def marginalize_clone(state: SystemState, index) -> SystemState:
    """Drop the clone at the given row from the window; every later anchor
    moves down one row."""
    if not 0 <= index < state.num_clones:
        raise ValueError(f"clone index {index} out of range (M = {state.num_clones})")
    anchors = state.feature_anchors
    if np.any(anchors == index):
        raise ValueError(f"clone {index} still anchors a landmark")
    return replace(state, clone_rotations=np.delete(state.clone_rotations, index, axis=0),
                   clone_positions=np.delete(state.clone_positions, index, axis=0),
                   clone_times=np.delete(state.clone_times, index),
                   feature_anchors=anchors - (anchors > index))


def add_feature(state: SystemState, feature_id, anchor, params,
                max_features=None) -> SystemState:
    """Append a landmark anchored at the clone in row `anchor`."""
    if max_features is not None and state.num_features >= max_features:
        raise ValueError(f"feature list is full (N = {state.num_features})")
    if not 0 <= anchor < state.num_clones:
        raise ValueError(f"anchor clone {anchor} is not in the window (M = {state.num_clones})")
    return replace(state, feature_ids=np.append(state.feature_ids, feature_id),
                   feature_anchors=np.append(state.feature_anchors, anchor),
                   feature_params=np.concatenate([state.feature_params, [params]]))


def remove_feature(state: SystemState, index) -> SystemState:
    if not 0 <= index < state.num_features:
        raise ValueError(f"feature index {index} out of range")
    return replace(state, feature_ids=np.delete(state.feature_ids, index),
                   feature_anchors=np.delete(state.feature_anchors, index),
                   feature_params=np.delete(state.feature_params, index, axis=0))
