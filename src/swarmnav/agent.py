"""Single-agent estimator: strapdown propagation with a segmented
covariance, sliding-window camera clones, inverse-depth landmarks, and the
GNSS / vision / collaborative update paths.

The filter takes its IMU stream in segments, all samples between two
events, each a slice of the stream's arrays: the biases are fixed across a
segment, so the mean is mechanized and the convention's transitions are
formed for the whole segment at once, and composed with their process
noises into one segment transition and noise. The covariance is split into
an 18-dim core (propagated once per segment by that pair) and one sensor
block holding all clone and landmark entries; the cross block between them
is caught up lazily, from the product of the segment transitions it owes,
just before it is needed, which keeps the propagation cost independent of
the window size. The IMU buffer, one entry per segment, serves delayed fixes.
The state's timestamp is the filter's only clock: syncs, snapshots and the
completion of a delayed fix all read it.
The window is the state's stacked arrays (``swarmnav.state``); a clone's
anchored landmarks are dropped before the clone.
"""

from __future__ import annotations

import numpy as np

from . import state as st
from .buffers import (
    HistoryBuffer,
    ImuBufferEntry,
    apply_delayed_update,
    core_update_partitioned,
)
from .covariance import (
    CovariancePartition,
    assemble_full,
    collaborative_update,
    compose_transport,
    insert_block_rows,
    propagate_core_only,
    remove_block_rows,
    split_full,
    sync_cross,
)
from .filters import (
    ImuStream,
    NoiseDensities,
    bearing_measurement,
    gnss_measurement,
    kalman_step,
    mechanize,
    stack_measurements,
)
from .conventions import lookup
from .state import CORE_DIM, SystemState, retract


class AgentFilter:
    """One vehicle's filter with buffered history for delayed measurements."""

    def __init__(self, state: SystemState, covariance, convention,
                 noise: NoiseDensities = None,
                 camera_extrinsics=None,
                 max_clones=6, max_features=16,
                 imu_buffer_capacity=300):
        lookup(convention)  # ValueError for an unknown name
        self.convention = convention
        self.noise = noise if noise is not None else NoiseDensities()
        if camera_extrinsics is None:
            camera_extrinsics = (np.eye(3), np.zeros(3))
        self.camera_extrinsics = camera_extrinsics
        self.max_clones = max_clones
        self.max_features = max_features
        self.state = state
        covariance = np.asarray(covariance, dtype=float)
        if covariance.shape != (state.error_dim, state.error_dim):
            raise ValueError(
                f"covariance is {covariance.shape}, state error dim is {state.error_dim}"
            )
        self.partition = CovariancePartition(covariance[:CORE_DIM, :CORE_DIM],
                                             synced_at=state.timestamp)
        split_full(self.partition, covariance)
        self.imu_buffer = HistoryBuffer(imu_buffer_capacity)

    # ------------------------------------------------------------------
    # covariance access

    def sync(self):
        """Bring the cross block up to the current time."""
        return sync_cross(self.partition, self.imu_buffer, None, "visual",
                          self.state.timestamp)

    def full_covariance(self):
        self.sync()
        return assemble_full(self.partition)

    def set_full_covariance(self, P):
        split_full(self.partition, P)
        self.partition.synced_at = self.state.timestamp

    def snapshot(self):
        """(state, synchronized partition copy) at the current time; used as
        the epoch reference of a measurement that will complete late."""
        self.sync()
        return self.state, self.partition.copy()

    # ------------------------------------------------------------------
    # propagation

    def propagate(self, segment: ImuStream):
        """Advance through a segment of the IMU stream.

        The mean is mechanized over the whole segment in one call, and the
        convention's transitions and each step's process noise G Q G' are
        formed in one stacked call each. `compose_transport` reduces them to
        the segment's one (transition, noise) pair, which advances the core
        covariance, is owed by the cross block, and is buffered with the
        segment itself as one entry for the delayed-fix transport. An empty
        segment changes nothing.
        """
        if not segment:
            return self.state
        seg = mechanize(self.state, segment, self.noise.gravity)
        steps = lookup(self.convention).transition(seg)
        noise = steps.G @ self.noise.discrete_q(seg.dts[:, None, None]) \
            @ steps.G.transpose(0, 2, 1)
        F, noise = compose_transport(steps.F, noise)
        F.flags.writeable = noise.flags.writeable = False
        propagate_core_only(self.partition, F, noise)
        self.imu_buffer.push(ImuBufferEntry(F, noise, self.state.timestamp,
                                            seg.state.timestamp, segment))
        self.state = seg.state
        return self.state

    # ------------------------------------------------------------------
    # updates

    def update_gnss(self, z, sigma):
        """Immediate antenna-position update, applied through the segmented
        core-block path (no full-matrix assembly)."""
        meas_core = gnss_measurement(self.state, z, sigma, self.convention)
        self.sync()
        xi = core_update_partitioned(self.partition, meas_core)
        self.state = retract(self.state, xi, self.convention)
        return xi

    def update_gnss_delayed(self, z, sigma, snapshot):
        """Apply a GNSS fix taken at the epoch snapshot, whose processing
        finishes now, transporting the correction forward through the
        buffered transitions."""
        meas_core = gnss_measurement(snapshot[0], z, sigma, self.convention)
        return apply_delayed_update(self, meas_core, snapshot)

    def update_vision(self, observations, pixel_sigma):
        """Stacked normalized-image observations (clone_index, feature_index,
        uv) of in-state landmarks; returns the number of rows applied."""
        measurements = []
        for clone_index, feature_index, uv in observations:
            m = bearing_measurement(self.state, clone_index, feature_index, uv,
                                    pixel_sigma)
            if m is not None:
                measurements.append(m)
        if not measurements:
            return 0
        meas = stack_measurements(measurements)
        step = kalman_step(self.full_covariance(), meas)
        self.state = retract(self.state, step.xi, self.convention)
        self.set_full_covariance(step.P_post)
        return len(measurements)

    def update_collaborative(self, correspondences):
        """Covariance-intersection landmark constraints from a neighbor."""
        return collaborative_update(self, correspondences)

    # ------------------------------------------------------------------
    # window management

    def _clone_jacobian(self):
        """d(clone error) / d(core error) for a clone of the current pose."""
        R_ic, p_ic = self.camera_extrinsics
        R = self.state.nav.rotation
        p = self.state.nav.position
        conv = lookup(self.convention)
        J = np.zeros((6, CORE_DIM))
        J[0:3, 0:3] = conv.clone_attitude(R, R_ic)
        J[3:6, 0:9] = conv.point_jacobian(R, p, p_ic)
        return J

    def augment_clone(self):
        """Push the current camera pose into the sliding window, evicting the
        oldest clone (and any landmark anchored to it) when full."""
        if self.state.num_clones >= self.max_clones:
            self.marginalize_clone(0)
        self.sync()
        at = 6 * self.state.num_clones
        insert_block_rows(self.partition, at, self._clone_jacobian())
        self.state = st.augment_clone(self.state, self.camera_extrinsics,
                                      self.max_clones)
        return self.state.num_clones - 1

    def marginalize_clone(self, index):
        """Drop a window clone and the landmarks anchored to it."""
        for j in reversed(np.flatnonzero(self.state.feature_anchors == index)):
            self.remove_feature(j)
        self.sync()
        remove_block_rows(self.partition, 6 * index, 6)
        self.state = st.marginalize_clone(self.state, index)

    def add_feature(self, feature_id, anchor, params, prior_sigma):
        """Add a landmark on window clone row `anchor`, with an uncorrelated prior."""
        state = st.add_feature(self.state, feature_id, anchor, params, self.max_features)
        self.sync()
        at = 6 * self.state.num_clones + 3 * self.state.num_features
        insert_block_rows(self.partition, at, None,
                          prior=np.eye(3) * prior_sigma ** 2)
        self.state = state
        return state.num_features - 1

    def remove_feature(self, index):
        self.sync()
        remove_block_rows(self.partition, 6 * self.state.num_clones + 3 * index, 3)
        self.state = st.remove_feature(self.state, index)

    def initialize_feature(self, feature_id, tracks, prior_sigma=1.0,
                           pixel_sigma=1.0 / 500.0, min_observations=3):
        """Triangulate a tracked point from window clones and add it as an
        inverse-depth landmark anchored at the first track's clone, then
        absorb the track as a stacked update.

        `tracks` is a list of (clone_index, uv) normalized observations.
        Returns the landmark's state index, or None when triangulation is not
        possible (too few views or degenerate geometry).
        """
        if len(tracks) < min_observations:
            return None
        p_w = self._triangulate(tracks)
        if p_w is None:
            return None
        # Sanity: the triangulated point must actually explain the track;
        # a bad linearization point here would poison the filter.
        Rs, ps = self.state.clone_rotations, self.state.clone_positions
        for ci, uv in tracks:
            X = Rs[ci].T @ (p_w - ps[ci])
            if X[2] <= 1e-3 or np.max(np.abs(X[:2] / X[2] - uv)) > 0.05:
                return None
        ai, _ = tracks[0]
        X_a = Rs[ai].T @ (p_w - ps[ai])
        if X_a[2] <= 1e-3:
            return None
        params = np.array([X_a[0] / X_a[2], X_a[1] / X_a[2], 1.0 / X_a[2]])
        j = self.add_feature(feature_id, ai, params, prior_sigma)
        obs = [(ci, j, uv) for ci, uv in tracks]
        self.update_vision(obs, pixel_sigma)
        return j

    def _triangulate(self, tracks):
        """Midpoint triangulation: world point closest to all bearing rays."""
        A = np.zeros((3, 3))
        b = np.zeros(3)
        for clone_index, uv in tracks:
            d = self.state.clone_rotations[clone_index] @ np.array([uv[0], uv[1], 1.0])
            d = d / np.linalg.norm(d)
            M = np.eye(3) - np.outer(d, d)
            A += M
            b += M @ self.state.clone_positions[clone_index]
        if np.linalg.cond(A) > 1e8:
            return None
        return np.linalg.solve(A, b)
