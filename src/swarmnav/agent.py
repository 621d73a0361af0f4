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
The agent's `clock` is the state time propagation has reached: syncs,
buffer entries and the completion of a delayed fix all read it. Where the
convention's transition reads only the raw samples (its table entry is
`samples_only`), the covariance propagates without the mean: each
segment's one record, its samples and step lengths, is owed to the mean,
and the owed records are joined and integrated in one `mechanize` call when
something reads `state`; a delayed fix's replay supersedes them.
The window is the state's stacked arrays (``swarmnav.state``); a clone's
anchored landmarks are dropped before the clone.
Each constant has one home: the IMU noise, the sensor sigmas and the camera
mount are the agent's ``SensorSuite``, the window limits, landmark prior and
buffer size its ``FilterOptions``, and gravity is ``conventions.GRAVITY``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import state as st
from .buffers import (
    HistoryBuffer,
    ImuBufferEntry,
    apply_delayed_update,
    core_update_partitioned,
)
from .checks import count, number
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
    bearing_measurements,
    gnss_measurement,
    kalman_step,
    mechanize,
    step_lengths,
)
from .conventions import lookup
from .sensors import SensorSuite
from .state import CORE_DIM, SystemState, retract


@dataclass(frozen=True)
class FilterOptions:
    max_clones: int = 6
    max_features: int = 16
    clone_every: int = 6        # camera frames per keyframe
    feature_prior_sigma: float = 1.0
    min_track_length: int = 3
    imu_buffer_capacity: int = 300

    def __post_init__(self):
        for name in ("max_clones", "clone_every", "min_track_length",
                     "imu_buffer_capacity"):
            count(name, getattr(self, name), 1)
        count("max_features", self.max_features, 0)
        number("feature_prior_sigma", self.feature_prior_sigma, positive=True)


class AgentFilter:
    """One vehicle's filter with buffered history for delayed measurements.
    Its sensor model is `suite`, its limits and landmark prior `options`."""

    def __init__(self, state: SystemState, covariance, convention,
                 suite: SensorSuite = SensorSuite(),
                 options: FilterOptions = FilterOptions()):
        lookup(convention)  # ValueError for an unknown name
        self.convention = convention
        self.suite = suite
        self.options = options
        self.state = state
        covariance = np.asarray(covariance, dtype=float)
        if covariance.shape != (state.error_dim, state.error_dim):
            raise ValueError(
                f"covariance is {covariance.shape}, state error dim is {state.error_dim}"
            )
        self.partition = CovariancePartition(covariance[:CORE_DIM, :CORE_DIM],
                                             synced_at=self.clock)
        split_full(self.partition, covariance)
        self.imu_buffer = HistoryBuffer(options.imu_buffer_capacity)

    # ------------------------------------------------------------------
    # the mean

    @property
    def state(self) -> SystemState:
        """The mean at the clock: the segments owed to it, if any, are
        integrated from the last settled state in one call, then cleared."""
        if self._owed:
            self._state = mechanize(self._state, ImuStream.join(self._owed)).state
            self._owed = []
        return self._state

    @state.setter
    def state(self, state: SystemState):
        """Replace the mean; it covers every owed sample, and sets the clock."""
        self._state = state
        self._owed = []
        self.clock = state.timestamp

    # ------------------------------------------------------------------
    # covariance access

    def sync(self):
        """Bring the cross block up to the current time."""
        return sync_cross(self.partition, self.imu_buffer, None, "visual", self.clock)

    def full_covariance(self):
        self.sync()
        return assemble_full(self.partition)

    def set_full_covariance(self, P):
        split_full(self.partition, P)
        self.partition.synced_at = self.clock

    def snapshot(self):
        """(state, synchronized partition copy) at the current time; used as
        the epoch reference of a measurement that will complete late. The
        copy is made for one fix: `update_gnss_delayed` consumes it."""
        self.sync()
        return self.state, self.partition.copy()

    # ------------------------------------------------------------------
    # propagation

    def propagate(self, segment: ImuStream):
        """Advance through a segment of the IMU stream.

        Its step lengths are formed once, into the segment's one record. A
        convention whose transition reads only the samples owes the record
        to the mean; any other mechanizes the mean over it in one call and
        reads the integrator's record. The convention's transitions and each
        step's process noise G Q G' are formed in one stacked call each, and
        `compose_transport` reduces them to the segment's one (transition,
        noise) pair, which advances the core covariance, is owed by the
        cross block, and is buffered with the record as one entry for the
        delayed-fix transport. An empty segment changes nothing.
        """
        if not segment:
            return
        conv = lookup(self.convention)
        start = self.clock
        record = ImuStream(segment.times, segment.gyro, segment.accel,
                           step_lengths(start, segment.times))
        if conv.samples_only:
            self._owed.append(record)
            steps = conv.transition(record)
        else:
            strapdown = mechanize(self.state, record)
            self.state = strapdown.state
            steps = conv.transition(strapdown)
        noise = steps.G @ self.suite.noise.discrete_q(record.dts[:, None, None]) \
            @ steps.G.transpose(0, 2, 1)
        F, noise = compose_transport(steps.F, noise)
        F.flags.writeable = noise.flags.writeable = record.dts.flags.writeable = False
        propagate_core_only(self.partition, F, noise)
        self.clock = float(segment.times[-1])
        self.imu_buffer.push(ImuBufferEntry(F, noise, start, self.clock, record))

    # ------------------------------------------------------------------
    # updates

    def update_gnss(self, z):
        """Immediate antenna-position update, applied through the segmented
        core-block path (no full-matrix assembly)."""
        meas_core = gnss_measurement(self.state, z, self.suite.gnss_sigma, self.convention)
        self.sync()
        xi = core_update_partitioned(self.partition, meas_core)
        self.state = retract(self.state, xi, self.convention)
        return xi

    def update_gnss_delayed(self, z, snapshot):
        """Apply a GNSS fix taken at the epoch snapshot, whose processing
        finishes now, transporting the correction forward through the
        buffered transitions."""
        meas_core = gnss_measurement(snapshot[0], z, self.suite.gnss_sigma, self.convention)
        return apply_delayed_update(self, meas_core, snapshot)

    def update_vision(self, observations):
        """Stacked normalized-image observations (clone_index, feature_index,
        uv) of in-state landmarks, built in one `bearing_measurements` pass;
        returns the number of observations applied."""
        if not observations:
            return 0
        meas = bearing_measurements(self.state, *zip(*observations), self.suite.pixel_sigma)
        if meas is None:
            return 0
        step = kalman_step(self.full_covariance(), meas)
        self.state = retract(self.state, step.xi, self.convention)
        self.set_full_covariance(step.P_post)
        return len(meas.residual) // 2

    def update_collaborative(self, correspondences):
        """Covariance-intersection landmark constraints from a neighbor."""
        return collaborative_update(self, correspondences)

    # ------------------------------------------------------------------
    # window management

    def _clone_jacobian(self):
        """d(clone error) / d(core error) for a clone of the current pose."""
        R_ic, p_ic = self.suite.camera_extrinsics
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
        if self.state.num_clones >= self.options.max_clones:
            self.marginalize_clone(0)
        self.sync()
        at = 6 * self.state.num_clones
        insert_block_rows(self.partition, at, self._clone_jacobian())
        self.state = st.augment_clone(self.state, self.suite.camera_extrinsics,
                                      self.options.max_clones)
        return self.state.num_clones - 1

    def marginalize_clone(self, index):
        """Drop a window clone and the landmarks anchored to it."""
        for j in reversed(np.flatnonzero(self.state.feature_anchors == index)):
            self.remove_feature(j)
        self.sync()
        remove_block_rows(self.partition, 6 * index, 6)
        self.state = st.marginalize_clone(self.state, index)

    def add_feature(self, feature_id, anchor, params):
        """Add a landmark on window clone row `anchor`, with an uncorrelated prior."""
        state = st.add_feature(self.state, feature_id, anchor, params,
                               self.options.max_features)
        self.sync()
        at = 6 * self.state.num_clones + 3 * self.state.num_features
        insert_block_rows(self.partition, at, None,
                          prior=np.eye(3) * self.options.feature_prior_sigma ** 2)
        self.state = state
        return state.num_features - 1

    def remove_feature(self, index):
        self.sync()
        remove_block_rows(self.partition, 6 * self.state.num_clones + 3 * index, 3)
        self.state = st.remove_feature(self.state, index)

    def initialize_feature(self, feature_id, tracks):
        """Triangulate a tracked point from window clones and add it as an
        inverse-depth landmark anchored at the first track's clone, then
        absorb the track as a stacked update.

        `tracks` is a list of (clone_index, uv) normalized observations.
        Returns the landmark's state index, or None when triangulation is not
        possible (fewer views than the options' `min_track_length`, or
        degenerate geometry).
        """
        if len(tracks) < self.options.min_track_length:
            return None
        p_w = self._triangulate(tracks)
        if p_w is None:
            return None
        # Sanity: the triangulated point must actually explain the track;
        # a bad linearization point here would poison the filter.
        Rs, ps = self.state.clone_rotations, self.state.clone_positions
        views = [Rs[ci].T @ (p_w - ps[ci]) for ci, _ in tracks]
        for X, (_, uv) in zip(views, tracks):
            if X[2] <= 1e-3 or np.max(np.abs(X[:2] / X[2] - uv)) > 0.05:
                return None
        X_a = views[0]  # in the anchor's frame, in front of it by the check above
        params = np.array([X_a[0] / X_a[2], X_a[1] / X_a[2], 1.0 / X_a[2]])
        j = self.add_feature(feature_id, tracks[0][0], params)
        obs = [(ci, j, uv) for ci, uv in tracks]
        self.update_vision(obs)
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
