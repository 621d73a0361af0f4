"""Sliding history buffers and buffered re-propagation of delayed
measurements.

Each agent keeps a high-rate IMU buffer with one entry per propagated
segment: the segment's composed core transition and process noise, its
start and end times, and its samples, a view of the IMU stream's arrays.
A measurement that completes late is updated against the snapshot taken at
its epoch, whose state time is that epoch and so a segment boundary. The
corrected covariance is transported to the agent's state time through the
stored segment transitions and noises, one product per segment with none
re-formed, and the corrected mean is re-mechanized through the buffered
samples, joined once, in one segment call, instead of rewinding and
replaying. The covariance transport equals rewind-and-replay to rounding:
a segment's products group differently from a step-by-step recursion.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from .filters import ImuStream, LinearMeasurement, kalman_step, mechanize
from .state import CORE_DIM, retract


class DelayExceedsHorizon(RuntimeError):
    """The requested interval reaches past the oldest buffered entry."""


@dataclass(frozen=True)
class ImuBufferEntry:
    """One propagated segment: its composed transition, noise and samples."""

    F: np.ndarray          # the segment's core transition F_n ... F_1
    noise: np.ndarray      # the core process noise it adds (18 x 18)
    start: float           # the state time the segment starts from
    timestamp: float       # the state time it ends at
    samples: ImuStream     # the stream slice driving it (mean replay)


@dataclass
class HistoryBuffer:
    """Chronological ring of segments. `capacity` counts samples: the oldest
    segment is discarded once the newer ones hold `capacity` samples, so the
    newest `capacity` samples always stay."""

    capacity: int
    entries: list = field(default_factory=list)
    _held: int = 0         # samples in the entries
    last_evicted: float = None

    def __len__(self):
        return len(self.entries)

    def push(self, entry):
        t = entry.timestamp
        if self.entries and t < self.entries[-1].timestamp:
            raise ValueError(f"out-of-order push: t={t} is before last "
                             f"t={self.entries[-1].timestamp}")
        self.entries.append(entry)
        self._held += len(entry.samples)
        while self.entries and self._held - len(self.entries[0].samples) >= self.capacity:
            self.last_evicted = self.entries[0].timestamp
            self._held -= len(self.entries.pop(0).samples)

    def range_after(self, t_start, t_end):
        """Entries with t_start < t <= t_end, oldest first. Raises
        DelayExceedsHorizon when the interval start has already been
        evicted, and ValueError when it falls strictly inside a buffered
        segment, whose one transition cannot be split."""
        if self.last_evicted is not None and t_start < self.last_evicted:
            raise DelayExceedsHorizon(
                f"interval start t={t_start} predates buffer horizon"
            )
        lo = bisect.bisect_right(self.entries, t_start, key=lambda e: e.timestamp)
        if lo < len(self.entries) and self.entries[lo].start < t_start:
            e = self.entries[lo]
            raise ValueError(f"t={t_start} falls inside the buffered segment "
                             f"({e.start}, {e.timestamp}]")
        hi = bisect.bisect_right(self.entries, t_end, key=lambda e: e.timestamp)
        return self.entries[lo:hi]


def repropagate(buffer: HistoryBuffer, P_kk, xi_k, t_k, t_m):
    """Transport a corrected covariance and error mean from t_k to t_m using
    the stored segment transitions and process noises: returns (P_m, xi_m,
    Phi) with Phi the product of the segments' transitions, newest left.
    t_m == t_k yields the identity transport with no added noise."""
    segments = buffer.range_after(t_k, t_m)
    Phi = np.eye(len(P_kk))
    P = P_kk.copy()
    for e in segments:
        P = e.F @ P @ e.F.T + e.noise
        Phi = e.F @ Phi
    P = (P + P.T) / 2.0
    return P, Phi @ xi_k, Phi


def core_update_partitioned(partition, meas_core: LinearMeasurement):
    """Measurement update whose H touches only the core block, applied to a
    segmented covariance without assembling the full matrix.

    Returns the full-length correction (core entries, then sensor entries)
    and mutates the partition blocks in place:

        P^C+      Joseph form
        P^{C,S}+  = Lambda P^{C,S}
        P^{S,S}+  = P^{S,S} - K_S S K_S'
    """
    step = kalman_step(partition.core, meas_core)
    partition.core = step.P_post
    K_s = np.linalg.solve(step.S, meas_core.H @ partition.cross).T
    partition.cross = (np.eye(CORE_DIM) - step.K @ meas_core.H) @ partition.cross
    self_block = partition.sensor_self - K_s @ step.S @ K_s.T
    partition.sensor_self = (self_block + self_block.T) / 2.0
    return np.concatenate([step.xi, K_s @ meas_core.residual])


def apply_delayed_update(agent, meas_core: LinearMeasurement, snapshot):
    """Apply a core-block measurement taken at the epoch of `snapshot`, the
    (state, partition) pair captured then, whose processing completes at
    the agent's current state time.

    The gain and correction are computed against the snapshot, then the
    posterior mean/covariance are transported to the agent's time through
    the buffered segments, one transition product each.

    Raises DelayExceedsHorizon when the epoch has left the IMU buffer; the
    caller should drop the measurement and report it.
    """
    state_k, part_k = snapshot
    t_k, t_now = state_k.timestamp, agent.state.timestamp
    if t_k > t_now:
        raise ValueError("snapshot is newer than the agent")
    part_k = part_k.copy()

    xi = core_update_partitioned(part_k, meas_core)

    # Transport the corrected covariance to t_now with the stored segment
    # products; sensor states are static so only the cross rows rotate.
    P_m, _, Phi = repropagate(agent.imu_buffer, part_k.core, xi[:CORE_DIM], t_k, t_now)
    part_k.core = P_m
    part_k.cross = Phi @ part_k.cross
    part_k.synced_at = t_now

    # Mean: apply the correction at the epoch and re-integrate the buffered
    # IMU samples. This costs one strapdown segment (no transition
    # matrices) and reproduces rewind-and-replay exactly, where a linear
    # transport of the correction would drop second-order bias terms.
    state = retract(state_k, xi, agent.convention)
    segments = [e.samples for e in agent.imu_buffer.range_after(t_k, t_now)]
    replay = ImuStream(np.concatenate([[]] + [s.times for s in segments]),
                       np.concatenate([np.empty((0, 3))] + [s.gyro for s in segments]),
                       np.concatenate([np.empty((0, 3))] + [s.accel for s in segments]))
    agent.state = mechanize(state, replay, agent.noise.gravity).state
    agent.partition = part_k
    return xi
