"""Segmented covariance bookkeeping and covariance-intersection fusion.

The full covariance is kept as a core block (navigation + biases + lever
arm, 18x18), one sensor block holding every clone and landmark entry
(clones first, then features), and the cross block between the two. Only
the core is propagated, once per IMU segment: `compose_transport` reduces
the segment's stacked step transitions and noises to one pair, which
advances the core and is folded into the partition's `owed` product. The
cross block is caught up on demand by left-multiplying it once, which is
exact because the sensor states are static under IMU propagation. Every
update syncs the cross block first and corrects it in place, so `owed`
holds only IMU transitions, and the cross block is stale exactly when it
owes one. A sync is to the agent's state time; `synced_at` serves only
perfbench's `last_sync` view and `sync_cross`'s backwards check.

Inter-agent fusion uses covariance intersection, so no inter-agent
cross-covariance is ever stored (the partition has no slot for one).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filters import (
    LinearMeasurement,
    UpdateRejected,
    kalman_step,
    landmark_position_measurement,
    propagate_covariance,
)
from .state import CORE_DIM, retract


class StaleBlockError(RuntimeError):
    """The cross block was requested without synchronizing it first."""


class CovariancePartition:
    """Core covariance, the sensor block of `dim` clone and landmark
    entries, and the cross block between them."""

    def __init__(self, core, dim=0, synced_at=0.0):
        self.core = np.asarray(core, dtype=float)
        self.cross = np.zeros((CORE_DIM, dim))
        self.sensor_self = np.zeros((dim, dim))
        self.synced_at = synced_at   # time the cross block was last synced
        self.owed = None   # product of the core transitions since, newest left

    @property
    def last_sync(self):
        """{"visual": synced_at}, the block-id view perfbench's tracer reads."""
        return {"visual": self.synced_at}

    def copy(self):
        other = CovariancePartition(self.core.copy(), synced_at=self.synced_at)
        other.cross = self.cross.copy()
        other.sensor_self = self.sensor_self.copy()
        other.owed = self.owed  # replaced, never written in place
        return other


def compose_transport(F, noise):
    """The one transition and process noise of a run of steps, given as
    stacks oldest first (n x d x d each): (F_n ... F_1, Q) such that
    F P F' + Q equals the stepwise recursion P <- F_k P F_k' + Q_k, up to
    rounding. Adjacent pairs merge as (F_b F_a, F_b Q_a F_b' + Q_b), which
    is associative (Sarkka & Garcia-Fernandez, IEEE TAC 2021), in
    ceil(log2 n) stacked passes; one step is returned as it is."""
    while len(F) > 1:
        m = len(F) // 2 * 2
        F_b = F[1:m:2]
        F_ab = F_b @ F[0:m:2]
        Q_ab = F_b @ noise[0:m:2] @ F_b.transpose(0, 2, 1) + noise[1:m:2]
        if m < len(F):  # an odd step out waits for the next pass
            F_ab, Q_ab = np.concatenate([F_ab, F[m:]]), np.concatenate([Q_ab, noise[m:]])
        F, noise = F_ab, Q_ab
    return F[0], noise[0]


def propagate_core_only(partition: CovariancePartition, F, noise):
    """Advance only the core block by a segment's transition F and process
    noise (`compose_transport`); the cross block goes stale, and (when it
    has columns) owes F, folded into `owed`."""
    partition.core = propagate_covariance(partition.core, F, noise)
    if partition.cross.shape[1]:
        owed = np.eye(CORE_DIM) if partition.owed is None else partition.owed
        partition.owed = F @ owed
    return partition


def sync_cross(partition: CovariancePartition, imu_buffer, sensor_buffer, block_id,
               t_now):
    """Catch the cross block up to t_now, the agent's state time, by
    applying the transitions it owes. `imu_buffer` is unused, `sensor_buffer`
    must be None and `block_id` "visual": perfbench's tracer unpacks the slots."""
    if sensor_buffer is not None:
        raise TypeError("sensor_buffer must be None")
    if block_id != "visual":
        raise ValueError(f"unknown block id {block_id!r}")
    if t_now < partition.synced_at:
        raise ValueError("cannot synchronize backwards in time")
    if partition.owed is not None:
        partition.cross = partition.owed @ partition.cross
        partition.owed = None
    partition.synced_at = t_now
    return partition


def assemble_full(partition: CovariancePartition):
    """Symmetric full covariance [[core, cross], [cross', self]]. The cross
    block must owe no transition."""
    if partition.owed is not None:
        raise StaleBlockError(
            f"cross block is stale (synced at {partition.synced_at}, transitions "
            "owed since); call sync_cross first"
        )
    P = np.block([[partition.core, partition.cross],
                  [partition.cross.T, partition.sensor_self]])
    return (P + P.T) / 2.0


def split_full(partition: CovariancePartition, P):
    """Write an assembled full covariance back into the partition blocks."""
    partition.core = np.array(P[:CORE_DIM, :CORE_DIM])
    partition.cross = np.array(P[:CORE_DIM, CORE_DIM:])
    partition.sensor_self = np.array(P[CORE_DIM:, CORE_DIM:])
    partition.owed = None
    return partition


def insert_block_rows(partition: CovariancePartition, at, J, prior=None):
    """Grow the sensor block by new states whose error is J @ core_error
    (clone augmentation) or independent with the given prior covariance
    (landmark initialization). `at` is the insertion offset inside the
    block; J is (k x 18) or None when `prior` is given."""
    cross = partition.cross
    selfb = partition.sensor_self
    if J is not None:
        new_cross = (J @ partition.core).T          # 18 x k
        new_self_cross = J @ cross                  # k x d
        new_self = J @ partition.core @ J.T
    else:
        k = prior.shape[0]
        new_cross = np.zeros((CORE_DIM, k))
        new_self_cross = np.zeros((k, cross.shape[1]))
        new_self = np.asarray(prior, dtype=float)
    k = new_cross.shape[1]
    d = cross.shape[1]
    partition.cross = np.hstack([cross[:, :at], new_cross, cross[:, at:]])
    grown = np.zeros((d + k, d + k))
    grown[:at, :at] = selfb[:at, :at]
    grown[:at, at + k:] = selfb[:at, at:]
    grown[at + k:, :at] = selfb[at:, :at]
    grown[at + k:, at + k:] = selfb[at:, at:]
    grown[at:at + k, at:at + k] = new_self
    grown[at:at + k, :at] = new_self_cross[:, :at]
    grown[at:at + k, at + k:] = new_self_cross[:, at:]
    grown[:at, at:at + k] = new_self_cross[:, :at].T
    grown[at + k:, at:at + k] = new_self_cross[:, at:].T
    partition.sensor_self = grown
    return partition


def remove_block_rows(partition: CovariancePartition, at, size):
    """Marginalize states out of the sensor block by dropping their rows."""
    keep = np.r_[0:at, at + size:partition.cross.shape[1]]
    partition.cross = partition.cross[:, keep]
    partition.sensor_self = partition.sensor_self[np.ix_(keep, keep)]
    return partition


def _golden_section(f):  # minimizer of f over [0, 1]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, 1.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(40):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    # Trace can be monotone; check the interval ends too.
    candidates = [(f(0.0), 0.0), (f(1.0), 1.0), (f(x), x)]
    return min(candidates)[1]


@dataclass(frozen=True)
class Correspondence:
    """A co-observed landmark: the local in-state feature id plus the remote
    agent's world-position estimate of the same landmark."""

    feature_id: int
    remote_position: np.ndarray
    remote_cov: np.ndarray


def _ci_weighted_posterior(P, meas: LinearMeasurement, w):
    """The Kalman step of the CI-weighted update (local inflated by 1/w,
    remote pseudo-measurement inflated by 1/(1-w)), or None when no update
    is made: at the no-op limit w -> 1, and when the inflation makes the
    update numerically unusable."""
    if w >= 1.0 - 1e-9 or w < 1e-6:
        return None  # an uninformative remote, or all local information discarded
    P_inf = P / w
    m = LinearMeasurement(meas.residual, meas.H, meas.noise_cov / (1.0 - w))
    try:
        return kalman_step(P_inf, m)
    except UpdateRejected:
        return None


def _ci_trace_objective(P, meas: LinearMeasurement):
    """Trace of the CI-weighted posterior as a function of the weight,
    in closed form. With the local covariance inflated to P/w and the
    remote noise to R/(1-w),

        tr(P+) = tr(P)/w - tr(A S(w)^-1 A') / w^2,
        A = P H',  S(w) = (H P H')/w + R/(1-w).

    In the eigenbasis of the pencil (H P H', R) (Niehsen, "Fast covariance
    intersection", FUSION 2002): with R = L L' and
    L^-1 H P H' L^-T = V diag(lam) V', S(w) = T D(w) T' for T = L V and
    D(w) = diag(lam/w + 1/(1-w)). Hence, with c = squared row norms of
    T^-1 A',

        tr(P+) = (tr(P) - sum_i c_i (1-w) / (lam_i (1-w) + w)) / w,

    and after one Cholesky and one m x m eigh each evaluation is a sum of
    m scalar terms."""
    H = meas.H
    A = P @ H.T
    L = np.linalg.cholesky(meas.noise_cov)
    M = np.linalg.solve(L, np.linalg.solve(L, H @ A).T)
    lam, V = np.linalg.eigh((M + M.T) / 2.0)
    W = V.T @ np.linalg.solve(L, A.T)
    terms = list(zip(np.einsum("ij,ij->i", W, W).tolist(), lam.tolist()))
    tp = np.trace(P)

    def objective(w):
        if w >= 1.0 - 1e-9:
            return tp  # uninformative remote: no-op
        if w < 1e-6:
            return np.inf  # discarding all local information entirely
        u = 1.0 - w
        return (tp - sum(c * u / (l * u + w) for c, l in terms)) / w

    return objective


def collaborative_update(agent, correspondences):
    """CI-weighted landmark-constraint update from remote co-observations.

    Each remote estimate is treated as an independent pseudo-measurement of
    the shared (static) landmark with covariance inflated according to the
    CI weight, so no inter-agent correlation ever needs to be tracked.
    Correspondences whose landmark id is not in the local state are
    rejected.
    """
    if not correspondences:
        raise ValueError("empty correspondence set")
    local_ids = {fid: j for j, fid in enumerate(agent.state.feature_ids.tolist())}
    for c in correspondences:
        if c.feature_id not in local_ids:
            raise ValueError(f"landmark id {c.feature_id} is not in the local state")
    # Posteriors are exactly symmetric: carrying P equals re-assembling it.
    P = agent.full_covariance()
    applied = 0
    for c in correspondences:
        j = local_ids[c.feature_id]
        meas = landmark_position_measurement(agent.state, j, c.remote_position, c.remote_cov)
        w = _golden_section(_ci_trace_objective(P, meas))
        step = _ci_weighted_posterior(P, meas, w)
        if step is None:
            continue  # no usable information balance at this weight
        P = step.P_post
        agent.state = retract(agent.state, step.xi, agent.convention)
        applied += 1
    if applied:
        agent.set_full_covariance(P)
    return applied
