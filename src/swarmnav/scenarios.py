"""The canned scenario configs and the experiments run on them, which
`swarmnav suite` prints and the acceptance tests assert on. The Monte-Carlo
experiments map their runs over every usable core and read run summaries.
Importing this module sets no environment variable."""

from __future__ import annotations

import os
import time
from collections import namedtuple
from dataclasses import replace

import numpy as np

from .covariance import CovariancePartition, propagate_core_only
from .filters import NoiseDensities, transition_left
from .metrics import anees_interval, gate_score
from .network import NetworkModel
from .sensors import SensorSuite
from .sim import (
    AgentConfig,
    FilterOptions,
    GateOptions,
    InitUncertainty,
    LandmarkOptions,
    OutlierOptions,
    SimConfig,
    column,
    map_runs,
    run_swarm,
)
from .trajectories import TrajectorySpec

# ----------------------------------------------------------------------
# configurations


def default_suite(imu_noise=True):
    noise = NoiseDensities(gyro_noise=2e-4, accel_noise=2e-3,
                           gyro_walk=1e-6, accel_walk=1e-5) if imu_noise \
        else NoiseDensities()
    return SensorSuite(noise=noise)


def ring_landmarks(count, radius, alt_low=0.0, alt_high=6.0):
    """Landmarks on a ring under the flight path (for nadir cameras)."""
    pts = []
    for k in range(count):
        th = 2.0 * np.pi * k / count
        r = radius + (2.0 if k % 2 else -2.0)
        z = alt_low + (alt_high - alt_low) * (k % 3) / 2.0
        pts.append((k, (r * np.cos(th), r * np.sin(th), z)))
    return LandmarkOptions(points=tuple(pts))


def consistency_config(seed=0, convention="liekf", duration=30.0):
    suite = default_suite()
    # A dynamic circle (0.75 rad/s yaw rate, 4.5 m/s^2 centripetal force):
    # the conventional filter linearizes the propagation around the attitude
    # estimate, so its covariance degrades with specific force times heading
    # error, while the left-invariant transition is state-independent.
    traj = TrajectorySpec(kind="circle", speed=6.0, size=8.0, duration=duration)
    return SimConfig(
        agents=(AgentConfig(0, traj, suite),),
        convention=convention, seed=seed,
        landmarks=ring_landmarks(16, 20.0),
        # A fairly uncertain initial heading; small enough that every
        # convention converges, large enough that linearizing around the
        # estimate (instead of transporting the error on the group) shows.
        init=InitUncertainty(yaw=0.4),
        gate=GateOptions(enabled=False),
        collaboration=False, gnss_delay=0.0,
    )


def delay_config(seed=0, duration=30.0, delay=0.1):
    suite = default_suite()
    traj = TrajectorySpec(kind="circle", speed=2.0, size=20.0, duration=duration)
    return SimConfig(
        agents=(AgentConfig(0, traj, suite),),
        convention="liekf", seed=seed, use_vision=False,
        gate=GateOptions(enabled=False), collaboration=False,
        gnss_delay=delay,
        filter=FilterOptions(imu_buffer_capacity=300),
    )


def gate_config(seed=0, fixed_threshold=None, outlier_magnitude=10.0,
                duration=100.0):
    suite = SensorSuite(noise=default_suite().noise, gnss_sigma=0.02,
                        gnss_rate=10.0)
    traj = TrajectorySpec(kind="circle", speed=1.0, size=40.0, duration=duration)
    return SimConfig(
        agents=(AgentConfig(0, traj, suite),),
        convention="liekf", seed=seed, use_vision=False, collaboration=False,
        gnss_delay=0.0,
        gate=GateOptions(enabled=True, window=10, v_emp=3.0,
                         fixed_threshold=fixed_threshold),
        outliers=OutlierOptions(rate=0.05, magnitude=outlier_magnitude),
    )


def collab_config(seed=0, collaboration=True, duration=15.0):
    # High-altitude nadir cameras over a shared landmark ring: both agents
    # keep most of the ring in view, so co-observations are plentiful.
    suite = default_suite()
    t0 = TrajectorySpec(kind="circle", speed=2.0, size=20.0, duration=duration,
                        altitude=35.0)
    t1 = TrajectorySpec(kind="circle", speed=2.0, size=20.0, duration=duration,
                        altitude=35.0, phase=0.4)
    return SimConfig(
        agents=(AgentConfig(0, t0, suite),
                AgentConfig(1, t1, suite, use_gnss=False)),
        convention="liekf", seed=seed,
        landmarks=ring_landmarks(24, 20.0),
        filter=FilterOptions(max_features=24),
        gate=GateOptions(enabled=False), collaboration=collaboration,
        network=NetworkModel(latency=0.1, jitter=0.03, drop_prob=0.05),
        request_rate=4.0,
        gnss_delay=0.0,
    )


def noiseless_config(seed=0, duration=30.0):
    suite = SensorSuite(noise=NoiseDensities())
    traj = TrajectorySpec(kind="circle", speed=2.0, size=20.0, duration=duration)
    cfg = SimConfig(
        agents=(AgentConfig(0, traj, suite),),
        convention="liekf", seed=seed,
        use_gnss=False, use_vision=False, collaboration=False,
        gate=GateOptions(enabled=False), gnss_delay=0.0,
    )
    init = replace(cfg.init, roll_pitch=0.0, yaw=0.0, velocity=0.0, position=0.0,
                   gyro_bias=0.0, accel_bias=0.0, lever=0.0)
    return replace(cfg, init=init)


# ----------------------------------------------------------------------
# experiments


# Each experiment returns one of these: the numbers `swarmnav suite` prints
# and whether they meet the experiment's pass rule.
ConsistencyResult = namedtuple("ConsistencyResult",
                               "runs interval liekf ekf in_band ordering passed")
DelayResult = namedtuple("DelayResult", "ate_delayed ate_prompt dropped passed")
SegmentationResult = namedtuple("SegmentationResult",
                                "clones features t_core t_full ratio passed")
GateResult = namedtuple("GateResult", "recall precision fpr passed")
CollabResult = namedtuple("CollabResult",
                          "per_seed trace_on trace_off ate_on ate_off trace_lower passed")


def _summary(config):
    return run_swarm(config).summary()


def _batch(configs):
    """The summaries of `configs`, in order, run over every usable core."""
    return map_runs(_summary, configs, len(os.sched_getaffinity(0)))


def consistency(runs=50):
    """(position, orientation) ANEES of the left-invariant filter and the
    EKF over `runs` seeds, and the 95% band `interval` liekf must be in."""
    lo, hi = anees_interval(runs)
    summaries = _batch([consistency_config(seed=100 + r, convention=c)
                        for c in ("liekf", "ekf") for r in range(runs)])

    def anees_of(agents):
        return tuple(float(np.mean([a[key] for a in agents]))
                     for key in ("mean_position_nees", "mean_orientation_nees"))

    agents = [s["agents"][0] for s in summaries]
    (lp, la), (ep, ea) = anees_of(agents[:runs]), anees_of(agents[runs:])
    in_band = lo <= lp <= hi and lo <= la <= hi
    ordering = abs(ep - 3.0) + abs(ea - 3.0) > abs(lp - 3.0) + abs(la - 3.0)
    return ConsistencyResult(runs, (lo, hi), (lp, la), (ep, ea),
                             in_band, ordering, in_band and ordering)


def delay():
    """ATE with 100 ms delayed GNSS fixes against prompt ones."""
    art_delayed = run_swarm(delay_config(seed=3, delay=0.1))
    art_prompt = run_swarm(delay_config(seed=3, delay=0.0))
    ate_d = art_delayed.agents[0]["ate"].rmse
    ate_p = art_prompt.agents[0]["ate"].rmse
    dropped = art_delayed.counters["gnss_dropped_horizon"]
    return DelayResult(ate_d, ate_p, dropped,
                       dropped == 0 and ate_d < 5.0 * max(ate_p, 0.02))


def segmentation():
    """Wall time of core-only against dense propagation, wide window."""
    rng = np.random.default_rng(0)
    M, N, steps = 11, 50, 400
    dim = 18 + 6 * M + 3 * N
    A = rng.standard_normal((dim, dim))
    P_full = A @ A.T / dim + np.eye(dim)
    part = CovariancePartition(P_full[:18, :18].copy(), dim - 18)
    T = transition_left(np.array([[0.01, -0.02, 0.05]]), np.array([[0.1, 0.0, 9.8]]),
                        np.array([0.005]))
    F, G = T.F[0], T.G[0]
    Q = NoiseDensities(1e-3, 1e-2, 1e-5, 1e-4).discrete_q(0.005)
    noise = G @ Q @ G.T
    F_full = np.eye(dim)
    F_full[:18, :18] = F
    GQG = np.zeros((dim, dim))
    GQG[:18, :18] = noise
    t0 = time.perf_counter()
    for _ in range(steps):
        propagate_core_only(part, F, noise)
    t_core = time.perf_counter() - t0
    P = P_full.copy()
    t0 = time.perf_counter()
    for _ in range(steps):
        P = F_full @ P @ F_full.T + GQG
    t_full = time.perf_counter() - t0
    ratio = t_full / t_core
    return SegmentationResult(M, N, t_core, t_full, ratio, ratio >= 3.0)


def gate():
    """Recall and false-positive rate of the adaptive gate on 10 m outliers."""
    rows = run_swarm(gate_config(seed=5)).agents[0]["gate"]
    recall, precision, fpr = gate_score(column(rows, "gate", "accepted"),
                                        column(rows, "gate", "is_outlier"))
    return GateResult(recall, precision, fpr, recall >= 0.95 and fpr <= 0.05)


def collab(seeds=10):
    """Position covariance trace and ATE with collaboration on and off, per
    seed and on the seed means. Traces are compared per seed; ATE (a noisy
    aligned-shape statistic for the ablation) on the seed means."""
    summaries = _batch([collab_config(seed=400 + s, collaboration=on)
                        for s in range(seeds) for on in (True, False)])
    per_seed = []
    for pair in zip(summaries[::2], summaries[1::2]):  # (on, off) per seed
        traces = [np.mean([a["mean_position_cov_trace"] for a in s["agents"]]) for s in pair]
        ates = [np.mean([a["ate_rmse"] for a in s["agents"]]) for s in pair]
        per_seed.append((*traces, *ates))
    tr_on, tr_off, ate_on, ate_off = (np.mean(col) for col in zip(*per_seed))
    trace_lower = sum(a < b for a, b, _, _ in per_seed)
    return CollabResult(tuple(per_seed), tr_on, tr_off, ate_on, ate_off, trace_lower,
                        trace_lower == seeds and ate_on <= 1.05 * ate_off)
