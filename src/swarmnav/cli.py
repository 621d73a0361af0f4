"""Command-line interface: single runs, Monte-Carlo batches, and the canned
experiment suites.

Exit codes: 0 success, 2 configuration problems, 3 numerical/runtime
failures, 4 suite criteria not met.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

# One BLAS thread unless the user chose otherwise. This must run before
# numpy loads: the large vision updates would wake OpenBLAS's thread pool,
# which then contends with every small product after them. Parallelism
# comes from `montecarlo --jobs` processes, which inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import yaml

from .conventions import CONVENTIONS
from .filters import NoiseDensities, UpdateRejected
from .metrics import anees_interval, gate_score
from .sensors import SensorSuite
from .sim import (
    ARTIFACT_HEADER,
    AgentConfig,
    ConfigError,
    FilterOptions,
    GateOptions,
    InitUncertainty,
    LandmarkOptions,
    OutlierOptions,
    SimConfig,
    load_config,
    run_swarm,
)
from .network import NetworkModel
from .trajectories import TrajectorySpec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_SUITE = 4

OUT_ROOT_ENV = "SWARMNAV_OUT"

SUITES = ("consistency", "delay", "segmentation", "gate", "collab")


def _default_out(name):
    root = os.environ.get(OUT_ROOT_ENV, "swarmnav_out")
    return os.path.join(root, name)


def _apply_overrides(config: SimConfig, args):
    from dataclasses import replace
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    if getattr(args, "filter_variant", None):
        config = replace(config, convention=args.filter_variant)
    return config


def _echo_summary(summary):
    print(f"filter: {summary['convention']}   seed: {summary['seed']}")
    for a in summary["agents"]:
        line = f"agent {a['agent_id']}: ATE {a['ate_rmse']:.4f} m"
        if a["mean_position_nees"] is not None:
            line += (f", pos NEES {a['mean_position_nees']:.2f}"
                     f", att NEES {a['mean_orientation_nees']:.2f}")
        line += (f", gate {a['gate_accepted']}/{a['gate_accepted'] + a['gate_rejected']}"
                 " accepted")
        print(line)
    print(f"bandwidth: {summary['bandwidth_bytes']} bytes "
          f"({summary['messages']})")


def cmd_run(args):
    config = _apply_overrides(load_config(args.config), args)
    out_dir = args.out or _default_out("run")
    artifacts = run_swarm(config)
    artifacts.write(out_dir)
    _echo_summary(artifacts.summary())
    print(f"artifacts written to {out_dir}")
    return EXIT_OK


def _mc_single(payload):
    config, run_id, out_dir = payload
    from dataclasses import replace
    artifacts = run_swarm(replace(config, seed=config.seed + run_id))
    run_dir = os.path.join(out_dir, f"run{run_id:03d}")
    artifacts.write(run_dir)
    return run_id, artifacts.summary(), [a["nees"] for a in artifacts.agents]


def _load_completed_run(out_dir, run_id):
    """Summary + NEES rows of an already finished run, or None."""
    run_dir = os.path.join(out_dir, f"run{run_id:03d}")
    spath = os.path.join(run_dir, "summary.yaml")
    if not os.path.exists(spath):
        return None
    with open(spath) as fh:
        fh.readline()  # artifact header
        summary = yaml.safe_load(fh)
    nees_rows = []
    for a in summary["agents"]:
        path = os.path.join(run_dir, f"nees_agent{a['agent_id']}.csv")
        rows = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
        nees_rows.append([tuple(r) for r in rows])
    return summary, nees_rows


def cmd_montecarlo(args):
    config = _apply_overrides(load_config(args.config), args)
    runs = args.runs
    out_dir = args.out or _default_out("montecarlo")
    os.makedirs(out_dir, exist_ok=True)
    results = {}
    todo = []
    for run_id in range(runs):
        done = _load_completed_run(out_dir, run_id)
        if done is not None:
            results[run_id] = done
        else:
            todo.append((config, run_id, out_dir))
    # A forked pool starts every worker up front; start no more than the
    # runs left to do.
    workers = min(args.jobs, len(todo))
    if todo:
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for run_id, summary, nees_rows in pool.map(_mc_single, todo):
                    results[run_id] = (summary, nees_rows)
        else:
            for payload in todo:
                run_id, summary, nees_rows = _mc_single(payload)
                results[run_id] = (summary, nees_rows)

    n_agents = len(results[0][0]["agents"])
    lo, hi = anees_interval(runs) if runs >= 2 else (float("nan"), float("nan"))
    merged = {"schema": 1, "runs": runs, "convention": config.convention,
              "anees_interval_95": [lo, hi],
              "degenerate_interval": runs < 2, "agents": []}
    for ai in range(n_agents):
        pos_means, att_means, ates = [], [], []
        for run_id in sorted(results):
            summary, nees_rows = results[run_id]
            rows = np.asarray(nees_rows[ai], dtype=float)
            if len(rows):
                pos_means.append(rows[:, 1].mean())
                att_means.append(rows[:, 2].mean())
            ates.append(summary["agents"][ai]["ate_rmse"])
        merged["agents"].append({
            "agent_id": summary["agents"][ai]["agent_id"],
            "position_anees": float(np.mean(pos_means)) if pos_means else None,
            "orientation_anees": float(np.mean(att_means)) if att_means else None,
            "mean_ate": float(np.mean(ates)),
        })
    with open(os.path.join(out_dir, "montecarlo_summary.yaml"), "w") as fh:
        fh.write(ARTIFACT_HEADER + "\n")
        yaml.safe_dump(merged, fh, sort_keys=True)
    print(f"{runs} runs merged; 95% ANEES interval [{lo:.3f}, {hi:.3f}]"
          + (" (degenerate: single run)" if runs < 2 else ""))
    for a in merged["agents"]:
        print(f"agent {a['agent_id']}: pos ANEES {a['position_anees']}, "
              f"att ANEES {a['orientation_anees']}, mean ATE {a['mean_ate']:.4f} m")
    return EXIT_OK


# ----------------------------------------------------------------------
# canned suite configurations


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
    from dataclasses import replace
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
# suites


def _suite_consistency(args):
    runs = args.runs or 50
    lo, hi = anees_interval(runs)
    values = {}
    for convention in ("liekf", "ekf"):
        pos, att = [], []
        for r in range(runs):
            art = run_swarm(consistency_config(seed=100 + r, convention=convention))
            rows = np.asarray(art.agents[0]["nees"], dtype=float)
            pos.append(rows[:, 1].mean())
            att.append(rows[:, 2].mean())
        values[convention] = (float(np.mean(pos)), float(np.mean(att)))
    lp, la = values["liekf"]
    ep, ea = values["ekf"]
    in_band = lo <= lp <= hi and lo <= la <= hi
    ordering = abs(ep - 3.0) + abs(ea - 3.0) > abs(lp - 3.0) + abs(la - 3.0)
    print(f"interval [{lo:.3f}, {hi:.3f}] for {runs} runs")
    print(f"liekf ANEES pos {lp:.3f} att {la:.3f} -> "
          + ("in band" if in_band else "OUT OF BAND"))
    print(f"ekf   ANEES pos {ep:.3f} att {ea:.3f} -> deviation "
          + ("larger (expected)" if ordering else "NOT larger"))
    return in_band and ordering


def _suite_delay(args):
    art_delayed = run_swarm(delay_config(seed=3, delay=0.1))
    art_prompt = run_swarm(delay_config(seed=3, delay=0.0))
    ate_d = art_delayed.agents[0]["ate"].rmse
    ate_p = art_prompt.agents[0]["ate"].rmse
    dropped = art_delayed.counters["gnss_dropped_horizon"]
    print(f"ATE with 100 ms delayed updates: {ate_d:.4f} m "
          f"(prompt: {ate_p:.4f} m), dropped {dropped}")
    return dropped == 0 and ate_d < 5.0 * max(ate_p, 0.02)


def _suite_segmentation(args):
    from .filters import ImuSample, transition
    from .state import SystemState
    from .covariance import CovariancePartition, propagate_core_only
    rng = np.random.default_rng(0)
    M, N, steps = 11, 50, 400
    dim = 18 + 6 * M + 3 * N
    A = rng.standard_normal((dim, dim))
    P_full = A @ A.T / dim + np.eye(dim)
    part = CovariancePartition(P_full[:18, :18].copy())
    part.add_block("visual", dim - 18)
    imu = ImuSample(np.array([0.01, -0.02, 0.05]), np.array([0.1, 0.0, 9.8]), 0.0)
    T = transition("liekf", SystemState.identity(), imu, 0.005)
    Q = NoiseDensities(1e-3, 1e-2, 1e-5, 1e-4).discrete_q(0.005)
    F_full = np.eye(dim)
    F_full[:18, :18] = T.F
    GQG = np.zeros((dim, dim))
    GQG[:18, :18] = T.G @ Q @ T.G.T
    t0 = time.perf_counter()
    for _ in range(steps):
        propagate_core_only(part, T, Q)
    t_core = time.perf_counter() - t0
    P = P_full.copy()
    t0 = time.perf_counter()
    for _ in range(steps):
        P = F_full @ P @ F_full.T + GQG
    t_full = time.perf_counter() - t0
    ratio = t_full / t_core
    print(f"propagation wall time, M={M} N={N}: core {t_core:.3f} s, "
          f"full {t_full:.3f} s ({ratio:.1f}x)")
    return ratio >= 3.0


def _suite_gate(args):
    art = run_swarm(gate_config(seed=5))
    rows = art.agents[0]["gate"]
    accepted = [bool(r[4]) for r in rows]
    labels = [bool(r[5]) for r in rows]
    recall, precision, fpr = gate_score(accepted, labels)
    print(f"adaptive gate: recall {recall:.3f}, precision {precision:.3f}, "
          f"FPR {fpr:.3f}")
    return recall >= 0.95 and fpr <= 0.05


def _suite_collab(args):
    # Traces are compared per seed; ATE (a noisy aligned-shape statistic for
    # the ablation) is compared on the seed means.
    seeds = range(args.runs or 10)
    trace_lower = 0
    tr_on_all, tr_off_all, ate_on_all, ate_off_all = [], [], [], []
    for s in seeds:
        on = run_swarm(collab_config(seed=400 + s, collaboration=True))
        off = run_swarm(collab_config(seed=400 + s, collaboration=False))
        tr_on = np.mean([np.asarray(a["covariance"], dtype=float)[:, 1].mean()
                         for a in on.agents])
        tr_off = np.mean([np.asarray(a["covariance"], dtype=float)[:, 1].mean()
                          for a in off.agents])
        ate_on = np.mean([a["ate"].rmse for a in on.agents])
        ate_off = np.mean([a["ate"].rmse for a in off.agents])
        trace_lower += tr_on < tr_off
        tr_on_all.append(tr_on)
        tr_off_all.append(tr_off)
        ate_on_all.append(ate_on)
        ate_off_all.append(ate_off)
        print(f"seed {s}: trace {tr_on:.4f} vs {tr_off:.4f}, "
              f"ATE {ate_on:.4f} vs {ate_off:.4f}")
    print(f"means: trace {np.mean(tr_on_all):.4f} vs {np.mean(tr_off_all):.4f}, "
          f"ATE {np.mean(ate_on_all):.4f} vs {np.mean(ate_off_all):.4f}")
    return trace_lower == len(ate_on_all) \
        and np.mean(ate_on_all) <= 1.05 * np.mean(ate_off_all)


def cmd_suite(args):
    fns = {"consistency": _suite_consistency, "delay": _suite_delay,
           "segmentation": _suite_segmentation, "gate": _suite_gate,
           "collab": _suite_collab}
    ok = fns[args.suite](args)
    print(f"suite {args.suite}: " + ("PASS" if ok else "FAIL"))
    return EXIT_OK if ok else EXIT_SUITE


# ----------------------------------------------------------------------


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser():
    p = argparse.ArgumentParser(prog="swarmnav",
                                description="multi-agent GNSS-visual-inertial "
                                            "estimation simulator")
    sub = p.add_subparsers(dest="command", required=True)
    simulate = argparse.ArgumentParser(add_help=False)  # shared by run and montecarlo
    simulate.add_argument("--config", required=True)
    simulate.add_argument("--out", default=None)
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--filter", dest="filter_variant",
                          choices=sorted(CONVENTIONS), default=None)

    pr = sub.add_parser("run", parents=[simulate],
                        help="single simulation from a config file")
    pr.set_defaults(fn=cmd_run)

    pm = sub.add_parser("montecarlo", parents=[simulate],
                        help="seeded batch of independent runs")
    pm.add_argument("--runs", type=_positive_int, default=50)
    pm.add_argument("--jobs", type=_positive_int, default=1)
    pm.set_defaults(fn=cmd_montecarlo)

    ps = sub.add_parser("suite", help="canned experiment suites")
    ps.add_argument("--suite", required=True, choices=SUITES)
    ps.add_argument("--runs", type=_positive_int, default=None)
    ps.set_defaults(fn=cmd_suite)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (UpdateRejected, np.linalg.LinAlgError, FloatingPointError,
            ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
