"""The three benchmark workloads: the YAML config each one generates from
its seed, the CLI commands that run it, and the checks on what they wrote.

Every workload talks to the program only through a config file and CLI
flags (`python -m swarmnav.cli run|montecarlo`).
"""

from __future__ import annotations

import math
import os

import numpy as np
import yaml

# IMU noise of the canned scenarios (swarmnav.cli.default_suite).
NOISE = {"gyro_noise": 2e-4, "accel_noise": 2e-3, "gyro_walk": 1e-6, "accel_walk": 1e-5}

MC_RUNS = 2                      # montecarlo runs per filter in vio-mc
MC_FILTERS = ("liekf", "riekf", "ekf")
# The only BLAS setting the benchmark makes: unpinned `--jobs 2` batches
# vary threefold in wall time, more than any bound can hold.
VIO_MC_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def ring_landmarks(count, radius, alt_low=0.0, alt_high=6.0):
    """Landmarks on a ring under the flight path, as in the canned configs."""
    pts = []
    for k in range(count):
        th = 2.0 * math.pi * k / count
        r = radius + (2.0 if k % 2 else -2.0)
        z = alt_low + (alt_high - alt_low) * (k % 3) / 2.0
        pts.append([k, [r * math.cos(th), r * math.sin(th), z]])
    return pts


class Workload:
    name = ""
    duration = 0.0              # simulated seconds of one run
    env = {}
    # span / counter name -> expected: True = must be non-zero, False = zero
    mechanism = {}

    def __init__(self, seed, nproc):
        self.seed = seed
        self.nproc = nproc

    def config(self):
        raise NotImplementedError

    def commands(self, cfg_path, out_dir):
        """[(argv after `-m swarmnav.cli`, out dir, simulated agent-seconds)]"""
        raise NotImplementedError

    def run_dirs(self, out_dir):
        """Directories holding one simulation's artifacts."""
        return [out_dir]

    def check_run(self, summary):
        """Scenario-specific problems with one run's summary."""
        return []

    def check_command(self, out_dir, started):
        return []


class GnssIns(Workload):
    name = "gnss-ins"
    duration = 120.0
    mechanism = {
        "agent.propagate": True, "filters.mechanize": True, "filters.transition_left": True,
        "agent.update_gnss_delayed": True, "buffers.apply_delayed_update": True,
        "buffers.repropagate": True, "gate.evaluate": True, "sensors.synthesize_imu": True,
        "agent.update_gnss": False, "agent.update_vision": False,
        "agent.full_covariance": False, "covariance.assemble_full": False,
        "covariance.collaborative_update": False, "covariance.ci_objective_evals": False,
        "filters.transition_right": False, "filters.transition_ekf": False,
        "network.sample_delivery": False, "sensors.synthesize_bearings": False,
        "cli.mc_single": False,
    }

    def config(self):
        return {
            "seed": self.seed, "convention": "liekf",
            "use_vision": False, "collaboration": False, "gnss_delay": 0.1,
            # A gate lockout longer than the 1.5 s IMU buffer ends the run
            # with an uncaught DelayExceedsHorizon. The adaptive gate locks
            # out on this square, and a 10 m outlier accepted as the first
            # fix locks out the fixed gate; 0.5 m outliers cannot (a later
            # fix is back within 5 m/s after two periods).
            "gate": {"enabled": True, "window": 10, "v_emp": 5.0, "fixed_threshold": 5.0},
            "outliers": {"rate": 0.05, "magnitude": 0.5},
            "filter": {"imu_buffer_capacity": 300},
            "agents": [{
                "agent_id": 0,
                "trajectory": {"kind": "square", "speed": 2.0, "size": 20.0,
                               "duration": self.duration},
                "suite": {"imu_rate": 200.0, "gnss_rate": 10.0, "noise": NOISE},
            }],
        }

    def commands(self, cfg_path, out_dir):
        return [(["run", "--config", cfg_path, "--out", out_dir], out_dir, self.duration)]

    def check_run(self, summary):
        c = summary["counters"]
        problems = []
        if c["gnss_dropped_horizon"] != 0:
            problems.append(f"gnss_dropped_horizon = {c['gnss_dropped_horizon']}")
        if c["gnss_applied"] == 0:
            problems.append("no GNSS fix applied")
        return problems


class VioMc(Workload):
    name = "vio-mc"
    duration = 30.0
    env = VIO_MC_PIN
    mechanism = {
        "filters.transition_left": True, "filters.transition_right": True,
        "filters.transition_ekf": True, "agent.update_vision": True,
        "agent.full_covariance": True, "filters.kalman_step": True,
        "agent.update_gnss": True, "agent.initialize_feature": True, "cli.mc_single": True,
        "agent.update_gnss_delayed": False, "buffers.apply_delayed_update": False,
        "buffers.repropagate": False, "covariance.collaborative_update": False,
        "covariance.ci_objective_evals": False, "network.sample_delivery": False,
        "gate.evaluate": False,
    }

    def config(self):
        return {
            "seed": self.seed * MC_RUNS, "convention": "liekf",
            "landmarks": {"points": ring_landmarks(16, 20.0)},
            "init": {"yaw": 0.4},
            "gate": {"enabled": False}, "collaboration": False, "gnss_delay": 0.0,
            "agents": [{
                "agent_id": 0,
                "trajectory": {"kind": "circle", "speed": 6.0, "size": 8.0,
                               "duration": self.duration},
                "suite": {"noise": NOISE},
            }],
        }

    def commands(self, cfg_path, out_dir):
        return [(["montecarlo", "--config", cfg_path, "--runs", str(MC_RUNS),
                  "--jobs", str(self.nproc), "--filter", f, "--out", os.path.join(out_dir, f)],
                 os.path.join(out_dir, f), self.duration * MC_RUNS)
                for f in MC_FILTERS]

    def run_dirs(self, out_dir):
        return [os.path.join(out_dir, f"run{i:03d}") for i in range(MC_RUNS)]

    def check_command(self, out_dir, started):
        # A reused --out would resume silently and report fake throughput:
        # every run must have been simulated by this command.
        problems = []
        merged = load_yaml(os.path.join(out_dir, "montecarlo_summary.yaml"))
        if merged is None or merged.get("runs") != MC_RUNS:
            problems.append(f"{out_dir}: merged summary does not cover {MC_RUNS} runs")
        for d in self.run_dirs(out_dir):
            path = os.path.join(d, "timing.csv")
            if not os.path.exists(path) or os.path.getmtime(path) < started:
                problems.append(f"{d}: not simulated by this command")
        return problems


class CollabSwarm(Workload):
    name = "collab-swarm"
    duration = 15.0
    mechanism = {
        "covariance.collaborative_update": True, "covariance.ci_objective_evals": True,
        "network.sample_delivery": True, "agent.update_vision": True,
        "agent.full_covariance": True, "covariance.sync_cross": True,
        "filters.transition_left": True, "agent.update_gnss": True,
        "agent.update_gnss_delayed": False, "buffers.apply_delayed_update": False,
        "buffers.repropagate": False, "filters.transition_right": False,
        "filters.transition_ekf": False, "gate.evaluate": False, "cli.mc_single": False,
    }

    def config(self):
        traj = {"kind": "circle", "speed": 2.0, "size": 20.0, "duration": self.duration,
                "altitude": 35.0}
        return {
            "seed": self.seed, "convention": "liekf",
            "landmarks": {"points": ring_landmarks(24, 20.0)},
            "filter": {"max_features": 24},
            "gate": {"enabled": False}, "collaboration": True, "gnss_delay": 0.0,
            "network": {"latency": 0.1, "jitter": 0.03, "drop_prob": 0.05},
            "request_rate": 4.0,
            "agents": [
                {"agent_id": 0, "trajectory": traj, "suite": {"noise": NOISE}},
                {"agent_id": 1, "use_gnss": False, "trajectory": dict(traj, phase=0.4),
                 "suite": {"noise": NOISE}},
            ],
        }

    def commands(self, cfg_path, out_dir):
        return [(["run", "--config", cfg_path, "--out", out_dir], out_dir, 2 * self.duration)]

    def check_run(self, summary):
        c = summary["counters"]
        problems = []
        if c["vision_rows"] <= 0:
            problems.append("no vision rows applied")
        if c["collab_updates"] <= 0:
            problems.append("no collaborative update applied")
        return problems


WORKLOADS = {w.name: w for w in (GnssIns, VioMc, CollabSwarm)}


def load_yaml(path):
    try:
        with open(path) as fh:
            return yaml.safe_load(fh)
    except (OSError, yaml.YAMLError):
        return None


RUN_FILES = ("summary.yaml", "bandwidth.csv", "timing.csv")
AGENT_FILES = ("trajectory_agent{}.csv", "covariance_agent{}.csv", "nees_agent{}.csv",
               "gate_agent{}.csv")


def read_run(run_dir):
    """(summary, problems, position NEES samples) of one simulation run."""
    problems = [f"{run_dir}: missing {f}" for f in RUN_FILES
                if not os.path.exists(os.path.join(run_dir, f))]
    summary = load_yaml(os.path.join(run_dir, "summary.yaml"))
    if summary is None:
        return None, problems or [f"{run_dir}: unreadable summary"], []
    nees = []
    for a in summary["agents"]:
        i = a["agent_id"]
        problems += [f"{run_dir}: missing {f.format(i)}" for f in AGENT_FILES
                     if not os.path.exists(os.path.join(run_dir, f.format(i)))]
        for key in ("ate_rmse", "mean_position_nees"):
            v = a.get(key)
            if v is None or not math.isfinite(v):
                problems.append(f"{run_dir}: agent {i} {key} = {v}")
        path = os.path.join(run_dir, f"nees_agent{i}.csv")
        if os.path.exists(path):
            rows = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
            if len(rows):
                nees.extend(rows[:, 1].tolist())
    return summary, problems, nees


def artifact_files(root):
    """Relative paths of every artifact under root except timing.csv, which
    holds wall-clock times and is excluded from the determinism promise."""
    out = []
    for d, _, files in os.walk(root):
        for f in files:
            if f != "timing.csv":
                out.append(os.path.relpath(os.path.join(d, f), root))
    return sorted(out)


def compare_artifacts(a, b):
    """Problems when two output trees differ in any artifact byte."""
    fa, fb = artifact_files(a), artifact_files(b)
    if fa != fb:
        return [f"{a} and {b} hold different files"]
    problems = []
    for rel in fa:
        with open(os.path.join(a, rel), "rb") as x, open(os.path.join(b, rel), "rb") as y:
            if x.read() != y.read():
                problems.append(f"{rel} differs between two runs of one seed")
    return problems
