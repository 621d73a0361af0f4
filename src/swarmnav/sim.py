"""Deterministic event-driven multi-agent simulation.

A single priority queue of timestamped events drives every agent's GNSS
gating and (possibly delayed) updates, keyframe camera processing with
landmark initialization, and the request/response message exchange that
triggers collaborative landmark updates. IMU samples are not queued: each
agent's stream is one record of arrays, and before each event a cursor over
it hands the filter every pending sample up to the event's time as one
segment, a slice of those arrays (`_AgentRuntime.advance`). All randomness
is drawn from generators spawned off the one config seed, so identical
configs produce identical artifacts byte for byte.

The config dataclasses are the config file's schema: `config_from_dict`
builds each section from its dataclass's fields and rejects unknown keys at
every level; the dataclasses check every value before a run starts.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import time
import typing
from collections import deque
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np
import yaml

from .agent import AgentFilter
from .buffers import DelayExceedsHorizon
from .checks import ConfigError, count, flag, number, vector
from .conventions import CONVENTIONS
from .covariance import Correspondence
from .filters import UpdateRejected, feature_world_position
from .gate import GateState, evaluate, vio_kinematics
from .lie import ExtendedPose
from .metrics import ate, nees
from .network import BandwidthLedger, NetworkModel, SwarmMessage
from .sensors import (
    LandmarkMap,
    SensorSuite,
    grid_landmarks,
    inject_outliers,
    synthesize_bearings,
    synthesize_gnss,
    synthesize_imu,
)
from .state import SystemState, nav_error, retract
from .trajectories import TrajectorySpec, truth_at

ARTIFACT_HEADER = "# swarmnav-artifact v1"


@dataclass(frozen=True)
class GateOptions:
    enabled: bool = True
    window: int = 10
    v_emp: float = 5.0
    fixed_threshold: float = None

    def __post_init__(self):
        flag("enabled", self.enabled)
        count("window", self.window, 3)
        number("v_emp", self.v_emp, positive=True)
        if self.fixed_threshold is not None:
            number("fixed_threshold", self.fixed_threshold, positive=True)


@dataclass(frozen=True)
class OutlierOptions:
    rate: float = 0.0
    magnitude: float = 10.0

    def __post_init__(self):
        number("magnitude", self.magnitude, low=0)
        number("rate", self.rate, 0, 1)


@dataclass(frozen=True)
class InitUncertainty:
    """1-sigma initial errors; the initial estimate is drawn from these
    around the truth, matching the initial covariance exactly."""

    roll_pitch: float = 0.02
    yaw: float = 0.1
    velocity: float = 0.1
    position: float = 0.3
    gyro_bias: float = 0.005
    accel_bias: float = 0.02
    lever: float = 0.01

    def __post_init__(self):
        for name, value in vars(self).items():
            number(name, value, low=0)

    def sigmas(self):
        return np.array(
            [self.roll_pitch, self.roll_pitch, self.yaw]
            + [self.velocity] * 3 + [self.position] * 3
            + [self.gyro_bias] * 3 + [self.accel_bias] * 3 + [self.lever] * 3
        )


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


@dataclass(frozen=True)
class LandmarkOptions:
    count: int = 16
    extent: float = 30.0
    alt_low: float = 0.0
    alt_high: float = 6.0
    points: tuple = None  # explicit ((id, (x, y, z)), ...) overrides the grid

    def __post_init__(self):
        count("count", self.count, 0)
        number("extent", self.extent, positive=True)
        number("alt_low", self.alt_low)
        number("alt_high", self.alt_high)
        if self.points is not None:
            try:
                points = tuple((k, vector("point", xyz, 3)) for k, xyz in self.points)
            except (TypeError, ValueError):
                raise ConfigError("points must be [id, [x, y, z]] pairs with finite "
                                  f"coordinates, got {self.points!r}") from None
            for k, _ in points:
                count("landmark id", k, 0)
            if len({k for k, _ in points}) != len(points):
                raise ConfigError("landmark ids must be unique")
            object.__setattr__(self, "points", points)


@dataclass(frozen=True)
class AgentConfig:
    agent_id: int
    trajectory: TrajectorySpec
    suite: SensorSuite = field(default_factory=SensorSuite)
    use_gnss: bool = True  # lets individual agents fly GNSS-denied

    def __post_init__(self):
        count("agent_id", self.agent_id, 0)
        flag("use_gnss", self.use_gnss)


@dataclass(frozen=True)
class SimConfig:
    agents: tuple
    convention: str = "liekf"
    seed: int = 0
    landmarks: LandmarkOptions = field(default_factory=LandmarkOptions)
    network: NetworkModel = field(default_factory=NetworkModel)
    gate: GateOptions = field(default_factory=GateOptions)
    outliers: OutlierOptions = field(default_factory=OutlierOptions)
    filter: FilterOptions = field(default_factory=FilterOptions)
    init: InitUncertainty = field(default_factory=InitUncertainty)
    use_gnss: bool = True
    use_vision: bool = True
    collaboration: bool = True
    request_rate: float = 10.0
    gnss_delay: float = 0.02
    record_rate: float = 10.0

    def __post_init__(self):
        if not self.agents:
            raise ConfigError("at least one agent is required")
        if not isinstance(self.convention, str) or self.convention not in CONVENTIONS:
            raise ConfigError(f"convention must be one of {sorted(CONVENTIONS)}, "
                              f"got {self.convention!r}")
        count("seed", self.seed, 0)
        for name in ("use_gnss", "use_vision", "collaboration"):
            flag(name, getattr(self, name))
        ids = [a.agent_id for a in self.agents]
        if len(ids) != len(set(ids)):
            raise ConfigError("agent ids must be unique")
        number("gnss_delay", self.gnss_delay, low=0)
        for a in self.agents:
            if 1.0 / a.suite.imu_rate > self.duration:  # no sample in the run
                raise ConfigError(f"agent {a.agent_id}'s IMU period 1/imu_rate = 1/"
                                  f"{a.suite.imu_rate!r} exceeds the duration {self.duration!r}")
            gnss = self.use_gnss and a.use_gnss
            # Each sigma is the filter's noise for that sensor: at zero the
            # filter takes every measurement as exact and grows overconfident.
            for used, name in ((gnss, "gnss_sigma"), (self.use_vision, "pixel_sigma")):
                if used and getattr(a.suite, name) == 0:
                    raise ConfigError(f"agent {a.agent_id}'s {name} is 0; the filter "
                                      f"needs a positive noise for a sensor it uses")
            if gnss and self.gnss_delay > 1.0 / a.suite.gnss_rate:
                # A delayed update restores its epoch snapshot: a fix still in
                # flight at the next epoch would lose that epoch's correction.
                raise ConfigError(f"gnss_delay {self.gnss_delay!r} exceeds agent "
                                  f"{a.agent_id}'s GNSS period 1/{a.suite.gnss_rate!r}")
            # A delayed fix is carried through the IMU steps since its epoch.
            need = int(np.ceil(self.gnss_delay * a.suite.imu_rate - 1e-9))
            if gnss and self.filter.imu_buffer_capacity < need:
                raise ConfigError(f"imu_buffer_capacity {self.filter.imu_buffer_capacity!r} holds "
                                  f"less than agent {a.agent_id}'s gnss_delay: need {need}")
        fo = self.filter
        if self.use_vision and fo.min_track_length > fo.max_clones:
            raise ConfigError(f"min_track_length {fo.min_track_length} exceeds max_clones "
                              f"{fo.max_clones}: a track holds one observation per clone")
        number("request_rate", self.request_rate, positive=True)
        number("record_rate", self.record_rate, positive=True)
        if 1.0 / self.record_rate > self.duration:  # no record, so no ATE
            raise ConfigError(f"1/record_rate exceeds the duration {self.duration!r}")

    @property
    def duration(self):
        return min(a.trajectory.duration for a in self.agents)


# ----------------------------------------------------------------------
# config file loading


def _build(cls, d, path="", **defaults):
    """The config dataclass `cls` from the mapping `d`, None giving its
    defaults. A field typed as a config dataclass is built from its own
    sub-mapping, and `agents` from a list of agent mappings, each numbered
    by its position unless it sets `agent_id`. Unknown keys are rejected at
    every level; `path` names the mapping in error messages."""
    where = path or "config"
    if d is None:
        d = {}
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected a mapping")
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown, key=str)}")
    types = typing.get_type_hints(cls)
    kwargs = dict(defaults)
    for key, value in d.items():
        if key == "agents":
            if not isinstance(value, list):
                raise ConfigError("agents must be a list of mappings")
            value = tuple(_build(AgentConfig, ad, f"agents[{i}]", agent_id=i)
                          for i, ad in enumerate(value))
        elif is_dataclass(types[key]):
            value = _build(types[key], value, f"{path}.{key}" if path else key)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:  # TypeError: a required key is missing
        raise ConfigError(f"{where}: {exc}") from exc


def config_from_dict(d):
    """The `SimConfig` a parsed YAML mapping describes; ConfigError if none."""
    return _build(SimConfig, d)


def load_config(path):
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    return config_from_dict(raw)


# ----------------------------------------------------------------------
# artifacts


def _fmt(x):
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _write_csv(path, columns, rows):
    with open(path, "w") as fh:
        fh.write(ARTIFACT_HEADER + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_yaml(path, data):
    """`data` as YAML under the artifact header, whole or not at all."""
    import os
    with open(path + ".tmp", "w") as fh:
        fh.write(ARTIFACT_HEADER + "\n")
        yaml.safe_dump(data, fh, sort_keys=True)
    os.replace(path + ".tmp", path)


def read_yaml(path):
    """What `write_yaml` wrote to `path`, or None if there is no such file."""
    try:
        with open(path) as fh:
            return yaml.safe_load(fh)
    except FileNotFoundError:
        return None


# Each agent's tables, written as `<table>_agent<id>.csv`: their columns in
# row order. Only the handlers in `run_swarm` rely on the order; all else
# reads by name. Readers outside may index, so new columns go last.
AGENT_TABLES = {
    "trajectory": ("t", "est_x", "est_y", "est_z", "truth_x", "truth_y", "truth_z"),
    "covariance": ("t", "position_trace", "orientation_trace"),
    "nees": ("t", "position_nees", "orientation_nees"),
    "gate": ("t", "speed", "threshold", "k", "accepted", "is_outlier"),
}


def column(rows, table, first, last=None):
    """Column `first` of `table`'s rows as floats, or a view of `first` to `last`."""
    header = AGENT_TABLES[table]
    j = header.index(first)
    values = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return values[:, j] if last is None else values[:, j:header.index(last) + 1]


@dataclass
class RunArtifacts:
    config: SimConfig
    agents: list            # per agent: "agent_id", "ate" and a row list per table
    bandwidth: dict         # class -> (count, bytes)
    timing: dict            # wall-clock measurements, excluded from determinism
    counters: dict

    def summary(self):
        out = {
            "schema": 1,
            "convention": self.config.convention,
            "seed": int(self.config.seed),
            "agents": [],
            "bandwidth_bytes": int(sum(b for _, b in self.bandwidth.values())),
            "messages": {c: int(n) for c, (n, _) in self.bandwidth.items()},
            "counters": {k: int(v) for k, v in self.counters.items()},
        }
        for a in self.agents:
            def mean(table, name):
                return float(column(a[table], table, name).mean()) if a[table] else None
            accepted = int(column(a["gate"], "gate", "accepted").sum())
            out["agents"].append({
                "agent_id": int(a["agent_id"]),
                "ate_rmse": float(a["ate"].rmse),
                "mean_position_nees": mean("nees", "position_nees"),
                "mean_orientation_nees": mean("nees", "orientation_nees"),
                "mean_position_cov_trace": mean("covariance", "position_trace"),
                "gate_accepted": accepted,
                "gate_rejected": len(a["gate"]) - accepted,
            })
        return out

    def write(self, out_dir):
        import os
        os.makedirs(out_dir, exist_ok=True)
        for a in self.agents:
            for table, columns in AGENT_TABLES.items():
                _write_csv(os.path.join(out_dir, f"{table}_agent{a['agent_id']}.csv"),
                           columns, a[table])
        _write_csv(os.path.join(out_dir, "bandwidth.csv"),
                   ["class", "messages", "bytes"],
                   [(c, n, b) for c, (n, b) in sorted(self.bandwidth.items())])
        _write_csv(os.path.join(out_dir, "timing.csv"),
                   ["metric", "seconds"],
                   sorted(self.timing.items()))
        # Last: a resumed batch takes it to mean "finished".
        write_yaml(os.path.join(out_dir, "summary.yaml"), self.summary())
        return out_dir


def map_runs(fn, items, workers):
    """[fn(item) for item in items] over at most `workers` processes, and no
    more than items (a pool starts them all up front); serial below two."""
    workers = min(workers, len(items))
    if workers < 2:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ----------------------------------------------------------------------
# the event loop

# Event ordering at equal timestamps: the agent's IMU cursor first, then
# completions of delayed updates with the events held for them (so a new
# epoch's snapshot sees both), then new measurement epochs, camera frames,
# networking, recording. Every payload starts with the agent's index.
_GNSS_DONE, _GNSS, _CAMERA, _REQUEST, _MSG, _RECORD = range(6)


class _AgentRuntime:
    def __init__(self, cfg: SimConfig, acfg: AgentConfig, imu_seed, init_seed,
                 record_times):
        self.cfg = acfg
        suite = acfg.suite
        rng_init = np.random.default_rng(init_seed)
        # The truth at 0 and at every record epoch, in one pass.
        self.truth, _, _ = truth_at(acfg.trajectory, np.array([0.0, *record_times]))
        truth_state = SystemState(
            nav=self.truth_pose(0),
            gyro_bias=np.zeros(3),
            accel_bias=np.zeros(3),
            lever_arm=np.asarray(suite.lever_arm, dtype=float),
            timestamp=0.0,
        )
        sig = cfg.init.sigmas()
        e0 = sig * rng_init.standard_normal(18)
        est0 = retract(truth_state, e0, cfg.convention)
        P0 = np.diag(sig ** 2)
        self.filter = AgentFilter(
            est0, P0, cfg.convention, noise=suite.noise,
            camera_extrinsics=suite.camera_extrinsics,
            max_clones=cfg.filter.max_clones,
            max_features=cfg.filter.max_features,
            imu_buffer_capacity=cfg.filter.imu_buffer_capacity,
        )
        self.gate = GateState()
        self.imu = synthesize_imu(acfg.trajectory, suite, imu_seed)
        # Rounded like the queue's times, so IMU steps go first at equal times.
        self.imu_times = [round(t, 9) for t in self.imu.times.tolist()]
        self.imu_next = 0         # index of the first sample not yet applied
        self.vio_positions = deque(maxlen=3)  # positions at the last GNSS epochs
        self.held = None  # (order, payload) held for the delayed fix in flight
        # Landmarks outside the filter state only: id -> [(clone timestamp,
        # uv), ...], one entry per window clone, oldest first.
        self.tracks = {}
        self.tables = {name: [] for name in AGENT_TABLES}

    def truth_pose(self, k):
        """The true pose at time 0 (k = 0) or at the k-th record epoch."""
        return ExtendedPose(self.truth.rotation[k], self.truth.velocity[k],
                            self.truth.position[k])

    def advance(self, t):
        """Propagate the pending IMU samples up to time t as one segment."""
        i = self.imu_next
        j = bisect.bisect_right(self.imu_times, t, lo=i)
        if j > i:
            self.filter.propagate(self.imu[i:j])
        self.imu_next = j


def run_swarm(config: SimConfig) -> RunArtifacts:
    t_start = time.perf_counter()
    root = np.random.SeedSequence(config.seed)
    agent_seeds = root.spawn(len(config.agents))
    net_rng = np.random.default_rng(root.spawn(1)[0])
    lm = config.landmarks
    if lm.points is not None:
        lmap = LandmarkMap(tuple((i, np.asarray(p, dtype=float)) for i, p in lm.points))
    else:
        center = config.agents[0].trajectory.center
        lmap = LandmarkMap(grid_landmarks(center, lm.extent, lm.count,
                                          (lm.alt_low, lm.alt_high),
                                          np.random.SeedSequence((config.seed, 977))).points)

    duration = config.duration
    counters = {"gnss_applied": 0, "gnss_rejected_numerical": 0,
                "gnss_dropped_horizon": 0, "vision_rows": 0,
                "features_initialized": 0, "collab_updates": 0,
                "messages_dropped": 0}
    ledger = BandwidthLedger()
    heap = []
    seq = itertools.count()

    def push(t, order, payload):
        heapq.heappush(heap, (round(t, 9), order, next(seq), payload))

    # Record epochs k / record_rate, rounded like the queue's times, to duration.
    record_times, k = [], 1
    while (t := round(k / config.record_rate, 9)) <= duration:
        record_times.append(t)
        k += 1

    runtimes = []
    for idx, acfg in enumerate(config.agents):
        imu_seed, gnss_seed, bearings_seed, init_seed = agent_seeds[idx].spawn(4)
        runtimes.append(_AgentRuntime(config, acfg, imu_seed, init_seed, record_times))
        if config.use_gnss and acfg.use_gnss:
            fixes = synthesize_gnss(acfg.trajectory, acfg.suite, gnss_seed)
            if config.outliers.rate > 0:
                fixes = inject_outliers(fixes, config.outliers.rate,
                                        config.outliers.magnitude,
                                        np.random.SeedSequence((config.seed, 311, idx)))
            for fix in fixes:
                push(fix.timestamp, _GNSS, (idx, fix))
        if config.use_vision:
            # Frames are snapped onto the IMU grid so clone poses line up
            # with the propagated state at the frame epoch.
            frames = synthesize_bearings(acfg.trajectory, acfg.suite, lmap,
                                         bearings_seed,
                                         snap_rate=acfg.suite.imu_rate)
            for fr in frames[::config.filter.clone_every]:  # the keyframes
                if fr.timestamp <= duration:
                    push(fr.timestamp, _CAMERA, (idx, fr))
        if config.collaboration and len(config.agents) > 1:
            push(1.0 / config.request_rate, _REQUEST, (idx,))
        for k, t in enumerate(record_times, start=1):
            push(t, _RECORD, (idx, k))

    # ------------------------------------------------------------------

    def handle_gnss(t, idx, fix):
        rt = runtimes[idx]
        ag = rt.filter
        accepted = True
        if config.gate.enabled:
            speed, accel = 0.0, 0.0
            if len(rt.vio_positions) == 3:
                speed, accel = vio_kinematics(rt.vio_positions,
                                              1.0 / rt.cfg.suite.gnss_rate)
            verdict = evaluate(rt.gate, fix.position, speed, accel, config.gate, t)
            rt.tables["gate"].append((t, verdict.speed, verdict.threshold, verdict.k,
                                      verdict.accepted, fix.is_outlier))
            accepted = verdict.accepted
        if accepted:
            try:
                if config.gnss_delay > 0:
                    snap = ag.snapshot()
                    rt.held = []
                    # From the fix's own time, not the rounded event time t:
                    # at a delay of one period, rounding t first could put
                    # the completion a tick after the next fix's epoch.
                    push(fix.timestamp + config.gnss_delay, _GNSS_DONE, (idx, fix, snap))
                else:
                    ag.update_gnss(fix.position, rt.cfg.suite.gnss_sigma)
                    counters["gnss_applied"] += 1
            except UpdateRejected:
                counters["gnss_rejected_numerical"] += 1
        rt.vio_positions.append(ag.state.nav.position.copy())

    def handle_gnss_done(t, idx, fix, snap):
        rt = runtimes[idx]
        held, rt.held = rt.held, None
        try:
            rt.filter.update_gnss_delayed(fix.position, rt.cfg.suite.gnss_sigma, snap)
            counters["gnss_applied"] += 1
        except DelayExceedsHorizon:
            counters["gnss_dropped_horizon"] += 1
        except UpdateRejected:
            counters["gnss_rejected_numerical"] += 1
        # Held events run right after the fix, before an epoch at this time
        # opens the next window, stably sorted as the queue would order them.
        for order, payload in sorted(held, key=lambda e: e[0]):
            handlers[order](t, *payload)

    def deferred(order, payload):
        """Updates that touch the whole covariance are held for an in-flight
        delayed GNSS correction whose epoch snapshot they would clobber."""
        held = runtimes[payload[0]].held
        if held is not None:
            held.append((order, payload))
        return held is not None

    def handle_camera(t, idx, frame):
        rt = runtimes[idx]
        if deferred(_CAMERA, (idx, frame)):
            return
        ag = rt.filter
        ci = ag.augment_clone()
        clone_at = {ts: i for i, ts in enumerate(ag.state.clone_times.tolist())}
        for lid, hist in list(rt.tracks.items()):
            rt.tracks[lid] = [e for e in hist if e[0] in clone_at]
            if not rt.tracks[lid]:
                del rt.tracks[lid]
        in_state = {lid: j for j, lid in enumerate(ag.state.feature_ids.tolist())}
        obs_now = []
        for lid, uv in frame.observations:
            if lid in in_state:
                obs_now.append((ci, in_state[lid], uv))
            else:
                rt.tracks.setdefault(lid, []).append((ag.state.timestamp, uv))
        if obs_now:
            try:
                counters["vision_rows"] += rt.filter.update_vision(
                    obs_now, rt.cfg.suite.pixel_sigma)
            except UpdateRejected:
                pass
        observed = {lid for lid, _ in frame.observations}
        for lid in sorted(observed - set(in_state)):
            hist = rt.tracks[lid]
            if len(hist) < config.filter.min_track_length:
                continue
            if ag.state.num_features >= config.filter.max_features:
                break
            # Anchor at the newest clone so the landmark outlives the window.
            tracks_idx = [(clone_at[ts], uv) for ts, uv in [hist[-1]] + hist[:-1]]
            try:
                j = ag.initialize_feature(lid, tracks_idx,
                                          prior_sigma=config.filter.feature_prior_sigma,
                                          pixel_sigma=rt.cfg.suite.pixel_sigma,
                                          min_observations=config.filter.min_track_length)
            except UpdateRejected:
                continue  # added, but its first update was refused
            if j is not None:
                counters["features_initialized"] += 1
        for lid in ag.state.feature_ids.tolist():  # in the state: a later track starts afresh
            rt.tracks.pop(lid, None)

    def handle_request(t, idx):
        rt = runtimes[idx]
        ids = tuple(rt.filter.state.feature_ids.tolist())
        if ids:
            msg = SwarmMessage("request", idx, t, ids)
            for other in range(len(runtimes)):
                if other == idx:
                    continue
                ledger.record(msg)
                delivered, lat = config.network.sample_delivery(net_rng)
                if delivered:
                    push(t + lat, _MSG, (other, msg))
                else:
                    counters["messages_dropped"] += 1
        nxt = t + 1.0 / config.request_rate
        if nxt <= duration:
            push(nxt, _REQUEST, (idx,))

    def handle_msg(t, idx, msg):
        rt = runtimes[idx]
        ag = rt.filter
        if msg.msg_class == "request":
            in_state = {lid: j for j, lid in enumerate(ag.state.feature_ids.tolist())}
            shared = [lid for lid in msg.payload if lid in in_state]
            if not shared:
                return
            P = ag.full_covariance()
            entries = []
            for lid in shared:
                p_w, D = feature_world_position(ag.state, in_state[lid])
                cov = D @ P @ D.T
                entries.append((lid, p_w, (cov + cov.T) / 2.0))
            reply = SwarmMessage("full", idx, t, tuple(entries))
            ledger.record(reply)
            delivered, lat = config.network.sample_delivery(net_rng)
            if delivered:
                push(t + lat, _MSG, (msg.sender, reply))
            else:
                counters["messages_dropped"] += 1
            return
        if deferred(_MSG, (idx, msg)):
            return
        in_state = set(ag.state.feature_ids.tolist())
        corr = [Correspondence(lid, p, cov) for lid, p, cov in msg.payload
                if lid in in_state]
        if not corr:
            return
        try:
            counters["collab_updates"] += ag.update_collaborative(corr)
        except (UpdateRejected, ValueError):
            pass

    def handle_record(t, idx, k):
        rt = runtimes[idx]
        ag = rt.filter
        truth_pose = rt.truth_pose(k)
        est = ag.state.nav
        rt.tables["trajectory"].append((t, *est.position, *truth_pose.position))
        core = ag.partition.core
        rt.tables["covariance"].append((t, np.trace(core[6:9, 6:9]),
                                        np.trace(core[0:3, 0:3])))
        e = nav_error(truth_pose, est, config.convention)
        try:
            pn = nees(e[6:9], core[6:9, 6:9])
            on = nees(e[0:3], core[0:3, 0:3])
            rt.tables["nees"].append((t, pn, on))
        except ValueError:
            pass

    handlers = {
        _GNSS: handle_gnss,
        _GNSS_DONE: handle_gnss_done,
        _CAMERA: handle_camera,
        _REQUEST: handle_request,
        _MSG: handle_msg,
        _RECORD: handle_record,
    }

    while heap:
        t, order, _, payload = heapq.heappop(heap)
        if t > duration + 1e-9:
            continue
        runtimes[payload[0]].advance(t)
        handlers[order](t, *payload)
    for rt in runtimes:
        rt.advance(duration + 1e-9)

    agents_out = []
    for rt in runtimes:
        rows = rt.tables["trajectory"]
        report = ate(column(rows, "trajectory", "est_x", "est_z"),
                     column(rows, "trajectory", "truth_x", "truth_z"))
        if not np.isfinite(report.rmse):
            raise FloatingPointError(f"agent {rt.cfg.agent_id}: ATE {report.rmse}")
        agents_out.append({"agent_id": rt.cfg.agent_id, **rt.tables, "ate": report})
    timing = {"wall_total": time.perf_counter() - t_start}
    bandwidth = {c: (ledger.counts[c], ledger.bytes[c]) for c in ledger.counts}
    return RunArtifacts(config, agents_out, bandwidth, timing, counters)
