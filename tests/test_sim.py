"""Simulation configuration handling, artifact output and determinism."""

import inspect
import math
import numbers
import os
import typing
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import swarmnav.sim as sim
from swarmnav.agent import AgentFilter
from swarmnav.filters import NoiseDensities
from swarmnav.sensors import SensorSuite, synthesize_gnss
from swarmnav.sim import (
    ARTIFACT_HEADER,
    AgentConfig,
    ConfigError,
    FilterOptions,
    GateOptions,
    InitUncertainty,
    LandmarkOptions,
    OutlierOptions,
    SimConfig,
    column,
    config_from_dict,
    load_config,
    run_swarm,
)
from swarmnav.state import CONVENTIONS, SystemState
from swarmnav.trajectories import KINDS, TrajectorySpec, truth_at


def tiny_config(seed=0, duration=3.0, **kw):
    suite = SensorSuite()
    traj = TrajectorySpec(kind="circle", speed=2.0, size=20.0, duration=duration)
    defaults = dict(
        agents=(AgentConfig(0, traj, suite),),
        convention="liekf", seed=seed,
        landmarks=LandmarkOptions(count=6),
        gate=GateOptions(enabled=False),
        collaboration=False, gnss_delay=0.0,
        filter=FilterOptions(max_features=6),
    )
    defaults.update(kw)
    return SimConfig(**defaults)


def test_config_validation():
    suite = SensorSuite()
    traj = TrajectorySpec(duration=5.0)
    with pytest.raises(ConfigError):
        SimConfig(agents=())
    with pytest.raises(ConfigError):
        SimConfig(agents=(AgentConfig(0, traj, suite),), convention="foo")
    with pytest.raises(ConfigError):
        SimConfig(agents=(AgentConfig(0, traj, suite),
                          AgentConfig(0, traj, suite)))
    with pytest.raises(ConfigError):
        SimConfig(agents=(AgentConfig(0, traj, suite),), gnss_delay=-0.1)


def test_gnss_delay_longer_than_the_fix_period_is_rejected():
    # A delayed update restores its epoch snapshot, and GNSS epochs are never
    # deferred: a fix still in flight at the next epoch would lose the
    # correction of that epoch.
    traj = TrajectorySpec(duration=5.0)
    agents = (AgentConfig(0, traj, SensorSuite(gnss_rate=10.0)),
              AgentConfig(1, traj, SensorSuite(gnss_rate=5.0)))
    with pytest.raises(ConfigError, match="gnss_delay"):
        SimConfig(agents=agents, gnss_delay=0.15)
    # Equal to the period: the completion lands at or before the next epoch.
    SimConfig(agents=agents, gnss_delay=0.1)
    # Agents without GNSS have no fixes to overlap.
    SimConfig(agents=agents, gnss_delay=0.15, use_gnss=False)
    SimConfig(agents=(replace(agents[0], use_gnss=False), agents[1]), gnss_delay=0.2)


@pytest.mark.parametrize("field_name,value", [
    ("gnss_delay", float("nan")), ("gnss_delay", float("inf")),
    ("gnss_delay", "0.1"),
    ("request_rate", float("nan")), ("request_rate", float("inf")),
    ("request_rate", 0.0),
    ("record_rate", float("nan")), ("record_rate", float("inf")),
    ("record_rate", 0.0),
])
def test_config_rejects_non_finite_rates_and_delay(field_name, value):
    agents = (AgentConfig(0, TrajectorySpec(duration=5.0), SensorSuite()),)
    with pytest.raises(ConfigError, match=field_name):
        SimConfig(agents=agents, **{field_name: value})


# (section, key) of config fields checked where they enter; None is the
# top level, "agent" is the one agent's entry, "suite" and "trajectory" are
# sections of it and "noise" is a section of "suite".
CHECKED_FIELDS = [("network", "latency"), ("outliers", "rate"), ("gate", "v_emp"),
                  ("init", "yaw"), ("filter", "imu_buffer_capacity"),
                  ("filter", "max_clones"), ("landmarks", "count"), (None, "seed"),
                  ("suite", "imu_rate"), ("suite", "gnss_sigma"), ("suite", "pixel_sigma"),
                  ("suite", "fov_half_tangent"), ("suite", "min_depth"),
                  ("suite", "lever_arm"), ("suite", "cam_offset"),
                  ("trajectory", "altitude"), ("trajectory", "phase"),
                  ("trajectory", "center"), ("suite", "cam_rotation")]
AGENT_SECTIONS = ("suite", "trajectory")
VECTOR_FIELDS = ("lever_arm", "cam_offset", "center", "cam_rotation")


def _config_with(section, key, value):
    agent = {"trajectory": {"duration": 4.0}}
    d = {"agents": [agent]}
    if section is None:
        d[key] = value
    elif section == "agent":
        agent[key] = value
    elif section in AGENT_SECTIONS:
        agent.setdefault(section, {})[key] = value
    elif section == "noise":
        agent["suite"] = {"noise": {key: value}}
    else:
        d[section] = {key: value}
    return config_from_dict(d)


@pytest.mark.parametrize("section,key,value", [
    ("network", "latency", float("nan")), ("outliers", "rate", float("nan")),
    ("outliers", "rate", 1.5), ("gate", "v_emp", float("nan")),
    ("gate", "fixed_threshold", float("nan")), ("init", "yaw", float("nan")),
    ("init", "yaw", float("inf")), ("filter", "imu_buffer_capacity", 0),
    ("filter", "max_clones", 0), ("filter", "clone_every", 0),
    ("landmarks", "count", -1), (None, "seed", -1), (None, "seed", 1.5),
    ("suite", "imu_rate", float("nan")), ("suite", "gnss_rate", 0.0),
    ("suite", "camera_rate", float("inf")), ("suite", "gnss_sigma", float("nan")),
    ("suite", "pixel_sigma", -1.0), ("suite", "fov_half_tangent", float("nan")),
    ("suite", "min_depth", -0.5), ("suite", "max_depth", 0.1),
    ("suite", "lever_arm", [0.1, float("nan"), 0.0]), ("suite", "lever_arm", [0.1, 0.0]),
    ("suite", "cam_offset", 1.0), ("suite", "noise", {"gyro_noise": float("nan")}),
    ("trajectory", "altitude", float("nan")), ("trajectory", "alt_amplitude", float("inf")),
    ("trajectory", "phase", float("nan")), ("trajectory", "center", [0.0, float("nan")]),
    ("trajectory", "center", [0.0, 0.0, 1.0]),
    ("trajectory", "waypoints", [[0.0, 0.0], [5.0, float("nan")]]),
    ("agent", "agent_id", [1]),
    ("agent", "agent_id", -1),
    ("suite", "cam_rotation", [[float("nan")] * 3] * 3),
    ("suite", "cam_rotation", [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    ("suite", "cam_rotation", [1.0, 0.0, 0.0]),
    ("noise", "gravity", [0.0, 0.0, float("nan")]),
    ("noise", "gravity", [0.0, -9.81]),
    ("agent", "use_gnss", "no"),
    (None, "use_vision", "no"),
    (None, "collaboration", 1),
    ("gate", "enabled", "no"),
    # A bool is not a number, though Python compares it as 0 or 1.
    ("suite", "imu_rate", True),
    ("trajectory", "speed", True),
    ("network", "drop_prob", True),
    ("gate", "v_emp", True),
    ("suite", "lever_arm", [True, 0.0, 0.0]),
    # An IMU period longer than the 4 s run.
    ("suite", "imu_rate", 0.2),
    # A record period longer than the 4 s run: no record, so no ATE.
    (None, "record_rate", 0.2),
    # Fewer IMU steps than the default 20 ms GNSS delay spans at 200 Hz:
    # every delayed fix would leave the buffer before it lands.
    ("filter", "imu_buffer_capacity", 3),
    # Each sigma is the filter's noise for a sensor the agent uses.
    ("suite", "gnss_sigma", 0.0),
    ("suite", "pixel_sigma", 0.0),
    # Gravity is the truth's constant, not a config key: a finite value is
    # refused too, since a filter mechanizing against any other gravity
    # than the truth's is biased.
    ("noise", "gravity", [0.0, 0.0, -9.80665]),
])
def test_config_rejects_out_of_range_values(section, key, value):
    with pytest.raises(ConfigError, match=key):
        _config_with(section, key, value)


@settings(max_examples=400, deadline=None)
@given(field=st.sampled_from(CHECKED_FIELDS),
       value=st.one_of(st.floats(), st.integers(-3, 10 ** 6), st.booleans(), st.none(),
                       st.text(max_size=3), st.lists(st.integers(), max_size=3),
                       st.lists(st.floats(), min_size=2, max_size=3)))
def test_config_fields_are_finite_or_rejected(field, value):
    section, key = field
    try:
        cfg = _config_with(section, key, value)
    except ConfigError:
        return
    owner = cfg.agents[0] if section in AGENT_SECTIONS else cfg
    got = getattr(owner if section is None else getattr(owner, section), key)
    if key == "cam_rotation":
        if got is None:
            return  # the default nadir camera
        got = sum(got, ())  # its rows, each a tuple
    values = got if key in VECTOR_FIELDS else (got,)
    assert isinstance(values, tuple)
    assert all(isinstance(v, numbers.Real) and not isinstance(v, bool)
               and math.isfinite(v) for v in values)


def test_config_rejects_gate_beta():
    # The gate never read beta; it is no longer a config key.
    with pytest.raises(ConfigError, match="beta"):
        _config_with("gate", "beta", 0.5)


def test_accepted_conventions_are_the_table_keys():
    agents = (AgentConfig(0, TrajectorySpec(duration=5.0), SensorSuite()),)
    for name in CONVENTIONS:
        assert SimConfig(agents=agents, convention=name).convention == name
    for name in ("LIEKF", "iekf", "", ["liekf"]):
        with pytest.raises(ConfigError):
            SimConfig(agents=agents, convention=name)


def test_track_length_above_the_window_is_checked_only_with_vision():
    # A track holds one observation per window clone; without the camera the
    # window is never filled, so a short one is no error.
    agents = (AgentConfig(0, TrajectorySpec(duration=5.0), SensorSuite()),)
    short = FilterOptions(max_clones=2)
    assert SimConfig(agents=agents, use_vision=False, filter=short).filter == short
    with pytest.raises(ConfigError, match="min_track_length"):
        SimConfig(agents=agents, filter=short)


def test_duration_is_shortest_agent():
    suite = SensorSuite()
    cfg = SimConfig(agents=(
        AgentConfig(0, TrajectorySpec(duration=5.0), suite),
        AgentConfig(1, TrajectorySpec(duration=8.0), suite),
    ))
    assert cfg.duration == 5.0


def test_config_from_dict():
    d = {
        "agents": [{"trajectory": {"kind": "circle", "speed": 1.5,
                                   "duration": 4.0},
                    "suite": {"gnss_sigma": 0.05,
                              "noise": {"gyro_noise": 1e-4}}}],
        "seed": 3,
        "convention": "riekf",
        "gate": {"enabled": False},
    }
    cfg = config_from_dict(d)
    assert cfg.seed == 3 and cfg.convention == "riekf"
    assert cfg.agents[0].trajectory.speed == 1.5
    assert cfg.agents[0].suite.gnss_sigma == 0.05
    assert cfg.agents[0].suite.noise.gyro_noise == 1e-4
    assert not cfg.gate.enabled


def test_config_from_dict_rejects_unknown_keys():
    base = {"agents": [{"trajectory": {"duration": 4.0}}]}
    with pytest.raises(ConfigError):
        config_from_dict({**base, "bogus": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"agents": [{"trajectory": {"duration": 4.0,
                                                     "warp": 9}}]})
    with pytest.raises(ConfigError):
        config_from_dict({"agents": []})
    with pytest.raises(ConfigError):
        config_from_dict([1, 2])
    with pytest.raises(ConfigError):
        config_from_dict({**base, "filter": {"sensor_buffer_capacity": 10}})
    with pytest.raises(ConfigError, match="use_gps"):
        config_from_dict({"agents": [{"trajectory": {"duration": 4.0},
                                      "use_gps": False}]})
    # Keys of mixed types are still listed, not compared.
    with pytest.raises(ConfigError, match="foo"):
        config_from_dict({**base, 1: 2, "foo": 3})


def _mapping(cls, nested=None):
    """Mappings for the config dataclass `cls`: some of its field names and
    some junk keys, with mixed values, and `nested` sub-mappings."""
    names = [f.name for f in fields(cls)]
    keys = st.one_of(st.sampled_from(names), st.text(max_size=3), st.integers(-2, 2))
    values = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                       st.text(max_size=3),
                       st.lists(st.one_of(st.floats(), st.integers(-2, 2)), max_size=4))
    return st.builds(lambda flat, sub: {**flat, **sub},
                     st.dictionaries(keys, values, max_size=4),
                     st.fixed_dictionaries({}, optional=nested or {}))


_AGENT = _mapping(AgentConfig, {
    "trajectory": _mapping(TrajectorySpec),
    "suite": _mapping(SensorSuite, {"noise": _mapping(NoiseDensities)}),
})
_ROOT = _mapping(SimConfig, {
    "agents": st.lists(_AGENT, max_size=3),
    **{name: _mapping(tp) for name, tp in typing.get_type_hints(SimConfig).items()
       if is_dataclass(tp)},
})


@settings(max_examples=500, deadline=None)
@given(d=_ROOT)
def test_any_config_mapping_gives_a_config_or_a_config_error(d):
    try:
        assert isinstance(config_from_dict(d), SimConfig)
    except ConfigError:
        pass


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("agents: [\n")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_run_produces_artifacts(tmp_path):
    # With the gate on and some outliers, so that the gate table has rows.
    art = run_swarm(tiny_config(gate=GateOptions(),
                                outliers=OutlierOptions(rate=0.2, magnitude=0.5)))
    out = art.write(tmp_path / "out")
    names = sorted(os.listdir(out))
    assert "trajectory_agent0.csv" in names
    assert "covariance_agent0.csv" in names
    assert "nees_agent0.csv" in names
    assert "gate_agent0.csv" in names
    assert "bandwidth.csv" in names
    assert "timing.csv" in names
    assert "summary.yaml" in names
    with open(os.path.join(out, "trajectory_agent0.csv")) as fh:
        assert fh.readline().strip() == ARTIFACT_HEADER
        header = fh.readline().strip().split(",")
        assert header[:4] == ["t", "est_x", "est_y", "est_z"]
        rows = fh.readlines()
    assert len(rows) == 30  # 3 s at the 10 Hz record rate
    with open(os.path.join(out, "summary.yaml")) as fh:
        fh.readline()
        summary = yaml.safe_load(fh)
    assert summary["schema"] == 1
    agent = summary["agents"][0]
    assert agent["ate_rmse"] < 1.0
    # Every table is written under its declared columns, and the summary's
    # means and counts are those of the written rows.
    written = {}
    for table, columns in sim.AGENT_TABLES.items():
        path = os.path.join(out, f"{table}_agent0.csv")
        with open(path) as fh:
            assert fh.readline().strip() == ARTIFACT_HEADER
            header = fh.readline().strip().split(",")
        assert tuple(header) == columns
        values = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
        written[table] = {name: values[:, j] for j, name in enumerate(header)}
    for key, table, name in (("mean_position_nees", "nees", "position_nees"),
                             ("mean_orientation_nees", "nees", "orientation_nees"),
                             ("mean_position_cov_trace", "covariance", "position_trace")):
        assert agent[key] == pytest.approx(written[table][name].mean(), rel=1e-9)
    accepted = written["gate"]["accepted"]
    assert agent["gate_accepted"] == np.sum(accepted == 1) > 0
    assert agent["gate_rejected"] == np.sum(accepted == 0) > 0
    assert agent["gate_accepted"] + agent["gate_rejected"] == len(accepted) == 30


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_run_is_byte_deterministic(tmp_path, convention):
    a = run_swarm(tiny_config(seed=11, convention=convention)).write(tmp_path / "a")
    b = run_swarm(tiny_config(seed=11, convention=convention)).write(tmp_path / "b")
    for name in sorted(os.listdir(a)):
        if name == "timing.csv":  # wall-clock numbers, excluded on purpose
            continue
        with open(os.path.join(a, name), "rb") as fa, \
             open(os.path.join(b, name), "rb") as fb:
            assert fa.read() == fb.read(), name
    c = run_swarm(tiny_config(seed=12, convention=convention)).write(tmp_path / "c")
    with open(os.path.join(a, "trajectory_agent0.csv"), "rb") as fa, \
         open(os.path.join(c, "trajectory_agent0.csv"), "rb") as fc:
        assert fa.read() != fc.read()


def test_summary_is_written_whole_or_not_at_all(tmp_path, monkeypatch):
    # A resumed batch takes summary.yaml's presence to mean the run finished
    # and merges its numbers, so a write that fails must leave none behind.
    art = run_swarm(tiny_config(duration=1.0))

    def failing_dump(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(yaml, "safe_dump", failing_dump)
    with pytest.raises(OSError):
        art.write(tmp_path / "out")
    assert not os.path.exists(tmp_path / "out" / "summary.yaml")


def test_run_tracks_error():
    art = run_swarm(tiny_config(seed=2, duration=5.0))
    assert art.agents[0]["ate"].rmse < 0.2
    assert art.counters["gnss_applied"] > 0
    nees_rows = np.asarray(art.agents[0]["nees"])
    assert np.all(np.isfinite(nees_rows))


@pytest.mark.parametrize("delay", [0.1, 0.0])
def test_imu_steps_come_before_each_event(monkeypatch, delay):
    # Two agents with different IMU rates and trajectory lengths. Each one
    # must step through its own IMU stream in order, with nothing skipped or
    # repeated and nothing after the shorter duration, and every GNSS fix,
    # prompt or delayed, must meet a state propagated to exactly its epoch.
    synth_imu, synth_gnss = sim.synthesize_imu, sim.synthesize_gnss
    init, propagate = AgentFilter.__init__, AgentFilter.propagate
    update_gnss, update_delayed = AgentFilter.update_gnss, AgentFilter.update_gnss_delayed
    streams, epochs, filters, applied = [], {}, [], []

    def imu_stream(*args):
        samples = synth_imu(*args)
        streams.append(samples.times.tolist())
        return samples

    def gnss_fixes(*args):
        fixes = synth_gnss(*args)
        epochs.update((f.position.tobytes(), f.timestamp) for f in fixes)
        return fixes

    def recording_init(self, *args, **kw):
        init(self, *args, **kw)
        self.steps = []
        filters.append(self)

    def recording_propagate(self, segment):
        self.steps.extend(segment.times.tolist())
        return propagate(self, segment)

    def recording_update(self, z):
        applied.append((epochs[z.tobytes()], self.state.timestamp))
        return update_gnss(self, z)

    def recording_delayed(self, z, snapshot):
        applied.append((epochs[z.tobytes()], snapshot[0].timestamp))
        return update_delayed(self, z, snapshot)

    monkeypatch.setattr(sim, "synthesize_imu", imu_stream)
    monkeypatch.setattr(sim, "synthesize_gnss", gnss_fixes)
    monkeypatch.setattr(AgentFilter, "__init__", recording_init)
    monkeypatch.setattr(AgentFilter, "propagate", recording_propagate)
    monkeypatch.setattr(AgentFilter, "update_gnss", recording_update)
    monkeypatch.setattr(AgentFilter, "update_gnss_delayed", recording_delayed)
    agents = tuple(
        AgentConfig(i, TrajectorySpec(duration=duration, phase=0.5 * i),
                    SensorSuite(imu_rate=rate))
        for i, (duration, rate) in enumerate([(4.03, 200.0), (5.0, 160.0)]))
    cfg = SimConfig(agents=agents, gnss_delay=delay, use_vision=False,
                    collaboration=False, gate=GateOptions(enabled=False))
    art = run_swarm(cfg)

    assert len(filters) == len(streams) == 2
    for f, stream in zip(filters, streams):
        assert f.steps == [t for t in stream if t <= cfg.duration + 1e-9]
    # 4.03 s is no record epoch: the last steps come after every event.
    assert [len(f.steps) for f in filters] == [806, 644]
    assert len(applied) == art.counters["gnss_applied"] > 0
    for epoch, state_time in applied:
        assert round(state_time, 9) == round(epoch, 9)


def test_segments_are_read_only_views_of_the_synthesized_stream(monkeypatch):
    # The cursor hands the filter slices of the synthesized arrays, and the
    # buffer's records hold those same slices: nothing is copied, and
    # nothing can write to them, nor to the records' step lengths.
    synth_imu, propagate = sim.synthesize_imu, AgentFilter.propagate
    streams, handed = [], []

    def imu_stream(*args):
        streams.append(synth_imu(*args))
        return streams[-1]

    def recording_propagate(self, segment):
        handed.append((self, segment))
        return propagate(self, segment)

    monkeypatch.setattr(sim, "synthesize_imu", imu_stream)
    monkeypatch.setattr(AgentFilter, "propagate", recording_propagate)
    run_swarm(SimConfig(agents=(AgentConfig(0, TrajectorySpec(duration=2.0), SensorSuite()),),
                        gnss_delay=0.1, use_vision=False, collaboration=False))
    (stream,) = streams
    assert len(handed) > 1
    ag = handed[-1][0]
    assert ag.imu_buffer.entries
    for segment in [seg for _, seg in handed] + [e.samples for e in ag.imu_buffer.entries]:
        for name in ("times", "gyro", "accel"):
            part = getattr(segment, name)
            assert np.shares_memory(part, getattr(stream, name))
            with pytest.raises(ValueError, match="read-only"):
                part[...] = 0.0
    for e in ag.imu_buffer.entries:
        with pytest.raises(ValueError, match="read-only"):
            e.samples.dts[...] = 1.0


def test_agent_filter_defaults_match_filter_options():
    # The agent's only defaults are the config's own: its limits are the
    # options', and its sensor model the suite's.
    params = inspect.signature(AgentFilter).parameters.values()
    assert [p.default for p in params if p.default is not p.empty] == \
        [SensorSuite(), FilterOptions()]
    ag = AgentFilter(SystemState.identity(), np.eye(18), "liekf")
    assert ag.options == FilterOptions() and ag.suite == SensorSuite()
    assert ag.imu_buffer.capacity == FilterOptions().imu_buffer_capacity


def test_delayed_gnss_smoke():
    art = run_swarm(tiny_config(seed=2, duration=5.0, gnss_delay=0.05,
                                use_vision=False))
    assert art.counters["gnss_applied"] > 0
    assert art.counters["gnss_dropped_horizon"] == 0
    assert art.agents[0]["ate"].rmse < 0.3


@pytest.mark.parametrize("imu_rate,capacity", [(200.0, 19), (150.0, 14),
                                               (203.0, 20), (97.0, 9)])
def test_imu_buffer_must_span_the_gnss_delay(imu_rate, capacity):
    # ceil(0.1 s * imu_rate) steps are the least that reach a fix's epoch;
    # one fewer dropped every fix (or some of them) without an error.
    def config(capacity):
        return tiny_config(gnss_delay=0.1, use_vision=False,
                           agents=(AgentConfig(0, TrajectorySpec(duration=4.0),
                                               SensorSuite(imu_rate=imu_rate)),),
                           filter=FilterOptions(imu_buffer_capacity=capacity))
    with pytest.raises(ConfigError, match="imu_buffer_capacity"):
        config(capacity)
    art = run_swarm(config(capacity + 1))
    assert art.counters["gnss_applied"] == 39
    assert art.counters["gnss_dropped_horizon"] == 0
    # GNSS-denied agents and prompt fixes need no buffer.
    tiny_config(gnss_delay=0.1, use_gnss=False,
                filter=FilterOptions(imu_buffer_capacity=1))
    tiny_config(filter=FilterOptions(imu_buffer_capacity=1))


@pytest.mark.parametrize("imu_rate,gnss_rate", [(100.0, 10.0), (200.0, 10.0), (250.0, 5.0),
                                                (400.0, 20.0), (150.0, 7.0)])
@pytest.mark.parametrize("share", [0.013, 0.37, 0.5, 1.0])
def test_a_buffer_of_delay_times_imu_rate_drops_no_fix(imu_rate, gnss_rate, share):
    # With imu_buffer_capacity = ceil(gnss_delay * imu_rate), the least the
    # config accepts, every delayed fix of a run is applied and none leaves
    # the buffer's horizon, for delays from 1.3% of the GNSS period up to
    # the whole period.
    delay = share / gnss_rate
    capacity = math.ceil(delay * imu_rate - 1e-9)
    cfg = tiny_config(gnss_delay=delay, use_vision=False,
                      agents=(AgentConfig(0, TrajectorySpec(duration=4.0),
                                          SensorSuite(imu_rate=imu_rate,
                                                      gnss_rate=gnss_rate)),),
                      filter=FilterOptions(imu_buffer_capacity=capacity))
    if capacity > 1:  # one fewer is refused: this is the least capacity accepted
        with pytest.raises(ConfigError, match="imu_buffer_capacity"):
            replace(cfg, filter=FilterOptions(imu_buffer_capacity=capacity - 1))
    art = run_swarm(cfg)
    assert art.counters["gnss_dropped_horizon"] == 0
    # Every fix but the last, at 4 s, whose completion falls after the run.
    assert art.counters["gnss_applied"] == int(4.0 * gnss_rate) - 1


def _record_filter_calls(monkeypatch, names):
    """Wrap AgentFilter methods to log (agent index, method, queue time,
    state before the call, args) per call; the queue time is the last
    `advance` target."""
    clock, filters, calls = [0.0], [], []
    advance, init = sim._AgentRuntime.advance, AgentFilter.__init__

    def timed_advance(self, t):
        clock.append(t)
        return advance(self, t)

    def recording_init(self, *args, **kw):
        init(self, *args, **kw)
        filters.append(self)

    def wrap(name, method):
        def recording(self, *args, **kw):
            calls.append((filters.index(self), name, clock[-1], self.state, args))
            return method(self, *args, **kw)
        return recording

    monkeypatch.setattr(sim._AgentRuntime, "advance", timed_advance)
    monkeypatch.setattr(AgentFilter, "__init__", recording_init)
    for name in names:
        monkeypatch.setattr(AgentFilter, name, wrap(name, getattr(AgentFilter, name)))
    return calls


def test_whole_covariance_updates_wait_for_delayed_fixes(monkeypatch):
    # With a 50 ms delay, frames such as the one at 4/30 s fall inside a
    # fix's (epoch, completion) window. Clone augmentation, vision and CI
    # updates would clobber the epoch snapshot there, so they must be
    # deferred out of every window, and deferring must lose no keyframe.
    from swarmnav.scenarios import collab_config
    delay = 0.05
    names = ("snapshot", "augment_clone", "update_vision", "update_collaborative")
    runs = {}
    for d in (delay, 0.0):
        calls = _record_filter_calls(monkeypatch, names)
        run_swarm(replace(collab_config(seed=5, duration=4.0), gnss_delay=d))
        runs[d] = calls
        monkeypatch.undo()

    windows = [(agent, t, round(t + delay, 9))
               for agent, name, t, _, _ in runs[delay] if name == "snapshot"]
    assert windows
    for agent, name, t, _, _ in runs[delay]:
        assert not any(a == agent and lo < t < hi for a, lo, hi in windows), (name, t)
    assert any(name == "update_collaborative" for _, name, _, _, _ in runs[delay])

    def keyframes(calls):
        return [(agent, t) for agent, name, t, _, _ in calls if name == "augment_clone"]

    # Some keyframe of the prompt run lies inside a window of the delayed one.
    assert any(a == agent and lo < t < hi
               for agent, t in keyframes(runs[0.0]) for a, lo, hi in windows)
    assert sorted(a for a, _ in keyframes(runs[delay])) == \
        sorted(a for a, _ in keyframes(runs[0.0]))


def test_vision_runs_when_the_delay_equals_the_gnss_period():
    # At a delay of one 10 Hz period each fix completes at the next epoch,
    # which opens the next fix's window at once. The frames held for the
    # first fix must run when it lands, not wait for a window that never
    # closes.
    from swarmnav.scenarios import ring_landmarks
    counts = {}
    for d in (0.099, 0.1):
        art = run_swarm(tiny_config(seed=4, duration=6.0, gnss_delay=d,
                                    landmarks=ring_landmarks(8, 20.0)))
        counts[d] = (art.counters["features_initialized"], art.counters["vision_rows"])
    assert counts[0.1][0] > 0 and counts[0.1][1] > 0
    assert counts[0.1] == counts[0.099]


def test_tracks_restart_when_a_landmark_leaves_the_state(monkeypatch):
    # A landmark dropped with its anchor clone is re-initialized only from
    # frames observed after the drop, and no landmark in the state is
    # initialized a second time.
    from swarmnav.scenarios import ring_landmarks
    calls = _record_filter_calls(monkeypatch, ("marginalize_clone", "initialize_feature"))
    run_swarm(tiny_config(seed=4, duration=6.0, landmarks=ring_landmarks(8, 20.0)))
    dropped_at, reinitialized = {}, 0
    for _, name, t, state, args in calls:
        if name == "marginalize_clone":
            for lid in state.feature_ids[state.feature_anchors == args[0]].tolist():
                dropped_at[lid] = state.timestamp
            continue
        feature_id, tracks = args
        assert feature_id not in state.feature_ids.tolist(), (feature_id, t)
        if feature_id in dropped_at:
            reinitialized += 1
            assert all(state.clone_times[ci] >= dropped_at[feature_id]
                       for ci, _ in tracks), (feature_id, t)
    assert reinitialized > 0


def _held_keyframes_config(duration):
    """collab_config with GNSS on both agents, 100 ms late, and a 120 Hz
    camera: keyframes 50 ms apart, so two are held in each fix's window and
    cloned at its one completion time."""
    from swarmnav.scenarios import collab_config
    cfg = collab_config(seed=17, duration=duration)
    return replace(cfg, gnss_delay=0.1, agents=tuple(
        replace(a, use_gnss=True, suite=replace(a.suite, camera_rate=120.0))
        for a in cfg.agents))


def test_each_track_view_names_the_clone_row_of_its_keyframe(monkeypatch):
    # Two clones that share a capture time are still two rows: each view
    # given to initialize_feature names the row of the clone whose keyframe
    # saw it (told by its uv), and no row appears twice in one track.
    cfg = _held_keyframes_config(3.0)
    frames, filters, windows, checked = [], [], {}, []
    synthesize = sim.synthesize_bearings
    init, augment = AgentFilter.__init__, AgentFilter.augment_clone
    initialize = AgentFilter.initialize_feature

    def recording_synthesize(*args, **kw):
        frames.append(synthesize(*args, **kw))
        return frames[-1]

    def recording_init(self, *args, **kw):
        init(self, *args, **kw)
        filters.append(self)

    def recording_augment(self):
        # The window as keyframe numbers: the n-th clone of an agent is its
        # n-th keyframe, and a dropped clone leaves from the front.
        window = windows.setdefault(filters.index(self), [])
        keyframe = len(window) and window[-1] + 1
        ci = augment(self)
        del window[:len(window) - ci]
        window.append(keyframe)
        return ci

    def checking_initialize(self, feature_id, tracks):
        a = filters.index(self)
        keyframes = [f for f in frames[a][::cfg.filter.clone_every]
                     if f.timestamp <= cfg.duration]
        seen_in = {np.asarray(uv).tobytes(): n for n, f in enumerate(keyframes)
                   for lid, uv in f.observations if lid == feature_id}
        rows = [ci for ci, _ in tracks]
        assert len(set(rows)) == len(rows), (a, feature_id, rows)
        for ci, uv in tracks:
            assert windows[a][ci] == seen_in[np.asarray(uv).tobytes()], (a, feature_id, rows)
        checked.append(feature_id)
        return initialize(self, feature_id, tracks)

    monkeypatch.setattr(sim, "synthesize_bearings", recording_synthesize)
    monkeypatch.setattr(AgentFilter, "__init__", recording_init)
    monkeypatch.setattr(AgentFilter, "augment_clone", recording_augment)
    monkeypatch.setattr(AgentFilter, "initialize_feature", checking_initialize)
    run_swarm(cfg)
    assert len(checked) > 20


def test_the_track_rows_are_the_clone_window(monkeypatch):
    # One row per window clone: before every event and at the end, each
    # agent holds as many track rows as its state has clones.
    advance, seen = sim._AgentRuntime.advance, []

    def checking_advance(self, t):
        advance(self, t)
        assert len(self.rows) == self.filter.state.num_clones, t
        seen.append(len(self.rows))

    monkeypatch.setattr(sim._AgentRuntime, "advance", checking_advance)
    cfg = _held_keyframes_config(3.0)
    run_swarm(cfg)
    assert max(seen) == cfg.filter.max_clones


def test_every_message_is_accounted_once(monkeypatch):
    # Each message, request or reply, is entered in the ledger once and then
    # given one delivery draw; every draw that does not deliver is counted
    # in messages_dropped.
    from swarmnav.network import BandwidthLedger, NetworkModel
    from swarmnav.scenarios import collab_config
    record, sample = BandwidthLedger.record, NetworkModel.sample_delivery
    log = []

    def logging_record(self, message):
        log.append(message.msg_class)
        return record(self, message)

    def logging_sample(self, rng):
        delivered, latency = sample(self, rng)
        log.append(delivered)
        return delivered, latency

    monkeypatch.setattr(BandwidthLedger, "record", logging_record)
    monkeypatch.setattr(NetworkModel, "sample_delivery", logging_sample)
    cfg = collab_config(seed=5, duration=4.0)
    art = run_swarm(replace(cfg, network=replace(cfg.network, drop_prob=0.3)))
    classes, draws = log[0::2], log[1::2]
    assert len(classes) == len(draws)
    assert all(isinstance(c, str) for c in classes)
    assert all(isinstance(d, bool) for d in draws)
    assert {"request", "full"} <= set(classes)
    assert sum(n for n, _ in art.bandwidth.values()) == len(classes)
    assert art.counters["messages_dropped"] == draws.count(False) > 0
    assert draws.count(True) > 0


def test_vision_engages():
    from swarmnav.scenarios import ring_landmarks
    art = run_swarm(tiny_config(seed=4, duration=6.0,
                                landmarks=ring_landmarks(8, 20.0)))
    assert art.counters["features_initialized"] > 0
    assert art.counters["vision_rows"] > 0


def test_collaboration_exchanges_messages():
    suite = SensorSuite()
    t0 = TrajectorySpec(kind="circle", speed=2.0, size=20.0, duration=6.0,
                        altitude=35.0)
    t1 = TrajectorySpec(kind="circle", speed=2.0, size=20.0, duration=6.0,
                        altitude=35.0, phase=0.4)
    cfg = SimConfig(
        agents=(AgentConfig(0, t0, suite), AgentConfig(1, t1, suite)),
        seed=1, collaboration=True, gnss_delay=0.0,
        gate=GateOptions(enabled=False),
        landmarks=LandmarkOptions(count=12, extent=25.0),
    )
    art = run_swarm(cfg)
    assert art.bandwidth.get("request", (0, 0))[0] > 0
    total = sum(b for _, b in art.bandwidth.values())
    assert total == art.summary()["bandwidth_bytes"]


def test_a_full_reply_carries_each_landmark_point_and_covariance(monkeypatch):
    # Each Correspondence of a `full` reply holds the sender's world point
    # of the landmark and D P D' of its assembled covariance at the reply
    # time, as `feature_world_position` gives D.
    from swarmnav.filters import feature_world_position
    from swarmnav.network import BandwidthLedger
    from swarmnav.scenarios import collab_config
    filters, checked = [], []
    init, record = AgentFilter.__init__, BandwidthLedger.record

    def recording_init(self, *args, **kw):
        init(self, *args, **kw)
        filters.append(self)

    def checking_record(self, message):
        if message.msg_class == "full":
            ag = filters[message.sender]
            P = ag.full_covariance()
            rows = ag.state.feature_ids.tolist()
            for c in message.payload:
                p_w, D = feature_world_position(ag.state, rows.index(c.feature_id))
                cov = D @ P @ D.T
                cov = (cov + cov.T) / 2.0
                assert np.max(np.abs(c.remote_position - p_w)) <= 1e-12 * np.abs(p_w).max()
                assert np.max(np.abs(c.remote_cov - cov)) <= 1e-12 * np.abs(cov).max()
                checked.append(c.feature_id)
        return record(self, message)

    monkeypatch.setattr(AgentFilter, "__init__", recording_init)
    monkeypatch.setattr(BandwidthLedger, "record", checking_record)
    run_swarm(collab_config(seed=5, duration=3.0))
    assert len(checked) > 20


@pytest.mark.parametrize("error", [ValueError, np.linalg.LinAlgError])
def test_only_a_numerically_bad_reply_is_skipped(monkeypatch, error):
    # A CI reply the numbers make unusable (LinAlgError) changes nothing and
    # the run goes on; any other ValueError is a fault in the code and
    # propagates.
    from swarmnav.scenarios import collab_config
    calls = []

    def broken(self, correspondences):
        calls.append(len(correspondences))
        raise error("raised inside the CI update")

    monkeypatch.setattr(AgentFilter, "update_collaborative", broken)
    cfg = collab_config(seed=5, duration=3.0)
    if error is ValueError:
        with pytest.raises(ValueError, match="inside the CI update"):
            run_swarm(cfg)
    else:
        assert run_swarm(cfg).counters["collab_updates"] == 0
    assert calls


def test_init_uncertainty_sigmas():
    sig = InitUncertainty().sigmas()
    assert sig.shape == (18,)
    assert sig[2] == InitUncertainty().yaw
    assert sig[0] == InitUncertainty().roll_pitch


@pytest.mark.parametrize("kind", KINDS)
def test_truth_in_one_pass_equals_per_time_truth(kind):
    # synthesize_gnss and the record handler each evaluate the truth once,
    # on the array of their times. Every fix, and every truth row of the
    # trajectory table, is what one truth_at call per time gives, byte for
    # byte.
    spec = TrajectorySpec(kind=kind, speed=2.0, size=20.0, duration=3.0,
                          waypoints=((0.0, 0.0), (30.0, 5.0), (20.0, 25.0), (-5.0, 15.0))
                          if kind == "waypoint-spline" else None)
    suite = SensorSuite()
    fixes = synthesize_gnss(spec, suite, seed=3)
    rng = np.random.default_rng(3)
    lever = np.asarray(suite.lever_arm, dtype=float)
    dt = 1.0 / suite.gnss_rate
    assert len(fixes) == int(np.floor(spec.duration / dt))
    for k, fix in enumerate(fixes, start=1):
        pose, _, _ = truth_at(spec, k * dt)
        z = pose.position + pose.rotation @ lever + suite.gnss_sigma * rng.standard_normal(3)
        assert fix.timestamp == k * dt
        assert fix.position.tobytes() == z.tobytes()
    cfg = tiny_config(agents=(AgentConfig(0, spec, suite),), use_vision=False)
    rows = run_swarm(cfg).agents[0]["trajectory"]
    times = column(rows, "trajectory", "t")
    truth = column(rows, "trajectory", "truth_x", "truth_z")
    assert len(rows) == 30
    for t, p in zip(times, truth):
        pose, _, _ = truth_at(spec, t)
        assert p.tobytes() == pose.position.tobytes()
