"""Command-line entry points: exit codes, artifact writing, Monte-Carlo
merging and resume behavior."""

import csv
import glob
import importlib.util
import json
import math
import os
import pathlib
import runpy
import subprocess
import sys

import numpy as np
import pytest
import yaml

from swarmnav import scenarios
from swarmnav.agent import AgentFilter
from swarmnav.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_SUITE, build_parser, main
from swarmnav.conventions import CONVENTIONS
from swarmnav.scenarios import consistency_config, noiseless_config
from swarmnav.sim import load_config, run_swarm

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CONFIG_YAML = """\
agents:
  - trajectory: {kind: circle, speed: 2.0, size: 20.0, duration: 3.0}
    suite: {gnss_sigma: 0.02}
seed: 4
gate: {enabled: false}
collaboration: false
gnss_delay: 0.0
use_vision: false
"""


@pytest.fixture
def config_path(tmp_path):
    p = tmp_path / "config.yaml"
    p.write_text(CONFIG_YAML)
    return str(p)


def test_run_ok(config_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    code = main(["run", "--config", config_path, "--out", out])
    assert code == EXIT_OK
    assert os.path.exists(os.path.join(out, "summary.yaml"))
    text = capsys.readouterr().out
    assert "ATE" in text


SPARSE_KEYFRAMES_YAML = """\
seed: 1
use_gnss: false
gate: {enabled: false}
collaboration: false
landmarks: {points: [[0, [20, 0, 0]], [1, [0, 20, 3]], [2, [-20, 0, 6]], [3, [0, -20, 0]],
                     [4, [14, 14, 3]], [5, [-14, 14, 0]], [6, [-14, -14, 6]], [7, [14, -14, 3]]]}
agents:
  - trajectory: {kind: circle, speed: 2.0, size: 20.0, duration: 8.0, altitude: 35.0}
    suite: {camera_rate: 1.0}
"""


def test_keyframes_further_apart_than_the_imu_buffer_run(tmp_path, capsys):
    # A 1 Hz camera keyframes every 6 s, while the 300-sample IMU buffer
    # spans 1.5 s: the cross block owes more transitions than the buffer
    # still holds when the second keyframe syncs it.
    p = tmp_path / "sparse.yaml"
    p.write_text(SPARSE_KEYFRAMES_YAML)
    art = run_swarm(load_config(str(p)))
    assert np.isfinite(art.agents[0]["ate"].rmse)
    out = tmp_path / "out"
    assert main(["run", "--config", str(p), "--out", str(out)]) == EXIT_OK
    assert {"summary.yaml", "nees_agent0.csv", "covariance_agent0.csv"} \
        <= set(os.listdir(out))
    assert "artifacts written" in capsys.readouterr().out


def test_run_seed_and_filter_overrides(config_path, tmp_path):
    out = str(tmp_path / "out")
    code = main(["run", "--config", config_path, "--out", out,
                 "--seed", "9", "--filter", "ekf"])
    assert code == EXIT_OK
    with open(os.path.join(out, "summary.yaml")) as fh:
        fh.readline()
        summary = yaml.safe_load(fh)
    assert summary["seed"] == 9
    assert summary["convention"] == "ekf"


def test_missing_config_exits_2(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.yaml")])
    assert code == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_invalid_config_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.yaml"
    p.write_text("agents:\n  - trajectory: {kind: nonsense, duration: 3.0}\n")
    assert main(["run", "--config", str(p)]) == EXIT_CONFIG


def test_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["suite", "--suite", "nonexistent"])
    assert exc.value.code == 2


def test_suite_prints_record_and_passes(capsys):
    assert main(["suite", "--suite", "delay"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ATE with 100 ms delayed updates" in out
    assert "suite delay: PASS" in out


def test_failing_suite_exits_4(monkeypatch, capsys):
    failing = scenarios.DelayResult(ate_delayed=1.0, ate_prompt=0.01, dropped=3,
                                    passed=False)
    monkeypatch.setattr(scenarios, "delay", lambda: failing)
    assert main(["suite", "--suite", "delay"]) == EXIT_SUITE
    out = capsys.readouterr().out
    assert "dropped 3" in out
    assert "suite delay: FAIL" in out


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_default_out_env(config_path, tmp_path, monkeypatch):
    monkeypatch.setenv("SWARMNAV_OUT", str(tmp_path / "root"))
    assert main(["run", "--config", config_path]) == EXIT_OK
    assert os.path.exists(tmp_path / "root" / "run" / "summary.yaml")


def test_montecarlo_single_run_degenerate(config_path, tmp_path, capsys):
    out = str(tmp_path / "mc")
    code = main(["montecarlo", "--config", config_path, "--runs", "1",
                 "--out", out])
    assert code == EXIT_OK
    assert "degenerate" in capsys.readouterr().out
    with open(os.path.join(out, "montecarlo_summary.yaml")) as fh:
        fh.readline()
        merged = yaml.safe_load(fh)
    assert merged["runs"] == 1
    assert merged["degenerate_interval"] is True


def test_montecarlo_merges_and_resumes(config_path, tmp_path, capsys):
    out = str(tmp_path / "mc")
    merged = os.path.join(out, "montecarlo_summary.yaml")
    assert main(["montecarlo", "--config", config_path, "--runs", "3",
                 "--out", out]) == EXIT_OK
    with open(merged) as fh:
        fh.readline()
        assert yaml.safe_load(fh)["runs"] == 3
    assert {f"run{i:03d}" for i in range(3)} <= set(os.listdir(out))
    with open(merged, "rb") as fh:
        fresh = fh.read()
    # Re-running must reuse the finished runs and reproduce the merge
    # byte for byte, with the old merged file in place and without it.
    stamp = os.path.getmtime(os.path.join(out, "run001", "summary.yaml"))
    for remove_merged in (False, True):
        if remove_merged:
            os.remove(merged)
        assert main(["montecarlo", "--config", config_path, "--runs", "3",
                     "--out", out]) == EXIT_OK
        assert os.path.getmtime(os.path.join(out, "run001", "summary.yaml")) == stamp
        with open(merged, "rb") as fh:
            assert fh.read() == fresh, remove_merged


def test_montecarlo_parallel_matches_serial(config_path, tmp_path):
    serial = str(tmp_path / "serial")
    parallel = str(tmp_path / "parallel")
    main(["montecarlo", "--config", config_path, "--runs", "2",
          "--out", serial])
    main(["montecarlo", "--config", config_path, "--runs", "2",
          "--out", parallel, "--jobs", "2"])
    for name in ("montecarlo_summary.yaml",):
        with open(os.path.join(serial, name)) as fa, \
             open(os.path.join(parallel, name)) as fb:
            assert fa.read() == fb.read()


def _tree_bytes(root):
    return {os.path.relpath(path, root): pathlib.Path(path).read_bytes()
            for path in glob.glob(os.path.join(root, "**", "*"), recursive=True)
            if os.path.isfile(path)}


@pytest.mark.parametrize("flags,old,new", [
    (["--filter", "ekf"], "", ""),
    (["--seed", "5"], "", ""),
    ([], "  - trajectory:", "  - agent_id: 3\n    trajectory:"),
], ids=["convention", "seed", "agent ids"])
def test_montecarlo_refuses_runs_of_another_batch(config_path, tmp_path, capsys,
                                                  flags, old, new):
    # A finished run is reused only by the batch it belongs to; another
    # batch exits 2, names the run, and overwrites nothing.
    out = str(tmp_path / "mc")
    assert main(["montecarlo", "--config", config_path, "--runs", "2",
                 "--out", out]) == EXIT_OK
    before = _tree_bytes(out)
    other = tmp_path / "other.yaml"
    other.write_text(CONFIG_YAML.replace(old, new))
    capsys.readouterr()
    assert main(["montecarlo", "--config", str(other), "--runs", "2",
                 "--out", out, *flags]) == EXIT_CONFIG
    assert os.path.join(out, "run000") in capsys.readouterr().err
    assert _tree_bytes(out) == before


@pytest.mark.parametrize("suite", ["delay", "segmentation", "gate"])
def test_suite_runs_flag_needs_a_monte_carlo_suite(monkeypatch, capsys, suite):
    monkeypatch.setattr(scenarios, suite, lambda *a: pytest.fail(f"{suite} ran"))
    assert main(["suite", "--suite", suite, "--runs", "3"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "consistency" in err and "collab" in err


@pytest.mark.parametrize("old,new", [
    ("seed: 4", "seed: -1"),
    ("gnss_delay: 0.0", "gnss_delay: 0.1\nfilter: {imu_buffer_capacity: 0}"),
    ("gnss_delay: 0.0", "gnss_delay: 0.15"),
    # 19 IMU steps at 200 Hz end short of a fix taken 0.1 s ago.
    pytest.param("gnss_delay: 0.0", "gnss_delay: 0.1\nfilter: {imu_buffer_capacity: 19}",
                 id="imu_buffer_capacity: 19, gnss_delay: 0.1"),
    ("gate: {enabled: false}", "gate: {enabled: false, beta: 0.5}"),
    ("suite: {gnss_sigma: 0.02}", "suite: {gnss_sigma: .nan}"),
    # The filter's GNSS noise: zero makes every fix's innovation singular.
    ("suite: {gnss_sigma: 0.02}", "suite: {gnss_sigma: 0.0}"),
    pytest.param(CONFIG_YAML[:CONFIG_YAML.index("seed")], "agents: [1]\n",
                 id="agents: [1]"),
    pytest.param("suite: {gnss_sigma: 0.02}", "suite: {gnss_sigma: 0.02}\n    use_gnss: \"no\"",
                 id="use_gnss: no"),
    ("use_vision: false", "use_vision: \"no\""),
    *(pytest.param("use_vision: false", f"use_vision: false\nlandmarks: {section}",
                   id=f"landmarks: {section}")
      for section in ("{points: 5}", "{points: [[1, 2]]}", "[1]",
                      "{points: [[a, [1, 2, 3]]]}", "{points: [[1, [1, 2]]]}",
                      "{points: [[true, [1, 2, 3]]]}", "{points: [[1, [1, .inf, 3]]]}",
                      "{points: [[1, [1, 2, 3]], [1, [4, 5, 6]]]}")),
    *(pytest.param("suite: {gnss_sigma: 0.02}", f"suite: {section}", id=f"suite: {section}")
      for section in ("[1, 2]", "abc", "{noise: [1]}")),
    # Two consecutive equal waypoints, the last and the first included,
    # make a zero-length spline segment.
    *(pytest.param("kind: circle, speed: 2.0, size: 20.0",
                   f"kind: waypoint-spline, waypoints: {points}", id=f"waypoints: {points}")
      for points in ("[[0, 0], [0, 0], [5, 5]]", "[[0, 0], [5, 5], [0, 0]]")),
    # An IMU period longer than the 3 s run: no sample would fall inside it.
    ("suite: {gnss_sigma: 0.02}", "suite: {gnss_sigma: 0.02, imu_rate: 0.3}"),
    # A record period longer than the 3 s run: no record, so no ATE.
    ("use_vision: false", "use_vision: false\nrecord_rate: 0.1"),
    # A track holds one observation per window clone, so it can never reach
    # a length above max_clones: no landmark would ever be initialized.
    ("use_vision: false", "use_vision: true\nfilter: {max_clones: 6, min_track_length: 7}"),
    # Gravity is the truth's constant; no config key sets it.
    ("suite: {gnss_sigma: 0.02}",
     "suite: {gnss_sigma: 0.02, noise: {gravity: [0.0, 0.0, -9.80665]}}"),
])
def test_out_of_range_config_exits_2(tmp_path, capsys, old, new):
    p = tmp_path / "bad.yaml"
    p.write_text(CONFIG_YAML.replace(old, new))
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) \
        == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_filter_choices_are_the_convention_table(capsys):
    parser = build_parser()
    for command in ("run", "montecarlo"):
        for name in CONVENTIONS:
            args = parser.parse_args([command, "--config", "c.yaml", "--filter", name])
            assert args.filter_variant == name
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--config", "c.yaml", "--filter", "iekf"])
        # The usage line lists exactly the choices.
        assert "{%s}" % ",".join(sorted(CONVENTIONS)) in capsys.readouterr().err


def test_non_finite_config_exits_2(tmp_path, capsys):
    p = tmp_path / "nan.yaml"
    p.write_text(CONFIG_YAML.replace("gnss_delay: 0.0", "gnss_delay: .nan"))
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "o")]) \
        == EXIT_CONFIG
    assert "gnss_delay" in capsys.readouterr().err


@pytest.mark.parametrize("old,new", [
    # A finite, positive speed whose square overflows inside the run.
    pytest.param("speed: 2.0", "speed: 1.0e+155", id="speed"),
    # A finite altitude swing that drives the estimate to inf: the run must
    # not report an infinite ATE as a result.
    pytest.param("duration: 3.0", "alt_amplitude: 1.0e+300, duration: 2.0",
                 id="alt_amplitude"),
    # Sigmas whose squares overflow turn the estimate NaN: the record step
    # must report it, not fail inside the error it computes from it.
    pytest.param("seed: 4", "seed: 4\ninit: {yaw: 1.0e+300}", id="init_yaw"),
    pytest.param("suite: {gnss_sigma: 0.02}",
                 "suite: {gnss_sigma: 0.02, noise: {gyro_noise: 1.0e+300}}", id="gyro_noise"),
])
def test_overflowing_run_exits_3(tmp_path, capsys, old, new):
    p = tmp_path / "fast.yaml"
    p.write_text(CONFIG_YAML.replace(old, new))
    # The overflow warns before the run reports it; the warnings are part
    # of the case, so that any other numerical warning in the suite shows.
    with pytest.warns(RuntimeWarning):
        code = main(["run", "--config", str(p), "--out", str(tmp_path / "o")])
    assert code == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_a_programming_error_in_a_run_is_not_a_numerical_failure(config_path, tmp_path,
                                                                  monkeypatch):
    # A ValueError raised by the code itself, not by the numbers, must
    # surface as the error it is rather than exit 3 as "numerical failure".
    def broken(self, z):
        raise ValueError("a bug in the update path")

    monkeypatch.setattr(AgentFilter, "update_gnss", broken)
    with pytest.raises(ValueError, match="a bug in the update path"):
        main(["run", "--config", config_path, "--out", str(tmp_path / "o")])


def test_record_epochs_stay_inside_a_duration_off_the_grid(tmp_path):
    # The 30th record epoch at 10 Hz, 3.0 s, lies half a nanosecond past the
    # duration: truth must never be asked for there.
    p = tmp_path / "short.yaml"
    p.write_text(CONFIG_YAML.replace("duration: 3.0", "duration: 2.9999999995"))
    out = tmp_path / "o"
    assert main(["run", "--config", str(p), "--out", str(out)]) == EXIT_OK
    with open(out / "trajectory_agent0.csv") as fh:
        fh.readline()
        rows = list(csv.DictReader(fh))
    assert rows and float(rows[-1]["t"]) <= 2.9999999995


@pytest.mark.parametrize("flags", [["--runs", "0"], ["--runs", "-3"],
                                   ["--jobs", "0"]])
def test_montecarlo_rejects_non_positive_counts(config_path, tmp_path, flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["montecarlo", "--config", config_path,
              "--out", str(tmp_path / "mc")] + flags)
    assert exc.value.code == 2
    assert "at least 1" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "mc")


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records its size and runs the
    payloads in this process, so no worker is ever started."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_montecarlo_pool_is_sized_by_pending_runs(config_path, tmp_path, monkeypatch):
    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    _InlinePool.sizes = []
    out = str(tmp_path / "mc")
    assert main(["montecarlo", "--config", config_path, "--runs", "2",
                 "--out", out, "--jobs", "64"]) == EXIT_OK
    assert _InlinePool.sizes == [2]
    # Resuming with one run left needs no pool at all; with two left, a
    # pool of two.
    assert main(["montecarlo", "--config", config_path, "--runs", "3",
                 "--out", out, "--jobs", "64"]) == EXIT_OK
    assert main(["montecarlo", "--config", config_path, "--runs", "5",
                 "--out", out, "--jobs", "64"]) == EXIT_OK
    assert _InlinePool.sizes == [2, 2]


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Runs the CLI module the way `python -m` does (runpy), recording the
# thread variables at the moment numpy is first imported.
_PIN_PROBE = """
import json, os, runpy, sys
VARS = {vars!r}
seen = {{}}

class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update({{v: os.environ.get(v) for v in VARS}})
        return None

assert "numpy" not in sys.modules
sys.meta_path.insert(0, Probe())
sys.argv = ["swarmnav", "--help"]
try:
    runpy.run_module("swarmnav.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(json.dumps(seen))
""".format(vars=THREAD_VARS)


def _clean_env(**extra):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.update(extra)
    return env


def _probe(code, env):
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def test_cli_pins_blas_threads_before_numpy_loads():
    seen = _probe(_PIN_PROBE, _clean_env())
    assert seen == {v: "1" for v in THREAD_VARS}
    # An explicit user value wins.
    seen = _probe(_PIN_PROBE, _clean_env(OPENBLAS_NUM_THREADS="2"))
    assert seen == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1",
                    "MKL_NUM_THREADS": "1"}


def test_plain_package_import_leaves_environment_alone():
    # Resolving every lazy export loads the whole package, numpy included.
    code = ("import json, os; before = dict(os.environ); import swarmnav; "
            "missing = [n for n in swarmnav.__all__ "
            "if getattr(swarmnav, n, None) is None]; "
            "print(json.dumps([dict(os.environ) == before, missing]))")
    unchanged, missing = _probe(code, _clean_env())
    assert unchanged and missing == []
    code = "import json, sys, swarmnav; print(json.dumps('numpy' in sys.modules))"
    assert _probe(code, _clean_env()) is False
    # The canned scenarios are library code too.
    code = ("import json, os; before = dict(os.environ); import swarmnav.scenarios; "
            "print(json.dumps(dict(os.environ) == before))")
    assert _probe(code, _clean_env()) is True


def test_cli_import_skips_scipy_stats_and_interpolate():
    # Only an ANEES interval needs scipy.stats, and only a spline trajectory
    # scipy.interpolate; each is imported where it is used.
    code = ("import json, sys, swarmnav.cli; print(json.dumps("
            "[m in sys.modules for m in ('scipy.stats', 'scipy.interpolate')]))")
    assert _probe(code, _clean_env()) == [False, False]


def test_no_scipy_module_in_a_run_or_a_batch(tmp_path):
    # SciPy is a test-only reference. No scipy module is loaded by the CLI
    # import, by a run of a circle or of a square (a spline), or by a
    # Monte-Carlo batch (its ANEES interval).
    circle = tmp_path / "circle.yaml"
    circle.write_text(CONFIG_YAML)
    square = tmp_path / "square.yaml"
    square.write_text(CONFIG_YAML.replace("kind: circle", "kind: square"))
    steps = [["run", "--config", str(circle), "--out", str(tmp_path / "circle")],
             ["run", "--config", str(square), "--out", str(tmp_path / "square")],
             ["montecarlo", "--config", str(circle), "--runs", "2", "--jobs", "1",
              "--out", str(tmp_path / "mc")]]
    code = ("import json, sys\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "import swarmnav.cli as cli\n"
            "seen = [scipy_modules()]\n"
            f"for argv in {steps!r}:\n"
            "    assert cli.main(argv) == cli.EXIT_OK, argv\n"
            "    seen.append(scipy_modules())\n"
            "print(json.dumps(seen))")
    assert _probe(code, _clean_env()) == [[], [], [], []]


def test_canned_configs_construct():
    assert consistency_config(seed=1).convention == "liekf"
    assert consistency_config(convention="ekf").convention == "ekf"
    cfg = noiseless_config()
    assert cfg.init.yaw == 0.0
    assert not cfg.use_gnss


def test_traced_cli_binds_every_target(tmp_path):
    # perfbench's tracer wraps swarmnav functions by name and unpacks some
    # of their positional arguments; a two-agent collaborative run must
    # exit 0 under it and report no binding problem.
    ring = [[k, [20.0 * math.cos(math.pi * k / 6), 20.0 * math.sin(math.pi * k / 6),
                 3.0 * (k % 3)]] for k in range(12)]
    traj = {"kind": "circle", "speed": 2.0, "size": 20.0, "duration": 3.0,
            "altitude": 35.0}
    noise = {"gyro_noise": 2e-4, "accel_noise": 2e-3, "gyro_walk": 1e-6,
             "accel_walk": 1e-5}
    cfg = {
        "seed": 5, "convention": "liekf",
        "landmarks": {"points": ring}, "filter": {"max_features": 12},
        "gate": {"enabled": False}, "collaboration": True, "gnss_delay": 0.0,
        "network": {"latency": 0.1, "jitter": 0.03, "drop_prob": 0.05},
        "request_rate": 4.0,
        "agents": [
            {"agent_id": 0, "trajectory": traj, "suite": {"noise": noise}},
            {"agent_id": 1, "use_gnss": False, "trajectory": dict(traj, phase=0.4),
             "suite": {"noise": noise}},
        ],
    }
    cfg_path = tmp_path / "collab.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    spans = str(tmp_path / "spans.npz")
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "traced_cli.py"), spans, "--",
         "run", "--config", str(cfg_path), "--out", str(tmp_path / "out")],
        env=_clean_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    with open(spans + ".json") as fh:
        report = json.load(fh)
    assert report["problems"] == []
    assert report["exit"] == 0


def test_demos_and_digest_tool_import():
    # Runs each demo's imports without its main(), and the digest tool's
    # argument parser, so a moved name breaks here rather than silently.
    demos = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
    assert demos
    for path in demos:
        assert callable(runpy.run_path(path, run_name="demo_import")["main"])
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "artifact_digests.py"), "--help"],
        env=_clean_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_digest_tool_expect_names_each_mismatch(tmp_path, capsys, monkeypatch):
    # `--expect` reads a table the tool printed and exits 1 naming every set
    # whose digest differs from it or is missing from it.
    spec = importlib.util.spec_from_file_location(
        "artifact_digests", os.path.join(ROOT, "tools", "artifact_digests.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    def writes(text):
        def run(seed, out):
            os.makedirs(out)
            (pathlib.Path(out) / "a.txt").write_text(text)
        return run

    monkeypatch.setattr(tool, "SETS", (("one", writes("1")), ("two", writes("2")),
                                       ("three", writes("3"))))
    assert tool.main(["--out", str(tmp_path / "a")]) == 0
    table = tmp_path / "table.md"
    table.write_text(capsys.readouterr().out)
    assert tool.main(["--out", str(tmp_path / "b"), "--expect", str(table)]) == 0
    assert "all 3 sets match" in capsys.readouterr().out

    table.write_text("".join(line for line in table.read_text().splitlines(True)
                             if "| three |" not in line))
    monkeypatch.setattr(tool, "SETS", (("one", writes("1")), ("two", writes("changed")),
                                       ("three", writes("3"))))
    assert tool.main(["--out", str(tmp_path / "c"), "--expect", str(table)]) == 1
    mismatched = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
                  if line.startswith("MISMATCH")]
    assert mismatched == ["MISMATCH two", "MISMATCH three"]


def test_digest_tool_compare_reports_last_bit_moves_and_counter_changes(tmp_path, capsys,
                                                                         monkeypatch):
    # `--compare` reads two --out trees: a set is "identical", or it gets the
    # largest relative difference over numeric cells and whether every
    # summary.yaml counter is equal; a counter or text change exits 1.
    spec = importlib.util.spec_from_file_location(
        "artifact_digests", os.path.join(ROOT, "tools", "artifact_digests.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "SETS", (("same", None), ("moved", None)))

    def tree(name, x, count, label="liekf"):
        for k, v in enumerate((2.0, x)):  # only the second set moves
            d = tmp_path / name / f"set{k:02d}"
            d.mkdir(parents=True)
            (d / "trajectory_agent0.csv").write_text(f"# swarmnav-artifact v1\nt,x\n0.1,{v}\n")
            (d / "summary.yaml").write_text(
                f"convention: {label}\ncounters:\n  collab_updates: {count}\nate: {v}\n")
            (d / "timing.csv").write_text(f"wall\n{x * 7}\n")  # left out
        return str(tmp_path / name)

    a = tree("a", 1.0, 5)
    assert tool.main(["--compare", a, tree("b", 1.0, 5)]) == 0
    rows = capsys.readouterr().out
    assert "| same | identical |" in rows and "| moved | identical |" in rows
    assert tool.main(["--compare", a, tree("c", 1.0 + 2e-9, 5)]) == 0
    rows = capsys.readouterr().out
    assert "| same | identical |" in rows
    assert "| moved | largest relative difference 2e-09, counters equal |" in rows
    assert tool.main(["--compare", a, tree("d", 1.0, 6)]) == 1
    assert "counters DIFFER" in capsys.readouterr().out
    assert tool.main(["--compare", a, tree("e", 1.0, 5, label="riekf")]) == 1
    assert "convention=liekf" in capsys.readouterr().out


def test_bench_record_interleaves_commits_and_writes_only_correct_sessions(tmp_path,
                                                                          monkeypatch):
    # Each commit runs in its own worktree, the order alternating by round,
    # then once traced; one BENCH file per commit holds the median and
    # quartiles of every end-to-end metric and the traced run's per-layer
    # values. A problem in any run writes no file and exits 1.
    spec = importlib.util.spec_from_file_location(
        "bench_record", os.path.join(ROOT, "tools", "bench_record.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)

    def git(*args):
        return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t",
                               "-c", "user.email=t@t", *args], check=True,
                              capture_output=True, text=True).stdout.strip()

    git("init", "-q")
    shas = []
    for name in ("parent", "change"):
        (repo / "src" / "version.txt").write_text(name)
        git("add", "-A")
        git("commit", "-q", "-m", name)
        shas.append(git("rev-parse", "HEAD"))
    change = [3.0, 1.0, 2.0, 5.0, 4.0, 6.0, 9.0, 7.0, 10.0, 8.0]
    rates = {"parent": [10.0 * x for x in change], "change": change}
    calls = []

    def fake_run(tree, seed, trace=0, problem=None):
        name = (pathlib.Path(tree) / "src" / "version.txt").read_text()
        calls.append((name, seed, trace))
        env = {"nproc": 2, "blas": "stub", "thread_vars": {}, "git_commit": None}
        if trace:
            values = {"gnss-ins": {"agent.propagate.calls": (len(name), "count")}}
        else:
            values = {"gnss-ins": {"sim_rate": (rates[name][seed - 101], "agent-s/s")}}
        return values, [{"environment": env, "problems": []}], \
            [problem] if problem and (name, seed) == ("change", 103) else []

    monkeypatch.setattr(tool, "run_once", fake_run)
    out = tmp_path / "bench"
    assert tool.main(["--repo", str(repo), "--out", str(out), *shas]) == 0
    expected = []
    for r, seed in enumerate(range(101, 111)):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        expected += [(name, seed, 0) for name in order]
    assert calls == expected + [("parent", 101, 1), ("change", 101, 1)]
    assert git("worktree", "list").count("\n") == 0  # only the main tree is left
    for sha, name in zip(shas, ("parent", "change")):
        record = json.loads((out / f"BENCH_{sha[:7]}.json").read_text())
        assert record["commit"] == sha and record["session"]["commits"] == shas
        assert record["src_tree"] == git("rev-parse", f"{sha}:src")
        assert "git_commit" not in record["environment"]
        cell = record["end_to_end"]["gnss-ins"]["sim_rate"]
        scale = 1.0 if name == "change" else 10.0
        assert cell["values"] == rates[name]
        assert (cell["q1"], cell["median"], cell["q3"]) == (3.25 * scale, 5.5 * scale,
                                                            7.75 * scale)
        assert record["session"]["seeds"] == list(range(101, 111))
        assert record["per_layer"] == {
            "gnss-ins": {"agent.propagate.calls": {"value": len(name), "unit": "count"}}}

    calls.clear()
    monkeypatch.setattr(tool, "run_once",
                        lambda *a, **k: fake_run(*a, **k, problem="failed: 1"))
    assert tool.main(["--repo", str(repo), "--out", str(tmp_path / "none"), *shas]) == 1
    assert not (tmp_path / "none").exists()
    assert git("worktree", "list").count("\n") == 0
