"""swarmnav benchmark: runs one workload through the public CLI, checks what
it wrote, and prints every metric with its unit.

    python3 perfbench/run.py --workload gnss-ins --seed 1 --seconds 25 --trace 0

Run it from the repository root; it simulates with the sources under `src`.
`--workload all` runs the three workloads one after another. With
`--trace 0` it prints the end-to-end metrics listed in BENCHMARK.json, with
`--trace 1` the per-layer metrics of a traced run. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

End-to-end (no tracing): the workload's CLI commands are repeated in fresh
processes and fresh output directories for `--seconds` seconds (at least
twice, so that two runs of one seed can be compared byte for byte), after
timing several fresh interpreters that import the CLI and load the config.

Per-layer: one untraced repetition, then the same commands through
`perfbench/traced_cli.py`, which calls `swarmnav.cli.main` in-process with
wrappers around each module's public functions. Tracing overhead is the gap
in simulation rate between the two.

Work files go to `.perfbench_runs/` and are deleted at the end, except a
JSON report per invocation with the environment, every check and every
metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict

import numpy as np
import yaml

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from tracer import TARGETS  # noqa: E402

RUNS_DIR = ".perfbench_runs"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
RUN_LIMIT = 170.0            # s; processes still running after this are killed
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORTS = ("numpy", "yaml", "scipy.linalg", "scipy.interpolate", "scipy.stats",
           "swarmnav.cli")
# Printed with the end-to-end metrics but not bounded in BENCHMARK.json:
# the accuracy figures spread over seeds far wider than any bound (one
# seed always gives the same value, which the byte-identity check covers),
# and the other two are zero on some or all workloads.
EXTRA_UNITS = {"ate_rmse_m": "m", "nees_dev": "ratio", "link_bytes_per_s": "B/s",
               "failed_share": "ratio"}

SETUP_CODE = ("import sys, swarmnav.cli\n"
              "from swarmnav.sim import load_config\n"
              "load_config(sys.argv[1])\n")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, a setup step failed)."""


# ----------------------------------------------------------------------
# processes


def run_process(argv, env, log_path, deadline):
    """Run argv in its own session; returns (exit code, wall s, rusage of
    the process and every descendant it reaped). The whole session is
    killed at the deadline (a time.perf_counter value) or on interrupt."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, start_new_session=True)

        def kill():
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(max(deadline - t0, 0.0), kill)
        timer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        except BaseException:
            kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        # Pool workers are reaped by their parent; anything left in the
        # session after a crash is stopped here.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    return proc.returncode, wall, rusage


def python_env(extra=None):
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


# ----------------------------------------------------------------------
# one repetition of a workload


def run_repetition(work, cfg_path, out_root, log_root, deadline, traced_spans=None):
    """Run every CLI command of the workload once. With traced_spans set,
    the commands go through traced_cli.py and write spans there."""
    env = python_env(work.env)
    rep = {"wall": 0.0, "sim_s": 0.0, "peak_kb": 0, "cpu_s": 0.0, "nivcsw": 0,
           "attempted": 0, "failed": 0, "problems": [], "summaries": [], "nees": [],
           "busy_s": 0.0, "slots_s": 0.0}
    for k, (argv, out_dir, sim_s) in enumerate(work.commands(cfg_path, out_root)):
        if os.path.exists(out_dir):
            raise BenchError(f"output directory {out_dir} already exists")
        if traced_spans is None:
            full = [sys.executable, "-m", "swarmnav.cli"] + argv
        else:
            full = [sys.executable, os.path.join(HERE, "traced_cli.py"),
                    f"{traced_spans}-{k}.npz", "--"] + argv
        started = time.time()
        code, wall, ru = run_process(full, env, os.path.join(log_root, f"cmd{k}.log"),
                                     deadline)
        rep["wall"] += wall
        rep["peak_kb"] = max(rep["peak_kb"], ru.ru_maxrss)
        rep["cpu_s"] += ru.ru_utime + ru.ru_stime
        rep["nivcsw"] += ru.ru_nivcsw
        jobs = work.nproc if argv[0] == "montecarlo" else 1
        rep["slots_s"] += jobs * wall
        run_dirs = work.run_dirs(out_dir)
        rep["attempted"] += len(run_dirs)
        if code != 0:
            rep["failed"] += len(run_dirs)
            rep["problems"].append(f"{' '.join(argv)}: exit code {code}")
            continue
        rep["sim_s"] += sim_s
        rep["problems"] += work.check_command(out_dir, started)
        for d in run_dirs:
            summary, problems, nees = wl.read_run(d)
            if problems:
                rep["failed"] += 1
                rep["problems"] += problems
                continue
            rep["problems"] += [f"{d}: {p}" for p in work.check_run(summary)]
            rep["summaries"].append(summary)
            rep["nees"] += nees
            rep["busy_s"] += read_wall_total(os.path.join(d, "timing.csv"))
    return rep


def read_wall_total(path):
    with open(path) as fh:
        for line in fh:
            if line.startswith("wall_total,"):
                return float(line.split(",")[1])
    return 0.0


def accuracy(work, rep):
    """(mean ATE over agents and runs, |pooled position NEES / 3 - 1|,
    ledger bytes per simulated second)"""
    ates = [a["ate_rmse"] for s in rep["summaries"] for a in s["agents"]]
    ate = float(np.mean(ates)) if ates else math.nan
    nees_dev = abs(float(np.mean(rep["nees"])) / 3.0 - 1.0) if rep["nees"] else math.nan
    link = sum(s["bandwidth_bytes"] for s in rep["summaries"])
    link_rate = link / (work.duration * max(len(rep["summaries"]), 1))
    return ate, nees_dev, link_rate


# ----------------------------------------------------------------------
# end-to-end


def measure_setup(cfg_path, work, log_root, deadline):
    walls = []
    for i in range(SETUP_REPEATS):
        code, wall, _ = run_process([sys.executable, "-c", SETUP_CODE, cfg_path],
                                    python_env(work.env),
                                    os.path.join(log_root, f"setup{i}.log"), deadline)
        if code != 0:
            raise BenchError(f"set-up interpreter exited with {code}")
        walls.append(wall)
    return statistics.median(walls)


def end_to_end(work, cfg_path, root, seconds, deadline):
    setup_s = measure_setup(cfg_path, work, root, deadline)
    reps = []
    t0 = time.perf_counter()
    while True:
        i = len(reps)
        rep_dir = os.path.join(root, f"rep{i}")
        os.makedirs(rep_dir)
        reps.append(run_repetition(work, cfg_path, os.path.join(rep_dir, "out"), rep_dir,
                                   deadline))
        elapsed = time.perf_counter() - t0
        typical = statistics.median(r["wall"] for r in reps)
        if len(reps) >= 2 and elapsed + typical > seconds:
            break
    problems = [p for r in reps for p in r["problems"]]
    problems += wl.compare_artifacts(os.path.join(root, "rep0", "out"),
                                     os.path.join(root, "rep1", "out"))
    ate, nees_dev, link_rate = accuracy(work, reps[0])
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    values = {
        "sim_rate": statistics.median(r["sim_s"] / r["wall"] for r in reps),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(r["peak_kb"] for r in reps) / 1024.0,
        "ate_rmse_m": ate,
        "nees_dev": nees_dev,
        "link_bytes_per_s": link_rate,
        "failed_share": failed / attempted,
    }
    detail = {"repetitions": len(reps), "rep_walls_s": [r["wall"] for r in reps],
              "measured_s": time.perf_counter() - t0}
    return values, attempted, failed, problems, detail


# ----------------------------------------------------------------------
# per-layer


def import_split(work, root, deadline):
    """Cumulative import time (s) of the modules in IMPORTS, median of
    several `python -X importtime` runs."""
    samples = defaultdict(list)
    for i in range(IMPORT_REPEATS):
        log = os.path.join(root, f"importtime{i}.log")
        code, _, _ = run_process([sys.executable, "-X", "importtime", "-c",
                                  "import swarmnav.cli"], python_env(work.env), log,
                                 deadline)
        if code != 0:
            raise BenchError(f"import of swarmnav.cli exited with {code}")
        seen = set()
        with open(log) as fh:
            for line in fh:
                m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)", line)
                if m and m.group(2) in IMPORTS and m.group(2) not in seen:
                    seen.add(m.group(2))
                    samples[m.group(2)].append(int(m.group(1)) * 1e-6)
    return {f"setup.import.{mod}_s": statistics.median(samples[mod]) if samples[mod] else 0.0
            for mod in IMPORTS}


def load_spans(paths):
    """Per span name: durations, self time; the lie total; all counters."""
    durations = defaultdict(list)
    self_s = Counter()
    counts = Counter()
    lie_s = 0.0
    for path in paths:
        with np.load(path) as z:
            names = [str(n) for n in z["names"]]
            idx, parent = z["name_idx"], z["parent"]
            dur = z["end"] - z["start"]
            counts.update(dict(zip((str(k) for k in z["count_keys"]), z["count_values"])))
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        is_lie = np.array([n.startswith("lie.") for n in names], dtype=bool)[idx] \
            if len(idx) else np.zeros(0, dtype=bool)
        parent_lie = np.zeros(len(dur), dtype=bool)
        parent_lie[has_parent] = is_lie[parent[has_parent]]
        lie_s += float(dur[is_lie & ~parent_lie].sum())
        for k, n in enumerate(names):
            sel = idx == k
            if sel.any():
                durations[n].append(dur[sel])
                self_s[n] += float(own[sel].sum())
    durations = {n: np.concatenate(v) for n, v in durations.items()}
    return durations, self_s, counts, lie_s


def layer_metrics(durations, self_s, counts, lie_s):
    def calls(n):
        return len(durations.get(n, ()))

    def ratio(a, b):
        return float(a) / b if b else 0.0

    out = {}
    for n in [t[2] for t in TARGETS if t[2]]:
        d = durations.get(n, np.zeros(0))
        out[f"{n}.calls"] = len(d)
        out[f"{n}.s"] = float(d.sum())
        out[f"{n}.p50_us"] = float(np.percentile(d, 50)) * 1e6 if len(d) else 0.0
        out[f"{n}.p99_us"] = float(np.percentile(d, 99)) * 1e6 if len(d) else 0.0
    out["lie.calls"] = sum(len(d) for n, d in durations.items() if n.startswith("lie."))
    out["lie.s"] = lie_s
    out["buffers.steps_per_transport"] = ratio(counts["buffers.repropagate.steps"],
                                               calls("buffers.repropagate"))
    out["covariance.ci_objective_evals"] = counts["covariance.ci_objective_evals"]
    out["covariance.ci_evals_per_correspondence"] = ratio(
        counts["covariance.ci_objective_evals"], counts["covariance.ci_searches"])
    out["covariance.ci_applied_ratio"] = ratio(counts["covariance.ci_applied"],
                                               counts["covariance.ci_correspondences"])
    out["filters.kalman_step.dim_mean"] = ratio(counts["filters.kalman_step.dim_sum"],
                                                calls("filters.kalman_step"))
    out["filters.kalman_step.rows_mean"] = ratio(counts["filters.kalman_step.rows_sum"],
                                                 calls("filters.kalman_step"))
    out["covariance.sync_cross.chain_len_mean"] = ratio(
        counts["covariance.sync_cross.chained"], counts["covariance.sync_cross.chains"])
    out["agent.initialize_feature.accepted_ratio"] = ratio(
        counts["agent.initialize_feature.accepted"], calls("agent.initialize_feature"))
    out["gate.accepted_ratio"] = ratio(counts["gate.accepted"], calls("gate.evaluate"))
    out["network.dropped"] = counts["network.dropped"]
    out["network.bytes"] = counts["network.bytes"]
    out["sim.loop_self_s"] = self_s["sim.run_swarm"]
    for err in ("UpdateRejected", "DelayExceedsHorizon"):
        out[f"agent.raised.{err}"] = counts[f"agent.raised.{err}"]
    return out


def per_layer(work, cfg_path, root, deadline):
    imports = import_split(work, root, deadline)
    ref_dir = os.path.join(root, "untraced")
    os.makedirs(ref_dir)
    ref = run_repetition(work, cfg_path, os.path.join(ref_dir, "out"), ref_dir, deadline)
    traced_dir = os.path.join(root, "traced")
    os.makedirs(traced_dir)
    spans_base = os.path.join(traced_dir, "spans")
    traced = run_repetition(work, cfg_path, os.path.join(traced_dir, "out"), traced_dir,
                            deadline, traced_spans=spans_base)
    problems = ref["problems"] + traced["problems"]
    # Wrappers must not change what the program computes.
    problems += wl.compare_artifacts(os.path.join(ref_dir, "out"),
                                     os.path.join(traced_dir, "out"))
    span_files = sorted(os.path.join(traced_dir, f) for f in os.listdir(traced_dir)
                        if f.startswith("spans") and f.endswith(".npz"))
    for sidecar in sorted(f for f in os.listdir(traced_dir) if f.endswith(".npz.json")):
        with open(os.path.join(traced_dir, sidecar)) as fh:
            problems += json.load(fh)["problems"]
    durations, self_s, counts, lie_s = load_spans(span_files)
    values = layer_metrics(durations, self_s, counts, lie_s)
    for name, expected in work.mechanism.items():
        seen = values.get(f"{name}.calls", values.get(name, 0))
        if bool(seen) != expected:
            problems.append(f"{name} = {seen}, expected "
                            + ("non-zero (mechanism)" if expected else "zero (bypass)"))
    values.update(imports)
    rate_ref = ref["sim_s"] / ref["wall"]
    rate_traced = traced["sim_s"] / traced["wall"]
    values.update({
        "cli.worker_busy_s": ref["busy_s"],
        "cli.worker_idle_share": 1.0 - ref["busy_s"] / ref["slots_s"],
        "process.cpu_per_wall": ref["cpu_s"] / ref["wall"],
        "process.invol_ctx_switches": ref["nivcsw"],
        "trace.overhead_share": 1.0 - rate_traced / rate_ref,
    })
    detail = {"sim_rate_untraced": rate_ref, "sim_rate_traced": rate_traced,
              "spans": int(sum(len(d) for d in durations.values())),
              "span_files": len(span_files),
              "self_s": dict(sorted(self_s.items(), key=lambda kv: -kv[1]))}
    attempted = ref["attempted"] + traced["attempted"]
    failed = ref["failed"] + traced["failed"]
    return values, attempted, failed, problems, detail


# ----------------------------------------------------------------------


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy: no dict form of the build config
        blas = "unknown"
    import scipy
    commit = None
    if os.path.isdir(".git"):
        res = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "pinned": {w.name: w.env for w in wl.WORKLOADS.values() if w.env},
        "git_commit": commit,
        "platform": platform.platform(),
    }


def run_workload(name, seed, seconds, trace, spec, env_info):
    deadline = time.perf_counter() + RUN_LIMIT
    work = wl.WORKLOADS[name](seed, env_info["nproc"])
    os.makedirs(RUNS_DIR, exist_ok=True)
    root = tempfile.mkdtemp(prefix=f"{name}-s{seed}-t{trace}-", dir=RUNS_DIR)
    cfg_path = os.path.join(root, "config.yaml")
    with open(cfg_path, "w") as fh:
        yaml.safe_dump(work.config(), fh, sort_keys=True)
    try:
        if trace:
            values, attempted, failed, problems, detail = per_layer(work, cfg_path, root,
                                                                    deadline)
        else:
            values, attempted, failed, problems, detail = end_to_end(work, cfg_path, root,
                                                                     seconds, deadline)
    finally:
        for entry in os.listdir(root):
            if entry != os.path.basename(cfg_path):
                path = os.path.join(root, entry)
                shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in listed:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env_info, "problems": problems, "values": values,
              "attempted": attempted, "failed": failed, "detail": detail}
    with open(os.path.join(root, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1, default=float)
    return metrics, values, attempted, failed, problems


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    if not os.path.exists(os.path.join("src", "swarmnav", "cli.py")) \
            or not os.path.exists("BENCHMARK.json"):
        print("run from the repository root: src/swarmnav and BENCHMARK.json are needed",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    args = parse_args(argv, names)
    env_info = environment()
    print("environment: " + json.dumps(env_info, sort_keys=True))
    selected = names if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in selected:
        try:
            metrics, values, attempted, failed, problems = run_workload(
                name, args.seed, args.seconds, args.trace, spec, env_info)
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        for p in problems:
            print(f"{name}: CHECK FAILED: {p}")
        shown = dict({k: v["unit"] for k, v in metrics.items()},
                     **({} if args.trace else EXTRA_UNITS))
        for key in sorted(shown):
            print(f"{name:13s} {key:46s} {values[key]:14.6g} {shown[key]}")
        prefix = f"{name}/" if len(selected) > 1 else ""
        result["metrics"].update({prefix + k: v for k, v in metrics.items()})
        result["correct"] = result["correct"] and not problems and failed == 0
        result["attempted"] += attempted
        result["failed"] += failed
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
