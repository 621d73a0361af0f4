"""Digest the artifacts of sixteen fixed runs, to check that a change keeps
every result byte for byte.

    python3 tools/artifact_digests.py [--seed 17] [--out DIR] [--files]
                                      [--expect TABLE]
    python3 tools/artifact_digests.py --compare DIR_A DIR_B

Run it on two trees (say, a clean checkout of the parent commit and the
working tree) and compare the printed tables, or save the first tree's
output to a file and pass it to the second run as `--expect TABLE`: that
run exits 1 if any set's digest differs from the table's or is missing
from it, and names each such set.

When a change may move results in their last bits, run both trees with
`--out` and pass the two directories to `--compare`. For each set it
prints "identical", or the largest relative difference over the numeric
CSV and YAML cells and whether every counter (each integer in a
`summary.yaml`) is equal. It exits 1 when a counter differs, or when the
two sets differ in anything but numbers: their files, rows, columns or
text. The sets are:

* the `run` configs perfbench writes for gnss-ins (120 s) and collab-swarm
  (15 s);
* the vio-mc config (30 s) under `montecarlo --runs 2 --jobs 1` for each of
  `--filter liekf|riekf|ekf`, and the liekf batch resumed: run, delete
  `montecarlo_summary.yaml`, run again (it must digest as the fresh one);
* `run_swarm(...).write()` of `consistency_config` for the three
  conventions, `delay_config`, `gate_config` and `collab_config`, at their
  default lengths;
* `collab_config` with GNSS on both agents, 50 ms late: camera frames and
  CI replies that fall inside a fix's (epoch, completion) window are held
  until the fix lands, so this set checks the deferral rule; and the same
  at 100 ms, the GNSS period, where each fix completes at the next epoch;
* `collab_config`'s GNSS-denied agent alone, collaboration off, with a
  5 Hz camera: keyframes 1.2 s apart, so each cross-block sync catches up
  240 IMU transitions at once;
* `collab_config` for 6 s with GNSS on both agents, 100 ms late, and a
  120 Hz camera: keyframes 50 ms apart, so two are held in each fix's
  window and cloned at its one completion time, and each feature track
  must still pair every view with its own clone.

A set's digest is the first 16 hex digits of the sha256 over its sorted
`<sha256>  <path relative to the set>` lines, one per file. `timing.csv`
holds wall-clock times and is left out. BLAS is pinned to one thread, as
the CLI does. `--files` also prints every file's own sha256.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys
import tempfile
from dataclasses import replace

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import yaml  # noqa: E402

from perfbench import workloads  # noqa: E402
from swarmnav import cli, scenarios  # noqa: E402
from swarmnav.sim import run_swarm  # noqa: E402

EXCLUDED = {"timing.csv"}


def _cli_run(argv):
    code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise SystemExit(f"swarmnav {' '.join(argv)} exited {code}")


def _perfbench_run(workload):
    def run(seed, out):
        cfg_path = out + ".yaml"
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(workload(seed, 1).config(), fh)
        _cli_run(["run", "--config", cfg_path, "--out", out])
    return run


def _vio_mc(convention, resumed=False):
    def run(seed, out):
        cfg_path = out + ".yaml"
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(workloads.VioMc(seed, 1).config(), fh)
        argv = ["montecarlo", "--config", cfg_path, "--runs", str(workloads.MC_RUNS),
                "--jobs", "1", "--filter", convention, "--out", out]
        _cli_run(argv)
        if resumed:
            os.remove(os.path.join(out, "montecarlo_summary.yaml"))
            _cli_run(argv)
    return run


def _delayed_collab(delay, duration=15.0, camera_rate=None):
    def make(seed):
        cfg = scenarios.collab_config(seed=seed, duration=duration)
        agents = tuple(replace(a, use_gnss=True) for a in cfg.agents)
        if camera_rate is not None:
            agents = tuple(replace(a, suite=replace(a.suite, camera_rate=camera_rate))
                           for a in agents)
        return replace(cfg, gnss_delay=delay, agents=agents)
    return make


def _sparse_keyframes(seed):
    cfg = scenarios.collab_config(seed=seed, collaboration=False)
    agent = cfg.agents[1]
    return replace(cfg, agents=(replace(agent, suite=replace(agent.suite, camera_rate=5.0)),))


def _canned(make, **kwargs):
    def run(seed, out):
        run_swarm(make(seed=seed, **kwargs)).write(out)
    return run


SETS = (
    ("gnss-ins (perfbench run)", _perfbench_run(workloads.GnssIns)),
    ("collab-swarm (perfbench run)", _perfbench_run(workloads.CollabSwarm)),
    ("vio-mc --filter liekf", _vio_mc("liekf")),
    ("vio-mc --filter riekf", _vio_mc("riekf")),
    ("vio-mc --filter ekf", _vio_mc("ekf")),
    ("vio-mc --filter liekf, resumed", _vio_mc("liekf", resumed=True)),
    ("consistency_config liekf", _canned(scenarios.consistency_config, convention="liekf")),
    ("consistency_config riekf", _canned(scenarios.consistency_config, convention="riekf")),
    ("consistency_config ekf", _canned(scenarios.consistency_config, convention="ekf")),
    ("delay_config", _canned(scenarios.delay_config)),
    ("gate_config", _canned(scenarios.gate_config)),
    ("collab_config", _canned(scenarios.collab_config)),
    ("collab_config, delayed GNSS", _canned(_delayed_collab(0.05))),
    ("collab_config, GNSS delayed one period", _canned(_delayed_collab(0.1))),
    ("collab_config agent 1 alone, 5 Hz camera", _canned(_sparse_keyframes)),
    ("collab_config 6 s, GNSS delayed one period, 120 Hz camera",
     _canned(_delayed_collab(0.1, duration=6.0, camera_rate=120.0))),
)


def file_digests(out):
    """{relative path: sha256} of every artifact under `out`."""
    found = {}
    for dirpath, _, names in os.walk(out):
        for name in names:
            if name in EXCLUDED:
                continue
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out)] = hashlib.sha256(fh.read()).hexdigest()
    return found


def set_digest(files):
    lines = "".join(f"{files[p]}  {p}\n" for p in sorted(files))
    return hashlib.sha256(lines.encode()).hexdigest()[:16]


def read_table(path):
    """{set name: digest} of a table this tool printed."""
    table = {}
    with open(path) as fh:
        for line in fh:
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 3 and cells[2].startswith("`"):
                table[cells[0]] = cells[2].strip("`")
    return table


def _numeric_cells(path):
    """The cells of a CSV or YAML artifact, flattened in order: numbers as
    floats, counters (the integers of a summary.yaml) as ints, and
    anything else as text."""
    with open(path) as fh:
        if path.endswith(".csv"):
            cells = []
            for line in fh:
                if line.startswith("#"):
                    continue
                for cell in line.rstrip("\n").split(","):
                    try:
                        cells.append(float(cell))
                    except ValueError:
                        cells.append(cell)
            return cells
        doc = yaml.safe_load(fh)
    counters = path.endswith("summary.yaml")
    cells = []

    def walk(node, key):
        if isinstance(node, dict):
            for k in sorted(node):
                walk(node[k], f"{key}.{k}")
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(v, f"{key}[{i}]")
        elif isinstance(node, bool) or not isinstance(node, (int, float)):
            cells.append(f"{key}={node}")
        elif isinstance(node, int) and counters:
            cells.append((key, node))
        else:
            cells.append(float(node))

    walk(doc, "")
    return cells


def compare_sets(dir_a, dir_b):
    """(largest relative difference, counters equal, other differences) of
    two output trees of one set; text files other than CSV and YAML must
    be byte-identical."""
    files_a, files_b = file_digests(dir_a), file_digests(dir_b)
    other = [f"only in one tree: {p}" for p in sorted(set(files_a) ^ set(files_b))]
    worst, counters_equal = 0.0, True
    for rel in sorted(set(files_a) & set(files_b)):
        if files_a[rel] == files_b[rel]:
            continue
        if not rel.endswith((".csv", ".yaml")):
            other.append(f"{rel} differs")
            continue
        a = _numeric_cells(os.path.join(dir_a, rel))
        b = _numeric_cells(os.path.join(dir_b, rel))
        if len(a) != len(b):
            other.append(f"{rel}: {len(a)} cells against {len(b)}")
            continue
        for x, y in zip(a, b):
            if isinstance(x, float) and isinstance(y, float):
                if x != y:
                    worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
            elif isinstance(x, tuple) and isinstance(y, tuple) and x[0] == y[0]:
                counters_equal = counters_equal and x[1] == y[1]
            elif x != y:
                other.append(f"{rel}: {x!r} against {y!r}")
                break
    return worst, counters_equal, other


def compare(dir_a, dir_b):
    """Print each set's comparison of two `--out` trees; 1 if any counter
    or anything but a number differs."""
    failed = False
    print(f"{dir_a} against {dir_b}")
    print("| set | result |")
    print("| --- | --- |")
    for k, (name, _) in enumerate(SETS):
        a, b = (os.path.join(d, f"set{k:02d}") for d in (dir_a, dir_b))
        if not (os.path.isdir(a) and os.path.isdir(b)):
            print(f"| {name} | missing from a tree |")
            failed = True
            continue
        worst, counters_equal, other = compare_sets(a, b)
        if not (worst or other) and counters_equal:
            result = "identical"
        else:
            result = (f"largest relative difference {worst:.2g}, counters "
                      + ("equal" if counters_equal else "DIFFER"))
            result += "".join(f"; {o}" for o in other)
        failed = failed or bool(other) or not counters_equal
        print(f"| {name} | {result} |")
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--out", help="directory for the artifacts (default: a temporary one)")
    parser.add_argument("--files", action="store_true", help="print each file's sha256 too")
    parser.add_argument("--expect", metavar="TABLE",
                        help="a table printed earlier; exit 1 unless every set matches it")
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="compare two --out trees instead of running the sets")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    expected = read_table(args.expect) if args.expect else None
    mismatched = []
    base = args.out or tempfile.mkdtemp(prefix="swarmnav-digests-")
    print(f"seed {args.seed}, artifacts under {base}")
    print("| set | files | digest |")
    print("| --- | --- | --- |")
    for k, (name, run) in enumerate(SETS):
        out = os.path.join(base, f"set{k:02d}")
        if os.path.exists(out):
            raise SystemExit(f"{out} exists; give an empty --out")
        os.makedirs(os.path.dirname(out), exist_ok=True)
        with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
            run(args.seed, out)
        files = file_digests(out)
        digest = set_digest(files)
        print(f"| {name} | {len(files)} | `{digest}` |", flush=True)
        if args.files:
            for p in sorted(files):
                print(f"    {files[p]}  {p}")
        if expected is not None and expected.get(name) != digest:
            mismatched.append(f"{name}: expected {expected.get(name, 'nothing')}, got {digest}")
    for line in mismatched:
        print(f"MISMATCH {line}")
    if expected is not None and not mismatched:
        print(f"all {len(SETS)} sets match {args.expect}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
