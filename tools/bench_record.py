"""Record the benchmark's end-to-end metrics of one or more commits, measured
in one interleaved session.

    python3 tools/bench_record.py [--repo DIR] [--out bench] COMMIT [COMMIT ...]

Each commit is checked out in a temporary `git worktree` of --repo (default:
the current directory), and that commit's own `perfbench/run.py --workload
all --seconds 35 --trace 0` runs there, unchanged: 35 s is the run length
`BENCHMARK.json` sets. There are 10 rounds. Round r runs every commit once
with seed 101 + r, in the given order on even rounds and reversed on odd
ones, so that a drift in host load falls on both sides and neither commit
always runs first. After the last round each commit runs once more with
`--trace 1` and seed 101, in the given order. Then the tool writes
`BENCH_<short-sha>.json` per commit into --out, holding:

* per workload and end-to-end metric: the median, the quartiles and every
  run's value, in round order;
* per workload and per-layer metric: the value of the traced run;
* the environment the reports give (nproc, Python and numpy versions, the
  BLAS, the thread variables and the pinned workload settings);
* the `src` tree hash of the commit, and the session: every commit measured
  in it, the repeats, seconds and seeds.

It writes nothing, and exits 1, if any run is not correct: an exit code
other than 0, `correct: false`, a failed operation, or a non-empty
`problems` list in a workload's report. The worktrees are removed at the
end, also on failure.
"""

from __future__ import annotations

import argparse
import datetime
import glob
import json
import os
import statistics
import subprocess
import sys
import tempfile

REPEATS = 10
SECONDS = 35
BASE_SEED = 101


def git(repo, *args):
    return subprocess.run(["git", "-C", repo, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def run_once(tree, seed, trace=0):
    """One `perfbench/run.py --workload all --trace <trace>` in `tree`:
    (values by workload and metric, the reports it left, problems)."""
    before = set(glob.glob(os.path.join(tree, ".perfbench_runs", "*", "report.json")))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "all",
                           "--seed", str(seed), "--seconds", str(SECONDS),
                           "--trace", str(trace)],
                          cwd=tree, capture_output=True, text=True)
    problems = [] if proc.returncode == 0 else [f"exit code {proc.returncode}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {}, [], problems + [f"no result line: {proc.stderr.strip()[-300:]}"]
    if not result.get("correct") or result.get("failed"):
        problems.append(f"correct: {result.get('correct')}, failed: {result.get('failed')}")
    reports = []
    for path in sorted(set(glob.glob(os.path.join(tree, ".perfbench_runs", "*",
                                                  "report.json"))) - before):
        with open(path) as fh:
            report = json.load(fh)
        reports.append(report)
        problems += [f"{report['workload']}: {p}" for p in report["problems"]]
    values = {}
    for key, metric in result.get("metrics", {}).items():
        workload, name = key.split("/", 1)
        values.setdefault(workload, {})[name] = (metric["value"], metric["unit"])
    return values, reports, problems


def summarize(runs):
    """{workload: {metric: median, quartiles, unit and values}} over runs."""
    out = {}
    for workload in runs[0]:
        for name, (_, unit) in runs[0][workload].items():
            xs = [run[workload][name][0] for run in runs]
            q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
            out.setdefault(workload, {})[name] = {
                "unit": unit, "median": med, "q1": q1, "q3": q3, "values": xs}
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("commits", nargs="+")
    p.add_argument("--repo", default=".")
    p.add_argument("--out", default="bench")
    args = p.parse_args(argv)
    repo = os.path.abspath(args.repo)
    shas = [git(repo, "rev-parse", "--verify", f"{c}^{{commit}}") for c in args.commits]
    if len(set(shas)) != len(shas):
        p.error("a commit is named twice")
    started = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    trees = {}
    runs = {sha: [] for sha in shas}
    traced = {}
    envs = {}
    problems = []
    try:
        for sha in shas:
            trees[sha] = tempfile.mkdtemp(prefix=f"bench-{sha[:7]}-")
            git(repo, "worktree", "add", "--detach", trees[sha], sha)
        for r in range(REPEATS):
            seed = BASE_SEED + r
            for sha in (shas if r % 2 == 0 else shas[::-1]):
                print(f"round {r + 1}/{REPEATS}, seed {seed}: {sha[:7]}", flush=True)
                values, reports, found = run_once(trees[sha], seed)
                problems += [f"{sha[:7]} seed {seed}: {q}" for q in found]
                runs[sha].append(values)
                if reports:
                    envs.setdefault(sha, reports[0]["environment"])
        for sha in shas:
            print(f"traced run, seed {BASE_SEED}: {sha[:7]}", flush=True)
            traced[sha], _, found = run_once(trees[sha], BASE_SEED, trace=1)
            problems += [f"{sha[:7]} traced: {q}" for q in found]
    finally:
        for tree in trees.values():
            subprocess.run(["git", "-C", repo, "worktree", "remove", "--force", tree],
                           capture_output=True)
        subprocess.run(["git", "-C", repo, "worktree", "prune"], capture_output=True)
    if problems:
        for q in problems:
            print(f"not recorded: {q}", file=sys.stderr)
        return 1
    finished = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    os.makedirs(args.out, exist_ok=True)
    session = {"commits": shas, "started": started, "finished": finished,
               "repeats": REPEATS, "seconds": SECONDS,
               "seeds": [BASE_SEED + r for r in range(REPEATS)], "traced_seed": BASE_SEED,
               "order": "interleaved; reversed on odd rounds"}
    for sha in shas:
        env = {k: v for k, v in envs[sha].items() if k != "git_commit"}
        record = {"commit": sha, "src_tree": git(repo, "rev-parse", f"{sha}:src"),
                  "environment": env, "session": session,
                  "end_to_end": summarize(runs[sha]),
                  "per_layer": {workload: {name: {"value": value, "unit": unit}
                                           for name, (value, unit) in metrics.items()}
                                for workload, metrics in traced[sha].items()}}
        path = os.path.join(args.out, f"BENCH_{git(repo, 'rev-parse', '--short=7', sha)}.json")
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
