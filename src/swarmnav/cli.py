"""Command-line interface: single runs, Monte-Carlo batches and suites.

A `montecarlo` batch merges the `summary.yaml` each run writes, so a
resumed batch merges to the same bytes as a fresh one.

Exit codes: 0 success, 2 configuration problems, 3 numerical failures
(a rejected update, a linear-algebra or an arithmetic error), 4 suite
criteria not met. Any other error is a fault of the program and is raised.
"""

from __future__ import annotations

import argparse
import os
import sys

# One BLAS thread unless the user chose otherwise. This must run before
# numpy loads: the large vision updates would wake OpenBLAS's thread pool,
# which then contends with every small product after them. Parallelism
# comes from `montecarlo --jobs` processes, which inherit the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from .conventions import CONVENTIONS
from .filters import UpdateRejected
from .metrics import anees_interval
from .sim import ConfigError, SimConfig, load_config, map_runs, read_yaml, run_swarm, write_yaml

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_SUITE = 4

OUT_ROOT_ENV = "SWARMNAV_OUT"


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
    artifacts.write(os.path.join(out_dir, f"run{run_id:03d}"))
    return artifacts.summary()


def _load_summary(config, run_id, out_dir):
    """The summary of an already finished run of this batch, or None. A
    summary of another batch (its convention, seed or agent ids differ)
    raises ConfigError, before anything is run or overwritten."""
    run_dir = os.path.join(out_dir, f"run{run_id:03d}")
    summary = read_yaml(os.path.join(run_dir, "summary.yaml"))
    if summary is None:
        return None
    found = (summary.get("convention"), summary.get("seed"),
             [a.get("agent_id") for a in summary.get("agents", [])])
    expected = (config.convention, config.seed + run_id, [a.agent_id for a in config.agents])
    if found != expected:
        raise ConfigError(f"{run_dir} holds a run of another batch: its convention, seed "
                          f"and agent ids are {found}, this batch's are {expected}")
    return summary


def cmd_montecarlo(args):
    config = _apply_overrides(load_config(args.config), args)
    runs = args.runs
    out_dir = args.out or _default_out("montecarlo")
    os.makedirs(out_dir, exist_ok=True)
    summaries = [_load_summary(config, run_id, out_dir) for run_id in range(runs)]
    todo = [(config, run_id, out_dir) for run_id, s in enumerate(summaries) if s is None]
    for (_, run_id, _), summary in zip(todo, map_runs(_mc_single, todo, args.jobs)):
        summaries[run_id] = summary
    lo, hi = anees_interval(runs) if runs >= 2 else (float("nan"), float("nan"))
    merged = {"schema": 1, "runs": runs, "convention": config.convention,
              "anees_interval_95": [lo, hi],
              "degenerate_interval": runs < 2, "agents": []}
    for ai, agent in enumerate(summaries[0]["agents"]):
        entry = {"agent_id": agent["agent_id"]}
        for name, key in (("position_anees", "mean_position_nees"),
                          ("orientation_anees", "mean_orientation_nees"),
                          ("mean_ate", "ate_rmse")):
            # A run without NEES rows has None there; average the others.
            values = [s["agents"][ai][key] for s in summaries
                      if s["agents"][ai][key] is not None]
            entry[name] = float(np.mean(values)) if values else None
        merged["agents"].append(entry)
    write_yaml(os.path.join(out_dir, "montecarlo_summary.yaml"), merged)
    print(f"{runs} runs merged; 95% ANEES interval [{lo:.3f}, {hi:.3f}]"
          + (" (degenerate: single run)" if runs < 2 else ""))
    for a in merged["agents"]:
        print(f"agent {a['agent_id']}: pos ANEES {a['position_anees']}, "
              f"att ANEES {a['orientation_anees']}, mean ATE {a['mean_ate']:.4f} m")
    return EXIT_OK


# ----------------------------------------------------------------------
# suites: each runs one experiment of `scenarios` and prints its record

SUITES = ("consistency", "delay", "segmentation", "gate", "collab")


def cmd_suite(args):
    from . import scenarios  # here, so that `run` and `montecarlo` load no more
    name = args.suite
    if args.runs is not None and name not in ("consistency", "collab"):
        raise ConfigError(f"--runs sizes only the consistency and collab suites, not {name}")
    experiment = getattr(scenarios, name)
    r = experiment() if args.runs is None else experiment(args.runs)
    if name == "consistency":
        (lo, hi), (lp, la), (ep, ea) = r.interval, r.liekf, r.ekf
        print(f"interval [{lo:.3f}, {hi:.3f}] for {r.runs} runs")
        print(f"liekf ANEES pos {lp:.3f} att {la:.3f} -> "
              + ("in band" if r.in_band else "OUT OF BAND"))
        print(f"ekf   ANEES pos {ep:.3f} att {ea:.3f} -> deviation "
              + ("larger (expected)" if r.ordering else "NOT larger"))
    elif name == "delay":
        print(f"ATE with 100 ms delayed updates: {r.ate_delayed:.4f} m "
              f"(prompt: {r.ate_prompt:.4f} m), dropped {r.dropped}")
    elif name == "segmentation":
        print(f"propagation wall time, M={r.clones} N={r.features}: core "
              f"{r.t_core:.3f} s, full {r.t_full:.3f} s ({r.ratio:.1f}x)")
    elif name == "gate":
        print(f"adaptive gate: recall {r.recall:.3f}, precision {r.precision:.3f}, "
              f"FPR {r.fpr:.3f}")
    else:
        for s, (tr_on, tr_off, ate_on, ate_off) in enumerate(r.per_seed):
            print(f"seed {s}: trace {tr_on:.4f} vs {tr_off:.4f}, "
                  f"ATE {ate_on:.4f} vs {ate_off:.4f}")
        print(f"means: trace {r.trace_on:.4f} vs {r.trace_off:.4f}, "
              f"ATE {r.ate_on:.4f} vs {r.ate_off:.4f}")
    print(f"suite {name}: " + ("PASS" if r.passed else "FAIL"))
    return EXIT_OK if r.passed else EXIT_SUITE


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
    except (UpdateRejected, np.linalg.LinAlgError, ArithmeticError) as exc:
        # Every input is checked before a run starts, so any other error, a
        # ValueError included, is a fault of the program and is raised.
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
