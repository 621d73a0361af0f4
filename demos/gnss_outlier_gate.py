"""GNSS outlier culling with an acceleration-adaptive speed gate.

5% of the fixes are displaced and the gate has to tell them from honest
fixes using only displacement-derived speeds: the threshold is mu + k*sigma
over a ring of recently accepted speeds, with k = 3 + (1+r)ln(1+|a|) so hard
maneuvers are not culled. A fixed empirical speed cap is run on the same
data for comparison; it misses every subtle offset.

    python3 demos/gnss_outlier_gate.py
"""

from swarmnav.metrics import gate_score
from swarmnav.scenarios import gate_config
from swarmnav.sim import column, run_swarm


def verdicts(artifacts):
    """(accepted, is_outlier) flags of agent 0's gate rows."""
    return column(artifacts.agents[0]["gate"], "gate", "accepted", "is_outlier").T > 0


def score(artifacts):
    accepted, labels = verdicts(artifacts)
    return gate_score(accepted, labels), len(accepted)


def main():
    print("10 m outliers, adaptive threshold:")
    (recall, precision, fpr), n = score(run_swarm(gate_config(seed=5)))
    print(f"  {n} epochs: recall {recall:.3f}, precision {precision:.3f}, "
          f"FPR {fpr:.3f}\n")

    print("0.5 m outliers (subtle), adaptive vs fixed 10 m/s cap:")
    adaptive = run_swarm(gate_config(seed=5, outlier_magnitude=0.5))
    fixed = run_swarm(gate_config(seed=5, outlier_magnitude=0.5,
                                  fixed_threshold=10.0))
    (ra, _, fa), _ = score(adaptive)
    (rf, _, ff), _ = score(fixed)
    print(f"  adaptive: recall {ra:.3f}, FPR {fa:.3f}")
    print(f"  fixed:    recall {rf:.3f}, FPR {ff:.3f}")
    (accepted, outlier), (accepted_fixed, _) = verdicts(adaptive), verdicts(fixed)
    only = int((outlier & ~accepted & accepted_fixed).sum())
    print(f"  {only} outliers caught only by the adaptive gate")


if __name__ == "__main__":
    main()
