"""Two vehicles over a shared landmark ring, one of them GNSS-denied.

Agents exchange landmark id lists over a lossy network; when a neighbor
co-observes a landmark, its world-position estimate comes back and is fused
with covariance intersection, so no inter-agent cross-covariance is ever
tracked. The denied agent inherits absolute position information through the
shared map.

    python3 demos/collaborative_swarm.py
"""

import numpy as np

from swarmnav.scenarios import collab_config
from swarmnav.sim import column, run_swarm


def mean_trace(agent):
    return column(agent["covariance"], "covariance", "position_trace").mean()


def describe(label, artifacts):
    print(f"--- {label} ---")
    for a in artifacts.agents:
        print(f"  agent {a['agent_id']}: ATE {a['ate'].rmse:.4f} m, "
              f"mean position-cov trace {mean_trace(a):.4f} m^2")
    total = sum(b for _, b in artifacts.bandwidth.values())
    msgs = {c: n for c, (n, _) in artifacts.bandwidth.items()}
    print(f"  traffic: {total} bytes {msgs}, "
          f"{artifacts.counters['collab_updates']} collaborative updates")


def main():
    print("agent 0 has GNSS, agent 1 flies denied; 24 shared landmarks\n")
    on = run_swarm(collab_config(seed=404, collaboration=True))
    off = run_swarm(collab_config(seed=404, collaboration=False))
    describe("collaboration on", on)
    describe("collaboration off", off)
    tr_on = np.mean([mean_trace(a) for a in on.agents])
    tr_off = np.mean([mean_trace(a) for a in off.agents])
    print(f"\nmean position-cov trace: {tr_on:.4f} with collaboration vs "
          f"{tr_off:.4f} without ({tr_off / tr_on:.1f}x)")


if __name__ == "__main__":
    main()
