"""A single vehicle flying a 30 s circle with a 200 Hz IMU and 10 Hz GNSS,
once with prompt fixes and once with every fix arriving 100 ms late.

The delayed run applies each fix against the snapshot taken at its epoch and
transports the correction forward through the buffered transition matrices,
so the two runs should land within a few centimeters of each other.

    python3 demos/single_agent_gnss_ins.py
"""

import numpy as np

from swarmnav.scenarios import delay_config
from swarmnav.sim import column, run_swarm


def describe(label, artifacts):
    a = artifacts.agents[0]
    traces = column(a["covariance"], "covariance", "position_trace")
    print(f"{label:>18}: ATE {a['ate'].rmse:.4f} m, "
          f"final position-cov trace {traces[-1]:.5f} m^2, "
          f"{artifacts.counters['gnss_applied']} fixes applied, "
          f"{artifacts.counters['gnss_dropped_horizon']} dropped")


def main():
    print("prompt vs 100 ms delayed GNSS, same seed, same trajectory\n")
    prompt = run_swarm(delay_config(seed=3, delay=0.0))
    delayed = run_swarm(delay_config(seed=3, delay=0.1))
    describe("prompt fixes", prompt)
    describe("100 ms delayed", delayed)

    p = column(prompt.agents[0]["trajectory"], "trajectory", "est_x", "est_z")
    d = column(delayed.agents[0]["trajectory"], "trajectory", "est_x", "est_z")
    gap = np.sqrt(np.mean(np.sum((p - d) ** 2, axis=1)))
    print(f"\nRMS distance between the two estimates: {gap:.4f} m")
    print("The delayed run never rewinds the filter; corrections are "
          "computed at the epoch and\ncarried forward through the stored "
          "transitions.")


if __name__ == "__main__":
    main()
