"""Small Monte-Carlo comparison of the error conventions.

Runs the same 30 s GNSS-visual-inertial scenario under the left-invariant
filter and a conventional EKF: a dynamic circle (4.5 m/s^2 centripetal
force) with a deliberately uncertain initial heading (sigma 0.4 rad). A
consistent 3-dof filter averages NEES = 3; the EKF linearizes the
propagation around its attitude estimate, so its covariance drifts away
from that, while the group-error filter stays near it.

    python3 demos/filter_consistency.py [runs]
"""

import sys

from swarmnav.scenarios import consistency


def main():
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    result = consistency(runs)
    lo, hi = result.interval
    print(f"{runs} runs per convention; 95% consistency band "
          f"[{lo:.2f}, {hi:.2f}], ideal value 3\n")
    for convention, (pos, att) in (("liekf", result.liekf), ("ekf", result.ekf)):
        print(f"{convention:>6}: position ANEES {pos:.2f}, "
              f"orientation ANEES {att:.2f}")
    print("\nValues above the band mean the filter reports less uncertainty "
          "than its actual error\n(optimism); the invariant error transport "
          "keeps the reported covariance honest.")


if __name__ == "__main__":
    main()
