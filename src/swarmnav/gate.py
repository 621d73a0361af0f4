"""Adaptive GNSS outlier gate.

Each incoming GNSS fix is converted to a speed (displacement from the last
accepted fix over the elapsed time) and compared against mu + k*sigma of a
ring of previously accepted speeds. The factor k relaxes with the vehicle's
current acceleration, so hard maneuvers are not culled, while a static
receiver keeps a tight 3-sigma bound. A fixed-threshold mode (single
empirical speed limit) is available for comparison.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

# Threshold floor applied when the accepted-speed ring has (near) zero
# spread, so motion onset after a long static stretch is not rejected.
SIGMA_FLOOR_MARGIN = 0.05  # m/s
_SIGMA_EPS = 1e-12


@dataclass
class GateState:
    """Ring of accepted speeds plus the last accepted fix."""

    speeds: deque = field(default_factory=deque)
    last_position: np.ndarray = None
    last_timestamp: float = None
    accepted_count: int = 0


@dataclass(frozen=True)
class GateVerdict:
    accepted: bool
    speed: float
    threshold: float
    k: float
    reason: str  # "warmup" | "within" | "outlier" | "fixed-within" | "fixed-outlier"


def adaptive_k(v_vio, a_vio, v_emp):
    """k = 3 + (1 + r) * ln(1 + |a|), r = min(|v|/v_emp, 1).

    Exactly 3 for zero acceleration, growing with maneuver intensity.
    """
    if v_emp <= 0:
        raise ValueError("v_emp must be positive")
    if a_vio < 0:
        raise ValueError("acceleration magnitude must be non-negative")
    r = min(float(v_vio) / float(v_emp), 1.0)
    return 3.0 + (1.0 + r) * np.log1p(a_vio)


def vio_kinematics(p_history, dt):
    """Finite-difference speed and acceleration magnitude from the last
    three odometry positions (oldest first)."""
    p = np.asarray(p_history, dtype=float)
    if p.shape[0] < 3:
        raise ValueError("need at least 3 positions")
    v1 = (p[-2] - p[-3]) / dt
    v2 = (p[-1] - p[-2]) / dt
    a = np.linalg.norm(v2 - v1) / dt
    return np.linalg.norm(v2), float(a)


def evaluate(gate: GateState, p_gnss, v_vio, a_vio_mag, cfg, timestamp) -> GateVerdict:
    """Classify one GNSS fix taken at `timestamp` and, when accepted, absorb
    it into the ring. `cfg` is a `sim.GateOptions`; its `window`, `v_emp`
    and `fixed_threshold` apply.

    The speed denominator is the time elapsed since the last accepted fix,
    so a fix following a rejected one is not judged on an inflated speed.
    Rejected fixes leave the gate state untouched.
    """
    p_gnss = np.asarray(p_gnss, dtype=float)
    speed_v = np.linalg.norm(np.asarray(v_vio, dtype=float))

    if gate.last_position is None:
        _accept(gate, p_gnss, 0.0, timestamp, cfg)
        return GateVerdict(True, 0.0, np.inf, adaptive_k(speed_v, a_vio_mag, cfg.v_emp),
                           "warmup")

    elapsed = timestamp - gate.last_timestamp
    if elapsed <= 0:
        raise ValueError("GNSS timestamps must be increasing")
    speed = float(np.linalg.norm(p_gnss - gate.last_position) / elapsed)

    if cfg.fixed_threshold is not None:
        threshold = cfg.fixed_threshold
        accepted = speed <= threshold
        if accepted:
            _accept(gate, p_gnss, speed, timestamp, cfg)
        return GateVerdict(accepted, speed, threshold, float("nan"),
                           "fixed-within" if accepted else "fixed-outlier")

    k = adaptive_k(speed_v, a_vio_mag, cfg.v_emp)
    if gate.accepted_count < cfg.window:
        _accept(gate, p_gnss, speed, timestamp, cfg)
        return GateVerdict(True, speed, np.inf, k, "warmup")

    ring = np.fromiter(gate.speeds, dtype=float)
    mu = float(ring.mean())
    sigma = float(ring.std())
    if sigma < _SIGMA_EPS:
        threshold = mu + SIGMA_FLOOR_MARGIN
    else:
        threshold = mu + k * sigma
    accepted = speed <= threshold
    if accepted:
        _accept(gate, p_gnss, speed, timestamp, cfg)
    return GateVerdict(accepted, speed, threshold, k,
                       "within" if accepted else "outlier")


def _accept(gate: GateState, p_gnss, speed, timestamp, cfg):
    if gate.last_position is not None:
        gate.speeds.append(speed)
        while len(gate.speeds) > cfg.window:
            gate.speeds.popleft()
    gate.last_position = p_gnss
    gate.last_timestamp = timestamp
    gate.accepted_count += 1
