"""Adaptive speed gate: the k schedule, warm-up, thresholding and the
fixed-threshold comparison mode."""

import numpy as np
import pytest

from swarmnav.gate import (
    SIGMA_FLOOR_MARGIN,
    GateState,
    adaptive_k,
    evaluate,
    vio_kinematics,
)
from swarmnav.sim import GateOptions


def feed(gate, cfg, positions, v=0.0, a=0.0, t0=0.0, dt=0.1):
    verdicts = []
    for i, p in enumerate(positions):
        verdicts.append(evaluate(gate, p, v, a, cfg, timestamp=t0 + i * dt))
    return verdicts


def test_adaptive_k_static_is_three():
    assert adaptive_k(0.0, 0.0, 5.0) == 3.0
    assert adaptive_k(10.0, 0.0, 5.0) == 3.0  # speed alone does not relax k


def test_adaptive_k_saturated_ratio():
    # At the empirical speed cap and |a| = e - 1 the factor is exactly 5.
    assert np.isclose(adaptive_k(5.0, np.e - 1.0, 5.0), 5.0)
    assert np.isclose(adaptive_k(50.0, np.e - 1.0, 5.0), 5.0)  # r clamps at 1


def test_adaptive_k_monotone_in_acceleration():
    ks = [adaptive_k(2.0, a, 5.0) for a in (0.0, 0.5, 1.0, 3.0, 10.0)]
    assert all(b > a for a, b in zip(ks, ks[1:]))


def test_adaptive_k_validation():
    with pytest.raises(ValueError):
        adaptive_k(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        adaptive_k(1.0, -0.5, 5.0)


def test_vio_kinematics():
    dt = 0.1
    p = [[0, 0, 0], [0.1, 0, 0], [0.3, 0, 0]]  # 1 m/s then 2 m/s
    v, a = vio_kinematics(p, dt)
    assert np.isclose(v, 2.0)
    assert np.isclose(a, 10.0)
    with pytest.raises(ValueError):
        vio_kinematics([[0, 0, 0]], dt)


def test_warmup_accepts_everything():
    cfg = GateOptions(window=5, v_emp=5.0)
    gate = GateState()
    pts = [np.array([0.1 * i, 0.0, 0.0]) for i in range(5)]
    verdicts = feed(gate, cfg, pts)
    assert all(v.accepted for v in verdicts)
    assert all(v.reason == "warmup" for v in verdicts)
    assert gate.accepted_count == 5


def test_large_jump_rejected_after_warmup():
    cfg = GateOptions(window=5, v_emp=5.0)
    gate = GateState()
    pts = [np.array([0.1 * i, 0.0, 0.0]) for i in range(8)]
    feed(gate, cfg, pts)
    # A 10 m teleport in one 0.1 s interval: 100 m/s pseudo speed.
    bad = evaluate(gate, np.array([10.7, 0.0, 0.0]), 1.0, 0.0, cfg, timestamp=0.8)
    assert not bad.accepted
    assert bad.reason == "outlier"
    assert bad.speed > bad.threshold


def test_rejection_leaves_state_untouched():
    cfg = GateOptions(window=5, v_emp=5.0)
    gate = GateState()
    pts = [np.array([0.1 * i, 0.0, 0.0]) for i in range(7)]
    feed(gate, cfg, pts)
    ring_before = list(gate.speeds)
    last_before = gate.last_position.copy()
    evaluate(gate, np.array([50.0, 0.0, 0.0]), 1.0, 0.0, cfg, timestamp=0.7)
    assert list(gate.speeds) == ring_before
    assert np.array_equal(gate.last_position, last_before)


def test_speed_uses_elapsed_time_since_last_accept():
    # After a rejection the next fix is judged over the doubled interval,
    # so a nominal-speed fix is not spuriously rejected.
    cfg = GateOptions(window=3, v_emp=5.0)
    gate = GateState()
    pts = [np.array([0.1 * i, 0.0, 0.0]) for i in range(6)]
    feed(gate, cfg, pts)
    bad = evaluate(gate, np.array([30.0, 0.0, 0.0]), 1.0, 0.0, cfg, timestamp=0.6)
    assert not bad.accepted
    good = evaluate(gate, np.array([0.7, 0.0, 0.0]), 1.0, 0.0, cfg, timestamp=0.7)
    assert good.accepted
    assert np.isclose(good.speed, 1.0)  # 0.2 m over 0.2 s


def test_sigma_floor_for_static_receiver():
    cfg = GateOptions(window=4, v_emp=5.0)
    gate = GateState()
    still = [np.zeros(3)] * 6
    feed(gate, cfg, still)
    v = evaluate(gate, np.array([0.004, 0.0, 0.0]), 0.0, 0.0, cfg, timestamp=0.6)
    assert np.isclose(v.threshold, SIGMA_FLOOR_MARGIN)
    assert v.accepted
    v2 = evaluate(gate, np.array([0.02, 0.0, 0.0]), 0.0, 0.0, cfg, timestamp=0.7)
    assert not v2.accepted  # 0.16 m/s onset exceeds the floor


def test_maneuver_relaxes_threshold():
    cfg = GateOptions(window=4, v_emp=5.0)
    gate_a = GateState()
    gate_b = GateState()
    pts = [np.array([0.2 * i + 0.001 * (i % 2), 0.0, 0.0]) for i in range(7)]
    feed(gate_a, cfg, pts)
    verdict_static = evaluate(gate_a, np.array([2.0, 0.0, 0.0]), 2.0, 0.0, cfg,
                              timestamp=0.7)
    feed(gate_b, cfg, pts)
    verdict_maneuver = evaluate(gate_b, np.array([2.0, 0.0, 0.0]), 2.0, 8.0, cfg,
                                timestamp=0.7)
    assert verdict_maneuver.k > verdict_static.k
    assert verdict_maneuver.threshold > verdict_static.threshold


def test_fixed_threshold_mode():
    cfg = GateOptions(window=3, v_emp=5.0, fixed_threshold=3.0)
    gate = GateState()
    first = evaluate(gate, np.zeros(3), 0.0, 0.0, cfg, timestamp=0.0)
    assert first.accepted
    ok = evaluate(gate, np.array([0.25, 0.0, 0.0]), 0.0, 0.0, cfg, timestamp=0.1)
    assert ok.accepted and ok.reason == "fixed-within"
    bad = evaluate(gate, np.array([0.7, 0.0, 0.0]), 0.0, 0.0, cfg, timestamp=0.2)
    assert not bad.accepted and bad.reason == "fixed-outlier"
    # A small 0.3 m offset slips under the fixed limit.
    subtle = evaluate(gate, np.array([0.55, 0.0, 0.0]), 0.0, 0.0, cfg, timestamp=0.3)
    assert subtle.accepted


def test_non_increasing_timestamps_raise():
    cfg = GateOptions(window=3, v_emp=5.0)
    gate = GateState()
    evaluate(gate, np.zeros(3), 0.0, 0.0, cfg, timestamp=1.0)
    with pytest.raises(ValueError):
        evaluate(gate, np.ones(3), 0.0, 0.0, cfg, timestamp=1.0)
    with pytest.raises(TypeError):  # no nominal-period fallback
        evaluate(gate, np.ones(3), 0.0, 0.0, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        GateOptions(window=2)
    with pytest.raises(ValueError):
        GateOptions(v_emp=0.0)
