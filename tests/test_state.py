"""State container, error-vector layout and retraction round trips."""

import numpy as np
import pytest

from swarmnav.lie import ExtendedPose, so3_exp
from swarmnav.state import (
    CONVENTIONS,
    CORE_DIM,
    SystemState,
    add_feature,
    augment_clone,
    error_between,
    marginalize_clone,
    nav_error,
    remove_feature,
    retract,
)

rng = np.random.default_rng(7)


def random_state(num_clones=0, num_features=0, t=0.0):
    # Every landmark is anchored at clone row 0 (capture time 0.0).
    js = np.arange(num_features)
    return SystemState(
        nav=ExtendedPose(so3_exp(rng.uniform(-1, 1, 3)),
                         rng.standard_normal(3), rng.standard_normal(3)),
        gyro_bias=0.01 * rng.standard_normal(3),
        accel_bias=0.05 * rng.standard_normal(3),
        lever_arm=np.array([0.1, 0.0, 0.05]),
        timestamp=t,
        clone_rotations=so3_exp(rng.uniform(-1, 1, (num_clones, 3))),
        clone_positions=rng.standard_normal((num_clones, 3)),
        clone_times=np.arange(num_clones, dtype=float),
        feature_ids=js,
        feature_anchors=np.zeros(num_features, dtype=int),
        feature_params=np.column_stack([0.1 * js, -0.05 * js, 0.5 + 0.1 * js]),
    )


def changed_parts(a, b):
    """Names of the state parts that differ between a and b."""
    parts = {"nav": (a.nav.as_matrix(), b.nav.as_matrix()),
             "gyro_bias": (a.gyro_bias, b.gyro_bias),
             "accel_bias": (a.accel_bias, b.accel_bias),
             "lever_arm": (a.lever_arm, b.lever_arm)}
    for i in range(a.num_clones):
        parts[f"clone{i}.rotation"] = (a.clone_rotations[i], b.clone_rotations[i])
        parts[f"clone{i}.position"] = (a.clone_positions[i], b.clone_positions[i])
    for j in range(a.num_features):
        parts[f"feature{j}"] = (a.feature_params[j], b.feature_params[j])
    return {name for name, (x, y) in parts.items() if not np.array_equal(x, y)}


def test_error_dim_layout():
    # The layout is what retract reads: a correction that is nonzero only
    # inside one block moves only that block's part of the state.
    s = random_state(3, 5)
    assert s.error_dim == CORE_DIM + 18 + 15
    for rows, moved in ((slice(30, 33), {"clone2.rotation"}),
                        (slice(33, 36), {"clone2.position"}),
                        (slice(36, 39), {"feature0"}),
                        (slice(48, 51), {"feature4"}),
                        (slice(15, 18), {"lever_arm"}),
                        (slice(12, 15), {"accel_bias"}),
                        (slice(9, 12), {"gyro_bias"}),
                        (slice(0, 9), {"nav"})):
        e = np.zeros(s.error_dim)
        e[rows] = [0.1, -0.2, 0.3] * ((rows.stop - rows.start) // 3)
        assert changed_parts(s, retract(s, e, "liekf")) == moved, rows


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_retract_inverts_error(convention):
    for _ in range(20):
        truth = random_state(2, 3)
        e = 0.5 * rng.standard_normal(truth.error_dim)
        est = retract(truth, e, convention)
        back = error_between(truth, est, convention)
        assert np.allclose(back, e, atol=1e-9)


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_error_then_retract(convention):
    truth = random_state(1, 2)
    est = random_state(1, 2)
    e = error_between(truth, est, convention)
    rebuilt = retract(truth, e, convention)
    assert np.allclose(rebuilt.nav.as_matrix(), est.nav.as_matrix(), atol=1e-9)
    assert np.allclose(rebuilt.gyro_bias, est.gyro_bias)
    assert np.allclose(rebuilt.clone_rotations, est.clone_rotations, atol=1e-9)
    assert np.allclose(rebuilt.clone_positions, est.clone_positions)


def test_zero_error_identity():
    s = random_state(2, 1)
    for convention in CONVENTIONS:
        assert np.allclose(error_between(s, s, convention), 0.0, atol=1e-12)


def test_nav_error_matches_full_error():
    truth = random_state()
    est = random_state()
    for convention in CONVENTIONS:
        full = error_between(truth, est, convention)
        assert np.allclose(nav_error(truth.nav, est.nav, convention), full[:9])


def test_conventions_differ():
    truth = random_state()
    est = retract(truth, 0.3 * rng.standard_normal(truth.error_dim), "liekf")
    el = error_between(truth, est, "liekf")
    er = error_between(truth, est, "riekf")
    ee = error_between(truth, est, "ekf")
    assert not np.allclose(el[:9], er[:9])
    assert not np.allclose(el[:9], ee[:9])


def test_structure_mismatch_raises():
    with pytest.raises(ValueError):
        error_between(random_state(1, 0), random_state(2, 0), "liekf")
    with pytest.raises(ValueError):
        error_between(random_state(1, 1), random_state(1, 2), "liekf")
    with pytest.raises(ValueError):
        retract(random_state(1, 1), np.zeros(5), "liekf")
    with pytest.raises(ValueError):
        nav_error(random_state().nav, random_state().nav, "foo")


def test_clone_management():
    s = SystemState.identity(timestamp=1.5)
    extr = (np.eye(3), np.array([0.0, 0.1, 0.0]))
    s = augment_clone(s, extr)
    assert s.num_clones == 1
    assert s.clone_times[0] == 1.5
    assert np.allclose(s.clone_positions[0], [0.0, 0.1, 0.0])
    with pytest.raises(ValueError):
        augment_clone(s, extr, max_clones=1)
    s = marginalize_clone(s, 0)
    assert s.num_clones == 0
    with pytest.raises(ValueError):
        marginalize_clone(s, 0)


def test_feature_management():
    s = augment_clone(SystemState.identity(), (np.eye(3), np.zeros(3)))
    params = np.array([0.1, 0.2, 0.5])
    s = add_feature(s, 9, 0, params)
    assert s.num_features == 1 and s.feature_ids[0] == 9
    with pytest.raises(ValueError):
        add_feature(s, 9, 0, params, max_features=1)
    s = remove_feature(s, 0)
    assert s.num_features == 0
    with pytest.raises(ValueError):
        remove_feature(s, 3)


def test_anchor_guards():
    # A landmark's anchor is a clone row: it must be in the window when the
    # landmark is added, and its clone cannot leave while the landmark stays.
    s = SystemState.identity()
    params = np.array([0.1, 0.2, 0.5])
    with pytest.raises(ValueError, match="anchor"):
        add_feature(s, 1, 0, params)
    extr = (np.eye(3), np.zeros(3))
    s = augment_clone(augment_clone(s, extr), extr)
    for anchor in (-1, 2):
        with pytest.raises(ValueError, match="anchor"):
            add_feature(s, 1, anchor, params)
    s = add_feature(s, 1, 1, params)
    with pytest.raises(ValueError, match="anchors"):
        marginalize_clone(s, 1)
    s = marginalize_clone(s, 0)
    assert s.feature_anchors.tolist() == [0]
