"""Per-agent filter: the segmented update paths against full-matrix
references, window management and landmark initialization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmnav.agent import AgentFilter
from swarmnav.covariance import Correspondence
from swarmnav.filters import (
    ImuSample,
    NoiseDensities,
    feature_world_position,
    gnss_measurement,
    kalman_step,
    mechanize,
    update,
)
from swarmnav.lie import ExtendedPose, so3_exp, so3_log
from swarmnav.state import CONVENTIONS, Feature, SystemState, retract

rng = np.random.default_rng(5)

EXTR = (np.array([[1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]]),
        np.array([0.02, 0.0, -0.01]))


def make_agent(convention="liekf", seed=0):
    rg = np.random.default_rng(seed)
    nav = ExtendedPose(so3_exp(np.array([0.0, 0.0, 0.8])),
                       np.array([2.0, 0.0, 0.0]), np.array([20.0, 0.0, 10.0]))
    state = SystemState(nav=nav, gyro_bias=0.002 * rg.standard_normal(3),
                        accel_bias=0.01 * rg.standard_normal(3),
                        lever_arm=np.array([0.1, 0.0, 0.05]),
                        clones=(), features=(), timestamp=0.0)
    P0 = np.diag(np.concatenate([np.full(3, 0.01), np.full(3, 0.01),
                                 np.full(3, 0.09), np.full(6, 1e-4),
                                 np.full(3, 1e-4)]))
    return AgentFilter(state, P0, convention,
                       noise=NoiseDensities(2e-4, 2e-3, 1e-6, 1e-5),
                       camera_extrinsics=EXTR)


def drive(ag, n=20, dt=0.005, seed=1):
    rg = np.random.default_rng(seed)
    t = ag.state.timestamp
    for _ in range(n):
        t = round(t + dt, 9)
        omega = np.array([0.0, 0.0, 0.1]) + 0.02 * rg.standard_normal(3)
        f = np.array([0.2, 0.0, 9.81]) + 0.1 * rg.standard_normal(3)
        ag.propagate(ImuSample(omega, f, t))
    return ag


def test_snapshot_without_visual_states_after_long_gap():
    # Camera off, so the visual block has zero width. 400 IMU steps with no
    # update outlast the 300-sample IMU buffer (a GNSS gate lockout longer
    # than 1.5 s); the next snapshot must not need the evicted transitions.
    ag = make_agent()
    assert ag.partition.cross.shape == (18, 0)
    drive(ag, n=400)
    state, part = ag.snapshot()
    assert part.synced_at == ag.state.timestamp
    ag.update_gnss(state.nav.position + 0.1, 0.05)


def test_covariance_dim_checked():
    ag = make_agent()
    with pytest.raises(ValueError):
        AgentFilter(ag.state, np.eye(12), "liekf")
    with pytest.raises(ValueError):
        AgentFilter(ag.state, np.eye(18), "nonsense")


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_segmented_gnss_update_matches_full(convention):
    # The core-block update through the partition must equal a plain full
    # update on the assembled covariance, clones and landmarks included.
    ag = make_agent(convention)
    drive(ag, 10)
    ag.augment_clone()
    drive(ag, 10, seed=2)
    ag.augment_clone()
    drive(ag, 10, seed=3)

    shadow_state = ag.state
    shadow_P = ag.full_covariance()
    z = ag.state.nav.position + ag.state.nav.rotation @ ag.state.lever_arm \
        + np.array([0.03, -0.01, 0.02])
    meas = gnss_measurement(shadow_state, z, 0.02, convention)
    ref = update(shadow_state, shadow_P, meas, convention)

    ag.update_gnss(z, 0.02)
    assert np.allclose(ag.state.nav.position, ref.state.nav.position, atol=1e-12)
    assert np.allclose(ag.state.nav.rotation, ref.state.nav.rotation, atol=1e-12)
    for a, b in zip(ag.state.clones, ref.state.clones):
        assert np.allclose(a.position, b.position, atol=1e-12)
    P_seg = ag.full_covariance()
    assert np.max(np.abs(P_seg - ref.covariance)) / np.abs(ref.covariance).max() < 1e-10


def test_clone_jacobian_finite_difference():
    # Inserted clone rows claim e_clone = J e_core; check J against the
    # actual clone pose of a perturbed state.
    for convention in CONVENTIONS:
        ag = make_agent(convention)
        J = ag._clone_jacobian()
        eps = 1e-6
        base = ag.state
        R_ic, p_ic = EXTR
        Rc0 = base.nav.rotation @ R_ic
        pc0 = base.nav.position + base.nav.rotation @ p_ic
        for k in range(18):
            e = np.zeros(18)
            e[k] = eps
            pert = retract(base, e, convention)
            Rc = pert.nav.rotation @ R_ic
            pc = pert.nav.position + pert.nav.rotation @ p_ic
            col = np.concatenate([so3_log(Rc0.T @ Rc), pc - pc0]) / eps
            assert np.allclose(col, J[:, k], atol=1e-5), (convention, k)


def test_augment_and_marginalize_roundtrip():
    ag = make_agent()
    drive(ag, 5)
    P_before = ag.full_covariance()
    i = ag.augment_clone()
    assert i == 0 and ag.state.num_clones == 1
    full = ag.full_covariance()
    assert full.shape == (24, 24)
    # New clone rows correlate perfectly with the pose they were copied from.
    J = ag._clone_jacobian()
    assert np.allclose(full[18:, :18], J @ P_before, atol=1e-10)
    ag.marginalize_clone(0)
    assert ag.state.num_clones == 0
    assert np.allclose(ag.full_covariance(), P_before, atol=1e-12)


def test_window_eviction_drops_anchored_features():
    ag = make_agent()
    ag.max_clones = 2
    drive(ag, 3)
    ag.augment_clone()
    t_anchor = ag.state.clones[0].timestamp
    from swarmnav.state import Feature
    ag.add_feature(Feature(42, t_anchor, np.array([0.1, 0.1, 0.2])), 1.0)
    drive(ag, 3, seed=4)
    ag.augment_clone()
    assert ag.state.num_clones == 2 and ag.state.num_features == 1
    drive(ag, 3, seed=5)
    ag.augment_clone()  # evicts the oldest clone and its anchored landmark
    assert ag.state.num_clones == 2
    assert ag.state.num_features == 0


def test_initialize_feature_from_tracks():
    ag = make_agent()
    landmark = np.array([22.0, 2.0, 0.0])
    uvs = []
    for k in range(3):
        drive(ag, 40, seed=10 + k)
        ci = ag.augment_clone()
        clone = ag.state.clones[ci]
        X = clone.rotation.T @ (landmark - clone.position)
        assert X[2] > 0.5
        uvs.append((ci, X[:2] / X[2]))
    # Newest clone as the anchor, like the tracker does.
    tracks = [uvs[-1]] + uvs[:-1]
    j = ag.initialize_feature(99, tracks, prior_sigma=1.0, pixel_sigma=0.002)
    assert j == 0
    from swarmnav.filters import feature_world_position
    p_est, _ = feature_world_position(ag.state, 0)
    assert np.linalg.norm(p_est - landmark) < 0.5
    assert ag.state.features[0].feature_id == 99


def test_initialize_feature_needs_parallax():
    ag = make_agent()
    drive(ag, 3)
    ci = ag.augment_clone()
    # Same clone observed three times: no baseline, triangulation must bail.
    uv = np.array([0.1, 0.05])
    assert ag.initialize_feature(7, [(ci, uv)] * 3) is None
    assert ag.state.num_features == 0
    assert ag.initialize_feature(7, [(ci, uv)], min_observations=3) is None


def test_update_vision_tightens_clone_covariance():
    ag = make_agent()
    landmark = np.array([22.0, 2.0, 0.0])
    obs = []
    for k in range(3):
        drive(ag, 40, seed=20 + k)
        ci = ag.augment_clone()
        clone = ag.state.clones[ci]
        X = clone.rotation.T @ (landmark - clone.position)
        obs.append((ci, X[:2] / X[2]))
    ag.initialize_feature(3, [obs[-1]] + obs[:-1])
    drive(ag, 40, seed=30)
    ci = ag.augment_clone()
    clone = ag.state.clones[ci]
    X = clone.rotation.T @ (landmark - clone.position)
    tr_before = np.trace(ag.full_covariance())
    n = ag.update_vision([(ci, 0, X[:2] / X[2])], pixel_sigma=0.002)
    assert n == 1
    assert np.trace(ag.full_covariance()) < tr_before


def test_propagate_requires_forward_time():
    ag = make_agent()
    drive(ag, 2)
    with pytest.raises(ValueError):
        ag.propagate(ImuSample(np.zeros(3), np.zeros(3), ag.state.timestamp))


@pytest.mark.parametrize("convention", sorted(CONVENTIONS))
def test_an_empty_segment_changes_nothing(convention):
    ag = make_agent(convention)
    drive(ag, 2)
    state, P = ag.state, ag.full_covariance()
    assert ag.propagate() is state
    assert np.array_equal(ag.full_covariance(), P)


# ----------------------------------------------------------------------
# IMU segments


def segment_stream(ag, n=24, seed=7):
    """n samples at 200 Hz after the agent's clock. Every fourth one turns
    at the gyro bias plus 1e-6 rad/s, and one exactly at the bias, so the
    bias-corrected rotation increment of those falls below the small-angle
    cutoff (|psi| < 1e-7) or is zero."""
    rg = np.random.default_rng(seed)
    bias = ag.state.gyro_bias
    t = ag.state.timestamp
    samples = []
    for k in range(n):
        t = round(t + 0.005, 9)
        if k == 5:
            omega = bias.copy()
        elif k % 4 == 0:
            omega = bias + 1e-6 * rg.standard_normal(3)
        else:
            omega = np.array([0.0, 0.0, 0.4]) + 0.05 * rg.standard_normal(3)
        f = np.array([0.3, -0.1, 9.81]) + 0.2 * rg.standard_normal(3)
        samples.append(ImuSample(omega, f, t))
    return samples


def assert_same_bits(a, b):
    assert a.state.timestamp == b.state.timestamp
    for x, y in zip((a.state.nav.rotation, a.state.nav.velocity, a.state.nav.position),
                    (b.state.nav.rotation, b.state.nav.velocity, b.state.nav.position)):
        assert x.tobytes() == y.tobytes()
    assert a.partition.core.tobytes() == b.partition.core.tobytes()
    assert a.partition.timestamp == b.partition.timestamp
    assert len(a.imu_buffer) == len(b.imu_buffer)
    for e, f in zip(a.imu_buffer.entries, b.imu_buffer.entries):
        assert e.timestamp == f.timestamp and e.imu is f.imu
        for m in ("F", "G", "Q"):
            assert getattr(e, m).tobytes() == getattr(f, m).tobytes(), m


@settings(max_examples=60, deadline=None)
@given(convention=st.sampled_from(sorted(CONVENTIONS)),
       cuts=st.sets(st.integers(1, 23), max_size=23))
def test_segment_boundaries_do_not_change_results(convention, cuts):
    stepwise = make_agent(convention)
    stream = segment_stream(stepwise)
    assert any(np.linalg.norm((s.gyro - stepwise.state.gyro_bias) * 0.005) < 1e-7
               for s in stream)
    for s in stream:
        stepwise.propagate(s)
    assert np.isfinite(stepwise.state.nav.as_matrix()).all()
    assert np.isfinite(stepwise.partition.core).all()
    segmented = make_agent(convention)
    bounds = [0] + sorted(cuts) + [len(stream)]
    for lo, hi in zip(bounds, bounds[1:]):
        segmented.propagate(*stream[lo:hi])
    assert_same_bits(stepwise, segmented)


def test_delayed_fix_replay_equals_chained_single_steps():
    ag = make_agent()
    stream = segment_stream(ag, n=30, seed=3)
    ag.propagate(*stream[:10])
    snap = ag.snapshot()
    ag.propagate(*stream[10:])
    z = snap[0].nav.position + np.array([0.3, -0.2, 0.1])
    xi = ag.update_gnss_delayed(z, 0.05, snap, ag.state.timestamp)
    state = retract(snap[0], xi, ag.convention)
    for s in stream[10:]:
        state = mechanize(state, [s], ag.noise.gravity).state
    assert state.timestamp == ag.state.timestamp
    for x, y in zip((state.nav.rotation, state.nav.velocity, state.nav.position),
                    (ag.state.nav.rotation, ag.state.nav.velocity, ag.state.nav.position)):
        assert x.tobytes() == y.tobytes()


# ----------------------------------------------------------------------
# cross-block bookkeeping


def assert_cross_blocks_synced(ag):
    assert ag.partition.synced_at == ag.partition.timestamp


def drive_against_dense_shadow(ag, seed):
    """Drive 10 IMU steps and compare the synced covariance with a dense
    shadow propagated through the same buffered F, G, Q (core block of
    F_full, identity elsewhere)."""
    P = ag.full_covariance()
    drive(ag, 10, seed=seed)
    dim = P.shape[0]
    for e in ag.imu_buffer.entries[-10:]:
        F_full = np.eye(dim)
        F_full[:18, :18] = e.F
        P = F_full @ P @ F_full.T
        P[:18, :18] += e.G @ e.Q @ e.G.T
    got = ag.full_covariance()
    assert np.max(np.abs(got - P)) / np.abs(P).max() <= 1e-12


def test_updates_leave_cross_blocks_synced_and_chain_imu_only():
    # Every update corrects the cross block in place and marks it synced, so
    # a later sync chains the buffered IMU transitions and nothing else. A
    # correction applied a second time at sync breaks the dense shadow.
    ag = make_agent()
    landmark = np.array([22.0, 2.0, 0.0])
    for seed in (40, 41):
        drive(ag, 40, seed=seed)
        ag.augment_clone()
    anchor = ag.state.clones[1]
    X_a = anchor.rotation.T @ (landmark - anchor.position)
    ag.add_feature(Feature(3, anchor.timestamp, np.append(X_a[:2], 1.0) / X_a[2]), 1.0)
    assert ag.state.num_clones == 2 and ag.state.num_features == 1
    drive(ag, 10, seed=42)

    ag.update_gnss(ag.state.nav.position + np.array([0.05, -0.02, 0.03]), 0.05)
    assert_cross_blocks_synced(ag)
    drive_against_dense_shadow(ag, seed=43)

    snap = ag.snapshot()
    drive(ag, 10, seed=44)
    ag.update_gnss_delayed(snap[0].nav.position + np.array([-0.03, 0.02, 0.01]),
                           0.05, snap, ag.state.timestamp)
    assert_cross_blocks_synced(ag)
    drive_against_dense_shadow(ag, seed=45)

    clone = ag.state.clones[0]
    X = clone.rotation.T @ (landmark - clone.position)
    assert ag.update_vision([(0, 0, X[:2] / X[2] + 0.002)], pixel_sigma=0.002) == 1
    assert_cross_blocks_synced(ag)
    drive_against_dense_shadow(ag, seed=46)

    p_w, _ = feature_world_position(ag.state, 0)
    c = Correspondence(3, p_w + np.array([0.1, -0.1, 0.05]), 0.01 * np.eye(3))
    assert ag.update_collaborative([c]) == 1
    assert_cross_blocks_synced(ag)
    drive_against_dense_shadow(ag, seed=47)
