"""Per-agent filter: the segmented update paths against full-matrix
references, window management and landmark initialization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmnav import lie
from swarmnav.agent import AgentFilter
from swarmnav.buffers import HistoryBuffer, repropagate
from swarmnav.covariance import Correspondence
from swarmnav.filters import (
    ImuStream,
    LinearMeasurement,
    NoiseDensities,
    feature_world_position,
    gnss_measurement,
    kalman_step,
    mechanize,
    propagate_covariance,
)
from swarmnav.lie import ExtendedPose, so3_exp, so3_log
from swarmnav.state import CONVENTIONS, CORE_DIM, SystemState, retract

rng = np.random.default_rng(5)

EXTR = (np.array([[1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]]),
        np.array([0.02, 0.0, -0.01]))


def make_agent(convention="liekf", seed=0, timestamp=0.0):
    rg = np.random.default_rng(seed)
    nav = ExtendedPose(so3_exp(np.array([0.0, 0.0, 0.8])),
                       np.array([2.0, 0.0, 0.0]), np.array([20.0, 0.0, 10.0]))
    state = SystemState(nav=nav, gyro_bias=0.002 * rg.standard_normal(3),
                        accel_bias=0.01 * rg.standard_normal(3),
                        lever_arm=np.array([0.1, 0.0, 0.05]),
                        timestamp=timestamp)
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
        ag.propagate(ImuStream(np.array([t]), omega[None], f[None]))
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
    # The fix's core-width H, padded with zeros over the clone blocks.
    H = np.pad(meas.H, ((0, 0), (0, shadow_P.shape[0] - meas.H.shape[1])))
    ref = kalman_step(shadow_P, LinearMeasurement(meas.residual, H, meas.noise_cov))
    ref_state = retract(shadow_state, ref.xi, convention)

    ag.update_gnss(z, 0.02)
    assert np.allclose(ag.state.nav.position, ref_state.nav.position, atol=1e-12)
    assert np.allclose(ag.state.nav.rotation, ref_state.nav.rotation, atol=1e-12)
    for a, b in zip(ag.state.clone_positions, ref_state.clone_positions):
        assert np.allclose(a, b, atol=1e-12)
    P_seg = ag.full_covariance()
    assert np.max(np.abs(P_seg - ref.P_post)) / np.abs(ref.P_post).max() < 1e-10


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
    ag.add_feature(42, 0, np.array([0.1, 0.1, 0.2]), 1.0)
    drive(ag, 3, seed=4)
    ag.augment_clone()
    assert ag.state.num_clones == 2 and ag.state.num_features == 1
    drive(ag, 3, seed=5)
    ag.augment_clone()  # evicts the oldest clone and its anchored landmark
    assert ag.state.num_clones == 2
    assert ag.state.num_features == 0


def test_a_refused_landmark_leaves_the_filter_whole():
    # The state checks run before the partition grows, so a refused landmark
    # leaves the covariance the size of the state.
    ag = make_agent()
    ag.max_features = 1
    drive(ag, 3)
    ag.augment_clone()
    for anchor in (1, -1):
        with pytest.raises(ValueError, match="not in the window"):
            ag.add_feature(7, anchor, np.array([0.1, 0.1, 0.2]), 1.0)
    ag.add_feature(7, 0, np.array([0.1, 0.1, 0.2]), 1.0)
    with pytest.raises(ValueError, match="full"):
        ag.add_feature(8, 0, np.array([0.1, 0.1, 0.2]), 1.0)
    assert ag.state.error_dim == 18 + ag.partition.sensor_self.shape[0] == 27


def landmark_rows(ag):
    """{landmark id: (p_w, its anchor's 3x6 block, its own 3x3 block)} of
    feature_world_position, each Jacobian block read at the columns the
    landmark's anchor and its own rows have now."""
    s = ag.state
    rows = {}
    for j, fid in enumerate(s.feature_ids.tolist()):
        p_w, D = feature_world_position(s, j)
        a = 18 + 6 * s.feature_anchors[j]
        f = 18 + 6 * s.num_clones + 3 * j
        block = (D[:, a:a + 6].copy(), D[:, f:f + 3].copy())
        D[:, a:a + 6] = 0.0
        D[:, f:f + 3] = 0.0
        assert not D.any()  # nothing outside the 3x9 block
        rows[fid] = (p_w, *block)
    return rows


@settings(max_examples=100, deadline=None, derandomize=True)
@given(ops=st.lists(st.tuples(st.sampled_from(("augment", "add", "remove", "marginalize")),
                              st.integers(0, 2 ** 16)),
                    min_size=1, max_size=30))
def test_anchor_rows_follow_the_window(ops):
    # Any sequence of window operations keeps each landmark anchored at the
    # clone it was added on, and leaves every surviving landmark, and its
    # Jacobian at the shifted columns, bit for bit where it was.
    ag = make_agent()
    ag.max_clones = 3
    anchor_time = {}  # landmark id -> capture time of its anchor clone
    before = {}
    for n, (op, k) in enumerate(ops):
        M, N = ag.state.num_clones, ag.state.num_features
        if op == "augment":
            drive(ag, 2, seed=k)
            ag.augment_clone()
        elif op == "add" and M:
            anchor = k % M
            anchor_time[n] = ag.state.clone_times[anchor]
            ag.add_feature(n, anchor, np.array([0.1, -0.2, 0.05 + k / 2 ** 16]), 1.0)
        elif op == "remove" and N:
            ag.remove_feature(k % N)
        elif op == "marginalize" and M:
            ag.marginalize_clone(k % M)
        s = ag.state
        assert s.error_dim == 18 + ag.partition.sensor_self.shape[0]
        for fid, anchor in zip(s.feature_ids.tolist(), s.feature_anchors.tolist()):
            assert s.clone_times[anchor] == anchor_time[fid]
        after = landmark_rows(ag)
        for fid, now in after.items():
            for x, y in zip(before.get(fid, now), now):
                assert np.array_equal(x, y), (op, fid)
        before = after


def test_initialize_feature_from_tracks():
    ag = make_agent()
    landmark = np.array([22.0, 2.0, 0.0])
    uvs = []
    for k in range(3):
        drive(ag, 40, seed=10 + k)
        ci = ag.augment_clone()
        X = ag.state.clone_rotations[ci].T @ (landmark - ag.state.clone_positions[ci])
        assert X[2] > 0.5
        uvs.append((ci, X[:2] / X[2]))
    # Newest clone as the anchor, like the tracker does.
    tracks = [uvs[-1]] + uvs[:-1]
    j = ag.initialize_feature(99, tracks, prior_sigma=1.0, pixel_sigma=0.002)
    assert j == 0
    from swarmnav.filters import feature_world_position
    p_est, _ = feature_world_position(ag.state, 0)
    assert np.linalg.norm(p_est - landmark) < 0.5
    assert ag.state.feature_ids[0] == 99


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
        X = ag.state.clone_rotations[ci].T @ (landmark - ag.state.clone_positions[ci])
        obs.append((ci, X[:2] / X[2]))
    ag.initialize_feature(3, [obs[-1]] + obs[:-1])
    drive(ag, 40, seed=30)
    ci = ag.augment_clone()
    X = ag.state.clone_rotations[ci].T @ (landmark - ag.state.clone_positions[ci])
    tr_before = np.trace(ag.full_covariance())
    n = ag.update_vision([(ci, 0, X[:2] / X[2])], pixel_sigma=0.002)
    assert n == 1
    assert np.trace(ag.full_covariance()) < tr_before


def test_propagate_requires_forward_time():
    ag = make_agent()
    drive(ag, 2)
    with pytest.raises(ValueError):
        ag.propagate(ImuStream(np.array([ag.state.timestamp]), np.zeros((1, 3)),
                               np.zeros((1, 3))))


@pytest.mark.parametrize("convention", sorted(CONVENTIONS))
def test_an_empty_segment_changes_nothing(convention):
    ag = make_agent(convention)
    drive(ag, 2)
    state, P = ag.state, ag.full_covariance()
    assert ag.propagate(segment_stream(ag)[:0]) is state
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
    times, gyro, accel = np.empty(n), np.empty((n, 3)), np.empty((n, 3))
    for k in range(n):
        t = round(t + 0.005, 9)
        if k == 5:
            omega = bias.copy()
        elif k % 4 == 0:
            omega = bias + 1e-6 * rg.standard_normal(3)
        else:
            omega = np.array([0.0, 0.0, 0.4]) + 0.05 * rg.standard_normal(3)
        f = np.array([0.3, -0.1, 9.81]) + 0.2 * rg.standard_normal(3)
        times[k], gyro[k], accel[k] = t, omega, f
    return ImuStream(times, gyro, accel)


def rel_diff(x, ref):
    return np.max(np.abs(x - ref)) / np.max(np.abs(ref))


# A segment's covariance transport is one composed product, grouped by its
# cut points, so cuts move the covariance in its last bits. Over 1,500
# random cut sets per convention of this stream the worst relative change
# of the core, and of the whole buffer's transport, was 3.2e-15.
CUT_TOL = 1e-13


def held_views(ag, stream):
    """The buffered segments, asserted to be views of `stream` that hold
    its newest samples, oldest first."""
    held = [e.samples for e in ag.imu_buffer.entries]
    count = sum(map(len, held))
    for name in ("times", "gyro", "accel"):
        whole = getattr(stream, name)
        assert all(np.shares_memory(getattr(s, name), whole) for s in held)
        joined = np.concatenate([getattr(s, name) for s in held])
        assert joined.tobytes() == whole[len(whole) - count:].tobytes()
    return held


def assert_same_results(a, b, stream):
    """Same mean and clock bit for bit; the same core covariance, buffered
    samples (views of `stream`) and buffered transport up to the
    regrouping of products."""
    assert a.state.timestamp == b.state.timestamp
    for x, y in zip((a.state.nav.rotation, a.state.nav.velocity, a.state.nav.position),
                    (b.state.nav.rotation, b.state.nav.velocity, b.state.nav.position)):
        assert x.tobytes() == y.tobytes()
    assert rel_diff(b.partition.core, a.partition.core) <= CUT_TOL
    assert a.partition.synced_at == b.partition.synced_at
    assert sum(map(len, held_views(a, stream))) == sum(map(len, held_views(b, stream)))
    P0 = make_agent(a.convention).partition.core
    xi = np.ones(CORE_DIM)
    ta, tb = (repropagate(ag.imu_buffer, P0, xi, 0.0, ag.state.timestamp) for ag in (a, b))
    for x, y in zip(tb, ta):
        assert rel_diff(x, y) <= CUT_TOL


@settings(max_examples=60, deadline=None)
@given(convention=st.sampled_from(sorted(CONVENTIONS)),
       cuts=st.sets(st.integers(1, 23), max_size=23))
def test_segment_boundaries_do_not_change_results(convention, cuts):
    stepwise = make_agent(convention)
    stream = segment_stream(stepwise)
    assert np.any(np.linalg.norm((stream.gyro - stepwise.state.gyro_bias) * 0.005,
                                 axis=1) < 1e-7)
    for k in range(len(stream)):
        stepwise.propagate(stream[k:k + 1])
    assert np.isfinite(stepwise.state.nav.as_matrix()).all()
    assert np.isfinite(stepwise.partition.core).all()
    segmented = make_agent(convention)
    bounds = [0] + sorted(cuts) + [len(stream)]
    for lo, hi in zip(bounds, bounds[1:]):
        segmented.propagate(stream[lo:hi])
    assert [e.timestamp for e in segmented.imu_buffer.entries] == \
        [stream.times[hi - 1] for hi in bounds[1:]]
    assert_same_results(stepwise, segmented, stream)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(start=st.floats(0.0, 100.0), steps=st.lists(st.floats(1e-6, 5.0), min_size=1,
                                                   max_size=30),
       cuts=st.sets(st.integers(1, 29)))
def test_the_clock_is_the_last_sample_time_after_any_cut(start, steps, cuts):
    # Steps from 1 us to 5 s, so that a sample's time can be far more than
    # twice the one before it, where a difference of the two is not exact.
    times = start + np.cumsum(steps)
    n = len(times)
    stream = ImuStream(times, np.tile([0.0, 0.0, 0.1], (n, 1)),
                       np.tile([0.0, 0.0, 9.81], (n, 1)))
    ag = make_agent(timestamp=start)
    bounds = [0] + sorted(c for c in cuts if c < n) + [n]
    for lo, hi in zip(bounds, bounds[1:]):
        ag.propagate(stream[lo:hi])
        assert type(ag.state.timestamp) is float
        assert ag.state.timestamp == ag.imu_buffer.entries[-1].timestamp == times[hi - 1]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(convention=st.sampled_from(sorted(CONVENTIONS)),
       sizes=st.lists(st.integers(1, 40), min_size=1, max_size=4),
       capacity=st.integers(1, 60))
def test_a_segment_transport_equals_the_stepwise_recursion(convention, sizes, capacity):
    # Each segment's reduced (transition, noise) pair, the core it
    # propagates and the owed product match the step-by-step recursion to
    # 1e-12 relative, and a one-sample segment matches it bit for bit.
    # Eviction drops whole segments, never one that holds any of the
    # newest `capacity` samples.
    ag = make_agent(convention)
    ag.imu_buffer = HistoryBuffer(capacity)
    ag.augment_clone()  # a cross block, so that the partition owes
    stream = segment_stream(ag, n=sum(sizes), seed=sum(sizes))
    done = 0
    for n in sizes:
        samples = stream[done:done + n]
        done += n
        seg = mechanize(ag.state, samples, ag.noise.gravity)
        steps = CONVENTIONS[convention].transition(seg)
        noise = steps.G @ ag.noise.discrete_q(seg.dts[:, None, None]) \
            @ steps.G.transpose(0, 2, 1)
        Phi, Q, P = np.eye(CORE_DIM), np.zeros((CORE_DIM, CORE_DIM)), ag.partition.core
        for F_k, Q_k in zip(steps.F, noise):
            Phi, Q = F_k @ Phi, F_k @ Q @ F_k.T + Q_k
            P = propagate_covariance(P, F_k, Q_k)
        ag.sync()
        start = ag.state.timestamp
        ag.propagate(samples)
        entry = ag.imu_buffer.entries[-1]
        assert (entry.start, entry.timestamp) == (start, seg.state.timestamp)
        assert entry.samples is samples
        if n == 1:
            for got, ref in ((entry.F, steps.F[0]), (entry.noise, noise[0]),
                             (ag.partition.core, P), (ag.partition.owed, Phi)):
                assert got.tobytes() == ref.tobytes()
        for got, ref in ((entry.F, Phi), (entry.noise, Q), (ag.partition.core, P),
                         (ag.partition.owed, Phi)):
            assert rel_diff(got, ref) <= 1e-12
        held = held_views(ag, stream[:done])
        count = sum(map(len, held))
        assert count >= min(capacity, done)
        assert count - len(held[0]) < capacity


def test_delayed_fix_replay_equals_chained_single_steps():
    ag = make_agent()
    stream = segment_stream(ag, n=30, seed=3)
    ag.propagate(stream[:10])
    snap = ag.snapshot()
    ag.propagate(stream[10:])
    z = snap[0].nav.position + np.array([0.3, -0.2, 0.1])
    xi = ag.update_gnss_delayed(z, 0.05, snap)
    state = retract(snap[0], xi, ag.convention)
    for k in range(10, len(stream)):
        state = mechanize(state, stream[k:k + 1], ag.noise.gravity).state
    assert state.timestamp == ag.state.timestamp
    for x, y in zip((state.nav.rotation, state.nav.velocity, state.nav.position),
                    (ag.state.nav.rotation, ag.state.nav.velocity, ag.state.nav.position)):
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("convention", sorted(CONVENTIONS))
def test_a_segment_forms_its_rotation_terms_once(convention, monkeypatch):
    # mechanize forms the rotation increments, J1 and Gamma2 of a segment
    # from one stacked computation of their shared terms (angle, psi^ and
    # psi^2), and the transitions read them from its record.
    ag = make_agent(convention)
    stream = segment_stream(ag, n=7)
    calls = []
    original = lie._so3_terms

    def counted(phi):
        calls.append(np.shape(phi))
        return original(phi)

    monkeypatch.setattr(lie, "_so3_terms", counted)
    ag.propagate(stream)
    assert calls == [(7, 3)]


# ----------------------------------------------------------------------
# cross-block bookkeeping


def assert_cross_blocks_synced(ag):
    assert ag.partition.synced_at == ag.state.timestamp


def drive_against_dense_shadow(ag, seed):
    """Drive 10 IMU steps and compare the synced covariance with a dense
    shadow propagated through the same buffered F and noise (core block of
    F_full, identity elsewhere)."""
    P = ag.full_covariance()
    drive(ag, 10, seed=seed)
    dim = P.shape[0]
    for e in ag.imu_buffer.entries[-10:]:
        F_full = np.eye(dim)
        F_full[:18, :18] = e.F
        P = F_full @ P @ F_full.T
        P[:18, :18] += e.noise
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
    X_a = ag.state.clone_rotations[1].T @ (landmark - ag.state.clone_positions[1])
    ag.add_feature(3, 1, np.append(X_a[:2], 1.0) / X_a[2], 1.0)
    assert ag.state.num_clones == 2 and ag.state.num_features == 1
    drive(ag, 10, seed=42)

    ag.update_gnss(ag.state.nav.position + np.array([0.05, -0.02, 0.03]), 0.05)
    assert_cross_blocks_synced(ag)
    drive_against_dense_shadow(ag, seed=43)

    snap = ag.snapshot()
    drive(ag, 10, seed=44)
    ag.update_gnss_delayed(snap[0].nav.position + np.array([-0.03, 0.02, 0.01]),
                           0.05, snap)
    assert_cross_blocks_synced(ag)
    drive_against_dense_shadow(ag, seed=45)

    X = ag.state.clone_rotations[0].T @ (landmark - ag.state.clone_positions[0])
    assert ag.update_vision([(0, 0, X[:2] / X[2] + 0.002)], pixel_sigma=0.002) == 1
    assert_cross_blocks_synced(ag)
    drive_against_dense_shadow(ag, seed=46)

    p_w, _ = feature_world_position(ag.state, 0)
    c = Correspondence(3, p_w + np.array([0.1, -0.1, 0.05]), 0.01 * np.eye(3))
    assert ag.update_collaborative([c]) == 1
    assert_cross_blocks_synced(ag)
    drive_against_dense_shadow(ag, seed=47)
