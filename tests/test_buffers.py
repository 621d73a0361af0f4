"""History buffers, delayed-update transport and the partitioned core
update, each checked against a straightforward full-matrix reference."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmnav.agent import AgentFilter
from swarmnav.buffers import (
    DelayExceedsHorizon,
    HistoryBuffer,
    ImuBufferEntry,
    apply_delayed_update,
    core_update_partitioned,
    repropagate,
)
from swarmnav.covariance import CovariancePartition
from swarmnav.filters import (
    GRAVITY,
    ImuStream,
    LinearMeasurement,
    NoiseDensities,
    kalman_step,
    mechanize,
)
from swarmnav.lie import ExtendedPose, so3_exp
from swarmnav.state import CORE_DIM, SystemState, retract

rng = np.random.default_rng(23)


def _samples(k):
    """A k-sample IMU stream; the buffer only counts its samples."""
    return ImuStream(np.zeros(k), np.zeros((k, 3)), np.zeros((k, 3)))


def _entry(start, t, dim=4):
    """A one-sample segment from `start` to `t` with a random transition."""
    F = np.eye(dim) + 0.01 * rng.standard_normal((dim, dim))
    G = rng.standard_normal((dim, dim))
    Q = np.diag(rng.uniform(0.1, 1.0, dim))
    return ImuBufferEntry(F, G @ Q @ G.T, start, t, _samples(1))


# ----------------------------------------------------------------------
# buffer semantics


def test_push_and_capacity():
    buf = HistoryBuffer(capacity=3)
    for t in (1.0, 2.0, 3.0, 4.0):
        buf.push(_entry(t - 1.0, t))
    assert len(buf) == 3
    assert buf.entries[-1].timestamp == 4.0
    assert buf.last_evicted == 1.0


def test_push_equal_timestamps_allowed():
    buf = HistoryBuffer(capacity=5)
    buf.push(_entry(0.5, 1.0))
    buf.push(_entry(1.0, 1.0))  # two events can land on the same epoch
    assert len(buf) == 2
    with pytest.raises(ValueError):
        buf.push(_entry(0.0, 0.5))


def test_range_after():
    buf = HistoryBuffer(capacity=10)
    for t in (1.0, 2.0, 3.0):
        buf.push(_entry(t - 1.0, t))
    ts = [e.timestamp for e in buf.range_after(1.0, 3.0)]
    assert ts == [2.0, 3.0]
    assert buf.range_after(3.0, 9.0) == []


def test_range_after_checks_horizon():
    buf = HistoryBuffer(capacity=2)
    for t in (1.0, 2.0, 3.0):
        buf.push(_entry(t - 1.0, t))
    with pytest.raises(DelayExceedsHorizon):
        buf.range_after(0.5, 3.0)


# Nondecreasing segment ends on a coarse grid, so that ties are common, each
# segment holding 1-3 samples.
_TIMES = st.lists(st.integers(0, 4), min_size=0, max_size=25).map(
    lambda steps: [0.5 * sum(steps[:k + 1]) for k in range(len(steps))])
_BOUND = st.integers(-2, 60).map(lambda k: 0.25 * k)


@settings(max_examples=200, deadline=None)
@given(times=_TIMES, sizes=st.lists(st.integers(1, 3), min_size=25, max_size=25),
       capacity=st.integers(1, 8), a=_BOUND, b=_BOUND)
def test_history_buffer_properties(times, sizes, capacity, a, b):
    buf = HistoryBuffer(capacity=capacity)
    pushed = [ImuBufferEntry(None, None, start, t, _samples(k))
              for start, t, k in zip([0.0] + times, times, sizes)]
    for e in pushed:
        buf.push(e)
    n = len(pushed)
    # The shortest tail of segments that holds `capacity` samples stays.
    keep = next((k for k in range(n) if sum(sizes[k:n]) - sizes[k] < capacity), n)
    kept = pushed[keep:]
    assert buf.entries == kept
    evicted = pushed[:keep]
    assert buf.last_evicted == (evicted[-1].timestamp if evicted else None)

    if evicted and a < evicted[-1].timestamp:
        with pytest.raises(DelayExceedsHorizon):
            buf.range_after(a, b)
    elif any(e.start < a < e.timestamp for e in kept):
        with pytest.raises(ValueError, match="inside the buffered segment"):
            buf.range_after(a, b)
    else:
        assert buf.range_after(a, b) == [e for e in kept if a < e.timestamp <= b]

    if kept and kept[-1].timestamp > 0.0:
        before = (list(buf.entries), buf.last_evicted)
        with pytest.raises(ValueError):
            buf.push(ImuBufferEntry(None, None, 0.0, kept[-1].timestamp - 0.25, _samples(1)))
        assert (buf.entries, buf.last_evicted) == before


def test_range_after_refuses_an_epoch_inside_a_segment():
    # A segment is buffered as one transition. An interval that starts
    # strictly inside it would take that whole transition, a wrong
    # transport with no error; it raises instead.
    ag = _make_agent()
    stream = _imu_stream(20, 0.005)
    ag.propagate(stream[:5])
    epoch = ag.state.timestamp
    ag.propagate(stream[5:])  # one segment across t = 0.05
    snap = ag.snapshot()
    ag.imu_buffer.range_after(epoch, ag.state.timestamp)  # a boundary is fine
    with pytest.raises(ValueError, match="inside the buffered segment"):
        ag.imu_buffer.range_after(stream.times[9], ag.state.timestamp)
    inside = replace(snap[0], timestamp=float(stream.times[9]))
    with pytest.raises(ValueError, match="inside the buffered segment"):
        ag.update_gnss_delayed(np.zeros(3), 0.02, (inside, snap[1]))


# ----------------------------------------------------------------------
# transport algebra


def test_repropagate_matches_chained_steps():
    # Transporting (P, xi) in one call equals stepping through the buffer
    # one entry at a time.
    for _ in range(20):
        n = rng.integers(3, 7)
        buf = HistoryBuffer(capacity=20)
        entries = [_entry(0.01 * k, 0.01 * (k + 1)) for k in range(n)]
        for e in entries:
            buf.push(e)
        A = rng.standard_normal((4, 4))
        P = A @ A.T + np.eye(4)
        xi = rng.standard_normal(4)
        P_ref, xi_ref = P.copy(), xi.copy()
        for e in entries:
            P_ref = e.F @ P_ref @ e.F.T + e.noise
            xi_ref = e.F @ xi_ref
        P_out, xi_out, Phi = repropagate(buf, P, xi, 0.0, 0.01 * n)
        scale = max(np.abs(P_ref).max(), 1.0)
        assert np.max(np.abs(P_out - (P_ref + P_ref.T) / 2)) / scale < 1e-10
        assert np.allclose(xi_out, xi_ref, atol=1e-10)
        assert np.allclose(Phi @ xi, xi_ref, atol=1e-10)


def test_repropagate_zero_interval():
    buf = HistoryBuffer(capacity=5)
    buf.push(_entry(0.0, 1.0))
    P = np.eye(4)
    xi = np.ones(4)
    P_out, xi_out, Phi = repropagate(buf, P, xi, 1.0, 1.0)
    assert np.allclose(P_out, P)
    assert np.allclose(Phi, np.eye(4))


# ----------------------------------------------------------------------
# partitioned core update vs. the assembled full update


def test_core_update_matches_full_joseph():
    d_vis = 9
    dim = CORE_DIM + d_vis
    A = rng.standard_normal((dim, dim))
    P_full = A @ A.T + np.eye(dim)
    part = CovariancePartition(P_full[:CORE_DIM, :CORE_DIM].copy(), d_vis)
    part.cross = P_full[:CORE_DIM, CORE_DIM:].copy()
    part.sensor_self = P_full[CORE_DIM:, CORE_DIM:].copy()

    H_core = rng.standard_normal((3, CORE_DIM))
    N = 0.01 * np.eye(3)
    r = rng.standard_normal(3)
    H_full = np.zeros((3, dim))
    H_full[:, :CORE_DIM] = H_core
    ref = kalman_step(P_full, LinearMeasurement(r, H_full, N))
    P_ref, xi_ref = ref.P_post, ref.xi

    meas = LinearMeasurement(r, H_core, N)
    xi = core_update_partitioned(part, meas)
    assert xi.shape == (dim,)
    assert np.allclose(xi, xi_ref, atol=1e-10)
    assert np.allclose(part.core, P_ref[:CORE_DIM, :CORE_DIM], atol=1e-9)
    assert np.allclose(part.cross, P_ref[:CORE_DIM, CORE_DIM:], atol=1e-9)
    assert np.allclose(part.sensor_self, P_ref[CORE_DIM:, CORE_DIM:],
                       atol=1e-9)


# ----------------------------------------------------------------------
# delayed updates vs. rewind and replay


def _make_agent(convention="liekf"):
    nav = ExtendedPose(so3_exp(np.array([0.0, 0.0, 0.4])),
                       np.array([1.0, 0.5, 0.0]), np.array([5.0, -2.0, 10.0]))
    state = SystemState(nav=nav, gyro_bias=0.002 * np.ones(3),
                        accel_bias=0.01 * np.ones(3),
                        lever_arm=np.array([0.1, 0.0, 0.05]),
                        timestamp=0.0)
    noise = NoiseDensities(2e-4, 2e-3, 1e-6, 1e-5)
    P0 = np.diag(np.concatenate([np.full(9, 0.01), np.full(6, 1e-4), np.full(3, 1e-4)]))
    return AgentFilter(state, P0, convention, noise=noise)


def _imu_stream(n, dt, seed=0):
    rg = np.random.default_rng(seed)
    gyro, accel = np.empty((n, 3)), np.empty((n, 3))
    for k in range(n):
        gyro[k] = np.array([0.0, 0.0, 0.3]) + 0.01 * rg.standard_normal(3)
        accel[k] = np.array([0.1, 0.0, 9.81]) + 0.05 * rg.standard_normal(3)
    return ImuStream(np.arange(1, n + 1) * dt, gyro, accel)


def _one_by_one(ag, stream):
    """Propagate a stream one sample per call."""
    for k in range(len(stream)):
        ag.propagate(stream[k:k + 1])


def test_apply_delayed_update_equals_rewind_replay():
    dt = 0.005
    stream = _imu_stream(60, dt, seed=4)
    k_epoch = 39  # snapshot taken after sample 40 (t = 0.2)

    # Reference: the update is applied the moment the measurement arrives,
    # then the filter simply keeps propagating (rewind-and-replay outcome).
    ref = _make_agent()
    _one_by_one(ref, stream[:k_epoch + 1])
    z = (ref.state.nav.position + ref.state.nav.rotation @ ref.state.lever_arm
         + np.array([0.05, -0.02, 0.01]))
    ref.update_gnss(z, 0.02)
    _one_by_one(ref, stream[k_epoch + 1:])

    # Buffered path: keep propagating, apply the same measurement late.
    ag = _make_agent()
    _one_by_one(ag, stream[:k_epoch + 1])
    snap = ag.snapshot()
    _one_by_one(ag, stream[k_epoch + 1:])
    ag.update_gnss_delayed(z, 0.02, snap)

    dp = np.abs(ag.state.nav.position - ref.state.nav.position).max()
    dv = np.abs(ag.state.nav.velocity - ref.state.nav.velocity).max()
    dR = np.abs(ag.state.nav.rotation - ref.state.nav.rotation).max()
    assert max(dp, dv, dR) < 1e-10
    P_a = ag.full_covariance()
    P_r = ref.full_covariance()
    assert np.max(np.abs(P_a - P_r)) / np.abs(P_r).max() < 1e-10


def test_apply_delayed_update_zero_delay_matches_prompt():
    dt = 0.005
    stream = _imu_stream(20, dt, seed=9)
    prompt = _make_agent()
    late = _make_agent()
    _one_by_one(prompt, stream)
    _one_by_one(late, stream)
    z = prompt.state.nav.position + prompt.state.nav.rotation @ prompt.state.lever_arm
    prompt.update_gnss(z, 0.02)
    late.update_gnss_delayed(z, 0.02, late.snapshot())
    assert np.allclose(prompt.state.nav.position, late.state.nav.position, atol=1e-12)
    assert np.allclose(prompt.partition.core, late.partition.core, atol=1e-12)


def test_apply_delayed_update_rejects_backwards_completion():
    ag = _make_agent()
    _one_by_one(ag, _imu_stream(10, 0.005))
    meas = LinearMeasurement(np.zeros(3), np.zeros((3, CORE_DIM)), np.eye(3))
    snap = ag.snapshot()
    ag.state = replace(ag.state, timestamp=0.01)  # the snapshot is now newer
    with pytest.raises(ValueError):
        apply_delayed_update(ag, meas, snap)


def test_delay_beyond_horizon_raises():
    ag = AgentFilter(_make_agent().state, np.eye(18) * 0.01, "liekf",
                     noise=NoiseDensities(2e-4, 2e-3, 1e-6, 1e-5),
                     imu_buffer_capacity=5)
    stream = _imu_stream(12, 0.005)
    ag.propagate(stream[:1])
    snap = ag.snapshot()
    _one_by_one(ag, stream[1:])  # the epoch leaves the 5-step buffer
    with pytest.raises(DelayExceedsHorizon):
        ag.update_gnss_delayed(np.zeros(3), 0.02, snap)
