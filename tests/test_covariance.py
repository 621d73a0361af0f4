"""Segmented covariance bookkeeping against a shadow full-matrix filter,
block insertion/removal, and covariance-intersection fusion."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swarmnav.agent import AgentFilter
from swarmnav.buffers import HistoryBuffer, ImuBufferEntry
from swarmnav.covariance import (
    Correspondence,
    CovariancePartition,
    StaleBlockError,
    _ci_trace_objective,
    _ci_weighted_posterior,
    _golden_section,
    assemble_full,
    ci_weight,
    collaborative_update,
    insert_block_rows,
    propagate_core_only,
    remove_block_rows,
    split_full,
    sync_cross,
)
from swarmnav.filters import ImuStream, LinearMeasurement
from swarmnav.state import CORE_DIM, SystemState

rng = np.random.default_rng(31)


def random_spd(dim, scale=1.0):
    A = rng.standard_normal((dim, dim))
    return scale * (A @ A.T / dim + np.eye(dim))


def make_partition(d_vis):
    dim = CORE_DIM + d_vis
    P = random_spd(dim)
    part = CovariancePartition(P[:CORE_DIM, :CORE_DIM].copy(), d_vis)
    split_full(part, P)
    return part, P


def test_assemble_split_roundtrip():
    part, P = make_partition(12)
    assert np.allclose(assemble_full(part), P, atol=1e-12)


def test_assemble_raises_when_stale():
    # The core took a step and no sync followed: the cross block owes the
    # step's transition, so assembling it now would pair a stale cross block
    # with a propagated core.
    part, _ = make_partition(6)
    propagate_core_only(part, np.eye(CORE_DIM) * 0.9, np.zeros((CORE_DIM, CORE_DIM)))
    with pytest.raises(StaleBlockError):
        assemble_full(part)


def test_assemble_without_sensor_columns_needs_no_sync():
    # With no sensor columns there is no cross block to owe a transition, so
    # a step leaves the covariance whole although the state clock has moved
    # past the last sync.
    ag = AgentFilter(SystemState.identity(), np.eye(CORE_DIM) * 0.01, "liekf")
    ag.propagate(ImuStream(np.array([0.005]), np.zeros((1, 3)), np.array([[0.0, 0.0, 9.81]])))
    assert ag.partition.synced_at < ag.state.timestamp
    assert np.array_equal(assemble_full(ag.partition), ag.partition.core)


def test_lazy_sync_matches_shadow_full_filter():
    # Core-only propagation with deferred cross-block sync must reproduce
    # the covariance a full-matrix filter maintains eagerly, including
    # core-block updates (Lambda factors) interleaved with the transitions.
    # The synced cross block must also equal, bit for bit, the reference
    # that chains the same F's out of a history buffer at each sync.
    d_vis = 9
    part, P = make_partition(d_vis)
    imu_buf = HistoryBuffer(capacity=50)
    chained = part.cross.copy()
    t_synced = 0.0
    P_shadow = P.copy()
    t = 0.0

    def sync(t):
        nonlocal chained, t_synced
        sync_cross(part, imu_buf, None, "visual", t)
        op = np.eye(CORE_DIM)
        for e in imu_buf.range_after(t_synced, t):
            op = e.F @ op
        chained, t_synced = op @ chained, t
        assert np.array_equal(part.cross, chained)

    for k in range(12):
        t = round(t + 0.01, 9)
        F = np.eye(CORE_DIM) + 0.02 * rng.standard_normal((CORE_DIM, CORE_DIM))
        G = rng.standard_normal((CORE_DIM, 6))
        Q = np.diag(rng.uniform(0.001, 0.01, 6))
        propagate_core_only(part, F, G @ Q @ G.T)
        imu_buf.push(ImuBufferEntry(F, G @ Q @ G.T, round(t - 0.01, 9), t,
                                    ImuStream(np.array([t]), np.zeros((1, 3)), np.zeros((1, 3)))))
        F_full = np.eye(CORE_DIM + d_vis)
        F_full[:CORE_DIM, :CORE_DIM] = F
        P_shadow = F_full @ P_shadow @ F_full.T
        P_shadow[:CORE_DIM, :CORE_DIM] += G @ Q @ G.T
        if k in (4, 9):
            # A core update: sync the cross block, then multiply it by
            # Lambda on the left in place, as the partitioned update does.
            Lam = np.eye(CORE_DIM) - 0.05 * random_spd(CORE_DIM, 0.1)
            sync(t)
            part.core = Lam @ part.core @ Lam.T
            part.cross = Lam @ part.cross
            chained = Lam @ chained
            L_full = np.eye(CORE_DIM + d_vis)
            L_full[:CORE_DIM, :CORE_DIM] = Lam
            P_shadow = L_full @ P_shadow @ L_full.T
    sync(t)
    assert part.owed is None
    got = assemble_full(part)
    ref = (P_shadow + P_shadow.T) / 2
    assert np.max(np.abs(got - ref)) / np.abs(ref).max() < 1e-12


def test_sync_cross_no_op_and_backwards():
    part, _ = make_partition(3)
    buf = HistoryBuffer(capacity=5)
    before = part.cross.copy()
    sync_cross(part, buf, None, "visual", part.synced_at)
    assert np.array_equal(part.cross, before)
    with pytest.raises(ValueError):
        sync_cross(part, buf, None, "visual", part.synced_at - 1.0)
    # Updates correct the cross block in place; the third slot takes only
    # None, and the one sensor block is "visual".
    with pytest.raises(TypeError):
        sync_cross(part, buf, [buf], "visual", part.synced_at)
    with pytest.raises(ValueError):
        sync_cross(part, buf, None, "gnss", part.synced_at)
    assert part.last_sync == {"visual": 0.0}


def test_propagate_core_only_leaves_cross_alone():
    part, _ = make_partition(6)
    core_before = part.core.copy()
    cross_before = part.cross.copy()
    F = np.eye(CORE_DIM) * 0.9
    propagate_core_only(part, F, np.zeros((CORE_DIM, CORE_DIM)))
    assert np.array_equal(part.cross, cross_before)
    assert np.allclose(part.core, F @ core_before @ F.T, atol=1e-12)


def test_insert_block_rows_clone_jacobian():
    # Growing the block with new states e_new = J e_core must match the
    # same operation done on the assembled matrix.
    part, P = make_partition(6)
    J = rng.standard_normal((6, CORE_DIM))
    insert_block_rows(part, 6, J)
    dim = CORE_DIM + 6
    A = np.zeros((dim + 6, dim))
    A[:dim, :dim] = np.eye(dim)
    A[dim:, :CORE_DIM] = J
    ref = A @ P @ A.T  # new rows appended at the end of the block
    assert np.allclose(assemble_full(part), ref, atol=1e-10)


def test_insert_block_rows_in_middle():
    part, P = make_partition(6)
    J = rng.standard_normal((3, CORE_DIM))
    insert_block_rows(part, 3, J)
    full = assemble_full(part)
    # Rows CORE+3..CORE+6 are the new states.
    sl_new = slice(CORE_DIM + 3, CORE_DIM + 6)
    assert np.allclose(full[sl_new, :CORE_DIM], J @ P[:CORE_DIM, :CORE_DIM],
                       atol=1e-10)
    assert np.allclose(full[sl_new, sl_new], J @ P[:CORE_DIM, :CORE_DIM] @ J.T,
                       atol=1e-10)
    # The old block entries are untouched, just shifted.
    assert np.allclose(full[CORE_DIM:CORE_DIM + 3, CORE_DIM:CORE_DIM + 3],
                       P[CORE_DIM:CORE_DIM + 3, CORE_DIM:CORE_DIM + 3])


def test_insert_block_rows_with_prior():
    part, P = make_partition(3)
    prior = np.diag([4.0, 4.0, 9.0])
    insert_block_rows(part, 3, None, prior=prior)
    full = assemble_full(part)
    sl = slice(CORE_DIM + 3, CORE_DIM + 6)
    assert np.allclose(full[sl, sl], prior)
    assert np.allclose(full[sl, :CORE_DIM + 3], 0.0)


def test_remove_block_rows():
    part, P = make_partition(9)
    remove_block_rows(part, 3, 3)
    keep = np.r_[0:CORE_DIM + 3, CORE_DIM + 6:CORE_DIM + 9]
    assert np.allclose(assemble_full(part), P[np.ix_(keep, keep)], atol=1e-12)


# ----------------------------------------------------------------------
# covariance intersection


def test_golden_section_quadratic():
    for c in (0.1, 0.5, 0.9):
        x = _golden_section(lambda w: (w - c) ** 2)
        assert abs(x - c) < 1e-6
    # Monotone objective: the optimum sits on an interval end.
    assert _golden_section(lambda w: w) == 0.0
    assert _golden_section(lambda w: -w) == 1.0


def ci_update(x_local, P_local, x_remote, P_remote):
    """One CI update as `collaborative_update` applies it: the remote
    estimate is a direct measurement (H = I) of the local one. Returns the
    fused mean, covariance and weight; a weight with no usable update
    leaves the local estimate as it is."""
    meas = LinearMeasurement(x_remote - x_local, np.eye(len(x_local)), P_remote)
    w = ci_weight(P_local, meas)
    step = _ci_weighted_posterior(P_local, meas, w)
    if step is None:
        return x_local, P_local, w
    return x_local + step.xi, step.P_post, w


def test_ci_fuse_identical_inputs_idempotent():
    P = random_spd(3)
    x = rng.standard_normal(3)
    mean, cov, _ = ci_update(x, P, x, P)
    assert np.allclose(mean, x, atol=1e-9)
    assert np.allclose(cov, P, atol=1e-9)


def test_ci_fuse_prefers_tighter_estimate():
    Pa = np.eye(3) * 0.01
    Pb = np.eye(3) * 100.0
    xa = np.zeros(3)
    xb = np.ones(3) * 5.0
    mean, cov, w = ci_update(xa, Pa, xb, Pb)
    assert w > 0.99
    assert np.linalg.norm(mean - xa) < 0.1
    assert np.trace(cov) <= np.trace(Pa) * 1.0001


def test_ci_fuse_never_overconfident():
    # The fused information never exceeds the sum of the inputs', and the
    # weight search never ends above the trace of either input.
    for _ in range(10):
        Pa, Pb = random_spd(3), random_spd(3)
        _, cov, _ = ci_update(np.zeros(3), Pa, np.zeros(3), Pb)
        I_f = np.linalg.inv(cov)
        I_sum = np.linalg.inv(Pa) + np.linalg.inv(Pb)
        assert np.all(np.linalg.eigvalsh(I_sum - I_f) > -1e-9)
        assert np.trace(cov) <= max(np.trace(Pa), np.trace(Pb)) + 1e-9


def test_ci_fuse_validates_inputs():
    # A remote covariance of the wrong dimension, or not positive definite.
    with pytest.raises(ValueError):
        ci_update(np.zeros(3), np.eye(3), np.zeros(3), np.eye(2))
    with pytest.raises(ValueError):
        ci_update(np.zeros(3), np.eye(3), np.zeros(3), -np.eye(3))


def test_collaborative_update_rejects_unknown_landmark():
    class Stub:
        pass

    from swarmnav.state import SystemState

    ag = Stub()
    ag.state = SystemState.identity()
    with pytest.raises(ValueError):
        collaborative_update(ag, [Correspondence(7, np.zeros(3), np.eye(3))])
    with pytest.raises(ValueError):
        collaborative_update(ag, [])


def test_ci_trace_objective_matches_full_update():
    # The closed-form weight objective must equal the trace of the actual
    # CI-weighted posterior computed the expensive way.
    P = random_spd(20)
    H = np.zeros((3, 20))
    H[:, 9:12] = np.eye(3)
    H[:, 0:3] = 0.3 * rng.standard_normal((3, 3))
    meas = LinearMeasurement(rng.standard_normal(3), H, random_spd(3, 0.1))
    f = _ci_trace_objective(P, meas)
    for w in (1e-3, 0.1, 0.37, 0.5, 0.82, 0.999):
        r = _ci_weighted_posterior(P, meas, w)
        assert r is not None
        assert np.isclose(f(w), np.trace(r.P_post), rtol=1e-9), w
    assert f(1.0) == np.trace(P)
    assert f(1e-8) == np.inf


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(3, 30),
       rows=st.integers(1, 6), w=st.floats(1e-6, 1.0 - 1e-8))
def test_ci_trace_objective_eigenbasis_matches_direct_solve(seed, dim, rows, w):
    from swarmnav.covariance import _ci_trace_objective
    from swarmnav.filters import LinearMeasurement

    rg = np.random.default_rng(seed)
    A = rg.standard_normal((dim, dim))
    P = A @ A.T / dim + 0.05 * np.eye(dim)
    H = rg.standard_normal((rows, dim))
    B = rg.standard_normal((rows, rows))
    R = B @ B.T / rows + 0.05 * np.eye(rows)
    f = _ci_trace_objective(P, LinearMeasurement(np.zeros(rows), H, R))
    # The formula the eigenbasis form replaces: one solve per weight.
    PHt = P @ H.T
    S = H @ PHt / w + R / (1.0 - w)
    direct = np.trace(P) / w - np.trace(PHt @ np.linalg.solve(S, PHt.T)) / w ** 2
    assert np.isclose(f(w), direct, rtol=1e-8, atol=1e-10 * np.trace(P) / w)


@settings(deadline=None, max_examples=80, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(3, 126),
       log_scale=st.floats(-3.0, 3.0))
def test_the_trace_bound_settles_the_no_op_exactly(seed, dim, log_scale):
    # With tr(P H' R^-1 H P) <= tr(P) no weight in (0, 1) lowers the trace,
    # so `ci_weight` returns the no-op 1 without a search; when the bound
    # fails, some weight does lower it.
    rg = np.random.default_rng(seed)
    A = rg.standard_normal((dim, dim))
    P = A @ A.T / dim + 0.05 * np.eye(dim)
    H = rg.standard_normal((3, dim))
    B = rg.standard_normal((3, 3))
    R = 10.0 ** log_scale * (B @ B.T / 3 + 0.05 * np.eye(3))
    meas = LinearMeasurement(np.zeros(3), H, R)
    bound = np.trace(P @ H.T @ np.linalg.solve(R, H @ P))
    tp = np.trace(P)
    f = _ci_trace_objective(P, meas)
    grid = np.concatenate([np.linspace(0.0, 1.0, 202)[1:-1], 1.0 - np.logspace(-1, -12, 60)])
    values = np.array([f(w) for w in grid])
    if bound <= tp:
        assert ci_weight(P, meas) == 1.0
        assert np.all(values[:200] >= tp * (1.0 - 1e-12))
    elif bound > tp * (1.0 + 1e-6):  # a dip too shallow to resolve is left out
        assert values.min() < tp


def test_the_bound_decides_before_the_search(monkeypatch):
    # A correspondence the bound settles never reaches the objective, so a
    # tracer that counts the objective's evaluations counts only searches.
    import swarmnav.covariance as cov
    searched = []
    objective = cov._ci_trace_objective
    monkeypatch.setattr(cov, "_ci_trace_objective",
                        lambda P, meas: searched.append(1) or objective(P, meas))
    P = np.diag([1.0, 2.0, 0.5])
    vague = LinearMeasurement(np.zeros(3), np.eye(3), 100.0 * np.eye(3))
    assert ci_weight(P, vague) == 1.0 and not searched
    sharp = LinearMeasurement(np.zeros(3), np.eye(3), 0.01 * np.eye(3))
    assert 0.0 < ci_weight(P, sharp) < 1.0 and searched == [1]
