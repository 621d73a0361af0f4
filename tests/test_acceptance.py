"""End-to-end acceptance checks. Each test prints one summary line, so a
verbose run doubles as a results table for the whole benchmark set."""

import contextlib
import os
import time

import numpy as np
import pytest

from swarmnav import scenarios
from swarmnav.agent import AgentFilter
from swarmnav.buffers import HistoryBuffer, ImuBufferEntry, repropagate
from swarmnav.covariance import (
    _REJECTED,
    _ci_trace_objective,
    _ci_weighted_posterior,
    _golden_section,
    Correspondence,
    ci_fuse,
)
from swarmnav.filters import (
    ImuSample,
    LinearMeasurement,
    feature_world_position,
    gnss_measurement,
    kalman_step,
    landmark_position_measurement,
    mechanize,
    transition,
)
from swarmnav.gate import adaptive_k
from swarmnav.lie import ExtendedPose, so3_exp
from swarmnav.metrics import nees
from swarmnav.scenarios import default_suite, gate_config, noiseless_config
from swarmnav.sensors import synthesize_gnss, synthesize_imu
from swarmnav.sim import run_swarm
from swarmnav.state import CORE_DIM, Feature, SystemState, retract
from swarmnav.trajectories import TrajectorySpec, truth_at


_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_report(capsys):
    # Let report() write through pytest's capture so the per-criterion
    # summary lines appear even in a plain verbose run.
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def report(tag, ok, detail):
    ctx = _CAPTURE.disabled() if _CAPTURE is not None else contextlib.nullcontext()
    with ctx:
        print(f"\n[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def _random_state(rg):
    return SystemState(
        nav=ExtendedPose(so3_exp(rg.uniform(-2, 2, 3)), rg.uniform(-5, 5, 3),
                         rg.uniform(-50, 50, 3)),
        gyro_bias=0.01 * rg.standard_normal(3),
        accel_bias=0.05 * rg.standard_normal(3),
        lever_arm=np.array([0.1, 0.0, 0.05]),
        clones=(), features=(), timestamp=0.0,
    )


def test_a1_left_transition_state_independent():
    # The left-invariant transition matrix may not depend on the state it is
    # linearized around; the right-invariant one must.
    rg = np.random.default_rng(2024)
    differing = 0
    for _ in range(1000):
        imu = ImuSample(rg.uniform(-1, 1, 3), rg.uniform(-12, 12, 3), 0.0)
        dt = rg.uniform(1e-3, 1e-2)
        refs = []
        rights = []
        for _ in range(10):
            state = _random_state(rg)
            T = transition("liekf", state, imu, dt)
            refs.append((T.F.tobytes(), T.G.tobytes()))
            rights.append(transition("riekf", state, imu, dt).F)
        assert all(r == refs[0] for r in refs)
        spread = max(np.max(np.abs(rights[i] - rights[0])) for i in range(1, 10))
        if spread > 1e-6:
            differing += 1
    ok = differing >= 990
    report("A1", ok,
           "left transition byte-identical across 10 random linearization "
           f"states for all 1000 samples; right transition differs by more "
           f"than 1e-6 in {differing}/1000 cases (need >= 990)")


def test_a2_monte_carlo_consistency():
    r = scenarios.consistency(50)
    (lo, hi), (lp, la), (ep, ea) = r.interval, r.liekf, r.ekf
    report("A2", r.passed,
           f"95% interval [{lo:.3f}, {hi:.3f}] over {r.runs} runs; "
           f"liekf ANEES pos {lp:.3f} att {la:.3f} (in band: {r.in_band}); "
           f"ekf pos {ep:.3f} att {ea:.3f} (larger deviation: {r.ordering})")


def test_a3_delayed_update_matches_rewind_replay():
    # 100 ms GNSS latency at 200 Hz IMU over 30 s. The buffered transport is
    # compared against a rewind-and-replay reference that redoes the epoch
    # update and then re-propagates every step, recomputing the transitions
    # and rebuilding the history buffer. The timed quantity is the
    # covariance re-propagation of each delayed update (stored-matrix
    # products vs recomputing every transition); the mean replay is shared
    # by both schemes and excluded.
    spec = TrajectorySpec(kind="circle", speed=2.0, size=20.0, duration=30.0)
    suite = default_suite()
    imu = synthesize_imu(spec, suite, seed=71)
    fixes = synthesize_gnss(spec, suite, seed=72)
    pose0, _, _ = truth_at(spec, 0.0)
    state0 = SystemState(nav=pose0, gyro_bias=np.zeros(3),
                         accel_bias=np.zeros(3),
                         lever_arm=np.asarray(suite.lever_arm, dtype=float),
                         clones=(), features=(), timestamp=0.0)
    P0 = np.diag(np.concatenate([np.full(9, 0.01), np.full(6, 1e-4),
                                 np.full(3, 1e-4)]))
    noise = suite.noise
    delay = 0.1

    fast = AgentFilter(state0, P0.copy(), "liekf", noise=noise)
    slow = AgentFilter(state0, P0.copy(), "liekf", noise=noise)

    fix_epochs = {round(f.timestamp, 9) for f in fixes}
    # payload kind 0 = IMU sample, 1 = completion of the fix taken delay ago
    events = [(round(s.timestamp, 9), 0, s) for s in imu]
    events += [(round(f.timestamp + delay, 9), 1, f) for f in fixes
               if f.timestamp + delay <= spec.duration + 1e-9]
    events.sort(key=lambda e: (e[0], e[1]))

    snap_fast = {}
    snap_slow = {}
    t_fast = 0.0
    t_slow = 0.0
    n_updates = 0
    for t, kind, payload in events:
        if kind == 0:
            fast.propagate(payload)
            slow.propagate(payload)
            if t in fix_epochs:
                snap_fast[t] = fast.snapshot()
                snap_slow[t] = slow.snapshot()
        else:
            t_k = round(payload.timestamp, 9)
            z = payload.position

            state_k, part_k = snap_slow[t_k]
            replay = list(slow.imu_buffer.range_after(state_k.timestamp,
                                                      slow.state.timestamp))
            meas = gnss_measurement(state_k, z, suite.gnss_sigma, "liekf")
            _, _, P_epoch, xi = kalman_step(part_k.core, LinearMeasurement(
                meas.residual, meas.H[:, :CORE_DIM], meas.noise_cov,
                state_k.timestamp))

            # Timed, buffered path: transport through the stored transitions.
            tic = time.perf_counter()
            repropagate(slow.imu_buffer, P_epoch, xi, state_k.timestamp,
                        slow.state.timestamp)
            t_fast += time.perf_counter() - tic

            # Timed, replay path: recompute every transition from the
            # corrected state and re-propagate.
            P = P_epoch
            state = retract(state_k, xi, "liekf")
            mats = []
            tic = time.perf_counter()
            prev_t = state_k.timestamp
            for entry in replay:
                dt = entry.timestamp - prev_t
                prev_t = entry.timestamp
                T = transition("liekf", state, entry.imu, dt, noise.gravity)
                Q = noise.discrete_q(dt)
                P = T.F @ P @ T.F.T + T.G @ Q @ T.G.T
                mats.append((T, Q, P.copy()))
            P = (P + P.T) / 2.0
            t_slow += time.perf_counter() - tic

            # Untimed in both schemes: the mean is re-mechanized through the
            # buffered samples either way, and the replay filter rebuilds its
            # history buffer from the recomputed steps.
            state = mechanize(state, [entry.imu for entry in replay],
                              noise.gravity).state
            rebuilt = [ImuBufferEntry(T.F, T.G, Q, entry.timestamp, entry.imu)
                       for entry, (T, Q, _) in zip(replay, mats)]

            fast.update_gnss_delayed(z, suite.gnss_sigma, snap_fast[t_k],
                                     fast.state.timestamp)

            slow.state = state
            slow.partition.core = P
            slow.partition.timestamp = state.timestamp
            slow.partition.synced_at = state.timestamp
            offset = len(slow.imu_buffer.entries) - len(rebuilt)
            for j, entry in enumerate(rebuilt):
                slow.imu_buffer.entries[offset + j] = entry
            n_updates += 1

    def rel(a, b):
        return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1.0)

    state_rel = max(rel(fast.state.nav.position, slow.state.nav.position),
                    rel(fast.state.nav.velocity, slow.state.nav.velocity),
                    rel(fast.state.nav.rotation, slow.state.nav.rotation))
    cov_rel = np.max(np.abs(fast.partition.core - slow.partition.core)) \
        / np.max(np.abs(slow.partition.core))
    speedup = t_slow / max(t_fast, 1e-12)
    ok = state_rel < 1e-8 and cov_rel < 1e-8 and speedup >= 5.0
    report("A3", ok,
           f"{n_updates} delayed updates: state diff {state_rel:.2e}, "
           f"covariance diff {cov_rel:.2e} (tol 1e-8); buffered transport "
           f"{speedup:.1f}x faster per update than rewind-and-replay "
           f"(need >= 5x)")


def test_a4_segmentation_equivalence_and_speed():
    # Part 1: 5 s of mixed operation (propagation, 50 GNSS updates, clone
    # augmentations, one landmark, one collaborative constraint) mirrored
    # step by step on a dense full-covariance shadow.
    suite = default_suite()
    spec = TrajectorySpec(kind="circle", speed=2.0, size=20.0, duration=6.0)
    imu = synthesize_imu(spec, suite, seed=81)
    fixes = synthesize_gnss(spec, suite, seed=82)
    pose0, _, _ = truth_at(spec, 0.0)
    state0 = SystemState(nav=pose0, gyro_bias=np.zeros(3),
                         accel_bias=np.zeros(3),
                         lever_arm=np.asarray(suite.lever_arm, dtype=float),
                         clones=(), features=(), timestamp=0.0)
    P0 = np.diag(np.concatenate([np.full(9, 0.01), np.full(6, 1e-4),
                                 np.full(3, 1e-4)]))
    ag = AgentFilter(state0, P0.copy(), "liekf", noise=suite.noise,
                     camera_extrinsics=suite.camera_extrinsics, max_clones=4)
    shadow = P0.copy()

    fix_iter = iter(fixes[:50])
    next_fix = next(fix_iter)
    updates = 0
    clones_added = 0
    clone_at = {5, 15, 25}
    for s in imu[:1000]:  # 5 s at 200 Hz
        dt = s.timestamp - ag.state.timestamp
        T = transition("liekf", ag.state, s, dt, suite.noise.gravity)
        ag.propagate(s)
        d = shadow.shape[0]
        F = np.eye(d)
        F[:CORE_DIM, :CORE_DIM] = T.F
        shadow = F @ shadow @ F.T
        shadow[:CORE_DIM, :CORE_DIM] += \
            T.G @ suite.noise.discrete_q(dt) @ T.G.T
        if next_fix is not None and \
                abs(next_fix.timestamp - s.timestamp) < 1e-9:
            meas = gnss_measurement(ag.state, next_fix.position,
                                    suite.gnss_sigma, "liekf")
            H = np.zeros((3, d))
            H[:, :CORE_DIM] = meas.H[:, :CORE_DIM]
            _, _, shadow, _ = kalman_step(shadow, LinearMeasurement(
                meas.residual, H, meas.noise_cov, s.timestamp))
            ag.update_gnss(next_fix.position, suite.gnss_sigma)
            updates += 1
            next_fix = next(fix_iter, None)
        if updates in clone_at:
            clone_at.discard(updates)
            d = shadow.shape[0]
            J = ag._clone_jacobian()
            A = np.zeros((d + 6, d))
            A[:d, :d] = np.eye(d)
            A[d:, :CORE_DIM] = J
            shadow = A @ shadow @ A.T
            ag.augment_clone()
            clones_added += 1

    anchor = ag.state.clones[-1]
    ag.add_feature(Feature(0, anchor.timestamp, np.array([0.05, -0.02, 0.08])),
                   prior_sigma=1.0)
    d = shadow.shape[0]
    grown = np.zeros((d + 3, d + 3))
    grown[:d, :d] = shadow
    grown[d:, d:] = np.eye(3)
    shadow = grown

    p_w, _ = feature_world_position(ag.state, 0)
    remote = Correspondence(0, p_w + np.array([0.1, -0.05, 0.2]),
                            0.25 * np.eye(3))
    meas = landmark_position_measurement(ag.state, 0, remote.remote_position,
                                         remote.remote_cov)

    w = _golden_section(_ci_trace_objective(shadow, meas))
    r = _ci_weighted_posterior(shadow, meas, w)
    shadow_after = r[2] if isinstance(r, tuple) else shadow
    applied = ag.update_collaborative([remote])
    assert applied == 1
    got = ag.full_covariance()
    rel = np.linalg.norm(got - shadow_after) / np.linalg.norm(shadow_after)

    # Part 2: propagation cost with a wide window, segmented vs dense.
    seg = scenarios.segmentation()

    ok = rel < 1e-9 and seg.passed
    report("A4", ok,
           f"segmented vs dense shadow over 5 s ({updates} GNSS updates, "
           f"{clones_added} clones, 1 landmark, 1 collaborative update): "
           f"relative Frobenius {rel:.2e} (tol 1e-9); core-only propagation "
           f"{seg.ratio:.1f}x faster at M={seg.clones}, N={seg.features} (need >= 3x)")


def test_a5_repropagation_algebra():
    rg = np.random.default_rng(55)
    worst = 0.0
    for _ in range(100):
        buf = HistoryBuffer(capacity=10)
        entries = []
        for k in range(5):
            F = np.eye(18) + 0.02 * rg.standard_normal((18, 18))
            G = rg.standard_normal((18, 12))
            Q = np.diag(rg.uniform(1e-4, 1e-2, 12))
            e = ImuBufferEntry(F, G, Q, 0.005 * (k + 1))
            entries.append(e)
            buf.push(e)
        A = rg.standard_normal((18, 18))
        P = A @ A.T + np.eye(18)
        xi = rg.standard_normal(18)
        P_ref, xi_ref = P.copy(), xi.copy()
        for e in entries:
            P_ref = e.F @ P_ref @ e.F.T + e.G @ e.Q @ e.G.T
            xi_ref = e.F @ xi_ref
        P_out, xi_out, _ = repropagate(buf, P, xi, 0.0, 0.025)
        ref = (P_ref + P_ref.T) / 2
        worst = max(worst,
                    np.max(np.abs(P_out - ref)) / np.max(np.abs(ref)),
                    np.max(np.abs(xi_out - xi_ref))
                    / max(np.max(np.abs(xi_ref)), 1.0))
    ok = worst < 1e-10
    report("A5", ok,
           f"buffered transport vs chained single steps: worst relative "
           f"error {worst:.2e} over 100 random 5-step segments (tol 1e-10)")


def test_a6_gate_benchmark():
    scores = scenarios.gate()
    k0 = adaptive_k(0.0, 0.0, 5.0)

    # Sensitivity ordering: with subtle 0.5 m offsets (same injection
    # pattern in both runs), the adaptive threshold must catch at least one
    # outlier that a fixed empirical speed cap waves through.
    adaptive = run_swarm(gate_config(seed=5, outlier_magnitude=0.5))
    fixed = run_swarm(gate_config(seed=5, outlier_magnitude=0.5,
                                  fixed_threshold=10.0))
    caught_only_by_adaptive = 0
    for ra, rf in zip(adaptive.agents[0]["gate"], fixed.agents[0]["gate"]):
        if ra[5] and not ra[4] and rf[4]:
            caught_only_by_adaptive += 1
    ok = scores.passed and k0 == 3.0 and caught_only_by_adaptive >= 1
    report("A6", ok,
           f"recall {scores.recall:.3f} (>= 0.95), FPR {scores.fpr:.3f} (<= 0.05), "
           f"k at zero acceleration = {k0} (exactly 3); "
           f"{caught_only_by_adaptive} subtle outliers caught only by the "
           f"adaptive threshold (need >= 1)")


def test_a7_collaboration_benefit():
    # Aggregated over 10 seeds: single-seed ATE of the ablation is a noisy
    # aligned-shape statistic, so the comparison is on seed means.
    r = scenarios.collab(10)
    report("A7", r.passed and r.trace_on < r.trace_off,
           f"two-agent shared-landmark runs, one agent GNSS-denied, 10 "
           f"seeds: position covariance trace {r.trace_on:.3f} vs {r.trace_off:.3f}"
           f" (lower on {r.trace_lower}/10 seeds), mean ATE {r.ate_on:.3f} vs "
           f"{r.ate_off:.3f} m (within 1.05x: {r.ate_on <= 1.05 * r.ate_off})")


def _worst_fused_nees(fuse, trials):
    """Worst mean NEES, over correlations -0.9/0/+0.9 between the local and
    remote errors, of fuse(e_local, Pa, e_remote, Pb) -> (error, cov)."""
    rg = np.random.default_rng(88)
    worst = 0.0
    for rho in (-0.9, 0.0, 0.9):
        Pa = np.diag([1.0, 2.0, 0.5])
        Pb = np.diag([1.5, 0.8, 1.2])
        C = rho * np.diag(np.sqrt(np.diag(Pa) * np.diag(Pb)))
        joint = np.block([[Pa, C], [C.T, Pb]])
        L = np.linalg.cholesky(joint + 1e-12 * np.eye(6))
        vals = []
        for _ in range(trials):
            e = L @ rg.standard_normal(6)
            vals.append(nees(*fuse(e[:3], Pa, e[3:], Pb)))
        worst = max(worst, float(np.mean(vals)))
    return worst


def test_a8_ci_never_overconfident():
    dim = 3
    trials = 5000
    bound = dim + 3.0 * np.sqrt(2.0 * dim / trials)

    def fuse(e_local, Pa, e_remote, Pb):
        out = ci_fuse(e_local, Pa, e_remote, Pb)
        return out.mean, out.covariance

    worst = _worst_fused_nees(fuse, trials)
    P = np.diag([1.0, 2.0, 0.5])
    x = np.array([0.3, -0.7, 1.1])
    same = ci_fuse(x, P, x, P)
    idem = np.allclose(same.mean, x, atol=1e-9) \
        and np.allclose(same.covariance, P, atol=1e-9)
    ok = worst <= bound and idem
    report("A8", ok,
           f"fused NEES stays consistent for correlations -0.9/0/+0.9: "
           f"worst mean {worst:.3f} <= {bound:.3f} ({trials} trials each); "
           f"idempotent on identical inputs: {idem}")


def test_a8_ci_update_path_never_overconfident():
    # The simulator never calls ci_fuse: collaborative_update fuses through
    # the closed-form trace objective and the CI-weighted Kalman step. Same
    # check as A8 on that path, with the remote estimate as a direct
    # measurement of the local state (H = I).
    dim = 3
    trials = 5000
    bound = dim + 3.0 * np.sqrt(2.0 * dim / trials)
    skipped = 0

    def fuse(e_local, Pa, e_remote, Pb):
        nonlocal skipped
        meas = LinearMeasurement(e_remote - e_local, np.eye(dim), Pb, 0.0)
        w = _golden_section(_ci_trace_objective(Pa, meas))
        result = _ci_weighted_posterior(Pa, meas, w)
        if result is None or result is _REJECTED:
            skipped += 1  # collaborative_update leaves the estimate alone
            return e_local, Pa
        _, _, P_post, xi = result
        return e_local + xi, P_post

    worst = _worst_fused_nees(fuse, trials)
    ok = worst <= bound
    report("A8u", ok,
           f"CI update path NEES stays consistent for correlations -0.9/0/+0.9: "
           f"worst mean {worst:.3f} <= {bound:.3f} ({trials} trials each, "
           f"{skipped} left as the local estimate)")


def test_a9_noiseless_sanity_and_determinism(tmp_path):
    art = run_swarm(noiseless_config())
    rmse = art.agents[0]["ate"].rmse
    a = art.write(str(tmp_path / "a"))
    b = run_swarm(noiseless_config()).write(str(tmp_path / "b"))
    identical = True
    for name in sorted(os.listdir(a)):
        if name == "timing.csv":  # wall-clock numbers, excluded on purpose
            continue
        with open(os.path.join(a, name), "rb") as fa, \
             open(os.path.join(b, name), "rb") as fb:
            if fa.read() != fb.read():
                identical = False
    ok = rmse < 1e-2 and identical
    report("A9", ok,
           f"noiseless 30 s dead reckoning ATE {rmse:.2e} m (< 1e-2); "
           f"rerun artifacts byte-identical (timing excluded): {identical}")
