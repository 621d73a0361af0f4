"""End-to-end acceptance checks. Each test prints one summary line, so a
verbose run doubles as a results table for the whole benchmark set."""

import bisect
import contextlib
import functools
import os
import time

import numpy as np
import pytest

from swarmnav import scenarios
from swarmnav.agent import AgentFilter
from swarmnav.buffers import HistoryBuffer, ImuBufferEntry, repropagate
from swarmnav.covariance import (
    _ci_trace_objective,
    _ci_weighted_posterior,
    _golden_section,
    Correspondence,
    compose_transport,
)
from swarmnav.filters import (
    ImuStream,
    LinearMeasurement,
    feature_world_position,
    gnss_measurement,
    kalman_step,
    landmark_position_measurement,
    mechanize,
    transition,
    transition_left,
)
from swarmnav.gate import adaptive_k
from swarmnav.lie import ExtendedPose, so3_exp
from swarmnav.metrics import nees
from swarmnav.scenarios import default_suite, gate_config, noiseless_config
from swarmnav.sensors import synthesize_gnss, synthesize_imu
from swarmnav.sim import run_swarm
from swarmnav.state import CORE_DIM, SystemState, retract
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
        timestamp=0.0,
    )


def test_a1_left_transition_state_independent():
    # The left-invariant transition matrix may not depend on the state it is
    # linearized around; the right-invariant one must.
    rg = np.random.default_rng(2024)
    differing = 0
    for _ in range(1000):
        gyro, accel = rg.uniform(-1, 1, 3), rg.uniform(-12, 12, 3)
        dt = rg.uniform(1e-3, 1e-2)
        refs = []
        rights = []
        for _ in range(10):
            state = _random_state(rg)
            T = transition("liekf", state, gyro, accel, dt)
            refs.append((T.F.tobytes(), T.G.tobytes()))
            rights.append(transition("riekf", state, gyro, accel, dt).F)
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
    # 100 ms GNSS latency at 200 Hz IMU over 30 s. Both filters take the IMU
    # samples between events as one segment, as the simulator's cursor
    # hands them over, so the buffer holds composed 20-sample segments. The
    # buffered transport is compared against a rewind-and-replay reference
    # that redoes the epoch update and then re-propagates every step,
    # recomputing the transitions and rebuilding the history buffer from
    # them, one entry per segment. The timed quantity is the covariance
    # re-propagation of each delayed update (stored-matrix products vs
    # recomputing every transition); the mean replay is shared by both
    # schemes and excluded.
    spec = TrajectorySpec(kind="circle", speed=2.0, size=20.0, duration=30.0)
    suite = default_suite()
    imu = synthesize_imu(spec, suite, seed=71)
    fixes = synthesize_gnss(spec, suite, seed=72)
    pose0, _, _ = truth_at(spec, 0.0)
    state0 = SystemState(nav=pose0, gyro_bias=np.zeros(3),
                         accel_bias=np.zeros(3),
                         lever_arm=np.asarray(suite.lever_arm, dtype=float),
                         timestamp=0.0)
    P0 = np.diag(np.concatenate([np.full(9, 0.01), np.full(6, 1e-4),
                                 np.full(3, 1e-4)]))
    noise = suite.noise
    delay = 0.1

    fast = AgentFilter(state0, P0.copy(), "liekf", noise=noise)
    slow = AgentFilter(state0, P0.copy(), "liekf", noise=noise)

    # kind 0 = a fix epoch (snapshot), 1 = completion of the fix taken
    # delay ago; before each event, both filters propagate the pending
    # samples up to its time as one segment.
    events = [(round(f.timestamp, 9), 0, f) for f in fixes]
    events += [(round(f.timestamp + delay, 9), 1, f) for f in fixes
               if f.timestamp + delay <= spec.duration + 1e-9]
    events.sort(key=lambda e: (e[0], e[1]))
    imu_times = [round(t, 9) for t in imu.times.tolist()]
    done = 0

    snap_fast = {}
    snap_slow = {}
    t_fast = 0.0
    t_slow = 0.0
    n_updates = 0
    for t, kind, payload in events:
        upto = bisect.bisect_right(imu_times, t, lo=done)
        if upto > done:
            fast.propagate(imu[done:upto])
            slow.propagate(imu[done:upto])
            done = upto
        if kind == 0:
            snap_fast[t] = fast.snapshot()
            snap_slow[t] = slow.snapshot()
        else:
            t_k = round(payload.timestamp, 9)
            z = payload.position

            state_k, part_k = snap_slow[t_k]
            replay = list(slow.imu_buffer.range_after(state_k.timestamp,
                                                      slow.state.timestamp))
            meas = gnss_measurement(state_k, z, suite.gnss_sigma, "liekf")
            step = kalman_step(part_k.core, LinearMeasurement(
                meas.residual, meas.H, meas.noise_cov))
            P_epoch, xi = step.P_post, step.xi

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
                Fs, Qs = [], []
                seg = entry.samples
                for t_s, gyro, accel in zip(seg.times.tolist(), seg.gyro, seg.accel):
                    dt = t_s - prev_t
                    prev_t = t_s
                    T = transition_left(gyro[None], accel[None], np.array([dt]))
                    F, G = T.F[0], T.G[0]
                    GQG = G @ noise.discrete_q(dt) @ G.T
                    P = F @ P @ F.T + GQG
                    Fs.append(F)
                    Qs.append(GQG)
                mats.append((Fs, Qs))
            P = (P + P.T) / 2.0
            t_slow += time.perf_counter() - tic

            # Untimed in both schemes: the mean is re-mechanized through the
            # buffered samples either way, and the replay filter rebuilds its
            # history buffer, one entry per segment, from the recomputed steps.
            first = bisect.bisect_right(imu_times, t_k)
            state = mechanize(state, imu[first:done], noise.gravity).state
            rebuilt = [ImuBufferEntry(*compose_transport(np.array(Fs), np.array(Qs)),
                                      entry.start, entry.timestamp, entry.samples)
                       for entry, (Fs, Qs) in zip(replay, mats)]

            fast.update_gnss_delayed(z, suite.gnss_sigma, snap_fast[t_k])

            slow.state = state
            slow.partition.core = P
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
                         timestamp=0.0)
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
    for k in range(1000):  # 5 s at 200 Hz, one sample per call
        s = imu[k:k + 1]
        t_s = float(s.times[0])
        dt = t_s - ag.state.timestamp
        T = transition("liekf", ag.state, s.gyro[0], s.accel[0], dt, suite.noise.gravity)
        ag.propagate(s)
        d = shadow.shape[0]
        F = np.eye(d)
        F[:CORE_DIM, :CORE_DIM] = T.F
        shadow = F @ shadow @ F.T
        shadow[:CORE_DIM, :CORE_DIM] += \
            T.G @ suite.noise.discrete_q(dt) @ T.G.T
        if next_fix is not None and \
                abs(next_fix.timestamp - t_s) < 1e-9:
            meas = gnss_measurement(ag.state, next_fix.position,
                                    suite.gnss_sigma, "liekf")
            H = np.zeros((3, d))
            H[:, :CORE_DIM] = meas.H
            shadow = kalman_step(shadow, LinearMeasurement(
                meas.residual, H, meas.noise_cov)).P_post
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

    ag.add_feature(0, ag.state.num_clones - 1, np.array([0.05, -0.02, 0.08]),
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
    shadow_after = shadow if r is None else r.P_post
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
            t = 0.005 * (k + 1)
            e = ImuBufferEntry(F, G @ Q @ G.T, 0.005 * k, t,
                               ImuStream(np.array([t]), np.zeros((1, 3)), np.zeros((1, 3))))
            entries.append(e)
            buf.push(e)
        A = rg.standard_normal((18, 18))
        P = A @ A.T + np.eye(18)
        xi = rg.standard_normal(18)
        P_ref, xi_ref = P.copy(), xi.copy()
        for e in entries:
            P_ref = e.F @ P_ref @ e.F.T + e.noise
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


def _ci_update_fuse(e_local, Pa, e_remote, Pb):
    """The path collaborative_update runs: the closed-form trace objective
    and the CI-weighted Kalman step, with the remote estimate as a direct
    measurement of the local state (H = I). Returns (error, cov, skipped)."""
    meas = LinearMeasurement(e_remote - e_local, np.eye(len(e_local)), Pb)
    w = _golden_section(_ci_trace_objective(Pa, meas))
    step = _ci_weighted_posterior(Pa, meas, w)
    if step is None:
        return e_local, Pa, True  # collaborative_update leaves the estimate alone
    return e_local + step.xi, step.P_post, False


@functools.lru_cache(maxsize=None)
def _ci_update_sweep(trials=5000):
    """Worst mean NEES of _ci_update_fuse over the three correlations, and
    how many trials it left as the local estimate. Cached so A8 and A8u,
    which both read it, draw the trials once per session."""
    skipped = 0

    def fuse(e_local, Pa, e_remote, Pb):
        nonlocal skipped
        e, P, left = _ci_update_fuse(e_local, Pa, e_remote, Pb)
        skipped += left
        return e, P

    return _worst_fused_nees(fuse, trials), skipped


def test_a8_ci_never_overconfident():
    dim = 3
    trials = 5000
    bound = dim + 3.0 * np.sqrt(2.0 * dim / trials)
    worst, skipped = _ci_update_sweep(trials)
    detail = (f"fused NEES stays consistent for correlations -0.9/0/+0.9: "
              f"worst mean {worst:.3f} <= {bound:.3f} ({trials} trials each, "
              f"{skipped} left as the local estimate)")
    P = np.diag([1.0, 2.0, 0.5])
    x = np.array([0.3, -0.7, 1.1])
    mean, cov, _ = _ci_update_fuse(x, P, x, P)
    idem = np.allclose(mean, x, atol=1e-9) and np.allclose(cov, P, atol=1e-9)
    report("A8", worst <= bound and idem,
           f"{detail}; idempotent on identical inputs: {idem}")


def test_a8_ci_update_path_never_overconfident():
    # The NEES bound alone, on the path collaborative_update runs; A8 adds
    # idempotence. Both read the one cached sweep.
    dim = 3
    trials = 5000
    bound = dim + 3.0 * np.sqrt(2.0 * dim / trials)
    worst, skipped = _ci_update_sweep(trials)
    report("A8u", worst <= bound,
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
