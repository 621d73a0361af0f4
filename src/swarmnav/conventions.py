"""The navigation error conventions and everything that depends on them.

The navigation error (attitude, velocity, position) is one of

* ``liekf``  -- left-invariant:  e = log(truth^-1 * est)
* ``riekf``  -- right-invariant: e = log(est * truth^-1)
* ``ekf``    -- body-frame attitude error with additive velocity/position

``CONVENTIONS`` maps each name to the parts of the filter that change with
it; nothing else in the package branches on the convention.

With the closed-form zero-order-hold strapdown integrator the left-invariant
transition exp(A dt) transports navigation errors through a step exactly
and depends only on the IMU sample (Barrau & Bonnabel, IEEE TAC 2017). That
makes the buffered re-propagation of delayed measurements bit-faithful.

Sign note: the bias-coupling blocks of A (left and right variants) carry the
opposite sign of the common textbook presentation because errors here are
defined estimate-minus-truth; the finite-difference tests pin the signs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.linalg import expm

from .lie import (
    ExtendedPose,
    compose,
    inverse,
    se23_exp,
    se23_log,
    skew,
    so3_exp,
    so3_gamma2,
    so3_left_jacobian,
    so3_log,
)

CORE_DIM = 18  # nav 9 + biases 6 + lever 3

NOISE_DIM = 12  # gyro white, accel white, gyro walk, accel walk

GRAVITY = np.array([0.0, 0.0, -9.81])


@dataclass(frozen=True)
class TransitionPair:
    """Discrete transition F and noise map G over the 18-dim core error."""

    F: np.ndarray
    G: np.ndarray


def _embed_core(F15, G15):
    """Lift 15-dim nav+bias matrices to the 18-dim core (lever arm static)."""
    F = np.eye(CORE_DIM)
    F[:15, :15] = F15
    G = np.zeros((CORE_DIM, NOISE_DIM))
    G[:15, :] = G15
    return F, G


def _read_only(a):
    a.flags.writeable = False
    return a


# The noise map of a left-invariant step is the same for every sample, so
# every buffered step shares this one (read-only) array.
_G_LEFT = np.zeros((CORE_DIM, NOISE_DIM))
_G_LEFT[0:3, 0:3] = np.eye(3)
_G_LEFT[3:6, 3:6] = np.eye(3)
_G_LEFT[9:15, 6:12] = np.eye(6)
_read_only(_G_LEFT)


def transition_left(samples, dts) -> list:
    """Left-invariant transitions of a segment of IMU samples, one per
    sample; each is a pure function of (gyro, accel, dt). The generators
    are stacked and exponentiated in one call."""
    dts = np.asarray(dts, dtype=float)
    if not np.all(dts > 0):
        raise ValueError("dt must be positive")
    w = np.array([s.gyro for s in samples], dtype=float)
    f = np.array([s.accel for s in samples], dtype=float)
    Sw = skew(w)
    A = np.zeros((len(dts), 15, 15))
    A[:, 0:3, 0:3] = -Sw
    A[:, 3:6, 0:3] = -skew(f)
    A[:, 3:6, 3:6] = -Sw
    A[:, 6:9, 3:6] = np.eye(3)
    A[:, 6:9, 6:9] = -Sw
    A[:, 0:3, 9:12] = -np.eye(3)
    A[:, 3:6, 12:15] = -np.eye(3)
    F = np.tile(np.eye(CORE_DIM), (len(dts), 1, 1))
    F[:, :15, :15] = expm(A * dts[:, None, None])
    return [TransitionPair(F_k, _G_LEFT) for F_k in _read_only(F)]


def transition_right(state_estimate, imu, dt, gravity=None) -> TransitionPair:
    """Right-invariant transition; depends on the state estimate."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    g = GRAVITY if gravity is None else np.asarray(gravity, dtype=float)
    R = state_estimate.nav.rotation
    v = state_estimate.nav.velocity
    p = state_estimate.nav.position
    A = np.zeros((15, 15))
    A[3:6, 0:3] = skew(g)
    A[6:9, 3:6] = np.eye(3)
    A[0:3, 9:12] = -R
    A[3:6, 9:12] = -skew(v) @ R
    A[6:9, 9:12] = -skew(p) @ R
    A[3:6, 12:15] = -R
    F15 = expm(A * dt)
    G15 = np.zeros((15, NOISE_DIM))
    G15[0:3, 0:3] = R
    G15[3:6, 0:3] = skew(v) @ R
    G15[6:9, 0:3] = skew(p) @ R
    G15[3:6, 3:6] = R
    G15[9:15, 6:12] = np.eye(6)
    F, G = _embed_core(F15, G15)
    return TransitionPair(F, G)


def _dJ1a_dpsi(psi, a):
    """Derivative of so3_left_jacobian(psi) @ a with respect to psi."""
    theta = np.linalg.norm(psi)
    Sa = skew(a)
    pxa = np.cross(psi, a)
    pxpxa = np.cross(psi, pxa)
    if theta < 1e-4:
        return -0.5 * Sa - (skew(pxa) + skew(psi) @ Sa) / 6.0
    t2 = theta * theta
    b = (1.0 - np.cos(theta)) / t2
    c = (theta - np.sin(theta)) / (t2 * theta)
    db = (theta * np.sin(theta) - 2.0 * (1.0 - np.cos(theta))) / (t2 * theta)
    dc = ((1.0 - np.cos(theta)) * theta - 3.0 * (theta - np.sin(theta))) / (t2 * t2)
    n = psi / theta
    return (
        np.outer(pxa, n) * db
        - b * Sa
        + np.outer(pxpxa, n) * dc
        + c * (-skew(pxa) - skew(psi) @ Sa)
    )


def transition_ekf(state_estimate, imu, dt) -> TransitionPair:
    """Conventional error-state EKF Jacobian of the mechanization
    (body-frame attitude error, additive velocity/position errors)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    R = state_estimate.nav.rotation
    w = imu.gyro - state_estimate.gyro_bias
    a = imu.accel - state_estimate.accel_bias
    psi = w * dt
    Gamma = so3_exp(psi)
    Jr = so3_left_jacobian(-psi)
    J1 = so3_left_jacobian(psi)
    G2 = so3_gamma2(psi)
    D1 = _dJ1a_dpsi(psi, a)
    F = np.eye(CORE_DIM)
    F[0:3, 0:3] = Gamma.T
    F[0:3, 9:12] = -Jr * dt
    F[3:6, 0:3] = -R @ skew(J1 @ a) * dt
    F[3:6, 9:12] = -R @ D1 * dt * dt
    F[3:6, 12:15] = -R @ J1 * dt
    F[6:9, 0:3] = -R @ skew(G2 @ a) * dt * dt
    F[6:9, 3:6] = np.eye(3) * dt
    F[6:9, 12:15] = -R @ G2 * dt * dt
    G = np.zeros((CORE_DIM, NOISE_DIM))
    G[0:3, 0:3] = np.eye(3)
    G[3:6, 3:6] = R
    G[9:15, 6:12] = np.eye(6)
    return TransitionPair(F, G)


def _nav_block(att, pos):
    """3x9 Jacobian [att, 0, pos] over (attitude, velocity, position)."""
    J = np.zeros((3, 9))
    J[:, 0:3] = att
    J[:, 6:9] = pos
    return J


def _ekf_error(truth: ExtendedPose, est: ExtendedPose):
    return np.concatenate([
        so3_log(truth.rotation.T @ est.rotation),
        est.velocity - truth.velocity,
        est.position - truth.position,
    ])


def _ekf_retract(nav: ExtendedPose, e):
    return ExtendedPose(
        nav.rotation @ so3_exp(e[:3]),
        nav.velocity + e[3:6],
        nav.position + e[6:9],
    )


@dataclass(frozen=True)
class Convention:
    """The parts of the filter that one error convention defines."""

    nav_error: Callable       # (truth, estimate) -> 9-dim error
    nav_retract: Callable     # (nav, e) -> nav with error e applied
    # (state, samples, dts, navs, gravity) -> one TransitionPair per sample,
    # where navs[i] is the navigation state sample i starts from (see
    # filters.mechanize) and the biases are those of `state`.
    transition: Callable
    clone_attitude: Callable  # (R, R_ic) -> d(clone attitude) / d(attitude error)
    point_jacobian: Callable  # (R, p, x) -> 3x9 d(p + R x) / d(nav error)


def _per_step(step):
    """A segment transition made of one-step transitions, each linearized at
    the state the step starts from."""
    def transition(state, samples, dts, navs, gravity):
        return [step(replace(state, nav=nav), imu, dt, gravity)
                for nav, imu, dt in zip(navs, samples, dts)]
    return transition


# The transitions are called through their module-level names, so a
# rebinding of those names (instrumentation) reaches every call. The
# left-invariant transition depends on the samples alone and takes a whole
# segment per call; the other two depend on the state and go step by step.
CONVENTIONS = {
    "liekf": Convention(
        nav_error=lambda truth, est: se23_log(compose(inverse(truth), est)),
        nav_retract=lambda nav, e: compose(nav, se23_exp(e)),
        # Deliberately linearized at the raw rates, not the bias-corrected
        # ones: the matrix stays a pure function of (sample, dt), so the
        # transitions stored for delayed-update transport are exactly the
        # ones a rewind would recompute. The linearization error this trades
        # away is of order |bias| * dt.
        transition=lambda state, samples, dts, navs, gravity: transition_left(samples, dts),
        clone_attitude=lambda R, R_ic: R_ic.T,
        point_jacobian=lambda R, p, x: _nav_block(-R @ skew(x), R),
    ),
    "riekf": Convention(
        nav_error=lambda truth, est: se23_log(compose(est, inverse(truth))),
        nav_retract=lambda nav, e: compose(se23_exp(e), nav),
        transition=_per_step(
            lambda state, imu, dt, gravity: transition_right(state, imu, dt, gravity)),
        clone_attitude=lambda R, R_ic: (R @ R_ic).T,
        point_jacobian=lambda R, p, x: _nav_block(-skew(p + R @ x), np.eye(3)),
    ),
    "ekf": Convention(
        nav_error=_ekf_error,
        nav_retract=_ekf_retract,
        transition=_per_step(lambda state, imu, dt, gravity: transition_ekf(state, imu, dt)),
        clone_attitude=lambda R, R_ic: R_ic.T,
        point_jacobian=lambda R, p, x: _nav_block(-R @ skew(x), np.eye(3)),
    ),
}


def lookup(name) -> Convention:
    """The table entry for a convention name; ValueError for any other."""
    try:
        return CONVENTIONS[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown error convention {name!r}") from None
