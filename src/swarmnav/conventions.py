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

from dataclasses import dataclass
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


def _checked_dts(dts):
    """A segment's step lengths as an array; ValueError unless all are
    positive (NaN fails too)."""
    dts = np.asarray(dts, dtype=float)
    if not np.all(dts > 0):
        raise ValueError("dt must be positive")
    return dts


def transition_left(samples, dts) -> list:
    """Left-invariant transitions of a segment of IMU samples, one per
    sample; each is a pure function of (gyro, accel, dt). The generators
    are stacked and exponentiated in one call."""
    dts = _checked_dts(dts)
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


def transition_right(dts, navs, gravity=None) -> list:
    """Right-invariant transitions of a segment, one per step; each is a
    function of the step's dt and the navigation state it starts from
    (navs[i]), not of the IMU sample or the biases. The generators are
    stacked and exponentiated in one call."""
    dts = _checked_dts(dts)
    R = np.array([nav.rotation for nav in navs])
    g = GRAVITY if gravity is None else np.asarray(gravity, dtype=float)
    SvR = skew(np.array([nav.velocity for nav in navs])) @ R
    SpR = skew(np.array([nav.position for nav in navs])) @ R
    n = len(dts)
    A = np.zeros((n, 15, 15))
    A[:, 3:6, 0:3] = skew(g)
    A[:, 6:9, 3:6] = np.eye(3)
    A[:, 0:3, 9:12] = -R
    A[:, 3:6, 9:12] = -SvR
    A[:, 6:9, 9:12] = -SpR
    A[:, 3:6, 12:15] = -R
    F = np.tile(np.eye(CORE_DIM), (n, 1, 1))
    F[:, :15, :15] = expm(A * dts[:, None, None])
    G = np.zeros((n, CORE_DIM, NOISE_DIM))
    G[:, 0:3, 0:3] = R
    G[:, 3:6, 0:3] = SvR
    G[:, 6:9, 0:3] = SpR
    G[:, 3:6, 3:6] = R
    G[:, 9:15, 6:12] = np.eye(6)
    return [TransitionPair(F_k, G_k) for F_k, G_k in zip(_read_only(F), _read_only(G))]


def _cross(x, y):
    """Row-wise cross product, bit for bit np.cross."""
    return np.stack([x[:, 1] * y[:, 2] - x[:, 2] * y[:, 1],
                     x[:, 2] * y[:, 0] - x[:, 0] * y[:, 2],
                     x[:, 0] * y[:, 1] - x[:, 1] * y[:, 0]], axis=-1)


def _dJ1a_dpsi(psi, a):
    """Derivative of so3_left_jacobian(psi[i]) @ a[i] with respect to
    psi[i], for stacks of vectors; below theta = 1e-4 a series replaces
    the closed form."""
    # Row-wise dot products: bit for bit np.linalg.norm of each vector.
    theta = np.sqrt(np.vecdot(psi, psi))
    small = theta < 1e-4
    th = np.where(small, 1.0, theta)
    Sa = skew(a)
    Spsi_Sa = skew(psi) @ Sa
    pxa = _cross(psi, a)
    pxpxa = _cross(psi, pxa)
    S_pxa = skew(pxa)
    t2 = th * th
    b = (1.0 - np.cos(th)) / t2
    c = (th - np.sin(th)) / (t2 * th)
    db = (th * np.sin(th) - 2.0 * (1.0 - np.cos(th))) / (t2 * th)
    dc = ((1.0 - np.cos(th)) * th - 3.0 * (th - np.sin(th))) / (t2 * t2)
    n = psi / th[:, None]
    closed = (
        pxa[:, :, None] * n[:, None, :] * db[:, None, None]
        - b[:, None, None] * Sa
        + pxpxa[:, :, None] * n[:, None, :] * dc[:, None, None]
        + c[:, None, None] * (-S_pxa - Spsi_Sa)
    )
    if not small.any():
        return closed
    return np.where(small[:, None, None], -0.5 * Sa - (S_pxa + Spsi_Sa) / 6.0, closed)


def transition_ekf(state_estimate, samples, dts, navs) -> list:
    """Conventional error-state EKF Jacobians of the mechanization of a
    segment (body-frame attitude error, additive velocity/position errors),
    one per sample, each linearized at the navigation state its step
    starts from (navs[i]) and the biases of `state_estimate`."""
    dts = _checked_dts(dts)
    R = np.array([nav.rotation for nav in navs])
    n = len(dts)
    dt = dts[:, None, None]
    psi = (np.array([imu.gyro for imu in samples]) - state_estimate.gyro_bias) * dts[:, None]
    a = np.array([imu.accel for imu in samples]) - state_estimate.accel_bias
    J1 = so3_left_jacobian(psi)
    G2 = so3_gamma2(psi)
    F = np.tile(np.eye(CORE_DIM), (n, 1, 1))
    F[:, 0:3, 0:3] = so3_exp(psi).transpose(0, 2, 1)
    F[:, 0:3, 9:12] = -so3_left_jacobian(-psi) * dt
    F[:, 3:6, 0:3] = -R @ skew((J1 @ a[:, :, None])[:, :, 0]) * dt
    F[:, 3:6, 9:12] = -R @ _dJ1a_dpsi(psi, a) * dt * dt
    F[:, 3:6, 12:15] = -R @ J1 * dt
    F[:, 6:9, 0:3] = -R @ skew((G2 @ a[:, :, None])[:, :, 0]) * dt * dt
    F[:, 6:9, 3:6] = np.eye(3) * dt
    F[:, 6:9, 12:15] = -R @ G2 * dt * dt
    G = np.zeros((n, CORE_DIM, NOISE_DIM))
    G[:, 0:3, 0:3] = np.eye(3)
    G[:, 3:6, 3:6] = R
    G[:, 9:15, 6:12] = np.eye(6)
    return [TransitionPair(F_k, G_k) for F_k, G_k in zip(_read_only(F), _read_only(G))]


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
    # formed for the whole segment in one call, where navs[i] is the
    # navigation state sample i starts from (see filters.mechanize) and the
    # biases are those of `state`.
    transition: Callable
    clone_attitude: Callable  # (R, R_ic) -> d(clone attitude) / d(attitude error)
    point_jacobian: Callable  # (R, p, x) -> 3x9 d(p + R x) / d(nav error)


# The transitions are called through their module-level names, so a
# rebinding of those names (instrumentation) reaches every call. Each takes
# a whole segment per call and forms its transitions in one stacked pass:
# the left-invariant one from the samples alone, the other two also from
# the navigation state each step starts from.
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
        transition=lambda state, samples, dts, navs, gravity: transition_right(
            dts, navs, gravity),
        clone_attitude=lambda R, R_ic: (R @ R_ic).T,
        point_jacobian=lambda R, p, x: _nav_block(-skew(p + R @ x), np.eye(3)),
    ),
    "ekf": Convention(
        nav_error=_ekf_error,
        nav_retract=_ekf_retract,
        transition=lambda state, samples, dts, navs, gravity: transition_ekf(
            state, samples, dts, navs),
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
