"""The navigation error conventions and everything that depends on them.

The navigation error (attitude, velocity, position) is one of

* ``liekf``  -- left-invariant:  e = log(truth^-1 * est)
* ``riekf``  -- right-invariant: e = log(est * truth^-1)
* ``ekf``    -- body-frame attitude error with additive velocity/position

``CONVENTIONS`` maps each name to the parts of the filter that change with
it; nothing else in the package branches on the convention.

With the closed-form zero-order-hold strapdown integrator the left-invariant
transition exp(A dt) transports navigation errors through a step exactly
and depends only on the IMU sample (Barrau & Bonnabel, IEEE TAC 2017). So
the buffered transitions that re-propagate a delayed measurement are the
ones a rewind would form. The right-invariant and EKF transitions of an
IMU segment read the terms ``filters.mechanize`` computed once for it; the
left-invariant one reads only the raw rates and step lengths, so its entry
is marked ``samples_only`` and the agent propagates its covariance without
integrating the mean. Each convention returns a segment's transitions and
noise maps as one ``TransitionPair`` of stacks.

The ``liekf`` and ``riekf`` transitions are exp(A dt) of each step's 15x15
generator, formed for a whole segment by one numpy call, ``_expm``: a Taylor
polynomial of fixed degree after each matrix is scaled by its own 1-norm.
Nothing in that rule reads another matrix of the stack (a degree or a
scaling taken from the stack's largest norm would), so each sample's F is
the one a one-sample call forms, bit for bit.

Sign note: the bias-coupling blocks of A (left and right variants) carry the
opposite sign of the common textbook presentation because errors here are
defined estimate-minus-truth; the finite-difference tests pin the signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lie import (
    ExtendedPose,
    compose,
    inverse,
    se23_exp,
    se23_log,
    skew,
    so3_exp,
    so3_log,
)

CORE_DIM = 18  # nav 9 + biases 6 + lever 3

NOISE_DIM = 12  # gyro white, accel white, gyro walk, accel walk

GRAVITY = np.array([0.0, 0.0, -9.81])


@dataclass(frozen=True)
class TransitionPair:
    """Discrete transitions F and noise maps G over the 18-dim core error,
    stacked one row per sample of a segment (n x 18 x 18 and n x 18 x 12)."""

    F: np.ndarray
    G: np.ndarray


def _read_only(a):
    a.flags.writeable = False
    return a


# The noise map of a left-invariant step is the same for every sample, so
# a segment's G stack is a read-only broadcast of this one array.
_G_LEFT = np.zeros((CORE_DIM, NOISE_DIM))
_G_LEFT[0:3, 0:3] = np.eye(3)
_G_LEFT[3:6, 3:6] = np.eye(3)
_G_LEFT[9:15, 6:12] = np.eye(6)
_read_only(_G_LEFT)


# The Taylor coefficients 1/k! up to degree 12, and the 1-norm to which
# each generator is scaled: the first omitted term, 0.25^13 / 13!, is below
# the unit roundoff.
_TAYLOR = tuple(1.0 / math.factorial(k) for k in range(13))
_THETA = 0.25


def _expm(A):
    """The matrix exponential of each matrix of a stack (n x m x m), by
    scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 2005). Each
    matrix is divided by the power of two that brings its own 1-norm to at
    most _THETA, its degree-12 Taylor polynomial is evaluated in powers of
    X^4 (Paterson-Stockmeyer), and the result is squared back as often.
    Every step of a matrix reads that matrix alone, so a stacked call
    returns, bit for bit, what one call per matrix would."""
    _, s = np.frexp(np.abs(A).sum(axis=-2).max(axis=-1) / _THETA)
    s = np.maximum(s, 0)
    X = np.ldexp(A, -s[:, None, None])
    X2 = X @ X
    X3 = X2 @ X
    X4 = X2 @ X2
    c = _TAYLOR
    eye = np.eye(A.shape[-1])
    E = c[8] * eye + c[9] * X + c[10] * X2 + c[11] * X3 + c[12] * X4
    E = c[4] * eye + c[5] * X + c[6] * X2 + c[7] * X3 + X4 @ E
    E = eye + X + c[2] * X2 + c[3] * X3 + X4 @ E
    for j in range(s.max(initial=0)):
        sq = s > j
        E[sq] = E[sq] @ E[sq]
    return E


def transition_left(gyro, accel, dts) -> TransitionPair:
    """Left-invariant transitions of a segment, one row per sample, from its
    raw rates (n x 3 stacks) and step lengths alone; each is a pure
    function of (gyro, accel, dt). The generators are stacked and
    exponentiated in one call."""
    Sw = skew(gyro)
    A = np.zeros((len(dts), 15, 15))
    A[:, 0:3, 0:3] = -Sw
    A[:, 3:6, 0:3] = -skew(accel)
    A[:, 3:6, 3:6] = -Sw
    A[:, 6:9, 3:6] = np.eye(3)
    A[:, 6:9, 6:9] = -Sw
    A[:, 0:3, 9:12] = -np.eye(3)
    A[:, 3:6, 12:15] = -np.eye(3)
    F = np.tile(np.eye(CORE_DIM), (len(dts), 1, 1))
    F[:, :15, :15] = _expm(A * dts[:, None, None])
    return TransitionPair(_read_only(F), np.broadcast_to(_G_LEFT, (len(dts),) + _G_LEFT.shape))


def transition_right(seg) -> TransitionPair:
    """Right-invariant transitions of a mechanized segment (a
    `filters.Strapdown`), one row per step; each is a function of the step's dt
    and the navigation state it starts from, not of the IMU sample or the
    biases. The generators are stacked and exponentiated in one call."""
    R, n = seg.R, len(seg.dts)
    SvR = skew(seg.v) @ R
    SpR = skew(seg.p) @ R
    A = np.zeros((n, 15, 15))
    A[:, 3:6, 0:3] = skew(GRAVITY)
    A[:, 6:9, 3:6] = np.eye(3)
    A[:, 0:3, 9:12] = -R
    A[:, 3:6, 9:12] = -SvR
    A[:, 6:9, 9:12] = -SpR
    A[:, 3:6, 12:15] = -R
    F = np.tile(np.eye(CORE_DIM), (n, 1, 1))
    F[:, :15, :15] = _expm(A * seg.dts[:, None, None])
    G = np.zeros((n, CORE_DIM, NOISE_DIM))
    G[:, 0:3, 0:3] = R
    G[:, 3:6, 0:3] = SvR
    G[:, 6:9, 0:3] = SpR
    G[:, 3:6, 3:6] = R
    G[:, 9:15, 6:12] = np.eye(6)
    return TransitionPair(_read_only(F), _read_only(G))


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


def transition_ekf(seg) -> TransitionPair:
    """Conventional error-state EKF Jacobians of the mechanization of a
    segment (body-frame attitude error, additive velocity/position errors),
    one row per sample, each linearized at the pose its step starts from and
    the biases of the mechanization `seg`, whose rotation terms it reads;
    the left Jacobian of -psi is the transpose of that of psi."""
    R, J1, G2, n = seg.R, seg.J1, seg.G2, len(seg.dts)
    dt = seg.dts[:, None, None]
    F = np.tile(np.eye(CORE_DIM), (n, 1, 1))
    F[:, 0:3, 0:3] = seg.Gamma.transpose(0, 2, 1)
    F[:, 0:3, 9:12] = -J1.transpose(0, 2, 1) * dt
    F[:, 3:6, 0:3] = -R @ skew(seg.J1a) * dt
    F[:, 3:6, 9:12] = -R @ _dJ1a_dpsi(seg.psi, seg.a) * dt * dt
    F[:, 3:6, 12:15] = -R @ J1 * dt
    F[:, 6:9, 0:3] = -R @ skew(seg.G2a) * dt * dt
    F[:, 6:9, 3:6] = np.eye(3) * dt
    F[:, 6:9, 12:15] = -R @ G2 * dt * dt
    G = np.zeros((n, CORE_DIM, NOISE_DIM))
    G[:, 0:3, 0:3] = np.eye(3)
    G[:, 3:6, 3:6] = R
    G[:, 9:15, 6:12] = np.eye(6)
    return TransitionPair(_read_only(F), _read_only(G))


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
    # (segment) -> one TransitionPair of stacks, a row per sample, formed
    # in one call from the segment's record: a `filters.Strapdown`, or for
    # a samples-only convention the propagated `filters.ImuStream` itself.
    transition: Callable
    # True when the transition reads only the raw samples and step lengths:
    # the covariance then propagates without the mean, which is integrated
    # when something reads the state.
    samples_only: bool
    clone_attitude: Callable  # (R, R_ic) -> d(clone attitude) / d(attitude error)
    point_jacobian: Callable  # (R, p, x) -> 3x9 d(p + R x) / d(nav error)


# The transitions are called through their module-level names, so a
# rebinding of those names (instrumentation) reaches every call. Each forms
# a whole segment's transitions in one stacked pass: the left-invariant one
# from the raw rates and step lengths alone, before the mean is integrated.
CONVENTIONS = {
    "liekf": Convention(
        nav_error=lambda truth, est: se23_log(compose(inverse(truth), est)),
        nav_retract=lambda nav, e: compose(nav, se23_exp(e)),
        # Deliberately linearized at the raw rates, not the bias-corrected
        # ones: the matrix stays a pure function of (sample, dt), so the
        # transitions stored for delayed-update transport are exactly the
        # ones a rewind would recompute. The linearization error this trades
        # away is of order |bias| * dt.
        transition=lambda seg: transition_left(seg.gyro, seg.accel, seg.dts),
        samples_only=True,
        clone_attitude=lambda R, R_ic: R_ic.T,
        point_jacobian=lambda R, p, x: _nav_block(-R @ skew(x), R),
    ),
    "riekf": Convention(
        nav_error=lambda truth, est: se23_log(compose(est, inverse(truth))),
        nav_retract=lambda nav, e: compose(se23_exp(e), nav),
        transition=lambda seg: transition_right(seg),
        samples_only=False,
        clone_attitude=lambda R, R_ic: (R @ R_ic).T,
        point_jacobian=lambda R, p, x: _nav_block(-skew(p + R @ x), np.eye(3)),
    ),
    "ekf": Convention(
        nav_error=_ekf_error,
        nav_retract=_ekf_retract,
        transition=lambda seg: transition_ekf(seg),
        samples_only=False,
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
