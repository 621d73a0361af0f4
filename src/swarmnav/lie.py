"""SO(3) and SE2(3) primitives: exp/log maps, skew operator, composition.

All rotations are 3x3 direction cosine matrices. An extended pose bundles
(rotation, velocity, position) and composes like its 5x5 homogeneous
embedding

    [ R  v  p ]
    [ 0  1  0 ]
    [ 0  0  1 ]

Tangent vectors are ordered (attitude, velocity, position).

``skew``, ``so3_exp``, ``so3_left_jacobian`` and ``so3_gamma2`` also take a
stack of vectors (..., 3) and return a stack of matrices (..., 3, 3), bit
for bit the matrices of one call per vector; ``so3_integrals`` returns the
last three together, from one shared computation of their terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Below this angle the closed-form Rodrigues coefficients are replaced by
# their Taylor series to avoid 0/0.
_SMALL_ANGLE = 1e-7

_ORTHO_TOL = 1e-6


# Flat (row-major) positions of v[0], v[1], v[2] in skew(v) and of their
# negatives.
_SKEW_POS = np.array([7, 2, 3])
_SKEW_NEG = np.array([5, 6, 1])


def skew(v):
    """Skew-symmetric matrix of a 3-vector, so that skew(v) @ w == cross(v, w)."""
    v = np.asarray(v, dtype=float)
    S = np.zeros(v.shape[:-1] + (9,))
    S[..., _SKEW_POS] = v
    S[..., _SKEW_NEG] = -v
    return S.reshape(v.shape[:-1] + (3, 3))


_EYE = np.eye(3)
_EYE.flags.writeable = False


def _so3_terms(phi):
    """(theta, phi^, phi^2, small-angle mask, guarded theta) of a rotation
    vector or a stack of them. The guarded theta is 1 wherever the series
    applies, which keeps 0/0 out of the closed form there."""
    phi = np.asarray(phi, dtype=float)
    # Row-wise dot products: bit for bit np.linalg.norm of each vector.
    theta = np.sqrt(np.vecdot(phi, phi))
    S = skew(phi)
    small = theta < _SMALL_ANGLE
    th = np.where(small, 1.0, theta) if small.any() else theta
    return theta, S, S @ S, small, th


def _per_matrix(c):
    """A scalar or per-vector coefficient, broadcastable over 3x3 matrices."""
    return np.asarray(c)[..., None, None]


def _series_below_cutoff(small, closed, series):
    """`closed`, with the matrices of `series()` in place of those whose
    angle is below the cutoff."""
    if not small.any():
        return closed
    return np.where(_per_matrix(small), series(), closed)


def so3_exp(phi):
    """Rodrigues formula: rotation matrix for a rotation vector (rad),
    exp(phi^) = I + a*phi^ + b*phi^2."""
    return _exp(*_so3_terms(phi))


def _exp(theta, S, SS, small, th):
    t2 = theta * theta
    return _series_below_cutoff(
        small,
        _EYE + _per_matrix(np.sin(th) / th) * S
        + _per_matrix((1.0 - np.cos(th)) / (th * th)) * SS,
        lambda: _EYE + _per_matrix(1.0 - t2 / 6.0 + t2 * t2 / 120.0) * S
        + _per_matrix(0.5 - t2 / 24.0 + t2 * t2 / 720.0) * SS)


def check_rotation(R):
    """Raise ValueError unless R is orthonormal with determinant +1."""
    R = np.asarray(R, dtype=float)
    if R.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {R.shape}")
    # Negated tests, so that a NaN matrix fails them too.
    if not np.linalg.norm(R.T @ R - np.eye(3)) <= _ORTHO_TOL:
        raise ValueError("matrix is not orthonormal")
    if not abs(np.linalg.det(R) - 1.0) <= _ORTHO_TOL:
        raise ValueError("matrix determinant is not +1")
    return R


def so3_log(R):
    """Rotation vector of a rotation matrix; |result| <= pi.

    At theta == pi the axis sign is ambiguous; the axis is taken from the
    largest diagonal entry of (R + I)/2 and either sign is a valid answer.
    """
    R = check_rotation(R)
    cos_theta = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_theta)
    if theta < _SMALL_ANGLE:
        # First-order: R ~ I + phi^
        return np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]]) / 2.0
    if np.pi - theta < 1e-6:
        # Near pi: extract the axis from the symmetric part.
        B = (R + np.eye(3)) / 2.0
        k = int(np.argmax(np.diag(B)))
        axis = B[:, k] / np.sqrt(max(B[k, k], 1e-300))
        axis = axis / np.linalg.norm(axis)
        # Pick the sign consistent with the antisymmetric part when it is
        # not vanishingly small.
        w = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
        if np.dot(w, axis) < 0.0:
            axis = -axis
        return theta * axis
    w = np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    return theta / (2.0 * np.sin(theta)) * w


def so3_left_jacobian(phi):
    """Left Jacobian J_l of SO(3): exp((phi+dphi)^) ~ exp((J_l dphi)^) exp(phi^)."""
    return _left_jacobian(*_so3_terms(phi))


def _left_jacobian(_, S, SS, small, th):
    t2 = th * th
    b = (1.0 - np.cos(th)) / t2
    c = (th - np.sin(th)) / (t2 * th)
    return _series_below_cutoff(small, _EYE + _per_matrix(b) * S + _per_matrix(c) * SS,
                                lambda: _EYE + S / 2.0 + SS / 6.0)


def so3_left_jacobian_inv(phi):
    """Inverse of the SO(3) left Jacobian."""
    phi = np.asarray(phi, dtype=float)
    theta = np.linalg.norm(phi)
    S = skew(phi)
    if theta < _SMALL_ANGLE:
        return np.eye(3) - S / 2.0 + S @ S / 12.0
    half = theta / 2.0
    cot = half / np.tan(half)
    return np.eye(3) - S / 2.0 + (1.0 - cot) / (theta * theta) * (S @ S)


def so3_gamma2(phi):
    """Second integral coefficient matrix: sum_n (phi^)^n / (n+2)!.

    Appears in the closed-form position update of the strapdown integrator.
    """
    return _gamma2(*_so3_terms(phi))


def _gamma2(_, S, SS, small, th):
    t2 = th * th
    a = (th - np.sin(th)) / (t2 * th)
    b = (t2 / 2.0 + np.cos(th) - 1.0) / (t2 * t2)
    return _series_below_cutoff(small, _EYE / 2.0 + _per_matrix(a) * S + _per_matrix(b) * SS,
                                lambda: _EYE / 2.0 + S / 6.0 + SS / 24.0)


def so3_integrals(phi):
    """(so3_exp, so3_left_jacobian, so3_gamma2) of phi, bit for bit, from
    one computation of the angle, phi^ and phi^2 that all three read."""
    terms = _so3_terms(phi)
    return _exp(*terms), _left_jacobian(*terms), _gamma2(*terms)


@dataclass(frozen=True)
class ExtendedPose:
    """SE2(3) element: rotation, velocity (m/s), position (m)."""

    rotation: np.ndarray
    velocity: np.ndarray
    position: np.ndarray

    @staticmethod
    def identity():
        return ExtendedPose(np.eye(3), np.zeros(3), np.zeros(3))

    def as_matrix(self):
        """5x5 homogeneous embedding."""
        T = np.eye(5)
        T[:3, :3] = self.rotation
        T[:3, 3] = self.velocity
        T[:3, 4] = self.position
        return T


def compose(a: ExtendedPose, b: ExtendedPose) -> ExtendedPose:
    """Group product; equals multiplication of the 5x5 embeddings."""
    return ExtendedPose(
        a.rotation @ b.rotation,
        a.velocity + a.rotation @ b.velocity,
        a.position + a.rotation @ b.position,
    )


def inverse(a: ExtendedPose) -> ExtendedPose:
    Rt = a.rotation.T
    return ExtendedPose(Rt, -Rt @ a.velocity, -Rt @ a.position)


def se23_exp(xi) -> ExtendedPose:
    """Exponential map of SE2(3) for a 9-vector (attitude, velocity, position);
    so3_exp and so3_left_jacobian of the attitude, bit for bit, from one
    computation of the terms both read."""
    xi = np.asarray(xi, dtype=float)
    terms = _so3_terms(xi[:3])
    J = _left_jacobian(*terms)
    return ExtendedPose(_exp(*terms), J @ xi[3:6], J @ xi[6:9])


def se23_log(X: ExtendedPose):
    """Logarithm map, inverse of se23_exp. Rotation angle must be below pi."""
    phi = so3_log(X.rotation)
    if np.pi - np.linalg.norm(phi) < 1e-9:
        raise ValueError("se23_log is degenerate at rotation angle pi")
    Jinv = so3_left_jacobian_inv(phi)
    return np.concatenate([phi, Jinv @ X.velocity, Jinv @ X.position])
