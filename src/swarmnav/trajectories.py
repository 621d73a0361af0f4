"""Analytic ground-truth trajectories.

Each trajectory yields, at any time t, a kinematically consistent triple of
extended pose, body angular rate and body specific force, so that feeding
the exact rate/force stream through the strapdown integrator reproduces the
positions. Attitude is level flight with the body x-axis along the velocity
(yaw-only), which keeps the angular rate a pure yaw rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .checks import ConfigError, number, vector
from .conventions import GRAVITY
from .lie import ExtendedPose

KINDS = ("circle", "square", "figure-eight", "waypoint-spline")


@dataclass(frozen=True)
class TrajectorySpec:
    kind: str = "circle"
    speed: float = 2.0          # m/s (nominal for square/waypoints)
    size: float = 20.0          # circle radius / square side / eight half-width, m
    altitude: float = 10.0      # m
    alt_amplitude: float = 0.0  # sinusoidal altitude bob, m
    duration: float = 30.0      # s
    phase: float = 0.0          # per-agent phase offset, rad (or s for splines)
    center: tuple = (0.0, 0.0)
    waypoints: tuple = None     # ((x, y), ...) for kind waypoint-spline

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown trajectory kind {self.kind!r}")
        for name in ("speed", "size", "duration"):
            number(name, getattr(self, name), positive=True)
        for name in ("altitude", "alt_amplitude", "phase"):
            number(name, getattr(self, name))
        if self.kind == "waypoint-spline" and not self.waypoints:
            raise ConfigError("waypoint-spline needs waypoints")
        # Tuples keep the spec hashable: the spline cache is keyed by it.
        object.__setattr__(self, "center", vector("center", self.center, 2))
        if self.waypoints is not None:
            if not isinstance(self.waypoints, (list, tuple)):
                raise ConfigError(f"waypoints must be a list of [x, y] points, "
                                  f"got {self.waypoints!r}")
            points = tuple(vector("waypoints", w, 2) for w in self.waypoints)
            # The spline is closed, so the last point also leads to the first;
            # a repeated point would make a zero-length segment.
            if len(points) > 1 and any(p == q for p, q in zip(points, points[1:] + points[:1])):
                raise ConfigError("consecutive waypoints (the last and the first "
                                  "included) must differ")
            object.__setattr__(self, "waypoints", points)


@lru_cache(maxsize=64)
def _spline_for(spec: TrajectorySpec):
    """Periodic cubic spline through the trajectory's waypoint polygon,
    cached by the (frozen, hashable) spec value: the knot times (n + 1, the
    last one is the period) and, per interval, the coefficients of
    y + b*x + c*x^2 + d*x^3 in the time x since its first knot (4 x n x 2,
    constant terms first). The second derivatives at the knots solve the
    cyclic tridiagonal system of C2 continuity, once per spec."""
    if spec.kind == "square":
        a = spec.size
        corners = np.array([[0, 0], [a, 0], [a, a], [0, a]], dtype=float)
        corners += np.asarray(spec.center) - a / 2.0
        pts = []
        for i in range(4):
            p0, p1 = corners[i], corners[(i + 1) % 4]
            for frac in (0.0, 0.25, 0.5, 0.75):
                pts.append(p0 + frac * (p1 - p0))
        pts = np.array(pts)
    else:
        pts = np.array(spec.waypoints, dtype=float) + np.asarray(spec.center)
    closed = np.vstack([pts, pts[:1]])
    seg = np.linalg.norm(np.diff(closed, axis=0), axis=1)
    t_knots = np.concatenate([[0.0], np.cumsum(seg)]) / spec.speed
    h = np.diff(t_knots)
    slope = np.diff(closed, axis=0) / h[:, None]
    # With M[i] the second derivative at knot i, row i reads
    #   h[i-1] M[i-1] + 2 (h[i-1] + h[i]) M[i] + h[i] M[i+1]
    #     = 6 (slope[i] - slope[i-1]), indices modulo n.
    # With n = 2 both neighbours are the same knot, so their terms add.
    n = len(h)
    i = np.arange(n)
    K = np.zeros((n, n))
    np.add.at(K, (i, i - 1), np.roll(h, 1))
    np.add.at(K, (i, (i + 1) % n), h)
    K[i, i] += 2.0 * (np.roll(h, 1) + h)
    M = np.linalg.solve(K, 6.0 * (slope - np.roll(slope, 1, axis=0)))
    M_next = np.roll(M, -1, axis=0)
    coef = np.stack([pts, slope - h[:, None] * (2.0 * M + M_next) / 6.0,
                     M / 2.0, (M_next - M) / (6.0 * h[:, None])])
    # The cache hands these arrays to every caller.
    t_knots.flags.writeable = coef.flags.writeable = False
    return t_knots, coef


def _spline_state(t_knots, coef, tau):
    """(xy, v_xy, a_xy) of a `_spline_for` spline at the times tau in
    [0, period], by Horner on each time's interval."""
    k = np.clip(np.searchsorted(t_knots, tau, side="right") - 1, 0, len(t_knots) - 2)
    x = np.asarray(tau - t_knots[k])[..., None]
    y, b, c, d = coef[:, k]
    return (y + x * (b + x * (c + x * d)),
            b + x * (2.0 * c + x * (3.0 * d)),
            2.0 * c + x * (6.0 * d))


def _planar_state(spec: TrajectorySpec, t):
    """(xy, v_xy, a_xy) at the times t (an array), each of shape t.shape + (2,)."""
    if spec.kind == "circle":
        w = spec.speed / spec.size
        th = w * t + spec.phase
        c = np.asarray(spec.center)
        cs = np.stack([np.cos(th), np.sin(th)], axis=-1)
        xy = c + spec.size * cs
        v = spec.size * w * np.stack([-np.sin(th), np.cos(th)], axis=-1)
        a = -spec.size * w * w * cs
        return xy, v, a
    if spec.kind == "figure-eight":
        # Lemniscate of Gerono; period chosen so the mean speed is `speed`.
        A = spec.size
        period = 6.097 * A / spec.speed  # arclength of the unit lemniscate
        w = 2.0 * np.pi / period
        th = w * t + spec.phase
        xy = A * np.stack([np.sin(th), np.sin(th) * np.cos(th)], axis=-1) \
            + np.asarray(spec.center)
        v = A * w * np.stack([np.cos(th), np.cos(2.0 * th)], axis=-1)
        a = A * w * w * np.stack([-np.sin(th), -2.0 * np.sin(2.0 * th)], axis=-1)
        return xy, v, a
    if spec.kind == "waypoint-spline" and len(spec.waypoints) == 1:
        xy = np.asarray(spec.waypoints[0], dtype=float) + np.asarray(spec.center)
        still = np.zeros(t.shape + (2,))
        return xy + still, still, still
    t_knots, coef = _spline_for(spec)
    return _spline_state(t_knots, coef, (t + spec.phase) % t_knots[-1])


def _altitude_state(spec: TrajectorySpec, t):
    if spec.alt_amplitude == 0.0:
        return spec.altitude, 0.0, 0.0
    w = 2.0 * np.pi / spec.duration
    return (
        spec.altitude + spec.alt_amplitude * np.sin(w * t),
        spec.alt_amplitude * w * np.cos(w * t),
        -spec.alt_amplitude * w * w * np.sin(w * t),
    )


def kinematics(spec: TrajectorySpec, t):
    """Ground truth at the times t (a scalar or an array): rotation
    (t.shape + (3, 3)), velocity and position, body angular rate (rad/s)
    and body specific force (m/s^2), each t.shape + (3,)."""
    t = np.asarray(t, dtype=float)
    if not np.all((0.0 <= t) & (t <= spec.duration)):
        raise ValueError(f"t={t} outside [0, {spec.duration}]")
    xy, v_xy, a_xy = _planar_state(spec, t)
    z, vz, az = np.broadcast_arrays(t, *_altitude_state(spec, t))[1:]
    p = np.concatenate([xy, z[..., None]], axis=-1)
    v = np.concatenate([v_xy, vz[..., None]], axis=-1)
    a = np.concatenate([a_xy, az[..., None]], axis=-1)
    vx, vy = v_xy[..., 0], v_xy[..., 1]
    # Squared as Python floats, which call pow(): numpy's array ** 2
    # multiplies instead and differs in the last bit for some speeds, which
    # would move every artifact of a run.
    speed2 = np.array([x ** 2 + y ** 2 for x, y in v_xy.reshape(-1, 2).tolist()])
    speed2 = speed2.reshape(t.shape)
    # Hovering: hold the phase offset as a fixed heading.
    hover = speed2 < 1e-12
    moving = np.where(hover, 1.0, speed2)
    yaw = np.where(hover, spec.phase, np.arctan2(vy, vx))
    yaw_rate = np.where(hover, 0.0,
                        (vx * a_xy[..., 1] - vy * a_xy[..., 0]) / moving)
    c, s = np.cos(yaw), np.sin(yaw)
    R = np.zeros(t.shape + (3, 3))
    R[..., :2, :2] = np.stack([c, -s, s, c], axis=-1).reshape(t.shape + (2, 2))
    R[..., 2, 2] = 1.0
    omega = np.zeros(t.shape + (3,))
    omega[..., 2] = yaw_rate
    f = (np.swapaxes(R, -1, -2) @ (a - GRAVITY)[..., None])[..., 0]
    return R, v, p, omega, f


def truth_at(spec: TrajectorySpec, t):
    """Ground truth at the times t, a scalar or an array: (ExtendedPose,
    body angular rate rad/s, body specific force m/s^2). For an array the
    pose holds stacks, and row k is what the call at t[k] alone gives, bit
    for bit; so a stream evaluates its truth in one call. ValueError if
    any time is outside [0, duration]."""
    R, v, p, omega, f = kinematics(spec, t)
    return ExtendedPose(R, v, p), omega, f

