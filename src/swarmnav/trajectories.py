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
from scipy.interpolate import CubicSpline

from .filters import GRAVITY
from .lie import ExtendedPose

KINDS = ("circle", "square", "figure-eight", "waypoint-spline")


def finite_vector(name, value, n):
    """`value` as a tuple of n finite floats; ValueError otherwise."""
    try:
        v = np.asarray(value, dtype=float)
        ok = v.shape == (n,) and np.isfinite(v).all()
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError(f"{name} must be {n} finite numbers, got {value!r}")
    return tuple(v.tolist())


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
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        # Negated comparisons, so that NaN fails them too.
        if not all(0 < v < np.inf for v in (self.speed, self.size, self.duration)):
            raise ValueError("speed, size and duration must be positive and finite")
        for name in ("altitude", "alt_amplitude", "phase"):
            if not -np.inf < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite")
        if self.kind == "waypoint-spline" and not self.waypoints:
            raise ValueError("waypoint-spline needs waypoints")
        # Tuples keep the spec hashable: the spline cache is keyed by it.
        object.__setattr__(self, "center", finite_vector("center", self.center, 2))
        if self.waypoints is not None:
            object.__setattr__(self, "waypoints", tuple(
                finite_vector("waypoints", w, 2) for w in self.waypoints))


def _yaw_rotation(yaw):
    c, s = np.cos(yaw), np.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@lru_cache(maxsize=64)
def _spline_for(spec: TrajectorySpec):
    """Periodic planar spline through the trajectory's waypoint polygon,
    cached by the (frozen, hashable) spec value."""
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
    return CubicSpline(t_knots, closed, bc_type="periodic"), t_knots[-1]


def _planar_state(spec: TrajectorySpec, t):
    """(xy, v_xy, a_xy) at time t for the given trajectory kind."""
    if spec.kind == "circle":
        w = spec.speed / spec.size
        th = w * t + spec.phase
        c = np.asarray(spec.center)
        xy = c + spec.size * np.array([np.cos(th), np.sin(th)])
        v = spec.size * w * np.array([-np.sin(th), np.cos(th)])
        a = -spec.size * w * w * np.array([np.cos(th), np.sin(th)])
        return xy, v, a
    if spec.kind == "figure-eight":
        # Lemniscate of Gerono; period chosen so the mean speed is `speed`.
        A = spec.size
        period = 6.097 * A / spec.speed  # arclength of the unit lemniscate
        w = 2.0 * np.pi / period
        th = w * t + spec.phase
        xy = A * np.array([np.sin(th), np.sin(th) * np.cos(th)]) + np.asarray(spec.center)
        v = A * w * np.array([np.cos(th), np.cos(2.0 * th)])
        a = A * w * w * np.array([-np.sin(th), -2.0 * np.sin(2.0 * th)])
        return xy, v, a
    if spec.kind == "waypoint-spline" and len(spec.waypoints) == 1:
        xy = np.asarray(spec.waypoints[0], dtype=float) + np.asarray(spec.center)
        return xy, np.zeros(2), np.zeros(2)
    spline, period = _spline_for(spec)
    tau = (t + spec.phase) % period
    return spline(tau), spline(tau, 1), spline(tau, 2)


def _altitude_state(spec: TrajectorySpec, t):
    if spec.alt_amplitude == 0.0:
        return spec.altitude, 0.0, 0.0
    w = 2.0 * np.pi / spec.duration
    return (
        spec.altitude + spec.alt_amplitude * np.sin(w * t),
        spec.alt_amplitude * w * np.cos(w * t),
        -spec.alt_amplitude * w * w * np.sin(w * t),
    )


def truth_at(spec: TrajectorySpec, t):
    """Ground truth at time t: (ExtendedPose, body angular rate rad/s,
    body specific force m/s^2)."""
    if not 0.0 <= t <= spec.duration:
        raise ValueError(f"t={t} outside [0, {spec.duration}]")
    xy, v_xy, a_xy = _planar_state(spec, t)
    z, vz, az = _altitude_state(spec, t)
    p = np.array([xy[0], xy[1], z])
    v = np.array([v_xy[0], v_xy[1], vz])
    a = np.array([a_xy[0], a_xy[1], az])
    speed2 = v_xy[0] ** 2 + v_xy[1] ** 2
    if speed2 < 1e-12:
        # Hovering: hold the phase offset as a fixed heading.
        yaw, yaw_rate = spec.phase, 0.0
    else:
        yaw = np.arctan2(v_xy[1], v_xy[0])
        yaw_rate = (v_xy[0] * a_xy[1] - v_xy[1] * a_xy[0]) / speed2
    R = _yaw_rotation(yaw)
    omega = np.array([0.0, 0.0, yaw_rate])
    f = R.T @ (a - GRAVITY)
    return ExtendedPose(R, v, p), omega, f


def truth_states(spec: TrajectorySpec, times):
    """Truth poses at the given times (list of ExtendedPose)."""
    return [truth_at(spec, t)[0] for t in times]
