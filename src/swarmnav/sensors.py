"""Measurement synthesis: IMU, GNSS and landmark bearings from an analytic
trajectory, with seeded noise so identical seeds give identical streams.

The IMU stream is one ``ImuStream`` of read-only arrays. Sample k covers
the interval ending at times[k] and carries its midpoint rate/force, which
keeps the zero-order-hold integrator's error third order in the step.
Camera frame times are snapped onto the suite's IMU grid. The suite is also
the filter's sensor model: ``AgentFilter`` reads its noise densities,
sigmas and camera mount from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .checks import ConfigError, number, vector
from .filters import ImuStream, NoiseDensities
from .lie import check_rotation
from .trajectories import TrajectorySpec, kinematics, truth_at


def _rotation_rows(value):
    """A camera rotation as a tuple of three finite, orthonormal rows."""
    try:
        R = np.array([vector("cam_rotation", row, 3) for row in value])
    except (TypeError, ConfigError):
        R = None
    if R is None or R.shape != (3, 3):
        raise ConfigError(f"cam_rotation must be a 3x3 matrix of finite numbers, "
                          f"got {value!r}")
    try:
        check_rotation(R)
    except ValueError as exc:
        raise ConfigError(f"cam_rotation: {exc}") from None
    return tuple(map(tuple, R.tolist()))


@dataclass(frozen=True)
class SensorSuite:
    imu_rate: float = 200.0
    gnss_rate: float = 10.0
    camera_rate: float = 30.0
    noise: NoiseDensities = field(default_factory=NoiseDensities)
    gnss_sigma: float = 0.02          # m
    pixel_sigma: float = 0.002        # normalized image plane
    lever_arm: tuple = (0.1, 0.0, 0.05)   # IMU -> antenna, body frame, m
    cam_rotation: tuple = None        # camera-to-IMU rotation (3x3); default nadir
    cam_offset: tuple = (0.0, 0.0, 0.0)
    fov_half_tangent: float = 1.2     # field-of-view cut on |x/z|, |y/z|
    min_depth: float = 0.5            # m
    max_depth: float = 80.0           # m

    def __post_init__(self):
        for name in ("imu_rate", "gnss_rate", "camera_rate", "fov_half_tangent",
                     "max_depth"):
            number(name, getattr(self, name), positive=True)
        for name in ("gnss_sigma", "pixel_sigma", "min_depth"):
            number(name, getattr(self, name), low=0)
        if not self.min_depth < self.max_depth:
            raise ConfigError("min_depth must be below max_depth")
        for name in ("lever_arm", "cam_offset"):
            object.__setattr__(self, name, vector(name, getattr(self, name), 3))
        if self.cam_rotation is not None:
            object.__setattr__(self, "cam_rotation", _rotation_rows(self.cam_rotation))

    @property
    def camera_extrinsics(self):
        if self.cam_rotation is None:
            # Nadir camera: optical axis along -z (down), image x forward.
            R = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
        else:
            R = np.asarray(self.cam_rotation, dtype=float)
        return R, np.asarray(self.cam_offset, dtype=float)


@dataclass(frozen=True)
class GnssFix:
    timestamp: float
    position: np.ndarray
    is_outlier: bool = False


@dataclass(frozen=True)
class CameraFrame:
    timestamp: float
    observations: tuple  # ((landmark_id, uv), ...)


@dataclass(frozen=True)
class LandmarkMap:
    points: tuple  # ((id, 3-vector), ...)

    def __post_init__(self):
        ids = [i for i, _ in self.points]
        if len(ids) != len(set(ids)):
            raise ValueError("landmark ids must be unique")


def grid_landmarks(center, extent, count, altitude_range, seed):
    """Uniformly scattered landmarks around the trajectory area."""
    rng = np.random.default_rng(seed)
    c = np.asarray(center, dtype=float)
    pts = []
    for i in range(count):
        xy = c[:2] + rng.uniform(-extent, extent, size=2)
        z = rng.uniform(*altitude_range)
        pts.append((i, np.array([xy[0], xy[1], z])))
    return LandmarkMap(tuple(pts))


def synthesize_imu(spec: TrajectorySpec, suite: SensorSuite, seed):
    """IMU stream over the trajectory duration, as one ImuStream of
    read-only arrays, with random-walk biases and white noise.

    The truth is evaluated for all sample times at once. Each sample draws
    12 standard normals, in this order: gyro walk, accel walk, gyro noise,
    accel noise; the walks are running sums from zero.
    """
    rng = np.random.default_rng(seed)
    dt = 1.0 / suite.imu_rate
    n = int(round(spec.duration * suite.imu_rate))
    sq = np.sqrt(dt)
    nd = suite.noise
    times = np.arange(1, n + 1) * dt
    _, _, _, omega, f = kinematics(spec, times - dt / 2.0)
    draws = rng.standard_normal((n, 4, 3))
    walks = np.zeros((n + 1, 2, 3))
    walks[1:, 0] = nd.gyro_walk * sq * draws[:, 0]
    walks[1:, 1] = nd.accel_walk * sq * draws[:, 1]
    bias = np.cumsum(walks, axis=0)[1:]
    gyro = omega + bias[:, 0] + nd.gyro_noise / sq * draws[:, 2]
    accel = f + bias[:, 1] + nd.accel_noise / sq * draws[:, 3]
    times.flags.writeable = gyro.flags.writeable = accel.flags.writeable = False
    return ImuStream(times, gyro, accel)


def synthesize_gnss(spec: TrajectorySpec, suite: SensorSuite, seed):
    """Antenna-position fixes: p + R @ lever_arm plus white noise. The truth
    is evaluated for all fix times at once."""
    rng = np.random.default_rng(seed)
    dt = 1.0 / suite.gnss_rate
    n = int(np.floor(spec.duration / dt))
    lb = np.asarray(suite.lever_arm, dtype=float)
    times = [k * dt for k in range(1, n + 1)]
    pose, _, _ = truth_at(spec, np.array(times))
    fixes = []
    for t, R, p in zip(times, pose.rotation, pose.position):
        z = p + R @ lb + suite.gnss_sigma * rng.standard_normal(3)
        fixes.append(GnssFix(t, z))
    return fixes


def synthesize_bearings(spec: TrajectorySpec, suite: SensorSuite, lmap: LandmarkMap, seed):
    """Normalized-plane landmark observations with field-of-view and depth
    culling; association is by landmark id. Frame times are snapped onto
    the suite's IMU grid, so clones line up with propagated filter states.

    The truth is evaluated for all frame times at once, and all landmarks
    of a frame are projected at once; the visible ones, in map order, draw
    two standard normals each for their pixel noise."""
    rng = np.random.default_rng(seed)
    R_ic, p_ic = suite.camera_extrinsics
    ids = [lid for lid, _ in lmap.points]
    P = np.array([pw for _, pw in lmap.points], dtype=float).reshape(-1, 3)
    dt = 1.0 / suite.camera_rate
    n = int(np.floor(spec.duration / dt))
    times = []
    last_t = 0.0
    for k in range(1, n + 1):
        t = round(k * dt * suite.imu_rate) / suite.imu_rate
        if last_t < t <= spec.duration:
            times.append(t)
            last_t = t
    R, _, p, _, _ = kinematics(spec, np.array(times))
    frames = []
    for t, R_k, p_k in zip(times, R, p):
        R_c = R_k @ R_ic
        p_c = p_k + R_k @ p_ic
        X = (R_c.T @ (P - p_c).T).T
        seen = np.flatnonzero((suite.min_depth < X[:, 2]) & (X[:, 2] < suite.max_depth))
        uv = X[seen, :2] / X[seen, 2:]
        # Negated, so that a NaN coordinate passes the cut.
        in_fov = ~(np.max(np.abs(uv), axis=1) > suite.fov_half_tangent)
        seen = seen[in_fov]
        uv = uv[in_fov] + suite.pixel_sigma * rng.standard_normal((len(seen), 2))
        frames.append(CameraFrame(t, tuple(zip([ids[i] for i in seen], uv))))
    return frames


def inject_outliers(fixes, rate, magnitude, seed):
    """Displace a Bernoulli(rate) subset of fixes by a random direction
    times magnitude; the labels travel with the fixes for scoring."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be in [0, 1]")
    rng = np.random.default_rng(seed)
    out = []
    for fix in fixes:
        if rng.uniform() < rate:
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            out.append(replace(fix, position=fix.position + magnitude * d,
                               is_outlier=True))
        else:
            out.append(fix)
    return out
