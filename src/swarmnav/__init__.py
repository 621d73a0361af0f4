"""Decentralized multi-agent GNSS-visual-inertial state estimation.

Invariant Kalman filtering on extended poses, segmented covariance
bookkeeping with buffered delayed-measurement re-propagation, adaptive GNSS
outlier gating, covariance-intersection collaborative fusion, and a
deterministic swarm simulator with an evaluation CLI.

The exports below load on first access (PEP 562), so importing the package
loads no numpy. That lets `python -m swarmnav.cli` set its BLAS thread
variables before numpy starts.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "agent": ("AgentFilter",),
    "covariance": ("Correspondence", "CovariancePartition"),
    "filters": ("ImuStream", "LinearMeasurement", "NoiseDensities"),
    "gate": ("GateState", "GateVerdict", "adaptive_k", "evaluate"),
    "lie": ("ExtendedPose", "se23_exp", "se23_log", "so3_exp", "so3_log"),
    "metrics": ("anees_interval", "ate", "gate_score", "nees"),
    "sensors": ("LandmarkMap", "SensorSuite"),
    "sim": ("RunArtifacts", "SimConfig", "load_config", "run_swarm"),
    "state": ("SystemState", "error_between", "retract"),
    "trajectories": ("TrajectorySpec", "truth_at"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
