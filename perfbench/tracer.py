"""In-memory span tracer installed around swarmnav's public functions.

Each wrapped function records one span (name, start, end, parent) per call
into flat arrays that stay in memory until `dump` writes them to an .npz
file. A wrapper replaces the original object in every swarmnav module that
bound it (`from .filters import kalman_step` makes a second binding), so no
call path escapes it; `install` returns the bindings it patched so a caller
can check that.

Counters are recorded at the same boundaries: argument sizes before a call
(outside the span) and outcomes after it.

Montecarlo workers forked from a traced process inherit the wrappers. The
worker entry (`cli._mc_single`) drops the spans inherited from the parent
on entry and dumps its own spans next to the parent's file on exit.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Errors the agent methods raise and the simulator's handlers swallow.
COUNTED_ERRORS = ("UpdateRejected", "DelayExceedsHorizon")


def _kalman_dims(tr, args, kwargs):
    P, meas = args[0], args[1]
    tr.counts["filters.kalman_step.dim_sum"] += P.shape[0]
    tr.counts["filters.kalman_step.rows_sum"] += meas.H.shape[0]


def _sync_chain(tr, args, kwargs):
    partition, imu_buffer, sensor_buffer, block_id, t_now = args[:5]
    t_from = partition.last_sync[block_id]
    if t_now <= t_from:
        return
    bufs = [imu_buffer] + list(sensor_buffer if isinstance(sensor_buffer, (list, tuple))
                               else [sensor_buffer] if sensor_buffer is not None else [])
    try:
        n = sum(len(b.range_after(t_from, t_now)) for b in bufs)
    except RuntimeError:
        return  # the call itself will raise; nothing was chained
    tr.counts["covariance.sync_cross.chained"] += n
    tr.counts["covariance.sync_cross.chains"] += 1


def _transport_steps(tr, args, kwargs):
    buffer, _, _, t_k, t_m = args[:5]
    try:
        tr.counts["buffers.repropagate.steps"] += len(buffer.range_after(t_k, t_m))
    except RuntimeError:
        pass


def _correspondences(tr, args, kwargs):
    tr.counts["covariance.ci_correspondences"] += len(args[1])


def _ledger_bytes(tr, args, kwargs):
    tr.counts["network.bytes"] += args[1].size_bytes


def _count_objective(tr, objective):
    tr.counts["covariance.ci_searches"] += 1

    def counted(w):
        tr.counts["covariance.ci_objective_evals"] += 1
        return objective(w)

    return counted


def _applied(tr, n):
    tr.counts["covariance.ci_applied"] += n
    return n


def _feature_accepted(tr, j):
    tr.counts["agent.initialize_feature.accepted"] += j is not None
    return j


def _gate_accepted(tr, verdict):
    tr.counts["gate.accepted"] += bool(verdict.accepted)
    return verdict


def _delivery(tr, result):
    tr.counts["network.dropped"] += not result[0]
    return result


_LIE = ("skew", "so3_exp", "so3_log", "check_rotation", "so3_left_jacobian",
        "so3_left_jacobian_inv", "so3_gamma2", "compose", "inverse",
        "se23_exp", "se23_log")

# (module, attribute path, span name or None for count-only, pre hook,
#  post hook). A post hook receives the result and returns what the caller
#  gets back. Some spans feed no metric of their own; they are there so that
#  their time is not counted as the self time of the caller (for
#  sim.run_swarm, the event loop).
TARGETS = (
    [("lie", f, f"lie.{f}", None, None) for f in _LIE]
    + [
        ("filters", "mechanize", "filters.mechanize", None, None),
        ("filters", "transition_left", "filters.transition_left", None, None),
        ("filters", "transition_right", "filters.transition_right", None, None),
        ("filters", "transition_ekf", "filters.transition_ekf", None, None),
        ("filters", "propagate_covariance", "filters.propagate_covariance", None, None),
        ("filters", "kalman_step", "filters.kalman_step", _kalman_dims, None),
        ("filters", "bearing_measurement", "filters.bearing_measurement", None, None),
        ("filters", "feature_world_position", "filters.feature_world_position", None, None),
        ("buffers", "apply_delayed_update", "buffers.apply_delayed_update", None, None),
        ("buffers", "repropagate", "buffers.repropagate", _transport_steps, None),
        ("buffers", "core_update_partitioned", "buffers.core_update_partitioned", None, None),
        ("covariance", "collaborative_update", "covariance.collaborative_update",
         _correspondences, _applied),
        ("covariance", "_ci_trace_objective", None, None, _count_objective),
        ("covariance", "sync_cross", "covariance.sync_cross", _sync_chain, None),
        ("covariance", "assemble_full", "covariance.assemble_full", None, None),
        ("covariance", "split_full", "covariance.split_full", None, None),
        ("covariance", "insert_block_rows", "covariance.insert_block_rows", None, None),
        ("covariance", "remove_block_rows", "covariance.remove_block_rows", None, None),
        ("covariance", "propagate_core_only", "covariance.propagate_core_only", None, None),
        ("agent", "AgentFilter.propagate", "agent.propagate", None, None),
        ("agent", "AgentFilter.update_gnss", "agent.update_gnss", None, None),
        ("agent", "AgentFilter.update_gnss_delayed", "agent.update_gnss_delayed", None, None),
        ("agent", "AgentFilter.update_vision", "agent.update_vision", None, None),
        ("agent", "AgentFilter.update_collaborative", "agent.update_collaborative", None, None),
        ("agent", "AgentFilter.full_covariance", "agent.full_covariance", None, None),
        ("agent", "AgentFilter.snapshot", "agent.snapshot", None, None),
        ("agent", "AgentFilter.augment_clone", "agent.augment_clone", None, None),
        ("agent", "AgentFilter.marginalize_clone", "agent.marginalize_clone", None, None),
        ("agent", "AgentFilter.initialize_feature", "agent.initialize_feature", None,
         _feature_accepted),
        ("gate", "evaluate", "gate.evaluate", None, _gate_accepted),
        ("network", "NetworkModel.sample_delivery", "network.sample_delivery", None, _delivery),
        ("network", "BandwidthLedger.record", "network.record", _ledger_bytes, None),
        ("sensors", "synthesize_imu", "sensors.synthesize_imu", None, None),
        ("sensors", "synthesize_gnss", "sensors.synthesize_gnss", None, None),
        ("sensors", "synthesize_bearings", "sensors.synthesize_bearings", None, None),
        ("trajectories", "truth_at", "trajectories.truth_at", None, None),
        ("metrics", "nees", "metrics.nees", None, None),
        ("metrics", "ate", "metrics.ate", None, None),
        ("sim", "run_swarm", "sim.run_swarm", None, None),
        ("sim", "load_config", "sim.load_config", None, None),
        ("sim", "RunArtifacts.write", "cli.artifacts_write", None, None),
        ("cli", "_mc_single", "cli.mc_single", None, None),
    ]
)

# Bindings that must exist after install: a name imported into several
# modules has to be wrapped in each of them.
REQUIRED_BINDINGS = {
    "filters.kalman_step": {"swarmnav.filters", "swarmnav.buffers", "swarmnav.covariance"},
    "filters.mechanize": {"swarmnav.filters", "swarmnav.agent", "swarmnav.buffers"},
    "filters.propagate_covariance": {"swarmnav.filters", "swarmnav.covariance"},
    "sim.run_swarm": {"swarmnav.sim", "swarmnav.cli"},
    "covariance.sync_cross": {"swarmnav.covariance", "swarmnav.agent"},
    "gate.evaluate": {"swarmnav.gate", "swarmnav.sim"},
    "trajectories.truth_at": {"swarmnav.trajectories", "swarmnav.sensors", "swarmnav.sim"},
}

WORKER_ENTRY = "cli.mc_single"


class Tracer:
    def __init__(self, out_path):
        self.out_path = out_path
        self.pid = os.getpid()
        self.names = []
        self.counts = Counter()
        self.bindings = {}
        self._worker_dumps = 0
        self._reset()

    def _reset(self):
        self.name_idx = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = []
        self.counts.clear()
        self._last_error = None

    # ------------------------------------------------------------------

    def _wrap(self, name, fn, pre, post):
        tr = self
        clock = time.perf_counter
        if name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                return post(tr, fn(*args, **kwargs))
            return counted

        tr.names.append(name)
        nid = len(tr.names) - 1
        counted_errors = name.startswith("agent.")
        worker_entry = name == WORKER_ENTRY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if worker_entry and os.getpid() != tr.pid:
                tr._reset()
            if pre is not None:
                pre(tr, args, kwargs)
            stack = tr.stack
            i = len(tr.start)
            tr.name_idx.append(nid)
            tr.parent.append(stack[-1] if stack else -1)
            tr.end.append(0.0)
            stack.append(i)
            tr.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tr.end[i] = clock()
                stack.pop()
                if counted_errors and exc is not tr._last_error \
                        and type(exc).__name__ in COUNTED_ERRORS:
                    tr._last_error = exc  # count once across nested agent calls
                    tr.counts[f"agent.raised.{type(exc).__name__}"] += 1
                raise
            tr.end[i] = clock()
            stack.pop()
            if post is not None:
                result = post(tr, result)
            if worker_entry and os.getpid() != tr.pid:
                tr._worker_dumps += 1
                tr.dump(f"{tr.out_path}.w{os.getpid()}-{tr._worker_dumps}.npz")
                tr._reset()
            return result

        return wrapper

    def install(self):
        """Wrap every target and rebind it in each swarmnav module; returns
        {span name: sorted module names where it was rebound}."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "swarmnav" or n.startswith("swarmnav."))]
        for mod_name, path, name, pre, post in TARGETS:
            module = importlib.import_module(f"swarmnav.{mod_name}")
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth], pre, post))
                self.bindings[name or path] = [f"swarmnav.{mod_name}.{cls_name}"]
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original, pre, post)
            rebound = []
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        rebound.append(m.__name__)
            self.bindings[name or path] = sorted(rebound)
        return self.bindings

    def check_bindings(self):
        """Required bindings that install did not rebind."""
        return [f"{name} not rebound in {sorted(needed - set(self.bindings.get(name, ())))}"
                for name, needed in REQUIRED_BINDINGS.items()
                if not needed <= set(self.bindings.get(name, ()))]

    def dump(self, path=None):
        np.savez(path or self.out_path,
                 names=np.array(self.names, dtype=str),
                 name_idx=np.frombuffer(self.name_idx, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 count_keys=np.array(sorted(self.counts), dtype=str),
                 count_values=np.array([self.counts[k] for k in sorted(self.counts)],
                                       dtype=np.float64))
