"""Simulated inter-agent message passing: per-link latency with jitter,
random drops, and per-class bandwidth accounting.

Two message classes exist: a small landmark-correspondence request and a
full state/observation payload; their byte sizes are fixed accounting
constants so bandwidth totals are comparable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .checks import number

REQUEST_BYTES = 2050       # 2.05 kB per request message
FULL_BYTES = 190700        # 190.7 kB per full payload message

_CLASS_BYTES = {"request": REQUEST_BYTES, "full": FULL_BYTES}


@dataclass(frozen=True)
class SwarmMessage:
    msg_class: str        # "request" | "full"
    sender: int
    epoch: float
    payload: tuple        # landmark correspondences or ids

    def __post_init__(self):
        if self.msg_class not in _CLASS_BYTES:
            raise ValueError(f"unknown message class {self.msg_class!r}")

    @property
    def size_bytes(self):
        return _CLASS_BYTES[self.msg_class]


@dataclass(frozen=True)
class NetworkModel:
    latency: float = 0.1       # fixed one-way latency, s
    jitter: float = 0.03       # uniform +/- jitter, s
    drop_prob: float = 0.0

    def __post_init__(self):
        number("latency", self.latency, low=0)
        number("jitter", self.jitter, low=0, high=self.latency)
        number("drop_prob", self.drop_prob, 0, 1)

    def sample_delivery(self, rng):
        """(delivered, latency) for one message."""
        if rng.uniform() < self.drop_prob:
            return False, None
        return True, self.latency + rng.uniform(-self.jitter, self.jitter)


class BandwidthLedger:
    """Per-class message and byte counters."""

    def __init__(self):
        self.counts = {c: 0 for c in _CLASS_BYTES}
        self.bytes = {c: 0 for c in _CLASS_BYTES}

    def record(self, message: SwarmMessage):
        self.counts[message.msg_class] += 1
        self.bytes[message.msg_class] += message.size_bytes
