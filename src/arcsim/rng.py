"""Counter-based random streams for reproducible trajectory ensembles.

A trajectory is addressed by an integer path under one master seed, e.g.
(protocol id, plan-point index, trajectory index). The path seeds a Philox
key; the step number goes into the high word of the Philox counter, so every
(trajectory, step) pair owns a private, deterministic stream regardless of
how work is scheduled across processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def stream_key(master_seed: int, *path: int) -> np.ndarray:
    """Two uint64 key words derived from a master seed and an integer path."""
    if master_seed < 0:
        raise ValueError("master seed must be nonnegative")
    entropy = [int(master_seed)] + [int(p) for p in path]
    return np.random.SeedSequence(entropy).generate_state(2, np.uint64)


@dataclass(frozen=True, eq=False)
class TrajectoryStream:
    """Per-trajectory stream; step(k) yields an independent generator for step k.

    The stream keeps one Philox generator and step(k) moves it to counter
    (0, 0, 0, k), so the generator it returns draws exactly what a fresh
    Generator(Philox(key, counter=[0, 0, 0, k])) would. That generator is
    valid until the next step() call on the same stream.
    """

    key: np.ndarray
    _bits: np.random.Philox = field(init=False, repr=False)
    _generator: np.random.Generator = field(init=False, repr=False)
    _state: dict = field(init=False, repr=False)

    def __post_init__(self):
        bits = np.random.Philox(key=self.key)
        object.__setattr__(self, "_bits", bits)
        object.__setattr__(self, "_generator", np.random.Generator(bits))
        object.__setattr__(self, "_state", bits.state)

    def step(self, k: int) -> np.random.Generator:
        self._state["state"]["counter"] = np.array([0, 0, 0, int(k)], dtype=np.uint64)
        self._bits.state = self._state
        return self._generator


def trajectory_stream(master_seed: int, *path: int) -> TrajectoryStream:
    return TrajectoryStream(stream_key(master_seed, *path))
