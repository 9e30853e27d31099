"""Counter-based random streams for reproducible trajectory ensembles.

A trajectory is addressed by an integer path under one master seed, e.g.
(protocol id, plan-point index, trajectory index). The path seeds a Philox
key; the step number goes into the high word of the Philox counter, so every
(trajectory, step) pair owns a private, deterministic stream regardless of
how work is scheduled across processes.

Every draw is a pure function of (key, step) (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11), so a block's draws are computed
here as arrays, bit-identical to numpy's SeedSequence, Philox4x64-10,
Generator.random and the fast path of Generator.normal; pure blocks and
one-trajectory mixed runs alike draw through stream_draws.
`TrajectoryStream.step` is the numpy reference those draws are tested
against, and a numpy generator at the same counter is the fallback for
Gaussians off the fast path. `numpy.random` is imported only when a stream
is stepped, stream_key derives a key, or the first Gaussian is drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# Philox4x64 round multipliers and Weyl key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10


def stream_key(master_seed: int, *path: int) -> np.ndarray:
    """Two uint64 key words derived from a master seed and an integer path."""
    if master_seed < 0:
        raise ValueError("master seed must be nonnegative")
    entropy = [int(master_seed)] + [int(p) for p in path]
    return np.random.SeedSequence(entropy).generate_state(2, np.uint64)


def _int_words(n: int) -> list[int]:
    """An integer's little-endian 32-bit words, as SeedSequence splits its entropy."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


class _Hash:
    """SeedSequence's hashmix: the multiplier advances on every call, whatever the data."""

    def __init__(self, start: int, mult: int):
        self.const, self.mult = start, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = self.const * self.mult & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def stream_keys(master_seed: int, paths) -> np.ndarray:
    """stream_key(master_seed, *path) for every row of an (n, d) array of paths, as (n, 2).

    Every path entry must be below 2**32 (one entropy word each).
    """
    if master_seed < 0:
        raise ValueError("master seed must be nonnegative")
    paths = np.asarray(paths, dtype=np.int64)
    if paths.ndim != 2 or (paths.size and not 0 <= paths.min() <= paths.max() <= _MASK32):
        raise ValueError("paths must be an (n, d) array of entries in [0, 2**32)")
    seed = np.array(_int_words(int(master_seed)), dtype=np.uint32)
    seed = np.broadcast_to(seed, (len(paths), seed.size))
    entropy = np.concatenate([seed, paths.astype(np.uint32)], axis=1)
    hashmix = _Hash(_INIT_A, _MULT_A)
    zero = np.zeros(len(paths), dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < entropy.shape[1] else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, entropy.shape[1]):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(entropy[:, src]))
    # generate_state(2, uint64): four 32-bit words, paired little-endian
    out = _Hash(_INIT_B, _MULT_B)
    words = [out(word).astype(np.uint64) for word in pool]
    return np.stack([words[0] | words[1] << np.uint64(32), words[2] | words[3] << np.uint64(32)], axis=1)


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit product a * b, from 32-bit halves.

    The middle sum is at most 2**64 - 2, so no partial product overflows.
    """
    a_lo, a_hi = np.uint64(a & _MASK32), np.uint64(a >> 32)
    shift, mask = np.uint64(32), np.uint64(_MASK32)
    b_lo, b_hi = b & mask, b >> shift
    lo_hi = b_lo * a_hi
    mid = (b_lo * a_lo >> shift) + (lo_hi & mask) + b_hi * a_lo
    hi = b_hi * a_hi + (lo_hi >> shift) + (mid >> shift)
    return hi, b * np.uint64(a)


def philox_words(keys: np.ndarray, steps, count: int) -> np.ndarray:
    """The first `count` words of the stream of each (key, step) pair, as (len(keys), count).

    Stream (key, k) is np.random.Philox(key=key, counter=[0, 0, 0, k]): its
    words are the outputs of Philox4x64-10 at counters [c, 0, 0, k] for
    c = 1, 2, ..., four words per counter.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    k0, k1 = keys[:, 0, None], keys[:, 1, None]
    blocks = -(-count // 4)
    x0 = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
    x1 = x2 = np.zeros((1, 1), dtype=np.uint64)
    x3 = np.asarray(steps, dtype=np.uint64)[:, None]
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    words = np.stack(np.broadcast_arrays(x0, x1, x2, x3), axis=-1)
    return words.reshape(len(keys), 4 * blocks)[:, :count]


def uniforms(words: np.ndarray) -> np.ndarray:
    """Generator.random() of each word: (w >> 11) * 2**-53."""
    return (words >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def _new_philox(key) -> tuple:
    """(bit generator, generator, state dict) of a fresh Philox under key."""
    bits = np.random.Philox(key=key)
    return bits, np.random.Generator(bits), bits.state


def _moved(philox: tuple, key: np.ndarray, k: int) -> np.random.Generator:
    """philox's generator, moved through the state setter to key and counter (0, 0, 0, k)."""
    bits, generator, state = philox
    state["state"]["key"] = key
    state["state"]["counter"] = np.array([0, 0, 0, int(k)], dtype=np.uint64)
    bits.state = state
    return generator


@cache
def _ziggurat() -> tuple[np.ndarray, np.ndarray]:
    """numpy's layer widths wi, read from its generator, and conservative acceptance bounds ki.

    A word with layer i, sign 0 and rabs = 1 makes standard_normal() return
    exactly wi[i] (layer 1, never accepted, goes through the wedge test with a
    zero uniform, which returns it). numpy's bound is floor(2**52 x_{i-1}/x_i)
    with x_i = 2**52 wi[i] and x_{-1} = x_255 (ki[1] = 0); 2 less stays below
    it whatever the rounding of the table.
    """
    bits, gen, state = _new_philox(np.zeros(2, dtype=np.uint64))
    wi = np.empty(256)
    for i in range(256):
        state["buffer"] = np.array([i | 1 << 9, 0, 0, 0], dtype=np.uint64)
        state["buffer_pos"] = 0
        bits.state = state
        wi[i] = gen.standard_normal()
    ki = np.floor(np.roll(wi, 1) / wi * 2.0**52).astype(np.uint64) - np.uint64(2)
    ki[1] = 0
    wi.flags.writeable = ki.flags.writeable = False
    return wi, ki


def standard_normals(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat on one word each: (values, accepted).

    Where accepted, the value is what Generator.standard_normal() returns
    from that word; elsewhere numpy would draw more words and the value is
    meaningless.
    """
    wi, ki = _ziggurat()
    layer = (words & np.uint64(0xFF)).astype(np.intp)
    rabs = (words >> np.uint64(9)) & np.uint64((1 << 52) - 1)
    x = rabs.astype(np.float64) * wi[layer]
    np.negative(x, out=x, where=(words & np.uint64(0x100)).astype(bool))
    return x, rabs < ki[layer]


@dataclass(frozen=True, eq=False)
class TrajectoryStream:
    """Per-trajectory stream; step(k) yields an independent generator for step k.

    The stream keeps one Philox generator, built on the first step, and
    step(k) moves it to counter (0, 0, 0, k), so the generator it returns
    draws exactly what a fresh Generator(Philox(key, counter=[0, 0, 0, k]))
    would. That generator is valid until the next step() call on the same
    stream.
    """

    key: np.ndarray

    @cached_property
    def _philox(self) -> tuple:
        return _new_philox(self.key)

    def step(self, k: int) -> np.random.Generator:
        return _moved(self._philox, self.key, k)


def trajectory_stream(master_seed: int, *path: int) -> TrajectoryStream:
    return TrajectoryStream(stream_key(master_seed, *path))


def stream_draws(
    keys: np.ndarray, start: int, stops, shape: tuple[int, ...] | None = None, std: float = 0.0
):
    """What stream m draws at each step start..stops[m]-1: normal(0.0, std, size=shape), then random().

    For (M, 2) keys, returns (noise, uniforms) of shapes (M, S, *shape) and
    (M, S), S = max(stops) - start, NaN past each stream's stop; with shape
    None there is no normal draw and noise is None. Entry (m, s) is
    bit-identical to what TrajectoryStream(keys[m]).step(start + s) draws. A
    (stream, step) whose Gaussians leave the ziggurat's fast path is redrawn
    from a generator at that counter.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    stops = np.asarray(stops)
    cols = int(stops.max()) - start
    m, s = np.nonzero(np.arange(start, start + cols) < stops[:, None])
    normals = 0 if shape is None else math.prod(shape)
    words = philox_words(keys[m], start + s, normals + 1)
    u = np.full((len(keys), cols), np.nan)
    u[m, s] = uniforms(words[:, normals])
    if shape is None:
        return None, u
    x, fast = standard_normals(words[:, :normals])
    drawn = 0.0 + std * x  # Generator.normal computes loc + scale * x
    replay = None
    for i in np.flatnonzero(~fast.all(axis=1)):
        replay = replay or _new_philox(keys[m[i]])
        gen = _moved(replay, keys[m[i]], start + s[i])
        drawn[i] = gen.normal(0.0, std, size=normals)
        u[m[i], s[i]] = gen.random()
    noise = np.full((len(keys), cols, normals), np.nan)
    noise[m, s] = drawn
    return noise.reshape(len(keys), cols, *shape), u
