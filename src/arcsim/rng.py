"""Counter-based random streams for reproducible trajectory ensembles.

A trajectory is addressed by an integer path under one master seed, e.g.
(protocol id, plan-point index, trajectory index). The path seeds a Philox
key; the step number goes into the high word of the Philox counter, so every
(trajectory, step) pair owns a private, deterministic stream regardless of
how work is scheduled across processes.

Every draw is a pure function of (key, step) (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11), so every trajectory block draws
through stream_draws, in arrays bit-identical to numpy's SeedSequence,
Philox4x64-10, Generator.random and Generator.normal. Gaussians follow
numpy's ziggurat, whose tables ship with the package: the fast path for
every word at once, then the wedge and tail tests, in arrays, for the few
that leave it. `TrajectoryStream.step` is the numpy reference those draws
are tested against; `numpy.random` is imported only when a stream is stepped.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cache
from pathlib import Path

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
    """SeedSequence([master_seed, *path]).generate_state(2, uint64) for every row of an (n, d) array of paths.

    Every path entry must be below 2**32 (one entropy word each).
    """
    if isinstance(master_seed, bool) or not isinstance(master_seed, numbers.Integral):  # int() would truncate it
        raise ValueError(f"master seed must be an integer, got {master_seed!r}")
    if master_seed < 0:
        raise ValueError("master seed must be nonnegative")
    paths = np.asarray(paths)  # not cast to int64, which overflows past it: a float or object array fails below
    if paths.ndim != 2 or (
        paths.size and not (paths.dtype.kind in "iu" and 0 <= paths.min() <= paths.max() <= _MASK32)
    ):
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


# numpy's ziggurat: the tail's start r and the 1/r it multiplies by
_NOR_R, _NOR_INV_R = 3.6541528853610088, 0.27366123732975828


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


@cache
def _ziggurat() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """numpy's own ziggurat tables, read-only: layer widths wi, acceptance bounds ki and wedge densities fi.

    They ship as package data: wi_double, ki_double and fi_double, 256 little-endian 8-byte entries each.
    """
    data = Path(__file__).with_name("ziggurat.bin").read_bytes()
    return tuple(np.frombuffer(data, dtype, 256, 2048 * n) for n, dtype in enumerate(("<f8", "<u8", "<f8")))


def standard_normals(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat on one word each: (values, accepted).

    Where accepted, the value is what Generator.standard_normal() returns
    from that word; elsewhere numpy would draw more words and the value is
    meaningless.
    """
    wi, ki, _ = _ziggurat()
    layer = (words & np.uint64(0xFF)).astype(np.intp)
    rabs = (words >> np.uint64(9)) & np.uint64((1 << 52) - 1)
    x = rabs.astype(np.float64) * wi[layer]
    np.negative(x, out=x, where=(words & np.uint64(0x100)).astype(bool))
    return x, rabs < ki[layer]


@dataclass(frozen=True, eq=False)
class TrajectoryStream:
    """Per-trajectory stream; step(k) is a fresh generator at Philox counter (0, 0, 0, k) under the key."""

    key: np.ndarray

    def step(self, k: int) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.key, counter=[0, 0, 0, int(k)]))


def trajectory_stream(master_seed: int, *path: int) -> TrajectoryStream:
    """The stream keyed by stream_keys(master_seed, [path]): path entries must be below 2**32."""
    return TrajectoryStream(stream_keys(master_seed, [path])[0])


def stream_draws(
    keys: np.ndarray, start: int, stops, shape: tuple[int, ...] | None = None, std: float = 0.0
):
    """What stream m draws at each step start..stops[m]-1: normal(0.0, std, size=shape), then random().

    For (M, 2) keys, returns (noise, uniforms) of shapes (M, S, *shape) and
    (M, S), S = max(stops) - start, NaN past each stream's stop; with shape
    None there is no normal draw and noise is None. Entry (m, s) is
    bit-identical to what TrajectoryStream(keys[m]).step(start + s) draws.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    stops = np.asarray(stops)
    cols = int(stops.max()) - start
    m, s = np.nonzero(np.arange(start, start + cols) < stops[:, None])
    u = np.full((len(keys), cols), np.nan)
    if shape is None:
        u[m, s] = uniforms(philox_words(keys[m], start + s, 1)[:, 0])
        return None, u
    normals = math.prod(shape)
    x, u[m, s] = _gaussians(keys[m], start + s, normals)
    noise = np.full((len(keys), cols, normals), np.nan)
    noise[m, s] = 0.0 + std * x  # Generator.normal computes loc + scale * x
    return noise.reshape(len(keys), cols, *shape), u


def _gaussians(keys: np.ndarray, steps: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """standard_normal() `count` times, then random(), on each (key, step) stream: (x, u).

    Words are fetched one counter past what the fast path needs; rows with a
    Gaussian off the fast path continue numpy's loop in _slow_rows.
    """
    words = philox_words(keys, steps, 4 * (count // 4 + 2))
    x, fast = standard_normals(words[:, :count])
    u = uniforms(words[:, count])
    slow = np.flatnonzero(~fast.all(axis=1))
    if slow.size:
        _slow_rows(keys[slow], steps[slow], words[slow], count, x, u, slow)
    return x, u


def _slow_rows(keys, steps, words, count: int, x, u, rows) -> None:
    """numpy's random_standard_normal continued past the fast path, writing x[rows] and u[rows].

    Gaussian g of a row starts at word g + d, d being the extra words its
    slow Gaussians before g took. Each pass fills every row's fast Gaussians
    up to its next slow one and decides that one: layer i >= 1 tests the
    wedge with the next word's uniform against libm's exp (accepted: one extra
    word; rejected: two, and the Gaussian restarts), layer 0 samples the tail.
    A row out of words starts all rows again with twice as many.
    """
    f = _ziggurat()[2]
    lane = np.arange(count)
    values, fast = standard_normals(words)
    src, g, d = np.arange(len(rows)), np.zeros(len(rows), dtype=np.intp), np.zeros(len(rows), dtype=np.intp)
    while src.size:
        if np.any(count + d >= words.shape[1]):
            return _slow_rows(keys, steps, philox_words(keys, steps, 2 * words.shape[1]), count, x, u, rows)
        i, at, settled = src[:, None], lane + d[:, None], lane < g[:, None]
        ahead = fast[i, at] | settled
        nxt = np.where(ahead.all(axis=1), count, ahead.argmin(axis=1))
        x[rows[src]] = np.where(settled | (lane >= nxt[:, None]), x[rows[src]], values[i, at])
        done = nxt == count
        u[rows[src[done]]] = uniforms(words[src[done], count + d[done]])
        src, g, d = src[~done], nxt[~done], d[~done]
        k = g + d
        word = words[src, k]
        layer = (word & np.uint64(0xFF)).astype(np.intp)
        rabs = (word >> np.uint64(9)) & np.uint64((1 << 52) - 1)
        value = values[src, k]
        lhs = ((f[layer - 1] - f[layer]) * uniforms(words[src, k + 1]) + f[layer]).tolist()
        accept = np.array([n > 0 and y < math.exp(-0.5 * v * v) for n, y, v in zip(layer, lhs, value.tolist())], bool)
        x[rows[src[accept]], g[accept]] = value[accept]
        d += 2 - accept
        g += accept
        for t in np.flatnonzero(layer == 0):
            tail = _tail(words[src[t]], k[t] + 1, int(rabs[t]))
            if tail is None:  # out of words, which the next pass finds
                d[t] = words.shape[1]
            else:
                x[rows[src[t]], g[t]], d[t], g[t] = tail[0], d[t] + tail[1] - 2, g[t] + 1


def _tail(words: np.ndarray, pos: int, rabs: int) -> tuple[float, int] | None:
    """numpy's tail beyond r from pairs of uniforms at words pos, pos + 1, ...: (value, words taken).

    libm's log1p, which numpy's C code calls; None if the words run out.
    """
    for first in range(pos, len(words) - 1, 2):
        u1, u2 = uniforms(words[first : first + 2]).tolist()
        xx = -_NOR_INV_R * math.log1p(-u1)
        yy = -math.log1p(-u2)
        if yy + yy > xx * xx:
            return (-(_NOR_R + xx) if rabs >> 8 & 1 else _NOR_R + xx), first + 2 - pos
    return None
