import math
import re

import numpy as np
import pytest

from arcsim import rng
from arcsim.rng import (
    TrajectoryStream,
    _heights,
    _tail,
    _ziggurat,
    philox_words,
    standard_normals,
    stream_draws,
    stream_keys,
    trajectory_stream,
    uniforms,
)


def seed_sequence_key(seed, *path):
    """The oracle for stream keys: numpy's own SeedSequence."""
    return np.random.SeedSequence([seed, *path]).generate_state(2, np.uint64)


def fresh_generator(key, k):
    counter = np.array([0, 0, 0, k], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def draws(gen):
    return [gen.random(), gen.normal(0.0, 0.3, size=(3, 4)), gen.random(), gen.normal(size=5)]


class TestTrajectoryStream:
    def test_step_matches_fresh_generator(self):
        rng = np.random.default_rng(31)
        for trial in range(25):
            key = rng.integers(0, 2**64, size=2, dtype=np.uint64)
            stream = TrajectoryStream(key)
            # revisits, backward jumps and large counters
            for k in [3, 0, 3, 17, 1, 2**40, 5, 4, 0]:
                got, want = draws(stream.step(k)), draws(fresh_generator(key, k))
                assert got[0] == want[0] and got[2] == want[2], (trial, k)
                assert np.array_equal(got[1], want[1]) and np.array_equal(got[3], want[3]), (trial, k)

    def test_partly_consumed_generator_is_reset(self):
        stream = trajectory_stream(9, 2, 0, 4)
        gen = stream.step(7)
        gen.random()
        gen.normal(size=3)  # leave a buffered word behind
        assert draws(stream.step(7))[0] == fresh_generator(seed_sequence_key(9, 2, 0, 4), 7).random()

    def test_key_matches_seed_sequence(self):
        for seed, path in ((0, ()), (5, ()), (2**64 - 1, ()), (2**64 - 1, (2, 0, 4)), (2**100, (1,)),
                           (9, (2**32 - 1,)), (9, (3, 2**32 - 1, 0))):
            assert np.array_equal(trajectory_stream(seed, *path).key, seed_sequence_key(seed, *path)), (seed, path)

    def test_path_entries_are_one_word(self):
        # stream_keys takes one 32-bit entropy word per path entry; the ensemble's
        # (protocol, point, trajectory) paths are far below that
        for path in ((2**32,), (0, 2**32), (-1,)):
            with pytest.raises(ValueError):
                trajectory_stream(1, *path)

    def test_master_seed_is_an_integer(self):
        # int() would key a float or bool seed as its truncation: 7.9 as 7, True as 1
        for seed in (7.9, 7.0, True, False, np.float64(7.0), "7"):
            with pytest.raises(ValueError, match="master seed must be an integer"):
                stream_keys(seed, [[1]])
        assert np.array_equal(stream_keys(np.uint64(7), [[1]]), stream_keys(7, [[1]]))
        assert np.array_equal(stream_keys(np.int64(7), [[1]]), seed_sequence_key(7, 1)[None])

    def test_streams_are_independent(self):
        a, b = trajectory_stream(1, 0), trajectory_stream(1, 1)
        ga = a.step(2)
        first = ga.random()
        b.step(2).random()
        assert a.step(2).random() == first


def philox(key, k):
    return np.random.Philox(key=key, counter=np.array([0, 0, 0, k], dtype=np.uint64))


def random_keys(rng, n):
    keys = rng.integers(0, 2**64, size=(n, 2), dtype=np.uint64)
    keys[0] = 0
    keys[1] = 2**64 - 1
    return keys


def random_steps(rng, n):
    steps = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    steps[:4] = [0, 1, 2**40, 2**64 - 1]
    return steps


class TestArrayDraws:
    """The array versions against numpy, bit for bit."""

    def test_keys_match_seed_sequence(self):
        rng = np.random.default_rng(40)
        for seed in (0, 1, 7, 2**32 - 1, 2**32, 2**40 + 5, 2**64 - 1):
            for depth in range(5):
                paths = rng.integers(0, 2**32, size=(7, depth))
                paths[0], paths[1] = 0, 2**32 - 1
                got = stream_keys(seed, paths)
                want = [seed_sequence_key(seed, *(int(v) for v in path)) for path in paths]
                assert got.dtype == np.uint64 and np.array_equal(got, want), (seed, depth)

    def test_keys_reject_wide_or_negative_entries(self):
        for paths in ([(0, 2**32)], [(0, -1)], [0, 1]):
            with pytest.raises(ValueError):
                stream_keys(3, paths)
        with pytest.raises(ValueError):
            stream_keys(-1, [(0, 0)])

    def test_keys_reject_entries_past_int64_with_the_range_message(self):
        # checked before any int64 cast, which would raise OverflowError instead
        message = re.escape("paths must be an (n, d) array of entries in [0, 2**32)")
        for entry in (2**63, 2**64, -(2**63) - 1):
            with pytest.raises(ValueError, match=message):
                trajectory_stream(1, entry)
            with pytest.raises(ValueError, match=message):
                stream_keys(1, [(0, entry)])

    def test_words_match_random_raw(self):
        rng = np.random.default_rng(41)
        keys, steps = random_keys(rng, 40), random_steps(rng, 40)
        for count in (1, 4, 5, 13):
            words = philox_words(keys, steps, count)
            assert words.shape == (40, count)
            for key, k, row in zip(keys, steps, words):
                assert np.array_equal(row, philox(key, k).random_raw(count)), (key, k, count)

    def test_doubles_match_random(self):
        rng = np.random.default_rng(42)
        keys, steps = random_keys(rng, 40), random_steps(rng, 40)
        got = uniforms(philox_words(keys, steps, 1)[:, 0])
        want = [np.random.Generator(philox(key, k)).random() for key, k in zip(keys, steps)]
        assert np.array_equal(got, want)

    def test_fast_path_rows_match_normal_then_random(self):
        rng = np.random.default_rng(43)
        keys, steps = random_keys(rng, 400), random_steps(rng, 400)
        words = philox_words(keys, steps, 13)
        x, fast = standard_normals(words[:, :12])
        rows = fast.all(axis=1)
        assert 250 < rows.sum() < 400  # both kinds of row occur
        for key, k, row, u in zip(keys[rows], steps[rows], x[rows], uniforms(words[rows, 12])):
            gen = np.random.Generator(philox(key, k))
            assert np.array_equal(0.0 + 0.3 * row, gen.normal(0.0, 0.3, size=(3, 4)).ravel())
            assert u == gen.random()

    def test_acceptance_bound_is_conservative(self):
        # numpy accepts rabs = ki[i] - 1 in every layer on its first word, so
        # its own bound is at least ki[i]; layer 1 is never accepted
        wi, ki = _ziggurat()
        assert ki[1] == 0
        bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
        gen, state = np.random.Generator(bits), bits.state
        for layer in range(256):
            if layer == 1:
                continue
            rabs = int(ki[layer]) - 1
            for sign in (0, 1):
                word = layer | sign << 8 | rabs << 9
                state["buffer"] = np.array([word, 0, 0, 0], dtype=np.uint64)
                state["buffer_pos"] = 0
                bits.state = state
                value = gen.standard_normal()
                assert bits.state["buffer_pos"] == 1, layer
                x, fast = standard_normals(np.array([word], dtype=np.uint64))
                assert fast[0] and x[0] == value == (-1) ** sign * rabs * wi[layer], layer

    def test_stream_draws_match_stream_steps(self):
        rng = np.random.default_rng(44)
        keys = random_keys(rng, 30)
        stops = rng.integers(5, 12, size=30)
        noise, u = stream_draws(keys, 4, stops, (3, 4), 0.2)
        assert noise.shape == (30, 7, 3, 4) and u.shape == (30, 7)
        redrawn = 0
        for m, key in enumerate(keys):
            stream = TrajectoryStream(key)
            for s in range(7):
                if 4 + s >= stops[m]:
                    assert np.isnan(u[m, s]) and np.all(np.isnan(noise[m, s]))
                    continue
                gen = stream.step(4 + s)
                assert np.array_equal(noise[m, s], gen.normal(0.0, 0.2, size=(3, 4)))
                assert u[m, s] == gen.random()
            redrawn += not standard_normals(philox_words(keys[m:m + 1], [4], 12))[1].all()
        assert redrawn > 0
        none, plain = stream_draws(keys, 4, stops)
        assert none is None and np.array_equal(np.isnan(plain), np.isnan(u))
        for m, key in enumerate(keys):
            for s in range(stops[m] - 4):
                assert plain[m, s] == TrajectoryStream(key).step(4 + s).random()

    def test_stream_draws_independent_of_chunking(self):
        # draws are pure functions of (key, step): one call, or chunks of 1, 3 or 8 steps
        rng = np.random.default_rng(45)
        keys = random_keys(rng, 20)
        stops = np.sort(rng.integers(3, 20, size=20))[::-1]
        for shape, std in ((None, 0.0), ((3, 4), 0.1)):
            whole = stream_draws(keys, 2, stops, shape, std)
            for span in (1, 3, 8):
                parts = [
                    stream_draws(keys, k, np.minimum(stops, k + span), shape, std)
                    for k in range(2, int(stops.max()), span)
                ]
                for i, want in enumerate(whole):
                    if want is None:
                        assert all(part[i] is None for part in parts)
                        continue
                    got = np.concatenate([part[i] for part in parts], axis=1)
                    assert np.array_equal(got, want, equal_nan=True), (shape, span)


def crafted(words):
    """A generator whose next raw words are `words` (at most four)."""
    bits = np.random.Philox(key=np.zeros(2, dtype=np.uint64))
    state = bits.state
    state["buffer"] = np.array(list(words) + [0] * (4 - len(words)), dtype=np.uint64)
    state["buffer_pos"] = 0
    bits.state = state
    return bits, np.random.Generator(bits)


def numpy_normal_walk(words, count):
    """numpy's random_standard_normal, `count` times, as a scalar loop over a row of words.

    Returns the values, the index of the word after them and the slow events met.
    """
    wi, ki = _ziggurat()
    f = _heights()
    events = {"wedge": 0, "reject": 0, "tail": 0}
    values, pos = [], 0
    while len(values) < count:
        word = int(words[pos])
        layer, rabs = word & 0xFF, word >> 9 & (1 << 52) - 1
        x = -(rabs * wi[layer]) if word >> 8 & 1 else rabs * wi[layer]
        pos += 1
        if rabs < ki[layer]:
            values.append(x)
        elif layer == 0:
            while True:
                u1, u2 = uniforms(words[pos : pos + 2])
                pos += 2
                xx, yy = -0.27366123732975828 * math.log1p(-u1), -math.log1p(-u2)
                if yy + yy > xx * xx:
                    values.append(-(3.6541528853610088 + xx) if rabs >> 8 & 1 else 3.6541528853610088 + xx)
                    events["tail"] += 1
                    break
        else:
            accept = (f[layer - 1] - f[layer]) * uniforms(words[pos]) + f[layer] < math.exp(-0.5 * x * x)
            pos += 1
            events["wedge" if accept else "reject"] += 1
            if accept:
                values.append(x)
    return values, pos, events


class TestZigguratSlowPath:
    """The array continuation of numpy's ziggurat against numpy, bit for bit."""

    def test_shipped_widths_match_numpy(self):
        # a word with layer i, sign 0 and rabs = 1 makes standard_normal() return
        # exactly wi[i] (layer 1, never accepted, goes through the wedge test with
        # a zero uniform, which returns it)
        wi, _ = _ziggurat()
        assert wi.shape == (256,) and wi.dtype == np.float64
        for layer in range(256):
            _, gen = crafted([layer | 1 << 9, 0])
            assert gen.standard_normal() == wi[layer], layer

    def test_band_above_ki_leaves_the_fast_path(self):
        # numpy takes a rabs of ki + _KI_BAND to its wedge or tail test in every layer
        _, ki = _ziggurat()
        for layer in range(256):
            for sign in (0, 1):
                bits, gen = crafted([layer | sign << 8 | int(ki[layer] + rng._KI_BAND) << 9, 0, 7 << 11])
                gen.standard_normal()
                assert bits.state["buffer_pos"] >= 2, layer

    def test_tail_matches_numpy(self):
        # the tail multiplies log1p(-u) by numpy's 1/r, which rounds differently from dividing by r
        g = np.random.default_rng(47)
        _, ki = _ziggurat()
        differ = 0
        for trial in range(200):
            rabs = int(g.integers(int(ki[0]), 2**52))
            u1 = int(g.integers(0, 2**64, dtype=np.uint64))
            u2 = ((1 << 53) - 1 - trial) << 11  # close to 1: the first try accepts
            words = np.array([rabs << 9, u1, u2], dtype=np.uint64)
            _, gen = crafted(words)
            value, taken = _tail(words, 1, rabs)
            assert value == gen.standard_normal() and taken == 2
            u = uniforms(words[1])
            differ += -math.log1p(-u) / 3.6541528853610088 != -0.27366123732975828 * math.log1p(-u)
        assert differ > 0
        assert _tail(np.array([0, 1 << 63], dtype=np.uint64), 1, 0) is None  # out of words

    def test_stream_draws_hit_every_slow_path(self, monkeypatch):
        # rows 18625 and 26082 of these paths need more than the 20 words first fetched
        paths = [(m,) for m in [*range(1500), 18625, 26082]]
        keys = stream_keys(7, paths)
        fetches = []
        words_of = rng.philox_words
        monkeypatch.setattr(rng, "philox_words", lambda k, s, c: fetches.append(c) or words_of(k, s, c))
        noise, u = stream_draws(keys, 0, np.ones(len(keys), dtype=int), (3, 4), 0.1)
        assert max(fetches) > 20 == fetches[0]
        monkeypatch.undo()
        events = {"wedge": 0, "reject": 0, "tail": 0}
        words = philox_words(keys, np.zeros(len(keys), dtype=np.uint64), 64)
        longest = 0
        for m, key in enumerate(keys):
            values, pos, met = numpy_normal_walk(words[m], 12)
            events = {name: events[name] + met[name] for name in events}
            longest = max(longest, pos + 1)
            gen = TrajectoryStream(key).step(0)
            want = gen.normal(0.0, 0.1, size=(3, 4))
            assert np.array_equal(noise[m, 0], want) and u[m, 0] == gen.random(), m
            assert np.array_equal(0.0 + 0.1 * np.array(values), want.ravel()), m
            assert uniforms(words[m, pos]) == u[m, 0], m
        assert min(events.values()) > 0 and longest > 20, events

    def test_unsure_rows_replay_through_numpy(self, monkeypatch):
        # widen both doubt margins so every Gaussian off the fast path is replayed
        monkeypatch.setattr(rng, "_KI_BAND", 2**52)
        monkeypatch.setattr(rng, "_TIE", 2.0)
        keys = stream_keys(8, [(m,) for m in range(200)])
        noise, u = stream_draws(keys, 3, np.full(len(keys), 5), (3, 4), 0.2)
        replayed = 0
        for m, key in enumerate(keys):
            for s in range(2):
                gen = TrajectoryStream(key).step(3 + s)
                assert np.array_equal(noise[m, s], gen.normal(0.0, 0.2, size=(3, 4)))
                assert u[m, s] == gen.random()
            replayed += not standard_normals(philox_words(keys[m : m + 1], [3], 12))[1].all()
        assert replayed > 0
