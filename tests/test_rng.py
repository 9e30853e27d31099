import numpy as np

from arcsim.rng import TrajectoryStream, stream_key, trajectory_stream


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
        assert draws(stream.step(7))[0] == fresh_generator(stream_key(9, 2, 0, 4), 7).random()

    def test_streams_are_independent(self):
        a, b = trajectory_stream(1, 0), trajectory_stream(1, 1)
        ga = a.step(2)
        first = ga.random()
        b.step(2).random()
        assert a.step(2).random() == first
