import numpy as np

from cmld import CounterRNG
from cmld.rng import _GOLDEN, counter_uniform, counter_uniforms

BLOCK = 1 << 16
COUNTERS = (0, 1, BLOCK - 1, BLOCK, BLOCK + 1)


class TestDrawRoutes:
    def test_scalar_vector_and_stream_draws_agree_bitwise(self):
        # stream 0 of seed 7 has key + GOLDEN >= 2^64, so key + (c + 1) GOLDEN
        # wraps already at c = 0; stream 1's does not
        rngs = [CounterRNG(7, 0), CounterRNG(7, 1)]
        keys = [r._key for r in rngs]
        assert keys[0] + _GOLDEN >= 1 << 64 > keys[1] + _GOLDEN
        key_arr = np.array(keys, dtype=np.uint64)
        for c in COUNTERS:
            scalar = [counter_uniform(k, c) for k in keys]
            assert counter_uniforms(key_arr, c).tolist() == scalar
            for seed_stream, want in zip(((7, 0), (7, 1)), scalar):
                one = CounterRNG(*seed_stream)
                one.skip(c)
                assert one.uniform() == want
                many = CounterRNG(*seed_stream)
                many.skip(c)
                assert many.uniforms(3).tolist() == [counter_uniform(many._key, c + i)
                                                     for i in range(3)]
                assert many._ctr == c + 3

    def test_read_ahead_across_blocks(self):
        # the first 64 draws are scalar, the rest vector blocks of 2^16: a
        # read from just below 2^16 crosses both seams
        rng = CounterRNG(7, 0)
        rng.skip(BLOCK - 3)
        bound = 64 + BLOCK + 5
        got = list(rng.read_ahead(bound))
        assert rng._ctr == BLOCK - 3  # reading ahead does not move the counter
        assert got == [counter_uniform(rng._key, BLOCK - 3 + i) for i in range(bound)]
        rng.skip(bound)
        assert rng.uniform() == counter_uniform(rng._key, BLOCK - 3 + bound)

    def test_read_ahead_blocks_stay_bounded(self, monkeypatch):
        sizes = []
        block = CounterRNG._block

        def spy(self, start, count):
            sizes.append(count)
            return block(self, start, count)

        monkeypatch.setattr(CounterRNG, "_block", spy)
        draws = CounterRNG(7, 0).read_ahead(3 * BLOCK)
        for _ in range(100):
            next(draws)
        assert sizes == [BLOCK]  # blocks are computed only as they are reached
        assert sum(1 for _ in draws) == 3 * BLOCK - 100
        assert sizes == [BLOCK, BLOCK, BLOCK - 64]
