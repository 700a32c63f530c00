import numpy as np

from cmld import CounterRNG
from cmld.rng import _GOLDEN, counter_uniform, counter_uniforms, stream_key, stream_keys

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

    def test_buffered_vector_draws_equal_fresh_ones(self):
        # the kernel passes the same two buffers at every step, cut to the
        # live width after each gather, so they arrive holding old draws
        out = np.empty(BLOCK + 3)
        scratch = np.empty(BLOCK + 3, dtype=np.uint64)
        for width in (1, 1000, BLOCK):
            keys = stream_keys(7, np.arange(width, dtype=np.uint64))
            for o, s in ((out[:width], scratch[:width]),
                         (np.empty(width), np.empty(width, dtype=np.uint64))):
                for c in COUNTERS:
                    fresh = counter_uniforms(keys, c)
                    assert counter_uniforms(keys, c, o, s) is o
                    assert np.array_equal(o.view(np.uint64), fresh.view(np.uint64))

    def test_stream_keys_match_scalar_keys_in_given_buffers(self):
        # the kernel hashes each shard's stream indices into the keys buffer
        # a pool worker keeps, through a scratch buffer holding old words
        streams = np.array([0, 1, 2, BLOCK - 1, BLOCK, 2**63 + 5, 2**64 - 1], dtype=np.uint64)
        for seed in (7, 2**64 - 3):
            want = [stream_key(seed, int(i)) for i in streams]
            assert stream_keys(seed, streams).tolist() == want
            out = np.full(BLOCK, 12345, dtype=np.uint64)
            scratch = np.full(BLOCK, 2**64 - 1, dtype=np.uint64)
            for width in (1, len(streams)):
                o = out[:width]
                assert stream_keys(seed, streams[:width], o, scratch[:width]) is o
                assert o.tolist() == want[:width]
                assert stream_keys(seed, streams[:width], scratch=scratch[:width]).tolist() \
                    == want[:width]
        # signed indices convert as astype(np.uint64) does
        signed = stream_keys(7, np.arange(5))
        assert np.array_equal(signed, stream_keys(7, np.arange(5, dtype=np.uint64)))

    def test_one_buffer_given_allocates_the_other(self):
        keys = stream_keys(7, np.arange(5, dtype=np.uint64))
        for c in COUNTERS:
            fresh = counter_uniforms(keys, c).view(np.uint64)
            out = np.empty(5)
            assert counter_uniforms(keys, c, out=out) is out
            assert np.array_equal(out.view(np.uint64), fresh)
            only_scratch = counter_uniforms(keys, c, scratch=np.empty(5, dtype=np.uint64))
            assert np.array_equal(only_scratch.view(np.uint64), fresh)
