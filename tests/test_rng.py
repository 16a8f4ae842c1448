from itertools import islice

import pytest

import oracles
from gridfree.rng import MASK64, sample_distinct, splitmix64_stream

# splitmix64 reference outputs, seeds 0, 1 and 2^64 - 1
STREAM_HEADS = {
    0: (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
        0xF88BB8A8724C81EC, 0x1B39896A51A8749B),
    1: (0x910A2DEC89025CC1, 0xBEEB8DA1658EEC67, 0xF893A2EEFB32555E,
        0x71C18690EE42C90B, 0x71BB54D8D101B5B9),
    MASK64: (0xE4D971771B652C20, 0xE99FF867DBF682C9, 0x382FF84CB27281E9,
             0x6D1DB36CCBA982D2, 0xB4A0472E578069AE),
}


def test_stream_heads_are_pinned():
    for seed, head in STREAM_HEADS.items():
        assert tuple(islice(splitmix64_stream(seed), 5)) == head
    # seeds are taken mod 2^64
    assert tuple(islice(splitmix64_stream(MASK64 + 1), 5)) == STREAM_HEADS[0]


def test_sample_distinct_pinned_draws():
    assert sample_distinct(1009, 6, 0) == (555, 37, 344, 725, 536, 19)
    assert sample_distinct(10, 10, 1) == (5, 8, 1, 3, 7, 2, 4, 6, 0, 9)
    assert sample_distinct(2000, 1, 7) == (487,)
    assert sample_distinct(5, 4, MASK64) == (1, 2, 3, 0)


def test_sample_distinct_matches_pool_oracle():
    for seed in range(500):
        n = 1 + seed * 4 % 2000
        for k in sorted({0, 1, n - 1, n}):
            got = sample_distinct(n, k, seed)
            assert got == oracles.sample_distinct_by_pool(n, k, seed)
            assert len(set(got)) == k and all(0 <= x < n for x in got)
    assert sample_distinct(0, 0, 3) == ()


def test_sample_distinct_rejects_k_out_of_range():
    for n, k in ((5, 6), (0, 1), (5, -1)):
        with pytest.raises(ValueError, match="need 0 <= k <= n"):
            sample_distinct(n, k, 0)
