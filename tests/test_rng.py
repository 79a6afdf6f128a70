import math

import numpy as np
import pytest

from bayeshead import RngStream, rng


def test_same_seed_and_stream_repeat():
    a = RngStream(7, 0).normal(64)
    b = RngStream(7, 0).normal(64)
    assert np.array_equal(a, b)


def test_distinct_stream_ids_differ():
    a = RngStream(7, 0).normal(64)
    b = RngStream(7, 1).normal(64)
    assert not np.array_equal(a, b)


def test_distinct_seeds_differ():
    a = RngStream(7).normal(64)
    b = RngStream(8).normal(64)
    assert not np.array_equal(a, b)


def test_standard_normal_moments():
    # CLT bounds at 3 sigma for n = 1e5
    draws = RngStream(2024, 5).normal(100_000)
    assert abs(draws.mean()) < 0.02
    assert abs(draws.var() - 1.0) < 0.03
    assert np.all(np.isfinite(draws))


@pytest.mark.parametrize("source", ["normal", "child_normals"])
def test_a_million_normals_follow_the_standard_normal(source):
    # the first four raw moments within 5 standard errors of N(0, 1)'s (0, 1, 0, 3; the variances of
    # x, x^2, x^3, x^4 are 1, 2, 15, 96), and the Kolmogorov-Smirnov distance to N(0, 1) below its
    # asymptotic critical value at level 1e-6; at a fixed seed, so the test cannot flake
    n = 1000 * 1000
    if source == "normal":
        x = RngStream(2027, 3).normal(n)
    else:  # all rows of one block: each row is its own child stream
        x = RngStream(2027, 3).child_normals(1000, 1000).ravel()
        rng._child_block.cache_clear()  # let go of the 8 MB block
    for k, (moment, var) in enumerate([(0.0, 1.0), (1.0, 2.0), (0.0, 15.0), (3.0, 96.0)], start=1):
        z = ((x**k).mean() - moment) / math.sqrt(var / n)
        assert abs(z) < 5.0, (k, z)
    cdf = 0.5 + 0.5 * np.frompyfunc(math.erf, 1, 1)(np.sort(x) / math.sqrt(2.0)).astype(np.float64)
    ranks = np.arange(n + 1) / n
    ks = max((ranks[1:] - cdf).max(), (cdf - ranks[:-1]).max())
    assert ks < math.sqrt(math.log(2.0 / 1e-6) / (2.0 * n)), ks


def test_serialize_restore_resumes_sequence():
    stream = RngStream(99, 3)
    stream.normal(17)
    snapshot = stream.state()
    tail = stream.normal(29)
    resumed = RngStream(**snapshot)
    assert np.array_equal(resumed.normal(29), tail)


def test_counter_counts_words():
    stream = RngStream(1)
    stream.normal(4)
    assert stream.counter == 8  # two words per normal
    stream.permutation(5)
    assert stream.counter == 8 + 4


def test_zero_draws_rejected():
    with pytest.raises(ValueError):
        RngStream(1).normal(0)


def test_permutation_is_permutation_and_deterministic():
    p1 = RngStream(5, 2).permutation(100)
    p2 = RngStream(5, 2).permutation(100)
    assert np.array_equal(p1, p2)
    assert np.array_equal(np.sort(p1), np.arange(100))
    assert not np.array_equal(p1, np.arange(100))


def test_derive_is_pure_and_keyed():
    parent = RngStream(11, 4)
    parent.normal(3)
    before = parent.counter
    kids = [parent.derive(k) for k in range(5)]
    assert parent.counter == before
    seqs = [tuple(k.normal(8)) for k in kids]
    assert len(set(seqs)) == 5
    assert kids[2].counter == 16
    again = parent.derive(2)
    assert again.state() == {"seed": 11, "stream_id": kids[2].stream_id, "counter": 0}


def test_nested_derive_deterministic():
    a = RngStream(1).derive(3, 9)
    b = RngStream(1).derive(3).derive(9)
    # multi-key derive folds keys in order, equivalent to chaining
    assert a.stream_id == b.stream_id
    assert RngStream(1).derive(9, 3).stream_id != a.stream_id


def test_derive_with_wide_ids_and_keys_is_pinned():
    # stream ids and keys are taken mod 2^64; values pinned from the scalar derive
    child = RngStream(3, 2**64 - 3).derive(2**63 + 7)
    assert child.stream_id == 18290359170402927711
    assert child.normal(2).tolist() == [0.43817438074415166, -0.390751436577593]


@pytest.mark.parametrize("stream_id, keys", [(0, ()), (2**64 - 1, ()), (5, (2**63 + 1,))])
def test_child_normals_rows_equal_derived_streams(stream_id, keys):
    parent = RngStream(17, stream_id).derive(*keys)
    parent.normal(3)
    block = parent.child_normals(12, 7)
    assert parent.counter == 6  # not advanced
    assert block.shape == (12, 7)
    for i in range(12):
        assert block[i].tobytes() == parent.derive(i).normal(7).tobytes()


class TestChildNormalsMemo:
    def test_hit_and_miss_rows_equal_derived_streams(self):
        rng._child_block.cache_clear()
        parent = RngStream(23, 9)
        miss = parent.child_normals(6, 5)
        hit = parent.child_normals(6, 5)
        info = rng._child_block.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert hit is miss
        for i in range(6):
            assert hit[i].tobytes() == parent.derive(i).normal(5).tobytes()

    def test_block_is_read_only(self):
        block = RngStream(23, 9).child_normals(3, 4)
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0] = 0.0

    def test_seed_stream_rows_and_width_each_key_an_entry(self):
        rng._child_block.cache_clear()
        blocks = [
            RngStream(1, 2).child_normals(3, 4),
            RngStream(5, 2).child_normals(3, 4),
            RngStream(1, 6).child_normals(3, 4),
            RngStream(1, 2).child_normals(7, 4),
            RngStream(1, 2).child_normals(3, 8),
        ]
        assert rng._child_block.cache_info().currsize == len(blocks)
        assert [b.shape for b in blocks] == [(3, 4)] * 3 + [(7, 4), (3, 8)]
        assert not np.array_equal(blocks[0], blocks[1])
        assert not np.array_equal(blocks[0], blocks[2])
        # more rows or a wider block extend the smaller one: row i is still derive(i)
        assert np.array_equal(blocks[3][:3], blocks[0])
        assert np.array_equal(blocks[4][:, :4], blocks[0])

    def test_counter_keys_an_entry(self):
        # drawn twice, the children stream on: the second block is words 2k .. 4k-1 of each child
        rng._child_block.cache_clear()
        children = rng._Children(31, 4, rows=3)
        first, second = children.normal(3 * 5), children.normal(3 * 5)
        assert children.counter == 20
        for i in range(3):
            both = RngStream(31, 4).derive(i).normal(10)
            assert np.concatenate([first[i], second[i]]).tobytes() == both.tobytes()


def test_child_normals_rejects_empty_shapes():
    with pytest.raises(ValueError):
        RngStream(1).child_normals(0, 3)
    with pytest.raises(ValueError):
        RngStream(1).child_normals(3, 0)


def _per_element_fisher_yates(stream, n):
    """The shuffle before its swap indices were vectorized: one numpy scalar at a time."""
    perm = np.arange(n)
    if n > 1:
        w = stream._take(n - 1)
        for k, i in enumerate(range(n - 1, 0, -1)):
            j = int(w[k] % np.uint64(i + 1))
            perm[i], perm[j] = perm[j], perm[i]
    return perm


@pytest.mark.parametrize("n", [0, 1, 2, 3, 1000])
def test_permutation_matches_per_element_fisher_yates(n):
    stream, reference = RngStream(13, 6, counter=11), RngStream(13, 6, counter=11)
    got = stream.permutation(n)
    want = _per_element_fisher_yates(reference, n)
    assert got.dtype == want.dtype == np.int64
    assert got.shape == (n,) and got.tobytes() == want.tobytes()
    assert stream.counter == reference.counter == 11 + max(n - 1, 0)


def _reference_words(seed, stream_id, start, count):
    """One stream's words, its keys built afresh on every call."""

    def mix(w):
        w = (w ^ (w >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        w = (w ^ (w >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return w ^ (w >> np.uint64(31))

    mask, golden = (1 << 64) - 1, np.uint64(0x9E3779B97F4A7C15)
    idx = np.arange(start, start + count, dtype=np.uint64)
    ids = np.array([stream_id & mask], dtype=np.uint64)
    keys = mix(np.concatenate([np.array([seed & mask], dtype=np.uint64), ids ^ golden]))
    h = mix(idx * golden + keys[:1])
    return mix(h ^ keys[1:, None])[0]


def _reference_normal(seed, stream_id, start, n):
    w = _reference_words(seed, stream_id, start, 2 * n)
    u1 = ((w[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (w[1::2] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def _reference_permutation(seed, stream_id, start, n):
    perm = list(range(n))
    w = _reference_words(seed, stream_id, start, n - 1)
    for k, i in enumerate(range(n - 1, 0, -1)):
        j = int(w[k] % np.uint64(i + 1))
        perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm, dtype=np.int64)


@pytest.mark.parametrize("seed", [0, 2**63 + 1])
@pytest.mark.parametrize("stream_id", [0, 2**64 - 1])
@pytest.mark.parametrize("counter", [0, 11, 2**40])
def test_a_streams_words_equal_the_per_call_reference(seed, stream_id, counter):
    stream = RngStream(seed, stream_id, counter)
    for _ in range(2):
        start = stream.counter
        assert stream.normal(9).tobytes() == _reference_normal(seed, stream_id, start, 9).tobytes()
        start = stream.counter
        assert stream.permutation(40).tobytes() == _reference_permutation(seed, stream_id, start, 40).tobytes()
    assert stream.counter == counter + 2 * (18 + 39)


def test_the_seed_is_part_of_a_streams_words():
    a, b = RngStream(0, 5), RngStream(1, 5)
    for _ in range(3):
        for seed, stream in ((0, a), (1, b)):
            start = stream.counter
            assert stream.normal(6).tobytes() == _reference_normal(seed, 5, start, 6).tobytes()
    assert not np.array_equal(RngStream(0, 5).normal(6), RngStream(1, 5).normal(6))
