import numpy as np
import pytest

from bayeshead import RngStream


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
