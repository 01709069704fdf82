"""Check-in parsing, split, and BPR sampling tests."""

import numpy as np
import pytest

from urbanrec import interactions as ia


def make_set(pairs, n_users=None, n_pois=None):
    n_users = n_users or max(u for u, _ in pairs) + 1
    n_pois = n_pois or max(p for _, p in pairs) + 1
    return ia.InteractionSet(n_users, n_pois, frozenset(pairs))


def test_parse_dedup():
    s = ia.parse_checkins("0\t0\n0\t0\n")
    assert len(s) == 1


def test_parse_counts():
    s = ia.parse_checkins("0\t1\n1\t0\n")
    assert (s.n_users, s.n_pois) == (2, 2)
    assert len(s) == 2


def test_parse_malformed():
    for bad in ["0", "0\t1\t2", "a\t0", "0\t-1"]:
        with pytest.raises(ia.MalformedLine):
            ia.parse_checkins(bad + "\n")


def test_parse_empty():
    with pytest.raises(ia.EmptyDataset):
        ia.parse_checkins("# nothing\n")


def test_parse_gap_user_rejected():
    with pytest.raises(ia.EmptyDataset):
        ia.parse_checkins("0\t0\n2\t0\n")


def test_round_trip():
    s = ia.parse_checkins("0\t1\n0\t3\n1\t2\n")
    s2 = ia.parse_checkins(ia.serialize_checkins(s))
    assert s.pairs == s2.pairs


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        ia.InteractionSet(1, 1, frozenset({(0, 3)}))


def test_split_exact_proportions():
    pairs = {(0, p) for p in range(10)}
    split = ia.split_dataset(make_set(pairs, 1, 10), (0.8, 0.1, 0.1), seed=0)
    assert (len(split.train), len(split.val), len(split.test)) == (8, 1, 1)


def test_split_degenerate_user_all_train():
    pairs = {(0, 0), (1, 0), (1, 1)}
    split = ia.split_dataset(make_set(pairs, 2, 2), (0.8, 0.1, 0.1), seed=0)
    assert split.train.user_pois(0).tolist() == [0]
    assert split.val.user_pois(0).tolist() == []
    assert split.test.user_pois(0).tolist() == []
    # 2-pair user is also degenerate
    assert len(split.train.user_pois(1)) == 2


def test_split_disjoint_union_preserved():
    rng = np.random.default_rng(1)
    pairs = {(u, int(p)) for u in range(20)
             for p in rng.choice(50, size=rng.integers(1, 15), replace=False)}
    iset = make_set(pairs, 20, 50)
    split = ia.split_dataset(iset, (0.7, 0.15, 0.15), seed=7)
    assert split.train.pairs | split.val.pairs | split.test.pairs == iset.pairs
    assert not (split.train.pairs & split.val.pairs)
    assert not (split.train.pairs & split.test.pairs)
    assert not (split.val.pairs & split.test.pairs)
    for u in range(20):
        if len(iset.by_user[u]) >= 1:
            assert len(split.train.user_pois(u)) >= 1


def test_split_deterministic():
    pairs = {(u, p) for u in range(5) for p in range(u, u + 8)}
    iset = make_set(pairs, 5, 13)
    a = ia.split_dataset(iset, (0.8, 0.1, 0.1), seed=3)
    b = ia.split_dataset(iset, (0.8, 0.1, 0.1), seed=3)
    assert a.train.pairs == b.train.pairs
    assert a.val.pairs == b.val.pairs
    assert a.test.pairs == b.test.pairs
    c = ia.split_dataset(iset, (0.8, 0.1, 0.1), seed=4)
    assert c.train.pairs != a.train.pairs  # overwhelmingly likely to differ


def test_split_train_never_empty_even_with_tiny_train_ratio():
    pairs = {(0, p) for p in range(3)}
    split = ia.split_dataset(make_set(pairs, 1, 3), (0.1, 0.1, 0.8), seed=0)
    assert len(split.train.user_pois(0)) >= 1


def test_split_bad_ratios():
    iset = make_set({(0, 0)}, 1, 1)
    for ratios in [(0.5, 0.5, 0.5), (1.0, 0.0, 0.0), (0.8, 0.3, -0.1)]:
        with pytest.raises(ia.BadRatios):
            ia.split_dataset(iset, ratios, seed=0)


def test_bpr_forced_negative():
    pairs = {(0, 0)}
    split = ia.split_dataset(make_set(pairs, 1, 2), (0.8, 0.1, 0.1), seed=0)
    rng = np.random.default_rng(0)
    batch = ia.sample_bpr_batch(split, 32, rng)
    assert batch.shape == (32, 3) and batch.dtype == np.int64
    assert all(neg == 1 for _, _, neg in batch.tolist())
    assert all(pos == 0 and user == 0 for user, pos, _ in batch.tolist())


def test_bpr_saturated_user():
    pairs = {(0, 0), (0, 1)}
    split = ia.split_dataset(make_set(pairs, 1, 2), (0.8, 0.1, 0.1), seed=0)
    with pytest.raises(ia.SaturatedUser):
        ia.sample_bpr_batch(split, 8, np.random.default_rng(0))


def test_bpr_negative_never_in_full_positives():
    # val/test positives must also be shielded from negative sampling
    pairs = {(0, p) for p in range(10)}
    iset = make_set(pairs, 1, 12)
    split = ia.split_dataset(iset, (0.8, 0.1, 0.1), seed=0)
    rng = np.random.default_rng(5)
    batch = ia.sample_bpr_batch(split, 500, rng)
    for user, pos, neg in batch.tolist():
        assert neg in (10, 11)
        assert (user, pos) in split.train.pairs


def test_bpr_negative_frequencies_uniform():
    # 1e5 draws, M=100, positives 0..49: each free id should appear ~2%
    pairs = {(0, p) for p in range(50)}
    iset = make_set(pairs, 1, 100)
    split = ia.split_dataset(iset, (0.8, 0.1, 0.1), seed=0)
    rng = np.random.default_rng(123)
    counts = np.zeros(100, dtype=np.int64)
    for chunk in range(10):
        for neg in ia.sample_bpr_batch(split, 10_000, rng)[:, 2]:
            counts[neg] += 1
    assert counts[:50].sum() == 0
    freqs = counts[50:] / 100_000.0
    assert np.all(np.abs(freqs - 0.02) < 0.005)


def test_bpr_reproducible():
    pairs = {(u, p) for u in range(4) for p in range(u, u + 5)}
    split = ia.split_dataset(make_set(pairs, 4, 9), (0.8, 0.1, 0.1), seed=0)
    b1 = ia.sample_bpr_batch(split, 64, np.random.default_rng(9))
    b2 = ia.sample_bpr_batch(split, 64, np.random.default_rng(9))
    np.testing.assert_array_equal(b1, b2)


def test_batch_arrays():
    batch = np.array([[0, 1, 2], [3, 4, 5]], dtype=np.int64)
    u, p, n = ia.batch_arrays(batch)
    assert u.tolist() == [0, 3] and p.tolist() == [1, 4] and n.tolist() == [2, 5]
