"""Check-in parsing, split, and BPR sampling tests."""

import numpy as np
import pytest

import oracles
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
    # user * n_pois + poi keys must fit in int64
    with pytest.raises(ValueError, match="overflows"):
        ia.InteractionSet(2 ** 32, 2 ** 31, [])


def test_set_sorts_and_deduplicates_arrays_and_tuples():
    rows = [(2, 1), (0, 3), (2, 1), (0, 0), (1, 2), (0, 3)]
    want = [[0, 0], [0, 3], [1, 2], [2, 1]]
    for given in (rows, np.array(rows, dtype=np.int64)):
        s = ia.InteractionSet(3, 4, given)
        assert s.ids.dtype == np.int64 and s.ids.tolist() == want
        assert len(s) == 4 and np.diff(s.indptr).tolist() == [2, 1, 1]
        assert s.pairs == frozenset(map(tuple, want))


def test_user_pois_of_empty_user_is_empty_int64():
    s = ia.InteractionSet(3, 4, [(0, 1), (2, 3)])
    pois = s.user_pois(1)
    assert pois.dtype == np.int64 and pois.shape == (0,)
    assert ia.InteractionSet(2, 4, []).user_pois(0).shape == (0,)


def test_split_rejects_overlapping_views():
    mk = lambda ps: ia.InteractionSet(2, 3, ps)
    with pytest.raises(ValueError, match="disjoint"):
        ia.DatasetSplit(mk([(0, 0), (1, 2)]), mk([(0, 1)]), mk([(1, 2)]))


def test_split_rejects_views_with_different_id_spaces():
    mk = lambda n_users, n_pois: ia.InteractionSet(n_users, n_pois, [(0, 0)])
    for val in (mk(3, 3), mk(2, 4)):
        with pytest.raises(ValueError, match="id spaces"):
            ia.DatasetSplit(mk(2, 3), val, ia.InteractionSet(2, 3, []))


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
        if len(iset.user_pois(u)) >= 1:
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("position", [0, 1, 2])
def test_split_rejects_non_finite_ratio(bad, position):
    # a NaN compares false both ways, so no range test alone can catch it
    ratios = [0.8, 0.1, 0.1]
    ratios[position] = bad
    with pytest.raises(ia.BadRatios, match="finite"):
        ia.split_dataset(make_set({(0, 0), (0, 1), (0, 2)}, 1, 3),
                         tuple(ratios), seed=0)


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


# (n_users, n_pois, pairs per user): 1% and 60% of the catalog per user
DENSITIES = {"sparse": (40, 2000, 20), "dense": (20, 50, 30)}


def random_split(n_users, n_pois, per_user):
    rng = np.random.default_rng(2)
    pairs = {(u, int(p)) for u in range(n_users)
             for p in rng.choice(n_pois, size=per_user, replace=False)}
    return ia.split_dataset(make_set(pairs, n_users, n_pois), (0.8, 0.1, 0.1),
                            seed=0)


def oracle_bpr(split, batch_size, rng):
    """A batch as the scalar loop draws it, and its per-triple draw counts."""
    train = sorted(split.train.pairs)
    full = split.train.pairs | split.val.pairs | split.test.pairs
    rows = [train[i] for i in rng.integers(0, len(train), size=batch_size)]
    negs, draws = oracles.naive_negatives(full, [u for u, _ in rows],
                                          split.n_pois, rng)
    return [[u, p, n] for (u, p), n in zip(rows, negs)], draws


@pytest.mark.parametrize("density", sorted(DENSITIES))
def test_bpr_matches_scalar_rejection_oracle(density):
    split = random_split(*DENSITIES[density])
    ours, ref = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(20):
        batch = ia.sample_bpr_batch(split, 256, ours)
        want, _ = oracle_bpr(split, 256, ref)
        assert batch.tolist() == want
        assert ours.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("density", sorted(DENSITIES))
@pytest.mark.parametrize("which", [0, -1], ids=["first", "last"])
def test_bpr_matches_oracle_when_first_or_last_draw_rejected(density, which):
    split = random_split(*DENSITIES[density])
    for seed in range(5000):
        ref = np.random.default_rng(seed)
        want, draws = oracle_bpr(split, 16, ref)
        if draws[which] > 1:
            break
    else:
        pytest.fail("no batch with that draw rejected")
    ours = np.random.default_rng(seed)
    assert ia.sample_bpr_batch(split, 16, ours).tolist() == want
    assert ours.bit_generator.state == ref.bit_generator.state


def test_negatives_match_oracle_across_windows():
    # far more draws than one re-test window, most of them rejected
    split = random_split(*DENSITIES["dense"])
    full = split.train.pairs | split.val.pairs | split.test.pairs
    users = np.random.default_rng(4).integers(0, split.n_users, size=3000)
    ours, ref = np.random.default_rng(5), np.random.default_rng(5)
    got = ia.sample_negatives(split.full, users, ours)
    want, draws = oracles.naive_negatives(full, users.tolist(), split.n_pois, ref)
    assert sum(draws) > 2 * len(users)
    assert got.tolist() == want
    assert ours.bit_generator.state == ref.bit_generator.state


def test_saturated_user_named_first_in_batch_order():
    # users 1 and 2 hold every poi, user 0 does not
    mk = lambda ps: ia.InteractionSet(3, 2, ps)
    split = ia.DatasetSplit(mk([(0, 0), (1, 0), (2, 0), (2, 1)]), mk([(1, 1)]),
                            mk([]))
    rng = np.random.default_rng(0)
    with pytest.raises(ia.SaturatedUser, match="user 2 "):
        ia.sample_negatives(split.full, np.array([0, 2, 1, 2]), rng)
    for seed in range(20):
        users = split.train.ids[
            np.random.default_rng(seed).integers(0, len(split.train), size=6), 0]
        first = next(u for u in users.tolist() if u > 0)
        with pytest.raises(ia.SaturatedUser, match=f"user {first} "):
            ia.sample_bpr_batch(split, 6, np.random.default_rng(seed))
