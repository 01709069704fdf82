"""Ranking metric tests, including the hand-computed 4-user fixture."""

import tracemalloc

import numpy as np
import pytest

import oracles
from urbanrec import autodiff as ad
from urbanrec import evaluation as ev
from urbanrec.counterfactual import score_candidates
from urbanrec.interactions import DatasetSplit, InteractionSet
from urbanrec.propagation import FinalEmbeddings


def finals_from_scores(score_matrix: np.ndarray) -> FinalEmbeddings:
    """Finals where y_up(u, p) equals score_matrix[u, p] exactly.

    Users are one-hot rows, POIs carry their per-user score columns; the
    geo chunks reuse the same values (only y_up scoring is exercised).
    """
    n_users, n_pois = score_matrix.shape
    u = np.eye(n_users)
    p = score_matrix.T.copy()
    return FinalEmbeddings(ad.Tensor(u), ad.Tensor(u), ad.Tensor(p),
                           ad.Tensor(p), ad.Tensor(u), ad.Tensor(p))


def test_rank_candidates_basic():
    finals = finals_from_scores(np.array([[0.1, 0.9, 0.5]]))
    ranked = ev.rank_candidates(0, finals, "y_up", np.array([], dtype=np.int64))
    assert ranked.tolist() == [1, 2, 0]


def test_rank_candidates_ties_ascending_id():
    finals = finals_from_scores(np.array([[0.5, 0.5, 0.5, 0.5]]))
    ranked = ev.rank_candidates(0, finals, "y_up", np.array([], dtype=np.int64))
    assert ranked.tolist() == [0, 1, 2, 3]


def test_rank_candidates_excludes():
    finals = finals_from_scores(np.array([[0.1, 0.9, 0.5, 0.7]]))
    ranked = ev.rank_candidates(0, finals, "y_up", np.array([1, 3]))
    assert ranked.tolist() == [2, 0]


def test_rank_candidates_matches_naive_sort():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=(1, 50))
    finals = finals_from_scores(scores)
    ranked = ev.rank_candidates(0, finals, "y_up", np.array([], dtype=np.int64))
    naive = sorted(range(50), key=lambda p: (-scores[0, p], p))
    assert ranked.tolist() == naive


def test_recall_trivial_cases():
    ranked = np.arange(10)
    assert ev.recall_at_k(ranked, {0, 1}, 5) == 1.0
    assert ev.recall_at_k(ranked, {8, 9}, 5) == 0.0
    assert ev.recall_at_k(ranked, {0, 1, 8, 9}, 2) == 0.5


def test_recall_empty_test_set():
    with pytest.raises(ev.EmptyTestSet):
        ev.recall_at_k(np.arange(3), set(), 2)


def test_ndcg_trivial_cases():
    ranked = np.arange(30)
    assert ev.ndcg_at_k(ranked, {0}, 20) == 1.0
    # single positive at rank 3: (1/log2(4)) / (1/log2(2)) = 0.5
    assert abs(ev.ndcg_at_k(ranked, {2}, 20) - 0.5) < 1e-12
    assert ev.ndcg_at_k(ranked, {25}, 20) == 0.0
    # ideal DCG spans the whole positive set even when K is smaller
    want = 1.0 / (1.0 / np.log2(2) + 1.0 / np.log2(3))
    assert abs(ev.ndcg_at_k(ranked, {0, 1}, 1) - want) < 1e-15


def test_ndcg_matches_naive():
    rng = np.random.default_rng(1)
    for _ in range(20):
        ranked = rng.permutation(30)
        pos = set(int(p) for p in rng.choice(30, size=5, replace=False))
        for k in (1, 5, 10, 30):
            assert ev.ndcg_at_k(ranked, pos, k) == oracles.naive_ndcg(ranked, pos, k)


def test_pair_auc_examples():
    assert ev.pair_auc(np.array([1.0]), np.array([0.0])) == 1.0
    assert ev.pair_auc(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.5
    got = ev.pair_auc(np.array([0.9, 0.2]), np.array([0.5, 0.1]))
    assert got == 0.75


def test_pair_auc_matches_naive():
    rng = np.random.default_rng(2)
    pos = rng.normal(size=6)
    neg = rng.normal(size=9)
    assert ev.pair_auc(pos, neg) == oracles.naive_auc(pos, neg)


def test_metrics_monotone_in_k():
    rng = np.random.default_rng(3)
    ranked = rng.permutation(40)
    pos = set(int(p) for p in rng.choice(40, size=6, replace=False))
    rs = [ev.recall_at_k(ranked, pos, k) for k in range(1, 41)]
    ns = [ev.ndcg_at_k(ranked, pos, k) for k in range(1, 41)]
    assert all(b >= a - 1e-15 for a, b in zip(rs, rs[1:]))
    assert all(b >= a - 1e-15 for a, b in zip(ns, ns[1:]))


def test_monotone_transform_invariance():
    rng = np.random.default_rng(4)
    scores = rng.normal(size=30)
    transformed = np.exp(scores) + 5.0  # strictly increasing
    ids = np.arange(30)
    r1 = ids[np.lexsort((ids, -scores))]
    r2 = ids[np.lexsort((ids, -transformed))]
    np.testing.assert_array_equal(r1, r2)
    pos, neg = scores[:10], scores[10:]
    assert ev.pair_auc(np.exp(pos) + 5, np.exp(neg) + 5) == ev.pair_auc(pos, neg)


def fixture_split() -> DatasetSplit:
    mk = lambda ps: InteractionSet(4, 8, frozenset(ps))
    train = {(0, 0), (1, 0), (1, 1), (2, 0), (3, 2)}
    val = {(0, 1), (3, 3)}
    test = {(0, 2), (0, 3), (1, 4), (2, 5), (2, 6), (2, 7)}
    return DatasetSplit(mk(train), mk(val), mk(test))


def fixture_finals() -> FinalEmbeddings:
    scores = np.zeros((4, 8))
    scores[0] = [0.0, 0.0, 0.9, 0.2, 0.8, 0.5, 0.1, 0.05]
    scores[1] = [0.0, 0.0, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3]
    scores[2] = [0.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3]
    scores[3] = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    return finals_from_scores(scores)


def test_four_user_fixture_hand_computed():
    """Hand-worked expectations.

    user0: candidates (minus train 0, val 1) ranked [2,4,5,3,6,7]; test {2,3}
           at ranks 1 and 4.
    user1: all candidate scores tie, ranked [2,3,4,5,6,7]; test {4} at rank 3.
    user2: ranked [1,2,3,4,5,6,7]; test {5,6,7} at ranks 5,6,7.
    user3: no test pairs, skipped.
    """
    report = ev.evaluate(fixture_finals(), fixture_split(), scorer="y_up",
                         target="test", ks=(1, 2, 4), seed=0, with_auc=False)
    assert report.n_users_evaluated == 3
    assert report.defined
    assert report.recall[1] == (0.5 + 0.0 + 0.0) / 3
    assert report.recall[2] == (0.5 + 0.0 + 0.0) / 3
    assert report.recall[4] == (1.0 + 1.0 + 0.0) / 3
    idcg2 = 1.0 / np.log2(2) + 1.0 / np.log2(3)
    ndcg1_u0 = (1.0 / np.log2(2)) / idcg2        # hit at rank 1, |pos|=2
    ndcg4_u0 = (1.0 / np.log2(2) + 1.0 / np.log2(5)) / idcg2
    ndcg4_u1 = (1.0 / np.log2(4)) / 1.0          # hit at rank 3, |pos|=1
    assert abs(report.ndcg[1] - ndcg1_u0 / 3) < 1e-15
    assert abs(report.ndcg[2] - ndcg1_u0 / 3) < 1e-15
    assert abs(report.ndcg[4] - (ndcg4_u0 + ndcg4_u1) / 3) < 1e-15
    # numeric spot values
    assert abs(report.ndcg[1] - 0.6131471927654584 / 3) < 1e-12
    assert abs(report.ndcg[4] - (0.8772153153380493 + 0.5) / 3) < 1e-12


def test_fixture_auc_matches_pairwise_oracle():
    finals = fixture_finals()
    split = fixture_split()
    report = ev.evaluate(finals, split, scorer="y_up", target="test",
                         ks=(1,), seed=11)
    expect = 0.0
    score = lambda u, pois: finals.p.data[pois] @ finals.u.data[u]
    for u, targets in ((0, [2, 3]), (1, [4]), (2, [5, 6, 7])):
        negs = ev.sample_auc_negatives(split, u, len(targets), seed=11)
        expect += oracles.naive_auc(score(u, np.array(targets)), score(u, negs))
    assert report.auc == expect / 3


@pytest.mark.parametrize("n_pois,per_user", [(2000, 20), (50, 30)],
                         ids=["sparse", "dense"])
def test_auc_negatives_match_scalar_rejection_oracle(n_pois, per_user,
                                                     monkeypatch):
    # 1% and 60% of the catalog per user; counts up to several re-test windows
    rng = np.random.default_rng(6)
    pairs = [(u, int(p)) for u in range(6)
             for p in rng.choice(n_pois, size=per_user, replace=False)]
    mk = lambda ps: InteractionSet(6, n_pois, ps)
    split = DatasetSplit(mk(pairs[::2]), mk(pairs[1::4]), mk(pairs[3::4]))
    used = []
    sample = ev.sample_negatives
    monkeypatch.setattr(ev, "sample_negatives",
                        lambda full, users, rng: used.append(rng)
                        or sample(full, users, rng))
    for u in range(6):
        for count in (1, 3, 200):
            ref = np.random.default_rng(
                np.random.SeedSequence([9, ev.AUC_STREAM, u]))
            want, _ = oracles.naive_negatives(set(pairs), [u] * count, n_pois, ref)
            assert ev.sample_auc_negatives(split, u, count, 9).tolist() == want
            assert used.pop().bit_generator.state == ref.bit_generator.state


def test_evaluate_empty_test_split():
    mk = lambda ps: InteractionSet(2, 4, frozenset(ps))
    split = DatasetSplit(mk({(0, 0), (1, 1)}), mk(set()), mk(set()))
    finals = finals_from_scores(np.zeros((2, 4)))
    report = ev.evaluate(finals, split, scorer="y_up")
    assert report.n_users_evaluated == 0
    assert not report.defined
    assert report.auc is None
    assert report.recall[20] is None


def test_evaluate_oracle_scorer_perfect_ndcg():
    # scorer puts all test positives first: ndcg=1, recall = 1 when K covers
    scores = np.zeros((1, 30))
    test_pos = [3, 7, 11]
    scores[0, test_pos] = [3.0, 2.0, 1.0]
    mk = lambda ps: InteractionSet(1, 30, frozenset(ps))
    split = DatasetSplit(mk({(0, 0)}), mk(set()), mk({(0, p) for p in test_pos}))
    report = ev.evaluate(finals_from_scores(scores), split, scorer="y_up",
                         ks=(1, 3, 20), with_auc=False)
    idcg3 = sum(1.0 / np.log2(r + 1) for r in (1, 2, 3))
    assert abs(report.ndcg[1] - 1.0 / idcg3) < 1e-15
    assert report.ndcg[3] == 1.0
    assert report.ndcg[20] == 1.0
    assert report.recall[1] == pytest.approx(1.0 / 3.0)
    assert report.recall[3] == 1.0
    assert report.recall[20] == 1.0


def test_evaluate_excluded_never_ranked():
    rng = np.random.default_rng(5)
    scores = rng.normal(size=(1, 20))
    mk = lambda ps: InteractionSet(1, 20, frozenset(ps))
    split = DatasetSplit(mk({(0, 1), (0, 2)}), mk({(0, 3)}), mk({(0, 4)}))
    finals = finals_from_scores(scores)
    ranked = ev.rank_candidates(0, finals, "y_up",
                                np.array([1, 2, 3]))
    assert set(ranked.tolist()).isdisjoint({1, 2, 3})
    assert len(ranked) == 17


def test_evaluate_matches_per_user_reference():
    """The batched argsort path must equal a plain rank_candidates loop."""
    rng = np.random.default_rng(9)
    n_users, n_pois, d = 12, 40, 6
    mk = lambda arr: ad.Tensor(np.ascontiguousarray(arr))
    finals = FinalEmbeddings(mk(rng.normal(size=(n_users, d))),
                             mk(rng.normal(size=(n_users, d))),
                             mk(rng.normal(size=(n_pois, d))),
                             mk(rng.normal(size=(n_pois, d))),
                             mk(rng.normal(size=(n_users, 2 * d))),
                             mk(rng.normal(size=(n_pois, 2 * d))))
    train, val, test = set(), set(), set()
    for u in range(n_users):
        pois = rng.choice(n_pois, size=13, replace=False)
        train.update((u, int(p)) for p in pois[:8])
        val.update((u, int(p)) for p in pois[8:10])
        test.update((u, int(p)) for p in pois[10:])
    mks = lambda ps: InteractionSet(n_users, n_pois, frozenset(ps))
    split = DatasetSplit(mks(train), mks(val), mks(test))
    for scorer in ("y_up", "te", "tie"):
        report = ev.evaluate(finals, split, scorer=scorer, ks=(1, 5, 17),
                             seed=3, with_auc=True)
        recall_acc = {k: 0.0 for k in (1, 5, 17)}
        ndcg_acc = {k: 0.0 for k in (1, 5, 17)}
        auc_acc = 0.0
        for u in range(n_users):
            targets = split.test.user_pois(u)
            exclude = np.concatenate([split.train.user_pois(u),
                                      split.val.user_pois(u)])
            ranked = ev.rank_candidates(u, finals, scorer, exclude)
            for k in (1, 5, 17):
                recall_acc[k] += ev.recall_at_k(ranked, targets, k)
                ndcg_acc[k] += ev.ndcg_at_k(ranked, targets, k)
            negs = ev.sample_auc_negatives(split, u, len(targets), seed=3)
            auc_acc += ev.pair_auc(score_candidates(finals, u, targets, scorer),
                                   score_candidates(finals, u, negs, scorer))
        assert report.n_users_evaluated == n_users
        for k in (1, 5, 17):
            assert report.recall[k] == recall_acc[k] / n_users
            assert report.ndcg[k] == ndcg_acc[k] / n_users
        assert report.auc == auc_acc / n_users


def tied_finals_and_split(rng, n_users=10, n_half=30, d=3, sizes=(8, 3, 5)):
    """Finals whose POIs come in identical pairs (POI i + n_half copies POI
    i) with small-integer coordinates, so that every score is exact and
    equal scores fall across every cut-off and across the exclusions.  Each
    user gets ``sizes`` (train, val, test) distinct POIs."""
    n_pois = 2 * n_half

    def ints(n):
        return rng.integers(-2, 3, size=(n, d)).astype(float)

    p_g, p_f = ints(n_half), ints(n_half)
    p_g, p_f = np.concatenate([p_g, p_g]), np.concatenate([p_f, p_f])
    u_g, u_f = ints(n_users), ints(n_users)
    finals = FinalEmbeddings(ad.Tensor(u_g), ad.Tensor(u_f), ad.Tensor(p_g),
                             ad.Tensor(p_f), ad.Tensor(u_g + u_f),
                             ad.Tensor(p_g + p_f))
    train, val, test = set(), set(), set()
    for u in range(n_users):
        n_train, n_val, n_test = sizes
        pois = rng.choice(n_pois, size=n_train + n_val + n_test, replace=False)
        train.update((u, int(p)) for p in pois[:n_train])
        val.update((u, int(p)) for p in pois[n_train:n_train + n_val])
        test.update((u, int(p)) for p in pois[n_train + n_val:])
    mks = lambda ps: InteractionSet(n_users, n_pois, frozenset(ps))
    return finals, DatasetSplit(mks(train), mks(val), mks(test))


def test_rank_candidates_exact_ties_match_lexsort_oracle():
    finals, split = tied_finals_and_split(np.random.default_rng(10))
    ids = np.arange(finals.p.data.shape[0])
    straddled = 0
    for scorer in ("tie", "te", "y_up"):
        for u in range(split.n_users):
            scores = score_candidates(finals, u, ids, scorer)
            exclude = np.concatenate([split.train.user_pois(u),
                                      split.val.user_pois(u)])
            for ex in (exclude, np.array([], dtype=np.int64)):
                ranked = ev.rank_candidates(u, finals, scorer, ex)
                cand = np.setdiff1d(ids, ex)
                oracle = cand[np.lexsort((cand, -scores[cand]))]
                np.testing.assert_array_equal(ranked, oracle)
            kept = np.setdiff1d(ids, exclude)
            straddled += bool(np.isin(scores[exclude], scores[kept]).any())
    assert straddled == 3 * split.n_users


def assert_evaluate_matches_per_user_loop(finals, split, ks):
    """evaluate equals recall_at_k, ndcg_at_k and pair_auc over a plain
    rank_candidates loop, with ``==``, for every scorer and both targets;
    some score ties must straddle a cut-off."""
    for scorer in ("tie", "te", "y_up"):
        for target, seen in (("test", (split.train, split.val)),
                             ("val", (split.train,))):
            target_set = split.test if target == "test" else split.val
            recall_acc = {k: 0.0 for k in ks}
            ndcg_acc = {k: 0.0 for k in ks}
            auc_acc = 0.0
            straddled = 0
            for u in range(split.n_users):
                targets = target_set.user_pois(u)
                exclude = np.concatenate([s.user_pois(u) for s in seen])
                ranked = ev.rank_candidates(u, finals, scorer, exclude)
                for k in ks:
                    recall_acc[k] += ev.recall_at_k(ranked, targets, k)
                    ndcg_acc[k] += ev.ndcg_at_k(ranked, targets, k)
                negs = ev.sample_auc_negatives(split, u, len(targets), seed=5)
                auc_acc += ev.pair_auc(score_candidates(finals, u, targets, scorer),
                                       score_candidates(finals, u, negs, scorer))
                scores = score_candidates(finals, u, ranked, scorer)
                straddled += sum(scores[k - 1] == scores[k] for k in ks)
            assert straddled > 0
            report = ev.evaluate(finals, split, scorer=scorer, target=target,
                                 ks=ks, seed=5)
            n = split.n_users
            assert report.n_users_evaluated == n
            for k in ks:
                assert report.recall[k] == recall_acc[k] / n
                assert report.ndcg[k] == ndcg_acc[k] / n
            assert report.auc == auc_acc / n


def test_evaluate_exact_ties_match_per_user_loop():
    finals, split = tied_finals_and_split(np.random.default_rng(11))
    assert_evaluate_matches_per_user_loop(finals, split, (1, 2, 3, 5, 8, 13))


def test_evaluate_stops_past_every_k_exactly_under_ties():
    # 20 val and 24 test targets per user, more than the largest k: evaluate
    # stops counting at the first target ranked past 13
    finals, split = tied_finals_and_split(np.random.default_rng(13),
                                          sizes=(6, 20, 24))
    assert_evaluate_matches_per_user_loop(finals, split, (1, 2, 3, 5, 8, 13))


def test_evaluate_peak_memory_does_not_grow_with_users():
    rng = np.random.default_rng(12)
    n_users, n_pois, d = 400, 4000, 8
    mk = lambda n: ad.Tensor(rng.normal(size=(n, d)))
    finals = FinalEmbeddings(mk(n_users), mk(n_users), mk(n_pois), mk(n_pois),
                             mk(n_users), mk(n_pois))
    train, test = set(), set()
    for u in range(n_users):
        pois = rng.choice(n_pois, size=12, replace=False)
        train.update((u, int(p)) for p in pois[:10])
        test.update((u, int(p)) for p in pois[10:])
    mks = lambda ps: InteractionSet(n_users, n_pois, frozenset(ps))
    empty = mks(set())

    def peak(test_pairs):
        split = DatasetSplit(mks(train), empty, mks(test_pairs))
        tracemalloc.start()
        try:
            report = ev.evaluate(finals, split, scorer="tie")
            return tracemalloc.get_traced_memory()[1], report
        finally:
            tracemalloc.stop()

    few, report_few = peak({(u, p) for u, p in test if u < 40})
    every, report_every = peak(test)
    assert (report_few.n_users_evaluated, report_every.n_users_evaluated) == (40, 400)
    assert every <= 1.5 * few, (every, few)


def test_evaluate_val_target_excludes_train_only():
    # val target: the val POI must rank among candidates that include test pois
    scores = np.array([[0.1, 0.9, 0.8, 0.7]])
    mk = lambda ps: InteractionSet(1, 4, frozenset(ps))
    split = DatasetSplit(mk({(0, 0)}), mk({(0, 1)}), mk({(0, 2)}))
    report = ev.evaluate(finals_from_scores(scores), split, scorer="y_up",
                         target="val", ks=(1,), with_auc=False)
    # candidates {1,2,3}: ranked [1,2,3]; val target 1 at rank 1
    assert report.recall[1] == 1.0


def test_auc_random_scores_near_half():
    rng = np.random.default_rng(6)
    vals = [ev.pair_auc(rng.normal(size=100), rng.normal(size=100))
            for _ in range(100)]
    assert abs(np.mean(vals) - 0.5) < 0.05


def test_report_json_round_trip():
    report = ev.evaluate(fixture_finals(), fixture_split(), scorer="tie",
                         ks=(2, 4), seed=3)
    text = report.to_json()
    back = ev.MetricsReport.from_json(text)
    assert back == report
    assert text == back.to_json()


def test_report_values_in_unit_interval():
    rng = np.random.default_rng(7)
    finals = finals_from_scores(rng.normal(size=(4, 50)))
    mk = lambda ps: InteractionSet(4, 50, frozenset(ps))
    train = {(u, p) for u in range(4) for p in range(0, 10)}
    test = {(u, p) for u in range(4) for p in range(10, 15)}
    split = DatasetSplit(mk(train), mk(set()), mk(test))
    for scorer in ("tie", "te", "y_up"):
        rep = ev.evaluate(finals, split, scorer=scorer, ks=(5, 10), seed=1)
        for k, v in rep.recall.items():
            assert 0.0 <= v <= 1.0
        for k, v in rep.ndcg.items():
            assert 0.0 <= v <= 1.0
        assert 0.0 <= rep.auc <= 1.0
