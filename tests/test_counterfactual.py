"""Counterfactual scorer tests: closed forms, invariants, vectorization."""

from dataclasses import fields

import numpy as np
import pytest

import oracles
from urbanrec import autodiff as ad
from urbanrec import counterfactual as cf
from urbanrec.propagation import FinalEmbeddings


def make_finals(rng, n_users=3, n_pois=5, d=4) -> FinalEmbeddings:
    u_g = rng.normal(size=(n_users, d))
    u_f = rng.normal(size=(n_users, d))
    p_g = rng.normal(size=(n_pois, d))
    p_f = rng.normal(size=(n_pois, d))
    return FinalEmbeddings(ad.Tensor(u_g), ad.Tensor(u_f), ad.Tensor(p_g),
                           ad.Tensor(p_f), ad.Tensor((u_g + u_f) / 2),
                           ad.Tensor((p_g + p_f) / 2))


def finals_from(u, p, u_g=None, p_g=None) -> FinalEmbeddings:
    """One user's finals with the given fused rows u and p; the geo rows
    default to ones, and y_up scoring reads the fused rows alone."""
    u, p = np.atleast_2d(u).astype(float), np.atleast_2d(p).astype(float)
    u_g = np.ones_like(u) if u_g is None else np.atleast_2d(u_g).astype(float)
    p_g = np.ones_like(p) if p_g is None else np.atleast_2d(p_g).astype(float)
    return FinalEmbeddings(ad.Tensor(u_g), ad.Tensor(u), ad.Tensor(p_g),
                           ad.Tensor(p), ad.Tensor(u), ad.Tensor(p))


def pair_oracle(finals: FinalEmbeddings, u: int, p: int) -> dict:
    """One pair's scores from the scalar-loop oracle."""
    return oracles.naive_pair_scores(finals.u.data, finals.p.data,
                                     finals.u_g.data, finals.p_g.data, u, p)


def catalog(finals: FinalEmbeddings, scorer: str, u: int = 0) -> np.ndarray:
    return cf.score_catalog(finals, u, scorer)


def test_score_match_zero_and_basis():
    finals = finals_from(np.zeros(4), np.ones(4))
    assert cf.score_candidates(finals, 0, np.array([0]), "y_up")[0] == 0.0
    e1 = np.eye(4)[0]
    finals = finals_from(e1, e1)
    assert cf.score_candidates(finals, 0, np.array([0]), "y_up")[0] == 1.0


def test_score_match_scalar_loop_oracle():
    rng = np.random.default_rng(0)
    u, p = rng.normal(size=32), rng.normal(size=32)
    direct = sum(u[i] * p[i] for i in range(32))
    got = cf.score_candidates(finals_from(u, p), 0, np.array([0]), "y_up")[0]
    assert abs(got - direct) < 1e-12


def test_score_geo_orthogonal_and_aligned():
    # with a unit match, the total effect is the geo gate tanh(u_g . p_g)
    e1 = np.eye(2)[0]
    finals = finals_from(e1, e1, u_g=[1.0, 0.0], p_g=[0.0, 1.0])
    assert cf.score_candidates(finals, 0, np.array([0]), "te")[0] == 0.0
    v = np.array([0.6, 0.8])
    finals = finals_from(e1, e1, u_g=v, p_g=v)
    te = cf.score_candidates(finals, 0, np.array([0]), "te")[0]
    assert abs(np.arctanh(te) - 1.0) < 1e-12


def test_reference_score_identical_pois():
    q = np.array([0.3, -0.2, 0.5])
    u = np.array([1.0, 2.0, 3.0])
    finals = finals_from(u, np.tile(q, (7, 1)))
    assert abs(finals.u.data[0] @ finals.p_mean - np.dot(u, q)) < 1e-12
    # every POI is the average one, so nothing is left to debias
    tie = cf.score_candidates(finals, 0, np.arange(7), "tie")
    assert np.abs(tie).max() < 1e-12


def test_reference_score_symmetric_pois_cancel():
    q = np.array([0.4, -0.1])
    finals = finals_from(np.array([2.0, 5.0]), np.stack([q, -q]))
    assert abs(finals.u.data[0] @ finals.p_mean) < 1e-12
    both = np.arange(2)
    np.testing.assert_allclose(cf.score_candidates(finals, 0, both, "tie"),
                               cf.score_candidates(finals, 0, both, "te"),
                               atol=1e-12)


def test_reference_score_average_oracle():
    rng = np.random.default_rng(1)
    u = rng.normal(size=6)
    pois = rng.normal(size=(5, 6))
    avg = np.mean([np.dot(u, pois[t]) for t in range(5)])
    finals = finals_from(u, pois)
    assert abs(finals.u.data[0] @ finals.p_mean - avg) < 1e-12


def test_p_mean_is_cached_outside_the_fields():
    finals = make_finals(np.random.default_rng(8))
    assert finals.p_mean is finals.p_mean
    np.testing.assert_array_equal(finals.p_mean, finals.p.data.mean(axis=0))
    assert [f.name for f in fields(finals)] == ["u_g", "u_f", "p_g", "p_f", "u", "p"]


def test_fuse_values():
    # te is the fused product y_up * tanh(y_ug); a match of 123 with no geo
    # signal, a unit match with a saturated gate, and 2 * tanh(0.5)
    finals = finals_from([123.0, 0.0], [1.0, 0.0], u_g=[1.0, 0.0], p_g=[0.0, 1.0])
    assert catalog(finals, "te")[0] == 0.0
    finals = finals_from([1.0, 0.0], [1.0, 0.0], u_g=[50.0, 0.0], p_g=[1.0, 0.0])
    assert abs(catalog(finals, "te")[0] - 1.0) < 1e-12
    finals = finals_from([2.0, 0.0], [1.0, 0.0], u_g=[0.5, 0.0], p_g=[1.0, 0.0])
    assert abs(catalog(finals, "te")[0] - 2.0 * np.tanh(0.5)) < 1e-12


def test_tie_zero_when_poi_is_average():
    # POI 0 is the exact (dyadic) catalog mean, so its match is the reference
    m, v = np.array([0.5, -0.25]), np.array([0.25, 0.5])
    finals = finals_from([1.0, 2.0], np.stack([m, m + v, m - v]))
    assert finals.u.data[0] @ finals.p_mean == finals.u.data[0] @ m
    assert catalog(finals, "tie")[0] == 0.0


def test_tie_zero_when_no_geo_signal():
    rng = np.random.default_rng(9)
    finals = finals_from(rng.normal(size=2), rng.normal(size=(6, 2)),
                         u_g=[1.0, 0.0], p_g=np.tile([0.0, 1.0], (6, 1)))
    assert np.all(catalog(finals, "tie") == 0.0)


def test_tie_closed_form_example():
    # y_up = 1 for POI 0, reference (1 - 0.5) / 2 = 0.25, y_ug = 1 + 1 = 2
    finals = finals_from([1.0, 0.0], [[1.0, 0.0], [-0.5, 0.0]])
    assert abs(catalog(finals, "tie")[0] - 0.75 * np.tanh(2.0)) < 1e-12


def test_catalog_invariants_random():
    rng = np.random.default_rng(2)
    for _ in range(20):
        finals = make_finals(rng, n_users=4, n_pois=10)
        for u in range(4):
            y_up = catalog(finals, "y_up", u)
            gate = np.tanh(finals.p_g.data @ finals.u_g.data[u])
            ref = np.mean(finals.p.data @ finals.u.data[u])
            te, tie = catalog(finals, "te", u), catalog(finals, "tie", u)
            np.testing.assert_allclose(te, y_up * gate, rtol=0, atol=1e-12)
            np.testing.assert_allclose(tie, (y_up - ref) * gate, rtol=0, atol=1e-10)
            np.testing.assert_allclose(tie, te - ref * gate, rtol=0, atol=1e-12)


def test_tie_monotone_in_y_up():
    # nine POIs whose matches run from -2 to 2 behind the same gate tanh(0.8)
    pois = np.stack([np.linspace(-2, 2, 9), np.zeros(9)], axis=1)
    finals = finals_from([1.0, 0.0], pois, u_g=[0.8, 0.0],
                         p_g=np.tile([1.0, 0.0], (9, 1)))
    ties = catalog(finals, "tie")
    assert np.all(np.diff(ties) > 0)


def test_tie_sign_flip_with_y_ug():
    # the same POI twice, once behind y_ug = 0.7 and once behind -0.7
    finals = finals_from([1.5, 0.0], [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                         u_g=[1.0, 0.0], p_g=[[0.7, 0.0], [-0.7, 0.0], [0.0, 0.0]])
    tie = catalog(finals, "tie")
    assert tie[0] != 0.0
    assert abs(tie[0] + tie[1]) < 1e-12


def test_reference_shift_invariance():
    # adding c to every POI's match moves the reference by c as well
    rng = np.random.default_rng(3)
    y_ups = rng.normal(size=10)
    c = 5.0
    p_g = np.tile([0.9, 0.0], (10, 1))
    base = finals_from([1.0, 1.0], np.stack([y_ups, np.zeros(10)], axis=1),
                       u_g=[1.0, 0.0], p_g=p_g)
    shifted = finals_from([1.0, 1.0], np.stack([y_ups, np.full(10, c)], axis=1),
                          u_g=[1.0, 0.0], p_g=p_g)
    np.testing.assert_allclose(catalog(base, "tie"), catalog(shifted, "tie"),
                               atol=1e-9)


def test_tie_scores_match_manual():
    rng = np.random.default_rng(4)
    finals = make_finals(rng)
    ref = np.mean([np.dot(finals.u.data[1], finals.p.data[t]) for t in range(5)])
    u, p = finals.u.data[1], finals.p.data[3]
    u_g, p_g = finals.u_g.data[1], finals.p_g.data[3]
    one = np.array([3])
    assert abs(cf.score_candidates(finals, 1, one, "y_up")[0] - np.dot(u, p)) < 1e-12
    assert abs(cf.score_candidates(finals, 1, one, "te")[0]
               - np.dot(u, p) * np.tanh(np.dot(u_g, p_g))) < 1e-12
    assert abs(cf.score_candidates(finals, 1, one, "tie")[0]
               - (np.dot(u, p) - ref) * np.tanh(np.dot(u_g, p_g))) < 1e-12


def test_te_ranking_equals_fused_ranking():
    rng = np.random.default_rng(5)
    finals = make_finals(rng, n_pois=10)
    tes = cf.score_candidates(finals, 0, np.arange(10), "te")
    fused = np.array([np.dot(finals.u.data[0], finals.p.data[p])
                      * np.tanh(np.dot(finals.u_g.data[0], finals.p_g.data[p]))
                      for p in range(10)])
    np.testing.assert_array_equal(np.argsort(-tes), np.argsort(-fused))
    np.testing.assert_allclose(tes, fused, atol=1e-12)


def test_score_candidates_matches_pairwise():
    rng = np.random.default_rng(6)
    finals = make_finals(rng, n_pois=8)
    cand = np.array([0, 2, 5, 7])
    tie_vec = cf.score_candidates(finals, 2, cand, "tie")
    te_vec = cf.score_candidates(finals, 2, cand, "te")
    up_vec = cf.score_candidates(finals, 2, cand, "y_up")
    for i, p in enumerate(cand):
        b = pair_oracle(finals, 2, int(p))
        assert abs(tie_vec[i] - b["tie"]) < 1e-12
        assert abs(te_vec[i] - b["te"]) < 1e-12
        assert abs(up_vec[i] - b["y_up"]) < 1e-12


def test_score_users_rows_match_score_catalog():
    rng = np.random.default_rng(10)
    finals = make_finals(rng, n_users=40, n_pois=30)
    users = rng.permutation(40)[:35]
    for scorer in cf.SCORERS:
        block = cf.score_users(finals, users, scorer)
        assert block.shape == (35, 30)
        for row, u in zip(block, users):
            np.testing.assert_allclose(row, catalog(finals, scorer, u),
                                       rtol=0, atol=1e-12)


def test_score_users_rows_equal_score_catalog_on_small_integers():
    # small-integer coordinates make every product and sum exact, so the
    # matrix-matrix product of a block and the matrix-vector product of one
    # user give the same bits; the catalog mean over 15 POIs is not exact,
    # and the reference score must still not depend on the block
    rng = np.random.default_rng(11)
    ints = lambda n: rng.integers(-3, 4, size=(n, 5)).astype(float)
    finals = finals_from(ints(6), ints(15), u_g=ints(6), p_g=ints(15))
    users = [4, 0, 5, 2, 2]
    for scorer in cf.SCORERS:
        block = cf.score_users(finals, users, scorer)
        for row, u in zip(block, users):
            np.testing.assert_array_equal(row, catalog(finals, scorer, u))


def test_score_candidates_rejects_unknown_scorer():
    rng = np.random.default_rng(7)
    finals = make_finals(rng)
    with pytest.raises(ValueError):
        cf.score_candidates(finals, 0, np.array([0]), "magic")
