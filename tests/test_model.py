"""Parameter init, intent attention, and checkpoint round-trip tests."""

import hashlib
import re
import struct

import numpy as np
import pytest

from urbanrec import autodiff as ad
from urbanrec import model as md


DIMS = md.ModelDims(n_users=3, n_pois=4, n_geo_entities=2, n_func_entities=5,
                    d=8, n_intents_geo=2, n_intents_func=3, n_layers=2)


def test_dims_defaults():
    d = md.ModelDims(n_users=1, n_pois=1, n_geo_entities=0, n_func_entities=0)
    assert d.d == 32
    assert d.n_layers == 3
    assert (d.n_geo_relations, d.n_func_relations) == (5, 11)


def test_dims_validation():
    with pytest.raises(ValueError):
        md.ModelDims(n_users=0, n_pois=1, n_geo_entities=0, n_func_entities=0)
    with pytest.raises(ValueError):
        md.ModelDims(n_users=1, n_pois=1, n_geo_entities=-1, n_func_entities=0)
    # zero layers is a legal degenerate configuration
    md.ModelDims(n_users=1, n_pois=1, n_geo_entities=0, n_func_entities=0, n_layers=0)


def test_init_shapes():
    p = md.init_params(DIMS, seed=0)
    assert p.E_g.shape == (3 + 4 + 2, 8)
    assert p.E_f.shape == (3 + 4 + 5, 8)
    assert p.R_g.shape == (5, 8)
    assert p.R_f.shape == (11, 8)
    assert p.S_g.shape == (2, 5)
    assert p.S_f.shape == (3, 11)


def test_shape_table_gives_every_tensor_in_checkpoint_order():
    p = md.init_params(DIMS, seed=0)
    assert tuple(DIMS.shapes) == md.PARAM_NAMES
    assert {n: t.shape for n, t in p.named_tensors()} == DIMS.shapes


def test_init_deterministic():
    a = md.init_params(DIMS, seed=42)
    b = md.init_params(DIMS, seed=42)
    for (_, ta), (_, tb) in zip(a.named_tensors(), b.named_tensors()):
        np.testing.assert_array_equal(ta.data, tb.data)
    c = md.init_params(DIMS, seed=43)
    assert not np.array_equal(a.E_g.data, c.E_g.data)


def test_init_xavier_bound():
    p = md.init_params(DIMS, seed=1)
    rows = DIMS.geo_rows
    bound = np.sqrt(6.0 / (rows + DIMS.d))
    assert np.all(np.abs(p.E_g.data) <= bound)
    assert np.abs(p.E_g.data).max() > 0.5 * bound  # actually fills the range


def test_init_intent_scores_xavier_with_distinct_rows():
    # equal rows would give identical intents that get identical gradients
    # and never separate
    p = md.init_params(DIMS, seed=0)
    for S in (p.S_g.data, p.S_f.data):
        bound = np.sqrt(6.0 / sum(S.shape))
        assert np.all(np.abs(S) <= bound)
        assert np.abs(S).max() > 0.5 * bound
        assert len(np.unique(S, axis=0)) == S.shape[0]
    alpha = md.intent_embeddings(p.S_g, p.R_g).alpha.data
    assert np.ptp(alpha, axis=0).max() > 0.1


def test_init_embeddings_and_relations_keep_their_streams():
    # E_* and R_* are streams 0-3 of [seed, INIT_STREAM, k]; this pins
    # their bytes so that adding or moving a tensor cannot shift them
    p = md.init_params(DIMS, seed=0)
    digest = hashlib.sha256()
    for name in ("E_g", "E_f", "R_g", "R_f"):
        digest.update(getattr(p, name).data.astype("<f8").tobytes())
    assert digest.hexdigest() == (
        "632c2782f1484287c0b3444bcfbd8cc9a9692e36898d2d3764fd60e60976eb3c")


def test_intent_embeddings_uniform_two_relations():
    S = ad.Tensor(np.zeros((1, 2)))
    R = ad.Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    ints = md.intent_embeddings(S, R)
    np.testing.assert_allclose(ints.alpha.data, [[0.5, 0.5]])
    np.testing.assert_allclose(ints.embeddings.data, [[0.5, 0.5]])


def test_intent_embeddings_saturated():
    S = ad.Tensor(np.array([[1000.0, 0.0]]))
    R = ad.Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    ints = md.intent_embeddings(S, R)
    np.testing.assert_allclose(ints.embeddings.data, [[1.0, 2.0]], atol=1e-6)


def test_intent_embeddings_matches_dense_oracle():
    rng = np.random.default_rng(3)
    S = rng.normal(size=(3, 5))
    R = rng.normal(size=(5, 4))
    ints = md.intent_embeddings(ad.Tensor(S), ad.Tensor(R))
    e = np.exp(S - S.max(axis=1, keepdims=True))
    alpha = e / e.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(ints.embeddings.data, alpha @ R, atol=1e-12)


def test_intent_embeddings_convex_hull():
    rng = np.random.default_rng(4)
    R = rng.normal(size=(6, 5))
    ints = md.intent_embeddings(ad.Tensor(rng.normal(size=(4, 6))), ad.Tensor(R))
    lo, hi = R.min(axis=0), R.max(axis=0)
    assert np.all(ints.embeddings.data >= lo - 1e-12)
    assert np.all(ints.embeddings.data <= hi + 1e-12)


def test_alpha_shift_invariance():
    rng = np.random.default_rng(5)
    S = rng.normal(size=(4, 7))
    R = ad.Tensor(rng.normal(size=(7, 3)))
    a1 = md.intent_embeddings(ad.Tensor(S), R).alpha.data
    a2 = md.intent_embeddings(ad.Tensor(S + 123.456), R).alpha.data
    np.testing.assert_allclose(a1, a2, atol=1e-9)


def test_beta_uniform_when_dots_equal():
    intents = md.IntentSet(ad.Tensor(np.eye(3)), ad.Tensor(np.zeros((3, 4))))
    u0 = ad.Tensor(np.ones((2, 4)))
    beta = md.user_intent_attention(u0, intents)
    np.testing.assert_allclose(beta.data, np.full((2, 3), 1.0 / 3.0))


def test_beta_singleton():
    intents = md.IntentSet(ad.Tensor(np.ones((1, 2))),
                           ad.Tensor(np.array([[0.3, -0.7]])))
    beta = md.user_intent_attention(ad.Tensor(np.ones((4, 2))), intents)
    np.testing.assert_allclose(beta.data, np.ones((4, 1)))


def test_beta_matches_direct_formula():
    rng = np.random.default_rng(6)
    emb = rng.normal(size=(5, 8))
    u0 = rng.normal(size=(3, 8))
    intents = md.IntentSet(ad.Tensor(np.zeros((5, 2))), ad.Tensor(emb))
    beta = md.user_intent_attention(ad.Tensor(u0), intents).data
    logits = u0 @ emb.T
    direct = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    np.testing.assert_allclose(beta, direct, atol=1e-12)
    np.testing.assert_allclose(beta.sum(axis=1), np.ones(3), atol=1e-6)


def test_checkpoint_round_trip(tmp_path):
    p = md.init_params(DIMS, seed=9)
    p.S_g.data[:] = np.arange(10).reshape(2, 5)
    path = str(tmp_path / "ck.bin")
    md.save_checkpoint(p, path)
    q = md.load_checkpoint(path)
    assert q.dims == DIMS
    assert q.blended is False
    for (_, tp), (_, tq) in zip(p.named_tensors(), q.named_tensors()):
        np.testing.assert_array_equal(tp.data, tq.data)


def test_checkpoint_bytes_stable(tmp_path):
    p = md.init_params(DIMS, seed=9)
    p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
    md.save_checkpoint(p, p1)
    md.save_checkpoint(p, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_checkpoint_blended_flag(tmp_path):
    p = md.init_params(DIMS, seed=0, blended=True)
    path = str(tmp_path / "ck.bin")
    md.save_checkpoint(p, path)
    assert md.load_checkpoint(path).blended is True


def test_checkpoint_rejects_garbage(tmp_path):
    path = str(tmp_path / "junk.bin")
    with open(path, "wb") as fh:
        fh.write(b"not a checkpoint at all")
    with pytest.raises(ValueError):
        md.load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    p = md.init_params(DIMS, seed=0)
    path = tmp_path / "ck.bin"
    md.save_checkpoint(p, str(path))
    blob = path.read_bytes()
    # a header cut after the magic, and a body 8 bytes short
    for cut in (blob[:6], blob[:-8]):
        path.write_bytes(cut)
        with pytest.raises(ValueError, match=f"^{path}: truncated checkpoint$"):
            md.load_checkpoint(str(path))


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    p = md.init_params(DIMS, seed=0)
    path = tmp_path / "ck.bin"
    md.save_checkpoint(p, str(path))
    path.write_bytes(path.read_bytes() + bytes(8))
    with pytest.raises(ValueError, match="trailing bytes in checkpoint$"):
        md.load_checkpoint(str(path))


def test_checkpoint_rejects_invalid_header_dims_naming_the_file(tmp_path):
    p = md.init_params(DIMS, seed=0)
    path = tmp_path / "ck.bin"
    md.save_checkpoint(p, str(path))
    blob = bytearray(path.read_bytes())
    struct.pack_into("<Q", blob, 9, 0)  # d, the first of the ten dims
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: d must be >= 1$"):
        md.load_checkpoint(str(path))


def test_params_copy_is_deep():
    p = md.init_params(DIMS, seed=0)
    q = p.copy()
    q.E_g.data[0, 0] = 99.0
    assert p.E_g.data[0, 0] != 99.0
