"""Finite-difference checks for every autodiff operation."""

import numpy as np
import pytest
import scipy.sparse as sp

from urbanrec import autodiff as ad
from urbanrec.synthgen import CityConfig, generate_city
from urbanrec.ukg import blended_subgraph, build_adjacency, split_subgraphs


def fd_grad(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued f at x."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2.0 * eps)
    return g


def check(build, x0: np.ndarray, rtol: float = 1e-6, atol: float = 1e-8):
    """Compare tape gradient of scalar build(Tensor) against finite differences."""
    t = ad.Tensor(x0.copy(), requires_grad=True)
    out = build(t)
    assert out.shape == ()
    out.backward()
    num = fd_grad(lambda x: float(build(ad.Tensor(x)).data), x0.copy())
    np.testing.assert_allclose(t.grad, num, rtol=rtol, atol=atol)


def check_one_variable(build, operands, variable: int):
    """Only ``operands[variable]`` is tracked: its tape gradient of scalar
    build(*Tensors) matches finite differences, and every constant
    operand's grad stays None.  Returns the tracked gradient."""
    tensors = [ad.Tensor(v.copy(), requires_grad=i == variable)
               for i, v in enumerate(operands)]
    build(*tensors).backward()

    def at(v):
        return float(build(*(ad.Tensor(v if i == variable else o)
                             for i, o in enumerate(operands))).data)

    grad = tensors[variable].grad
    np.testing.assert_allclose(grad, fd_grad(at, operands[variable].copy()),
                               rtol=1e-6, atol=1e-8)
    assert all(t.grad is None for i, t in enumerate(tensors) if i != variable)
    return grad


RNG = np.random.default_rng(12345)


def test_add_broadcast():
    b = RNG.normal(size=(1, 4))
    check(lambda t: ((t + b) * (t + b)).sum(), RNG.normal(size=(3, 4)))


def test_radd_scalar():
    check(lambda t: (2.0 + t).sum(), RNG.normal(size=(5,)))


def test_sub_both_sides():
    b = RNG.normal(size=(3, 1))
    check(lambda t: ((t - b) * (ad.Tensor(b) - t) + t).sum(),
          RNG.normal(size=(3, 4)))


def test_mul_broadcast():
    b = RNG.normal(size=(4,))
    check(lambda t: (t * b).sum(), RNG.normal(size=(3, 4)))


def test_div():
    b = 2.0 + np.abs(RNG.normal(size=(3, 4)))
    check(lambda t: (t / b).sum(), RNG.normal(size=(3, 4)))
    a = RNG.normal(size=(3, 4))
    check(lambda t: (ad.Tensor(a) / t).sum(),
          2.0 + np.abs(RNG.normal(size=(3, 4))))


def test_matmul_left_and_right():
    b = RNG.normal(size=(4, 2))
    check(lambda t: (t @ b).sum(), RNG.normal(size=(3, 4)))
    a = RNG.normal(size=(3, 4))
    check(lambda t: (ad.Tensor(a) @ t).sum(), RNG.normal(size=(4, 2)))


def test_matmul_rejects_1d():
    with pytest.raises(ValueError):
        ad.matmul(ad.Tensor(np.zeros(3)), ad.Tensor(np.zeros((3, 2))))


@pytest.mark.parametrize("variable", [0, 1], ids=["left", "right"])
def test_matmul_constant_side_gets_no_gradient(variable):
    rng = np.random.default_rng(6)
    w = rng.normal(size=(3, 2))
    check_one_variable(lambda a, b: ((a @ b) * w).sum(),
                       [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))],
                       variable)


def test_transpose():
    b = RNG.normal(size=(4, 3))
    check(lambda t: (t.T * b).sum(), RNG.normal(size=(3, 4)))


def test_reshape():
    w = ad.Tensor(RNG.normal(size=(6, 1)))
    check(lambda t: (t.reshape(2, 6) @ w).sum(), RNG.normal(size=(3, 4)))


def test_sum_axis_keepdims():
    check(lambda t: (t.sum(axis=0, keepdims=True) * t).sum(), RNG.normal(size=(3, 4)))
    w = RNG.normal(size=(3,))
    check(lambda t: (t.sum(axis=1) * w).sum(), RNG.normal(size=(3, 4)))


def test_mean_axis():
    check(lambda t: (t.mean(axis=1, keepdims=True) * t).sum(), RNG.normal(size=(3, 4)))
    check(lambda t: t.mean(), RNG.normal(size=(3, 4)))


def test_gather_repeated_rows():
    idx = np.array([0, 2, 2, 1, 0])
    w = RNG.normal(size=(5, 4))
    check(lambda t: (ad.gather(t, idx) * w).sum(), RNG.normal(size=(3, 4)))


def test_spmm():
    mat = sp.random(5, 3, density=0.6, random_state=7, format="csr")
    mat_t = mat.T.tocsr()
    w = RNG.normal(size=(5, 2))
    check(lambda t: (ad.spmm(mat, t, mat_t) * w).sum(), RNG.normal(size=(3, 2)))


def test_spmm_with_cached_transpose():
    mat = sp.random(4, 6, density=0.5, random_state=3, format="csr")
    mat_t = mat.T.tocsr()
    w = RNG.normal(size=(4, 2))
    check(lambda t: (ad.spmm(mat, t, mat_t) * w).sum(), RNG.normal(size=(6, 2)))


def test_rows_slices_accumulate():
    # two overlapping slices of one tensor both feed the loss
    w1 = RNG.normal(size=(2, 3))
    w2 = RNG.normal(size=(3, 3))
    check(lambda t: (ad.rows(t, 0, 2) * w1).sum() + (ad.rows(t, 1, 4) * w2).sum(),
          RNG.normal(size=(5, 3)))


def stacked_from_edges(dst, src, rel, n_rel, n):
    """Per-relation mean aggregation blocks stacked row-wise, and transpose."""
    deg = np.bincount(dst, minlength=n)
    mat = sp.csr_matrix((1.0 / deg[dst], (rel * n + dst, src)),
                        shape=(n_rel * n, n))
    return mat, mat.T.tocsr()


def stacked_reference(dst, src, rel, n_rel, n, x, r, g):
    """Output, x gradient and r gradient of the relational op computed over
    every (relation, node) row of the stacked matrix with two einsums; the
    compressed operator must reproduce all three bit for bit."""
    mat, mat_t = stacked_from_edges(dst, src, rel, n_rel, n)
    ax = (mat @ x).reshape(n_rel, n, -1)
    gated = (g[None, :, :] * r[:, None, :]).reshape(n_rel * n, -1)
    return (np.einsum("rnd,rd->nd", ax, r), mat_t @ gated,
            np.einsum("rnd,nd->rd", ax, g))


def edge_messages_mean(dst, src, rel, x, r):
    """Reference: mean over each node's in-edges of r[rel] * x[src]."""
    out = np.zeros_like(x)
    deg = np.bincount(dst, minlength=len(x))
    for d, s, k in zip(dst, src, rel):
        out[d] += r[k] * x[s] / deg[d]
    return out


def assert_matches_stacked(dst, src, rel, n_rel, n, d):
    """Run the operator on random inputs and assert that its output and both
    gradients equal ``stacked_reference`` exactly."""
    op = ad.RelationalOperator.from_edges(dst, src, rel, n_rel, n)
    x0, r0 = RNG.normal(size=(n, d)), RNG.normal(size=(n_rel, d))
    w = RNG.normal(size=(n, d))
    x, r = ad.Tensor(x0, requires_grad=True), ad.Tensor(r0, requires_grad=True)
    out = ad.relational_spmm(op, x, r)
    (out * w).sum().backward()
    got = (out.data, x.grad, r.grad)
    for a, b in zip(got, stacked_reference(dst, src, rel, n_rel, n, x0, r0, w)):
        assert np.array_equal(a, b)
    return op, x0, r0, w, got


def check_relational(dst, src, rel, n_rel, n, d=3):
    dst, src, rel = (np.asarray(a) for a in (dst, src, rel))
    op, x0, r0, w, (out, x_grad, r_grad) = assert_matches_stacked(
        dst, src, rel, n_rel, n, d)
    np.testing.assert_allclose(out, edge_messages_mean(dst, src, rel, x0, r0),
                               rtol=1e-12, atol=1e-14)
    # both operands on one tape, each against finite differences
    loss = lambda xv, rv: float((ad.relational_spmm(op, xv, rv).data
                                 * w).sum())
    np.testing.assert_allclose(x_grad, fd_grad(lambda v: loss(v, r0), x0.copy()),
                               rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(r_grad, fd_grad(lambda v: loss(x0, v), r0.copy()),
                               rtol=1e-6, atol=1e-8)
    return out, r_grad


def test_relational_spmm_duplicate_edge_empty_relation_isolated_node():
    # (dst 0, rel 1, src 2) appears twice and counts twice in the mean;
    # relation 2 has no edge; node 4 receives nothing
    dst = [0, 0, 0, 1, 1, 2, 3, 3]
    src = [2, 2, 1, 0, 3, 4, 0, 4]
    rel = [1, 1, 0, 3, 0, 1, 3, 0]
    out, r_grad = check_relational(dst, src, rel, n_rel=4, n=5)
    assert np.array_equal(r_grad[2], np.zeros(3))
    assert np.array_equal(out[4], np.zeros(3))


def test_relational_spmm_sixteen_relation_table():
    rng = np.random.default_rng(4)
    n, n_edges = 9, 40
    dst = rng.integers(0, n - 1, size=n_edges)  # node n-1 gets no in-edge
    src = rng.integers(0, n, size=n_edges)
    rel = rng.choice([k for k in range(16) if k != 7], size=n_edges)
    check_relational(dst, src, rel, n_rel=16, n=n, d=2)


@pytest.mark.parametrize("side", ["geo", "func", "blended"])
def test_relational_spmm_matches_stacked_on_default_city(side):
    kg, _, _ = generate_city(CityConfig(seed=0))
    geo, func = split_subgraphs(kg)
    sub = {"geo": geo, "func": func, "blended": blended_subgraph(kg)}[side]
    dst, src, rel = build_adjacency(sub)
    assert_matches_stacked(dst, src, rel, sub.n_relations,
                           sub.n_pois + sub.entity_count, d=32)


@pytest.mark.parametrize("variable", [0, 1], ids=["node-table", "relation-table"])
def test_relational_spmm_constant_operand_gets_no_gradient(variable):
    rng = np.random.default_rng(7)
    dst, src, rel = (np.array(a) for a in ([0, 0, 0, 1, 1, 2, 3, 3],
                                           [2, 2, 1, 0, 3, 4, 0, 4],
                                           [1, 1, 0, 3, 0, 1, 3, 0]))
    op = ad.RelationalOperator.from_edges(dst, src, rel, n_rel=4, n=5)
    x0, r0, w = (rng.normal(size=shape) for shape in ((5, 3), (4, 3), (5, 3)))
    grad = check_one_variable(
        lambda x, r: (ad.relational_spmm(op, x, r) * w).sum(), [x0, r0], variable)
    # the one-sided rule gives the tracked operand the two-sided share exactly
    want = stacked_reference(dst, src, rel, 4, 5, x0, r0, w)[1 + variable]
    assert np.array_equal(grad, want)


def test_relational_spmm_rejects_mismatched_table():
    op = ad.RelationalOperator.from_edges(np.array([0]), np.array([1]),
                                          np.array([0]), n_rel=5, n=2)
    with pytest.raises(ValueError):
        ad.relational_spmm(op, np.ones((2, 3)), np.ones((11, 3)))


def test_softmax_grad():
    w = RNG.normal(size=(3, 5))
    check(lambda t: (ad.softmax(t, axis=-1) * w).sum(), RNG.normal(size=(3, 5)))


def test_softmax_rows_sum_to_one():
    y = ad.softmax(ad.Tensor(RNG.normal(size=(10, 7)) * 50.0)).data
    np.testing.assert_allclose(y.sum(axis=1), np.ones(10), atol=1e-12)


def test_sqrt():
    check(lambda t: ad.sqrt(t).sum(), 0.5 + np.abs(RNG.normal(size=(3, 4))))


def test_sqrt_zero_subgradient_is_finite():
    t = ad.Tensor(np.array([0.0, 4.0]), requires_grad=True)
    ad.sqrt(t).sum().backward()
    assert np.all(np.isfinite(t.grad))
    np.testing.assert_allclose(t.grad, [0.0, 0.25])


def test_absval():
    check(lambda t: ad.absval(t).sum(), RNG.normal(size=(3, 4)) + 0.1)


def test_clamp_min():
    x = np.array([-1.0, 0.5, 2.0])
    t = ad.Tensor(x, requires_grad=True)
    (ad.clamp_min(t, 0.0) * np.array([1.0, 2.0, 3.0])).sum().backward()
    np.testing.assert_allclose(t.grad, [0.0, 2.0, 3.0])


def test_softplus_matches_log1pexp_and_grad():
    x = np.array([-700.0, -5.0, 0.0, 5.0, 700.0])
    y = ad.softplus(ad.Tensor(x)).data
    assert np.all(np.isfinite(y))
    np.testing.assert_allclose(y[2], np.log(2.0))
    check(lambda t: ad.softplus(t).sum(), RNG.normal(size=(6,)) * 3.0)


def test_grad_accumulates_across_reuse():
    t = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = (t * t).sum() + t.sum()
    y.backward()
    np.testing.assert_allclose(t.grad, 2.0 * t.data + 1.0)


def test_second_backward_adds_each_leaf_gradient_once():
    x = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = (x * 2.0).sum()
    y.backward()
    y.backward()
    np.testing.assert_array_equal(x.grad, [4.0, 4.0])


def test_backward_keeps_gradients_on_leaves_only():
    a = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = ad.Tensor(np.array([3.0, 4.0]), requires_grad=True)
    c = ad.Tensor(np.array([5.0, 6.0]))
    h = a * b
    y = (h + c).sum()
    y.backward()
    assert h.grad is None and y.grad is None
    np.testing.assert_array_equal(a.grad, b.data)
    np.testing.assert_array_equal(b.grad, a.data)
    assert c.grad is None


def test_no_grad_tracking_for_constants():
    a = ad.Tensor(np.ones((2, 2)))
    b = ad.Tensor(np.ones((2, 2)))
    out = (a @ b).sum()
    assert not out.requires_grad
    assert out._bwd is None


def test_backward_requires_scalar():
    t = ad.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (t * 2.0).backward()


def test_deep_chain_no_recursion_limit():
    t = ad.Tensor(np.array(1.0), requires_grad=True)
    y = t
    for _ in range(5000):
        y = y * 1.0001
    y.backward()
    assert np.isfinite(t.grad)
