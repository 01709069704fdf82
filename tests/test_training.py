"""Loss, gradient, optimizer, and fit-loop tests."""

import gc

import numpy as np
import pytest

import oracles
from urbanrec import autodiff as ad
from urbanrec import training as tr
from urbanrec.model import IntentSet, init_params
from urbanrec.propagation import forward


def test_dcor_self_correlation():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = ad.Tensor(rng.normal(size=8))
        assert abs(tr.dcor(x, x).item() - 1.0) < 1e-9


def test_dcor_constant_vector_rule():
    x = ad.Tensor(np.full(6, 3.14))
    y = ad.Tensor(np.arange(6, dtype=float))
    assert tr.dcor(x, y).item() == 0.0
    assert tr.dcor(y, x).item() == 0.0


def test_dcor_perfect_linear_dependence():
    x = ad.Tensor(np.array([1.0, 2.0, 3.0, 4.0]))
    y = ad.Tensor(np.array([2.0, 4.0, 6.0, 8.0]))
    assert abs(tr.dcor(x, y).item() - 1.0) < 1e-9


def test_dcor_matches_naive_oracle():
    rng = np.random.default_rng(1)
    for d in (2, 3, 5, 16, 64):
        x = rng.normal(size=d)
        y = rng.normal(size=d)
        got = tr.dcor(ad.Tensor(x), ad.Tensor(y)).item()
        want = oracles.naive_dcor(x, y)
        assert abs(got - want) < 1e-10


def test_dcor_symmetry_and_range():
    rng = np.random.default_rng(2)
    for _ in range(50):
        x, y = rng.normal(size=7), rng.normal(size=7)
        a = tr.dcor(ad.Tensor(x), ad.Tensor(y)).item()
        b = tr.dcor(ad.Tensor(y), ad.Tensor(x)).item()
        assert a == b
        assert -1e-9 <= a <= 1.0 + 1e-9


def test_dcor_dimension_too_small():
    with pytest.raises(tr.DimensionTooSmall):
        tr.dcor(ad.Tensor(np.array([1.0])), ad.Tensor(np.array([2.0])))


def test_dcor_gradient_vs_fd():
    rng = np.random.default_rng(3)
    x0 = rng.normal(size=6)
    y0 = rng.normal(size=6)
    x = ad.Tensor(x0.copy(), requires_grad=True)
    out = tr.dcor(x, ad.Tensor(y0))
    out.backward()
    eps = 1e-6
    for i in range(6):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += eps
        xm[i] -= eps
        fd = (tr.dcor(ad.Tensor(xp), ad.Tensor(y0)).item()
              - tr.dcor(ad.Tensor(xm), ad.Tensor(y0)).item()) / (2 * eps)
        assert abs(x.grad[i] - fd) < 1e-6


def test_independence_loss_single_intent_zero():
    ints = IntentSet(ad.Tensor(np.ones((1, 3))), ad.Tensor(np.ones((1, 4))))
    assert tr.independence_loss(ints).item() == 0.0


def test_independence_loss_identical_intents():
    rng = np.random.default_rng(4)
    row = rng.normal(size=5)
    emb = ad.Tensor(np.stack([row, row]))
    ints = IntentSet(ad.Tensor(np.ones((2, 3))), emb)
    assert abs(tr.independence_loss(ints).item() - 1.0) < 1e-9


def test_independence_loss_pairwise_oracle():
    rng = np.random.default_rng(5)
    emb = rng.normal(size=(3, 6))
    ints = IntentSet(ad.Tensor(np.ones((3, 2))), ad.Tensor(emb))
    want = sum(oracles.naive_dcor(emb[i], emb[j])
               for i in range(3) for j in range(i + 1, 3))
    assert abs(tr.independence_loss(ints).item() - want) < 1e-10


def test_bpr_equal_scores_ln2():
    s = ad.Tensor(np.zeros(3))
    assert abs(tr.bpr_loss(s, s).item() - 3 * np.log(2.0)) < 1e-12


def test_bpr_margin_values():
    pos = ad.Tensor(np.array([0.5, -1.0, 2.0]))
    neg = ad.Tensor(np.zeros(3))
    want = sum(np.logaddexp(0.0, -m) for m in (0.5, -1.0, 2.0))
    assert abs(tr.bpr_loss(pos, neg).item() - want) < 1e-9
    assert abs(want - 1.914267) < 1e-6


def test_bpr_saturated_margin_tiny_gradient():
    pos = ad.Tensor(np.array([50.0]), requires_grad=True)
    neg = ad.Tensor(np.array([0.0]))
    loss = tr.bpr_loss(pos, neg)
    assert loss.item() < 1e-8
    loss.backward()
    assert np.abs(pos.grad).max() < 1e-8


def test_bpr_doubled_batch_doubles_loss():
    rng = np.random.default_rng(6)
    p = rng.normal(size=4)
    n = rng.normal(size=4)
    single = tr.bpr_loss(ad.Tensor(p), ad.Tensor(n)).item()
    double = tr.bpr_loss(ad.Tensor(np.concatenate([p, p])),
                         ad.Tensor(np.concatenate([n, n]))).item()
    # sums, not means; equality is up to float association only
    assert abs(double - 2.0 * single) < 1e-12


def test_total_loss_decomposition():
    params, bundle, (users, pos, neg), hp = tr.tiny_instance()
    breakdown, _ = tr.compute_loss(params, bundle, users, pos, neg, hp)
    f = breakdown.floats()
    want = f["l_f"] + hp.lam_ind * (f["l_ind_g"] + f["l_ind_f"]) \
        + hp.lam_reg * f["l_reg"] + hp.cf_weight * (f["l_c"] + hp.lam_reg * f["l_reg_g"])
    assert abs(f["total"] - want) < 1e-10


def test_total_loss_lambda_zero_reduces_to_factual():
    params, bundle, (users, pos, neg), _ = tr.tiny_instance()
    hp0 = tr.HyperParams(lam_ind=0.0, lam_reg=0.0, cf_weight=0.0)
    breakdown, _ = tr.compute_loss(params, bundle, users, pos, neg, hp0)
    f = breakdown.floats()
    assert abs(f["total"] - f["l_f"]) < 1e-12


def test_total_loss_zero_params():
    params, bundle, (users, pos, neg), hp = tr.tiny_instance()
    for _, t in params.named_tensors():
        t.data[:] = 0.0
    breakdown, _ = tr.compute_loss(params, bundle, users, pos, neg, hp)
    f = breakdown.floats()
    want = len(users) * np.log(2.0) * (1.0 + hp.cf_weight)
    assert abs(f["total"] - want) < 1e-10


def test_reg_gradient_is_2x():
    # with only the reg term active, d total / d x = 2 * lam_reg * x for
    # functional-side params (geo side gets the counterfactual extra)
    params, bundle, (users, pos, neg), _ = tr.tiny_instance()
    hp = tr.HyperParams(lam_ind=0.0, lam_reg=0.5, cf_weight=0.0)
    # kill the bpr contribution by zeroing embeddings of users/pois only is
    # impossible without killing reg too; instead check gradient difference
    # between lam_reg on and off
    g_on, _ = tr.backward(params, bundle, users, pos, neg, hp)
    hp_off = tr.HyperParams(lam_ind=0.0, lam_reg=0.0, cf_weight=0.0)
    g_off, _ = tr.backward(params, bundle, users, pos, neg, hp_off)
    for name, t in params.named_tensors():
        np.testing.assert_allclose(g_on[name] - g_off[name],
                                   2.0 * 0.5 * t.data, atol=1e-10)


def test_backward_rejects_nonfinite():
    params, bundle, (users, pos, neg), hp = tr.tiny_instance()
    params.E_g.data[0, 0] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(tr.NonFiniteGradient):
        tr.backward(params, bundle, users, pos, neg, hp)


def test_adam_zero_gradient_keeps_params():
    params, _, _, hp = tr.tiny_instance()
    state = tr.AdamState.for_params(params)
    before = {n: t.data.copy() for n, t in params.named_tensors()}
    zero = {n: np.zeros_like(t.data) for n, t in params.named_tensors()}
    tr.adam_step(params, zero, state, hp)
    for n, t in params.named_tensors():
        np.testing.assert_array_equal(t.data, before[n])


def test_adam_first_step_magnitude():
    params, _, _, _ = tr.tiny_instance()
    hp = tr.HyperParams(lr=0.01)
    state = tr.AdamState.for_params(params)
    rng = np.random.default_rng(7)
    grads = {n: rng.normal(size=t.data.shape) for n, t in params.named_tensors()}
    before = {n: t.data.copy() for n, t in params.named_tensors()}
    tr.adam_step(params, grads, state, hp)
    for n, t in params.named_tensors():
        delta = np.abs(t.data - before[n])
        assert delta.max() <= hp.lr * (1.0 + 1e-6)


def test_adam_converges_on_quadratic():
    # 100 steps of f(x)=x^2 from x=1 with lr=0.1 must land near 0
    x = np.array([[1.0]])

    class Shim:
        def named_tensors(self):
            return [("x", ad.Tensor(x, requires_grad=True))]

    # drive adam by hand on the raw array
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    hp = tr.HyperParams(lr=0.1)
    for t in range(1, 101):
        g = 2.0 * x
        m = hp.beta1 * m + (1 - hp.beta1) * g
        v = hp.beta2 * v + (1 - hp.beta2) * g * g
        m_hat = m / (1 - hp.beta1 ** t)
        v_hat = v / (1 - hp.beta2 ** t)
        x -= hp.lr * m_hat / (np.sqrt(v_hat) + hp.eps)
    assert abs(x[0, 0]) < 0.1


def test_gradcheck_passes():
    report = tr.run_gradcheck()
    assert report.passed, "\n".join(report.lines())
    assert report.max_rel_err < 1e-4
    assert {c.name for c in report.checks} == {"E_g", "E_f", "R_g", "R_f",
                                               "S_g", "S_f"}


def test_gradcheck_detects_corruption():
    report = tr.run_gradcheck(corrupt="R_f")
    assert not report.passed
    worst = max(report.checks, key=lambda c: c.max_rel_err)
    assert worst.name == "R_f"
    assert any("R_f" in line for line in report.lines())


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        tr.HyperParams(lr=0.0)
    with pytest.raises(ValueError):
        tr.HyperParams(patience=0)
    with pytest.raises(ValueError):
        tr.HyperParams(lam_ind=-0.1)


def _tiny_fit_setup():
    params, bundle, _, hp = tr.tiny_instance()
    from urbanrec.interactions import InteractionSet, DatasetSplit
    mk = lambda ps: InteractionSet(3, 3, frozenset(ps))
    split = DatasetSplit(mk({(0, 0), (0, 1), (1, 1), (2, 2)}),
                         mk(set()), mk({(1, 0)}))
    return split, bundle, params.dims


def test_fit_max_epochs_zero():
    split, bundle, dims = _tiny_fit_setup()
    hp = tr.HyperParams(max_epochs=0, batch_size=4)
    params, log = tr.fit(split, bundle, dims, hp, seed=0)
    assert log == []
    fresh = init_params(dims, 0)
    np.testing.assert_array_equal(params.E_g.data, fresh.E_g.data)


def test_fit_stub_metric_stops_at_patience_plus_one():
    split, bundle, dims = _tiny_fit_setup()
    hp = tr.HyperParams(max_epochs=100, patience=3, batch_size=4, lr=1e-3)
    calls = []

    def stub(params):
        calls.append(1)
        return 0.5

    _, log = tr.fit(split, bundle, dims, hp, seed=0, val_metric_fn=stub)
    assert len(log) == hp.patience + 1
    assert len(calls) == hp.patience + 1


def test_fit_deterministic():
    split, bundle, dims = _tiny_fit_setup()
    hp = tr.HyperParams(max_epochs=3, batch_size=4)
    p1, log1 = tr.fit(split, bundle, dims, hp, seed=5)
    p2, log2 = tr.fit(split, bundle, dims, hp, seed=5)
    for (n, t1), (_, t2) in zip(p1.named_tensors(), p2.named_tensors()):
        np.testing.assert_array_equal(t1.data, t2.data)
    assert [r["total"] for r in log1] == [r["total"] for r in log2]


def test_fit_records_expected_fields():
    split, bundle, dims = _tiny_fit_setup()
    hp = tr.HyperParams(max_epochs=2, batch_size=4)
    _, log = tr.fit(split, bundle, dims, hp, seed=1)
    assert len(log) == 2
    for rec in log:
        for key in ("epoch", "l_f", "l_c", "l_ind_g", "l_ind_f", "total",
                    "val_recall20", "wall_time_s"):
            assert key in rec


def test_fit_returns_best_not_last():
    split, bundle, dims = _tiny_fit_setup()
    hp = tr.HyperParams(max_epochs=4, patience=10, batch_size=4)
    metrics = iter([0.9, 0.1, 0.1, 0.1])
    snap = {}

    def stub(params):
        m = next(metrics)
        if m == 0.9:
            snap["E_g"] = params.E_g.data.copy()
        return m

    best, log = tr.fit(split, bundle, dims, hp, seed=2, val_metric_fn=stub)
    np.testing.assert_array_equal(best.E_g.data, snap["E_g"])
    assert len(log) == 4


def test_fit_frees_each_step_tape(monkeypatch):
    # a step's tape must be garbage before the next step builds its own, or
    # every step holds two tapes at its peak
    split, bundle, dims = _tiny_fit_setup()
    live, backward = [], tr.backward

    def counting_backward(*args):
        live.append(sum(isinstance(o, ad.Tensor) for o in gc.get_objects()))
        return backward(*args)

    monkeypatch.setattr(tr, "backward", counting_backward)
    hp = tr.HyperParams(max_epochs=1, batch_size=1)
    tr.fit(split, bundle, dims, hp, seed=0, val_metric_fn=lambda p: 0.0)
    assert len(live) == 4
    assert max(live[1:]) <= live[0]
