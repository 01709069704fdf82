"""Objective, gradients, Adam, the training loop, and gradient checking.

The loss couples four pieces: a pairwise ranking loss on fused match scores,
the same ranking loss on geographical-chunk scores (an auxiliary task that
sharpens the geographical representation), a distance-correlation penalty
keeping intents distinct, and squared-L2 weight decay:

    total = l_f + lam_ind * (l_ind_g + l_ind_f) + lam_reg * l_reg
            + cf_weight * (l_c + lam_reg * l_reg_g)

Gradients come from the autodiff tape and are validated against central
finite differences on a tiny fixture (run_gradcheck).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .interactions import DatasetSplit, batch_arrays, sample_bpr_batch
from .model import IntentSet, ModelDims, ModelParams, init_params, \
    intent_embeddings
from .propagation import FinalEmbeddings, GraphBundle, build_graphs, dims_for, \
    forward

SAMPLE_STREAM = 31
GRADCHECK_STREAM = 32


class DimensionTooSmall(ValueError):
    pass


class NonFiniteGradient(RuntimeError):
    pass


class DivergedLoss(RuntimeError):
    pass


@dataclass(frozen=True)
class HyperParams:
    """Objective weights and optimizer settings.

    lam_ind weighs intent independence, lam_reg weighs squared-L2 decay,
    cf_weight weighs the geographical ranking task (counterfactual branch).
    """

    lam_ind: float = 0.1
    lam_reg: float = 1e-3
    cf_weight: float = 1.0
    lr: float = 1e-3
    batch_size: int = 1024
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    patience: int = 10
    max_epochs: int = 30

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if min(self.lam_ind, self.lam_reg, self.cf_weight) < 0:
            raise ValueError("loss weights must be non-negative")


# -- distance correlation ------------------------------------------------------


def dcor(x: ad.Tensor, y: ad.Tensor) -> ad.Tensor:
    """Distance correlation of two d-vectors, coordinates as scalar samples.

    Returns a scalar tensor in [0, 1]; 0 when either vector is (numerically)
    constant, since dependence is undefined there.
    """
    d = x.shape[0]
    if d < 2 or y.shape[0] < 2:
        raise DimensionTooSmall(f"dcor needs length >= 2 vectors, got {d}")

    def centered_dist(v: ad.Tensor) -> ad.Tensor:
        m = ad.absval(v.reshape(d, 1) - v.reshape(1, d))
        return m - m.mean(axis=0, keepdims=True) - m.mean(axis=1, keepdims=True) \
            + m.mean()

    A = centered_dist(x)
    B = centered_dist(y)
    dvar2_x = ad.clamp_min((A * A).mean(), 0.0)
    dvar2_y = ad.clamp_min((B * B).mean(), 0.0)
    if np.sqrt(dvar2_x.data) < 1e-12 or np.sqrt(dvar2_y.data) < 1e-12:
        return ad.Tensor(0.0)
    dcov = ad.sqrt(ad.clamp_min((A * B).mean(), 0.0))
    return dcov / ad.sqrt(ad.sqrt(dvar2_x) * ad.sqrt(dvar2_y))


def independence_loss(intents: IntentSet) -> ad.Tensor:
    """Sum of pairwise dcor over unordered intent pairs; 0 for one intent."""
    n = intents.n_intents
    d = intents.embeddings.shape[1]
    if n < 2:
        return ad.Tensor(0.0)
    rows = [ad.gather(intents.embeddings, np.array([i])).reshape(d)
            for i in range(n)]
    total = None
    for i in range(n):
        for j in range(i + 1, n):
            term = dcor(rows[i], rows[j])
            total = term if total is None else total + term
    return total


# -- losses -----------------------------------------------------------------------


def bpr_loss(pos_scores: ad.Tensor, neg_scores: ad.Tensor) -> ad.Tensor:
    """Sum over the batch of -ln sigmoid(pos - neg), via stable softplus."""
    return ad.softplus(neg_scores - pos_scores).sum()


def _pair_scores(U: ad.Tensor, P: ad.Tensor, users, pois) -> ad.Tensor:
    return (ad.gather(U, users) * ad.gather(P, pois)).sum(axis=1)


def bpr_factual(users, pos, neg, finals: FinalEmbeddings) -> ad.Tensor:
    y_pos = _pair_scores(finals.u, finals.p, users, pos)
    y_neg = _pair_scores(finals.u, finals.p, users, neg)
    return bpr_loss(y_pos, y_neg)


def bpr_counterfactual(users, pos, neg, finals: FinalEmbeddings) -> ad.Tensor:
    y_pos = _pair_scores(finals.u_g, finals.p_g, users, pos)
    y_neg = _pair_scores(finals.u_g, finals.p_g, users, neg)
    return bpr_loss(y_pos, y_neg)


@dataclass
class LossBreakdown:
    l_f: ad.Tensor
    l_c: ad.Tensor
    l_ind_g: ad.Tensor
    l_ind_f: ad.Tensor
    l_reg: ad.Tensor
    l_reg_g: ad.Tensor
    total: ad.Tensor

    def floats(self) -> dict:
        return {k: float(getattr(self, k).data)
                for k in ("l_f", "l_c", "l_ind_g", "l_ind_f",
                          "l_reg", "l_reg_g", "total")}


def _sq_l2(tensors) -> ad.Tensor:
    total = None
    for _, t in tensors:
        term = (t * t).sum()
        total = term if total is None else total + term
    return total


def total_loss(users, pos, neg, params: ModelParams, finals: FinalEmbeddings,
               intents_g: IntentSet, intents_f: IntentSet,
               hp: HyperParams) -> LossBreakdown:
    l_f = bpr_factual(users, pos, neg, finals)
    l_c = bpr_counterfactual(users, pos, neg, finals)
    l_ind_g = independence_loss(intents_g)
    l_ind_f = independence_loss(intents_f)
    l_reg = _sq_l2(params.named_tensors())
    l_reg_g = _sq_l2(params.geo_tensors())
    total = l_f + hp.lam_ind * (l_ind_g + l_ind_f) + hp.lam_reg * l_reg \
        + hp.cf_weight * (l_c + hp.lam_reg * l_reg_g)
    return LossBreakdown(l_f, l_c, l_ind_g, l_ind_f, l_reg, l_reg_g, total)


def compute_loss(params: ModelParams, bundle: GraphBundle, users, pos, neg,
                 hp: HyperParams) -> tuple[LossBreakdown, FinalEmbeddings]:
    """Forward propagation plus the full objective, on one tape."""
    finals = forward(params, bundle)
    intents_g = intent_embeddings(params.S_g, params.R_g)
    intents_f = intent_embeddings(params.S_f, params.R_f)
    breakdown = total_loss(users, pos, neg, params, finals,
                           intents_g, intents_f, hp)
    return breakdown, finals


def backward(params: ModelParams, bundle: GraphBundle, users, pos, neg,
             hp: HyperParams) -> tuple[dict, LossBreakdown]:
    """Gradients of the total loss for every parameter tensor."""
    params.zero_grad()
    breakdown, _ = compute_loss(params, bundle, users, pos, neg, hp)
    breakdown.total.backward()
    grads: dict = {}
    for name, t in params.named_tensors():
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"gradient of {name} has NaN/Inf entries")
        grads[name] = g
    return grads, breakdown


# -- optimizer --------------------------------------------------------------------


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        return cls(m={n: np.zeros_like(t.data) for n, t in params.named_tensors()},
                   v={n: np.zeros_like(t.data) for n, t in params.named_tensors()})


def adam_step(params: ModelParams, grads: dict, state: AdamState,
              hp: HyperParams) -> None:
    """Standard bias-corrected Adam update, in place."""
    state.step += 1
    t = state.step
    b1, b2 = hp.beta1, hp.beta2
    for name, tensor in params.named_tensors():
        g = grads[name]
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = state.m[name] / (1.0 - b1 ** t)
        v_hat = state.v[name] / (1.0 - b2 ** t)
        tensor.data -= hp.lr * m_hat / (np.sqrt(v_hat) + hp.eps)


# -- training loop -----------------------------------------------------------------


def default_val_metric(params: ModelParams, bundle: GraphBundle,
                       split: DatasetSplit, seed: int) -> float:
    """Recall@20 on validation targets with the debiased scorer."""
    from .evaluation import evaluate  # local import, evaluation imports nothing here

    finals = forward(params, bundle)
    report = evaluate(finals, split, scorer="tie", target="val", ks=(20,),
                      seed=seed, with_auc=False)
    return report.recall[20] if report.defined else 0.0


def fit(split: DatasetSplit, bundle: GraphBundle, dims: ModelDims,
        hp: HyperParams, seed: int, val_metric_fn=None,
        progress_fn=None) -> tuple[ModelParams, list[dict]]:
    """Adam-optimized epochs with early stopping on validation Recall@20.

    Stops after `patience` consecutive epochs without strict improvement,
    or at max_epochs.  Returns the best-validation parameter snapshot and
    one log record per epoch.
    """
    if val_metric_fn is None:
        val_metric_fn = lambda p: default_val_metric(p, bundle, split, seed)
    params = init_params(dims, seed, blended=bundle.blended)
    state = AdamState.for_params(params)
    best = params.copy()
    best_metric = -np.inf
    stale = 0
    log: list[dict] = []
    n_train = len(split.train)
    n_batches = max(1, int(np.ceil(n_train / hp.batch_size)))
    for epoch in range(1, hp.max_epochs + 1):
        t0 = time.perf_counter()
        rng = np.random.default_rng(
            np.random.SeedSequence([seed, SAMPLE_STREAM, epoch]))
        sums = {k: 0.0 for k in ("l_f", "l_c", "l_ind_g", "l_ind_f", "total")}
        for _ in range(n_batches):
            batch = sample_bpr_batch(split, hp.batch_size, rng)
            users, pos, neg = batch_arrays(batch)
            grads, breakdown = backward(params, bundle, users, pos, neg, hp)
            vals = breakdown.floats()
            del breakdown  # frees this step's tape before the next is built
            if vals["total"] > 1e6:
                raise DivergedLoss(f"total loss {vals['total']:.3e} at epoch {epoch}")
            adam_step(params, grads, state, hp)
            for k in sums:
                sums[k] += vals[k]
        metric = float(val_metric_fn(params))
        record = {"epoch": epoch,
                  **{k: sums[k] / n_batches for k in sums},
                  "val_recall20": metric,
                  "wall_time_s": time.perf_counter() - t0}
        log.append(record)
        if progress_fn is not None:
            progress_fn(record)
        if metric > best_metric:
            best_metric = metric
            best = params.copy()
            stale = 0
        else:
            stale += 1
            if stale >= hp.patience:
                break
    return best, log


# -- gradient checking --------------------------------------------------------------


@dataclass
class TensorCheck:
    name: str
    max_rel_err: float
    worst_index: tuple
    analytic: float
    numeric: float


@dataclass
class GradcheckReport:
    checks: list[TensorCheck]
    max_rel_err: float
    threshold: float
    passed: bool
    runtime_s: float

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            out.append(
                f"{c.name:4s} max_rel_err={c.max_rel_err:.3e} "
                f"at {c.worst_index} analytic={c.analytic:+.6e} "
                f"fd={c.numeric:+.6e}")
        verdict = "PASS" if self.passed else "FAIL"
        worst = max(self.checks, key=lambda c: c.max_rel_err)
        out.append(f"{verdict} max_rel_err={self.max_rel_err:.3e} "
                   f"threshold={self.threshold:.0e} worst_tensor={worst.name} "
                   f"runtime={self.runtime_s:.2f}s")
        return out


def tiny_instance(seed: int = 7):
    """A hand-sized model (d=4, 3 users, 3 POIs, 2 entities per side, 2
    intents, 2 layers) exercising every gradient path."""
    from .ukg import RELATION_IDS, UrbanKG
    from .interactions import InteractionSet

    triplets = [(RELATION_IDS[rel], head, tail) for rel, head, tail in (
        ("LocateAt", 0, 0), ("LocateAt", 1, 0), ("BelongTo", 0, 0),
        ("BaServe", 0, 0), ("BrandOf", 0, 0), ("BrandOf", 1, 0),
        ("Cate1Of", 2, 0), ("Brand2Cate1", 0, 0))]
    pops = {"POI": 3, "Region": 1, "BusinessArea": 1, "Brand": 1,
            "Cate1": 1, "Cate2": 0, "Cate3": 0}
    kg = UrbanKG(triplets, pops)
    mk = lambda ps: InteractionSet(3, 3, frozenset(ps))
    split = DatasetSplit(mk({(0, 0), (0, 1), (1, 1), (2, 2)}), mk(set()), mk(set()))
    bundle = build_graphs(kg, split)
    dims = dims_for(kg, split, d=4, n_intents=2, n_layers=2)
    params = init_params(dims, seed)
    # zero intent scores give uniform attention whose softmax jacobian hides
    # asymmetric errors; randomize S so the beta/dcor paths are exercised
    rng = np.random.default_rng(np.random.SeedSequence([seed, GRADCHECK_STREAM]))
    params.S_g.data[:] = rng.uniform(-0.5, 0.5, size=params.S_g.shape)
    params.S_f.data[:] = rng.uniform(-0.5, 0.5, size=params.S_f.shape)
    users = np.array([0, 0, 1, 1, 2, 2])
    pos = np.array([0, 1, 1, 1, 2, 2])
    neg = np.array([2, 2, 0, 2, 0, 1])
    hp = HyperParams(lam_ind=0.1, lam_reg=0.1, cf_weight=1.0)
    return params, bundle, (users, pos, neg), hp


def run_gradcheck(step: float = 1e-4, threshold: float = 1e-4,
                  corrupt: str | None = None, seed: int = 7) -> GradcheckReport:
    """Compare tape gradients with central finite differences.

    ``corrupt`` names a tensor whose analytic gradient is deliberately
    damaged before comparison; used to prove the check can fail.
    """
    t_start = time.perf_counter()
    params, bundle, (users, pos, neg), hp = tiny_instance(seed)
    grads, _ = backward(params, bundle, users, pos, neg, hp)
    if corrupt is not None:
        grads[corrupt] = grads[corrupt] + 1.0

    def loss_at() -> float:
        breakdown, _ = compute_loss(params, bundle, users, pos, neg, hp)
        return float(breakdown.total.data)

    checks = []
    for name, tensor in params.named_tensors():
        data = tensor.data
        fd = np.zeros_like(data)
        flat = data.ravel()
        fd_flat = fd.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = loss_at()
            flat[i] = orig - step
            lo = loss_at()
            flat[i] = orig
            fd_flat[i] = (hi - lo) / (2.0 * step)
        denom = np.maximum(np.maximum(np.abs(grads[name]), np.abs(fd)), 1e-6)
        rel = np.abs(grads[name] - fd) / denom
        worst = np.unravel_index(np.argmax(rel), rel.shape)
        checks.append(TensorCheck(name, float(rel[worst]), tuple(int(w) for w in worst),
                                  float(grads[name][worst]), float(fd[worst])))
    max_err = max(c.max_rel_err for c in checks)
    return GradcheckReport(checks, max_err, threshold, max_err < threshold,
                           time.perf_counter() - t_start)
