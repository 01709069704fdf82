"""
Training and evaluating a recommender
=====================================

The model learns two embedding chunks per user and POI: a geographical
chunk propagated over the geographical subgraph and a functional chunk
propagated over the functional subgraph, each gated by personal intent
attention.  Training optimizes a pairwise ranking loss on the fused score,
an auxiliary ranking loss on the geographical chunk, an intent-independence
penalty, and weight decay, with Adam and early stopping on validation
recall.  Expect about a minute.
"""

from urbanrec.evaluation import evaluate
from urbanrec.interactions import split_dataset
from urbanrec.propagation import build_graphs, dims_for, forward
from urbanrec.synthgen import CityConfig, generate_city
from urbanrec.training import HyperParams, fit

###############################################################################
# City, split, graph.  The split is per-user (80/10/10 of each user's
# check-ins) so every user keeps some training history.

cfg = CityConfig(n_users=500, n_pois=2000, geo_strength=5.0, seed=2)
kg, checkins, _ = generate_city(cfg)
split = split_dataset(checkins, (0.8, 0.1, 0.1), seed=2)
print(f"train/val/test pairs: {len(split.train)}/"
      f"{len(split.val)}/{len(split.test)}")

bundle = build_graphs(kg, split)
dims = dims_for(kg, split, d=32, n_intents=4, n_layers=3)

###############################################################################
# Fit.  Each epoch logs the loss pieces and validation recall; the returned
# parameters are the best-validation snapshot, not the last epoch.

hp = HyperParams()  # lr 1e-3, batch 1024, patience 10, max 30 epochs
params, log = fit(split, bundle, dims, hp, seed=2,
                  progress_fn=lambda rec: print(
                      f"epoch {rec['epoch']:>2}: loss {rec['total']:8.2f}  "
                      f"val recall@20 {rec['val_recall20']:.3f}"))

###############################################################################
# Evaluate on the held-out test pairs.  Ranking excludes each user's train
# and validation positives, and the debiased scorer does the ranking.

finals = forward(params, bundle)
report = evaluate(finals, split, scorer="tie", target="test",
                  ks=(20, 40, 60), seed=2)
print(f"\ntest recall@20 {report.recall[20]:.3f}  "
      f"ndcg@20 {report.ndcg[20]:.3f}  auc {report.auc:.3f}")

###############################################################################
# The same checkpoint under the three scorers: gating the match by geography
# helps, and stripping the geography-only share helps again.  Held-out
# check-ins still carry the planted bias, though, so the cleaner measure of
# what debiasing buys - recovery of true functional preference - is made
# against generator ground truth in the planted-bias study script.

for scorer in ("y_up", "te", "tie"):
    rep = evaluate(finals, split, scorer=scorer, target="test", ks=(20,),
                   seed=2, with_auc=False)
    print(f"scorer {scorer:>5}: test recall@20 {rep.recall[20]:.3f}")
