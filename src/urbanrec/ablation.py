"""The paper's ablation as one pass, which ``urbanrec ablate``, acceptance
criterion 7 and demo 05 all run: the split-graph model against a blended one
that propagates both chunks over the whole graph, and debiased (``tie``)
against factual (``te``) ranking of the split model."""

from __future__ import annotations

from collections import namedtuple

from .evaluation import evaluate
from .propagation import build_graphs, dims_for, forward
from .training import fit

# The trained variants: (blended, label, [(row name, scorer)]).  The
# no-counterfactual row removes counterfactual inference at ranking time:
# the full model ranks by plain total effect instead of the debiased score.
ABLATE_VARIANTS = (
    (False, "full", [("full", "tie"), ("no_counterfactual", "te")]),
    (True, "no_disentangle", [("no_disentangle", "tie")]),
)

Variant = namedtuple("Variant", "label bundle params log finals rows")


def ablation_row(name, scorer, finals, split, functional, eval_seed) -> dict:
    report = evaluate(finals, split, scorer=scorer, target="test",
                      ks=(20, 40, 60), seed=eval_seed)
    fndcg = evaluate(finals, functional, scorer, ks=(20,), with_auc=False).ndcg[20]
    row = {"variant": name, "scorer": scorer}
    row.update({f"recall@{k}": report.recall[k] for k in (20, 40, 60)})
    row.update({f"ndcg@{k}": report.ndcg[k] for k in (20, 40, 60)})
    row.update({"auc": report.auc, "functional_ndcg@20": fndcg})
    return row


def format_row(row: dict) -> str:
    # str, not repr: numpy 2 reprs a numpy float as np.float64(...)
    return " ".join(f"{key}={value}" for key, value in row.items())


def run_ablation(kg, split, functional, hp, seed, eval_seed, d, n_intents,
                 n_layers, progress=None):
    """Check the functional split's size and both variants' dims, then
    return an iterator that fits and scores one variant of ABLATE_VARIANTS
    per step, so that a caller can save each before the next fit starts.
    ``progress(label)``, when given, returns that fit's per-epoch callback."""
    if (functional.n_users, functional.n_pois) != (split.n_users, split.n_pois):
        raise ValueError(
            f"ground_truth.txt is for {functional.n_users} users x "
            f"{functional.n_pois} POIs but the data has {split.n_users} users "
            f"x {split.n_pois} POIs")
    dims = {blended: dims_for(kg, split, d, n_intents, n_layers, blended)
            for blended, _, _ in ABLATE_VARIANTS}

    def variants():
        for blended, label, scored in ABLATE_VARIANTS:
            bundle = build_graphs(kg, split, blended=blended)
            params, log = fit(split, bundle, dims[blended], hp, seed,
                              progress_fn=progress and progress(label))
            finals = forward(params, bundle)
            yield Variant(label, bundle, params, log, finals,
                          [ablation_row(name, scorer, finals, split,
                                        functional, eval_seed)
                           for name, scorer in scored])

    return variants()
