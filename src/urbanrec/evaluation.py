"""Full-ranking evaluation: Recall@K, NDCG@K, and sampled-pair AUC.

Every user with test targets ranks the whole catalog minus their already
known positives (train and validation); ties break toward the smaller POI
id so runs are reproducible.  evaluate scores its users in blocks of
BLOCK_USERS rows, one counterfactual.score_users call each, so the catalog
is read once per block; its memory is a few blocks of scores, whatever the
number of users.  It finds each target's rank by counting, and counts the
targets best first, stopping at the first one ranked past every K, so a
user with many targets costs a few counting passes.  AUC draws one uniform
negative per positive, rejected against the user's full positive set, from
a seed-tagged stream.

A user scored in a block of two or more goes through BLAS's matrix-matrix
product, and rank_candidates's single user through its matrix-vector
product; their scores may differ in the last bit, which moves no rank short
of a near-tie.

Functional NDCG is this same evaluate over GroundTruth.functional_split,
whose test view holds every user's top-affinity POIs and whose train and
val views are empty, so the whole catalog is ranked.  rank_candidates,
recall_at_k and ndcg_at_k are the list-based reference that tests and the
benchmark check evaluate against.  rank_candidates returns int32 POI ids,
ordered by numpy's default (SIMD) argsort; when the sorted scores hold a
tie or a NaN it sorts again with a stable sort, so ties still go to the
smaller id.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .counterfactual import SCORERS, score_candidates, score_users
from .interactions import DatasetSplit, sample_negatives
from .propagation import FinalEmbeddings

AUC_STREAM = 41

# users scored per score_users call: a row count, not a byte budget, since a
# budget shrinks the block to a few rows on a large catalog and loses the
# matrix-matrix product's gain
BLOCK_USERS = 32

DEFAULT_KS = (20, 40, 60)


class EmptyTestSet(ValueError):
    pass


def rank_candidates(user: int, finals: FinalEmbeddings, scorer: str,
                    exclude: np.ndarray) -> np.ndarray:
    """All POIs minus ``exclude`` as int32 ids, best score first, ties by
    ascending id (NaN scores last).

    numpy's default sort orders the scores; it may put equal scores in any
    order, so when the sorted scores hold an equal pair or a NaN, a stable
    sort over the ascending ids orders them again.
    """
    keep = np.ones(finals.p.data.shape[0], dtype=bool)
    keep[np.asarray(exclude, dtype=np.int64)] = False
    candidates = np.flatnonzero(keep).astype(np.int32)
    neg = -score_candidates(finals, user, candidates, scorer)
    order = np.argsort(neg)
    s = neg[order]
    # NaNs sort last; -0.0 == 0.0 counts as a tie
    if len(s) and (np.isnan(s[-1]) or (s[1:] == s[:-1]).any()):
        order = np.argsort(neg, kind="stable")
    return candidates[order]


def _ideal_dcg(max_count: int) -> np.ndarray:
    """Ideal binary DCG of 1..max_count positives: entry c - 1 holds that
    of c positives, summed left to right."""
    return np.cumsum(1.0 / np.log2(np.arange(2, max_count + 2)))


def _recall_ndcg(ranks: list, count: int, ks, ideal: np.ndarray) -> list:
    """(Recall@k, binary NDCG@k) for each k of ``ks``, from the ascending
    1-based ranks of a user's positives (those past every k may be left
    out), how many positives there are, and an ``_ideal_dcg`` table of at
    least ``count`` entries.

    The ideal DCG spans the full positive set rather than stopping at k, so
    NDCG@K is monotone non-decreasing in K, matching Recall@K.  One
    cumulative sum over the ranks adds left to right, rank by rank, so its
    entry h - 1 is exactly the DCG of the first h ranks.
    """
    dcg = np.cumsum(1.0 / np.log2(np.array(ranks, dtype=np.int64) + 1))
    hits = [bisect_right(ranks, k) for k in ks]
    return [(h / count, (dcg[h - 1] if h else 0.0) / ideal[count - 1])
            for h in hits]


def _at_k(ranked: np.ndarray, positives, k: int) -> tuple:
    """Recall@k and NDCG@k of a ranked list against a positive set."""
    pos = set(int(p) for p in positives)
    if not pos:
        raise EmptyTestSet("no test positives for this user")
    top = np.asarray(ranked[:k], dtype=np.int64).tolist()
    ranks = [r for r, p in enumerate(top, start=1) if p in pos]
    return _recall_ndcg(ranks, len(pos), (k,), _ideal_dcg(len(pos)))[0]


def recall_at_k(ranked: np.ndarray, positives, k: int) -> float:
    return _at_k(ranked, positives, k)[0]


def ndcg_at_k(ranked: np.ndarray, positives, k: int) -> float:
    """Binary NDCG with the ideal DCG taken over the full positive set."""
    return float(_at_k(ranked, positives, k)[1])


def pair_auc(pos_scores: np.ndarray, neg_scores: np.ndarray) -> float:
    """Fraction of (pos, neg) pairs ranked correctly; ties count half."""
    if len(pos_scores) == 0 or len(neg_scores) == 0:
        raise EmptyTestSet("auc needs at least one positive and one negative")
    diff = pos_scores[:, None] - neg_scores[None, :]
    wins = (diff > 0).sum() + 0.5 * (diff == 0).sum()
    return float(wins) / diff.size


def sample_auc_negatives(split: DatasetSplit, user: int, count: int,
                         seed: int) -> np.ndarray:
    """Uniform negatives, rejected against the user's full positive set."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, AUC_STREAM, user]))
    return sample_negatives(split.full, np.full(count, user), rng)


@dataclass
class MetricsReport:
    """Averaged ranking metrics; ``defined`` is False when no user had
    evaluation targets (metric fields are then None)."""

    recall: dict
    ndcg: dict
    auc: float | None
    n_users_evaluated: int
    scorer: str
    target: str
    seed: int
    defined: bool
    config_hash: str | None = None

    def to_json(self) -> str:
        payload = {
            "recall": {str(k): v for k, v in self.recall.items()},
            "ndcg": {str(k): v for k, v in self.ndcg.items()},
            "auc": self.auc,
            "n_users_evaluated": self.n_users_evaluated,
            "scorer": self.scorer,
            "target": self.target,
            "seed": self.seed,
            "defined": self.defined,
            "config_hash": self.config_hash,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MetricsReport":
        raw = json.loads(text)
        return cls(recall={int(k): v for k, v in raw["recall"].items()},
                   ndcg={int(k): v for k, v in raw["ndcg"].items()},
                   auc=raw["auc"], n_users_evaluated=raw["n_users_evaluated"],
                   scorer=raw["scorer"], target=raw["target"], seed=raw["seed"],
                   defined=raw["defined"], config_hash=raw.get("config_hash"))


def evaluate(finals: FinalEmbeddings, split: DatasetSplit, scorer: str = "tie",
             target: str = "test", ks=DEFAULT_KS, seed: int = 0,
             with_auc: bool = True) -> MetricsReport:
    """Rank and score every user that has targets in the chosen split.

    target="test" excludes train+val positives from the candidate list;
    target="val" (used during training) excludes train only.
    """
    if target not in ("test", "val"):
        raise ValueError(f"target must be 'test' or 'val', got {target!r}")
    if scorer not in SCORERS:
        raise ValueError(f"unknown scorer {scorer!r}, expected one of {SCORERS}")
    shape = (finals.u.data.shape[0], finals.p.data.shape[0])
    if shape != (split.n_users, split.n_pois):
        raise ValueError(f"finals hold (users, POIs) = {shape} but the split "
                         f"has {(split.n_users, split.n_pois)}")
    ks = tuple(ks)
    k_max = max(ks, default=0)
    target_set = split.test if target == "test" else split.val
    counts = np.diff(target_set.indptr)
    users = np.flatnonzero(counts).tolist()
    if not users:
        return MetricsReport(recall={k: None for k in ks},
                             ndcg={k: None for k in ks}, auc=None,
                             n_users_evaluated=0, scorer=scorer, target=target,
                             seed=seed, defined=False)
    ideal = _ideal_dcg(int(counts.max()))
    recall_acc = {k: 0.0 for k in ks}
    ndcg_acc = {k: 0.0 for k in ks}
    auc_acc = 0.0
    for start in range(0, len(users), BLOCK_USERS):
        block = users[start:start + BLOCK_USERS]
        for u, row in zip(block, score_users(finals, block, scorer)):
            targets = target_set.user_pois(u)
            pos_scores = row[targets]
            if with_auc:
                negs = sample_auc_negatives(split, u, len(targets), seed)
                auc_acc += pair_auc(pos_scores, row[negs])
            row[split.train.user_pois(u)] = -np.inf
            if target == "test":
                row[split.val.user_pois(u)] = -np.inf
            # the rank rank_candidates gives a target: one plus the candidates
            # scoring higher, plus those tied with it that have a smaller id.
            # Targets taken best first (targets are ascending ids) get rising
            # ranks, so the first one past every k ends the count.
            order = np.argsort(-pos_scores, kind="stable")
            ranks = []
            for t, s in zip(targets[order].tolist(), pos_scores[order].tolist()):
                rank = 1 + np.count_nonzero(row > s) + np.count_nonzero(row[:t] == s)
                if rank > k_max:
                    break
                ranks.append(rank)
            for k, (recall, ndcg) in zip(ks, _recall_ndcg(ranks, len(targets),
                                                          ks, ideal)):
                recall_acc[k] += recall
                ndcg_acc[k] += ndcg
    n_eval = len(users)
    return MetricsReport(
        recall={k: recall_acc[k] / n_eval for k in ks},
        ndcg={k: ndcg_acc[k] / n_eval for k in ks},
        auc=(auc_acc / n_eval) if with_auc else None,
        n_users_evaluated=n_eval, scorer=scorer, target=target, seed=seed,
        defined=True)
