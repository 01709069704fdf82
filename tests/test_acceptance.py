"""Acceptance suite: nine end-to-end behavioral criteria.

Each test prints one PASS/FAIL line with the measured values (visible with
``pytest -s``, or in the failure report otherwise) and then asserts.  The
numbered criteria cover, in order: gradient correctness, the debiased-score
closed form, attention row properties, distance-correlation properties,
propagation against a brute-force oracle, ranking-metric oracles, the
planted-bias headline experiment, training sanity, and CLI determinism.
"""

import hashlib
import json
import time

import numpy as np

import oracles
import test_evaluation as ev_fixtures
import test_propagation as pg_fixtures
from urbanrec import autodiff as ad
from urbanrec import cli
from urbanrec import evaluation as ev
from urbanrec import model as md
from urbanrec import propagation as pg
from urbanrec import training as tr
from urbanrec.counterfactual import bundle_scores
from urbanrec.interactions import split_dataset
from urbanrec.synthgen import CityConfig, generate_city

SEEDS = (0, 1, 2)


def _report(n: int, ok: bool, detail: str) -> str:
    line = f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


def test_criterion_1_gradient_check_tiny_instance():
    report = tr.run_gradcheck(step=1e-4, threshold=1e-4)
    ok = report.passed and report.max_rel_err < 1e-4 and report.runtime_s < 30.0
    line = _report(1, ok, f"max_rel_err={report.max_rel_err:.3e} (< 1e-4), "
                          f"runtime={report.runtime_s:.1f}s (< 30s)")
    assert ok, line


def test_criterion_2_debiased_score_closed_form():
    rng = np.random.default_rng(2)
    y_up, y_up_ref, y_ug = rng.normal(scale=3.0, size=(3, 10_000))
    bundle = bundle_scores(y_up, y_ug, y_up_ref)
    closed = (y_up - y_up_ref) * np.tanh(y_ug)
    worst = float(np.max(np.abs(bundle.tie - closed)))
    ok = worst < 1e-10
    line = _report(2, ok, f"max |tie - (y_up - ref) * tanh(y_ug)| = {worst:.2e} "
                          f"over 10^4 random triples (< 1e-10)")
    assert ok, line


def test_criterion_3_attention_rows_sum_to_one_and_shift_invariant():
    worst_sum = 0.0
    worst_shift = 0.0
    for t in range(1000):
        rng = np.random.default_rng(np.random.SeedSequence([3, t]))
        n_intents = int(rng.integers(2, 7))
        n_rel = int(rng.integers(2, 17))
        d = int(rng.integers(2, 17))
        n_users = int(rng.integers(1, 9))
        S = rng.normal(scale=2.0, size=(n_intents, n_rel))
        R = rng.normal(size=(n_rel, d))
        U = rng.normal(size=(n_users, d))
        intents = md.intent_embeddings(ad.Tensor(S), ad.Tensor(R))
        alpha = intents.alpha.data
        beta = md.user_intent_attention(ad.Tensor(U), intents).data
        for rows in (alpha, beta):
            worst_sum = max(worst_sum, float(np.max(np.abs(rows.sum(axis=1) - 1.0))))
        # alpha rows ignore a per-row constant added to the scores
        c = rng.normal(scale=5.0, size=(n_intents, 1))
        alpha2 = md.intent_embeddings(ad.Tensor(S + c), ad.Tensor(R)).alpha.data
        worst_shift = max(worst_shift, float(np.max(np.abs(alpha2 - alpha))))
        # adding one vector to every intent embedding shifts each user's
        # attention scores by a per-user constant; beta must not move
        v = rng.normal(scale=3.0, size=d)
        shifted = md.IntentSet(intents.alpha,
                               ad.Tensor(intents.embeddings.data + v[None, :]))
        beta2 = md.user_intent_attention(ad.Tensor(U), shifted).data
        worst_shift = max(worst_shift, float(np.max(np.abs(beta2 - beta))))
    ok = worst_sum < 1e-6 and worst_shift < 1e-9
    line = _report(3, ok, f"row-sum dev={worst_sum:.2e} (< 1e-6), "
                          f"shift dev={worst_shift:.2e} (< 1e-9), 10^3 draws")
    assert ok, line


def test_criterion_4_distance_correlation_properties():
    worst_self = 0.0
    worst_range = 0.0
    symmetric = True
    constants_zero = True
    for t in range(1000):
        rng = np.random.default_rng(np.random.SeedSequence([4, t]))
        d = int(rng.integers(2, 65))
        x = rng.normal(size=d)
        y = rng.normal(size=d)
        worst_self = max(worst_self,
                         abs(tr.dcor(ad.Tensor(x), ad.Tensor(x)).item() - 1.0))
        xy = tr.dcor(ad.Tensor(x), ad.Tensor(y)).item()
        yx = tr.dcor(ad.Tensor(y), ad.Tensor(x)).item()
        symmetric = symmetric and (xy == yx)
        worst_range = max(worst_range, -xy, xy - 1.0)
        const = np.full(d, float(rng.normal()))
        constants_zero = constants_zero and \
            tr.dcor(ad.Tensor(const), ad.Tensor(y)).item() == 0.0
    ok = (worst_self < 1e-9 and worst_range <= 1e-9 and symmetric
          and constants_zero)
    line = _report(4, ok, f"|dcor(x,x)-1|={worst_self:.2e} (< 1e-9), "
                          f"range excess={max(worst_range, 0.0):.2e}, "
                          f"symmetry exact={symmetric}, "
                          f"constant rule={constants_zero}, 10^3 vectors, "
                          f"d in 2..64")
    assert ok, line


def test_criterion_5_propagation_matches_naive_oracle():
    worst = 0.0
    for g in range(50):
        kg, split, dims, params, bundle = pg_fixtures.random_setup(
            seed=g, n_users=2 + g % 3, n_pois=2 + g % 7,
            n_layers=1 + g % 3, n_intents=1 + g % 3, d=3 + g % 4)
        finals, trace = pg.forward(params, bundle, return_trace=True)
        for side, side_trace in (("geo", trace.geo), ("func", trace.func)):
            states = pg_fixtures.oracle_side_states(kg, split, params, side,
                                                    dims.n_layers)
            assert len(side_trace) == len(states) == dims.n_layers + 1
            for (U_b, X_b), (U_o, X_o) in zip(side_trace, states):
                worst = max(worst, float(np.max(np.abs(U_b - U_o))),
                            float(np.max(np.abs(X_b - X_o))))
    ok = worst < 1e-10
    line = _report(5, ok, f"max |batched - oracle| = {worst:.2e} over 50 "
                          f"random graphs, every layer, both sides (< 1e-10)")
    assert ok, line


def test_criterion_6_metric_oracles():
    split = ev_fixtures.fixture_split()
    finals = ev_fixtures.fixture_finals()
    report = ev.evaluate(finals, split, scorer="y_up", target="test",
                         ks=(1, 2, 4), seed=11)
    # hand-worked values for the 4-user fixture (user 3 has no targets)
    idcg2 = 1.0 / np.log2(2) + 1.0 / np.log2(3)
    expected_recall = {1: (0.5 + 0.0 + 0.0) / 3, 2: (0.5 + 0.0 + 0.0) / 3,
                       4: (1.0 + 1.0 + 0.0) / 3}
    expected_ndcg = {1: ((1.0 / np.log2(2)) / idcg2) / 3,
                     2: ((1.0 / np.log2(2)) / idcg2) / 3,
                     4: ((1.0 / np.log2(2) + 1.0 / np.log2(5)) / idcg2
                         + 1.0 / np.log2(4)) / 3}
    exact = report.n_users_evaluated == 3
    for k in (1, 2, 4):
        exact = exact and report.recall[k] == expected_recall[k]
        exact = exact and report.ndcg[k] == expected_ndcg[k]
    score = lambda u, pois: finals.p.data[pois] @ finals.u.data[u]
    auc_expect = 0.0
    for u, targets in ((0, [2, 3]), (1, [4]), (2, [5, 6, 7])):
        negs = ev.sample_auc_negatives(split, u, len(targets), seed=11)
        auc_expect += oracles.naive_auc(score(u, np.array(targets)),
                                        score(u, negs))
    exact = exact and report.auc == auc_expect / 3

    # monotone in K
    rng = np.random.default_rng(6)
    ranked = rng.permutation(40)
    pos = set(int(p) for p in rng.choice(40, size=6, replace=False))
    recalls = [ev.recall_at_k(ranked, pos, k) for k in range(1, 41)]
    ndcgs = [ev.ndcg_at_k(ranked, pos, k) for k in range(1, 41)]
    monotone = all(b >= a for a, b in zip(recalls, recalls[1:])) and \
        all(b >= a for a, b in zip(ndcgs, ndcgs[1:]))

    # invariant under a strictly increasing score transform
    scores = np.array([[0.0, 0.0, 0.9, 0.2, 0.8, 0.5, 0.1, 0.05],
                       [0.0, 0.0, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3],
                       [0.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3],
                       [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
    r_base = ev.evaluate(ev_fixtures.finals_from_scores(scores), split,
                         scorer="y_up", target="test", ks=(1, 2, 4), seed=11)
    r_mono = ev.evaluate(ev_fixtures.finals_from_scores(np.exp(scores) + 5.0),
                         split, scorer="y_up", target="test", ks=(1, 2, 4),
                         seed=11)
    invariant = (r_base.recall == r_mono.recall and r_base.ndcg == r_mono.ndcg
                 and r_base.auc == r_mono.auc)

    ok = exact and monotone and invariant
    line = _report(6, ok, f"4-user fixture exact={exact}, monotone in K="
                          f"{monotone}, monotone-transform invariant="
                          f"{invariant}")
    assert ok, line


def test_criterion_7_planted_bias_headline_experiment():
    t0 = time.perf_counter()
    hp = tr.HyperParams()  # lr 1e-3, lam_reg 1e-3, cf_weight 1, batch 1024,
    #                        patience 10, max_epochs 30
    fndcg_tie, fndcg_te, recall_full, recall_blended = [], [], [], []
    for s in SEEDS:
        cfg = CityConfig(n_users=500, n_pois=2000, geo_strength=5.0, seed=s)
        kg, iset, gt = generate_city(cfg)
        split = split_dataset(iset, (0.8, 0.1, 0.1), seed=s)

        bundle = pg.build_graphs(kg, split)
        dims = pg.dims_for(kg, split, d=32, n_intents=4, n_layers=3)
        params, _ = tr.fit(split, bundle, dims, hp, seed=s)
        finals = pg.forward(params, bundle)
        # ground-truth functional relevance is independent of the observed
        # check-ins, so the whole catalog is ranked (nothing excluded)
        functional = gt.functional_split(0.05)
        for scorer, acc in (("tie", fndcg_tie), ("te", fndcg_te)):
            acc.append(ev.evaluate(finals, functional, scorer, ks=(20,),
                                   with_auc=False).ndcg[20])
        recall_full.append(ev.evaluate(finals, split, scorer="tie",
                                       target="test", ks=(20,), seed=s,
                                       with_auc=False).recall[20])

        blend = pg.build_graphs(kg, split, blended=True)
        bdims = pg.dims_for(kg, split, d=32, n_intents=4, n_layers=3,
                            blended=True)
        bparams, _ = tr.fit(split, blend, bdims, hp, seed=s)
        bfinals = pg.forward(bparams, blend)
        recall_blended.append(ev.evaluate(bfinals, split, scorer="tie",
                                          target="test", ks=(20,), seed=s,
                                          with_auc=False).recall[20])
    elapsed = time.perf_counter() - t0

    mean_tie = float(np.mean(fndcg_tie))
    mean_te = float(np.mean(fndcg_te))
    margins = [rf - rb for rf, rb in zip(recall_full, recall_blended)]
    debias_wins = mean_tie > mean_te
    disentangle_wins = all(m >= 0.0 for m in margins)
    in_budget = elapsed < 900.0
    ok = debias_wins and disentangle_wins and in_budget
    line = _report(
        7, ok,
        f"functional_ndcg@20 debiased={mean_tie:.5f} > plain={mean_te:.5f}: "
        f"{debias_wins}; recall@20 margins over no-disentangle="
        f"{[round(m, 4) for m in margins]} all >= 0: {disentangle_wins}; "
        f"runtime={elapsed:.0f}s (< 900s)")
    assert ok, line


def test_criterion_8_training_sanity():
    losses = []
    for s in SEEDS:
        kg, iset, _ = generate_city(CityConfig(seed=s))
        split = split_dataset(iset, (0.8, 0.1, 0.1), seed=s)
        bundle = pg.build_graphs(kg, split)
        dims = pg.dims_for(kg, split, d=32, n_intents=4, n_layers=3)
        _, log = tr.fit(split, bundle, dims, tr.HyperParams(max_epochs=5),
                        seed=s)
        losses.append((log[0]["total"], log[4]["total"]))
    decreasing = all(e5 < e1 for e1, e5 in losses)

    # a constant validation metric improves once (first epoch) and then goes
    # stale, so training must stop after exactly 1 + patience epochs
    kg, iset, _ = generate_city(CityConfig(seed=0))
    split = split_dataset(iset, (0.8, 0.1, 0.1), seed=0)
    bundle = pg.build_graphs(kg, split)
    dims = pg.dims_for(kg, split, d=32, n_intents=4, n_layers=3)
    hp = tr.HyperParams(max_epochs=30, patience=10)
    _, log = tr.fit(split, bundle, dims, hp, seed=0,
                    val_metric_fn=lambda p: 0.5)
    stop_exact = len(log) == 1 + hp.patience

    ok = decreasing and stop_exact
    pairs = ", ".join(f"seed {s}: {e1:.1f} -> {e5:.1f}"
                      for s, (e1, e5) in zip(SEEDS, losses))
    line = _report(8, ok, f"loss epoch5 < epoch1 on all seeds: {decreasing} "
                          f"({pairs}); early stop at exactly "
                          f"1 + patience = {1 + hp.patience} epochs: "
                          f"{stop_exact} (got {len(log)})")
    assert ok, line


def test_criterion_9_cli_determinism(tmp_path):
    city_flags = ["--n-users", "24", "--n-pois", "60", "--n-regions", "4",
                  "--n-business-areas", "8", "--n-brands", "12",
                  "--n-cate1", "2", "--n-cate2", "4", "--n-cate3", "8",
                  "--interactions-per-user", "6", "--seed", "2"]
    train_flags = ["--d", "6", "--n-layers", "2", "--max-epochs", "2",
                   "--batch-size", "64", "--seed", "0"]
    digest = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()

    runs = {}
    for r in ("a", "b"):
        city = tmp_path / r / "city"
        out = tmp_path / r / "run"
        assert cli.main(["gen", "--out", str(city), *city_flags]) == 0
        assert cli.main(["train", "--data", str(city), "--out", str(out),
                         *train_flags]) == 0
        assert cli.main(["eval", "--data", str(city), "--checkpoint",
                         str(out / "checkpoint.bin")]) == 0
        hashes = {}
        for name in ("city/kg.tsv", "city/checkins.tsv",
                     "city/ground_truth.txt", "city/gen.config",
                     "run/checkpoint.bin", "run/train.config",
                     "run/metrics_tie_test.json",
                     "run/metrics_tie_test.json.config"):
            hashes[name] = digest(tmp_path / r / name)
        # the per-epoch log is deterministic apart from wall-clock timings
        records = [json.loads(ln) for ln in
                   (out / "train_log.jsonl").read_text().splitlines()]
        for rec in records:
            rec.pop("wall_time_s", None)
        runs[r] = (hashes, records)

    same_files = runs["a"][0] == runs["b"][0]
    same_log = runs["a"][1] == runs["b"][1]
    ok = same_files and same_log
    line = _report(9, ok, f"gen/train/eval re-runs byte-identical on "
                          f"{len(runs['a'][0])} files: {same_files}; "
                          f"train log identical apart from wall time: "
                          f"{same_log}")
    assert ok, line
