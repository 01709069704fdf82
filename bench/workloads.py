"""The three benchmark workloads, built from urbanrec's public functions.

Every workload runs on a confounded city (geo_strength 5) whose size is a
multiple of the default 500 users x 2000 POIs, and goes through the same
set-up a command-line user pays: generate, write ``kg.tsv`` and
``checkins.tsv``, read and parse them back, split, build the graphs.

- ``ablate-1x`` follows ``urbanrec ablate``: fit the split and the blended
  model for a fixed epoch budget with per-epoch validation, save and load
  both checkpoints, then score the three ablation rows (split/tie,
  split/te, blended/tie) with test ``evaluate`` and functional NDCG@20.
- ``rank-4x`` ranks with untrained parameters: one ``forward``, test
  ``evaluate`` and full-catalog ``rank_candidates`` + ``functional_ndcg``
  for both scorers.  Ranking cost does not depend on how trained the
  weights are, so no training is paid for.
- ``city-10x`` is set-up at scale followed by training steps (sample,
  forward + backward, Adam) with no validation.

Each run reports every end-to-end metric.  The ranking rates come from a
probe: test ``evaluate`` and a tie and a te ranking of a fixed user sample,
a few calls each per burst, with bursts run between the pipeline's steps
so that their calls cover the whole run; their time is left out of the
pipeline's.  ``rank-4x`` also runs training steps as a probe, because its
pipeline trains nothing.  The quality metrics come from the ablation unit
run on a fixed reference city (seed 0), because their spread across city seeds is
far wider than any timing bound.  On ``ablate-1x`` that city has the
default size and its unit is timed as a second unit of the workload; the
other workloads use a quarter-size city, which keeps their runs short.
"""

from __future__ import annotations

import json
import resource
import statistics
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from urbanrec import autodiff as ad
from urbanrec import evaluation, training
from urbanrec.counterfactual import score_candidates
from urbanrec.evaluation import evaluate, ndcg_at_k, rank_candidates, recall_at_k
from urbanrec.interactions import (DatasetSplit, InteractionSet, parse_checkins,
                                   serialize_checkins, split_dataset)
from urbanrec.model import (ModelParams, init_params, load_checkpoint,
                            save_checkpoint)
from urbanrec.propagation import FinalEmbeddings, build_graphs, dims_for, forward
from urbanrec.synthgen import (CityConfig, GroundTruth, functional_ndcg,
                               generate_city)
from urbanrec.training import (SAMPLE_STREAM, AdamState, DivergedLoss,
                               HyperParams, default_val_metric, fit)
from urbanrec.ukg import (UrbanKG, build_adjacency, parse_triplets,
                          serialize_triplets, split_subgraphs)

from spans import Tracer

SCALES = {"ablate-1x": 1, "rank-4x": 4, "city-10x": 10}
# city size of the reference ablation behind the quality metrics; a quarter
# city on the workloads that only report them keeps their runs short
REFERENCE_SCALES = {"ablate-1x": 1, "rank-4x": 0.25, "city-10x": 0.25}
BASE_USERS, BASE_POIS = 500, 2000
TINY_USERS, TINY_POIS = 40, 160
GEO_STRENGTH = 5.0
RATIOS = (0.8, 0.1, 0.1)
REFERENCE_SEED = 0

# lr 1e-2 moves the quality numbers well off chance within three epochs
# (at the default 1e-3 recall@20 stays near 20/2000); patience equal to the
# epoch budget means every run trains every epoch.
HP = HyperParams(lr=1e-2, max_epochs=3, patience=3)

# Set-up repetitions per run (median reported); fewer where one costs ~10 s.
SETUP_REPS = {"ablate-1x": 5, "rank-4x": 2, "city-10x": 2}
# users in the ranking probe's sample: about 50k user-POI scores per call,
# 15-40 ms at any scale
PROBE_USERS = {"ablate-1x": 25, "rank-4x": 6, "city-10x": 3}
# probe calls per burst, for 57-78 timed calls of each kind in a run
PROBE_REPEATS = {"ablate-1x": 3, "rank-4x": 3, "city-10x": 5}
PROBE_WARMUP = 2       # untimed first steps of the rank-4x training probe
FINAL_BURSTS = {"ablate-1x": 1, "rank-4x": 10, "city-10x": 1}
EVAL_SAMPLE = 200      # users in sampled trace-only evaluations
CHECK_SAMPLE = 50      # users in the rank-4x evaluate/rank_candidates check
LAYER_REPS = 3
USER_SAMPLE_STREAM = 91
READOUT_STREAM = 92

MODULES = ("synthgen", "ukg", "interactions", "model", "propagation",
           "autodiff", "training", "evaluation", "bench")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "train_triples_per_s": "1/s", "eval_users_per_s": "1/s",
    "fndcg_users_per_s": "1/s", "test_recall20": "fraction",
    "recall20_margin": "ratio", "fndcg20_tie": "ndcg",
    "fndcg20_margin": "ratio",
}

# spans whose median call duration is reported as "<span>_s"
TIMED_SPANS = (
    "propagation.geo_layer_fwd", "propagation.geo_layer_bwd",
    "propagation.func_layer_fwd", "propagation.func_layer_bwd",
    "propagation.forward", "autodiff.backward", "training.loss",
    "training.adam_step", "interactions.sample_bpr_batch",
    "training.val_metric", "evaluation.evaluate",
    "counterfactual.score_candidates", "evaluation.rank_candidates",
    "synthgen.functional_ndcg", "synthgen.generate_city", "ukg.serialize",
    "ukg.parse_triplets", "interactions.parse_checkins",
    "interactions.split_dataset", "ukg.build_adjacency",
    "propagation.build_graphs", "model.init_params", "model.save_checkpoint",
    "model.load_checkpoint",
)
PER_LAYER = {
    **{f"{name}_s": "s" for name in TIMED_SPANS},
    "propagation.peak_alloc_mb": "MB", "evaluation.peak_alloc_mb": "MB",
    "propagation.geo_edges": "count", "propagation.func_edges": "count",
    "propagation.message_mb": "MB", "evaluation.score_matrix_mb": "MB",
    "ukg.triplets": "count", "model.checkpoint_bytes": "count",
    **{f"self_pct.{m}": "%" for m in MODULES},
    "trace.wall_s": "s",
}


# The calls training.fit makes, by the names it looks up at call time: the
# globals of urbanrec.training, the evaluate that default_val_metric imports
# when it runs, and the tape's backward pass.  The traced run wraps each in
# a span (Tracer.wrapping) and runs the real fit.
TRAINING_CALLS = (
    (training, "sample_bpr_batch", "interactions.sample_bpr_batch"),
    (training, "batch_arrays", "interactions.batch_arrays"),
    (training, "backward", "training.backward"),
    (training, "forward", "propagation.forward"),
    (training, "intent_embeddings", "model.intent_embeddings"),
    (training, "total_loss", "training.loss"),
    (ad.Tensor, "backward", "autodiff.backward"),
    (training, "adam_step", "training.adam_step"),
    (training, "init_params", "model.init_params"),
    (training, "default_val_metric", "training.val_metric"),
    (evaluation, "evaluate", "evaluation.evaluate_val"),
)
LOSS_KEYS = ("l_f", "l_c", "l_ind_g", "l_ind_f", "total")


@dataclass
class Checks:
    """Output checks, counted; none of them runs inside a timed span."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class City:
    kg: UrbanKG
    split: DatasetSplit
    truth: GroundTruth
    bundles: dict         # variant -> GraphBundle
    dims: dict            # variant -> ModelDims
    params: ModelParams | None
    counts: dict          # (written, parsed) triplet and pair counts
    poi_shortfall: int    # POIs parse_checkins lost by inferring n_pois


def no_burst() -> None:
    pass


def city_config(scale: float, seed: int, tiny: bool) -> CityConfig:
    users, pois = (TINY_USERS, TINY_POIS) if tiny else (BASE_USERS, BASE_POIS)
    return CityConfig(n_users=round(users * scale), n_pois=round(pois * scale),
                      geo_strength=GEO_STRENGTH, seed=seed)


def set_up(cfg: CityConfig, seed: int, workdir: Path, tr: Tracer,
           variants=("split",), with_params: bool = True,
           between=no_burst) -> City:
    """Set-up as a command-line user pays it, calling ``between`` after
    generation, parsing and graph building."""
    with tr.span("synthgen.generate_city"):
        kg, checkins, truth = generate_city(cfg)
    between()
    with tr.span("ukg.serialize"):
        kg_text = serialize_triplets(kg)
    with tr.span("interactions.serialize_checkins"):
        ck_text = serialize_checkins(checkins)
    with tr.span("bench.write"):
        (workdir / "kg.tsv").write_text(kg_text)
        (workdir / "checkins.tsv").write_text(ck_text)
    with tr.span("bench.read"):
        kg_text = (workdir / "kg.tsv").read_text()
        ck_text = (workdir / "checkins.tsv").read_text()
    with tr.span("ukg.parse_triplets"):
        parsed_kg = parse_triplets(kg_text)
    with tr.span("interactions.parse_checkins"):
        parsed = parse_checkins(ck_text)
    # parse_checkins infers n_pois from the largest POI id seen, so a city
    # whose last POIs drew no check-in parses into a smaller id space than
    # its graph and build_graphs refuses it; rebuild the set in the graph's
    # id space and report the shortfall
    shortfall = parsed_kg.n_pois - parsed.n_pois
    if shortfall:
        with tr.span("interactions.rebase_checkins"):
            parsed = InteractionSet(parsed.n_users, parsed_kg.n_pois, parsed.pairs)
    between()
    with tr.span("interactions.split_dataset"):
        split = split_dataset(parsed, RATIOS, seed)
    bundles, dims = {}, {}
    for variant in variants:
        blended = variant == "blended"
        with tr.span("propagation.build_graphs"):
            bundles[variant] = build_graphs(parsed_kg, split, blended=blended)
        with tr.span("propagation.dims_for"):
            dims[variant] = dims_for(parsed_kg, split, blended=blended)
    between()
    params = None
    if with_params:
        with tr.span("model.init_params"):
            params = init_params(dims["split"], seed)
    counts = {"triplets": (len(kg.triplets), len(parsed_kg.triplets)),
              "pairs": (len(checkins.pairs), len(parsed.pairs))}
    return City(parsed_kg, split, truth, bundles, dims, params, counts, shortfall)


def check_set_up(city: City, checks: Checks) -> None:
    for what, (written, parsed) in city.counts.items():
        checks.check(written == parsed,
                     f"serialize -> parse changed the {what} count "
                     f"({written} -> {parsed})")


# -- training -------------------------------------------------------------------


def train_step(params, bundle, split, rng, state) -> dict:
    """One step of training.fit's loop, through the same module attributes
    fit calls, so TRAINING_CALLS covers it too.  Returns the loss values;
    the step's tape is freed when it returns."""
    batch = training.sample_bpr_batch(split, HP.batch_size, rng)
    users, pos, neg = training.batch_arrays(batch)
    grads, breakdown = training.backward(params, bundle, users, pos, neg, HP)
    vals = breakdown.floats()
    if vals["total"] > 1e6:
        raise DivergedLoss(f"total loss {vals['total']:.3e}")
    training.adam_step(params, grads, state, HP)
    return vals


def check_losses(values, what: str, checks: Checks) -> None:
    checks.check(all(np.isfinite(v) for v in values), f"non-finite loss in {what}")


# -- ranking ------------------------------------------------------------------------


def rank_and_score(finals, truth, users, scorer: str, tr: Tracer) -> float:
    """Full-catalog ranking of ``users`` and its functional NDCG@20, as
    ``urbanrec ablate`` computes it (nothing excluded)."""
    empty = np.array([], dtype=np.int64)
    with tr.span("evaluation.rank_candidates"):
        ranked = {u: rank_candidates(u, finals, scorer, empty) for u in users}
    with tr.span("synthgen.functional_ndcg"):
        return functional_ndcg(ranked, truth, k=20)


def test_evaluate(finals, split, scorer: str, seed: int, tr: Tracer):
    with tr.span("evaluation.evaluate"):
        return evaluate(finals, split, scorer=scorer, target="test",
                        ks=(20, 40, 60), seed=seed)


def test_users(split) -> np.ndarray:
    return np.array([u for u in range(split.n_users)
                     if len(split.test.user_pois(u)) > 0], dtype=np.int64)


def sample_users(split, count: int, seed: int) -> np.ndarray:
    users = test_users(split)
    rng = np.random.default_rng(np.random.SeedSequence([seed, USER_SAMPLE_STREAM]))
    return np.sort(rng.choice(users, size=min(count, len(users)), replace=False))


def sample_split(split, users) -> DatasetSplit:
    """The same training set, with validation and test targets kept only
    for ``users``, so evaluate scores just those users."""
    keep = set(int(u) for u in users)

    def restrict(iset):
        return InteractionSet(iset.n_users, iset.n_pois,
                              frozenset(pr for pr in iset.pairs if pr[0] in keep))

    return DatasetSplit(split.train, restrict(split.val), restrict(split.test))


@dataclass
class Rates:
    """Throughput samples of a run.  Other jobs on a shared host only ever
    add time to a call, and their load comes and goes within seconds, so
    each rate is that of the fastest of many calls spread over the run (as
    ``timeit`` reports its fastest repeat); a median moves with the host's
    load from one run to the next."""

    epoch_rates: dict = field(default_factory=dict)   # fit variant -> triples/s
    step_s: list = field(default_factory=list)
    eval_rates: list = field(default_factory=list)    # tie evaluate, users/s
    rank_rates: dict = field(default_factory=dict)    # scorer -> users/s

    def fitted(self, variant: str, log, n_triples: int) -> None:
        self.epoch_rates.setdefault(variant, []).extend(
            n_triples / r["wall_time_s"] for r in log)

    def evaluate(self, finals, split, seed, tr):
        t0 = time.perf_counter()
        report = test_evaluate(finals, split, "tie", seed, tr)
        self.eval_rates.append(report.n_users_evaluated / (time.perf_counter() - t0))
        return report

    def rank(self, finals, truth, users, scorer, tr) -> float:
        t0 = time.perf_counter()
        value = rank_and_score(finals, truth, users, scorer, tr)
        self.rank_rates.setdefault(scorer, []).append(
            len(users) / (time.perf_counter() - t0))
        return value

    def step(self, params, bundle, split, rng, state, tr) -> dict:
        t0 = time.perf_counter()
        with tr.wrapping(TRAINING_CALLS):
            vals = train_step(params, bundle, split, rng, state)
        self.step_s.append(time.perf_counter() - t0)
        return vals

    def train_triples_per_s(self) -> float:
        """Fits: triples per second through one epoch of each variant, each
        at its fastest epoch (validation included).  Steps: batch over the
        fastest step."""
        if self.epoch_rates:
            return len(self.epoch_rates) / sum(
                1 / max(r) for r in self.epoch_rates.values())
        return HP.batch_size / min(self.step_s)

    def eval_users_per_s(self) -> float:
        return max(self.eval_rates)

    def fndcg_users_per_s(self) -> float:
        """Users per second through one tie and one te ranking pass, each
        at its fastest.  Tie recomputes the catalog mean per user and runs
        at about two thirds of te's speed, so the scorers are kept apart."""
        return len(self.rank_rates) / sum(
            1 / max(r) for r in self.rank_rates.values())


class Probe:
    """The ranking probe on one city: test ``evaluate`` (tie) and a tie and
    a te ranking of a fixed sample of test users, ``repeats`` times each
    per ``burst``.  ``spent`` totals its time, which callers leave out of
    the pipeline's.  ``train_steps`` adds training steps, one per burst,
    on a copy of the parameters; ``losses`` keeps their losses."""

    def __init__(self, city: City, params, seed: int, n_users: int,
                 repeats: int, rates: Rates, tr: Tracer):
        finals = forward(params, city.bundles["split"])
        # keep the embeddings, not the tape behind them
        self.finals = FinalEmbeddings(**{
            f.name: ad.Tensor(getattr(finals, f.name).data) for f in fields(finals)})
        self.users = sample_users(city.split, n_users, seed)
        self.split = sample_split(city.split, self.users)
        self.truth, self.seed, self.rates, self.tr = city.truth, seed, rates, tr
        self.repeats = repeats
        self.spent = 0.0
        self.training = None
        self.losses = []

    def train_steps(self, city: City, params, seed: int, tr: Tracer) -> None:
        step_params = params.copy()
        state = AdamState.for_params(step_params)
        rng = np.random.default_rng(np.random.SeedSequence([seed, SAMPLE_STREAM, 1]))
        self.training = (step_params, city.bundles["split"], city.split, rng,
                         state, tr)
        # a process's first two steps run up to twice as slow as later
        # ones, so they are not timed
        self.losses += [train_step(*self.training[:5])["total"]
                        for _ in range(PROBE_WARMUP)]

    def burst(self) -> None:
        t0 = time.perf_counter()
        for _ in range(self.repeats):
            self.rates.evaluate(self.finals, self.split, self.seed, self.tr)
            for scorer in ("tie", "te"):
                self.rates.rank(self.finals, self.truth, self.users, scorer, self.tr)
        if self.training:
            self.losses.append(self.rates.step(*self.training)["total"])
        self.spent += time.perf_counter() - t0


# -- the units -----------------------------------------------------------------------


def ablation(city: City, seed: int, workdir: Path, tr: Tracer, rates: Rates,
             between=no_burst):
    """One pass of ``urbanrec ablate`` after set-up, calling ``between``
    after each fit and each scoring.  Returns the ablation rows
    {(variant, scorer): (report, functional ndcg)}, the training logs and
    each checkpoint's (saved, loaded) parameters for checking."""
    rows, logs, round_trips = {}, {}, {}
    for variant in ("split", "blended"):
        bundle, dims = city.bundles[variant], city.dims[variant]
        with tr.span("training.fit"), tr.wrapping(TRAINING_CALLS):
            params, log = fit(city.split, bundle, dims, HP, seed)
        n_batches = max(1, int(np.ceil(len(city.split.train) / HP.batch_size)))
        rates.fitted(variant, log, n_batches * HP.batch_size)
        logs[variant] = log
        between()
        path = workdir / f"{variant}_checkpoint.bin"
        with tr.span("model.save_checkpoint"):
            save_checkpoint(params, str(path))
        with tr.span("model.load_checkpoint"):
            loaded = load_checkpoint(str(path))
        round_trips[variant] = (params, loaded)
        with tr.span("propagation.forward"):
            finals = forward(params, bundle)
        for scorer in (("tie", "te") if variant == "split" else ("tie",)):
            report = test_evaluate(finals, city.split, scorer, seed, tr)
            value = rank_and_score(finals, city.truth, range(city.split.n_users),
                                   scorer, tr)
            rows[(variant, scorer)] = (report, value)
        between()
    return rows, logs, round_trips


def check_ablation(logs, round_trips, checks: Checks) -> None:
    for variant, log in logs.items():
        check_losses([r[k] for r in log for k in LOSS_KEYS], f"the {variant} fit",
                     checks)
    for variant, (saved, loaded) in round_trips.items():
        same = saved.dims == loaded.dims and saved.blended == loaded.blended and all(
            a.data.tobytes() == b.data.tobytes()
            for (_, a), (_, b) in zip(saved.named_tensors(), loaded.named_tensors()))
        checks.check(same, f"{variant} checkpoint save -> load changed the tensors")


def quality(rows) -> dict:
    (split_tie, fndcg_tie), (_, fndcg_te) = rows[("split", "tie")], rows[("split", "te")]
    blended_tie = rows[("blended", "tie")][0]
    ratio = lambda a, b: a / b if b else float("inf")
    return {"test_recall20": split_tie.recall[20],
            "recall20_margin": ratio(split_tie.recall[20], blended_tie.recall[20]),
            "fndcg20_tie": fndcg_tie,
            "fndcg20_margin": ratio(fndcg_tie, fndcg_te)}


def ranking(city: City, seed: int, tr: Tracer, between=no_burst):
    """rank-4x's unit, calling ``between`` after each of its four steps."""
    with tr.span("propagation.forward"):
        finals = forward(city.params, city.bundles["split"])
    between()
    test_evaluate(finals, city.split, "tie", seed, tr)
    between()
    for scorer in ("tie", "te"):
        rank_and_score(finals, city.truth, range(city.split.n_users), scorer, tr)
        between()
    return finals


def check_ranking(city: City, finals, seed: int, checks: Checks) -> None:
    """evaluate on a user sample must equal the mean of recall_at_k and
    ndcg_at_k over rank_candidates lists of the same users, exactly."""
    users = sample_users(city.split, CHECK_SAMPLE, seed)
    report = evaluate(finals, sample_split(city.split, users), scorer="tie",
                      target="test", ks=(20,), seed=seed, with_auc=False)
    split = city.split
    recall = ndcg = 0.0
    for u in users:
        exclude = np.concatenate([split.train.user_pois(u), split.val.user_pois(u)])
        ranked = rank_candidates(int(u), finals, "tie", exclude)
        recall += recall_at_k(ranked, split.test.user_pois(u), 20)
        ndcg += ndcg_at_k(ranked, split.test.user_pois(u), 20)
    checks.check(report.recall[20] == recall / len(users),
                 "evaluate recall@20 differs from recall_at_k over rank_candidates")
    checks.check(report.ndcg[20] == ndcg / len(users),
                 "evaluate ndcg@20 differs from ndcg_at_k over rank_candidates")


# -- probes ----------------------------------------------------------------------------


def probe_layers(city: City, params, seed: int, workdir: Path, tr: Tracer,
                 sampled: bool) -> dict:
    """Trace-only measurements outside the workload's own pipeline; with
    ``sampled`` the evaluation ones cover the sampled users only.  Returns
    the computed counts."""
    bundle, n_users = city.bundles["split"], city.split.n_users
    rng = np.random.default_rng(np.random.SeedSequence([seed, READOUT_STREAM]))
    for side, graph, E, R in (("geo", bundle.geo, params.E_g, params.R_g),
                              ("func", bundle.func, params.E_f, params.R_f)):
        readout = rng.normal(size=(E.shape[0] - n_users, E.shape[1]))
        for _ in range(LAYER_REPS):
            X = ad.Tensor(E.data[n_users:], requires_grad=True)
            Rt = ad.Tensor(R.data, requires_grad=True)
            with tr.span(f"propagation.{side}_layer_fwd"):
                out = (graph.layer(X, Rt) * readout).sum()
            with tr.span(f"propagation.{side}_layer_bwd"):
                out.backward()
    geo_sub, func_sub = split_subgraphs(city.kg)
    with tr.span("ukg.build_adjacency"):
        build_adjacency(geo_sub)
        build_adjacency(func_sub)
    with tr.span("propagation.forward"):
        finals = forward(params, bundle)
    # allocation peaks come from calls of their own: tracemalloc slows
    # every allocation, so no timed span runs under it
    step_params = params.copy()
    rng = np.random.default_rng(np.random.SeedSequence([seed, SAMPLE_STREAM, 1]))
    with tr.peak_alloc("propagation.peak_alloc_mb"):
        train_step(step_params, bundle, city.split, rng,
                   AdamState.for_params(step_params))
    eval_split, users = city.split, test_users(city.split)
    if sampled:
        users = sample_users(city.split, EVAL_SAMPLE, seed)
        eval_split = sample_split(city.split, users)
    with tr.peak_alloc("evaluation.peak_alloc_mb"):
        report = evaluate(finals, eval_split, scorer="tie", target="test",
                          ks=(20, 40, 60), seed=seed)
    all_pois = np.arange(city.split.n_pois)
    with tr.span("counterfactual.score_candidates"):
        for u in users:
            score_candidates(finals, int(u), all_pois, "tie")
    path = workdir / "probe_checkpoint.bin"
    with tr.span("model.save_checkpoint"):
        save_checkpoint(params, str(path))
    with tr.span("model.load_checkpoint"):
        load_checkpoint(str(path))
    d = params.dims.d
    return {"propagation.geo_edges": len(bundle.geo.src),
            "propagation.func_edges": len(bundle.func.src),
            "propagation.message_mb": (len(bundle.geo.src) + len(bundle.func.src))
            * d * 8 / 2**20,
            "evaluation.score_matrix_mb":
                report.n_users_evaluated * city.split.n_pois * 8 / 2**20,
            "ukg.triplets": len(city.kg.triplets),
            "model.checkpoint_bytes": path.stat().st_size}


def probe_validation(city: City, params, seed: int, tr: Tracer) -> None:
    users = sample_users(city.split, EVAL_SAMPLE, seed)
    with tr.span("training.val_metric"):
        default_val_metric(params, city.bundles["split"],
                           sample_split(city.split, users), seed)


# -- a run --------------------------------------------------------------------------------


def reference_ablation(scale: float, workdir: Path, tiny: bool, tr: Tracer,
                       rates: Rates, checks: Checks,
                       probe: Probe | None = None) -> tuple[dict, float]:
    """ablate-1x's unit on the fixed reference city (seed 0, ``scale`` times
    the default size), with ``probe`` bursts between its steps.  Returns the
    quality metrics and the unit's time, the bursts left out."""
    seed = REFERENCE_SEED
    city = set_up(city_config(scale, seed, tiny), seed, workdir, Tracer(False),
                  variants=("split", "blended"), with_params=False)
    check_set_up(city, checks)
    spent = probe.spent if probe else 0.0
    t0 = time.perf_counter()
    with tr.span("bench.unit"):
        rows, logs, round_trips = ablation(city, seed, workdir, tr, rates,
                                           probe.burst if probe else no_burst)
    unit_s = time.perf_counter() - t0 - ((probe.spent if probe else 0.0) - spent)
    check_ablation(logs, round_trips, checks)
    values = quality(rows)
    checks.check(all(np.isfinite(v) and v > 0 for v in values.values()),
                 f"quality metrics not finite and positive: {values}")
    return values, unit_s


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
        workdir: Path) -> tuple[dict, list]:
    """Run one workload; returns the result object and a list of notes."""
    tr = Tracer(trace)
    checks = Checks()
    rates = Rates()
    notes = []
    cfg = city_config(SCALES[name], seed, tiny)
    variants = ("split", "blended") if name == "ablate-1x" else ("split",)
    # city-10x's pipeline evaluates nothing, so its evaluation spans are the
    # probe's; elsewhere they are the pipeline's own calls
    probe_tr = tr if name == "city-10x" else Tracer(False)

    setup_s = []
    reps = 2 if tiny else SETUP_REPS[name]
    probe = None
    for rep in range(reps):
        # free the previous city before building the next; its probe, which
        # holds only embeddings and a sample, bursts during this set-up
        city = params = None
        between = probe.burst if probe and not trace else no_burst
        spent = probe.spent if probe else 0.0
        t0 = time.perf_counter()
        # self-time shares cover one pass: the last set-up and the units
        with tr.span("bench.setup" if rep == reps - 1 else "bench.setup_extra"):
            city = set_up(cfg, seed, workdir, tr, variants,
                          with_params=name != "ablate-1x", between=between)
        spent = (probe.spent if probe else 0.0) - spent
        setup_s.append(time.perf_counter() - t0 - spent)
        params = city.params
        if params is None:
            params = init_params(city.dims["split"], seed)
        probe = Probe(city, params, seed, PROBE_USERS[name], PROBE_REPEATS[name],
                      rates, probe_tr)
        with tr.span("bench.probe"):
            probe.burst()

    check_set_up(city, checks)
    if city.poi_shortfall:
        notes.append(f"parse_checkins inferred {city.poi_shortfall} POIs fewer "
                     f"than the graph holds; check-ins rebased onto the graph")

    # the traced run keeps the units whole, so its spans nest as the
    # pipeline's; bursts between units run in both
    between = no_burst if trace else probe.burst
    unit_s = []
    rng = np.random.default_rng(np.random.SeedSequence([seed, SAMPLE_STREAM, 1]))
    state = AdamState.for_params(city.params) if name == "city-10x" else None
    started, spent = time.perf_counter(), probe.spent
    while not unit_s or (time.perf_counter() - started - (probe.spent - spent)
                         + statistics.median(unit_s) <= seconds):
        t0, unit_spent = time.perf_counter(), probe.spent
        with tr.span("bench.unit"):
            if name == "ablate-1x":
                rows, logs, round_trips = ablation(city, seed, workdir, tr, rates,
                                                   between)
            elif name == "rank-4x":
                finals = ranking(city, seed, tr, between)
            else:
                vals = rates.step(city.params, city.bundles["split"],
                                  city.split, rng, state, tr)
        unit_s.append(time.perf_counter() - t0 - (probe.spent - unit_spent))
        if name == "ablate-1x":
            check_ablation(logs, round_trips, checks)
            notes.append("own-seed quality: " + " ".join(
                f"{k}={v:.4f}" for k, v in quality(rows).items()))
        elif name == "rank-4x":
            check_ranking(city, finals, seed, checks)
        else:
            check_losses([vals["total"]], f"training step {len(unit_s)}", checks)
            with tr.span("bench.probe"):
                probe.burst()
    if name == "ablate-1x":
        # the fit log, timings left out: run.py's run_all checks that the
        # traced run's equals the untraced run's
        notes.append("fit log " + json.dumps(
            {variant: [{k: v for k, v in r.items() if k != "wall_time_s"} for r in log]
             for variant, log in logs.items()}))
        # the reference ablation that yields the quality metrics is one more
        # unit of this workload
        values, seconds_taken = reference_ablation(
            1, workdir, tiny, tr, rates, checks, None if trace else probe)
        unit_s.append(seconds_taken)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = statistics.median(setup_s) + statistics.median(unit_s)

    with tr.span("bench.probe"):
        if name == "rank-4x":
            # its pipeline trains nothing, so its last bursts add a training
            # step each; they come after peak_rss_mb, which is evaluation's
            probe.train_steps(city, city.params, seed, tr)
        for _ in range(FINAL_BURSTS[name]):
            probe.burst()
    if probe.losses:
        check_losses(probe.losses, "the training probe", checks)

    if trace:
        params = city.params
        with tr.span("bench.probe"):
            if params is None:
                with tr.span("model.init_params"):
                    params = init_params(city.dims["split"], seed)
            counts = probe_layers(city, params, seed, workdir, tr,
                                  sampled=name == "city-10x")
            if name != "ablate-1x":
                probe_validation(city, params, seed, tr)
        metrics = {f"{n}_s": tr.median_s(n) for n in TIMED_SPANS}
        metrics.update(tr.peaks)
        metrics.update(counts)
        shares = tr.self_shares({"bench.setup", "bench.unit"}, MODULES)
        metrics.update({f"self_pct.{m}": shares[m] for m in MODULES})
        metrics["trace.wall_s"] = wall_s
        units = PER_LAYER
    else:
        if name != "ablate-1x":
            values, _ = reference_ablation(REFERENCE_SCALES[name], workdir, tiny,
                                           Tracer(False), Rates(), checks)
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb,
            "train_triples_per_s": rates.train_triples_per_s(),
            "eval_users_per_s": rates.eval_users_per_s(),
            "fndcg_users_per_s": rates.fndcg_users_per_s(),
            **values,
        }
        units = END_TO_END
    notes.append(f"set-up runs {len(setup_s)}, units {len(unit_s)}, "
                 f"probe calls {len(rates.eval_rates)} of each kind")
    result = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    return result, notes + checks.failures
