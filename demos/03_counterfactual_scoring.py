"""
Counterfactual scoring, taken apart
===================================

The factual score of a candidate fuses its overall match y_up with a
geographical gate tanh(y_ug).  That fusion is exactly what makes a
recommender geography-greedy: a mediocre venue in the user's neighborhood
outscores a great venue two districts over, and a venue the user would
actively dislike in a region they avoid multiplies two negatives into a
positive score.  The debiased score subtracts a counterfactual world in
which the venue keeps its geography but loses its own characteristics - its
match score replaced by the user's catalog-wide reference - leaving

    tie = (y_up - reference) * tanh(y_ug)

This script trains a model on a confounded city and dissects both rankings
for one user.  Expect about a minute.
"""

import numpy as np

from urbanrec.counterfactual import score_candidates, score_catalog
from urbanrec.evaluation import rank_candidates
from urbanrec.interactions import split_dataset
from urbanrec.propagation import build_graphs, dims_for, forward
from urbanrec.synthgen import CityConfig, generate_city
from urbanrec.training import HyperParams, fit

###############################################################################
# Train on a city with a strong planted confounder.

cfg = CityConfig(n_users=500, n_pois=2000, geo_strength=5.0, seed=2)
kg, checkins, truth = generate_city(cfg)
split = split_dataset(checkins, (0.8, 0.1, 0.1), seed=2)
bundle = build_graphs(kg, split)
dims = dims_for(kg, split, d=32, n_intents=4, n_layers=3)
print("training...")
params, _ = fit(split, bundle, dims, HyperParams(), seed=2)
finals = forward(params, bundle)

###############################################################################
# The reference is the user's average match over the whole catalog - the
# score a venue would get if it were "nothing in particular".  On this city
# it sits clearly below zero for nearly everyone, and the closed form holds
# to machine precision.

refs = finals.u.data @ finals.p_mean
print(f"reference scores: mean {refs.mean():+.3f}, "
      f"{(refs < 0).mean():.0%} of users negative")

candidates = np.arange(split.n_pois)
worst = 0.0
for u in range(split.n_users):
    y_up = score_candidates(finals, u, candidates, "y_up")
    tie = score_candidates(finals, u, candidates, "tie")
    y_ug = finals.p_g.data @ finals.u_g.data[u]
    closed = (y_up - refs[u]) * np.tanh(y_ug)
    worst = max(worst, float(np.abs(tie - closed).max()))
print(f"max |tie - closed form| over every user and candidate: {worst:.2e}")

###############################################################################
# The factual ranking's blind spot, in aggregate.  A venue with negative
# match in a region with negative gate multiplies out positive, so the
# total effect hands free top-20 spots to venues the user would dislike in
# places they avoid.  With a negative reference the debiased score lifts
# every match before gating, and that junk loses its free ride.

empty = np.array([], dtype=np.int64)
junk_te = junk_tie = 0
dirtiest, dirtiest_count = 0, -1
for u in range(split.n_users):
    y_up = score_candidates(finals, u, candidates, "y_up")
    gate = np.tanh(finals.p_g.data @ finals.u_g.data[u])
    for scorer, bucket in (("te", "te"), ("tie", "tie")):
        top = rank_candidates(u, finals, scorer, empty)[:20]
        count = int(((y_up[top] < 0) & (gate[top] < 0)).sum())
        if bucket == "te":
            junk_te += count
            if count > dirtiest_count:
                dirtiest, dirtiest_count = u, count
        else:
            junk_tie += count
print(f"\nnegative-match x negative-gate venues inside top-20 lists "
      f"(all {split.n_users} users):")
print(f"  total effect: {junk_te}    debiased: {junk_tie}")

###############################################################################
# The user with the most polluted factual top-20, dissected.

user = dirtiest
y_up = score_candidates(finals, user, candidates, "y_up")
y_ug = finals.p_g.data @ finals.u_g.data[user]
print(f"\nuser {user}: home region {truth.home_region[user]}, "
      f"reference {refs[user]:+.3f}")
for name, scorer in (("total effect", "te"), ("debiased", "tie")):
    top = rank_candidates(user, finals, scorer, empty)[:10]
    home = truth.poi_region[top] == truth.home_region[user]
    junk = (y_up[top] < 0) & (np.tanh(y_ug[top]) < 0)
    print(f"top-10 by {name}: {top.tolist()}")
    print(f"  at home: {int(home.sum())}/10, "
          f"negative match x negative gate: {int(junk.sum())}/10")

###############################################################################
# One pair, read off the catalog scorers.  The total effect is the factual
# fusion y_up * tanh(y_ug), and the debiased score removes from it the
# geographical share nde = te - tie, the reference gated by the same tanh.

poi = int(rank_candidates(user, finals, "tie", empty)[0])
te = score_catalog(finals, user, "te")[poi]
tie = score_catalog(finals, user, "tie")[poi]
print(f"\npair (user {user}, poi {poi}):")
print(f"  match {y_up[poi]:+.3f}, gate input {y_ug[poi]:+.3f}, "
      f"reference {refs[user]:+.3f}")
print(f"  factual fused {y_up[poi] * np.tanh(y_ug[poi]):+.4f} = "
      f"total effect {te:+.4f}")
print(f"  geographical share removed {te - tie:+.4f}")
print(f"  debiased {tie:+.4f}")
