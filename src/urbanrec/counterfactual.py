"""Counterfactual scoring: strip the rank boost a POI gets from geography.

A candidate's factual score fuses its overall match y_up with a geographical
gate tanh(y_ug).  Ranking by that score rewards venues that merely sit where
the user already goes.  The debiased score subtracts the counterfactual
world where the POI carries no characteristics of its own (its match score
replaced by the user's reference score over the whole catalog), keeping the
geographical gate:

    tie = y_up * tanh(y_ug) - y_up_ref * tanh(y_ug)
        = (y_up - y_up_ref) * tanh(y_ug)

The total-effect variant keeps the factual fusion and subtracts the fully
averaged world, whose gate tanh(0) kills the term, so te == y_fused and TE
ranking equals factual-fusion ranking.

One user is scored against the whole catalog with two matrix-vector
products, P @ u and P_g @ u_g, and the reference score reads the catalog
mean that FinalEmbeddings.p_mean computes once.  All of this is plain
numpy used at inference time only (training scores candidates through the
autodiff path).
"""

from __future__ import annotations

import numpy as np

from .propagation import FinalEmbeddings

SCORERS = ("tie", "te", "y_up")


def score_catalog(finals: FinalEmbeddings, u_index: int,
                  scorer: str) -> np.ndarray:
    """One user's scores of every POI, in POI id order, under a scorer."""
    if scorer not in SCORERS:
        raise ValueError(f"unknown scorer {scorer!r}, expected one of {SCORERS}")
    y_up = finals.p.data @ finals.u.data[u_index]
    if scorer == "y_up":
        return y_up
    gate = np.tanh(finals.p_g.data @ finals.u_g.data[u_index])
    if scorer == "te":
        return y_up * gate
    y_up_ref = float(finals.u.data[u_index] @ finals.p_mean)
    return y_up * gate - y_up_ref * gate


def score_candidates(finals: FinalEmbeddings, u_index: int,
                     candidates: np.ndarray, scorer: str) -> np.ndarray:
    """Scores of one user's candidate POIs under a scorer."""
    return score_catalog(finals, u_index, scorer)[candidates]
