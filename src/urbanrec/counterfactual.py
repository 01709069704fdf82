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

score_users scores a block of users against the whole catalog with two
matrix products, U @ P.T and U_g @ P_g.T, so the catalog is read once per
block rather than once per user; the block's memory is a few arrays of
len(users) x n_pois.  The reference score is one dot per user with the
catalog mean that FinalEmbeddings.p_mean computes once, so it has the same
bits in any block.  A block of two or more users goes through BLAS's
matrix-matrix product, a single user through its matrix-vector product,
and the two may round a score differently in the last bit; ranks do not
depend on it short of a near-tie.  All of this is plain numpy used at
inference time only (training scores candidates through the autodiff
path).
"""

from __future__ import annotations

import numpy as np

from .propagation import FinalEmbeddings

SCORERS = ("tie", "te", "y_up")


def score_users(finals: FinalEmbeddings, users, scorer: str) -> np.ndarray:
    """Scores of every POI for each of ``users`` (a list of user ids or a
    slice of them) under a scorer: one row per user, in the order given,
    and POIs in id order."""
    if scorer not in SCORERS:
        raise ValueError(f"unknown scorer {scorer!r}, expected one of {SCORERS}")
    u = finals.u.data[users]
    y_up = u @ finals.p.data.T
    if scorer == "y_up":
        return y_up
    gate = finals.u_g.data[users] @ finals.p_g.data.T
    np.tanh(gate, out=gate)
    if scorer == "te":
        return np.multiply(y_up, gate, out=y_up)
    # one dot per user, stacked, not U @ p_mean: BLAS's matrix-vector
    # product rounds differently from the dot a single user gets, and the
    # reference must not depend on the block a user is scored in
    y_up_ref = (u[:, None, :] @ finals.p_mean[:, None])[:, 0, 0]
    # y_up * gate - y_up_ref * gate, in place
    np.multiply(y_up, gate, out=y_up)
    np.multiply(gate, y_up_ref[:, None], out=gate)
    return np.subtract(y_up, gate, out=y_up)


def score_catalog(finals: FinalEmbeddings, u_index: int,
                  scorer: str) -> np.ndarray:
    """One user's scores of every POI, in POI id order, under a scorer."""
    # a slice views the user's row; a one-id list would copy it, a cost
    # rank_candidates pays on every call
    return score_users(finals, slice(u_index, u_index + 1), scorer)[0]


def score_candidates(finals: FinalEmbeddings, u_index: int,
                     candidates: np.ndarray, scorer: str) -> np.ndarray:
    """Scores of one user's candidate POIs under a scorer."""
    return score_catalog(finals, u_index, scorer)[candidates]
