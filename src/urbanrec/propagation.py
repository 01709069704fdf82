"""Intent-aware graph convolution over the split knowledge graph.

Each layer adds a mean-aggregated message to the previous layer's embedding
(a residual update).  POIs and entities aggregate relation-gated neighbor
embeddings from their subgraph; users aggregate their training check-ins,
gated by a personal attention mix over intents that is computed once from
the layer-0 user embeddings.  The final user/POI embedding is the arithmetic
mean of the geographical and functional chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .interactions import DatasetSplit
from .model import ModelDims, ModelParams, intent_embeddings, user_intent_attention
from .ukg import SubGraph, UrbanKG, blended_subgraph, build_adjacency, \
    split_subgraphs


@dataclass
class PropagationGraph:
    """Edge arrays plus the mean-aggregation matrix for one subgraph.

    Every stored triplet appears twice (forward and inverse) so messages
    reach tails as well as heads; both directions share the relation
    embedding.  ``agg`` is (n_nodes x n_edges) with entry 1/deg(dst) at
    (dst, edge), so agg @ messages is the neighborhood mean with empty
    neighborhoods contributing zero.
    """

    n_nodes: int
    n_pois: int
    src: np.ndarray
    rel: np.ndarray
    agg: sp.csr_matrix
    agg_t: sp.csr_matrix

    @classmethod
    def from_subgraph(cls, sub: SubGraph) -> "PropagationGraph":
        dst, src, rel = build_adjacency(sub)
        n_nodes = sub.n_pois + sub.entity_count
        deg = np.bincount(dst, minlength=n_nodes)
        agg = sp.csr_matrix((1.0 / deg[dst], (dst, np.arange(len(dst)))),
                            shape=(n_nodes, len(dst)))
        return cls(n_nodes, sub.n_pois, src, rel, agg, agg.T.tocsr())

    def layer(self, X: ad.Tensor, R: ad.Tensor) -> ad.Tensor:
        """One residual update of all POI/entity rows."""
        if len(self.src) == 0:
            return X
        msgs = ad.gather(R, self.rel) * ad.gather(X, self.src)
        return X + ad.spmm(self.agg, msgs, self.agg_t)


def _user_aggregation(split: DatasetSplit) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """(n_users x n_pois) matrix with 1/|train positives of u| entries."""
    users, pois = split._train_users, split._train_pois
    deg = np.bincount(users, minlength=split.n_users)
    mat = sp.csr_matrix((1.0 / deg[users], (users, pois)),
                        shape=(split.n_users, split.n_pois))
    return mat, mat.T.tocsr()


@dataclass
class GraphBundle:
    """Everything forward() needs besides the parameters."""

    geo: PropagationGraph
    func: PropagationGraph
    user_agg: sp.csr_matrix
    user_agg_t: sp.csr_matrix
    n_users: int
    n_pois: int
    blended: bool = False


def build_graphs(kg: UrbanKG, split: DatasetSplit,
                 blended: bool = False) -> GraphBundle:
    """Index the KG (split or blended) and the training interactions.

    With ``blended`` both sides propagate over the full 16-relation graph;
    that is the no-disentanglement ablation and changes the expected
    parameter shapes (entity count and relation count equal on both sides).
    """
    if kg.n_pois != split.n_pois:
        raise ValueError(
            f"kg has {kg.n_pois} POIs but interactions have {split.n_pois}")
    if blended:
        geo = func = PropagationGraph.from_subgraph(blended_subgraph(kg))
    else:
        geo, func = map(PropagationGraph.from_subgraph, split_subgraphs(kg))
    user_agg, user_agg_t = _user_aggregation(split)
    return GraphBundle(geo, func, user_agg, user_agg_t,
                       split.n_users, split.n_pois, blended)


def dims_for(kg: UrbanKG, split: DatasetSplit, d: int = 32, n_intents: int = 4,
             n_layers: int = 3, blended: bool = False) -> ModelDims:
    """Model dimensions implied by a dataset and the chosen layout."""
    geo_sub, func_sub = split_subgraphs(kg)
    if blended:
        total = geo_sub.entity_count + func_sub.entity_count
        return ModelDims(split.n_users, split.n_pois, total, total, d=d,
                         n_geo_relations=16, n_func_relations=16,
                         n_intents_geo=n_intents, n_intents_func=n_intents,
                         n_layers=n_layers)
    return ModelDims(split.n_users, split.n_pois,
                     geo_sub.entity_count, func_sub.entity_count, d=d,
                     n_intents_geo=n_intents, n_intents_func=n_intents,
                     n_layers=n_layers)


@dataclass
class FinalEmbeddings:
    """Layer-l user/POI chunks and their fused means."""

    u_g: ad.Tensor
    u_f: ad.Tensor
    p_g: ad.Tensor
    p_f: ad.Tensor
    u: ad.Tensor
    p: ad.Tensor


@dataclass
class LayerTrace:
    """Per-layer states for oracle comparison: lists of (users, kg_nodes)."""

    geo: list
    func: list


def _propagate_side(E: ad.Tensor, S: ad.Tensor, R: ad.Tensor,
                    graph: PropagationGraph, bundle: GraphBundle,
                    n_layers: int, trace: list | None):
    n_users = bundle.n_users
    n_pois = bundle.n_pois
    U = ad.gather(E, np.arange(n_users))
    X = ad.gather(E, np.arange(n_users, E.shape[0]))
    intents = intent_embeddings(S, R)
    beta = user_intent_attention(U, intents)  # fixed at layer 0, reused below
    gate = (beta @ intents.embeddings) * (1.0 / intents.n_intents)
    poi_ids = np.arange(n_pois)
    if trace is not None:
        trace.append((U.data.copy(), X.data.copy()))
    for _ in range(n_layers):
        P_prev = ad.gather(X, poi_ids)
        X_next = graph.layer(X, R)
        U_next = U + ad.spmm(bundle.user_agg, P_prev, bundle.user_agg_t) * gate
        U, X = U_next, X_next
        if trace is not None:
            trace.append((U.data.copy(), X.data.copy()))
    return U, ad.gather(X, poi_ids), intents


def forward(params: ModelParams, bundle: GraphBundle,
            return_trace: bool = False):
    """Run all layers on both sides and fuse.

    Returns FinalEmbeddings, or (FinalEmbeddings, LayerTrace) when tracing.
    The trace holds raw per-layer arrays for oracle tests.
    """
    dims = params.dims
    trace_g: list | None = [] if return_trace else None
    trace_f: list | None = [] if return_trace else None
    u_g, p_g, _ = _propagate_side(params.E_g, params.S_g, params.R_g,
                                  bundle.geo, bundle, dims.n_layers, trace_g)
    u_f, p_f, _ = _propagate_side(params.E_f, params.S_f, params.R_f,
                                  bundle.func, bundle, dims.n_layers, trace_f)
    finals = FinalEmbeddings(u_g, u_f, p_g, p_f,
                             (u_g + u_f) * 0.5, (p_g + p_f) * 0.5)
    if return_trace:
        return finals, LayerTrace(trace_g, trace_f)
    return finals
