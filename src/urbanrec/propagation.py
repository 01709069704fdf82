"""Intent-aware graph convolution over the split knowledge graph.

Each layer adds a mean-aggregated message to the previous layer's embedding
(a residual update).  POIs and entities aggregate relation-gated neighbor
embeddings from their subgraph; users aggregate their training check-ins
straight from that side's node table, gated by a personal attention mix over
intents computed once from the layer-0 user embeddings.  The final user/POI
embedding is the arithmetic mean of the geographical and functional chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import autodiff as ad
from .interactions import DatasetSplit
from .model import ModelDims, ModelParams, intent_embeddings, user_intent_attention
from .ukg import SubGraph, UrbanKG, blended_subgraph, build_adjacency, \
    split_subgraphs


@dataclass
class PropagationGraph:
    """Relation-gated mean aggregation over one subgraph.

    Every stored triplet appears twice (forward and inverse) so messages
    reach tails as well as heads; both directions share the relation
    embedding.  ``op`` holds the per-relation mean-aggregation blocks over
    the side's whole relation table, kept to their non-empty (relation,
    node) rows in (relation, destination) order; gated by their relation
    rows the blocks add up to the neighborhood mean of the messages, with
    empty neighborhoods contributing zero.  ``src`` keeps one entry per
    directed edge.  ``user_agg`` (users x nodes, empty entity columns)
    averages each user's train POIs; ``user_agg_t`` is its CSR transpose.
    """

    n_nodes: int
    n_pois: int
    src: np.ndarray
    op: ad.RelationalOperator
    user_agg: sp.csr_matrix
    user_agg_t: sp.csr_matrix

    @classmethod
    def from_subgraph(cls, sub: SubGraph, split: DatasetSplit) -> "PropagationGraph":
        dst, src, rel = build_adjacency(sub)
        n_nodes = sub.n_pois + sub.entity_count
        users, pois = split.train.ids.T
        deg = np.bincount(users, minlength=split.n_users)
        user_agg = sp.csr_matrix((1.0 / deg[users], (users, pois)),
                                 shape=(split.n_users, n_nodes))
        return cls(n_nodes, sub.n_pois, src, ad.RelationalOperator.from_edges(
            dst, src, rel, sub.n_relations, n_nodes), user_agg,
            user_agg.T.tocsr())

    def layer(self, X: ad.Tensor, R: ad.Tensor) -> ad.Tensor:
        """One residual update of all POI/entity rows; ``R`` is this side's
        relation table (ValueError for another size)."""
        return X + ad.relational_spmm(self.op, X, R)


@dataclass
class GraphBundle:
    """Everything forward() needs besides the parameters: one graph per
    side (the same object on both when blended)."""

    geo: PropagationGraph
    func: PropagationGraph
    n_users: int
    blended: bool = False


def side_subgraphs(kg: UrbanKG, blended: bool = False) -> tuple[SubGraph, SubGraph]:
    """The (geographical, functional) subgraphs the two sides propagate over:
    the split pair, or with ``blended`` the full 16-relation graph on both."""
    if blended:
        sub = blended_subgraph(kg)
        return sub, sub
    return split_subgraphs(kg)


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
    geo_sub, func_sub = side_subgraphs(kg, blended)
    geo = PropagationGraph.from_subgraph(geo_sub, split)
    func = geo if func_sub is geo_sub else \
        PropagationGraph.from_subgraph(func_sub, split)
    return GraphBundle(geo, func, split.n_users, blended)


def dims_for(kg: UrbanKG, split: DatasetSplit, d: int = 32, n_intents: int = 4,
             n_layers: int = 3, blended: bool = False) -> ModelDims:
    """Model dimensions implied by a dataset and the chosen layout."""
    geo, func = side_subgraphs(kg, blended)
    return ModelDims(split.n_users, split.n_pois, geo.entity_count,
                     func.entity_count, d=d, n_geo_relations=geo.n_relations,
                     n_func_relations=func.n_relations, n_intents_geo=n_intents,
                     n_intents_func=n_intents, n_layers=n_layers)


@dataclass
class FinalEmbeddings:
    """Layer-l user/POI chunks and their fused means."""

    u_g: ad.Tensor
    u_f: ad.Tensor
    p_g: ad.Tensor
    p_f: ad.Tensor
    u: ad.Tensor
    p: ad.Tensor

    @cached_property
    def p_mean(self) -> np.ndarray:
        """The catalog-average fused POI embedding, the counterfactual
        reference every user's tie score subtracts."""
        return self.p.data.mean(axis=0)


def _propagate_side(E: ad.Tensor, S: ad.Tensor, R: ad.Tensor,
                    graph: PropagationGraph, n_users: int, n_layers: int):
    U = ad.rows(E, 0, n_users)
    X = ad.rows(E, n_users, E.shape[0])
    intents = intent_embeddings(S, R)
    beta = user_intent_attention(U, intents)  # fixed at layer 0, reused below
    gate = (beta @ intents.embeddings) * (1.0 / intents.n_intents)
    for _ in range(n_layers):
        U, X = U + ad.spmm(graph.user_agg, X, graph.user_agg_t) * gate, \
            graph.layer(X, R)
    return U, ad.rows(X, 0, graph.n_pois)


def forward(params: ModelParams, bundle: GraphBundle) -> FinalEmbeddings:
    """Run ``params.dims.n_layers`` layers on both sides and average the
    last layer's chunks into the fused rows."""
    n_layers = params.dims.n_layers
    u_g, p_g = _propagate_side(params.E_g, params.S_g, params.R_g, bundle.geo,
                               bundle.n_users, n_layers)
    u_f, p_f = _propagate_side(params.E_f, params.S_f, params.R_f, bundle.func,
                               bundle.n_users, n_layers)
    return FinalEmbeddings(u_g, u_f, p_g, p_f,
                           (u_g + u_f) * 0.5, (p_g + p_f) * 0.5)
