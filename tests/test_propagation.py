"""Propagation layer tests against the brute-force oracle."""

import dataclasses

import numpy as np
import pytest

import oracles
from urbanrec import autodiff as ad
from urbanrec import model as md
from urbanrec import propagation as pg
from urbanrec import training as tr
from urbanrec import ukg
from urbanrec.interactions import DatasetSplit, InteractionSet, batch_arrays, \
    sample_bpr_batch, split_dataset
from urbanrec.synthgen import CityConfig, generate_city
from urbanrec.ukg import RELATION_IDS, UrbanKG

LOCATE_AT = RELATION_IDS["LocateAt"]


def all_train_split(n_users, n_pois, pairs) -> DatasetSplit:
    mk = lambda ps: InteractionSet(n_users, n_pois, frozenset(ps))
    return DatasetSplit(mk(pairs), mk(set()), mk(set()))


def random_city_kg(rng, n_pois, pops) -> UrbanKG:
    """Random triplets referencing every class population in ``pops``."""
    triplets = set()

    def add(rel, head, tail_cls):
        triplets.add((RELATION_IDS[rel], head, int(rng.integers(pops[tail_cls]))))

    for p in range(n_pois):
        add("LocateAt", p, "Region")
        add("BrandOf", p, "Brand")
        if rng.random() < 0.5:
            add("BelongTo", p, "BusinessArea")
        if rng.random() < 0.5:
            add("Cate1Of", p, "Cate1")
    for b in range(pops["Brand"]):
        add("Brand2Cate1", b, "Cate1")
    if pops["Region"] >= 2:
        triplets.add((RELATION_IDS["BorderBy"], 0, 1))
    full_pops = {c: 0 for c in ukg.ENTITY_CLASSES}
    full_pops.update({"POI": n_pois, **pops})
    return UrbanKG(sorted(triplets), full_pops)


def to_local_triplets(sub):
    head, rel, tail = sub.local_edges()
    return list(zip(head.tolist(), rel.tolist(), tail.tolist()))


def random_setup(seed, n_users=3, n_pois=4, n_layers=2, n_intents=2, d=5):
    rng = np.random.default_rng(seed)
    pops = {"Region": 2, "BusinessArea": 1, "Brand": 2, "Cate1": 2}
    kg = random_city_kg(rng, n_pois, pops)
    pairs = {(u, int(p)) for u in range(n_users)
             for p in rng.choice(n_pois, size=int(rng.integers(0, n_pois)),
                                 replace=False)}
    split = all_train_split(n_users, n_pois, pairs)
    dims = pg.dims_for(kg, split, d=d, n_intents=n_intents, n_layers=n_layers)
    params = md.init_params(dims, seed=seed)
    bundle = pg.build_graphs(kg, split)
    return kg, split, dims, params, bundle


def oracle_side_states(kg, split, params, side, n_layers):
    geo_sub, func_sub = ukg.split_subgraphs(kg)
    sub = geo_sub if side == "geo" else func_sub
    E = params.E_g.data if side == "geo" else params.E_f.data
    S = params.S_g.data if side == "geo" else params.S_f.data
    R = params.R_g.data if side == "geo" else params.R_f.data
    triplets = to_local_triplets(sub)
    train_pois = [split.train.user_pois(u) for u in range(split.n_users)]
    return oracles.naive_propagation(E, S, R, triplets, train_pois,
                                     split.n_users, n_layers)


def side_states(params, bundle, side):
    """(users, node table) of one side at every depth 0..n_layers: users and
    POIs from forward run to that depth, entity rows from ``graph.layer``
    applied that many times to the layer-0 node table."""
    dims = params.dims
    graph = bundle.geo if side == "geo" else bundle.func
    E, R = (params.E_g, params.R_g) if side == "geo" else (params.E_f, params.R_f)
    X = ad.Tensor(E.data[bundle.n_users:])
    states = []
    for depth in range(dims.n_layers + 1):
        cut = dataclasses.replace(
            params, dims=dataclasses.replace(dims, n_layers=depth))
        finals = pg.forward(cut, bundle)
        U, P = (finals.u_g, finals.p_g) if side == "geo" else \
            (finals.u_f, finals.p_f)
        states.append((U.data, np.vstack([P.data, X.data[graph.n_pois:]])))
        X = graph.layer(X, R)
    return states


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_forward_matches_oracle_every_layer(seed):
    kg, split, dims, params, bundle = random_setup(seed)
    for side in ("geo", "func"):
        got = side_states(params, bundle, side)
        states = oracle_side_states(kg, split, params, side, dims.n_layers)
        assert len(got) == len(states) == dims.n_layers + 1
        for (U_b, X_b), (U_o, X_o) in zip(got, states):
            np.testing.assert_allclose(U_b, U_o, atol=1e-10)
            np.testing.assert_allclose(X_b, X_o, atol=1e-10)


def test_zero_layers_is_identity():
    kg, split, dims, params, bundle = random_setup(7, n_layers=0)
    finals = pg.forward(params, bundle)
    N, M = split.n_users, split.n_pois
    np.testing.assert_array_equal(finals.u_g.data, params.E_g.data[:N])
    np.testing.assert_array_equal(finals.p_f.data, params.E_f.data[N:N + M])
    np.testing.assert_allclose(
        finals.u.data, (params.E_g.data[:N] + params.E_f.data[:N]) / 2.0)


def test_zero_messages_identity():
    # zero relation embeddings kill KG messages; intent embeddings also
    # become zero so user updates vanish too
    kg, split, dims, params, bundle = random_setup(8)
    params.R_g.data[:] = 0.0
    params.R_f.data[:] = 0.0
    finals = pg.forward(params, bundle)
    N, M = split.n_users, split.n_pois
    np.testing.assert_allclose(finals.u_g.data, params.E_g.data[:N], atol=1e-15)
    np.testing.assert_allclose(finals.p_g.data, params.E_g.data[N:N + M],
                               atol=1e-15)


def test_isolated_poi_unchanged():
    # poi 3 appears in no KG triplet: its chunk only changes via nothing
    kg = UrbanKG([(LOCATE_AT, 0, 0)],
                 {"POI": 4, "Region": 1, "BusinessArea": 0, "Brand": 0,
                  "Cate1": 0, "Cate2": 0, "Cate3": 0})
    split = all_train_split(2, 4, {(0, 0)})
    dims = pg.dims_for(kg, split, d=4, n_intents=2, n_layers=3)
    params = md.init_params(dims, seed=0)
    bundle = pg.build_graphs(kg, split)
    finals = pg.forward(params, bundle)
    N = split.n_users
    np.testing.assert_array_equal(finals.p_g.data[3], params.E_g.data[N + 3])
    # user 1 has no positives: unchanged on both sides
    np.testing.assert_array_equal(finals.u_g.data[1], params.E_g.data[1])
    np.testing.assert_array_equal(finals.u_f.data[1], params.E_f.data[1])


def test_single_neighbor_identity_relation():
    # one POI, one region, relation embedding all ones: p' = p + v
    kg = UrbanKG([(LOCATE_AT, 0, 0)],
                 {"POI": 1, "Region": 1, "BusinessArea": 0, "Brand": 0,
                  "Cate1": 0, "Cate2": 0, "Cate3": 0})
    split = all_train_split(1, 1, set())
    dims = pg.dims_for(kg, split, d=3, n_intents=1, n_layers=1)
    params = md.init_params(dims, seed=1)
    params.R_g.data[:] = 1.0
    bundle = pg.build_graphs(kg, split)
    finals = pg.forward(params, bundle)
    N = 1
    p0 = params.E_g.data[N + 0]
    v0 = params.E_g.data[N + 1]
    np.testing.assert_allclose(finals.p_g.data[0], p0 + v0, atol=1e-12)


def test_user_single_positive_single_intent_collapse():
    # |I|=1, beta=1, one positive: u' = u + e ⊙ p; with R rows averaging to
    # ones e=1 so u' = u + p
    kg = UrbanKG([(LOCATE_AT, 0, 0)],
                 {"POI": 1, "Region": 1, "BusinessArea": 0, "Brand": 0,
                  "Cate1": 0, "Cate2": 0, "Cate3": 0})
    split = all_train_split(1, 1, {(0, 0)})
    dims = pg.dims_for(kg, split, d=3, n_intents=1, n_layers=1)
    params = md.init_params(dims, seed=2)
    params.R_g.data[:] = 1.0
    params.R_f.data[:] = 1.0
    bundle = pg.build_graphs(kg, split)
    finals = pg.forward(params, bundle)
    u0 = params.E_g.data[0]
    p0 = params.E_g.data[1]
    np.testing.assert_allclose(finals.u_g.data[0], u0 + p0, atol=1e-12)


def test_fusion_exactness():
    kg, split, dims, params, bundle = random_setup(11)
    finals = pg.forward(params, bundle)
    np.testing.assert_array_equal(finals.u.data,
                                  (finals.u_g.data + finals.u_f.data) / 2.0)
    np.testing.assert_array_equal(finals.p.data,
                                  (finals.p_g.data + finals.p_f.data) / 2.0)


def test_locality_on_path_graph():
    # chain p0 - r0 - r1 - r2 - r3; with l layers a perturbation l+1 hops
    # away cannot reach p0
    border_by = RELATION_IDS["BorderBy"]
    chain = [(LOCATE_AT, 0, 0), (border_by, 0, 1), (border_by, 1, 2),
             (border_by, 2, 3)]
    pops = {"POI": 1, "Region": 4, "BusinessArea": 0, "Brand": 0,
            "Cate1": 0, "Cate2": 0, "Cate3": 0}
    split = all_train_split(1, 1, set())
    n_layers = 2
    kg = UrbanKG(chain, pops)
    dims = pg.dims_for(kg, split, d=4, n_intents=1, n_layers=n_layers)
    bundle = pg.build_graphs(kg, split)
    base = md.init_params(dims, seed=3)
    poked = base.copy()
    # region 3 is 4 hops from p0 > n_layers, perturb it
    poked.E_g.data[1 + 1 + 3] += 10.0
    f_base = pg.forward(base, bundle)
    f_poked = pg.forward(poked, bundle)
    np.testing.assert_array_equal(f_base.p_g.data[0], f_poked.p_g.data[0])
    # region 1 is 2 hops away = n_layers, perturbing it must reach p0
    poked2 = base.copy()
    poked2.E_g.data[1 + 1 + 1] += 10.0
    f_poked2 = pg.forward(poked2, bundle)
    assert np.abs(f_poked2.p_g.data[0] - f_base.p_g.data[0]).max() > 1e-9


def test_blended_bundle_uses_full_graph_on_both_sides():
    kg, split, dims, params, bundle = random_setup(12)
    blend = pg.build_graphs(kg, split, blended=True)
    assert blend.blended
    assert blend.geo is blend.func
    n_triplets = len(kg.triplets)
    assert blend.geo.src.shape[0] == 2 * n_triplets
    bdims = pg.dims_for(kg, split, d=5, n_intents=2, n_layers=2, blended=True)
    assert bdims.n_geo_relations == bdims.n_func_relations == 16
    assert bdims.n_geo_entities == bdims.n_func_entities
    bparams = md.init_params(bdims, seed=0, blended=True)
    finals = pg.forward(bparams, blend)
    assert finals.u.data.shape == (split.n_users, 5)


def test_graph_bundle_poi_count_mismatch():
    kg = UrbanKG([(LOCATE_AT, 0, 0)])
    split = all_train_split(1, 5, {(0, 0)})
    with pytest.raises(ValueError):
        pg.build_graphs(kg, split)


def test_gradients_flow_through_propagation():
    kg, split, dims, params, bundle = random_setup(13)
    params = params.leaves()
    finals = pg.forward(params, bundle)
    loss = (finals.u * finals.u).sum() + (finals.p * finals.p).sum()
    loss.backward()
    for name in ("E_g", "E_f", "R_g", "R_f", "S_g", "S_f"):
        g = getattr(params, name).grad
        assert g is not None, name
        assert np.all(np.isfinite(g)), name
    # S gets gradient through beta and intent embeddings
    assert np.abs(params.S_g.grad).max() > 0.0


def test_layer_takes_the_side_relation_table():
    kg, split, dims, params, bundle = random_setup(14)
    blend = pg.build_graphs(kg, split, blended=True)
    for graph, n_rel in ((bundle.geo, 5), (bundle.func, 11), (blend.geo, 16)):
        assert (graph.op.n_rel, graph.op.n) == (n_rel, graph.n_nodes)
        assert len(graph.op.rel_ptr) == n_rel + 1
    X = ad.Tensor(params.E_g.data[split.n_users:])
    with pytest.raises(ValueError):
        bundle.geo.layer(X, params.R_f)
    with pytest.raises(ValueError):
        bundle.geo.layer(X, ad.Tensor(np.ones((16, dims.d))))


@pytest.mark.parametrize("side", ["geo", "func", "blended"])
def test_relational_operator_keeps_non_empty_rows_in_stacked_order(side):
    kg, _, _ = generate_city(CityConfig(seed=0))
    geo, func = ukg.split_subgraphs(kg)
    sub = {"geo": geo, "func": func, "blended": ukg.blended_subgraph(kg)}[side]
    dst, src, rel = ukg.build_adjacency(sub)
    op = pg.PropagationGraph.from_subgraph(
        sub, all_train_split(1, kg.n_pois, set())).op
    n, m = op.n, op.rows.shape[0]
    pairs = np.unique(np.stack([rel, dst], axis=1), axis=0)  # sorted (rel, dst)
    assert m == len(pairs) == len(op.row_dst)
    row_rel = np.repeat(np.arange(op.n_rel), np.diff(op.rel_ptr))
    assert np.array_equal(np.stack([row_rel, op.row_dst], axis=1), pairs)
    assert len(op.rel_ptr) == sub.n_relations + 1
    assert op.rel_ptr[0] == 0 and op.rel_ptr[-1] == m
    assert np.all(np.diff(op.rel_ptr) >= 0)
    # one node more than the graph uses: it has no in-edge, so its row is 0
    wide = ad.RelationalOperator.from_edges(dst, src, rel, op.n_rel, n + 1)
    x = np.random.default_rng(0).normal(size=(n + 1, 4))
    out = ad.relational_spmm(wide, x, np.ones((op.n_rel, 4))).data
    assert np.array_equal(out[n], np.zeros(4))
    assert np.all(np.abs(out[:n]).sum(axis=1) > 0)


def _default_city_tape():
    """A training step's tape on the default city, and its graphs."""
    kg, iset, _ = generate_city(CityConfig(seed=0))
    split = split_dataset(iset, (0.8, 0.1, 0.1), seed=0)
    bundle = pg.build_graphs(kg, split)
    dims = pg.dims_for(kg, split)
    params = md.init_params(dims, seed=0)
    batch = sample_bpr_batch(split, 1024, np.random.default_rng(0))
    _, breakdown = tr.backward(params, bundle, *batch_arrays(batch),
                               tr.HyperParams())
    seen, stack, nodes = set(), [breakdown.total], []
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node._parents)
    return nodes, bundle, dims


def test_training_tape_holds_no_per_edge_array():
    nodes, bundle, _ = _default_city_tape()
    edge_counts = {len(bundle.geo.src), len(bundle.func.src)}
    assert min(edge_counts) > 1024  # no batch array can collide
    rows_on_tape = {node.shape[0] for node in nodes if node.ndim}
    assert len(nodes) > 100
    assert not rows_on_tape & edge_counts


def test_training_tape_slices_rows_only_outside_the_layers():
    # per side: users and node table cut from E, and the last layer's POIs;
    # plus one slice per intent in the independence loss.  No layer cuts.
    nodes, _, dims = _default_city_tape()
    slices = [n for n in nodes
              if n._bwd is not None and n._bwd.__qualname__.startswith("rows.")]
    assert dims.n_layers == 3
    assert len(slices) == 2 * 3 + dims.n_intents_geo + dims.n_intents_func == 14


@pytest.mark.parametrize("blended", [False, True])
def test_user_aggregation_reads_the_side_node_table(blended):
    kg, _, _, _, _ = random_setup(15, n_pois=6)
    split = all_train_split(4, 6, {(0, 0), (0, 3), (0, 5), (2, 1), (3, 1)})
    bundle = pg.build_graphs(kg, split, blended=blended)
    for graph in (bundle.geo, bundle.func):
        agg = graph.user_agg
        assert agg.shape == (split.n_users, graph.n_nodes)
        assert graph.n_nodes > graph.n_pois
        assert agg[:, graph.n_pois:].nnz == 0
        assert (graph.user_agg_t != agg.T).nnz == 0
        sums = np.asarray(agg.sum(axis=1)).ravel()
        np.testing.assert_allclose(sums, [1.0, 0.0, 1.0, 1.0], rtol=1e-15)
