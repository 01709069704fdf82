"""Synthetic city tests: schema, determinism, the confounder dial, and the
functional ranking oracle."""

import math

import numpy as np
import pytest

import oracles
from urbanrec import synthgen as sg
from urbanrec import ukg


SMALL = dict(n_users=40, n_pois=120, n_regions=9, n_business_areas=12,
             n_brands=24, n_cate1=3, n_cate2=6, n_cate3=12,
             interactions_per_user=10)


def small_city(**overrides):
    return sg.generate_city(sg.CityConfig(**{**SMALL, **overrides}))


def test_config_validation():
    with pytest.raises(sg.InfeasibleConfig):
        sg.CityConfig(n_users=0)
    with pytest.raises(sg.InfeasibleConfig):
        sg.CityConfig(geo_strength=-0.5)
    with pytest.raises(sg.InfeasibleConfig):
        sg.CityConfig(n_pois=10, interactions_per_user=11)


POI_RELATIONS = ("LocateAt", "BelongTo", "BrandOf", "Cate1Of", "Cate2Of", "Cate3Of")


def rows_of(kg, name):
    """(heads, tails) of every triplet of one relation."""
    rows = kg.triplets[kg.triplets[:, 0] == ukg.RELATION_IDS[name]]
    return rows[:, 1], rows[:, 2]


def tail_of(kg, name) -> dict:
    """Head index -> tail index for a relation with one row per head."""
    heads, tails = rows_of(kg, name)
    return dict(zip(heads.tolist(), tails.tolist()))


def poi_records(kg) -> dict:
    """POI -> {relation: tail index} over the relations POIs head."""
    by_poi = {}
    for name in POI_RELATIONS:
        for p, tail in tail_of(kg, name).items():
            by_poi.setdefault(p, {})[name] = tail
    return by_poi


def test_every_poi_has_exactly_six_triplets():
    kg, _, _ = small_city()
    poi_headed = [ukg.RELATION_IDS[n] for n, r in ukg.RELATIONS.items()
                  if r.head_class == "POI"]
    heads = kg.triplets[np.isin(kg.triplets[:, 0], poi_headed), 1]
    per_poi = np.bincount(heads)
    assert len(per_poi) == 120 and np.all(per_poi == 6)
    want = set(POI_RELATIONS)
    assert {ukg.RELATION_IDS[n] for n in want} == set(poi_headed)
    for name in want:
        assert np.all(np.bincount(rows_of(kg, name)[0], minlength=120) == 1)


def test_kg_passes_schema_validation_and_splits():
    kg, _, _ = small_city()
    # construction already validates; check the split partitions cleanly
    geo, func = ukg.split_subgraphs(kg)
    assert len(geo.triplets) + len(func.triplets) == len(kg.triplets)
    assert kg.populations["POI"] == 120
    assert kg.populations["Brand"] == 24


def test_region_grid_adjacency():
    # 9 regions on a 3x3 grid: 12 borders, diag+straight distance-2 pairs
    kg, _, _ = small_city()
    borders = list(zip(*rows_of(kg, "BorderBy")))
    nears = list(zip(*rows_of(kg, "NearBy")))
    assert len(borders) == 12
    for a, b in borders:
        assert sg.region_distance(a, b, 3) == 1
        assert a < b
    for a, b in nears:
        assert sg.region_distance(a, b, 3) == 2


def test_category_hierarchy_consistent():
    kg, _, _ = small_city()
    parent2 = tail_of(kg, "SubCate_3to2")
    parent1 = tail_of(kg, "SubCate_2to1")
    flat = tail_of(kg, "SubCate_3to1")
    for c3, c2 in parent2.items():
        assert flat[c3] == parent1[c2]
    for recs in poi_records(kg).values():
        assert parent2[recs["Cate3Of"]] == recs["Cate2Of"]
        assert parent1[recs["Cate2Of"]] == recs["Cate1Of"]


def test_poi_region_matches_business_area():
    kg, _, gt = small_city()
    ba_region = tail_of(kg, "BaServe")
    for p, recs in poi_records(kg).items():
        assert recs["LocateAt"] == ba_region[recs["BelongTo"]]
        assert gt.poi_region[p] == recs["LocateAt"]


def test_brand_independent_of_region():
    # residue-based placement must not leak into brand assignment
    kg, _, _ = small_city()
    brands_per_region = {}
    for recs in poi_records(kg).values():
        brands_per_region.setdefault(recs["LocateAt"], set()).add(recs["BrandOf"])
    # every region should see many distinct brands, not a fixed residue class
    assert all(len(bs) > 5 for bs in brands_per_region.values())


def test_interaction_counts():
    _, iset, _ = small_city()
    assert iset.n_users == 40
    assert iset.n_pois == 120
    assert len(iset.pairs) == 40 * 10  # without replacement, no collisions
    for u in range(40):
        assert len(iset.by_user[u]) == 10


def test_determinism_byte_identical():
    kg1, i1, g1 = small_city(seed=5)
    kg2, i2, g2 = small_city(seed=5)
    from urbanrec.interactions import serialize_checkins
    assert ukg.serialize_triplets(kg1) == ukg.serialize_triplets(kg2)
    assert serialize_checkins(i1) == serialize_checkins(i2)
    assert sg.serialize_ground_truth(g1) == sg.serialize_ground_truth(g2)


def test_different_seed_different_city():
    _, i1, g1 = small_city(seed=5)
    _, i2, g2 = small_city(seed=6)
    assert i1.pairs != i2.pairs
    assert not np.array_equal(g1.taste, g2.taste)


def test_ground_truth_round_trip():
    _, _, gt = small_city(seed=9, geo_strength=2.5)
    back = sg.parse_ground_truth(sg.serialize_ground_truth(gt))
    assert back.config == gt.config
    assert np.array_equal(back.taste, gt.taste)
    assert np.array_equal(back.attr, gt.attr)
    assert np.array_equal(back.home_region, gt.home_region)
    assert np.array_equal(back.poi_region, gt.poi_region)


def test_ground_truth_parse_rejects_garbage():
    with pytest.raises(ValueError):
        sg.parse_ground_truth("no header\n")
    _, _, gt = small_city()
    text = sg.serialize_ground_truth(gt) + "mystery 0 1\n"
    with pytest.raises(ValueError):
        sg.parse_ground_truth(text)


def test_confounder_dial_monotone():
    rates = []
    for gamma in (0.0, 1.0, 5.0, 10.0):
        _, iset, gt = small_city(geo_strength=gamma, seed=1)
        rates.append(sg.same_region_rate(iset, gt))
    assert all(b >= a for a, b in zip(rates, rates[1:]))
    # the small city keeps a little cross-town traffic even at gamma=10:
    # broadly popular venues pull visitors out of their home region
    assert rates[-1] >= 0.75


def test_default_city_gamma10_concentrates_at_home():
    _, iset, gt = sg.generate_city(sg.CityConfig(geo_strength=10.0))
    assert sg.same_region_rate(iset, gt) >= 0.9


def test_gamma_zero_selection_is_pure_functional():
    # with the confounder off, the per-user draw must be reproducible from
    # taste and attributes alone; homes never enter the weights
    cfg = sg.CityConfig(**{**SMALL, "geo_strength": 0.0, "seed": 4})
    _, iset, gt = sg.generate_city(cfg)
    for u in (0, 7, 23):
        w = gt.taste[u] @ gt.attr.T
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, sg.INTERACT_STREAM, u]))
        keys = -np.logaddexp(0.0, -w) + rng.gumbel(size=cfg.n_pois)
        want = set(np.argsort(-keys)[:cfg.interactions_per_user].tolist())
        assert set(iset.by_user[u].tolist()) == want


def test_proximity_deficit_form():
    assert sg.proximity(0) == 0.0
    assert sg.proximity(1) == -1.0
    assert sg.proximity(50) == pytest.approx(-100.0 / 51.0)
    # farther is always less attractive
    vals = [sg.proximity(d) for d in range(8)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_latent_scale_keeps_affinity_unit_order():
    for latent_dim in (2, 8, 32):
        _, _, gt = small_city(latent_dim=latent_dim, seed=2)
        aff = gt.affinity()
        assert 0.2 < aff.std() < 5.0


def test_functional_positives_quantile():
    _, _, gt = small_city()
    pos = gt.functional_positives(3, fraction=0.05)
    assert len(pos) == math.ceil(0.05 * 120)
    aff = gt.taste[3] @ gt.attr.T
    worst_in = min(aff[p] for p in pos)
    best_out = max(aff[p] for p in range(120) if p not in pos)
    assert worst_in >= best_out


def test_functional_ndcg_oracle_scorer_is_one():
    _, _, gt = small_city()
    ranked = {}
    for u in range(gt.config.n_users):
        aff = gt.taste[u] @ gt.attr.T
        ranked[u] = np.lexsort((np.arange(len(aff)), -aff))
    assert sg.functional_ndcg(ranked, gt, k=10) == 1.0


def test_functional_ndcg_reversed_oracle_below_random():
    _, _, gt = small_city()
    ranked = {}
    for u in range(gt.config.n_users):
        aff = gt.taste[u] @ gt.attr.T
        ranked[u] = np.lexsort((np.arange(len(aff)), -aff))[::-1]
    reversed_score = sg.functional_ndcg(ranked, gt, k=10)
    q = math.ceil(0.05 * 120)
    random_baseline = (q / 120) * sum(
        1.0 / np.log2(r + 1) for r in range(1, 11)) / sum(
        1.0 / np.log2(r + 1) for r in range(1, q + 1))
    assert reversed_score < random_baseline


def test_functional_ndcg_random_scorer_matches_expectation():
    # analytic mean of binary NDCG under a uniform random permutation:
    # each of the first K ranks is a positive with probability q/M
    _, _, gt = small_city()
    q = math.ceil(0.05 * 120)
    k = 10
    weights = [1.0 / np.log2(r + 1) for r in range(1, k + 1)]
    idcg = sum(1.0 / np.log2(r + 1) for r in range(1, q + 1))
    expect = (q / 120) * sum(weights) / idcg
    rng = np.random.default_rng(12)
    total = 0.0
    n_draws = 10_000
    for i in range(n_draws):
        ranked = {0: rng.permutation(120)}
        total += sg.functional_ndcg(ranked, gt, k=k)
    assert abs(total / n_draws - expect) < 5e-3


def test_functional_ndcg_matches_naive_oracle():
    _, _, gt = small_city()
    rng = np.random.default_rng(3)
    ranked = {u: rng.permutation(120) for u in range(5)}
    got = sg.functional_ndcg(ranked, gt, k=7)
    want = np.mean([
        oracles.naive_ndcg(ranked[u], gt.functional_positives(u), 7)
        for u in range(5)])
    assert got == pytest.approx(want, abs=1e-12)


def test_functional_ndcg_empty_users_rejected():
    _, _, gt = small_city()
    with pytest.raises(ValueError):
        sg.functional_ndcg({}, gt, k=10)
