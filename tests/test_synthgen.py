"""Synthetic city tests: schema, determinism, the confounder dial, and the
functional ranking oracle."""

import hashlib
import math
import re

import numpy as np
import pytest

import oracles
from urbanrec import evaluation as ev
from urbanrec import model as md
from urbanrec import propagation as pg
from urbanrec import synthgen as sg
from urbanrec import ukg
from urbanrec.interactions import serialize_checkins, split_dataset


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


@pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -float("inf")])
def test_config_rejects_a_non_finite_geo_strength(gamma):
    with pytest.raises(sg.InfeasibleConfig, match="^geo_strength must be finite"):
        sg.CityConfig(geo_strength=gamma)


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
        assert len(iset.user_pois(u)) == 10


def test_determinism_byte_identical():
    kg1, i1, g1 = small_city(seed=5)
    kg2, i2, g2 = small_city(seed=5)
    assert ukg.serialize_triplets(kg1) == ukg.serialize_triplets(kg2)
    assert serialize_checkins(i1) == serialize_checkins(i2)
    assert sg.serialize_ground_truth(g1) == sg.serialize_ground_truth(g2)


# the command-line tests' city: 24 users x 60 POIs over 4 regions
CLI_CITY = dict(n_users=24, n_pois=60, n_regions=4, n_business_areas=8,
                n_brands=12, n_cate1=2, n_cate2=4, n_cate3=8,
                interactions_per_user=6, seed=2)

SUBSET_CITY = dict(n_users=40, n_pois=8000, geo_strength=5.0)

# sha256 of serialize_triplets, serialize_checkins and serialize_ground_truth,
# recorded from the plain full-catalog check-in draw: a faster draw must
# reproduce every city byte for byte
PINNED_CITIES = {
    "small": (SMALL, (
        "58de26d35a3cd78e8d6da55552ddd9c02ed377f27b499f8d7c4b1de096ab4b13",
        "ce39cf502b2fafa29dce0ced8217410ee962b1eaf364fda555a10304c727c7a5",
        "71024f1b469a4adb698f8b3d70e316aa0940dbfabbdb4726a9f7ecdd94a01906")),
    "cli": (CLI_CITY, (
        "bd92d351eff9544f1623ddde670b697dff37fd6469c3be581931faec1e19eb34",
        "611eaf5cf6c0ba71c3e6ac2ce127d6d6ba37881dbc416a2cfcdc5471dba5b6a5",
        "eb3a97d9e7b2be7a3a7e428f2556759bd91a28a11781f88189616291ced3a60d")),
    "default-geo5": (dict(geo_strength=5.0), (
        "d57405382fed0f60baa5efb6ec1d4c05e60c2edf36757ebf83df3de485d7cad3",
        "5f8d0ac59ef7ca0012c49d4d47babc010d20ea074e9ccbce85858b3ee86eae05",
        "2ef71395194f9977d1449e912fcebb244196ad5f5c6e2dd4d665e026a59c8b2e")),
    "default-geo0-seed2": (dict(geo_strength=0.0, seed=2), (
        "003317b79deadf8505d715afd29eb8e7955fcf8387aaae2356fcee30f5727ad3",
        "025018ab9281834ceeca9e36468accf06ef80ba2e9584d96692eff0876221e7d",
        "9a478fad721c1059040a8853b7a85c8a82e68d0cb5402f33545f85040e45f406")),
    # 40 users x 8000 POIs: the draw keys a subset; at 10 most users widen it
    "subset-geo5": (SUBSET_CITY, (
        "eaa1de61c5343423734433db75a261812b06fe8c2cb79e778fba587d271bb3b0",
        "b064c1e593a72d48735b3a0c50e99fd5bfe645f56382bf2f4b00834e67560842",
        "8fd0c877890bdb1e89a69894625f7a07163b36de45f6881ce50559b59b3d3be3")),
    "subset-geo10": (dict(SUBSET_CITY, geo_strength=10.0), (
        "eaa1de61c5343423734433db75a261812b06fe8c2cb79e778fba587d271bb3b0",
        "7b4fb12a64e0b1c3c86e175a006c3f4dedcc34721ada346ee1700f9c81dcabd3",
        "0316b1b4ce7c99d064e16fb4f3df76af8b7e426f1a6213a6333c8f5784349f29")),
    "every-poi": (dict(SMALL, interactions_per_user=120), (
        "58de26d35a3cd78e8d6da55552ddd9c02ed377f27b499f8d7c4b1de096ab4b13",
        "7070deef858d66a0ed9a8b9933da53c508d27e5479abb041906037ae9fc8edf2",
        "0edeb91e1f62211c3a68f03f943e7fd23369f868dbe376de405cd9d4a7274112")),
}


@pytest.mark.parametrize("name", PINNED_CITIES)
def test_generated_bytes_are_pinned(name):
    config, digests = PINNED_CITIES[name]
    kg, iset, gt = sg.generate_city(sg.CityConfig(**config))
    texts = (ukg.serialize_triplets(kg), serialize_checkins(iset),
             sg.serialize_ground_truth(gt))
    assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts) == digests


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
        assert set(iset.user_pois(u).tolist()) == want


@pytest.mark.parametrize("config", [
    dict(SMALL, interactions_per_user=1),
    dict(SMALL, interactions_per_user=119, seed=3),
    dict(SMALL, interactions_per_user=120, seed=1),
    dict(SMALL, geo_strength=0.0, seed=2),
    dict(SMALL, geo_strength=50.0, seed=5),
    dict(SMALL, geo_strength=8.0, seed=6, latent_dim=32),
    dict(CLI_CITY),
    dict(n_users=60, geo_strength=5.0, seed=1),
    dict(n_users=60, geo_strength=50.0, seed=7, interactions_per_user=1),
    dict(SUBSET_CITY),
    dict(SUBSET_CITY, geo_strength=10.0),
], ids=["k=1", "k=n-1", "k=n", "geo0", "geo50", "geo8-dim32", "cli",
        "default-pois-geo5", "default-pois-geo50-k1", "subset-geo5",
        "subset-geo10"])
def test_checkins_match_full_catalog_oracle(config):
    _, iset, gt = sg.generate_city(sg.CityConfig(**config))
    assert np.array_equal(iset.ids, oracles.naive_checkins(gt, sg.INTERACT_STREAM))


def test_gumbel_noise_is_bit_equal_to_generator_gumbel():
    r = np.random.default_rng(9).random(20000)
    assert np.array_equal(sg._gumbel_noise(r),
                          np.random.default_rng(9).gumbel(size=20000))


def test_subset_city_never_keys_the_full_catalog(monkeypatch):
    # every user of this city settles on a subset of the catalog, so a draw
    # that quietly keyed the whole catalog instead would not be noticed by
    # the digests alone
    def refuse(*args):
        raise AssertionError("the draw keyed the full catalog")
    monkeypatch.setattr(sg, "_full_catalog_top_k", refuse)
    _, iset, gt = sg.generate_city(sg.CityConfig(**SUBSET_CITY))
    assert np.array_equal(iset.ids, oracles.naive_checkins(gt, sg.INTERACT_STREAM))


class CountedReads(np.ndarray):
    """Weights that count the entries read by indexing and refuse
    arithmetic on the whole array."""

    def __getitem__(self, index):
        got = np.asarray(self)[index]
        self.reads += np.size(got)
        return got

    def __array_ufunc__(self, *args, **kwargs):
        raise AssertionError("arithmetic on every weight")


def test_draw_reads_only_the_smallest_uniforms():
    n, k = 20000, 20
    fresh = lambda: np.random.default_rng(11)
    w = np.random.default_rng(12).normal(size=n)
    counted = w.view(CountedReads)
    counted.reads = 0
    got = sg._gumbel_top_k(counted, np.zeros(n), k, fresh)
    assert len(got) == k
    assert set(got.tolist()) == full_catalog_top_k(w, k, fresh)
    assert 0 < counted.reads <= 4 * 64 * k


def full_catalog_top_k(w, k, fresh_rng) -> set:
    keys = -np.logaddexp(0.0, -w) + fresh_rng().gumbel(size=len(w))
    return set(np.argpartition(-keys, k - 1)[:k].tolist())


def rng_drawing_zero_first():
    """A PCG64 generator whose first uniform double is exactly 0.0.  PCG64
    steps its 128-bit state by a multiply-add and outputs the rotated xor of
    the two halves, so a state that steps to equal halves outputs 0."""
    mult, mod = 0x2360ED051FC65DA44385DF649FCCF645, 2 ** 128
    inc = np.random.PCG64(0).state["state"]["inc"]
    stepped = (5 << 64) | 5
    bits = np.random.PCG64(0)
    bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                  "state": {"state": (stepped - inc) * pow(mult, -1, mod) % mod,
                            "inc": inc}}
    return np.random.Generator(bits)


def test_draw_keys_the_full_catalog_after_a_zero_uniform():
    check_zero_uniform(300)


def test_draw_keys_the_full_catalog_after_a_zero_uniform_in_a_subset():
    check_zero_uniform(20000)


def check_zero_uniform(n):
    assert rng_drawing_zero_first().random() == 0.0
    w = np.random.default_rng(0).normal(size=n)
    # gumbel rejects the zero and redraws, so POI 0 gets the next uniform's
    # noise; a pruned draw that kept the zero would give it an infinite key
    w[0] = -100.0
    got = sg._gumbel_top_k(w, np.zeros(n), 5, rng_drawing_zero_first)
    assert len(got) == 5 and 0 not in got
    assert set(got.tolist()) == full_catalog_top_k(w, 5, rng_drawing_zero_first)


def test_draw_keys_the_full_catalog_on_a_tie_at_the_kth_key():
    check_tie_at_the_kth_key(50)  # the first round covers the catalog


def test_draw_keys_the_full_catalog_on_a_tie_at_the_kth_key_in_a_subset():
    check_tie_at_the_kth_key(5000)


def check_tie_at_the_kth_key(n):
    k = 2
    fresh = lambda: np.random.default_rng(3)
    assert fresh().random(n).all()
    g = fresh().gumbel(size=n)
    top, c, b = np.argsort(-g)[:3]
    w = np.full(n, -60.0)
    w[top] = 60.0  # a clear first place
    w[b] = 0.0
    tied = sg._log_sigmoid(w[b:b + 1])[0] + g[b]
    # search for the weight that gives c the same key exactly: near the
    # solution one ulp of w moves the key by less than one ulp of the key
    y = tied - g[c]
    wc = y - math.log1p(-math.exp(y))
    for _ in range(100):
        key = sg._log_sigmoid(np.array([wc]))[0] + g[c]
        if key == tied:
            break
        wc = np.nextafter(wc, np.inf if key < tied else -np.inf)
    w[c] = wc
    keys = sg._log_sigmoid(w) + g
    desc = np.sort(keys)[::-1]
    assert desc[0] > desc[1] == desc[2] > desc[3]  # the k-th key is tied
    got = sg._gumbel_top_k(w, np.zeros(n), k, fresh)
    assert len(got) == k
    assert set(got.tolist()) == full_catalog_top_k(w, k, fresh)


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
    for u in range(gt.config.n_users):
        aff = gt.taste[u] @ gt.attr.T
        for fraction in (0.05, 0.2):
            assert gt.functional_positives(u, fraction) == \
                oracles.naive_top_quantile(aff, fraction)


def test_functional_positives_ties_at_the_cut_go_to_low_ids():
    # integer coordinates make every affinity exact, and each attribute row
    # appears three times, so equal affinities straddle the quantile cut
    rng = np.random.default_rng(8)
    base = rng.integers(-2, 3, size=(40, 3)).astype(float)
    attr = np.concatenate([base, base, base])[rng.permutation(120)]
    taste = rng.integers(-2, 3, size=(40, 3)).astype(float)
    cfg = sg.CityConfig(**{**SMALL, "latent_dim": 3})
    gt = sg.GroundTruth(cfg, taste, attr, np.zeros(40, dtype=np.int64),
                        np.zeros(120, dtype=np.int64))
    straddled = 0
    for u in range(40):
        aff = gt.taste[u] @ gt.attr.T
        for fraction in (0.05, 0.1, 0.25):
            pos = gt.functional_positives(u, fraction)
            assert pos == oracles.naive_top_quantile(aff, fraction)
            cut = min(aff[p] for p in pos)
            straddled += any(aff[p] == cut for p in range(120) if p not in pos)
    assert straddled > 10


def test_functional_split_tests_every_users_top_quantile():
    _, _, gt = small_city()
    for fraction in (0.05, 0.25, 1.0):
        split = gt.functional_split(fraction)
        assert (split.n_users, split.n_pois) == (40, 120)
        assert len(split.train) == len(split.val) == 0
        for u in range(40):
            assert set(split.test.user_pois(u).tolist()) == \
                gt.functional_positives(u, fraction)


@pytest.mark.parametrize("fraction", [0.0, -1.0, 1.5, float("nan")])
def test_functional_split_rejects_a_fraction_outside_zero_one(fraction):
    _, _, gt = small_city()
    with pytest.raises(ValueError, match=r"must be in \(0, 1\]"):
        gt.functional_split(fraction)


def test_functional_ndcg_through_evaluate_equals_the_list_reference():
    # evaluate over functional_split is how the package takes functional
    # NDCG; it must equal functional_ndcg over rank_candidates lists exactly,
    # also when the targets outnumber k and evaluate stops counting early
    kg, iset, gt = small_city()
    split = split_dataset(iset, (0.8, 0.1, 0.1), seed=0)
    bundle = pg.build_graphs(kg, split)
    dims = pg.dims_for(kg, split, d=8, n_intents=2, n_layers=2)
    finals = pg.forward(md.init_params(dims, seed=1), bundle)
    empty = np.array([], dtype=np.int64)
    for scorer in ("tie", "te"):
        ranked = {u: ev.rank_candidates(u, finals, scorer, empty)
                  for u in range(gt.config.n_users)}
        for fraction in (0.05, 0.25):
            functional = gt.functional_split(fraction)
            for k in (3, 20):
                got = ev.evaluate(finals, functional, scorer, ks=(k,),
                                  with_auc=False).ndcg[k]
                assert got == sg.functional_ndcg(ranked, gt, k, fraction)


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


def _edit_header(edit):
    return lambda lines: [edit(lines[0])] + lines[1:]


@pytest.mark.parametrize("damage, message", [
    (_edit_header(lambda h: h.replace(" latent_dim=8", "")), "missing latent_dim"),
    (_edit_header(lambda h: h.replace(" seed=2", "")), "missing seed"),
    (_edit_header(lambda h: h + " colour=3"), "unknown or repeated key 'colour'"),
    (_edit_header(lambda h: h + " seed=2"), "unknown or repeated key 'seed'"),
    (_edit_header(lambda h: h.replace("n_pois=60", "n_pois=sixty")),
     "invalid literal for int() with base 10: 'sixty'"),
    (_edit_header(lambda h: h.replace("geo_strength=1.0", "geo_strength=")),
     "could not convert string to float: ''"),
], ids=["missing-latent-dim", "missing-seed", "unknown-key", "repeated-key",
        "int-not-a-number", "float-not-a-number"])
def test_ground_truth_parse_rejects_damaged_header(damage, message):
    lines = _damaged_ground_truth(damage)
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        sg.parse_ground_truth("\n".join(lines) + "\n")
    assert type(info.value) is ValueError
    assert str(info.value).startswith(f"ground truth header {lines[0]!r}: ")


def test_functional_ndcg_empty_users_rejected():
    _, _, gt = small_city()
    with pytest.raises(ValueError):
        sg.functional_ndcg({}, gt, k=10)


def _damaged_ground_truth(damage):
    _, _, gt = sg.generate_city(sg.CityConfig(**CLI_CITY))
    return damage(sg.serialize_ground_truth(gt).splitlines())


def _drop(*prefixes):
    return lambda lines: [ln for ln in lines
                          if not ln.startswith(tuple(p + " " for p in prefixes))]


def _edit(prefix, edit):
    return lambda lines: [edit(ln) if ln.startswith(prefix + " ") else ln
                          for ln in lines]


@pytest.mark.parametrize("damage, message", [
    (_drop("taste 5", "attr 7"), "no taste record for id 5"),
    (_drop("attr 7"), "no attr record for id 7"),
    (_drop("poi_region 59"), "no poi_region record for id 59"),
    (_edit("home 3", lambda ln: ln + " 1"), "expected 1 value(s), got 2"),
    (lambda lines: lines + [next(ln for ln in lines if ln.startswith("taste 0 "))],
     "second taste record for id 0"),
    (_edit("taste 2", lambda ln: ln.rsplit(" ", 1)[0]), "expected 8 value(s), got 7"),
    (_edit("attr 4", lambda ln: ln + " 0.5"), "expected 8 value(s), got 9"),
    (_edit("home 1", lambda ln: "home 1 4"), "region 4 out of range"),
    (_edit("poi_region 9", lambda ln: "poi_region 9 -1"), "region -1 out of range"),
    (lambda lines: lines + ["home 24 0"], "home id 24 out of range"),
    (lambda lines: lines + ["attr -1" + " 0.0" * 8], "attr id -1 out of range"),
    (_edit("taste 1", lambda ln: ln.replace(" ", " x", 2)), "invalid literal"),
], ids=["missing-taste-and-attr", "missing-attr", "missing-poi-region",
        "home-extra-field", "repeated-taste", "short-vector", "long-vector",
        "home-region-range", "poi-region-range", "user-id-range",
        "poi-id-range", "bad-number"])
def test_ground_truth_parse_rejects_damaged_records(damage, message):
    lines = _damaged_ground_truth(damage)
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        sg.parse_ground_truth("\n".join(lines) + "\n")
    # one line of message, naming the offending line when there is one
    assert "\n" not in str(info.value)
    if not message.startswith("no "):
        assert "ground truth line" in str(info.value)
