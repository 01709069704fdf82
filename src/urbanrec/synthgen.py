"""Synthetic city generator with a planted geographical confounder.

Produces a knowledge graph, a check-in log, and the generative ground truth
behind them.  Users carry a latent functional taste vector mixing a private
part with a city-wide shared part, so some venues are broadly popular the
way they are in a real city; brand footprints follow a power law whose big
chains are the brands that serve the shared taste best.  POIs carry a
functional attribute vector derived from their brand, their categories, and
a venue-specific term, so the functional side of the KG genuinely encodes
taste-relevant structure.  A
geo_strength dial adds a proximity term between each user's home region and
the POI's region to the check-in propensity: at 0 visits depend only on
functional match, and as it grows check-ins concentrate near home.  Each
user's check-ins are an exact Gumbel top-k draw over the catalog whose
work follows the user's few hundred smallest uniforms: the noise falls as
the uniform grows and log sigmoid(w) <= 0, so one bound clears every POI
outside them (see _gumbel_top_k).  Knowing
the true taste vectors lets tests measure how well a scorer recovers
functional preference independently of geography.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields as dc_fields

import numpy as np

from .evaluation import ndcg_at_k
from .interactions import DatasetSplit, InteractionSet
from .ukg import RELATION_IDS, UrbanKG

STRUCT_STREAM = 51
LATENT_STREAM = 52
HOME_STREAM = 53
INTERACT_STREAM = 54


class InfeasibleConfig(ValueError):
    pass


@dataclass(frozen=True)
class CityConfig:
    n_users: int = 500
    n_pois: int = 2000
    n_regions: int = 25
    n_business_areas: int = 50
    n_brands: int = 200
    n_cate1: int = 8
    n_cate2: int = 20
    n_cate3: int = 40
    latent_dim: int = 8
    geo_strength: float = 1.0
    interactions_per_user: int = 20
    seed: int = 0

    def __post_init__(self):
        for f in dc_fields(self):
            if f.name in ("geo_strength", "seed"):
                continue
            if getattr(self, f.name) < 1:
                raise InfeasibleConfig(f"{f.name} must be >= 1")
        # the check-in draw's slack assumes finite weights, and inf * -0.0
        # would make a NaN one
        if not (math.isfinite(self.geo_strength) and self.geo_strength >= 0):
            raise InfeasibleConfig(
                f"geo_strength must be finite and >= 0, got {self.geo_strength!r}")
        if self.interactions_per_user > self.n_pois:
            raise InfeasibleConfig(
                f"interactions_per_user={self.interactions_per_user} exceeds "
                f"n_pois={self.n_pois}: cannot sample without replacement")


@dataclass
class GroundTruth:
    """The generative quantities behind a city, kept for test oracles."""

    config: CityConfig
    taste: np.ndarray        # (n_users, latent_dim)
    attr: np.ndarray         # (n_pois, latent_dim)
    home_region: np.ndarray  # (n_users,)
    poi_region: np.ndarray   # (n_pois,)

    def affinity(self) -> np.ndarray:
        """True functional affinity matrix, users x POIs."""
        return self.taste @ self.attr.T

    def functional_positives(self, user: int, fraction: float = 0.05) -> set:
        """Top-quantile POIs by true affinity for one user, ties to low id."""
        aff = self.taste[user] @ self.attr.T
        count = max(1, math.ceil(fraction * len(aff)))
        cut = aff[np.argpartition(-aff, count - 1)[count - 1]]
        above = np.flatnonzero(aff > cut)
        at_cut = np.flatnonzero(aff == cut)[:count - len(above)]
        return set(above.tolist()) | set(at_cut.tolist())

    def functional_split(self, fraction: float = 0.05) -> DatasetSplit:
        """A split whose test view holds every user's functional_positives
        and whose train and val views are empty: evaluate over it ranks the
        whole catalog against ground-truth functional relevance, which is
        independent of the observed check-ins."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"functional fraction must be in (0, 1], "
                             f"got {fraction!r}")
        n_users, n_pois = self.config.n_users, self.config.n_pois
        pois = [np.fromiter(self.functional_positives(u, fraction), np.int64)
                for u in range(n_users)]
        users = np.repeat(np.arange(n_users), [len(p) for p in pois])
        test = InteractionSet(n_users, n_pois,
                              np.column_stack([users, np.concatenate(pois)]))
        empty = InteractionSet(n_users, n_pois, np.empty((0, 2), np.int64))
        return DatasetSplit(empty, empty, test)


def region_grid_side(n_regions: int) -> int:
    return math.ceil(math.sqrt(n_regions))


def region_distance(a: int, b: int, side: int) -> int:
    """Manhattan distance between two region cells on the grid."""
    return abs(a // side - b // side) + abs(a % side - b % side)


def proximity(distance: int) -> float:
    """Saturating deficit -2d/(d+1): the next district over costs a full
    unit, but nowhere in town ever costs more than twice that.

    The hard first step means a large geo_strength pins check-ins at home no
    matter how popular a distant venue is, while a moderate one still lets
    city-wide favorites pull visitors into the neighboring ring.
    """
    return -2.0 * distance / (distance + 1.0)


def _brand_sizes(n_brands: int, n_pois: int) -> np.ndarray:
    """Power-law brand footprints: a few city-wide chains, many boutiques."""
    w = (np.arange(n_brands) + 1.0) ** -0.7
    w = w / w.sum()
    sizes = np.floor(w * n_pois).astype(np.int64)
    remainder = w * n_pois - sizes
    short = n_pois - int(sizes.sum())
    if short:
        sizes[np.argsort(-remainder, kind="stable")[:short]] += 1
    return sizes


def _structure(cfg: CityConfig, brand_order: np.ndarray):
    """Entity assignments: brand footprints shrink down the popularity order
    (chains first), and member POIs are shuffled so that the functional side
    is independent of the (residue-based) geographic placement."""
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, STRUCT_STREAM]))
    ba_region = np.arange(cfg.n_business_areas) % cfg.n_regions
    poi_ba = np.arange(cfg.n_pois) % cfg.n_business_areas
    poi_region = ba_region[poi_ba]

    sizes = _brand_sizes(cfg.n_brands, cfg.n_pois)
    perm = rng.permutation(cfg.n_pois)
    poi_brand = np.empty(cfg.n_pois, dtype=np.int64)
    poi_brand[perm] = np.repeat(brand_order, sizes)

    brand_cate3 = np.arange(cfg.n_brands) % cfg.n_cate3
    parent2 = np.arange(cfg.n_cate3) % cfg.n_cate2
    parent1 = np.arange(cfg.n_cate2) % cfg.n_cate1
    return ba_region, poi_ba, poi_region, poi_brand, brand_cate3, parent2, parent1


def _interleave(*blocks) -> np.ndarray:
    """Triplet rows taking one row from each (relation, heads, tails) block in
    turn, so that entity i's rows of every block sit together."""
    return np.stack([
        np.column_stack(np.broadcast_arrays(RELATION_IDS[rel], heads, tails))
        for rel, heads, tails in blocks], axis=1).reshape(-1, 3)


def _kg_triplets(cfg: CityConfig, ba_region, poi_ba, poi_region, poi_brand,
                 brand_cate3, parent2, parent1) -> np.ndarray:
    side = region_grid_side(cfg.n_regions)
    pois = np.arange(cfg.n_pois)
    poi_c3 = brand_cate3[poi_brand]
    poi_c2 = parent2[poi_c3]
    region_a, region_b = np.triu_indices(cfg.n_regions, k=1)
    dist = region_distance(region_a, region_b, side)
    near = (dist == 1) | (dist == 2)
    region_pairs = np.column_stack([
        np.where(dist == 1, RELATION_IDS["BorderBy"], RELATION_IDS["NearBy"]),
        region_a, region_b])[near]
    brands = np.arange(cfg.n_brands)
    brand_c2 = parent2[brand_cate3]
    # chain brands that share a leaf category
    by_cate = np.argsort(brand_cate3, kind="stable")
    chained = brand_cate3[by_cate[1:]] == brand_cate3[by_cate[:-1]]
    cate2 = np.arange(cfg.n_cate2)
    cate3 = np.arange(cfg.n_cate3)
    return np.concatenate([
        _interleave(("LocateAt", pois, poi_region), ("BelongTo", pois, poi_ba),
                    ("BrandOf", pois, poi_brand),
                    ("Cate1Of", pois, parent1[poi_c2]),
                    ("Cate2Of", pois, poi_c2), ("Cate3Of", pois, poi_c3)),
        _interleave(("BaServe", np.arange(cfg.n_business_areas), ba_region)),
        region_pairs,
        _interleave(("Brand2Cate1", brands, parent1[brand_c2]),
                    ("Brand2Cate2", brands, brand_c2),
                    ("Brand2Cate3", brands, brand_cate3)),
        _interleave(("RelatedBrand", by_cate[:-1][chained], by_cate[1:][chained])),
        _interleave(("SubCate_2to1", cate2, parent1)),
        _interleave(("SubCate_3to1", cate3, parent1[parent2]),
                    ("SubCate_3to2", cate3, parent2)),
    ])


def _log_sigmoid(w: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -w)


def _gumbel_noise(r: np.ndarray) -> np.ndarray:
    """Generator.gumbel's value for each nonzero uniform r, bit for bit: it
    computes 0 - 1 * log(-log(1 - r)) with libm's log, which math.log calls
    and numpy's log does not."""
    return np.array([0.0 - math.log(-math.log(1.0 - x)) for x in r.tolist()])


def _gumbel_top_k(aff: np.ndarray, geo_row: np.ndarray, k: int,
                  fresh_rng) -> np.ndarray:
    """The k ids with the largest keys _log_sigmoid(w) + fresh_rng().gumbel(
    size=len(w)), where w = aff + geo_row, in no particular order: k draws
    without replacement in proportion to sigmoid(w).  ``fresh_rng`` returns
    a generator at the start of the same stream on every call.

    Only ids that can reach the top k need their exact key, and the work
    follows the few hundred smallest uniforms, not the catalog.  gumbel
    turns each uniform r into the noise g(r) = -log(-log(1 - r)), which
    falls as r grows, and log sigmoid(w) <= 0, so every id with r > q has
    a key of at most g(q).  A round looks only at the ids with r <= q,
    starting from q = 64k / n.  On them, log sigmoid(w) lies in
    [min(w, 0) - ln 2, min(w, 0)], so a vectorised upper bound on each key
    is exact to within ln 2, and the k-th largest bound less ln 2 is a
    floor under the catalog's k-th largest key.  When g(q) is below the
    floor no id outside the round can reach the top k, and the round's ids
    whose bound reaches the floor get exact keys from _gumbel_noise;
    otherwise q grows fourfold, and the round with q >= 1 covers the whole
    catalog.  g(q) uses gumbel's own formula, so rounding keeps it above
    every noise outside the round; numpy's vectorised log is a few ulp off
    libm's, and a relative slack on both sides of each comparison covers
    that and every rounding in the keys.  Where pruning cannot be shown
    exact the whole catalog is keyed instead: k == len(w), a zero uniform
    (which gumbel rejects and redraws), or a tie at the k-th key.
    """
    n = len(aff)
    if k < n:
        r = fresh_rng().random(n)
        # a round of 64k ids settles most users in one: the k-th key of a
        # confounded city comes from the few POIs near home
        q = 64 * k / n
        while True:
            sub = np.flatnonzero(r <= q)  # the whole catalog once q >= 1
            if len(sub) >= k:
                rs = r[sub]
                if not rs.all():  # a zero is the smallest uniform
                    break
                w = aff[sub] + geo_row[sub]
                neg_noise = np.log(-np.log(1.0 - rs))
                bound = np.minimum(w, 0.0) - neg_noise
                kth = np.partition(bound, len(sub) - k)[len(sub) - k]
                floor = kth - math.log(2.0)
                # the slack needs no |g(q)| term: g(q) >= 0 is no larger
                # than the round's largest |noise|, and g(q) < 0 is above -4
                tol = 1e-9 * (1.0 + np.abs(w).max() + np.abs(neg_noise).max())
                outside = -math.log(-math.log(1.0 - q)) if q < 1.0 else -math.inf
                if outside + tol < floor - tol:
                    cand = np.flatnonzero(bound >= floor - tol)
                    if len(cand) == k:
                        return sub[cand]
                    keys = _log_sigmoid(w[cand]) + _gumbel_noise(rs[cand])
                    desc = np.sort(keys)[::-1]
                    if desc[k - 1] > desc[k]:
                        return sub[cand[keys > desc[k]]]
                    break
            if q >= 1.0:  # only a NaN weight fails the whole-catalog round
                break
            q *= 4.0
    return _full_catalog_top_k(aff + geo_row, k, fresh_rng)


def _full_catalog_top_k(w: np.ndarray, k: int, fresh_rng) -> np.ndarray:
    """The draw _gumbel_top_k defines, keying every id."""
    keys = _log_sigmoid(w) + fresh_rng().gumbel(size=len(w))
    return np.argpartition(-keys, k - 1)[:k]


def generate_city(cfg: CityConfig) -> tuple[UrbanKG, InteractionSet, GroundTruth]:
    """Build the KG, sample check-ins, and return the generative ground truth.

    Check-in propensity for user u and POI p is sigmoid(affinity + gamma *
    proximity); POIs are drawn without replacement in proportion to it as
    the top k of log-weight + Gumbel keys, one derived rng stream per user.
    The draw is exact and picks the POIs the full-catalog draw picks, but
    it bounds and keys only the POIs with the smallest uniforms: every other
    POI's key is at most the noise of the round's cut, which _gumbel_top_k
    shows to be below the k-th key.  Each user's affinity row is the full
    taste . attr product, so every weight is bit-equal to the full draw's.
    A zero uniform, a tie at the k-th key, or interactions_per_user ==
    n_pois sends a user down the full-catalog path.
    """
    # latent scale keeps taste . attr at unit order for any latent_dim
    scale = cfg.latent_dim ** -0.25
    lat_rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, LATENT_STREAM]))
    z_brand = lat_rng.normal(0.0, scale, (cfg.n_brands, cfg.latent_dim))
    z_c1 = lat_rng.normal(0.0, scale, (cfg.n_cate1, cfg.latent_dim))
    z_c3 = lat_rng.normal(0.0, scale, (cfg.n_cate3, cfg.latent_dim))
    z_poi = lat_rng.normal(0.0, scale, (cfg.n_pois, cfg.latent_dim))
    taste = lat_rng.normal(0.0, scale, (cfg.n_users, cfg.latent_dim))
    # every taste shares one city-wide component, so some venues are simply
    # popular with everyone and a user's catalog-average preference is not
    # washed out to zero; its direction varies by seed but its strength is
    # pinned at a few times a typical private taste, the way city-wide
    # popularity reliably outweighs any one person's quirks
    direction = lat_rng.normal(0.0, 1.0, cfg.latent_dim)
    direction /= np.linalg.norm(direction)
    shared = (3.25 * scale * math.sqrt(cfg.latent_dim)) * direction
    taste = taste + shared

    # chains thrive because they serve the shared taste: the brands whose
    # identity aligns best with it grow the largest footprints
    brand_order = np.argsort(-(z_brand @ shared), kind="stable")
    structure = _structure(cfg, brand_order)
    ba_region, poi_ba, poi_region, poi_brand, brand_cate3, parent2, parent1 = structure

    kg = UrbanKG(_kg_triplets(cfg, *structure), populations={
        "POI": cfg.n_pois, "BusinessArea": cfg.n_business_areas,
        "Region": cfg.n_regions, "Brand": cfg.n_brands,
        "Cate1": cfg.n_cate1, "Cate2": cfg.n_cate2, "Cate3": cfg.n_cate3,
    })

    poi_c3 = brand_cate3[poi_brand]
    poi_c1 = parent1[parent2[poi_c3]]
    # venue-specific term keeps two outlets of one chain from being clones
    attr = (z_brand[poi_brand] + z_c1[poi_c1] + z_c3[poi_c3] + z_poi) / 2.0

    home_rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, HOME_STREAM]))
    home = home_rng.integers(0, cfg.n_regions, size=cfg.n_users)

    regions = np.arange(cfg.n_regions)
    prox = proximity(region_distance(regions[:, None], regions[None, :],
                                     region_grid_side(cfg.n_regions)))
    geo = cfg.geo_strength * prox[:, poi_region]  # home region x POI

    k = cfg.interactions_per_user
    pois = np.empty((cfg.n_users, k), dtype=np.int64)
    for u in range(cfg.n_users):
        stream = np.random.SeedSequence([cfg.seed, INTERACT_STREAM, u])
        pois[u] = _gumbel_top_k(taste[u] @ attr.T, geo[home[u]], k,
                                lambda: np.random.default_rng(stream))

    ids = np.column_stack([np.repeat(np.arange(cfg.n_users), k), pois.ravel()])
    iset = InteractionSet(cfg.n_users, cfg.n_pois, ids)
    gt = GroundTruth(cfg, taste, attr, home, poi_region.astype(np.int64))
    return kg, iset, gt


def same_region_rate(iset: InteractionSet, gt: GroundTruth) -> float:
    """Fraction of check-ins landing in the user's home region."""
    users, pois = iset.ids.T
    return np.count_nonzero(gt.poi_region[pois] == gt.home_region[users]) / len(iset)


def functional_ndcg(ranked_by_user: dict, gt: GroundTruth, k: int,
                    fraction: float = 0.05) -> float:
    """NDCG@k of ranked lists against each user's top-quantile true affinity.

    Geography plays no part in the relevance labels, so this measures how
    much functional preference a scorer recovers. ranked_by_user maps user
    id to a ranked POI array; users absent from it are skipped.  This is the
    list-based reference kept for tests and the benchmark; the package
    itself takes functional NDCG as evaluate over functional_split.
    """
    total, count = 0.0, 0
    for u in sorted(ranked_by_user):
        positives = gt.functional_positives(u, fraction)
        total += ndcg_at_k(np.asarray(ranked_by_user[u]), positives, k)
        count += 1
    if count == 0:
        raise ValueError("no users to evaluate")
    return float(total / count)


# -- flat-file ground truth ----------------------------------------------------


def serialize_ground_truth(gt: GroundTruth) -> str:
    # repr floats round-trip exactly; the header echoes the full config
    cfg = gt.config
    head = " ".join(
        f"{f.name}={getattr(cfg, f.name)!r}" for f in dc_fields(cfg))
    lines = [f"#city {head}"]
    for u in range(cfg.n_users):
        vec = " ".join(repr(float(v)) for v in gt.taste[u])
        lines.append(f"taste {u} {vec}")
    for p in range(cfg.n_pois):
        vec = " ".join(repr(float(v)) for v in gt.attr[p])
        lines.append(f"attr {p} {vec}")
    for u in range(cfg.n_users):
        lines.append(f"home {u} {int(gt.home_region[u])}")
    for p in range(cfg.n_pois):
        lines.append(f"poi_region {p} {int(gt.poi_region[p])}")
    return "\n".join(lines) + "\n"


def parse_ground_truth(text: str) -> GroundTruth:
    """Read a serialized ground truth; a missing, repeated or malformed
    record, or a header without exactly the CityConfig fields, raises
    ValueError naming it."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1)
             if ln.strip()]
    if not lines or not lines[0][1].startswith("#city "):
        raise ValueError("ground truth file must start with a #city header")
    header = lines[0][1].strip()
    kinds = {f.name: type(f.default) for f in dc_fields(CityConfig)}
    kwargs = {}
    try:
        for item in header[len("#city "):].split():
            key, _, val = item.partition("=")
            if key not in kinds or key in kwargs:
                raise ValueError(f"unknown or repeated key {key!r}")
            kwargs[key] = kinds[key](val)
        missing = [key for key in kinds if key not in kwargs]
        if missing:
            raise ValueError(f"missing {', '.join(missing)}")
    except ValueError as exc:
        raise ValueError(f"ground truth header {header!r}: {exc}") from None
    cfg = CityConfig(**kwargs)
    records = {"taste": np.zeros((cfg.n_users, cfg.latent_dim)),
               "attr": np.zeros((cfg.n_pois, cfg.latent_dim)),
               "home": np.zeros(cfg.n_users, dtype=np.int64),
               "poi_region": np.zeros(cfg.n_pois, dtype=np.int64)}
    seen = {kind: np.zeros(len(arr), dtype=bool) for kind, arr in records.items()}
    for no, ln in lines[1:]:
        try:
            kind, idx, *values = ln.split()
            if kind not in records:
                raise ValueError(f"unknown ground truth record {kind!r}")
            arr, idx = records[kind], int(idx)
            width = cfg.latent_dim if arr.ndim == 2 else 1
            if len(values) != width:
                raise ValueError(f"expected {width} value(s), got {len(values)}")
            if not 0 <= idx < len(arr):
                raise ValueError(f"{kind} id {idx} out of range")
            if seen[kind][idx]:
                raise ValueError(f"second {kind} record for id {idx}")
            seen[kind][idx] = True
            if arr.ndim == 2:
                arr[idx] = [float(v) for v in values]
            else:
                region = int(values[0])
                if not 0 <= region < cfg.n_regions:
                    raise ValueError(f"region {region} out of range")
                arr[idx] = region
        except ValueError as exc:
            raise ValueError(f"ground truth line {no} ({ln.strip()!r}): {exc}") \
                from None
    for kind, found in seen.items():
        if not found.all():
            raise ValueError(f"ground truth has no {kind} record for id "
                             f"{np.argmin(found)}")
    return GroundTruth(cfg, records["taste"], records["attr"], records["home"],
                       records["poi_region"])
