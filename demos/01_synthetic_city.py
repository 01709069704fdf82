"""
Generating a synthetic city
===========================

A city is a knowledge graph (venues, brands, categories, regions, business
areas) plus a set of user check-ins drawn from a latent model: every user
carries a functional taste vector, every venue a functional attribute
vector, and check-in propensity mixes their inner product with a proximity
term anchored at the user's home region.  The strength of that proximity
term is the planted geographical confounder.
"""

import numpy as np

from urbanrec.synthgen import CityConfig, generate_city, same_region_rate
from urbanrec.ukg import RELATION_IDS, split_subgraphs

###############################################################################
# A small city.  Every quantity derives deterministically from the seed.

cfg = CityConfig(n_users=200, n_pois=800, n_regions=16, n_business_areas=32,
                 n_brands=80, geo_strength=5.0, seed=0)
kg, checkins, truth = generate_city(cfg)

print(f"entities: {sum(kg.populations.values())} "
      f"across {len(kg.populations)} classes")
print(f"triplets: {len(kg.triplets)}")
print(f"check-ins: {len(checkins)} "
      f"({cfg.interactions_per_user} per user)")

###############################################################################
# The graph splits into a geographical side (where venues sit) and a
# functional side (what venues are).  The two sides share only the POIs.

geo, func = split_subgraphs(kg)
print(f"\ngeographical side: {len(geo.triplets)} triplets, "
      f"{geo.entity_count} non-user entities")
print(f"functional side:   {len(func.triplets)} triplets, "
      f"{func.entity_count} non-user entities")

###############################################################################
# Brand footprints follow a power law: a handful of city-wide chains and a
# long tail of boutiques, the way real cities look.

# kg.triplets holds one (relation id, head index, tail index) row per triplet
brand_of = kg.triplets[kg.triplets[:, 0] == RELATION_IDS["BrandOf"]]
counts = np.bincount(brand_of[:, 2], minlength=cfg.n_brands)
top = np.sort(counts)[::-1]
print(f"\nlargest brand footprints: {top[:5].tolist()} outlets")
print(f"median footprint: {int(np.median(counts))} outlets")

###############################################################################
# The confounder dial.  Proximity costs -2d/(d+1) of score at region
# distance d, so geo_strength controls how hard check-ins cling to the home
# region: near zero users roam freely, at 10 they rarely leave home.

for gamma in (0.0, 2.0, 5.0, 10.0):
    _, iset, gt = generate_city(CityConfig(n_users=200, n_pois=800,
                                           n_regions=16, n_business_areas=32,
                                           n_brands=80, geo_strength=gamma,
                                           seed=0))
    print(f"geo_strength={gamma:>4}: "
          f"{same_region_rate(iset, gt):.1%} of check-ins at home")

###############################################################################
# Ground truth keeps the latent quantities, so experiments can measure how
# well a model recovers functional preference independently of geography.

aff = truth.affinity()
print(f"\ntrue affinity matrix: {aff.shape}, std {aff.std():.2f}")
print(f"user 0 home region: {truth.home_region[0]}")
print(f"user 0 top venues by true taste: "
      f"{np.argsort(-aff[0])[:5].tolist()}")
