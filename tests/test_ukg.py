"""Schema, parser, split, and adjacency tests for the knowledge graph."""

import numpy as np
import pytest

from urbanrec import ukg
from urbanrec.ukg import (
    RELATION_IDS,
    UrbanKG,
    parse_triplets,
    serialize_triplets,
    split_subgraphs,
    build_adjacency,
    blended_subgraph,
)


def test_relation_table_shape():
    assert len(ukg.RELATIONS) == 16
    assert len(ukg.GEO_RELATIONS) == 5
    assert len(ukg.FUNC_RELATIONS) == 11
    assert set(ukg.GEO_RELATIONS) == {"BaServe", "BelongTo", "BorderBy",
                                      "LocateAt", "NearBy"}


def test_relation_head_tail_classes():
    expect = {
        "BaServe": ("BusinessArea", "Region"),
        "BelongTo": ("POI", "BusinessArea"),
        "BorderBy": ("Region", "Region"),
        "LocateAt": ("POI", "Region"),
        "NearBy": ("Region", "Region"),
        "Brand2Cate1": ("Brand", "Cate1"),
        "Brand2Cate2": ("Brand", "Cate2"),
        "Brand2Cate3": ("Brand", "Cate3"),
        "BrandOf": ("POI", "Brand"),
        "Cate1Of": ("POI", "Cate1"),
        "Cate2Of": ("POI", "Cate2"),
        "Cate3Of": ("POI", "Cate3"),
        "RelatedBrand": ("Brand", "Brand"),
        "SubCate_2to1": ("Cate2", "Cate1"),
        "SubCate_3to1": ("Cate3", "Cate1"),
        "SubCate_3to2": ("Cate3", "Cate2"),
    }
    for name, (h, t) in expect.items():
        rel = ukg.RELATIONS[name]
        assert (rel.head_class, rel.tail_class) == (h, t)


def test_relation_local_ids_dense_per_kind():
    geo_ids = sorted(ukg.RELATIONS[n].local_id for n in ukg.GEO_RELATIONS)
    func_ids = sorted(ukg.RELATIONS[n].local_id for n in ukg.FUNC_RELATIONS)
    assert geo_ids == list(range(5))
    assert func_ids == list(range(11))


def test_parse_minimal_graph():
    kg = parse_triplets("POI:0\tBrandOf\tBrand:0\n")
    assert len(kg.triplets) == 1
    assert kg.populations["POI"] == 1
    assert kg.populations["Brand"] == 1
    assert kg.populations["Region"] == 0


def test_parse_class_mismatch():
    with pytest.raises(ukg.ClassMismatch):
        parse_triplets("POI:0\tBrandOf\tRegion:0\n")


def one_legal_triplet(name: str) -> str:
    rel = ukg.RELATIONS[name]
    return f"{rel.head_class}:0\t{name}\t{rel.tail_class}:{0 if rel.head_class != rel.tail_class else 1}"


def test_parse_one_triplet_per_relation():
    # one legal line per Table row; self-class relations use distinct ids
    text = "\n".join(one_legal_triplet(n) for n in ukg.RELATIONS)
    kg = parse_triplets(text)
    assert len(kg.triplets) == 16


def test_parse_rejects_unknown_relation():
    with pytest.raises(ukg.UnknownRelation):
        parse_triplets("POI:0\tVisits\tBrand:0\n")


def test_parse_rejects_malformed():
    for bad in ["POI:0\tBrandOf", "POI\tBrandOf\tBrand:0", "POI:x\tBrandOf\tBrand:0",
                "POI:-1\tBrandOf\tBrand:0", "Shop:0\tBrandOf\tBrand:0"]:
        with pytest.raises(ukg.MalformedLine):
            parse_triplets(bad + "\n")


def test_parse_rejects_duplicates():
    line = "POI:0\tBrandOf\tBrand:0"
    with pytest.raises(ukg.DuplicateTriplet, match="line 3"):
        parse_triplets(f"{line}\n\n{line}\n")


def test_parse_skips_comments_and_blank_lines():
    kg = parse_triplets("# a comment\n\nPOI:0\tLocateAt\tRegion:0\n")
    assert len(kg.triplets) == 1


def test_counts_header_sets_populations():
    kg = parse_triplets("#counts POI=5 Region=3 Brand=2\nPOI:0\tLocateAt\tRegion:0\n")
    assert kg.populations["POI"] == 5
    assert kg.populations["Region"] == 3
    assert kg.populations["Brand"] == 2


def test_counts_header_understating_ids_fails():
    with pytest.raises(ValueError):
        parse_triplets("#counts POI=1 Region=1\nPOI:3\tLocateAt\tRegion:0\n")


def test_round_trip():
    text = "\n".join(one_legal_triplet(n) for n in ukg.RELATIONS)
    kg = parse_triplets(text)
    kg2 = parse_triplets(serialize_triplets(kg))
    np.testing.assert_array_equal(kg.triplets, kg2.triplets)
    assert kg.populations == kg2.populations


def test_split_one_kind_graph():
    kg = parse_triplets("POI:0\tLocateAt\tRegion:0\nPOI:1\tLocateAt\tRegion:0\n")
    geo, func = split_subgraphs(kg)
    assert len(geo.triplets) == 2
    assert len(func.triplets) == 0


def test_split_partition():
    kg = parse_triplets("POI:0\tBrandOf\tBrand:0\nPOI:0\tLocateAt\tRegion:0\n")
    geo, func = split_subgraphs(kg)
    assert len(geo.triplets) == 1
    assert len(func.triplets) == 1
    assert len(geo.triplets) + len(func.triplets) == len(kg.triplets)


def test_split_pois_shared_entities_disjoint():
    text = ("#counts POI=3 Region=2 BusinessArea=1 Brand=2 Cate1=1\n"
            "POI:2\tLocateAt\tRegion:1\nPOI:2\tBrandOf\tBrand:1\n"
            "Brand:1\tBrand2Cate1\tCate1:0\n")
    geo, func = split_subgraphs(parse_triplets(text))
    assert geo.n_pois == func.n_pois == 3
    geo_head, _, geo_tail = geo.local_edges()
    func_head, _, func_tail = func.local_edges()
    # geo side: BusinessArea block then Region block
    assert geo.entity_count == 1 + 2
    assert geo_tail.tolist() == [3 + 1 + 1]              # Region:1
    # func side: Brand, Cate1, Cate2, Cate3 blocks
    assert func.entity_count == 2 + 1
    assert func_tail.tolist() == [3 + 1, 3 + 2]          # Brand:1, Cate1:0
    # POIs map to the same ids on both sides
    assert geo_head[0] == func_head[0] == 2              # POI:2


def edge_lists(dst, src, rel):
    """Per-node (relation row, neighbor) lists in aggregation order."""
    out = {}
    for d, s, r in zip(dst.tolist(), src.tolist(), rel.tolist()):
        out.setdefault(d, []).append((r, s))
    return out


def test_adjacency_single_triplet():
    kg = parse_triplets("POI:0\tLocateAt\tRegion:0\n")
    geo, _ = split_subgraphs(kg)
    edges = edge_lists(*build_adjacency(geo))
    rid = ukg.RELATIONS["LocateAt"].local_id
    assert edges[0] == [(rid, 1)]   # p0 -> region0 (local id 1)
    assert edges[1] == [(rid, 0)]   # region0 receives inverse


def test_adjacency_star_graph():
    lines = [f"POI:{i}\tLocateAt\tRegion:0" for i in range(10)]
    geo, _ = split_subgraphs(parse_triplets("\n".join(lines)))
    edges = edge_lists(*build_adjacency(geo))
    region_node = 10  # after 10 POIs, no business areas
    entries = edges[region_node]
    assert len(entries) == 10
    # every POI sends its forward edge to the region, which receives inverses
    assert all(edges[i] == [(entries[0][0], region_node)] for i in range(10))
    assert [nb for _, nb in entries] == list(range(10))  # sorted


def test_adjacency_degree_sum_is_twice_triplets():
    rng = np.random.default_rng(0)
    lines = set()
    for _ in range(200):
        p, r = rng.integers(0, 30), rng.integers(0, 8)
        lines.add(f"POI:{p}\tLocateAt\tRegion:{r}")
        b = rng.integers(0, 12)
        lines.add(f"POI:{p}\tBrandOf\tBrand:{b}")
    kg = parse_triplets("\n".join(sorted(lines)))
    geo, func = split_subgraphs(kg)
    for sub in (geo, func):
        dst, _, _ = build_adjacency(sub)
        assert len(dst) == 2 * len(sub.triplets)


def test_adjacency_lists_sorted():
    lines = ["POI:0\tLocateAt\tRegion:1", "POI:0\tLocateAt\tRegion:0",
             "POI:0\tBelongTo\tBusinessArea:0"]
    geo, _ = split_subgraphs(parse_triplets("\n".join(lines)))
    dst, src, rel = build_adjacency(geo)
    assert dst.tolist() == sorted(dst.tolist())
    edges = edge_lists(dst, src, rel)
    assert edges[0] == sorted(edges[0])


def test_blended_subgraph_keeps_everything():
    text = "\n".join(one_legal_triplet(n) for n in ukg.RELATIONS)
    kg = parse_triplets(text)
    blend = blended_subgraph(kg)
    assert len(blend.triplets) == 16
    assert blend.entity_count == sum(kg.populations[c] for c in ukg.ENTITY_CLASSES
                                     if c != "POI")
    _, rows, _ = blend.local_edges()
    assert sorted(rows.tolist()) == list(range(16))
    dst, _, _ = build_adjacency(blend)
    assert len(dst) == 32


def test_urbankg_rejects_out_of_range_relation_id():
    for rid in (len(ukg.RELATIONS), -1):
        with pytest.raises(ukg.UnknownRelation):
            UrbanKG([(rid, 0, 0)])
    with pytest.raises(ValueError):
        UrbanKG([(RELATION_IDS["LocateAt"], -1, 0)])


def test_urbankg_rejects_duplicates_directly():
    t = (RELATION_IDS["LocateAt"], 0, 0)
    with pytest.raises(ukg.DuplicateTriplet):
        UrbanKG([t, t])
