"""Urban knowledge graph: schema, parsing, subgraph split, adjacency.

The graph links POIs to six other entity classes through 16 typed relations.
Five relations describe where things are (geographical kind), eleven describe
what things are (functional kind).  Splitting the triplets by relation kind
yields the two subgraphs the embedding model propagates over; POIs keep the
same ids on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


GEO = "Geographical"
FUNC = "Functional"

ENTITY_CLASSES = ("POI", "BusinessArea", "Region", "Brand", "Cate1", "Cate2", "Cate3")

# Non-POI classes that can appear in each subgraph, in the order their id
# blocks are laid out inside the entity embedding table (alphabetical).
GEO_ENTITY_CLASSES = ("BusinessArea", "Region")
FUNC_ENTITY_CLASSES = ("Brand", "Cate1", "Cate2", "Cate3")


@dataclass(frozen=True)
class RelationType:
    name: str
    kind: str
    head_class: str
    tail_class: str
    local_id: int  # position within its kind, used to index relation embeddings


def _make_relations() -> dict[str, RelationType]:
    rows = [
        # name, kind, head, tail  (alphabetical within kind; local ids follow)
        ("BaServe", GEO, "BusinessArea", "Region"),
        ("BelongTo", GEO, "POI", "BusinessArea"),
        ("BorderBy", GEO, "Region", "Region"),
        ("LocateAt", GEO, "POI", "Region"),
        ("NearBy", GEO, "Region", "Region"),
        ("Brand2Cate1", FUNC, "Brand", "Cate1"),
        ("Brand2Cate2", FUNC, "Brand", "Cate2"),
        ("Brand2Cate3", FUNC, "Brand", "Cate3"),
        ("BrandOf", FUNC, "POI", "Brand"),
        ("Cate1Of", FUNC, "POI", "Cate1"),
        ("Cate2Of", FUNC, "POI", "Cate2"),
        ("Cate3Of", FUNC, "POI", "Cate3"),
        ("RelatedBrand", FUNC, "Brand", "Brand"),
        ("SubCate_2to1", FUNC, "Cate2", "Cate1"),
        ("SubCate_3to1", FUNC, "Cate3", "Cate1"),
        ("SubCate_3to2", FUNC, "Cate3", "Cate2"),
    ]
    out: dict[str, RelationType] = {}
    counters = {GEO: 0, FUNC: 0}
    for name, kind, head, tail in rows:
        out[name] = RelationType(name, kind, head, tail, counters[kind])
        counters[kind] += 1
    return out


RELATIONS: dict[str, RelationType] = _make_relations()
# A relation's id is its position here: the geographical relations, then the
# functional ones, which is also its row in the blended 16-row table.
RELATION_IDS = {name: i for i, name in enumerate(RELATIONS)}
# one "HeadClass:%d<TAB>Relation<TAB>TailClass:%d" text line per relation id
_ROW_FORMATS = tuple(f"{r.head_class}:%d\t{r.name}\t{r.tail_class}:%d"
                     for r in RELATIONS.values())
GEO_RELATIONS = tuple(r.name for r in RELATIONS.values() if r.kind == GEO)
FUNC_RELATIONS = tuple(r.name for r in RELATIONS.values() if r.kind == FUNC)
N_GEO_RELATIONS = len(GEO_RELATIONS)    # 5
N_FUNC_RELATIONS = len(FUNC_RELATIONS)  # 11


class UnknownRelation(ValueError):
    pass


class ClassMismatch(ValueError):
    pass


class MalformedLine(ValueError):
    pass


class DuplicateTriplet(ValueError):
    pass


def _class_codes(attr: str) -> np.ndarray:
    return np.array([ENTITY_CLASSES.index(getattr(r, attr))
                     for r in RELATIONS.values()])


# class code (position in ENTITY_CLASSES) of each relation id's head and tail
_HEAD_CLASS = _class_codes("head_class")
_TAIL_CLASS = _class_codes("tail_class")


def _first_duplicate(rows: np.ndarray) -> int:
    """Position of the first row that repeats an earlier row, or -1."""
    order = np.lexsort(rows.T[::-1])  # stable: repeats follow their first
    ordered = rows[order]
    repeats = order[1:][np.all(ordered[1:] == ordered[:-1], axis=1)]
    return int(repeats.min()) if len(repeats) else -1


@dataclass
class UrbanKG:
    """Validated triplet store.

    ``triplets`` is an (n, 3) int64 array of (relation id, head index, tail
    index) rows in file order.  The relation id is the position in
    ``RELATIONS``; the head and tail classes follow from the relation schema,
    and indices count within their class.
    """

    triplets: np.ndarray
    populations: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        rows = np.asarray(self.triplets, dtype=np.int64).reshape(len(self.triplets), 3)
        self.triplets = rows
        rid, head, tail = rows.T
        bad = rid[(rid < 0) | (rid >= len(RELATIONS))]
        if len(bad):
            raise UnknownRelation(f"relation id {bad[0]} not in [0, {len(RELATIONS)})")
        if np.any(rows[:, 1:] < 0):
            raise ValueError("negative entity id")
        dup = _first_duplicate(rows)
        if dup >= 0:
            r, h, t = rows[dup].tolist()
            raise DuplicateTriplet(_ROW_FORMATS[r] % (h, t))
        observed = np.zeros(len(ENTITY_CLASSES), dtype=np.int64)
        np.maximum.at(observed, np.concatenate([_HEAD_CLASS[rid], _TAIL_CLASS[rid]]),
                      np.concatenate([head, tail]) + 1)
        observed = dict(zip(ENTITY_CLASSES, observed.tolist()))
        if not self.populations:
            self.populations = observed
        else:
            for cls in ENTITY_CLASSES:
                stated = self.populations.get(cls, 0)
                if stated < observed[cls]:
                    raise ValueError(
                        f"stated population {cls}={stated} but ids require "
                        f">= {observed[cls]}"
                    )
            self.populations = {c: self.populations.get(c, 0) for c in ENTITY_CLASSES}

    @property
    def n_pois(self) -> int:
        return self.populations.get("POI", 0)


@dataclass
class SubGraph:
    """The triplet rows of one relation kind, plus that side's entity id layout.

    Non-POI entities get a dense local id: entity classes are laid out in
    alphabetical blocks after the POIs, and ``entity_count`` is the total
    non-POI population on this side (W for geographical, Q for functional).
    """

    kind: str
    triplets: np.ndarray
    n_pois: int
    class_offsets: dict[str, int]
    entity_count: int

    def local_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(head node, relation row, tail node) of every triplet, with nodes
        in the propagation id space (POIs first, then the class blocks) and
        rows indexing this side's relation table."""
        base = {c: self.n_pois + off for c, off in self.class_offsets.items()}
        base["POI"] = 0
        node_base = np.array([base.get(c, 0) for c in ENTITY_CLASSES])
        rid, head, tail = self.triplets.T
        first_row = N_GEO_RELATIONS if self.kind == FUNC else 0
        return (node_base[_HEAD_CLASS[rid]] + head, rid - first_row,
                node_base[_TAIL_CLASS[rid]] + tail)


def _subgraph(kg: UrbanKG, kind: str, classes: tuple, rows: np.ndarray) -> SubGraph:
    offsets: dict[str, int] = {}
    total = 0
    for cls in classes:
        offsets[cls] = total
        total += kg.populations.get(cls, 0)
    return SubGraph(kind, rows, kg.n_pois, offsets, total)


def split_subgraphs(kg: UrbanKG) -> tuple[SubGraph, SubGraph]:
    """Partition triplets by relation kind into (geographical, functional)."""
    geo = kg.triplets[:, 0] < N_GEO_RELATIONS  # geographical ids come first
    return (_subgraph(kg, GEO, GEO_ENTITY_CLASSES, kg.triplets[geo]),
            _subgraph(kg, FUNC, FUNC_ENTITY_CLASSES, kg.triplets[~geo]))


def blended_subgraph(kg: UrbanKG) -> SubGraph:
    """All 16 relations in one graph; used by the no-disentanglement ablation.

    The relation id doubles as the row of the single 16-row relation table.
    """
    return _subgraph(kg, "Blended", GEO_ENTITY_CLASSES + FUNC_ENTITY_CLASSES,
                     kg.triplets)


def build_adjacency(sub: SubGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge arrays (dst, src, rel) of a subgraph in aggregation order.

    Each triplet contributes one forward edge into its head and one inverse
    edge into its tail, so every entity can both send and receive messages.
    Edges are ordered by destination, then relation row, then source, with
    a forward edge before an inverse edge that ties with it.
    """
    head, rel, tail = sub.local_edges()
    dst = np.concatenate([head, tail])
    src = np.concatenate([tail, head])
    rel = np.concatenate([rel, rel])
    order = np.lexsort((src, rel, dst))
    return dst[order], src[order], rel[order]


# -- text format ------------------------------------------------------------------
#
# One triplet per line: "HeadClass:head_id<TAB>Relation<TAB>TailClass:tail_id".
# Lines starting with # are comments, except an optional header of the form
# "#counts POI=<n> Region=<n> ..." which states class populations explicitly
# (needed when a class has entities no triplet references).


def _parse_ref(token: str, lineno: int) -> tuple[str, int]:
    cls, sep, idx = token.partition(":")
    if not sep or cls not in ENTITY_CLASSES:
        raise MalformedLine(f"line {lineno}: bad entity reference {token!r}")
    try:
        index = int(idx)
    except ValueError:
        raise MalformedLine(f"line {lineno}: bad entity id {idx!r}") from None
    if index < 0:
        raise MalformedLine(f"line {lineno}: negative entity id {index}")
    return cls, index


def _parse_counts_header(line: str, lineno: int) -> dict[str, int]:
    counts: dict[str, int] = {}
    for part in line[len("#counts"):].split():
        cls, sep, val = part.partition("=")
        if not sep or cls not in ENTITY_CLASSES:
            raise MalformedLine(f"line {lineno}: bad counts entry {part!r}")
        try:
            counts[cls] = int(val)
        except ValueError:
            raise MalformedLine(f"line {lineno}: bad count {val!r}") from None
    return counts


def parse_triplets(text: str) -> UrbanKG:
    """Parse the triplet TSV format into a validated graph."""
    flat: list[int] = []      # rid, head, tail of each triplet line
    linenos: list[int] = []
    populations: dict[str, int] = {}
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("#counts"):
                populations = _parse_counts_header(line, lineno)
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise MalformedLine(f"line {lineno}: expected 3 tab-separated fields")
        head_cls, head = _parse_ref(parts[0], lineno)
        rel = RELATIONS.get(parts[1])
        if rel is None:
            raise UnknownRelation(f"line {lineno}: {parts[1]!r}")
        tail_cls, tail = _parse_ref(parts[2], lineno)
        if head_cls != rel.head_class or tail_cls != rel.tail_class:
            raise ClassMismatch(
                f"line {lineno}: {rel.name} expects ({rel.head_class}, "
                f"{rel.tail_class}), got ({head_cls}, {tail_cls})")
        flat += (RELATION_IDS[rel.name], head, tail)
        linenos.append(lineno)
    rows = np.array(flat, dtype=np.int64).reshape(-1, 3)
    dup = _first_duplicate(rows)
    if dup >= 0:
        lineno = linenos[dup]
        raise DuplicateTriplet(f"line {lineno}: {lines[lineno - 1].strip()!r}")
    return UrbanKG(rows, populations)


def serialize_triplets(kg: UrbanKG) -> str:
    """Inverse of parse_triplets; always emits the counts header."""
    lines = ["#counts " + " ".join(f"{c}={kg.populations.get(c, 0)}"
                                   for c in ENTITY_CLASSES)]
    rids, heads, tails = (col.tolist() for col in kg.triplets.T)
    lines += [_ROW_FORMATS[rid] % (head, tail)
              for rid, head, tail in zip(rids, heads, tails)]
    return "\n".join(lines) + "\n"
