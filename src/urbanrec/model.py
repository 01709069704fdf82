"""Trainable parameters, intent attention, and checkpoint io.

Users and POIs carry two embedding chunks of size d each: a geographical one
trained against the geographical subgraph and a functional one trained
against the functional subgraph.  Each chunk's table also holds that side's
non-POI entities, laid out [users, POIs, entities].  Intents are softmax
mixtures over relation embeddings; all six tensors, the mixture scores S
included, start Xavier-uniform, so the intents start distinct.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad

INIT_STREAM = 21

CHECKPOINT_MAGIC = b"UKGR"
CHECKPOINT_VERSION = 1

PARAM_NAMES = ("E_g", "E_f", "R_g", "R_f", "S_g", "S_f")
GEO_PARAM_NAMES = ("E_g", "R_g", "S_g")


class DimsMismatch(ValueError):
    pass


@dataclass(frozen=True)
class ModelDims:
    n_users: int
    n_pois: int
    n_geo_entities: int
    n_func_entities: int
    d: int = 32
    n_geo_relations: int = 5
    n_func_relations: int = 11
    n_intents_geo: int = 4
    n_intents_func: int = 4
    n_layers: int = 3

    def __post_init__(self):
        for name in ("n_users", "n_pois", "d", "n_geo_relations",
                     "n_func_relations", "n_intents_geo", "n_intents_func"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        # entity counts may be 0 (a side with no non-POI entities) and
        # n_layers may be 0 (propagation becomes the identity)
        for name in ("n_geo_entities", "n_func_entities", "n_layers"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def geo_rows(self) -> int:
        return self.n_users + self.n_pois + self.n_geo_entities

    @property
    def func_rows(self) -> int:
        return self.n_users + self.n_pois + self.n_func_entities

    @property
    def shapes(self) -> dict:
        """(rows, cols) of each parameter tensor, in PARAM_NAMES order."""
        return {"E_g": (self.geo_rows, self.d), "E_f": (self.func_rows, self.d),
                "R_g": (self.n_geo_relations, self.d),
                "R_f": (self.n_func_relations, self.d),
                "S_g": (self.n_intents_geo, self.n_geo_relations),
                "S_f": (self.n_intents_func, self.n_func_relations)}


@dataclass
class ModelParams:
    """The six trainable tensors.  ``blended`` marks checkpoints trained on
    the unsplit graph (the no-disentanglement ablation), where both sides
    cover all entities and all 16 relations."""

    dims: ModelDims
    E_g: ad.Tensor
    E_f: ad.Tensor
    R_g: ad.Tensor
    R_f: ad.Tensor
    S_g: ad.Tensor
    S_f: ad.Tensor
    blended: bool = False

    def named_tensors(self) -> list[tuple[str, ad.Tensor]]:
        return [(n, getattr(self, n)) for n in PARAM_NAMES]

    def geo_tensors(self) -> list[tuple[str, ad.Tensor]]:
        return [(n, getattr(self, n)) for n in GEO_PARAM_NAMES]

    def zero_grad(self) -> None:
        for _, t in self.named_tensors():
            t.grad = None

    def copy(self) -> "ModelParams":
        ts = {n: ad.Tensor(t.data.copy(), requires_grad=True)
              for n, t in self.named_tensors()}
        return ModelParams(self.dims, blended=self.blended, **ts)


def _xavier(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


def init_params(dims: ModelDims, seed: int, blended: bool = False) -> ModelParams:
    """Xavier-uniform tensors, each on stream [seed, INIT_STREAM, its index]."""
    mats = {}
    for k, name in enumerate(PARAM_NAMES):
        rng = np.random.default_rng(np.random.SeedSequence([seed, INIT_STREAM, k]))
        mats[name] = ad.Tensor(_xavier(rng, *dims.shapes[name]), requires_grad=True)
    return ModelParams(dims, blended=blended, **mats)


@dataclass
class IntentSet:
    """Intent embeddings e_i = Σ_j α(i,j)·r_j with α = row-softmax(S)."""

    alpha: ad.Tensor       # |I| x |R|
    embeddings: ad.Tensor  # |I| x d

    @property
    def n_intents(self) -> int:
        return self.alpha.shape[0]


def intent_embeddings(S: ad.Tensor, R: ad.Tensor) -> IntentSet:
    alpha = ad.softmax(S, axis=1)
    return IntentSet(alpha, alpha @ R)


def user_intent_attention(u0: ad.Tensor, intents: IntentSet) -> ad.Tensor:
    """Per-user softmax over intents of the dot product with layer-0 users.

    Returns an N x |I| matrix; rows sum to 1.
    """
    return ad.softmax(u0 @ intents.embeddings.T, axis=1)


# -- checkpoint format ------------------------------------------------------------
#
# Binary, little-endian, written in one deterministic pass so identical
# parameters always produce identical bytes:
#   magic "UKGR" | u32 version | u8 mode (0 split, 1 blended)
#   10 x u64: d, n_users, n_pois, n_geo_entities, n_func_entities,
#             n_geo_relations, n_func_relations, n_intents_geo,
#             n_intents_func, n_layers
#   six float64 row-major blocks in order E_g, E_f, R_g, R_f, S_g, S_f.

_DIM_FIELDS = ("d", "n_users", "n_pois", "n_geo_entities", "n_func_entities",
               "n_geo_relations", "n_func_relations", "n_intents_geo",
               "n_intents_func", "n_layers")


def save_checkpoint(params: ModelParams, path: str) -> None:
    dims = params.dims
    header = CHECKPOINT_MAGIC + struct.pack("<IB", CHECKPOINT_VERSION,
                                            1 if params.blended else 0)
    header += struct.pack("<10Q", *(getattr(dims, f) for f in _DIM_FIELDS))
    with open(path, "wb") as fh:
        fh.write(header)
        for _, t in params.named_tensors():
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def load_checkpoint(path: str) -> ModelParams:
    """Read a checkpoint; its dims come from its own header."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a parameter checkpoint")
    offset = 9 + 80  # magic, version, mode and the ten dims
    if len(blob) < offset:
        raise ValueError(f"{path}: truncated checkpoint")
    version, mode = struct.unpack_from("<IB", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    vals = struct.unpack_from("<10Q", blob, 9)
    try:
        dims = ModelDims(**{f: int(v) for f, v in zip(_DIM_FIELDS, vals)})
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    size = offset + 8 * sum(rows * cols for rows, cols in dims.shapes.values())
    if len(blob) != size:
        raise ValueError(f"{path}: truncated checkpoint" if len(blob) < size
                         else f"{path}: trailing bytes in checkpoint")
    mats = {}
    for name, (rows, cols) in dims.shapes.items():
        count = rows * cols
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        offset += count * 8
        mats[name] = ad.Tensor(arr.reshape(rows, cols).copy(), requires_grad=True)
    return ModelParams(dims, blended=bool(mode), **mats)
