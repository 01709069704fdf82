"""Check-in data, train/val/test splits, and rejection-sampled negatives."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Stream tags for np.random.SeedSequence([seed, tag, ...]); keeping every
# consumer on its own tagged stream makes runs reproducible regardless of
# the order components draw in.
SPLIT_STREAM = 11


class MalformedLine(ValueError):
    pass


class EmptyDataset(ValueError):
    pass


class BadRatios(ValueError):
    pass


class SaturatedUser(ValueError):
    pass


@dataclass
class InteractionSet:
    """A set of (user, poi) check-in pairs over fixed id spaces.

    ``ids``, given as an (n, 2) array or an iterable of pairs, is kept as a
    read-only (n, 2) int64 array sorted by (user, poi) without duplicates;
    ``keys`` holds its ``user * n_pois + poi`` values and user u's rows are
    ``indptr[u]:indptr[u + 1]``.  Split views may leave users empty; parsed
    or generated data has at least one pair per user.
    """

    n_users: int
    n_pois: int
    ids: np.ndarray
    keys: np.ndarray = field(init=False, repr=False)
    indptr: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ids = self.ids if isinstance(self.ids, np.ndarray) else list(self.ids)
        ids = np.asarray(ids, dtype=np.int64).reshape(-1, 2)
        for name, col, n in zip(("user", "poi"), ids.T, (self.n_users, self.n_pois)):
            bad = col[(col < 0) | (col >= n)]
            if len(bad):
                raise ValueError(f"{name} id {bad[0]} out of range [0, {n})")
        if self.n_users * self.n_pois >= 2 ** 63:
            raise ValueError("user x poi id space overflows int64 keys")
        self.keys = np.unique(ids[:, 0] * self.n_pois + ids[:, 1])
        self.ids = np.column_stack(np.divmod(self.keys, self.n_pois))
        self.indptr = np.searchsorted(
            self.keys, np.arange(self.n_users + 1) * self.n_pois)
        for arr in (self.ids, self.keys, self.indptr):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def pairs(self) -> frozenset:
        """The pairs as a frozenset of (user, poi) tuples, built on each call."""
        return frozenset(zip(*self.ids.T.tolist()))

    def user_pois(self, u: int) -> np.ndarray:
        return self.ids[self.indptr[u]:self.indptr[u + 1], 1]

    def contains(self, users: np.ndarray, pois: np.ndarray) -> np.ndarray:
        """Whether each (users[i], pois[i]) is in the set."""
        keys = users * self.n_pois + pois
        if not len(self.keys):
            return np.zeros(keys.shape, dtype=bool)
        # clipping reads a key past the end as the largest key, which is smaller
        return self.keys.take(self.keys.searchsorted(keys), mode="clip") == keys


@dataclass
class DatasetSplit:
    """Disjoint train/val/test views over one interaction set; ``full`` is
    their union."""

    train: InteractionSet
    val: InteractionSet
    test: InteractionSet
    full: InteractionSet = field(init=False, repr=False)

    def __post_init__(self):
        views = (self.train, self.val, self.test)
        if len({(v.n_users, v.n_pois) for v in views}) > 1:
            raise ValueError("split views must share id spaces")
        self.full = InteractionSet(self.n_users, self.n_pois,
                                   np.concatenate([v.ids for v in views]))
        # each view is deduplicated, so only a shared pair shrinks the union
        if len(self.full) != sum(len(v) for v in views):
            raise ValueError("split views must be disjoint")

    @property
    def n_users(self) -> int:
        return self.train.n_users

    @property
    def n_pois(self) -> int:
        return self.train.n_pois


def parse_checkins(text: str) -> InteractionSet:
    """Parse "user<TAB>poi" lines; ids dense, counts inferred as max id + 1."""
    ids: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise MalformedLine(f"line {lineno}: expected 2 tab-separated fields")
        try:
            u, p = int(parts[0]), int(parts[1])
        except ValueError:
            raise MalformedLine(f"line {lineno}: non-integer id") from None
        if u < 0 or p < 0:
            raise MalformedLine(f"line {lineno}: negative id")
        ids += (u, p)
    if not ids:
        raise EmptyDataset("no check-in pairs found")
    arr = np.array(ids, dtype=np.int64).reshape(-1, 2)
    n_users, n_pois = (int(m) + 1 for m in arr.max(axis=0))
    iset = InteractionSet(n_users, n_pois, arr)
    empty = np.flatnonzero(np.diff(iset.indptr) == 0)
    if len(empty):
        raise EmptyDataset(f"user {empty[0]} has no check-ins")
    return iset


def serialize_checkins(iset: InteractionSet) -> str:
    lines = [f"{u}\t{p}" for u, p in iset.ids.tolist()]
    return "\n".join(lines) + "\n"


def split_dataset(iset: InteractionSet, ratios: tuple[float, float, float],
                  seed: int) -> DatasetSplit:
    """Per-user stratified split.

    Users with fewer than 3 pairs put everything in train.  Otherwise val and
    test each get max(1, floor(n * ratio)) pairs and train keeps the rest,
    with pairs pulled back from test then val if train would end up empty.
    """
    _, r_val, r_test = ratios
    if not (np.all(np.isfinite(ratios)) and min(ratios) > 0
            and abs(sum(ratios) - 1.0) <= 1e-9):
        raise BadRatios(f"ratios must be finite, positive and sum to 1, "
                        f"got {ratios}")
    # 0/1/2 = train/val/test for each row of iset.ids
    labels = np.zeros(len(iset), dtype=np.int8)
    starts = iset.indptr.tolist()
    for u in range(iset.n_users):
        start, n = starts[u], starts[u + 1] - starts[u]
        if n < 3:
            continue
        rng = np.random.default_rng(np.random.SeedSequence([seed, SPLIT_STREAM, u]))
        perm = start + rng.permutation(n)
        n_val = max(1, int(np.floor(n * r_val)))
        n_test = min(max(1, int(np.floor(n * r_test))), max(1, n - 1 - n_val))
        n_val = min(n_val, n - 1 - n_test)
        labels[perm[n - n_test - n_val:]] = 1
        labels[perm[n - n_test:]] = 2
    make = lambda k: InteractionSet(iset.n_users, iset.n_pois, iset.ids[labels == k])
    return DatasetSplit(make(0), make(1), make(2))


def sample_negatives(full: InteractionSet, users: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    """Per entry of ``users``, a uniform POI redrawn while (user, poi) is in
    ``full``: the values and ``rng`` state of one scalar ``rng.integers`` call
    per draw.  All first draws are tested at once; a rejected one moves later
    entries one draw down the stream, and a window from it is tested again.
    """
    n, n_pois = len(users), full.n_pois
    out = rng.integers(0, n_pois, size=n)
    k, span = 0, n
    while k < n:
        rejected = full.contains(users[k:k + span], out[k:k + span])
        j = int(rejected.argmax())
        if not rejected[j]:
            k += span
            continue
        k, u = k + j, users[k + j]
        if full.indptr[u + 1] - full.indptr[u] >= n_pois:
            raise SaturatedUser(f"user {u} interacted with every poi")
        out[k:-1] = out[k + 1:]
        out[-1] = rng.integers(0, n_pois)
        span = 64  # short re-tests: the next rejection shifts everything after it again
    return out


def sample_bpr_batch(split: DatasetSplit, batch_size: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Draw BPR triples as (batch_size, 3) rows of (user, positive, negative):
    uniform train positives, rejection-sampled negatives.

    Negatives are rejected against the user's FULL positive set (train, val
    and test) so evaluation targets are never trained on as negatives.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n_train = len(split.train)
    if n_train == 0:
        raise EmptyDataset("no training pairs to sample from")
    out = np.empty((batch_size, 3), dtype=np.int64)
    out[:, :2] = split.train.ids[rng.integers(0, n_train, size=batch_size)]
    out[:, 2] = sample_negatives(split.full, out[:, 0], rng)
    return out


def batch_arrays(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column views (users, positives, negatives) for vectorized scoring."""
    users, pos, neg = batch.T
    return users, pos, neg
