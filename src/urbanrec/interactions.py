"""Check-in data, train/val/test splits, and BPR pair sampling."""

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

    ``pairs`` is deduplicated by construction.  Views produced by splitting
    may leave some users empty; the full dataset parsed from disk or emitted
    by the generator always has at least one pair per user.
    """

    n_users: int
    n_pois: int
    pairs: frozenset
    by_user: list = field(init=False, repr=False)

    def __post_init__(self):
        self.pairs = frozenset(self.pairs)
        lists: list[list[int]] = [[] for _ in range(self.n_users)]
        for u, p in self.pairs:
            if not (0 <= u < self.n_users):
                raise ValueError(f"user id {u} out of range [0, {self.n_users})")
            if not (0 <= p < self.n_pois):
                raise ValueError(f"poi id {p} out of range [0, {self.n_pois})")
            lists[u].append(p)
        self.by_user = [np.array(sorted(l), dtype=np.int64) for l in lists]

    def __len__(self) -> int:
        return len(self.pairs)

    def user_pois(self, u: int) -> np.ndarray:
        return self.by_user[u]


@dataclass
class DatasetSplit:
    """Disjoint train/val/test views over one interaction set."""

    train: InteractionSet
    val: InteractionSet
    test: InteractionSet
    full_by_user: list = field(init=False, repr=False)
    _train_users: np.ndarray = field(init=False, repr=False)
    _train_pois: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n_users, n_pois = self.train.n_users, self.train.n_pois
        if (self.val.n_users, self.test.n_users) != (n_users, n_users) or \
           (self.val.n_pois, self.test.n_pois) != (n_pois, n_pois):
            raise ValueError("split views must share id spaces")
        if (self.train.pairs & self.val.pairs) or (self.train.pairs & self.test.pairs) \
                or (self.val.pairs & self.test.pairs):
            raise ValueError("split views must be disjoint")
        full = self.train.pairs | self.val.pairs | self.test.pairs
        sets: list[set] = [set() for _ in range(n_users)]
        for u, p in full:
            sets[u].add(p)
        self.full_by_user = sets
        arr = np.array(sorted(self.train.pairs), dtype=np.int64).reshape(-1, 2)
        self._train_users = arr[:, 0]
        self._train_pois = arr[:, 1]

    @property
    def n_users(self) -> int:
        return self.train.n_users

    @property
    def n_pois(self) -> int:
        return self.train.n_pois


def parse_checkins(text: str) -> InteractionSet:
    """Parse "user<TAB>poi" lines; ids dense, counts inferred as max id + 1."""
    pairs: set[tuple[int, int]] = set()
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
        pairs.add((u, p))
    if not pairs:
        raise EmptyDataset("no check-in pairs found")
    n_users = max(u for u, _ in pairs) + 1
    n_pois = max(p for _, p in pairs) + 1
    iset = InteractionSet(n_users, n_pois, frozenset(pairs))
    for u in range(n_users):
        if len(iset.by_user[u]) == 0:
            raise EmptyDataset(f"user {u} has no check-ins")
    return iset


def serialize_checkins(iset: InteractionSet) -> str:
    lines = [f"{u}\t{p}" for u in range(iset.n_users) for p in iset.by_user[u]]
    return "\n".join(lines) + "\n"


def split_dataset(iset: InteractionSet, ratios: tuple[float, float, float],
                  seed: int) -> DatasetSplit:
    """Per-user stratified split.

    Users with fewer than 3 pairs put everything in train.  Otherwise val and
    test each get max(1, floor(n * ratio)) pairs and train keeps the rest,
    with pairs pulled back from test then val if train would end up empty.
    """
    r_train, r_val, r_test = ratios
    if min(ratios) <= 0 or abs(sum(ratios) - 1.0) > 1e-9:
        raise BadRatios(f"ratios must be positive and sum to 1, got {ratios}")
    train: set = set()
    val: set = set()
    test: set = set()
    for u in range(iset.n_users):
        pois = iset.by_user[u]
        n = len(pois)
        if n == 0:
            continue
        if n < 3:
            train.update((u, int(p)) for p in pois)
            continue
        rng = np.random.default_rng(np.random.SeedSequence([seed, SPLIT_STREAM, u]))
        perm = pois[rng.permutation(n)]
        n_val = max(1, int(np.floor(n * r_val)))
        n_test = max(1, int(np.floor(n * r_test)))
        n_train = n - n_val - n_test
        while n_train < 1:
            if n_test > 1:
                n_test -= 1
            else:
                n_val -= 1
            n_train = n - n_val - n_test
        train.update((u, int(p)) for p in perm[:n_train])
        val.update((u, int(p)) for p in perm[n_train:n_train + n_val])
        test.update((u, int(p)) for p in perm[n_train + n_val:])
    make = lambda pairs: InteractionSet(iset.n_users, iset.n_pois, frozenset(pairs))
    return DatasetSplit(make(train), make(val), make(test))


def sample_bpr_batch(split: DatasetSplit, batch_size: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Draw BPR triples as (batch_size, 3) rows of (user, positive, negative):
    uniform train positives, rejection-sampled negatives.

    Negatives are rejected against the user's FULL positive set (train, val
    and test) so evaluation targets are never trained on as negatives.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n_train = len(split._train_users)
    if n_train == 0:
        raise EmptyDataset("no training pairs to sample from")
    n_pois = split.n_pois
    idx = rng.integers(0, n_train, size=batch_size)
    out = np.empty((batch_size, 3), dtype=np.int64)
    out[:, 0] = split._train_users[idx]
    out[:, 1] = split._train_pois[idx]
    negs = []
    for u in out[:, 0].tolist():
        positives = split.full_by_user[u]
        if len(positives) >= n_pois:
            raise SaturatedUser(f"user {u} interacted with every poi")
        neg = int(rng.integers(0, n_pois))
        while neg in positives:
            neg = int(rng.integers(0, n_pois))
        negs.append(neg)
    out[:, 2] = negs
    return out


def batch_arrays(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column views (users, positives, negatives) for vectorized scoring."""
    users, pos, neg = batch.T
    return users, pos, neg
