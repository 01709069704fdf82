"""Independent brute-force oracles used by unit and acceptance tests.

Everything here is written as plainly as possible (scalar loops, direct
formulas, no autodiff, no sparse algebra) so it can serve as an independent
reference for the vectorized implementations in the package.  Do not import
package internals beyond plain data containers.
"""

import math

import numpy as np


# -- distance correlation ------------------------------------------------------


def naive_dcor(x: np.ndarray, y: np.ndarray) -> float:
    """Distance correlation of two d-vectors, coordinates as scalar samples."""
    d = len(x)
    A = np.empty((d, d))
    B = np.empty((d, d))
    for i in range(d):
        for j in range(d):
            A[i, j] = abs(x[i] - x[j])
            B[i, j] = abs(y[i] - y[j])

    def center(M):
        return M - M.mean(axis=0) - M.mean(axis=1)[:, None] + M.mean()

    A, B = center(A), center(B)
    dvar_x = np.sqrt(max(0.0, (A * A).mean()))
    dvar_y = np.sqrt(max(0.0, (B * B).mean()))
    if dvar_x < 1e-12 or dvar_y < 1e-12:
        return 0.0
    dcov = np.sqrt(max(0.0, (A * B).mean()))
    return dcov / np.sqrt(dvar_x * dvar_y)


# -- propagation ------------------------------------------------------------------


def naive_softmax_rows(S: np.ndarray) -> np.ndarray:
    out = np.empty_like(S, dtype=np.float64)
    for i in range(S.shape[0]):
        row = S[i] - S[i].max()
        e = np.exp(row)
        out[i] = e / e.sum()
    return out


def naive_propagation(E, S, R, triplets, train_pois, n_users, n_layers):
    """Reference propagation for one subgraph side.

    E: (n_users + n_nodes) x d raw embeddings (users first, then POIs and
       entities in the node id space); S: |I| x |R|; R: |R| x d.
    triplets: list of (head_node, relation_id, tail_node) in node-local ids.
    train_pois: per-user list of POI node ids (positives used for training).
    Returns a list of (U, X) states, one per layer starting at layer 0.
    """
    U = np.array(E[:n_users], dtype=np.float64)
    X = np.array(E[n_users:], dtype=np.float64)
    n_nodes = X.shape[0]
    n_intents = S.shape[0]

    alpha = naive_softmax_rows(S)
    e_int = np.zeros((n_intents, E.shape[1]))
    for i in range(n_intents):
        for j in range(R.shape[0]):
            e_int[i] += alpha[i, j] * R[j]
    beta = naive_softmax_rows(U @ e_int.T)  # from layer-0 users, fixed

    neighborhoods = [[] for _ in range(n_nodes)]
    for h, rid, t in triplets:
        neighborhoods[h].append((rid, t))
        neighborhoods[t].append((rid, h))

    states = [(U.copy(), X.copy())]
    for _ in range(n_layers):
        X_next = X.copy()
        for node in range(n_nodes):
            nbrs = neighborhoods[node]
            if not nbrs:
                continue
            acc = np.zeros(X.shape[1])
            for rid, other in nbrs:
                acc += R[rid] * X[other]
            X_next[node] = X[node] + acc / len(nbrs)
        U_next = U.copy()
        for u in range(n_users):
            pois = train_pois[u]
            if len(pois) == 0:
                continue
            acc = np.zeros(U.shape[1])
            for k in range(n_intents):
                for p in pois:
                    acc += beta[u, k] * e_int[k] * X[p]
            U_next[u] = U[u] + acc / (len(pois) * n_intents)
        U, X = U_next, X_next
        states.append((U.copy(), X.copy()))
    return states


# -- counterfactual scores --------------------------------------------------------


def naive_pair_scores(U, P, U_g, P_g, u, p) -> dict:
    """One (user, POI) pair's scores from scalar loops over the coordinates:
    y_up = u . p, te = y_up * tanh(u_g . p_g), and tie = te minus the
    geographical share, the reference (the plain average of the user's
    catalog matches) behind the same gate."""
    def dot(a, b):
        return sum(a[i] * b[i] for i in range(len(a)))
    y_up = dot(U[u], P[p])
    gate = math.tanh(dot(U_g[u], P_g[p]))
    ref = sum(dot(U[u], P[t]) for t in range(len(P))) / len(P)
    te = y_up * gate
    return {"y_up": y_up, "te": te, "tie": te - ref * gate}


# -- autodiff ---------------------------------------------------------------------


def retaining_backward(root) -> None:
    """Walk a scalar tape node's graph backwards, keeping every node's grad.

    The same depth-first topological order as ``Tensor.backward``, so sums
    into each gradient run in the same order; only the release of
    intermediate gradients is left out: each rule's shares are added to
    its parents' grads in parent order.
    """
    topo, seen, stack = [], set(), [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    root.grad = np.ones(())
    for node in reversed(topo):
        if node._bwd is not None:
            for parent, share in zip(node._parents, node._bwd(node.grad)):
                if share is not None:
                    parent.grad = share if parent.grad is None else parent.grad + share


# -- check-in draw -----------------------------------------------------------------


def naive_checkins(gt, stream: int) -> np.ndarray:
    """Sorted (user, poi) check-in rows of a generated city, keyed over the
    whole catalog: user u takes the k POIs with the largest
    log sigmoid(w) + Generator.gumbel keys, where w = taste . attr +
    geo_strength * proximity(home, POI region) and the noise comes from
    SeedSequence([seed, stream, u])."""
    cfg = gt.config
    side = math.ceil(math.sqrt(cfg.n_regions))
    prox = np.empty((cfg.n_regions, cfg.n_regions))
    for a in range(cfg.n_regions):
        for b in range(cfg.n_regions):
            d = abs(a // side - b // side) + abs(a % side - b % side)
            prox[a, b] = -2.0 * d / (d + 1.0)
    k = cfg.interactions_per_user
    rows = []
    for u in range(cfg.n_users):
        w = gt.taste[u] @ gt.attr.T \
            + cfg.geo_strength * prox[gt.home_region[u], gt.poi_region]
        log_weight = -np.logaddexp(0.0, -w)
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, stream, u]))
        keys = log_weight + rng.gumbel(size=cfg.n_pois)
        rows += [(u, p) for p in sorted(np.argpartition(-keys, k - 1)[:k].tolist())]
    return np.array(rows, dtype=np.int64)


# -- negative sampling -----------------------------------------------------------


def naive_negatives(positives, users, n_pois, rng):
    """One negative per user, in order: one scalar ``rng.integers`` call per
    draw, redrawn while (user, draw) is in the set ``positives``.  Returns
    the negatives and how many draws each one took."""
    negs, draws = [], []
    for u in users:
        neg, tries = int(rng.integers(0, n_pois)), 1
        while (u, neg) in positives:
            neg, tries = int(rng.integers(0, n_pois)), tries + 1
        negs.append(neg)
        draws.append(tries)
    return negs, draws


# -- metrics -------------------------------------------------------------------------


def naive_auc(pos_scores, neg_scores) -> float:
    """Pairwise win fraction with ties at 0.5, one user."""
    wins = 0.0
    for a in pos_scores:
        for b in neg_scores:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(pos_scores) * len(neg_scores))


def naive_ndcg(ranked, positives, k) -> float:
    # ideal DCG over the full positive set, so NDCG@K never decreases in K
    dcg = 0.0
    for r, poi in enumerate(ranked[:k], start=1):
        if poi in positives:
            dcg += 1.0 / np.log2(r + 1)
    ideal = sum(1.0 / np.log2(r + 1) for r in range(1, len(positives) + 1))
    return dcg / ideal


def naive_recall(ranked, positives, k) -> float:
    return len(set(ranked[:k]) & set(positives)) / len(positives)


def naive_top_quantile(aff, fraction) -> set:
    """The ceil(fraction * n) best entries of an affinity row by a full sort,
    ties to the smaller index (at least one)."""
    n = len(aff)
    count = max(1, int(np.ceil(fraction * n)))
    order = sorted(range(n), key=lambda p: (-aff[p], p))
    return set(order[:count])
