"""LightGCN — simplified graph convolution for recommendation (He et al.).

The paper's T5 model: "A LightGCN, a variant of graph neural networks
optimized for fast graph learning, is trained to predict top-k missing edges
in an input bipartite graph". LightGCN drops feature transforms and
non-linearities entirely: user/item embeddings are propagated through the
symmetric-normalized bipartite adjacency,

    E^(k+1) = D^{-1/2} A D^{-1/2} E^(k),

the final representation is the mean over layers 0..K, and scores are inner
products. Training minimizes BPR loss with SGD over (user, pos, neg)
triples. Implemented on ``scipy.sparse``; deterministic for a fixed seed.

One BPR epoch runs as a few array operations. The only per-triple Python
left is the negative sampler's candidate walk: it draws every candidate the
epoch could need in one bulk ``integers`` call, walks them with the
rejection rule (redraw an interacted item, at most ten times), then
restores the generator and redraws exactly the consumed count, so the
stream ends where one scalar draw per candidate would have left it. The
diffs are a batched ``matmul`` and the gradient rows go through one
``np.add.at`` in triple order, so the embeddings are bit-identical to the
triple-at-a-time loop kept in ``tests/reference/lightgcn.py``.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..exceptions import ModelError
from ..rng import make_rng
from .bipartite import BipartiteGraph


def normalized_adjacency(graph: BipartiteGraph) -> sparse.csr_matrix:
    """Symmetric-normalized (users+items) × (users+items) adjacency Â."""
    n = graph.n_users + graph.n_items
    if graph.num_edges == 0:
        return sparse.csr_matrix((n, n))
    rows, cols = [], []
    for e in graph.edges:
        u, i = e.user, graph.n_users + e.item
        rows += [u, i]
        cols += [i, u]
    data = np.ones(len(rows))
    adj = sparse.csr_matrix((data, (rows, cols)), shape=(n, n))
    degree = np.asarray(adj.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(degree)
    nonzero = degree > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degree[nonzero])
    d_mat = sparse.diags(inv_sqrt)
    return d_mat @ adj @ d_mat


#: Redraws the sampler allows when a negative candidate is an item the user
#: interacted with; the last candidate is kept even if interacted.
MAX_RETRIES = 10


def sample_negatives(
    rng: np.random.Generator, users: list[int], interacted: list[list[bool]], n_items: int
) -> np.ndarray:
    """One negative item per entry of ``users``, by capped rejection.

    Equals drawing ``rng.integers(n_items)`` per candidate and redrawing
    while the item is in ``interacted[user]`` (at most ``MAX_RETRIES``
    times), and leaves ``rng`` in the same state. A bulk bounded draw
    consumes the bit stream exactly like that many scalar draws.
    """
    state = rng.bit_generator.state
    candidates = rng.integers(n_items, size=(MAX_RETRIES + 1) * len(users)).tolist()
    negatives = []
    used = 0
    for user in users:
        row = interacted[user]
        neg = candidates[used]
        used += 1
        attempts = 0
        while row[neg] and attempts < MAX_RETRIES:
            neg = candidates[used]
            used += 1
            attempts += 1
        negatives.append(neg)
    rng.bit_generator.state = state
    rng.integers(n_items, size=used)
    return np.array(negatives, dtype=np.int64)


class LightGCN:
    """LightGCN with BPR training.

    Parameters mirror the original paper: ``embedding_dim``, number of
    propagation ``layers``, BPR ``epochs``/``learning_rate``/``l2``. All
    sampling derives from ``seed``.
    """

    def __init__(
        self,
        embedding_dim: int = 16,
        layers: int = 2,
        epochs: int = 30,
        learning_rate: float = 0.05,
        l2: float = 1e-4,
        n_neg_per_pos: int = 1,
        seed: int = 0,
    ):
        self.embedding_dim = int(embedding_dim)
        self.layers = int(layers)
        self.epochs = int(epochs)
        self.learning_rate = float(learning_rate)
        self.l2 = float(l2)
        self.n_neg_per_pos = int(n_neg_per_pos)
        self.seed = int(seed)
        for name, value, least in (
            ("embedding_dim", self.embedding_dim, 1),
            ("layers", self.layers, 0),
            ("epochs", self.epochs, 0),
            ("n_neg_per_pos", self.n_neg_per_pos, 1),
        ):
            if value < least:
                raise ModelError(f"LightGCN {name} must be >= {least}, got {value}")
        self.user_emb_: np.ndarray | None = None
        self.item_emb_: np.ndarray | None = None
        self.training_cost_: float = 0.0
        self._graph: BipartiteGraph | None = None

    # -- training ---------------------------------------------------------------
    def fit(self, graph: BipartiteGraph) -> "LightGCN":
        """Train embeddings on the graph with BPR over sampled triples."""
        if graph.num_edges == 0:
            raise ModelError("cannot train LightGCN on a graph with no edges")
        rng = make_rng(self.seed)
        self._graph = graph
        n_u, n_i, dim = graph.n_users, graph.n_items, self.embedding_dim
        base = rng.normal(scale=0.1, size=(n_u + n_i, dim))
        adj = normalized_adjacency(graph)
        edges = graph.edges
        users = np.array([e.user for e in edges])
        items = np.array([e.item for e in edges])
        interacted = np.zeros((n_u, n_i), dtype=bool)
        interacted[users, items] = True
        interacted_rows = interacted.tolist()
        scale = max(1.0, np.sqrt(len(edges)))
        for _ in range(self.epochs):
            final = self._propagate(base, adj)
            user_final, item_final = final[:n_u], final[n_u:]
            order = rng.permutation(len(edges))
            # Triples in the order the scalar loop visits them: each edge
            # of the permutation, n_neg_per_pos times in a row.
            us = np.repeat(users[order], self.n_neg_per_pos)
            ps = np.repeat(items[order], self.n_neg_per_pos)
            ns = sample_negatives(rng, us.tolist(), interacted_rows, n_i)
            e_u = user_final[us]
            d = item_final[ps] - item_final[ns]
            # A batch of 1-D dot products; einsum sums in another order.
            diff = np.matmul(e_u[:, None, :], d[:, :, None])[:, 0, 0]
            coeff = (-1.0 / (1.0 + np.exp(np.clip(diff, -35, 35))))[:, None]
            # Rows interleaved per triple, so each gradient row adds its
            # terms in triple order.
            rows = np.stack([us, n_u + ps, n_u + ns], axis=1).ravel()
            steps = np.stack([coeff * d, coeff * e_u, -coeff * e_u], axis=1)
            grads = np.zeros_like(base)
            np.add.at(grads, rows, steps.reshape(-1, dim))
            # Layer-averaged propagation is linear and symmetric, so the
            # gradient w.r.t. the base embeddings is the propagated gradient.
            grads = self._propagate(grads, adj)
            base -= self.learning_rate * (grads / scale + self.l2 * base)
        final = self._propagate(base, adj)
        self.user_emb_ = final[:n_u]
        self.item_emb_ = final[n_u:]
        self.training_cost_ = float(
            self.epochs * (graph.num_edges * dim + adj.nnz * dim * self.layers)
        )
        return self

    def _propagate(self, base: np.ndarray, adj: sparse.csr_matrix) -> np.ndarray:
        """Mean of layers 0..K; summed in place, equal to ``np.mean`` of the stack."""
        total = base.copy()
        current = base
        for _ in range(self.layers):
            current = adj @ current
            total += current
        return total / (self.layers + 1)

    # -- inference ----------------------------------------------------------------
    def scores(self, user: int) -> np.ndarray:
        """Inner-product scores of every item for one user."""
        if self.user_emb_ is None:
            raise ModelError("LightGCN is not fitted")
        n_users = len(self.user_emb_)
        if not 0 <= user < n_users:
            raise ModelError(f"user {user} outside 0..{n_users - 1}")
        return self.item_emb_ @ self.user_emb_[user]

    def recommend(
        self, user: int, k: int, exclude_training: bool = True
    ) -> list[int]:
        """Top-``k`` unseen items for ``user`` (training edges excluded).

        Fewer than ``k`` come back when the user has seen all but fewer
        than ``k`` items.
        """
        ranked = np.argsort(-self.scores(user), kind="mergesort")
        if exclude_training and self._graph is not None:
            seen = np.zeros(len(ranked), dtype=bool)
            seen[list(self._graph.user_items(user))] = True
            ranked = ranked[~seen[ranked]]
        return ranked[:k].tolist()

    def recommend_all(self, k: int) -> dict[int, list[int]]:
        """Top-``k`` recommendations for every user with a training edge."""
        if self._graph is None:
            raise ModelError("LightGCN is not fitted")
        active = sorted({e.user for e in self._graph.edges})
        return {u: self.recommend(u, k) for u in active}
