"""Scalar LightGCN training: the parity oracle for ``repro.graph.lightgcn``.

These are ``LightGCN.fit`` as it shipped before its BPR epoch ran as array
operations, one ``(user, pos, neg)`` triple at a time with a scalar
rejection draw per negative, and ``_propagate`` as the ``np.mean`` over
the stacked layers, kept verbatim. The property tests compare every fit
against them bit for bit, and ``benchmarks/bench_lightgcn.py`` times its
baseline on them.

``scalar_lightgcn()`` swaps them in for the duration of a ``with`` block
by patching ``repro.graph.lightgcn.LightGCN``.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from scipy import sparse

from repro.exceptions import ModelError
from repro.graph.bipartite import BipartiteGraph
from repro.graph.lightgcn import LightGCN, normalized_adjacency
from repro.rng import make_rng


def scalar_fit(self, graph: BipartiteGraph) -> LightGCN:
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
    interacted = [set() for _ in range(n_u)]
    for e in edges:
        interacted[e.user].add(e.item)
    for _ in range(self.epochs):
        final = self._propagate(base, adj)
        user_final, item_final = final[:n_u], final[n_u:]
        order = rng.permutation(len(edges))
        grads = np.zeros_like(base)
        for idx in order:
            u, pos = int(users[idx]), int(items[idx])
            for _ in range(self.n_neg_per_pos):
                neg = int(rng.integers(n_i))
                attempts = 0
                while neg in interacted[u] and attempts < 10:
                    neg = int(rng.integers(n_i))
                    attempts += 1
                e_u = user_final[u]
                diff = e_u @ (item_final[pos] - item_final[neg])
                coeff = -1.0 / (1.0 + np.exp(np.clip(diff, -35, 35)))
                grads[u] += coeff * (item_final[pos] - item_final[neg])
                grads[n_u + pos] += coeff * e_u
                grads[n_u + neg] += -coeff * e_u
        # Layer-averaged propagation is linear and symmetric, so the
        # gradient w.r.t. the base embeddings is the propagated gradient.
        grads = self._propagate(grads, adj)
        scale = max(1.0, np.sqrt(len(edges)))
        base -= self.learning_rate * (grads / scale + self.l2 * base)
    final = self._propagate(base, adj)
    self.user_emb_ = final[:n_u]
    self.item_emb_ = final[n_u:]
    self.training_cost_ = float(
        self.epochs * (graph.num_edges * dim + adj.nnz * dim * self.layers)
    )
    return self


def scalar_propagate(self, base: np.ndarray, adj: sparse.csr_matrix) -> np.ndarray:
    layers = [base]
    current = base
    for _ in range(self.layers):
        current = adj @ current
        layers.append(current)
    return np.mean(layers, axis=0)


@contextmanager
def scalar_lightgcn():
    """Train every LightGCN fitted in the block with the scalar kernels."""
    original = LightGCN.fit, LightGCN._propagate
    LightGCN.fit, LightGCN._propagate = scalar_fit, scalar_propagate
    try:
        yield
    finally:
        LightGCN.fit, LightGCN._propagate = original
