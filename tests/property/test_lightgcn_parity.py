"""Property tests: the array-form LightGCN epoch is bit-identical to the scalar one.

Every graph is fitted twice with the same knobs — once as shipped, once
under ``tests.reference.lightgcn.scalar_lightgcn()`` — and the two fits
must agree exactly: the embedding bytes, ``training_cost_`` and
``recommend_all``. The generated graphs cover several negatives per
positive, 0–3 layers, a single item, and users adjacent to every item, for
whom the negative sampler runs out of retries.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.graph import BipartiteGraph, Edge, LightGCN
from tests.reference.lightgcn import scalar_lightgcn


@st.composite
def graphs(draw, max_users: int = 12, max_items: int = 15):
    n_users = draw(st.integers(1, max_users))
    n_items = draw(st.integers(1, max_items))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n_users - 1), st.integers(0, n_items - 1)),
            min_size=1,
            max_size=n_users * n_items,
            unique=True,
        )
    )
    full = draw(st.lists(st.integers(0, n_users - 1), max_size=2, unique=True))
    pairs += [(u, i) for u in full for i in range(n_items) if (u, i) not in pairs]
    return BipartiteGraph(n_users, n_items, [Edge(u, i) for u, i in pairs])


@st.composite
def t5_graphs(draw):
    """The shape of T5's oracle calls: 25 users x 35 items, 16-101 edges."""
    flat = draw(st.lists(st.integers(0, 25 * 35 - 1), min_size=16, max_size=101, unique=True))
    return BipartiteGraph(25, 35, [Edge(f // 35, f % 35) for f in flat])


knobs = st.fixed_dictionaries(
    {
        "embedding_dim": st.integers(1, 8),
        "layers": st.integers(0, 3),
        "epochs": st.integers(0, 6),
        "n_neg_per_pos": st.integers(1, 3),
        "seed": st.integers(0, 2**31),
    }
)


def _fingerprint(model: LightGCN) -> tuple:
    return (
        model.user_emb_.tobytes(),
        model.item_emb_.tobytes(),
        model.training_cost_,
        model.recommend_all(10),
    )


def _assert_parity(graph: BipartiteGraph, **kw) -> None:
    fast = _fingerprint(LightGCN(**kw).fit(graph))
    with scalar_lightgcn():
        scalar = _fingerprint(LightGCN(**kw).fit(graph))
    assert fast == scalar


@given(graphs(), knobs)
@settings(max_examples=80, deadline=None)
def test_fit_matches_scalar_kernel(graph, kw):
    _assert_parity(graph, **kw)


@given(t5_graphs(), st.integers(0, 2**31))
@settings(max_examples=15, deadline=None)
def test_t5_shape_matches_scalar_kernel(graph, seed):
    _assert_parity(graph, epochs=20, embedding_dim=12, seed=seed)


def test_t5_pool_matches_scalar_kernel(task_t5):
    pool = task_t5.universal
    rng = np.random.default_rng(5)
    keep = rng.random(pool.num_edges) < 0.5
    halved = BipartiteGraph(
        pool.n_users, pool.n_items, [e for e, k in zip(pool.edges, keep) if k]
    )
    for graph in (pool, halved):
        _assert_parity(graph, epochs=20, embedding_dim=12, seed=task_t5.seed)
