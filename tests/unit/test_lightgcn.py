"""Unit tests for LightGCN and the ranking evaluation harness."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.graph import (
    BipartiteGraph,
    Edge,
    LightGCN,
    evaluate_ranking,
    normalized_adjacency,
    split_edges,
    train_and_evaluate,
)
from repro.graph.lightgcn import sample_negatives
from repro.rng import make_rng


def community_graph(seed=1, n_users=30, n_items=40):
    rng = make_rng(seed)
    edges = []
    for u in range(n_users):
        for i in range(n_items):
            p = 0.4 if (u % 2) == (i % 2) else 0.02
            if rng.random() < p:
                edges.append(Edge(u, i, (float((u % 2) == (i % 2)),)))
    return BipartiteGraph(n_users, n_items, edges)


class TestNormalizedAdjacency:
    def test_symmetric_and_normalized(self):
        g = community_graph()
        adj = normalized_adjacency(g)
        n = g.n_users + g.n_items
        assert adj.shape == (n, n)
        dense = adj.toarray()
        assert np.allclose(dense, dense.T)
        # row sums of D^-1/2 A D^-1/2 are <= sqrt(deg) normalized; spectral
        # radius is at most 1 for this normalization
        eigenvalues = np.linalg.eigvalsh(dense)
        assert eigenvalues.max() <= 1.0 + 1e-8

    def test_empty_graph(self):
        g = BipartiteGraph(2, 2)
        assert normalized_adjacency(g).nnz == 0


class TestLightGCN:
    def test_beats_random_on_communities(self):
        g = community_graph()
        train, held = split_edges(g, 0.3, make_rng(2))
        model = LightGCN(epochs=25, embedding_dim=16, seed=0).fit(train)
        metrics = evaluate_ranking(model, held, ks=(5,))
        random_p5 = np.mean([len(v) for v in held.values()]) / g.n_items
        assert metrics["precision@5"] > 1.5 * random_p5

    def test_deterministic(self):
        g = community_graph()
        a = LightGCN(epochs=5, seed=4).fit(g).recommend(0, 5)
        b = LightGCN(epochs=5, seed=4).fit(g).recommend(0, 5)
        assert a == b

    def test_recommend_excludes_training(self):
        g = community_graph()
        model = LightGCN(epochs=5, seed=0).fit(g)
        rec = model.recommend(0, 10)
        assert not (set(rec) & g.user_items(0))

    def test_empty_graph_rejected(self):
        with pytest.raises(ModelError):
            LightGCN().fit(BipartiteGraph(2, 2))

    def test_scores_before_fit(self):
        with pytest.raises(ModelError):
            LightGCN().scores(0)

    def test_recommend_all(self):
        g = community_graph()
        model = LightGCN(epochs=3, seed=0).fit(g)
        recs = model.recommend_all(3)
        assert all(len(v) == 3 for v in recs.values())

    def test_recommend_never_returns_seen_items(self):
        g = BipartiteGraph(1, 6, [Edge(0, i) for i in range(5)])
        model = LightGCN(epochs=3, seed=0).fit(g)
        assert model.recommend(0, 3) == [5]
        assert len(model.recommend(0, 3, exclude_training=False)) == 3

    def test_recommend_all_for_a_user_who_saw_everything(self):
        g = BipartiteGraph(2, 3, [Edge(0, 0), Edge(0, 1), Edge(0, 2), Edge(1, 0)])
        recs = LightGCN(epochs=3, seed=0).fit(g).recommend_all(2)
        assert recs[0] == []
        assert len(recs[1]) == 2 and 0 not in recs[1]

    @pytest.mark.parametrize("user", [-1, 30, 31])
    def test_scores_and_recommend_reject_unknown_users(self, user):
        model = LightGCN(epochs=2, seed=0).fit(community_graph())
        with pytest.raises(ModelError, match="outside"):
            model.scores(user)
        with pytest.raises(ModelError, match="outside"):
            model.recommend(user, 3)

    @pytest.mark.parametrize(
        "kw",
        [
            {"embedding_dim": 0},
            {"layers": -1},
            {"epochs": -3},
            {"n_neg_per_pos": 0},
            {"epochs": -3, "embedding_dim": 0},
        ],
    )
    def test_rejects_out_of_range_hyperparameters(self, kw):
        with pytest.raises(ModelError, match="must be >="):
            LightGCN(**kw).fit(community_graph())

    def test_zero_epochs_and_layers_are_allowed(self):
        model = LightGCN(epochs=0, layers=0, seed=3).fit(community_graph())
        assert model.user_emb_.shape == (30, 16)
        assert model.training_cost_ == 0.0


class TestNegativeSampler:
    @pytest.mark.parametrize("n", [1, 2, 35, 2**31 + 5])
    def test_bulk_draw_consumes_the_stream_like_scalar_draws(self, n):
        # The sampler draws its candidates in bulk and replays the consumed
        # count; that is exact only while numpy keeps this property.
        bulk, scalar = make_rng(11), make_rng(11)
        values = bulk.integers(n, size=37)
        assert values.tolist() == [int(scalar.integers(n)) for _ in range(37)]
        assert bulk.bit_generator.state == scalar.bit_generator.state
        assert bulk.random() == scalar.random()

    def test_matches_scalar_rejection_and_leaves_the_same_state(self):
        interacted = [[True, True, False, True], [True] * 4, [False] * 4]
        users = [0, 1, 2, 0, 1, 2, 0]
        rng, scalar = make_rng(4), make_rng(4)
        negatives = sample_negatives(rng, users, interacted, 4)
        expected = []
        for u in users:
            neg, attempts = int(scalar.integers(4)), 0
            while interacted[u][neg] and attempts < 10:
                neg, attempts = int(scalar.integers(4)), attempts + 1
            expected.append(neg)
        assert negatives.tolist() == expected
        assert rng.bit_generator.state == scalar.bit_generator.state


class TestTrainAndEvaluate:
    def test_returns_all_ks(self):
        g = community_graph()
        train, held = split_edges(g, 0.3, make_rng(5))
        metrics, cost = train_and_evaluate(train, held, ks=(5, 10), seed=0,
                                           epochs=5)
        assert set(metrics) == {
            "precision@5", "recall@5", "ndcg@5",
            "precision@10", "recall@10", "ndcg@10",
        }
        assert cost > 0

    def test_empty_graph_scores_zero(self):
        metrics, cost = train_and_evaluate(BipartiteGraph(2, 2), {0: {1}})
        assert cost == 0.0
        assert all(v == 0.0 for v in metrics.values())

    def test_empty_heldout(self):
        g = community_graph()
        metrics = evaluate_ranking(LightGCN(epochs=2).fit(g), {}, ks=(5,))
        assert metrics["precision@5"] == 0.0
