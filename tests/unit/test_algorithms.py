"""Unit tests for the MODis algorithm family on toy search spaces.

The toy oracle is a pure function of the bitmap, so every assertion about
budgets, ε-covers, and skyline structure is exact — no ML noise.
"""

import pytest

from repro.core.algorithms import (
    ApxMODis,
    BiMODis,
    DivMODis,
    ExactMODis,
    NOBiMODis,
)
from repro.core.config import Configuration
from repro.core.dominance import dominates, epsilon_dominates
from repro.core.estimator import OracleEstimator
from repro.exceptions import SearchError
from repro.obs import SpanCollector, use_collector

from tests.helpers import ToySpace, linear_toy_oracle, two_measure_set


def make_config(width=6, upper=1.0):
    space = ToySpace(width=width)
    measures = two_measure_set(upper=upper)
    oracle = linear_toy_oracle(width)
    estimator = OracleEstimator(oracle, measures)
    return Configuration(
        space=space, measures=measures, estimator=estimator, oracle=oracle
    )


# (algorithm, budget, maxl, terminated_by,
#  (n_valuated, n_spawned, n_pruned, n_levels), level spans, skyline bits)
TERMINATION_CASES = [
    (ApxMODis, 1, 3, "budget", (1, 0, 0, 0), 0, [0x3f]),
    (ApxMODis, 5, 3, "budget", (5, 4, 0, 1), 1, [0x37, 0x3f]),
    (ApxMODis, 500, 2, "exhausted", (22, 21, 0, 2), 2, [0xf, 0x1f, 0x3f]),
    (ApxMODis, 500, 10, "exhausted", (64, 63, 0, 7), 7,
     [0x0, 0x1, 0x3, 0x7, 0xf, 0x1f, 0x3f]),
    (BiMODis, 1, 3, "budget", (2, 0, 0, 0), 0, [0x1, 0x3f]),
    (BiMODis, 5, 3, "budget", (5, 3, 0, 1), 1, [0x1, 0x3d, 0x3f]),
    (BiMODis, 500, 2, "exhausted", (38, 36, 0, 2), 2,
     [0x1, 0x3, 0x7, 0xf, 0x1f, 0x3f]),
    (BiMODis, 500, 10, "frontiers_met", (48, 66, 0, 3), 3,
     [0x1, 0x3, 0x7, 0xf, 0x1f, 0x3f]),
    (NOBiMODis, 1, 3, "budget", (2, 0, 0, 0), 0, [0x1, 0x3f]),
    (NOBiMODis, 5, 3, "budget", (5, 3, 0, 1), 1, [0x1, 0x3d, 0x3f]),
    (NOBiMODis, 500, 2, "exhausted", (38, 36, 0, 2), 2,
     [0x1, 0x3, 0x7, 0xf, 0x1f, 0x3f]),
    (NOBiMODis, 500, 10, "frontiers_met", (48, 66, 0, 3), 3,
     [0x1, 0x3, 0x7, 0xf, 0x1f, 0x3f]),
    (DivMODis, 1, 3, "budget", (2, 0, 0, 0), 0, [0x1, 0x3f]),
    (DivMODis, 5, 3, "budget", (5, 3, 0, 1), 1, [0x1, 0x3d, 0x3f]),
    (DivMODis, 500, 2, "exhausted", (38, 36, 0, 2), 2,
     [0x1, 0x3, 0x3a, 0x3d, 0x3f]),
    (DivMODis, 500, 10, "frontiers_met", (48, 66, 0, 3), 3,
     [0x1, 0x3, 0xe, 0x3d, 0x3f]),
    (ExactMODis, 1, 3, "budget", (1, 0, 0, 0), 0, [0x3f]),
    (ExactMODis, 5, 3, "budget", (5, 4, 0, 1), 1, [0x37, 0x3f]),
    (ExactMODis, 500, 2, "exhausted", (22, 21, 0, 2), 2, [0xf, 0x1f, 0x3f]),
    (ExactMODis, 500, 10, "exhausted", (64, 63, 0, 7), 7,
     [0x0, 0x1, 0x3, 0x7, 0xf, 0x1f, 0x3f]),
]


@pytest.mark.parametrize(
    "algorithm, budget, max_level, terminated_by, counts, n_level_spans, bits",
    TERMINATION_CASES,
    ids=[f"{c[0].__name__}-N{c[1]}-maxl{c[2]}" for c in TERMINATION_CASES],
)
def test_level_loop_termination(
    algorithm, budget, max_level, terminated_by, counts, n_level_spans, bits
):
    """Every level-wise variant stops for the same reason, after the same
    work, with the same skyline: budget, exhausted levels/frontiers, and
    (bi-directional only) frontiers meeting."""
    collector = SpanCollector()
    with use_collector(collector):
        result = algorithm(make_config(), budget=budget, max_level=max_level).run()
    report = result.report
    assert report.terminated_by == terminated_by
    assert (
        report.n_valuated, report.n_spawned, report.n_pruned, report.n_levels
    ) == counts
    levels = [s for s in collector.spans if s["name"] == "level"]
    assert len(levels) == n_level_spans
    assert [s["attrs"]["level"] for s in levels] == list(
        range(1, n_level_spans + 1)
    )
    assert sorted(entry.bits for entry in result.entries) == bits


class TestApxMODis:
    def test_respects_budget(self):
        config = make_config()
        algo = ApxMODis(config, epsilon=0.2, budget=10, max_level=6)
        result = algo.run()
        assert result.report.n_valuated <= 10
        assert result.report.terminated_by == "budget"

    def test_epsilon_cover_of_valuated_states(self):
        """Lemma 2: every valuated state is ε-dominated by some output."""
        config = make_config(width=5)
        algo = ApxMODis(config, epsilon=0.3, budget=500, max_level=5)
        result = algo.run(verify=False)
        outputs = result.perf_matrix()
        for record in config.estimator.store.records():
            assert any(
                epsilon_dominates(out, record.perf, 0.3) for out in outputs
            ), f"state {record.bits:#x} not ε-covered"

    def test_outputs_mutually_nondominated(self):
        config = make_config(width=5)
        result = ApxMODis(config, epsilon=0.2, budget=200, max_level=5).run()
        perfs = result.perf_matrix()
        for i in range(len(perfs)):
            for j in range(len(perfs)):
                if i != j:
                    assert not dominates(perfs[i], perfs[j])

    def test_level_limit(self):
        config = make_config(width=6)
        algo = ApxMODis(config, epsilon=0.2, budget=10_000, max_level=2)
        result = algo.run()
        assert result.report.n_levels <= 2
        for state in algo.graph.states.values():
            assert state.level <= 2

    def test_running_graph_recorded(self):
        config = make_config(width=4)
        algo = ApxMODis(config, epsilon=0.2, budget=50, max_level=4)
        algo.run()
        assert algo.graph.num_states >= 1
        assert algo.graph.transitions
        # every transition's child differs from parent in exactly 1 bit
        for tr in algo.graph.transitions:
            assert (tr.parent_bits ^ tr.child_bits).bit_count() == 1

    def test_rejects_bad_params(self):
        config = make_config()
        with pytest.raises(SearchError):
            ApxMODis(config, epsilon=0.0)
        with pytest.raises(SearchError):
            ApxMODis(config, budget=0)
        with pytest.raises(SearchError):
            ApxMODis(config, max_level=0)


class TestBiMODis:
    def test_explores_both_directions(self):
        config = make_config(width=6)
        algo = NOBiMODis(config, epsilon=0.2, budget=300, max_level=3)
        algo.run()
        ops = [tr.op for tr in algo.graph.transitions]
        assert any("⊖" in op for op in ops)
        assert any("⊕" in op for op in ops)

    def test_budget_respected(self):
        config = make_config()
        result = BiMODis(config, epsilon=0.2, budget=15).run()
        assert result.report.n_valuated <= 15

    def test_pruning_with_cheap_oracle(self):
        width = 6
        oracle = linear_toy_oracle(width)

        def cheap(bits):
            return {"m0": oracle(bits)["m0"]}  # m0 computable cheaply

        config = make_config(width=width)
        config.cheap_oracle = cheap
        algo = BiMODis(config, epsilon=0.2, budget=400, max_level=6,
                       theta=0.6)
        result = algo.run(verify=False)
        nob = NOBiMODis(make_config(width=width), epsilon=0.2, budget=400,
                        max_level=6)
        nob_result = nob.run(verify=False)
        # pruning must never *increase* valuations
        assert result.report.n_valuated <= nob_result.report.n_valuated

    def test_pruned_states_not_needed_for_cover(self):
        """Lemma 4: outputs still ε-cover every *valuated* state."""
        width = 6
        oracle = linear_toy_oracle(width)

        def cheap(bits):
            return {"m0": oracle(bits)["m0"]}

        config = make_config(width=width)
        config.cheap_oracle = cheap
        algo = BiMODis(config, epsilon=0.3, budget=400, max_level=6, theta=0.6)
        result = algo.run(verify=False)
        outputs = result.perf_matrix()
        for record in config.estimator.store.records():
            assert any(epsilon_dominates(o, record.perf, 0.3) for o in outputs)

    def test_nobimodis_never_prunes(self):
        config = make_config()
        algo = NOBiMODis(config, epsilon=0.2, budget=100)
        result = algo.run()
        assert result.report.n_pruned == 0


class TestDivMODis:
    def test_at_most_k_outputs(self):
        config = make_config(width=6)
        algo = DivMODis(config, epsilon=0.05, budget=300, max_level=4, k=3,
                        pruning=False)
        result = algo.run()
        assert len(result) <= 3

    def test_alpha_validated_lazily(self):
        config = make_config()
        algo = DivMODis(config, epsilon=0.2, budget=50, k=2, alpha=0.9,
                        pruning=False)
        result = algo.run()
        assert len(result) <= 2


class TestExactMODis:
    def brute_force_skyline(self, config, states):
        perfs = [s.perf for s in states]
        return {
            tuple(p)
            for i, p in enumerate(perfs)
            if not any(dominates(q, p) for q in perfs)
        }

    def test_front_is_exact_on_valuated_states(self):
        config = make_config(width=5)
        algo = ExactMODis(config, budget=2**5 * 8, max_level=5,
                          enforce_ranges=False)
        result = algo.run(verify=False)
        expected = self.brute_force_skyline(config, algo.all_valuated_states)
        actual = {tuple(e.state.perf) for e in result.entries}
        assert actual == expected

    def test_range_enforcement(self):
        config = make_config(width=5, upper=0.8)
        algo = ExactMODis(config, budget=400, max_level=5, enforce_ranges=True)
        result = algo.run(verify=False)
        for entry in result.entries:
            assert (entry.state.perf <= 0.8 + 1e-9).all()


class TestDiscoveryResult:
    def test_best_by(self):
        config = make_config(width=5)
        result = ApxMODis(config, epsilon=0.2, budget=100).run()
        best_m0 = result.best_by("m0")
        idx = result.measures.index_of("m0")
        assert all(
            best_m0.state.perf[idx] <= e.state.perf[idx] for e in result.entries
        )
        with pytest.raises(Exception):
            result.best_by("nope")

    def test_to_rows_shape(self):
        config = make_config(width=4)
        result = ApxMODis(config, epsilon=0.2, budget=50).run()
        rows = result.to_rows()
        assert rows and {"dataset", "m0", "m1", "output_size"} <= set(rows[0])

    def test_repr(self):
        config = make_config(width=4)
        result = ApxMODis(config, epsilon=0.2, budget=20).run()
        assert "ApxMODis" in repr(result)
