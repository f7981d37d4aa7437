"""Distributed skyline generation: partitioning, workers, and the merge."""

import numpy as np
import pytest

from repro.core import ApxMODis, ExactMODis
from repro.core.config import Configuration
from repro.core.dominance import dominates
from repro.core.estimator import OracleEstimator
from repro.distributed import (
    DistributedMODis,
    Worker,
    WorkerJob,
    merge_skylines,
    partition_frontier,
    run_worker_job,
)
from repro.distributed.worker import ShippedState
from repro.exceptions import BackendError, SearchError
from repro.exec import ProcessBackend, ThreadBackend

from tests.helpers import ToySpace, linear_toy_oracle, two_measure_set


def make_config(width=6):
    space = ToySpace(width=width)
    measures = two_measure_set()
    oracle = linear_toy_oracle(width)
    return Configuration(
        space=space,
        measures=measures,
        estimator=OracleEstimator(oracle, measures),
        oracle=oracle,
    )


class TestPartition:
    def test_partitions_cover_frontier(self):
        space = ToySpace(width=6)
        partitions = partition_frontier(space, 3)
        seeds = [bits for part in partitions for bits, _ in part]
        assert len(seeds) == 6  # every single-flip child appears once
        assert len(set(seeds)) == 6

    def test_round_robin_balance(self):
        space = ToySpace(width=7)
        partitions = partition_frontier(space, 3)
        sizes = sorted(len(p) for p in partitions)
        assert sizes == [2, 2, 3]

    def test_more_workers_than_frontier(self):
        space = ToySpace(width=2)
        partitions = partition_frontier(space, 5)
        non_empty = [p for p in partitions if p]
        assert len(non_empty) == 2

    def test_invalid_worker_count(self):
        with pytest.raises(SearchError):
            partition_frontier(ToySpace(width=4), 0)

    def test_partitions_respect_valid_flip(self):
        """Seeds come from OpGen, so space-level guard rails apply."""

        class GuardedSpace(ToySpace):
            def valid_flip(self, bits, index):
                """Entry 0 is frozen: it may never be reduced."""
                return index != 0

        partitions = partition_frontier(GuardedSpace(width=5), 2)
        seeds = [bits for part in partitions for bits, _ in part]
        universal = (1 << 5) - 1
        assert universal ^ 1 not in seeds  # flipping entry 0 never offered
        assert len(seeds) == 4


class TestWorker:
    def test_worker_explores_only_its_subtrees(self):
        config = make_config()
        partitions = partition_frontier(config.space, 3)
        worker = Worker(0, config, partitions[0], epsilon=0.2, budget=50,
                        max_level=2)
        result = worker.run()
        # level-1 states valuated by this worker are exactly its seeds
        level1 = [
            s for s in worker.algorithm.graph.states.values() if s.level == 1
        ]
        assert {s.bits for s in level1} == {b for b, _ in partitions[0]}
        assert result.n_valuated >= 1

    def test_worker_ships_its_local_skyline(self):
        config = make_config()
        partitions = partition_frontier(config.space, 2)
        worker = Worker(0, config, partitions[0], epsilon=0.2, budget=40,
                        max_level=3)
        result = worker.run()
        assert result.n_messages == len(result.shipped)
        grid_bits = {s.bits for s in worker.algorithm.grid.states}
        assert {s.bits for s in result.shipped} == grid_bits

    def test_worker_budget(self):
        config = make_config()
        partitions = partition_frontier(config.space, 1)
        worker = Worker(0, config, partitions[0], epsilon=0.2, budget=5,
                        max_level=6)
        result = worker.run()
        assert result.n_valuated <= 5
        assert result.terminated_by == "budget"

    def test_worker_rejects_zero_budget(self):
        config = make_config()
        with pytest.raises(SearchError):
            Worker(0, config, [], epsilon=0.2, budget=0, max_level=3)


def search_fingerprint(algo):
    """Everything the shared reduce loop decides, in insertion order."""
    return (
        [(s.bits, s.level, s.via) for s in algo.graph.states.values()],
        [(t.parent_bits, t.child_bits, t.op) for t in algo.graph.transitions],
        [(s.bits, tuple(s.perf)) for s in algo.grid.states],
        algo.report.n_valuated,
        algo.report.n_spawned,
        algo.report.n_levels,
        algo.report.terminated_by,
    )


class TestOneReduceLoop:
    """Workers and ExactMODis run ApxMODis's BFS, not copies of it."""

    @pytest.mark.parametrize(
        "budget,max_level", [(1, 3), (2, 1), (5, 2), (9, 3), (200, 6)]
    )
    def test_full_frontier_worker_is_plain_apxmodis(self, budget, max_level):
        seeds = partition_frontier(make_config().space, 1)[0]
        worker = Worker(0, make_config(), seeds, epsilon=0.2,
                        budget=budget, max_level=max_level)
        worker.run()
        plain = ApxMODis(make_config(), epsilon=0.2, budget=budget,
                         max_level=max_level)
        plain.run(verify=False)
        assert search_fingerprint(worker.algorithm) == search_fingerprint(
            plain
        )

    @pytest.mark.parametrize("budget,max_level", [(4, 2), (30, 4)])
    def test_exact_valuates_what_apxmodis_spawns(self, budget, max_level):
        exact = ExactMODis(make_config(), budget=budget, max_level=max_level)
        exact.run(verify=False)
        plain = ApxMODis(make_config(), budget=budget, max_level=max_level)
        plain.run(verify=False)
        assert [s.bits for s in exact.all_valuated_states] == list(
            plain.graph.states
        )
        assert search_fingerprint(exact)[3:] == search_fingerprint(plain)[3:]

    def test_budget_one_terminates_by_budget(self):
        for algo in (
            ApxMODis(make_config(), budget=1),
            ExactMODis(make_config(), budget=1),
        ):
            algo.run(verify=False)
            assert algo.report.terminated_by == "budget", algo.name
        seeds = partition_frontier(make_config().space, 2)[0]
        worker = Worker(0, make_config(), seeds, epsilon=0.2, budget=1,
                        max_level=3)
        assert worker.run().terminated_by == "budget"


class TestMerge:
    def _ship(self, pairs):
        return [
            ShippedState(bits=b, perf=np.array(p), via=f"s{b}",
                         output_size=(1, 1))
            for b, p in pairs
        ]

    def test_merge_is_skyline_of_union(self):
        measures = two_measure_set()
        batch_a = self._ship([(1, [0.2, 0.8]), (2, [0.5, 0.5])])
        batch_b = self._ship([(3, [0.8, 0.2]), (4, [0.9, 0.9])])
        merged = merge_skylines([batch_a, batch_b], measures, epsilon=0.1)
        bits = {s.bits for s in merged}
        assert 4 not in bits  # dominated by 2
        assert {1, 3} <= bits

    def test_merge_dedupes_cross_worker_duplicates(self):
        measures = two_measure_set()
        same = [(7, [0.3, 0.3])]
        merged = merge_skylines(
            [self._ship(same), self._ship(same)], measures, epsilon=0.1
        )
        assert len(merged) == 1

    def test_merge_empty(self):
        assert merge_skylines([], two_measure_set(), epsilon=0.1) == []

    def test_merge_ignores_worker_order(self):
        """Two states share an ε-cell with a tied decisive measure, so the
        grid keeps whichever it sees first. Worker order (bitmap 5 first)
        and bitmap order (bitmap 3 first) must still merge identically."""
        measures = two_measure_set()
        worker_order = [
            self._ship([(5, [0.300, 0.4]), (8, [0.9, 0.1])]),
            self._ship([(3, [0.301, 0.4]), (5, [0.300, 0.4])]),
        ]
        bitmap_order = [
            sorted(
                (item for batch in worker_order for item in batch),
                key=lambda item: item.bits,
            )
        ]

        def skyline(shipped):
            merged = merge_skylines(shipped, measures, epsilon=0.1)
            return [(s.bits, s.perf.tolist()) for s in merged]

        assert skyline(worker_order) == skyline(bitmap_order)
        assert skyline(worker_order) == skyline(worker_order[::-1])

    def test_merged_members_mutually_nondominated(self):
        rng = np.random.default_rng(4)
        batches = [
            self._ship(
                [(int(i + 10 * w), list(rng.random(2) * 0.9 + 0.05))
                 for i in range(6)]
            )
            for w in range(3)
        ]
        merged = merge_skylines(batches, two_measure_set(), epsilon=0.05)
        perfs = [s.perf for s in merged]
        for i in range(len(perfs)):
            for j in range(len(perfs)):
                if i != j:
                    assert not dominates(perfs[i], perfs[j])


class TestDistributedMODis:
    def test_end_to_end(self):
        runner = DistributedMODis(
            make_config, n_workers=3, epsilon=0.2, budget=90, max_level=4
        )
        result = runner.run(verify=False)
        assert len(result.entries) >= 1
        assert result.report.extras["n_workers"] == 3
        assert result.report.extras["speedup"] >= 1.0

    def test_matches_single_node_front_when_exhaustive(self):
        """With enough budget to exhaust the space, the distributed front
        equals the single-node ApxMODis front (same oracle, no estimates)."""
        single = ApxMODis(make_config(), epsilon=0.2, budget=64, max_level=6)
        single_result = single.run(verify=False)
        distributed = DistributedMODis(
            make_config, n_workers=3, epsilon=0.2, budget=192, max_level=6
        )
        dist_result = distributed.run(verify=False)
        single_perfs = np.round(single_result.perf_matrix(), 9)
        dist_perfs = np.round(dist_result.perf_matrix(), 9)
        # identical Pareto fronts as sets of performance vectors
        assert {tuple(p) for p in single_perfs} == {tuple(p) for p in dist_perfs}

    def test_merged_front_covers_all_shipped(self):
        """The merged output ε-dominates every state any worker shipped
        (the Lemma 2 cover carries through the distributed merge)."""
        from repro.core.dominance import epsilon_dominates

        epsilon = 0.15
        runner = DistributedMODis(
            make_config, n_workers=2, epsilon=epsilon, budget=60, max_level=5
        )
        result = runner.run(verify=False)
        entries = [e.state.perf for e in result.entries]
        for w in runner.report.worker_results:
            for shipped in w.shipped:
                assert any(
                    epsilon_dominates(perf, shipped.perf, epsilon)
                    for perf in entries
                )

    def test_verify_rescores_with_oracle(self):
        runner = DistributedMODis(
            make_config, n_workers=2, epsilon=0.2, budget=40, max_level=3
        )
        result = runner.run(verify=True)
        config = make_config()
        for entry in result.entries:
            raw = config.oracle(entry.bits)
            expected = config.measures.normalize_raw(raw)
            assert np.allclose(entry.state.perf, expected)

    def test_report_accounting(self):
        runner = DistributedMODis(
            make_config, n_workers=3, epsilon=0.2, budget=60, max_level=3
        )
        runner.run(verify=False)
        report = runner.report
        assert report.total_valuated <= 60 + 3  # +1 root per worker
        assert report.n_messages >= report.distinct_shipped > 0
        assert report.sequential_seconds >= report.parallel_seconds - 1e-9

    def test_validation(self):
        with pytest.raises(SearchError):
            DistributedMODis(make_config, n_workers=0)
        with pytest.raises(SearchError):
            DistributedMODis(make_config, n_workers=10, budget=5)
        with pytest.raises(BackendError):
            DistributedMODis(make_config, n_workers=2, backend="mpi")


def _run_with_backend(backend, n_workers=3, budget=90):
    runner = DistributedMODis(
        make_config,
        n_workers=n_workers,
        epsilon=0.2,
        budget=budget,
        max_level=4,
        backend=backend,
        n_jobs=n_workers,
    )
    result = runner.run(verify=False)
    return runner, result


class TestExecutionBackends:
    def test_worker_job_round_trip(self):
        """run_worker_job builds a private config and returns plain data."""
        config = make_config()
        partitions = partition_frontier(config.space, 2)
        job = WorkerJob(
            worker_id=0,
            config_factory=make_config,
            seeds=partitions[0],
            epsilon=0.2,
            budget=30,
            max_level=3,
        )
        result = run_worker_job(job)
        assert result.worker_id == 0
        assert result.n_valuated >= 1
        assert all(isinstance(s.bits, int) for s in result.shipped)

    def test_report_carries_backend_and_measured_wall(self):
        runner, result = _run_with_backend("serial")
        extras = result.report.extras
        assert extras["backend"] == "serial"
        assert extras["search_wall_seconds"] > 0
        assert extras["measured_speedup"] > 0
        assert runner.report.search_wall_seconds > 0

    def test_thread_backend_matches_serial(self):
        _, serial = _run_with_backend("serial")
        _, threaded = _run_with_backend("thread")
        assert {e.bits for e in threaded.entries} == {
            e.bits for e in serial.entries
        }

    @pytest.mark.skipif(
        not ProcessBackend._can_fork(), reason="fork unavailable"
    )
    def test_process_backend_bit_identical_to_serial(self):
        """The acceptance invariant: identical merged skylines, bit for bit."""
        _, serial = _run_with_backend("serial")
        _, forked = _run_with_backend("process")
        assert {e.bits for e in forked.entries} == {
            e.bits for e in serial.entries
        }
        serial_perfs = {
            e.bits: tuple(e.state.perf) for e in serial.entries
        }
        for entry in forked.entries:
            assert tuple(entry.state.perf) == serial_perfs[entry.bits]

    def test_backend_instance_accepted(self):
        backend = ThreadBackend(2)
        runner, _ = _run_with_backend(backend)
        assert runner.backend is backend

    def test_backend_defaults_from_configuration(self):
        def factory():
            config = make_config()
            config.backend = "thread"
            config.n_jobs = 2
            return config

        runner = DistributedMODis(factory, n_workers=2, budget=40)
        assert runner.backend.name == "thread"
        assert runner.backend.n_jobs == 2
