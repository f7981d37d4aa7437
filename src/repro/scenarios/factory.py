"""Resolving a :class:`~repro.scenarios.spec.Scenario` into a runnable pipeline.

The factory is the single place where a declarative spec meets the
concrete machinery: tasks come from
:func:`repro.datalake.tasks.make_task` through a shared, thread-safe
:class:`TaskCache` (universal joins and cost calibration are the expensive
part — pay once per distinct ``(task, scale, seed)``), algorithms come
from :data:`repro.core.algorithms.ALGORITHMS`, and a positive
``distributed`` count routes the run through
:class:`~repro.distributed.DistributedMODis`.

Resolution is eager about *validation* (unknown task, unknown algorithm,
kwargs the constructor would reject — all fail fast, before any corpus is
generated) but lazy about *construction*: the task is only built when the
resolved scenario is actually run.
"""

from __future__ import annotations

import inspect
import threading
import time
from typing import Any, Callable

from ..core.algorithms import ALGORITHMS, DiscoveryResult
from ..core.estimator import TestStore
from ..datalake.tasks import TASK_BUILDERS, DiscoveryTask, make_task
from ..distributed import DistributedMODis
from ..exceptions import ScenarioError
from .spec import Scenario

#: The paper's four headline MODis variants, in table order: display name →
#: (algorithm registry key, fixed kwargs). The benchmark harness and the
#: paper-grid scenarios both derive from this single table.
MODIS_VARIANTS: dict[str, tuple[str, dict[str, Any]]] = {
    "ApxMODis": ("apx", {}),
    "NOBiMODis": ("nobimodis", {}),
    "BiMODis": ("bimodis", {}),
    "DivMODis": ("divmodis", {"k": 5}),
}


def make_variant(variant: str, config, **kwargs):
    """Instantiate a paper variant by display name on a configuration."""
    try:
        key, fixed = MODIS_VARIANTS[variant]
    except KeyError:
        raise ScenarioError(
            f"unknown MODis variant {variant!r}; have {sorted(MODIS_VARIANTS)}"
        ) from None
    return ALGORITHMS[key](config, **{**fixed, **kwargs})


class TaskCache:
    """Thread-safe memo of built tasks keyed by ``(name, scale, seed)``.

    Building a task runs the universal join and a real training pass for
    cost calibration; suites re-use one instance across every scenario that
    shares the key. The search space is forced inside the lock so
    concurrent scenarios never race on the lazy ``task.space`` build.
    Cached tasks are shared — callers must treat them as immutable (every
    run builds its own fresh ``Configuration``/estimator).
    """

    def __init__(self, builder: Callable[..., DiscoveryTask] = make_task):
        self._builder = builder
        self._tasks: dict[tuple[str, float, int | None], DiscoveryTask] = {}
        self._lock = threading.Lock()

    def get(self, name: str, scale: float = 1.0,
            seed: int | None = None) -> DiscoveryTask:
        """The shared task for a key, building (and memoizing) on miss."""
        key = (name, float(scale), seed)
        with self._lock:
            task = self._tasks.get(key)
            if task is None:
                task = self._builder(name, scale=scale, seed=seed)
                task.space  # force the lazy search-space build once
                self._tasks[key] = task
            return task

    def clear(self) -> None:
        """Drop every memoized task (frees the corpora)."""
        with self._lock:
            self._tasks.clear()

    def __len__(self) -> int:
        return len(self._tasks)

    def materialization_stats(self) -> dict[str, int]:
        """Aggregate materialization-cache counters over the built tasks.

        Sums the hit/miss/byte/eviction counters of every cached task's
        search-space caches (Table, matrix and mask LRUs for tabular
        spaces; the subgraph LRU for graph spaces) — the payload behind
        the service's ``GET /v1/metrics`` ``materialization`` section. Jobs
        run on the process backend valuate in forked children, so their
        counters die with the child; thread/serial backends aggregate
        fully here.
        """
        totals = {
            "spaces": 0,
            "hits": 0,
            "misses": 0,
            "bytes": 0,
            "entries": 0,
            "evictions": 0,
        }
        with self._lock:
            tasks = list(self._tasks.values())
        for task in tasks:
            space = task._space
            stats = getattr(space, "cache_stats", None) if space else None
            if not stats:
                continue
            totals["spaces"] += 1
            for key in ("hits", "misses", "bytes", "entries", "evictions"):
                totals[key] += int(stats.get(key, 0))
        return totals


#: Process-wide default cache (suites, benchmarks, examples all share it).
TASK_CACHE = TaskCache()


class ResolvedScenario:
    """A validated spec bound to its task cache, ready to run."""

    def __init__(self, spec: Scenario, task_cache: TaskCache):
        self.spec = spec
        self._task_cache = task_cache

    @property
    def algorithm_cls(self):
        return ALGORITHMS[self.spec.algorithm]

    @property
    def task(self) -> DiscoveryTask:
        """The (shared, cached) task instance — built on first access."""
        spec = self.spec
        return self._task_cache.get(spec.task, spec.scale, spec.seed)

    def build(self, store: TestStore | None = None):
        """Construct the runnable: an algorithm or a distributed runner.

        ``store`` warm-starts the estimator with a historical test set
        ``T`` (the service's shared oracle store): recorded states answer
        from history instead of re-training, and a sufficiently covered
        history lets :class:`~repro.core.estimator.MOGBEstimator` skip its
        bootstrap oracle calls entirely. Distributed runs keep per-worker
        private estimators, so they cannot accept a shared store.
        """
        spec = self.spec
        task = self.task
        if spec.distributed:
            if store is not None:
                raise ScenarioError(
                    f"{spec.name}: distributed runs keep private per-worker "
                    "estimators and cannot warm-start from a shared store"
                )
            return DistributedMODis(
                lambda: task.build_config(
                    estimator=spec.estimator, n_bootstrap=spec.n_bootstrap
                ),
                n_workers=spec.distributed,
                epsilon=spec.epsilon,
                budget=spec.budget,
                max_level=spec.max_level,
            )
        config = task.build_config(
            estimator=spec.estimator, n_bootstrap=spec.n_bootstrap
        )
        if store is not None:
            config.estimator.store = store
        return self.algorithm_cls(
            config,
            epsilon=spec.epsilon,
            budget=spec.budget,
            max_level=spec.max_level,
            **spec.algorithm_kwargs,
        )

    def run(
        self, store: TestStore | None = None
    ) -> tuple[DiscoveryResult, float]:
        """Build and run the scenario; returns (result, wall seconds)."""
        runnable = self.build(store=store)
        start = time.perf_counter()
        result = runnable.run(verify=self.spec.verify)
        return result, time.perf_counter() - start

    def __repr__(self) -> str:
        return f"ResolvedScenario({self.spec.name!r})"


class ScenarioFactory:
    """Validates specs and binds them to a :class:`TaskCache`."""

    def __init__(self, task_cache: TaskCache | None = None):
        self.task_cache = task_cache if task_cache is not None else TASK_CACHE

    def resolve(self, spec: Scenario) -> ResolvedScenario:
        """Fail-fast validation; no corpus generation happens here."""
        if spec.task not in TASK_BUILDERS:
            raise ScenarioError(
                f"{spec.name}: unknown task {spec.task!r}; "
                f"have {sorted(TASK_BUILDERS)}"
            )
        if spec.algorithm not in ALGORITHMS:
            raise ScenarioError(
                f"{spec.name}: unknown algorithm {spec.algorithm!r}; "
                f"have {sorted(ALGORITHMS)}"
            )
        if spec.estimator not in ("mogb", "mogb-hist", "oracle"):
            raise ScenarioError(
                f"{spec.name}: unknown estimator {spec.estimator!r}"
            )
        if spec.distributed:
            if spec.algorithm_kwargs:
                raise ScenarioError(
                    f"{spec.name}: algorithm_kwargs do not apply to "
                    "distributed runs (workers run the seeded reduce search)"
                )
            if spec.budget < spec.distributed:
                raise ScenarioError(
                    f"{spec.name}: budget must cover at least one state "
                    "per distributed worker"
                )
        else:
            self._check_kwargs(spec)
        return ResolvedScenario(spec, self.task_cache)

    @staticmethod
    def _check_kwargs(spec: Scenario) -> None:
        """Reject kwargs the algorithm constructor would choke on."""
        signature = inspect.signature(ALGORITHMS[spec.algorithm].__init__)
        accepted = {
            name
            for name, param in signature.parameters.items()
            if param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY)
        } - {"self", "config", "epsilon", "budget", "max_level"}
        unknown = set(spec.algorithm_kwargs) - accepted
        if unknown:
            raise ScenarioError(
                f"{spec.name}: {spec.algorithm} does not accept "
                f"{sorted(unknown)}; accepted extras: {sorted(accepted)}"
            )
