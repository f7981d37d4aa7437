"""In-memory spans around the public entry points of each layer.

A :class:`SpanRecorder` wraps callables so that each call records one
span: ``(id, parent, name, start, end, job_id, thread, extra)``. Spans
nest per thread through a thread-local stack, so a span's parent is the
innermost open span on the same thread. A root span takes its job id from
the job's log context (the scheduler sets ``job_id`` around each job it
executes); children inherit their root's job id. ``extra`` carries one
observation per span, such as a hit flag or a row count, so ratios are
counted where the work happens.

:func:`install` patches the entry points of a running server process;
``serve_traced.py`` calls it before booting ``repro serve``. The client
side times its own HTTP calls in ``run.py``.

:func:`fold` turns spans into self time per span name: a span's duration
minus the durations of its children.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable

#: Field positions in a span tuple.
ID, PARENT, NAME, START, END, JOB, THREAD, EXTRA = range(8)


class SpanRecorder:
    """Collects spans from any thread of one process."""

    def __init__(self, job_of: Callable[[], str | None] = lambda: None):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._job_of = job_of

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Callable[[Any, tuple, dict], Any] | None = None,
        job_from_result: bool = False,
    ) -> Callable:
        """``fn`` recording one span named ``name`` per call.

        ``observe(result, args, kwargs)`` computes the span's ``extra``;
        with ``job_from_result`` the span's job id is the returned job's.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            frame = [
                next(self._ids),
                parent[ID] if parent else None,
                name,
                time.perf_counter(),
                None,
                parent[JOB] if parent else self._job_of(),
                threading.get_ident(),
                None,
            ]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                frame[END] = time.perf_counter()
                stack.pop()
                self.spans.append(frame)
            if job_from_result:
                frame[JOB] = getattr(result, "id", None)
            if observe is not None:
                frame[EXTRA] = observe(result, args, kwargs)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` with its traced version."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **options))

    def dump(self, path: str) -> None:
        """Write every span as one JSON array (the server's exit hook)."""
        with open(path, "w") as fh:
            json.dump([list(span) for span in self.spans], fh)


def traced_oracle(recorder: SpanRecorder, oracle: Callable) -> Callable:
    """Wrap a task's oracle, keeping the artifact kinds it accepts.

    ``repro.core.estimator.oracle_artifact`` reads ``accepts_binned`` and
    ``accepts_matrix`` off the oracle; without them it would fall back
    to the Table path and the traced run would measure another program.
    """
    wrapped = recorder.wrap("oracle.train", oracle)
    for flag in ("accepts_binned", "accepts_matrix"):
        if hasattr(oracle, flag):
            setattr(wrapped, flag, getattr(oracle, flag))
    return wrapped


def install(recorder: SpanRecorder) -> None:
    """Patch the entry points of every layer the benchmark times."""
    from repro.core import dominance
    from repro.core import correlation
    from repro.core.algorithms import base as algorithms_base
    from repro.core.algorithms import bimodis
    from repro.core.estimator import Estimator, MOGBEstimator
    from repro.core.transducer import GraphSearchSpace, TabularSearchSpace
    from repro.datalake.tasks import make_task
    from repro.ml.boosting import MultiOutputGradientBoosting
    from repro.ml.histogram_boosting import MultiOutputHistGradientBoosting
    from repro.scenarios import cache as result_cache
    from repro.scenarios import factory
    from repro.service import journal, scheduler, store

    recorder.patch(
        scheduler.Scheduler, "submit", "scheduler.submit",
        job_from_result=True,
    )
    for method in (
        "record_submitted", "record_started", "record_retried",
        "record_lease", "record_terminal",
    ):
        recorder.patch(journal.JobJournal, method, "journal.append")
    recorder.patch(journal.JobJournal, "compact", "journal.compact")
    recorder.patch(
        result_cache.ResultCache, "get", "result_cache.get",
        observe=lambda result, args, kwargs: result is not None,
    )
    recorder.patch(result_cache.ResultCache, "put", "result_cache.put")
    recorder.patch(
        store.OracleStore, "load", "oracle_store.load",
        observe=lambda result, args, kwargs: bool(result is not None and len(result)),
    )
    recorder.patch(store.OracleStore, "merge", "oracle_store.merge")

    # Tasks: every miss of the task cache goes through its builder, so a
    # cache built on a traced builder counts builds and wraps each built
    # task's oracle. The scheduler's default factory reads TASK_CACHE
    # when it is constructed, after this runs.
    build = recorder.wrap("task.build", make_task)

    def build_traced(*args, **kwargs):
        task = build(*args, **kwargs)
        task.oracle = traced_oracle(recorder, task.oracle)
        return task

    factory.TASK_CACHE = factory.TaskCache(build_traced)
    recorder.patch(factory.TaskCache, "get", "task_cache.get")

    recorder.patch(algorithms_base.SkylineAlgorithm, "run", "search")
    recorder.patch(correlation.CorrelationGraph, "update", "correlation")
    ranges = recorder.wrap("correlation", correlation.infer_ranges)
    correlation.infer_ranges = bimodis.infer_ranges = ranges

    recorder.patch(Estimator, "valuate_batch", "valuate")
    recorder.patch(MOGBEstimator, "bootstrap", "valuate")
    rows = lambda result, args, kwargs: len(result)  # noqa: E731
    for backbone in (MultiOutputGradientBoosting, MultiOutputHistGradientBoosting):
        recorder.patch(backbone, "fit", "surrogate.fit")
        recorder.patch(backbone, "predict", "surrogate.predict", observe=rows)

    recorder.patch(TabularSearchSpace, "materialize_matrix", "materialize")
    for space in (TabularSearchSpace, GraphSearchSpace):
        recorder.patch(space, "materialize", "materialize")
        for method in ("feature_vector", "feature_matrix", "output_size"):
            if method in vars(space):
                recorder.patch(space, method, "features")
    front = recorder.wrap("pareto_front", dominance.pareto_front, observe=rows)
    dominance.pareto_front = algorithms_base.pareto_front = front
    recorder.patch(dominance.SkylineGrid, "update", "grid.update")


# ---------------------------------------------------------------------------
# Folding spans into a per-layer ledger
# ---------------------------------------------------------------------------


def attribute(spans: list[list]) -> list[list]:
    """Give every span its root span's job id, in place.

    Spans opened inside ``Scheduler.submit`` start before the job exists;
    the submit span learns the id only when it returns.
    """
    by_id = {span[ID]: span for span in spans}
    for span in spans:
        root = span
        while root[PARENT] in by_id:
            root = by_id[root[PARENT]]
        span[JOB] = root[JOB]
    return spans


def fold(spans: Iterable[list]) -> dict[str, dict[str, Any]]:
    """Per span name: calls, inclusive and self seconds, durations, extras.

    Self time is a span's duration minus its children's durations;
    children of one span run on its thread, one after another, so their
    durations never overlap.
    """
    spans = list(spans)
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[PARENT] is not None:
            child_time[span[PARENT]] += span[END] - span[START]
    layers: dict[str, dict[str, Any]] = {}
    for span in spans:
        duration = span[END] - span[START]
        layer = layers.setdefault(
            span[NAME],
            {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [],
             "extras": []},
        )
        layer["calls"] += 1
        layer["total_s"] += duration
        layer["self_s"] += duration - child_time.get(span[ID], 0.0)
        layer["durations"].append(duration)
        if span[EXTRA] is not None:
            layer["extras"].append(span[EXTRA])
    return layers


def root_intervals_by_job(spans: Iterable[list]) -> dict[str, list[tuple[float, float]]]:
    """``(start, end)`` of every root span (no traced parent), per job id."""
    intervals: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is None and span[JOB] is not None:
            intervals[span[JOB]].append((span[START], span[END]))
    return intervals


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Seconds of ``[lo, hi]`` inside the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
