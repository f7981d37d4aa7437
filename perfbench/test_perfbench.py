"""The benchmark's own logic: span folding, tails, workloads, metric names.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

from run import steal_share, tail
from tracer import (
    SpanRecorder, attribute, covered, fold, root_intervals_by_job, traced_oracle,
)
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def _span(id_, parent, name, start, end, job=None):
    return [id_, parent, name, start, end, job, 0, None]


def test_fold_subtracts_children_from_self_time():
    spans = [
        _span(2, 1, "valuate", 1.0, 3.0),
        _span(3, 2, "oracle.train", 1.5, 2.5),
        _span(4, 1, "grid.update", 3.0, 3.5),
        _span(1, None, "search", 0.0, 4.0, job="j1"),
    ]
    layers = fold(spans)
    assert layers["search"]["self_s"] == 4.0 - 2.0 - 0.5
    assert layers["valuate"]["self_s"] == 1.0
    assert layers["oracle.train"]["self_s"] == 1.0
    total_self = sum(layer["self_s"] for layer in layers.values())
    assert total_self == 4.0  # self times of one tree sum to its root


def test_attribute_gives_children_their_roots_job():
    spans = attribute([
        _span(2, 1, "journal.append", 0.1, 0.2),
        _span(1, None, "scheduler.submit", 0.0, 0.3, job="j7"),
        _span(3, None, "search", 1.0, 2.0, job="j8"),
    ])
    assert [s[5] for s in spans] == ["j7", "j7", "j8"]
    assert root_intervals_by_job(spans) == {"j7": [(0.0, 0.3)], "j8": [(1.0, 2.0)]}


def test_covered_counts_overlaps_once_and_clips_to_the_job():
    intervals = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.7), (9.0, 12.0)]
    assert covered(intervals, 0.5, 10.0) == 2.5 + 1.0 + 1.0
    assert covered([], 0.0, 1.0) == 0.0
    assert covered([(2.0, 3.0)], 0.0, 1.0) == 0.0


def test_recorder_nests_spans_per_thread_and_keeps_oracle_flags():
    recorder = SpanRecorder(job_of=lambda: "job-1")

    def oracle(artifact):
        return {"acc": 0.5}

    oracle.accepts_matrix = True
    oracle.accepts_binned = False
    inner = traced_oracle(recorder, oracle)
    outer = recorder.wrap("search", lambda: inner(None))
    assert outer() == {"acc": 0.5}
    assert inner.accepts_matrix is True and inner.accepts_binned is False
    (child, root) = recorder.spans
    assert child[2] == "oracle.train" and child[1] == root[0]
    assert root[1] is None and root[5] == child[5] == "job-1"


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, percentile, samples = tail([float(i) for i in range(1, 101)])
    assert (value, percentile, samples) == (90.0, 90.0, 100)
    assert sum(1 for v in range(1, 101) if v > value) == 10
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_steal_share_is_the_stolen_part_of_all_ticks():
    before = [100, 0, 20, 300, 5, 0, 1, 10, 0, 0]
    after = [150, 0, 30, 330, 5, 0, 1, 20, 0, 0]
    assert steal_share(before, after) == 10 / 100
    assert steal_share(before, before) == 0.0


def test_workloads_are_deterministic_and_fresh_where_promised():
    for workload in WORKLOADS.values():
        first = list(itertools.islice(workload.jobs(3), 40))
        assert first == list(itertools.islice(workload.jobs(3), 40))
        assert first != list(itertools.islice(workload.jobs(4), 40))
        assert workload.prewarm(3) == workload.prewarm(3)
    cold = list(itertools.islice(WORKLOADS["oracle-cold"].jobs(1), 100))
    keys = {(s["task"], s["scale"], s["seed"]) for s in cold}
    assert len(keys) == len(cold)  # every job builds a new task
    warm = WORKLOADS["surrogate-warm"]
    jobs = list(itertools.islice(warm.jobs(1), 60))
    assert len({json.dumps(s, sort_keys=True) for s in jobs}) == len(jobs)
    warm_keys = {(s["task"], s["seed"]) for s in warm.prewarm(1)}
    assert {(s["task"], s["seed"]) for s in jobs} == warm_keys
    # Each key sees its own jobs in one order under every seed, so its
    # oracle-store history, and with it every skyline, is seed-free.
    other = list(itertools.islice(warm.jobs(2), 60))
    for key in warm_keys:
        def of_key(seq):
            return [s for s in seq[:54] if (s["task"], s["seed"]) == key]  # six blocks
        assert of_key(jobs) == of_key(other)
    assert sorted(map(json.dumps, jobs[:18])) == sorted(map(json.dumps, other[:18]))
    replay = WORKLOADS["cache-replay"]
    pool = {json.dumps(s, sort_keys=True) for s in replay.prewarm(1)}
    assert all(
        json.dumps(s, sort_keys=True) in pool
        for s in itertools.islice(replay.jobs(1), 100)
    )


def test_benchmark_json_matches_the_layer_notes():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    notes = json.loads((HERE / "layers.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert set(notes["workloads"]) == set(WORKLOADS)
    for name, workload in WORKLOADS.items():
        assert notes["workloads"][name]["clients"] == workload.clients
    assert [m["name"] for m in spec["per_layer"]] == list(notes["per_layer"])
    names = {m["name"] for m in spec["end_to_end"]}
    for metric in notes["per_layer"].values():
        for target in metric["should_move"]:
            assert target["metric"] in names
            assert target["workload"] in WORKLOADS


def test_rounds_run_whole_blocks_that_hold_the_same_jobs_under_every_seed():
    def specs(workload, seed, n):
        return sorted(json.dumps(s, sort_keys=True)
                      for s in itertools.islice(workload.jobs(seed), n))

    for workload in WORKLOADS.values():
        for seconds in (0.001, 1.0, 6.0, 30.0):
            jobs = workload.round_jobs(seconds)
            assert jobs >= workload.block and jobs % workload.block == 0
        n = workload.round_jobs(6.0)
        assert specs(workload, 1, n) == specs(workload, 2, n)
