"""Valuation-throughput benchmark: legacy Table path vs columnar fast path.

The first point of the perf trajectory (BENCH_materialize.json). Measures
the per-state cost of the valuation *data path* — everything between a
state bitmap and the ``(X, y)`` the model trains on — for both
materializers on a T1-scale tabular task:

* **legacy** — ``materialize(bits)`` builds a Python-list Table, then a
  fresh ``TableEncoder`` is fit on it (exactly the oracle's pre-columnar
  prologue, re-done on every call);
* **columnar** — ``materialize_matrix(bits)`` slices the once-encoded
  :class:`~repro.relational.ColumnStore` into a ``MatrixView``.

States follow the search-realistic distribution (the universal bitmap, all
single flips, random double flips — what ApxMODis/BiMODis actually valuate
level by level), timed cold (every state distinct, caches empty).

Two hard gates back the PR's acceptance criteria: the columnar path must be
≥3× faster, and a real BiMODis search must return a bit-identical skyline
through either path.

A second row records T3 (the linear-model task, whose universal table has
nullable numeric columns) at scale 0.5 under the same cold protocol. It
has no speed floor; every one of its states must encode bit-identically
to the legacy encoder.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from _harness import bench_task, print_table
from repro.core.algorithms import BiMODis
from repro.ml.preprocessing import TableEncoder
from repro.rng import make_rng

TASK = "T1"
SCALE = 1.0
T3_SCALE = 0.5
N_DOUBLE_FLIPS = 80
REPEATS = 3
SPEEDUP_FLOOR = 3.0
OUTPUT = Path("BENCH_materialize.json")

PARITY_EPSILON = 0.15
PARITY_BUDGET = 40
PARITY_MAX_LEVEL = 4


def _search_realistic_bitmaps(space) -> list[int]:
    """Universal + single flips + random double flips, all distinct."""
    rng = make_rng(17)
    universal = space.universal_bits
    bitmaps = [universal] + [universal ^ (1 << i) for i in range(space.width)]
    for _ in range(N_DOUBLE_FLIPS):
        i, j = (int(v) for v in rng.integers(space.width, size=2))
        bitmaps.append(universal ^ (1 << i) ^ (1 << j))
    return list(dict.fromkeys(bitmaps))


def _legacy_encodings(space, target: str, bitmaps: list[int]) -> list:
    """The pre-columnar valuation prologue's ``(X, y)`` per state: project
    and take a Table, fit a fresh encoder (None where it raises — a
    degenerate state both paths short-circuit)."""
    universal = space.universal
    encodings = []
    for bits in bitmaps:
        table = universal.project(
            space.active_attributes(bits) + [target]
        ).take(np.flatnonzero(space.row_mask(bits)).tolist())
        try:
            encodings.append(TableEncoder(target=target).fit_transform(table))
        except Exception:
            encodings.append(None)
    return encodings


def _time_legacy(space, target: str, bitmaps: list[int]) -> float:
    """Seconds for one cold pass of the pre-columnar valuation prologue."""
    start = time.perf_counter()
    _legacy_encodings(space, target, bitmaps)
    return time.perf_counter() - start


def _time_columnar(space, bitmaps: list[int]) -> float:
    """Seconds for one cold pass of ColumnStore subset encoding."""
    store = space.column_store
    start = time.perf_counter()
    for bits in bitmaps:
        store.encode_subset(space.row_mask(bits), space.active_attributes(bits))
    return time.perf_counter() - start


def _cold_pass_seconds(task) -> tuple[int, float, float]:
    """(states, legacy s, columnar s): best of ``REPEATS`` cold passes over
    the search-realistic bitmaps, masks and the one-time encoding built
    outside the timer."""
    space = task.space
    bitmaps = _search_realistic_bitmaps(space)
    for bits in bitmaps:  # warm the shared mask cache for both paths
        space.row_mask(bits)
    space.column_store  # build the one-time encoding outside the timer
    legacy = min(
        _time_legacy(space, task.target, bitmaps) for _ in range(REPEATS)
    )
    columnar = min(_time_columnar(space, bitmaps) for _ in range(REPEATS))
    return len(bitmaps), legacy, columnar


def _encodings_identical(task) -> bool:
    """Every search-realistic state's columnar ``(X, y)`` equals the legacy
    encoder's; a state the encoder rejects must encode to an empty view."""
    space = task.space
    bitmaps = _search_realistic_bitmaps(space)
    store = space.column_store
    for bits, legacy in zip(
        bitmaps, _legacy_encodings(space, task.target, bitmaps)
    ):
        view = store.encode_subset(
            space.row_mask(bits), space.active_attributes(bits)
        )
        if legacy is None:
            if view.X.shape[0] and view.X.shape[1]:
                return False
        elif not (
            np.array_equal(view.X, legacy[0])
            and np.array_equal(view.y, legacy[1])
        ):
            return False
    return True


def _rates(n: int, legacy_s: float, columnar_s: float) -> dict:
    return {
        "legacy": {
            "valuations_per_s": round(n / legacy_s, 1),
            "ms_per_state": round(legacy_s * 1000 / n, 3),
        },
        "columnar": {
            "valuations_per_s": round(n / columnar_s, 1),
            "ms_per_state": round(columnar_s * 1000 / n, 3),
        },
    }


def _skyline(task, fast: bool) -> list[tuple[int, tuple[float, ...]]]:
    """One BiMODis run; ``fast=False`` strips the oracle's fast-path
    capability so every valuation takes the Table route."""
    config = task.build_config(estimator="oracle")
    if not fast:
        inner = config.estimator.oracle
        stripped = lambda artifact: inner(artifact)  # noqa: E731
        config.estimator.oracle = stripped
        config.oracle = stripped
    algo = BiMODis(
        config,
        epsilon=PARITY_EPSILON,
        budget=PARITY_BUDGET,
        max_level=PARITY_MAX_LEVEL,
    )
    result = algo.run()
    return [(e.bits, tuple(float(v) for v in e.state.perf)) for e in result.entries]


def test_columnar_materialization_speedup(benchmark):
    task = bench_task(TASK, scale=SCALE)
    t3 = bench_task("T3", scale=T3_SCALE)
    space = task.space

    def run():
        return _cold_pass_seconds(task), _cold_pass_seconds(t3)

    (n, legacy_s, columnar_s), (t3_n, t3_legacy_s, t3_columnar_s) = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )
    speedup = legacy_s / max(columnar_s, 1e-12)
    t3_speedup = t3_legacy_s / max(t3_columnar_s, 1e-12)
    print_table(
        f"Materialization throughput: {TASK} scale {SCALE}, {n} states",
        _rates(n, legacy_s, columnar_s),
    )
    print(f"columnar speedup: {speedup:.1f}x")
    print_table(
        f"Materialization throughput: T3 scale {T3_SCALE}, {t3_n} states",
        _rates(t3_n, t3_legacy_s, t3_columnar_s),
    )
    print(f"T3 columnar speedup: {t3_speedup:.1f}x")
    t3_identical = _encodings_identical(t3)

    fast_front = _skyline(task, fast=True)
    legacy_front = _skyline(task, fast=False)
    identical = fast_front == legacy_front

    payload = {
        "benchmark": "materialize",
        "task": TASK,
        "scale": SCALE,
        "n_states": n,
        "universal_rows": space.universal.num_rows,
        "legacy_valuations_per_s": n / legacy_s,
        "columnar_valuations_per_s": n / columnar_s,
        "speedup": speedup,
        "speedup_floor": SPEEDUP_FLOOR,
        "skyline_identical": identical,
        "skyline_bits": [hex(bits) for bits, _ in fast_front],
        "cache_stats": {
            key: value
            for key, value in space.cache_stats.items()
            if not isinstance(value, dict)
        },
        "t3": {
            "task": "T3",
            "scale": T3_SCALE,
            "n_states": t3_n,
            "universal_rows": t3.space.universal.num_rows,
            "legacy_valuations_per_s": t3_n / t3_legacy_s,
            "columnar_valuations_per_s": t3_n / t3_columnar_s,
            "speedup": t3_speedup,
            "encodings_identical": t3_identical,
        },
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT.resolve()}")

    benchmark.extra_info.update(
        {"speedup": round(speedup, 2), "skyline_identical": identical}
    )
    assert t3_identical, "T3 columnar (X, y) diverged from the legacy encoder"
    assert identical, (
        "fast-path skyline diverged from the Table path:\n"
        f"fast   = {fast_front}\nlegacy = {legacy_front}"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"columnar speedup {speedup:.2f}x below the {SPEEDUP_FLOOR}x floor "
        f"(legacy {legacy_s:.3f}s vs columnar {columnar_s:.3f}s for {n} states)"
    )
