"""Oracle-training throughput: full-precision GBM vs pre-binned codes.

The second point of the perf trajectory (BENCH_binned_oracle.json).
BENCH_materialize timed the *data path* (bitmap → ``(X, y)``); this one
times the *training path* — full exhaustive BiMODis searches with the
exact oracle, where every valuated state trains a boosted model:

* **legacy** — the full-precision oracle the discovery loop retrained
  per state before binning: an exact-split gradient-boosting classifier
  over the float matrix (sorting-based thresholds, no binning), grown
  with the scalar per-feature CART scan from ``tests/reference/cart.py``
  so this end stays the program the 10x floor was set against;
* **binned** — the ColumnStore quantizes the universal table once, every
  state trains a histogram classifier of the same shape (estimators,
  depth) straight on sliced uint8 codes (``PreBinned``) through the
  vectorized trees.

The speedup floor compares those two ends. The same exact-split GBM on
the shipped, vectorized CART scan is timed as well and recorded without a
floor (``exact_search_s``, ``exact_speedup``); its skyline must equal the
scalar one, since the two kernels grow bit-identical trees. Separately, the
identical-skyline gate is asserted where it is *mathematically exact*:
the same histogram learner run once per-state-binned (legacy prologue,
scalar reference trees from ``tests/reference/hist_tree.py``) and once
pre-binned. The dataset is engineered
so the two binning schemes coincide — every feature has 8 distinct
values with equal row counts, so any quantile grid, universal or
per-state, separates all adjacent values and induces the same histogram
partitions. Measures exclude ``train_cost`` (its raw value is the split
workload, which the binning scheme legitimately changes); under those
conditions the two searches must return byte-identical skylines.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from _harness import print_table
from repro.core.algorithms.bimodis import BiMODis
from repro.core.measures import MeasureSet, cost_measure, score_measure
from repro.datalake.tasks import DiscoveryTask, make_tabular_oracle
from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.registry import make_model, register_model
from repro.relational.schema import Attribute, CATEGORICAL, NUMERIC, Schema
from repro.relational.table import Table
from repro.rng import derive_seed, make_rng
import repro.ml.histogram_boosting as hb

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # for tests.reference
from tests.reference.cart import scalar_cart  # noqa: E402
from tests.reference.hist_tree import reference_hist_trees  # noqa: E402

N_ROWS = 8192
N_FEATURES = 4
N_VALUES = 8  # distinct values per feature; 8192/8 = 1024 rows per value
SEED = 29
REPEATS = 3
SPEEDUP_FLOOR = 10.0
OUTPUT = Path("BENCH_binned_oracle.json")

EPSILON = 0.25
BUDGET = 128  # exhaustive at this width: every candidate gets valuated
MAX_LEVEL = 2

# Same model shape on both ends of the comparison (T4-style classifier,
# 12 rounds of depth-3 trees); only the split machinery differs.
N_ESTIMATORS = 12
MAX_DEPTH = 3
MODEL_LEGACY = "bench_fullprec_gbm"
MODEL_BINNED = "bench_binned_hgb"
try:
    make_model(MODEL_BINNED)
except Exception:
    register_model(
        MODEL_LEGACY,
        lambda seed: GradientBoostingClassifier(
            n_estimators=N_ESTIMATORS, max_depth=MAX_DEPTH, seed=seed
        ),
    )
    register_model(
        MODEL_BINNED,
        lambda seed: hb.HistGradientBoostingClassifier(
            n_estimators=N_ESTIMATORS, max_depth=MAX_DEPTH, seed=seed
        ),
    )


def _universal_table() -> Table:
    """8192 rows × 4 numeric features, each feature a shuffled 8-level
    grid with exactly 1024 rows per level, plus a binary target driven by
    the features (so trees have real signal to split on)."""
    rng = make_rng(SEED)
    columns: dict[str, list] = {}
    latent = np.zeros(N_ROWS)
    for i in range(N_FEATURES):
        levels = np.sort(rng.normal(size=N_VALUES))
        assignment = np.repeat(np.arange(N_VALUES), N_ROWS // N_VALUES)
        rng.shuffle(assignment)
        column = levels[assignment]
        columns[f"f{i}"] = [float(v) for v in column]
        latent += rng.uniform(0.3, 1.0) * column
    latent += 0.4 * rng.normal(size=N_ROWS)
    cut = float(np.median(latent))
    columns["target"] = ["pos" if v > cut else "neg" for v in latent]
    schema = Schema(
        [Attribute(f"f{i}", NUMERIC) for i in range(N_FEATURES)]
        + [Attribute("target", CATEGORICAL)]
    )
    return Table(schema, columns)


def _task(model_name: str) -> DiscoveryTask:
    """A fresh task per timed run: caches, ColumnStore, and clustering
    are all cold, so the binned pass pays its one-time quantization."""
    measures = MeasureSet(
        [
            score_measure("acc"),
            score_measure("precision"),
            cost_measure("memory", cap=float(N_ROWS * (N_FEATURES + 1))),
        ]
    )
    oracle = make_tabular_oracle(
        "target",
        model_name,
        measures,
        "classification",
        split_seed=derive_seed(SEED, "split"),
        model_seed=derive_seed(SEED, "model"),
    )
    return DiscoveryTask(
        name="BINNED-BENCH",
        kind="tabular",
        measures=measures,
        oracle=oracle,
        universal=_universal_table(),
        target="target",
        model_name=model_name,
        max_clusters=1,
        seed=SEED,
        primary="acc",
    )


def _run_search(task, strip: bool = False):
    """One cold exhaustive BiMODis run; ``strip=True`` removes the
    oracle's capability flags so every valuation materializes a Python
    Table and re-encodes it (the pre-columnar oracle prologue)."""
    config = task.build_config(estimator="oracle")
    if strip:
        inner = config.estimator.oracle
        stripped = lambda artifact: inner(artifact)  # noqa: E731
        config.estimator.oracle = stripped
        config.oracle = stripped
    algo = BiMODis(config, epsilon=EPSILON, budget=BUDGET, max_level=MAX_LEVEL)
    start = time.perf_counter()
    result = algo.run()
    elapsed = time.perf_counter() - start
    front = [
        (e.bits, tuple(float(v) for v in e.state.perf)) for e in result.entries
    ]
    return elapsed, front


def test_binned_oracle_speedup(benchmark):
    def run():
        legacy_times, exact_times, binned_times = [], [], []
        for _ in range(REPEATS):
            with scalar_cart():
                t, legacy_front = _run_search(_task(MODEL_LEGACY))
            legacy_times.append(t)
            t, exact_front = _run_search(_task(MODEL_LEGACY))
            exact_times.append(t)
            t, binned_front = _run_search(_task(MODEL_BINNED))
            binned_times.append(t)
        # parity pair: the same histogram learner through the legacy
        # prologue (per-state binning, scalar reference trees)
        with reference_hist_trees():
            _, parity_front = _run_search(_task(MODEL_BINNED), strip=True)
        return (
            min(legacy_times), min(exact_times), min(binned_times),
            legacy_front, exact_front, parity_front, binned_front,
        )

    (
        legacy_s, exact_s, binned_s,
        legacy_front, exact_front, parity_front, binned_front,
    ) = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = legacy_s / max(binned_s, 1e-12)
    exact_speedup = exact_s / max(binned_s, 1e-12)
    rows = {
        "full-precision (scalar CART)": {"search_s": round(legacy_s, 3)},
        "full-precision (vectorized CART)": {"search_s": round(exact_s, 3)},
        "binned": {"search_s": round(binned_s, 3)},
    }
    print_table(
        f"Exhaustive oracle search: {N_ROWS} rows x {N_FEATURES} features",
        rows,
    )
    print(f"binned speedup: {speedup:.1f}x (over vectorized CART: {exact_speedup:.1f}x)")

    identical = parity_front == binned_front
    payload = {
        "benchmark": "binned_oracle",
        "universal_rows": N_ROWS,
        "n_features": N_FEATURES,
        "n_estimators": N_ESTIMATORS,
        "max_depth": MAX_DEPTH,
        "budget": BUDGET,
        "max_level": MAX_LEVEL,
        "legacy_search_s": legacy_s,
        "binned_search_s": binned_s,
        "speedup": speedup,
        "speedup_floor": SPEEDUP_FLOOR,
        "exact_search_s": exact_s,
        "exact_speedup": exact_speedup,
        "skyline_identical": identical,
        "skyline_size": len(binned_front),
        "skyline_bits": [hex(bits) for bits, _ in binned_front],
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT.resolve()}")

    benchmark.extra_info.update(
        {"speedup": round(speedup, 2), "skyline_identical": identical}
    )
    assert exact_front == legacy_front, (
        "vectorized CART skyline diverged from the scalar kernel's:\n"
        f"vectorized = {exact_front}\nscalar = {legacy_front}"
    )
    assert identical, (
        "pre-binned skyline diverged from the per-state-binned learner:\n"
        f"binned = {binned_front}\nper-state = {parity_front}"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"binned speedup {speedup:.2f}x below the {SPEEDUP_FLOOR}x floor "
        f"(full-precision {legacy_s:.3f}s vs binned {binned_s:.3f}s)"
    )
