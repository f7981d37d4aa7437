"""T5 oracle training: array-form LightGCN epochs vs the scalar triple loop.

A perf-trajectory point (BENCH_lightgcn.json) for the training path of
the paper's T5 task. Every T5 oracle call fits a LightGCN on one graph
state. This bench fits the graphs that search valuates — edge subsets of
T5's pool at scale 0.5, 25 users x 35 items, with the oracle's knobs
(20 epochs, dim 12, 2 layers, one negative per positive) — twice:

* **scalar** — under ``scalar_lightgcn()`` from
  ``tests/reference/lightgcn.py``: one BPR triple at a time, one scalar
  rejection draw per negative, ``np.mean`` over stacked layers;
* **array** — ``LightGCN.fit`` as shipped.

Both must produce byte-identical embeddings and equal
``training_cost_``, and the array fit must be at least 3x faster.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from _harness import print_table
from repro.datalake import make_task
from repro.graph import BipartiteGraph, LightGCN
from repro.rng import derive_seed, make_rng

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # for tests.reference
from tests.reference.lightgcn import scalar_lightgcn  # noqa: E402

TASK_SEEDS = (1, 2, 3, 4)
SCALE = 0.5
GRAPHS_PER_POOL = 12
REPEATS = 3
SPEEDUP_FLOOR = 3.0
OUTPUT = Path("BENCH_lightgcn.json")
ORACLE_KNOBS = {"epochs": 20, "embedding_dim": 12}


def _state_graphs() -> list[tuple[BipartiteGraph, int]]:
    """(graph, model seed) pairs: each pool plus random edge subsets of it,
    keeping 20-100% of the edges as the search's reduct steps do."""
    out = []
    for task_seed in TASK_SEEDS:
        pool = make_task("T5", scale=SCALE, seed=task_seed).universal
        model_seed = derive_seed(task_seed, "lightgcn")
        rng = make_rng(task_seed)
        for keep in np.linspace(0.2, 1.0, GRAPHS_PER_POOL):
            mask = rng.random(pool.num_edges) < keep
            mask[0] = True
            edges = [e for e, kept in zip(pool.edges, mask) if kept]
            out.append((BipartiteGraph(pool.n_users, pool.n_items, edges), model_seed))
    return out


def _fit_all(graphs) -> tuple[float, list[tuple[bytes, bytes, float]]]:
    start = time.perf_counter()
    models = [LightGCN(seed=seed, **ORACLE_KNOBS).fit(g) for g, seed in graphs]
    elapsed = time.perf_counter() - start
    return elapsed, [
        (m.user_emb_.tobytes(), m.item_emb_.tobytes(), m.training_cost_) for m in models
    ]


def test_lightgcn_fit_speedup(benchmark):
    graphs = _state_graphs()

    def run():
        scalar_times, array_times = [], []
        for _ in range(REPEATS):
            with scalar_lightgcn():
                t, scalar_fits = _fit_all(graphs)
            scalar_times.append(t)
            t, array_fits = _fit_all(graphs)
            array_times.append(t)
        return scalar_times, array_times, scalar_fits, array_fits

    scalar_times, array_times, scalar_fits, array_fits = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    scalar_s, array_s = min(scalar_times), min(array_times)
    speedup = scalar_s / max(array_s, 1e-12)
    identical = scalar_fits == array_fits
    edges = [g.num_edges for g, _ in graphs]
    print_table(
        f"LightGCN fits: {len(graphs)} T5 states, {min(edges)}-{max(edges)} edges",
        {
            "scalar triple loop": {"fit_s": round(scalar_s, 3)},
            "array epoch": {"fit_s": round(array_s, 3)},
        },
    )
    print(f"array speedup: {speedup:.1f}x")

    payload = {
        "benchmark": "lightgcn",
        "graphs": len(graphs),
        "n_users": graphs[0][0].n_users,
        "n_items": graphs[0][0].n_items,
        "edges_min": min(edges),
        "edges_max": max(edges),
        **ORACLE_KNOBS,
        "repeats": REPEATS,
        "scalar_fit_s": scalar_s,
        "array_fit_s": array_s,
        "scalar_fit_s_median": float(np.median(scalar_times)),
        "array_fit_s_median": float(np.median(array_times)),
        "scalar_fit_s_all": scalar_times,
        "array_fit_s_all": array_times,
        "speedup": speedup,
        "speedup_floor": SPEEDUP_FLOOR,
        "embeddings_identical": identical,
        "machine": {
            "platform": f"{platform.system()} {platform.machine()}",
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT.resolve()}")

    benchmark.extra_info.update(
        {"speedup": round(speedup, 2), "embeddings_identical": identical}
    )
    assert identical, "array-form LightGCN fits diverged from the scalar kernel"
    assert speedup >= SPEEDUP_FLOOR, (
        f"array speedup {speedup:.2f}x below the {SPEEDUP_FLOOR}x floor "
        f"(scalar {scalar_s:.3f}s vs array {array_s:.3f}s)"
    )
