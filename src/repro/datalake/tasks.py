"""The paper's evaluation tasks T1–T5, rebuilt on the synthetic corpus.

Each :func:`make_task_t*` returns a :class:`DiscoveryTask` bundling the
sources, universal dataset, model, measure set P (Table 3 assignment), the
performance oracle (real training + metrics), a cheap training-cost proxy
for BiMODis' pruning, and factories for the search space / configuration.

Paper task → our task:

====  ==========================================  =======================
Task  Paper                                        Here
====  ==========================================  =======================
T1    GBmovie — movie gross regression (Kaggle)    GB regressor, P1 = {Acc, Train, Fsc, MI}
T2    RFhouse — house-price classes (OpenData)     RF classifier, P2 = {F1, Acc, Train, Fsc, MI}
T3    LRavocado — avocado price (HF)               linear model, P3 = {MSE, MAE, Train}
T4    LGCmental — mental-health classes (Kaggle)   hist-GB classifier, P4 = {Acc, Pc, Rc, F1, AUC, Train}
T5    LGRmodel — LightGCN link recommendation      LightGCN, P5 = {Pc5, Pc10, Rc5, Rc10, Nc5, Nc10}
====  ==========================================  =======================

Measure order follows the paper's result tables, so the *decisive* measure
(last in P, the paper's default) differs from the *primary* measure Exp-1
selects "best" tables by — ``DiscoveryTask.primary``: Acc (T1), F1 (T2),
MSE (T3), Acc (T4), Pc@5 (T5). Regression "accuracy" is the clipped R²
score, the usual normalization of relative error the paper's p_Acc implies
for T1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..core.config import CheapOracle, Configuration
from ..core.estimator import Estimator, MOGBEstimator, OracleEstimator
from ..core.measures import MeasureSet, cost_measure, error_measure, score_measure
from ..core.transducer import GraphSearchSpace, SearchSpace, TabularSearchSpace
from ..exceptions import DataLakeError
from ..graph.bipartite import BipartiteGraph, split_edges
from ..graph.evaluation import train_and_evaluate
from ..ml import metrics as M
from ..ml.base import PreBinned
from ..ml.preprocessing import TableEncoder, split_indices
from ..ml.registry import make_model
from ..relational.columns import MatrixView
from ..relational.join import universal_join
from ..relational.table import Table
from ..rng import derive_seed, make_rng
from .generator import (
    CorpusSpec,
    GeneratedCorpus,
    GraphSpec,
    generate_bipartite_pool,
    generate_corpus,
)

#: Table 3 of the paper: measure → tasks using it (asserted by tests).
TASK_MEASURES: dict[str, tuple[str, ...]] = {
    "acc": ("T1", "T2", "T4"),
    "train_cost": ("T1", "T2", "T3", "T4"),
    "f1": ("T2", "T4"),
    "auc": ("T4",),
    "ndcg": ("T5",),
    "mae": ("T3",),
    "mse": ("T3",),
    "precision": ("T4", "T5"),
    "recall": ("T4", "T5"),
    "fisher": ("T1", "T2"),
    "mi": ("T1", "T2"),
}

_MIN_ROWS = 12


@dataclass
class DiscoveryTask:
    """Everything a MODis run needs for one evaluation task."""

    name: str
    kind: str  # "tabular" | "graph"
    measures: MeasureSet
    oracle: Callable[[Any], dict[str, float]]
    universal: Any  # Table (tabular) | BipartiteGraph pool (graph)
    sources: list[Table] = field(default_factory=list)
    target: str = ""
    model_name: str = ""
    corpus: GeneratedCorpus | None = None
    heldout: dict[int, set[int]] | None = None
    #: the measure Exp-1 selects "best" tables by (≠ the decisive measure,
    #: which is last in P per the paper's default)
    primary: str = ""
    max_clusters: int = 5
    n_edge_clusters: int = 10
    seed: int = 0
    cost_per_cell: float = 0.0  # calibrated cheap-cost slope
    _space: SearchSpace | None = field(default=None, repr=False)

    # -- factories -----------------------------------------------------------------
    @property
    def space(self) -> SearchSpace:
        """The (lazily built, cached) search space over the universal data."""
        if self._space is None:
            if self.kind == "tabular":
                self._space = TabularSearchSpace(
                    self.universal,
                    target=self.target,
                    max_clusters=self.max_clusters,
                    seed=self.seed,
                )
            else:
                self._space = GraphSearchSpace(
                    self.universal,
                    n_clusters=self.n_edge_clusters,
                    seed=self.seed,
                )
        return self._space

    def cheap_oracle(self) -> CheapOracle | None:
        """Raw training-cost proxy from the output size alone (PTIME, no
        training) — the partially-valuated measures BiMODis prunes with."""
        if "train_cost" not in self.measures or self.cost_per_cell <= 0:
            return None
        space = self.space

        def proxy(bits: int) -> dict[str, float]:
            rows, cols = space.output_size(bits)
            return {"train_cost": self.cost_per_cell * rows * max(cols - 1, 1)}

        return proxy

    def build_estimator(
        self, estimator: str = "mogb", n_bootstrap: int = 20, seed: int | None = None
    ) -> Estimator:
        """Construct the task's estimator: 'mogb' surrogate (exact-split
        backbone), 'mogb-hist' (histogram-boosting backbone), or exact
        'oracle'."""
        seed = self.seed if seed is None else seed
        if estimator in ("mogb", "mogb-hist"):
            return MOGBEstimator(
                self.oracle,
                self.measures,
                n_bootstrap=n_bootstrap,
                surrogate="hist" if estimator == "mogb-hist" else "gbm",
                seed=seed,
            )
        if estimator == "oracle":
            return OracleEstimator(self.oracle, self.measures)
        raise DataLakeError(f"unknown estimator kind {estimator!r}")

    def build_config(
        self,
        estimator: str = "mogb",
        n_bootstrap: int = 20,
        seed: int | None = None,
    ) -> Configuration:
        """Bundle space, measures, estimator and oracles into a Configuration."""
        return Configuration(
            space=self.space,
            measures=self.measures,
            estimator=self.build_estimator(estimator, n_bootstrap, seed),
            oracle=self.oracle,
            cheap_oracle=self.cheap_oracle(),
            seed=self.seed if seed is None else seed,
            metadata={"task": self.name, "model": self.model_name},
        )

    # -- evaluation helpers ----------------------------------------------------------
    def evaluate(self, artifact: Any) -> dict[str, float]:
        """Actual model inference on an output dataset (paper's reporting
        protocol: outputs are re-scored with real training, not estimates)."""
        return self.oracle(artifact)

    def original_performance(self) -> dict[str, float]:
        """The 'Original' yardstick row: the model over the input data."""
        return self.evaluate(self.universal)

    def relative_improvement(
        self, original_raw: dict[str, float], new_raw: dict[str, float], measure: str
    ) -> float:
        """rImp(p) = M(D_M).p / M(D_o).p on the normalized minimize scale."""
        m = self.measures[measure]
        new_value = m.normalize(new_raw[measure])
        return m.normalize(original_raw[measure]) / max(new_value, 1e-9)


# ---------------------------------------------------------------------------
# Tabular oracles
# ---------------------------------------------------------------------------


def _degenerate_raw(measures: MeasureSet) -> dict[str, float]:
    """Worst-case raw values (normalize to 1.0) for unusable tables."""
    out = {}
    for m in measures:
        if m.kind == "score":
            out[m.name] = 0.0
        else:
            out[m.name] = m.cap
    return out


def make_tabular_oracle(
    target: str,
    model_name: str,
    measures: MeasureSet,
    task_kind: str,
    split_seed: int,
    model_seed: int,
    test_fraction: float = 0.3,
) -> Callable[[Table | MatrixView], dict[str, float]]:
    """Build the ground-truth oracle: train the task's model on the table
    and measure everything the task's P mentions (plus Fisher/MI when
    requested). Degenerate tables (too few rows/features/classes) score
    worst-case on every measure so bound checks discard them.

    Accepts either a :class:`Table` (legacy path: fit a fresh
    ``TableEncoder`` per call) or a columnar
    :class:`~repro.relational.columns.MatrixView` (fast path: ``(X, y)``
    pre-encoded by the search space's :class:`ColumnStore`, bit-identical
    to what the per-call fit would produce). The function advertises the
    fast path via ``oracle.accepts_matrix`` so
    :func:`repro.core.estimator.oracle_artifact` can route to it.
    """

    @functools.lru_cache(maxsize=256)
    def split(n: int) -> tuple[np.ndarray, np.ndarray]:
        # A pure function of (n, test_fraction, split_seed): each row count
        # draws its permutation once, and every state of that size shares it.
        indices = split_indices(n, test_fraction, seed=split_seed)
        for index in indices:
            index.flags.writeable = False
        return indices

    def oracle(artifact: Table | MatrixView) -> dict[str, float]:
        if isinstance(artifact, MatrixView):
            # num_rows/num_columns are the materialized-table shape, so
            # the degeneracy gates below match the legacy path exactly.
            if artifact.num_rows < _MIN_ROWS or artifact.num_columns < 2:
                return _degenerate_raw(measures)
            X, y = artifact.X, artifact.y
        else:
            table = artifact
            if table.num_rows < _MIN_ROWS or table.num_columns < 2:
                return _degenerate_raw(measures)
            encoder = TableEncoder(target=target)
            try:
                X, y = encoder.fit_transform(table)
            except Exception:
                return _degenerate_raw(measures)
        if X.shape[0] < _MIN_ROWS or X.shape[1] == 0:
            return _degenerate_raw(measures)
        if task_kind == "classification" and len(np.unique(y)) < 2:
            return _degenerate_raw(measures)
        train_idx, test_idx = split(X.shape[0])
        X_train, X_test = X[train_idx], X[test_idx]
        y_train, y_test = y[train_idx], y[test_idx]
        if task_kind == "classification" and (
            len(np.unique(y_train)) < 2 or len(np.unique(y_test)) < 2
        ):
            return _degenerate_raw(measures)
        model = make_model(model_name, seed=model_seed)
        # Binned fast path: the artifact carries universal uint8 bin codes
        # (same rows as X) and the model trains on codes directly — zero
        # per-call quantile work. Fisher/MI and gates still use float X.
        binned = artifact.binned if isinstance(artifact, MatrixView) else None
        if binned is not None and getattr(model, "accepts_prebinned", False):
            fit_X = PreBinned(codes=binned.codes[train_idx])
            eval_X = PreBinned(codes=binned.codes[test_idx])
        else:
            fit_X, eval_X = X_train, X_test
        try:
            model.fit(fit_X, y_train)
        except Exception:
            return _degenerate_raw(measures)
        prediction = model.predict(eval_X)
        raw: dict[str, float] = {"train_cost": model.training_cost_}
        if "memory" in measures:
            # Section 2 lists memory consumption among the cost measures;
            # the natural dataset-side proxy is the encoded cell count.
            raw["memory"] = float(X.shape[0] * (X.shape[1] + 1))
        if task_kind == "classification":
            raw["acc"] = M.accuracy(y_test, prediction)
            raw["f1"] = M.f1_score(y_test, prediction)
            raw["precision"] = M.precision(y_test, prediction)
            raw["recall"] = M.recall(y_test, prediction)
            if "auc" in measures:
                proba = model.predict_proba(eval_X)
                classes = list(model.classes_)
                if len(classes) == 2:
                    scores = proba[:, 1]
                    binary = (y_test == classes[1]).astype(int)
                    raw["auc"] = (
                        M.roc_auc(binary, scores)
                        if binary.min() != binary.max()
                        else 0.0
                    )
                else:
                    raw["auc"] = M.multiclass_auc(y_test, proba, classes)
        else:
            raw["mse"] = M.mse(y_test, prediction)
            raw["mae"] = M.mae(y_test, prediction)
            raw["rmse"] = M.rmse(y_test, prediction)
            raw["acc"] = float(np.clip(M.r2_score(y_test, prediction), 0.0, 1.0))
        if "fisher" in measures or "mi" in measures:
            fisher_target = y_train
            if task_kind == "regression":
                # Fisher score needs classes: quartile-bin the target.
                edges = np.quantile(y_train, [0.25, 0.5, 0.75])
                fisher_target = np.searchsorted(edges, y_train)
            if "fisher" in measures:
                raw["fisher"] = M.fisher_score(X_train, fisher_target)
            if "mi" in measures:
                raw["mi"] = M.mutual_information(X_train, y_train)
        return raw

    oracle.accepts_matrix = True
    # Only request pre-binned artifacts when the task's model can train on
    # them (the histogram models); other models would just pay the slicing.
    oracle.accepts_binned = getattr(
        make_model(model_name, seed=model_seed), "accepts_prebinned", False
    )
    return oracle


def _calibrate_cost(
    task: DiscoveryTask, cost_cap_factor: float = 1.25
) -> tuple[float, float]:
    """Measure the model's training cost on the universal dataset; return
    (cost cap for normalization, per-cell slope for the cheap proxy)."""
    raw = task.oracle(task.universal)
    cost = max(raw.get("train_cost", 1.0), 1.0)
    if task.kind == "tabular":
        cells = task.universal.num_rows * max(task.universal.num_columns - 1, 1)
    else:
        cells = max(task.universal.num_edges, 1)
    return cost * cost_cap_factor, cost / cells


def _finalize_tabular_task(task: DiscoveryTask, cost_cap_factor: float = 1.25) -> DiscoveryTask:
    """Calibrate the training-cost cap against the universal dataset and
    rebuild the measure set with it (cost normalization needs a scale)."""
    cap, per_cell = _calibrate_cost(task, cost_cap_factor)
    rebuilt = []
    for m in task.measures:
        if m.name == "train_cost":
            rebuilt.append(cost_measure("train_cost", cap=cap, lower=m.lower,
                                        upper=m.upper))
        else:
            rebuilt.append(m)
    task.measures = MeasureSet(rebuilt)
    task.oracle = make_tabular_oracle(
        task.target,
        task.model_name,
        task.measures,
        task.corpus.spec.task if task.corpus else "regression",
        split_seed=derive_seed(task.seed, "split"),
        model_seed=derive_seed(task.seed, "model"),
    )
    task.cost_per_cell = per_cell
    return task


# ---------------------------------------------------------------------------
# Task builders
# ---------------------------------------------------------------------------


def make_task_t1(scale: float = 1.0, seed: int = 1) -> DiscoveryTask:
    """T1 — GBmovie: gradient-boosting regression of movie grosses."""
    spec = CorpusSpec(
        name="movie",
        n_rows=max(80, int(360 * scale)),
        n_informative=4,
        n_noise=4,
        n_feature_tables=3,
        n_pollution_clusters=4,
        polluted_clusters=(3,),
        pollution_scale=4.0,
        task="regression",
        seed=seed,
    )
    corpus = generate_corpus(spec)
    universal = universal_join(corpus.sources, name="D_U_movie")
    # Table 6 (T1) column order: p_Acc, p_Train, p_Fsc, p_MI — the last
    # measure (MI) is the decisive one; Exp-1 selects tables by p_Acc.
    measures = MeasureSet(
        [
            score_measure("acc"),
            cost_measure("train_cost", cap=1.0),
            score_measure("fisher", cap=4.0),
            score_measure("mi", cap=2.0),
        ]
    )
    oracle = make_tabular_oracle(
        "target", "gb_movie", measures, "regression",
        split_seed=derive_seed(seed, "split"), model_seed=derive_seed(seed, "model"),
    )
    task = DiscoveryTask(
        name="T1",
        kind="tabular",
        measures=measures,
        oracle=oracle,
        universal=universal,
        sources=corpus.sources,
        target="target",
        model_name="gb_movie",
        corpus=corpus,
        max_clusters=4,
        seed=seed,
        primary="acc",
    )
    return _finalize_tabular_task(task)


def make_task_t2(scale: float = 1.0, seed: int = 2) -> DiscoveryTask:
    """T2 — RFhouse: random-forest classification of house-price levels."""
    spec = CorpusSpec(
        name="house",
        n_rows=max(80, int(300 * scale)),
        n_informative=5,
        n_noise=5,
        n_feature_tables=4,
        n_pollution_clusters=4,
        polluted_clusters=(2, 3),
        pollution_scale=3.5,
        task="classification",
        n_classes=3,
        seed=seed,
    )
    corpus = generate_corpus(spec)
    universal = universal_join(corpus.sources, name="D_U_house")
    # Table 4 (T2) row order: p_F1, p_Acc, p_Train, p_Fsc, p_MI.
    measures = MeasureSet(
        [
            score_measure("f1"),
            score_measure("acc"),
            cost_measure("train_cost", cap=1.0),
            score_measure("fisher", cap=4.0),
            score_measure("mi", cap=2.0),
        ]
    )
    oracle = make_tabular_oracle(
        "target", "rf_house", measures, "classification",
        split_seed=derive_seed(seed, "split"), model_seed=derive_seed(seed, "model"),
    )
    task = DiscoveryTask(
        name="T2",
        kind="tabular",
        measures=measures,
        oracle=oracle,
        universal=universal,
        sources=corpus.sources,
        target="target",
        model_name="rf_house",
        corpus=corpus,
        max_clusters=4,
        seed=seed,
        primary="f1",
    )
    return _finalize_tabular_task(task)


def make_task_t3(scale: float = 1.0, seed: int = 3) -> DiscoveryTask:
    """T3 — LRavocado: linear-model regression of avocado prices."""
    spec = CorpusSpec(
        name="avocado",
        n_rows=max(120, int(500 * scale)),
        n_informative=4,
        n_noise=3,
        n_feature_tables=3,
        n_pollution_clusters=5,
        polluted_clusters=(4,),
        pollution_scale=5.0,
        task="regression",
        seed=seed,
    )
    corpus = generate_corpus(spec)
    universal = universal_join(corpus.sources, name="D_U_avocado")
    # Table 6 (T3) row order: MSE, MAE, Training Time (decisive: cost).
    measures = MeasureSet(
        [
            error_measure("mse", cap=16.0),
            error_measure("mae", cap=4.0),
            cost_measure("train_cost", cap=1.0),
        ]
    )
    oracle = make_tabular_oracle(
        "target", "lr_avocado", measures, "regression",
        split_seed=derive_seed(seed, "split"), model_seed=derive_seed(seed, "model"),
    )
    task = DiscoveryTask(
        name="T3",
        kind="tabular",
        measures=measures,
        oracle=oracle,
        universal=universal,
        sources=corpus.sources,
        target="target",
        model_name="lr_avocado",
        corpus=corpus,
        max_clusters=5,
        seed=seed,
        primary="mse",
    )
    return _finalize_tabular_task(task)


def make_task_t4(scale: float = 1.0, seed: int = 4) -> DiscoveryTask:
    """T4 — LGCmental: LightGBM-style classification of mental-health
    status (binary)."""
    spec = CorpusSpec(
        name="mental",
        n_rows=max(100, int(380 * scale)),
        n_informative=5,
        n_noise=4,
        n_feature_tables=4,
        n_pollution_clusters=4,
        polluted_clusters=(3,),
        pollution_scale=4.0,
        task="classification",
        n_classes=2,
        seed=seed,
    )
    corpus = generate_corpus(spec)
    universal = universal_join(corpus.sources, name="D_U_mental")
    # Table 4 (T4) row order: p_Acc, p_Pc, p_Rc, p_F1, p_AUC, p_Train.
    measures = MeasureSet(
        [
            score_measure("acc"),
            score_measure("precision"),
            score_measure("recall"),
            score_measure("f1"),
            score_measure("auc"),
            cost_measure("train_cost", cap=1.0),
        ]
    )
    oracle = make_tabular_oracle(
        "target", "lgc_mental", measures, "classification",
        split_seed=derive_seed(seed, "split"), model_seed=derive_seed(seed, "model"),
    )
    task = DiscoveryTask(
        name="T4",
        kind="tabular",
        measures=measures,
        oracle=oracle,
        universal=universal,
        sources=corpus.sources,
        target="target",
        model_name="lgc_mental",
        corpus=corpus,
        max_clusters=4,
        seed=seed,
        primary="acc",
    )
    return _finalize_tabular_task(task)


def make_task_t5(scale: float = 1.0, seed: int = 5) -> DiscoveryTask:
    """T5 — LGRmodel: LightGCN link recommendation on a bipartite graph."""
    spec = GraphSpec(
        name="recsys",
        n_users=max(20, int(50 * scale)),
        n_items=max(30, int(70 * scale)),
        n_groups=3,
        p_intra=0.3,
        p_noise=0.05,
        seed=seed,
    )
    pool_full = generate_bipartite_pool(spec)
    pool, heldout = split_edges(pool_full, 0.25, make_rng(derive_seed(seed, "held")))
    # Table 5 row order: Pc5, Pc10, Rc5, Rc10, Nc5, Nc10 (decisive: Nc10).
    # Caps reflect historically attainable ranking quality on the pool
    # (Example 2's protocol: normalization bounds come from historical
    # performance, not the theoretical [0, 1] range) — without them, raw
    # scores of a few percent all normalize to ≈1 and the ε-grid of
    # Equation 1 cannot separate states.
    measures = MeasureSet(
        [
            score_measure("precision@5", cap=0.3),
            score_measure("precision@10", cap=0.3),
            score_measure("recall@5", cap=0.6),
            score_measure("recall@10", cap=0.6),
            score_measure("ndcg@5", cap=0.4),
            score_measure("ndcg@10", cap=0.4),
        ]
    )
    lightgcn_seed = derive_seed(seed, "lightgcn")

    def oracle(graph: BipartiteGraph) -> dict[str, float]:
        ranking, _cost = train_and_evaluate(
            graph,
            heldout,
            ks=(5, 10),
            seed=lightgcn_seed,
            epochs=20,
            embedding_dim=12,
        )
        return ranking

    return DiscoveryTask(
        name="T5",
        kind="graph",
        measures=measures,
        oracle=oracle,
        universal=pool,
        model_name="lightgcn",
        heldout=heldout,
        n_edge_clusters=10,
        seed=seed,
        primary="precision@5",
    )


TASK_BUILDERS: dict[str, Callable[..., DiscoveryTask]] = {
    "T1": make_task_t1,
    "T2": make_task_t2,
    "T3": make_task_t3,
    "T4": make_task_t4,
    "T5": make_task_t5,
}


def make_task(name: str, scale: float = 1.0, seed: int | None = None) -> DiscoveryTask:
    """Build any of T1–T5 by name."""
    if name not in TASK_BUILDERS:
        raise DataLakeError(f"unknown task {name!r}; have {sorted(TASK_BUILDERS)}")
    kwargs: dict[str, Any] = {"scale": scale}
    if seed is not None:
        kwargs["seed"] = seed
    return TASK_BUILDERS[name](**kwargs)
