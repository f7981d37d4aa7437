"""Performance oracles, test records, and the MO-GBM surrogate estimator.

Section 2: an estimator ``E`` predicts a model's performance vector over a
new dataset in PTIME, "mak[ing] use of a set of historically observed
performance of M (denoted as T)". The default is a multi-output Gradient
Boosting model.

Three players live here:

* a **performance oracle** — the ground truth: trains the task's model on a
  materialized artifact and returns raw measure values (expensive);
* :class:`TestStore` — the paper's test set ``T``: every valuated
  (state, performance-vector) pair, keyed by bitmap;
* estimators — :class:`OracleEstimator` (always call the oracle; exact) and
  :class:`MOGBEstimator` (bootstrap a few oracle calls, then answer from a
  multi-output GB surrogate over state features; the paper's default ``E``).

Valuation fast path: every oracle invocation goes through
:func:`oracle_artifact`, which hands the oracle a columnar
:class:`~repro.relational.columns.MatrixView` (numpy slice of the
once-encoded universal table) when both sides support it — the oracle
advertises ``accepts_matrix`` (set by
:func:`repro.datalake.tasks.make_tabular_oracle`) and the space provides
``materialize_matrix`` (tabular spaces). Anything else — graph spaces,
UDF-wrapped spaces, custom oracles — falls back to the legacy
:meth:`~repro.core.transducer.SearchSpace.materialize` Table path, so the
fast path is an optimization, never a requirement.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from ..exceptions import EstimatorError
from ..ml.boosting import MultiOutputGradientBoosting
from ..ml.histogram_boosting import MultiOutputHistGradientBoosting
from ..obs import span
from ..rng import make_rng
from .measures import EPSILON_FLOOR, MeasureSet
from .transducer import SearchSpace

#: artifact (Table | BipartiteGraph | MatrixView) -> raw values by name.
PerformanceOracle = Callable[[Any], dict[str, float]]


def oracle_artifact(space: SearchSpace, oracle: PerformanceOracle, bits: int):
    """Materialize ``bits`` in the richest form ``oracle`` accepts.

    The fast paths need opt-in from both ends: an oracle declaring
    ``accepts_binned`` (its model trains on pre-binned codes) gets a
    :class:`~repro.relational.columns.MatrixView` with the state's uint8
    bin codes attached; ``accepts_matrix`` gets the plain float view.
    Everything else gets the compatibility
    :class:`~repro.relational.Table` / graph artifact.
    """
    fast = getattr(space, "materialize_matrix", None)
    if fast is not None:
        if getattr(oracle, "accepts_binned", False):
            return fast(bits, include_binned=True)
        if getattr(oracle, "accepts_matrix", False):
            return fast(bits)
    return space.materialize(bits)


@dataclass(slots=True)
class TestRecord:
    """One valuated test t = (M, D_s, P): state features + normalized P.

    ``source`` records provenance: "oracle" (ground truth from real model
    training) or "surrogate" (estimated). Verification passes upgrade
    surrogate records to oracle truth in place.
    """

    __test__ = False  # not a pytest test class despite the name

    bits: int
    features: np.ndarray
    perf: np.ndarray
    source: str = "oracle"


class TestStore:
    """The historical test set ``T``, keyed by state bitmap."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(self) -> None:
        self._records: dict[int, TestRecord] = {}

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, bits: int) -> bool:
        return bits in self._records

    def get(self, bits: int) -> TestRecord | None:
        """The record for a state bitmap, or ``None`` if never valuated."""
        return self._records.get(bits)

    def add(self, record: TestRecord) -> None:
        """Insert or overwrite the record for ``record.bits``."""
        self._records[record.bits] = record

    def records(self) -> list[TestRecord]:
        """All records, in insertion order."""
        return list(self._records.values())

    def n_oracle(self) -> int:
        """How many records carry ground truth (``source == "oracle"``)."""
        return sum(1 for r in self._records.values() if r.source == "oracle")

    def merge(self, other: TestStore) -> int:
        """Absorb another store's records; returns how many were taken.

        Oracle truth always wins: a record only replaces an existing one
        for the same bitmap when the existing record is a surrogate
        estimate and the incoming one is ground truth. This is what lets
        concurrent runs of one task pool their histories without an
        estimate ever shadowing a real training result.
        """
        taken = 0
        for record in other.records():
            existing = self._records.get(record.bits)
            if existing is None or (
                existing.source != "oracle" and record.source == "oracle"
            ):
                self._records[record.bits] = record
                taken += 1
        return taken

    # -- serialization hooks -----------------------------------------------------
    def to_payload(self, include_surrogate: bool = True) -> list[dict]:
        """JSON-serializable rows, one per record (bitmap as hex).

        ``include_surrogate=False`` keeps only ground-truth records — what
        the service's shared oracle store persists, so one scenario's
        surrogate estimates never leak into another's history as if they
        were observed performance.
        """
        return [
            {
                "bits": hex(record.bits),
                "features": [float(v) for v in record.features],
                "perf": [float(v) for v in record.perf],
                "source": record.source,
            }
            for record in self._records.values()
            if include_surrogate or record.source == "oracle"
        ]

    @classmethod
    def from_payload(
        cls, rows: Sequence[dict], n_measures: int | None = None
    ) -> TestStore:
        """Rebuild a store from :meth:`to_payload` rows.

        With ``n_measures`` given, every row's performance vector must have
        that length — loading history recorded under a different measure
        set would silently corrupt estimates otherwise.
        """
        store = cls()
        for row in rows:
            perf = np.asarray(row["perf"], dtype=float)
            if n_measures is not None and perf.shape != (n_measures,):
                raise EstimatorError(
                    f"record {row['bits']} has a {perf.shape[0]}-measure "
                    f"vector, expected {n_measures}"
                )
            store.add(
                TestRecord(
                    bits=int(row["bits"], 16),
                    features=np.asarray(row["features"], dtype=float),
                    perf=perf,
                    source=row.get("source", "oracle"),
                )
            )
        return store

    def perf_matrix(self) -> np.ndarray:
        """(n_tests, |P|) matrix of valuated performance vectors."""
        if not self._records:
            return np.zeros((0, 0))
        return np.stack([r.perf for r in self._records.values()])

    def feature_matrix(self) -> np.ndarray:
        """(n_tests, n_features) matrix of state features."""
        if not self._records:
            return np.zeros((0, 0))
        return np.stack([r.features for r in self._records.values()])


def store_or_train(
    store: TestStore,
    measures: MeasureSet,
    space: SearchSpace,
    oracle: PerformanceOracle,
    bits: int,
) -> tuple[np.ndarray, bool]:
    """Ground truth for ``bits``: T's oracle record, else one real training.

    A training result is normalized and recorded in ``store`` (upgrading a
    surrogate record in place). Returns ``(perf, trained)`` so callers
    count oracle calls on their own ledger.
    """
    record = store.get(bits)
    if record is not None and record.source == "oracle":
        return record.perf, False
    perf = measures.normalize_raw(oracle(oracle_artifact(space, oracle, bits)))
    store.add(TestRecord(bits, space.feature_vector(bits), perf))
    return perf, True


class Estimator(abc.ABC):
    """Valuates a state bitmap into a normalized |P|-vector."""

    def __init__(self, measures: MeasureSet, store: TestStore | None = None):
        self.measures = measures
        self.store = store if store is not None else TestStore()
        self.oracle_calls = 0
        self.surrogate_calls = 0

    @property
    def total_valuations(self) -> int:
        """States valuated so far — the paper's budget counter N."""
        return self.oracle_calls + self.surrogate_calls

    def valuate(self, bits: int, space: SearchSpace) -> np.ndarray:
        """Return (possibly estimated) normalized performance for a state.

        Already-recorded tests are loaded from T rather than re-valuated
        (running step 2(b) of Section 3).
        """
        existing = self.store.get(bits)
        if existing is not None:
            return existing.perf
        return self._valuate_new(bits, space)

    def valuate_batch(
        self, bits_list: Sequence[int], space: SearchSpace
    ) -> np.ndarray:
        """Valuate many states at once; row ``i`` answers ``bits_list[i]``.

        The test store is the by-bitmap memo: already-recorded states are
        answered from T, in-batch duplicates are valuated once, and only
        the genuinely new bitmaps reach :meth:`_valuate_new_batch` (which
        surrogate estimators vectorize into one ``predict`` per refit
        window). Results are bit-identical to calling :meth:`valuate`
        per state in order.
        """
        bits_list = list(bits_list)
        if not bits_list:
            return np.zeros((0, len(self.measures)))
        known: dict[int, np.ndarray] = {}
        missing: list[int] = []
        for bits in bits_list:
            if bits in known or bits in missing:
                continue
            record = self.store.get(bits)
            if record is not None:
                known[bits] = record.perf
            else:
                missing.append(bits)
        for bits, perf in zip(missing, self._valuate_new_batch(missing, space)):
            known[bits] = perf
        return np.stack([known[bits] for bits in bits_list])

    @abc.abstractmethod
    def _valuate_new(self, bits: int, space: SearchSpace) -> np.ndarray:
        """Valuate a state not present in T."""

    def _valuate_new_batch(
        self, missing: Sequence[int], space: SearchSpace
    ) -> list[np.ndarray]:
        """Valuate distinct states not present in T, in order.

        Default: loop :meth:`_valuate_new`. Estimators with a vectorized
        path (the MO-GBM surrogate) override this.
        """
        return [self._valuate_new(bits, space) for bits in missing]


class OracleEstimator(Estimator):
    """Exact valuation: every state triggers real model training."""

    def __init__(
        self,
        oracle: PerformanceOracle,
        measures: MeasureSet,
        store: TestStore | None = None,
    ):
        super().__init__(measures, store)
        self.oracle = oracle

    def _valuate_new(self, bits: int, space: SearchSpace) -> np.ndarray:
        perf, trained = store_or_train(
            self.store, self.measures, space, self.oracle, bits
        )
        self.oracle_calls += trained
        return perf


class MOGBEstimator(Estimator):
    """The paper's default ``E``: one multi-output GB surrogate.

    Bootstrap with a handful of oracle valuations (random walks away from
    the universal state), then answer in a single ``predict`` call per
    state. The surrogate refits lazily whenever enough new oracle truth has
    accumulated.

    ``surrogate`` picks the backbone: ``"gbm"`` (exact-split multi-output
    gradient boosting, the paper default) or ``"hist"`` (histogram
    boosting — bins the feature matrix once per refit window and finds
    splits in O(bins), cheaper on wide feature vectors).
    """

    def __init__(
        self,
        oracle: PerformanceOracle,
        measures: MeasureSet,
        store: TestStore | None = None,
        n_bootstrap: int = 24,
        refit_every: int = 16,
        n_estimators: int = 40,
        max_depth: int = 3,
        surrogate: str = "gbm",
        seed: int = 0,
    ):
        super().__init__(measures, store)
        if surrogate not in ("gbm", "hist"):
            raise EstimatorError(
                f"unknown surrogate backbone {surrogate!r}; "
                "expected 'gbm' or 'hist'"
            )
        self.oracle = oracle
        self.n_bootstrap = int(n_bootstrap)
        self.refit_every = int(refit_every)
        self.n_estimators = int(n_estimators)
        self.max_depth = int(max_depth)
        self.surrogate = surrogate
        self.seed = int(seed)
        self._surrogate: (
            MultiOutputGradientBoosting | MultiOutputHistGradientBoosting | None
        ) = None
        self._records_at_fit = 0
        self._bootstrapped = False

    # -- bootstrap ----------------------------------------------------------------
    def bootstrap(self, space: SearchSpace) -> None:
        """Seed T with oracle valuations of informative states.

        Mix of (a) the two seeds (universal, backward), (b) *single-flip*
        states — the surrogate sees the marginal effect of individual bitmap
        entries, which is what ranks level-1 reducts correctly — and (c)
        random multi-flip walks for interaction coverage.
        """
        rng = make_rng(self.seed)
        width = space.width
        targets = [space.universal_bits, space.backward_bits()]
        # (b) single flips of a random entry subset, budgeted at ~60%.
        n_single = max(1, int(0.6 * max(self.n_bootstrap - 2, 0)))
        entry_order = rng.permutation(width)
        for index in entry_order[:n_single]:
            index = int(index)
            if space.valid_flip(space.universal_bits, index):
                targets.append(space.universal_bits ^ (1 << index))
        # (c) random walks for the rest.
        while len(targets) < self.n_bootstrap:
            bits = space.universal_bits
            n_flips = int(rng.integers(2, max(3, width // 2)))
            for _ in range(n_flips):
                index = int(rng.integers(width))
                if space.valid_flip(bits, index):
                    bits ^= 1 << index
            targets.append(bits)
        with span("bootstrap", n_targets=len(targets)):
            for bits in dict.fromkeys(targets):  # dedupe, keep order
                if bits in self.store:
                    continue
                self.oracle_truth(bits, space)
        self._bootstrapped = True
        self._refit(force=True)

    def oracle_truth(self, bits: int, space: SearchSpace) -> np.ndarray:
        """Force a ground-truth valuation (counts as an oracle call).

        Surrogate-estimated records are upgraded to oracle truth in place,
        which also improves subsequent surrogate refits.
        """
        perf, trained = store_or_train(
            self.store, self.measures, space, self.oracle, bits
        )
        self.oracle_calls += trained
        return perf

    # -- surrogate ----------------------------------------------------------------
    def _refit(self, force: bool = False) -> None:
        n = len(self.store)
        if n < 3:
            raise EstimatorError(
                "too few test records to fit the surrogate; bootstrap first"
            )
        if not force and self._surrogate is not None:
            if n - self._records_at_fit < self.refit_every:
                return
        with span("oracle-fit", n_records=n):
            backbone = (
                MultiOutputHistGradientBoosting
                if self.surrogate == "hist"
                else MultiOutputGradientBoosting
            )
            self._surrogate = backbone(
                n_estimators=self.n_estimators,
                max_depth=self.max_depth,
                seed=self.seed,
            )
            self._surrogate.fit(
                self.store.feature_matrix(), self.store.perf_matrix()
            )
        self._records_at_fit = n

    def _ensure_bootstrapped(self, space: SearchSpace) -> None:
        if self._bootstrapped:
            return
        # Warm start: a pre-loaded historical store T with enough truth
        # already covers what bootstrapping would sample (Section 2's
        # "historically observed performance of M").
        if self.store.n_oracle() >= max(3, self.n_bootstrap):
            self._bootstrapped = True
            self._refit(force=True)
        else:
            self.bootstrap(space)

    def _valuate_new(self, bits: int, space: SearchSpace) -> np.ndarray:
        return self._valuate_new_batch([bits], space)[0]

    def _valuate_new_batch(
        self, missing: Sequence[int], space: SearchSpace
    ) -> list[np.ndarray]:
        """Vectorized surrogate path: one feature matrix and one ``predict``
        per refit window.

        The refit schedule (every ``refit_every`` new records) is preserved
        by chunking at the same boundaries the per-state path would hit, so
        batch answers are bit-identical to sequential ones.
        """
        if not missing:
            return []
        self._ensure_bootstrapped(space)
        results: dict[int, np.ndarray] = {}
        fresh: list[int] = []
        for bits in missing:
            record = self.store.get(bits)  # bootstrap may have valuated it
            if record is not None:
                results[bits] = record.perf
            else:
                fresh.append(bits)
        index = 0
        while index < len(fresh):
            self._refit()
            room = self.refit_every - (len(self.store) - self._records_at_fit)
            chunk = fresh[index:index + max(1, room)]
            features = space.feature_matrix(chunk)
            predictions = np.clip(
                self._surrogate.predict(features), EPSILON_FLOOR, 1.0
            )
            for bits, row, perf in zip(chunk, features, predictions):
                self.surrogate_calls += 1
                self.store.add(TestRecord(bits, row, perf, source="surrogate"))
                results[bits] = perf
            index += len(chunk)
        return [results[bits] for bits in missing]

    # -- introspection ----------------------------------------------------------------
    def surrogate_mse(self, space: SearchSpace, probe_bits: list[int]) -> float:
        """Mean squared surrogate error against fresh oracle truth.

        Used by the benchmarks to reproduce the paper's estimator-quality
        claim (MO-GBM predicting accuracy with MSE ≈ 3e-4 on T1).
        """
        if self._surrogate is None:
            raise EstimatorError("surrogate not fitted yet")
        errors = []
        for bits in probe_bits:
            features = space.feature_vector(bits)
            predicted = np.clip(
                self._surrogate.predict(features[None, :])[0], EPSILON_FLOOR, 1.0
            )
            raw = self.oracle(oracle_artifact(space, self.oracle, bits))
            truth = self.measures.normalize_raw(raw)
            errors.append(np.mean((predicted - truth) ** 2))
        return float(np.mean(errors))
