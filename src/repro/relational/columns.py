"""Columnar materialization: encode the universal table once, slice forever.

The valuation hot loop used to pay for the same work on every oracle call:
``materialize(bits)`` rebuilt a Python-list :class:`~repro.relational.Table`
row by row, then the oracle re-fit a fresh
:class:`~repro.ml.preprocessing.TableEncoder` over those lists. Both passes
are linear in the data but carry per-cell Python interpreter overhead, which
dwarfs the actual model training on the small tables the search visits.

:class:`ColumnStore` removes that overhead structurally. At build time each
attribute of the universal table is converted exactly once into numpy form:

* numeric attributes → one row of a C-contiguous ``(k, n)`` float64 block
  (``NaN`` for nulls) with a matching ``(k, n)`` bool null block; each
  column's ``raw``/``null`` arrays are row views into the two blocks;
* categorical attributes → an int64 code column over the *universal*
  vocabulary (distinct non-null values sorted by ``repr``, matching
  ``TableEncoder``'s category ordering), with ``-1`` for nulls.

:meth:`ColumnStore.encode_subset` then serves any state as a
:class:`MatrixView` — the ``(X, y)`` pair plus the materialized shape —
written into one preallocated ``X``. The state's numeric features cost a
few array operations, whatever their number: one gather of the fit rows
(every materialized row) from both blocks, one ``np.add.reduce(...,
axis=1)`` pass for the moments of the columns with no null among them,
and one concatenation of the non-null values of the columns that have
some. The encoding semantics are *bit-identical* to fitting a fresh
``TableEncoder`` on the materialized sub-table (the legacy oracle path):

* numeric mean/std (population, ddof=0) repeat numpy's own ``_mean`` /
  ``_var`` steps — sum / n, then subtract, square, sum / n and sqrt — over
  the subset's non-null values in row order. A block row is contiguous,
  so its reduction takes the same pairwise summation as ``np.mean`` /
  ``np.std`` over the equivalent 1-D Python list, and so does each
  column's slice of the concatenation;
* categorical codes are re-ranked to the subset's vocabulary (the rank of
  each universal code among the codes present in the subset), which equals
  ``sorted(set(values), key=repr)`` because the universal vocabulary is
  itself repr-sorted; mode imputation breaks count ties toward the larger
  code, i.e. the greater ``repr`` — the exact tiebreak of
  ``max(set(values), key=lambda v: (values.count(v), repr(v)))``;
* rows with a null target are dropped from ``(X, y)`` but still count in
  ``MatrixView.shape`` and still contribute to the fit statistics, exactly
  as ``TableEncoder.fit`` sees the whole materialized table while
  ``transform`` drops null-target rows.

The parity suites assert this equality value-for-value: across random
bitmaps (``tests/unit/test_columns.py``) and across numpy's three summation
regimes — fewer than 8, 8–128 and more than 128 values — with null-free,
partly null and entirely null columns
(``tests/property/test_encode_subset_properties.py``).

**Universal binning.** The histogram models never look at float features —
only at quantile-bin codes. Quantization is a pure per-column function, so
the store computes it *once* over the universal table (lazily, on first
request): numeric columns get ``max_bins``-quantile edges over their finite
values and a dedicated null bin (``len(edges) + 1``); categorical columns
reuse their universal vocabulary codes with null mapped to
``len(vocabulary)``. Codes are uint8 (≤ 64 bins by default). Any state's
pre-binned training matrix is then just a row-slice + column-stack of the
shared code columns — :meth:`ColumnStore.binned_matrix`, surfaced as
``MatrixView.binned``, with *zero* per-state quantile work. The Hypothesis
suite (``tests/unit/test_binned_matrix.py``) asserts slicing equals
re-binning the materialized sub-table with the universal edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..ml.base import PreBinned
from ..ml.histogram_boosting import apply_bins, quantile_bin_edges
from .table import Table

__all__ = ["ColumnStore", "MatrixView"]


@dataclass(frozen=True, slots=True)
class MatrixView:
    """One state's dataset in encoded matrix form — no intermediate Table.

    ``shape`` is the *materialized table's* shape (surviving rows including
    null-target rows, active attributes + target), which is what the
    oracle's degeneracy checks and the paper-style output sizes use; ``X``
    and ``y`` carry only the encodable rows.
    """

    X: np.ndarray
    y: np.ndarray
    #: (rows, columns) of the table this view stands in for.
    shape: tuple[int, int]
    #: active (non-target) attribute names, in schema order == X columns.
    columns: tuple[str, ...]
    target: str = ""
    #: subset target vocabulary for categorical targets (code i → label).
    target_classes: tuple | None = None
    #: the same rows as ``X`` in universal bin codes (uint8), when the
    #: caller asked for them — the zero-requantization training matrix for
    #: histogram models (see :meth:`ColumnStore.binned_matrix`).
    binned: PreBinned | None = field(default=None, compare=False)

    @property
    def nbytes(self) -> int:
        """Approximate in-memory footprint (cache accounting)."""
        total = int(self.X.nbytes + self.y.nbytes)
        if self.binned is not None:
            total += self.binned.nbytes
        return total

    @property
    def num_rows(self) -> int:
        return self.shape[0]

    @property
    def num_columns(self) -> int:
        return self.shape[1]

    def __repr__(self) -> str:
        return (
            f"MatrixView({self.shape[0]} rows x {self.shape[1]} cols, "
            f"X{self.X.shape})"
        )


@dataclass(slots=True)
class _NumericColumn:
    name: str
    raw: np.ndarray  # float64, NaN = null; a row of ColumnStore._numeric
    null: np.ndarray  # bool; a row of ColumnStore._numeric_null


@dataclass(slots=True)
class _CategoricalColumn:
    name: str
    codes: np.ndarray  # int64 universal-vocabulary codes, -1 = null
    null: np.ndarray  # bool
    vocabulary: tuple = ()  # universal code → raw value (repr-sorted)


class ColumnStore:
    """One table's numeric block, categorical code columns and null masks.

    Fit once over the universal table at search-space build time; serves
    every bitmap's ``(X, y)`` by gathering its rows with per-subset
    statistics recomputed over whole blocks (see the module docstring for
    why the results are bit-identical to the legacy per-call
    ``TableEncoder`` fit).
    """

    def __init__(
        self,
        table: Table,
        target: str,
        standardize: bool = True,
        max_bins: int = 64,
    ):
        if target not in table.schema:
            raise KeyError(f"target {target!r} not in schema")
        self.target = target
        self.standardize = standardize
        self.max_bins = int(max_bins)
        self.n_rows = table.num_rows
        self._columns: dict[str, _NumericColumn | _CategoricalColumn] = {}
        for attr in table.schema:
            column = self._encode_universal(table, attr.name, attr.is_numeric)
            self._columns[attr.name] = column
        self._target_numeric = table.schema[target].is_numeric
        # The numeric columns as one C-contiguous (k, n) block (and its
        # null mask), so a state's numeric features are one 2-D gather.
        # Each column's ``raw``/``null`` become row views into the blocks.
        numeric = [
            col for col in self._columns.values()
            if isinstance(col, _NumericColumn)
        ]
        self._numeric_row = {col.name: i for i, col in enumerate(numeric)}
        self._numeric = np.array(
            [col.raw for col in numeric], dtype=np.float64
        ).reshape(len(numeric), self.n_rows)
        self._numeric_null = np.array(
            [col.null for col in numeric], dtype=bool
        ).reshape(len(numeric), self.n_rows)
        for i, col in enumerate(numeric):
            col.raw = self._numeric[i]
            col.null = self._numeric_null[i]
        # Universal bin codes + edges, built lazily on first binned request.
        self._binned_codes: dict[str, np.ndarray] | None = None
        self._binned_edges: dict[str, np.ndarray | None] = {}

    @staticmethod
    def _encode_universal(table: Table, name: str, numeric: bool):
        values = table._column_ref(name)
        null = np.fromiter(
            (v is None for v in values), dtype=bool, count=len(values)
        )
        if numeric:
            raw = np.array(
                [float(v) if v is not None else np.nan for v in values],
                dtype=np.float64,
            )
            return _NumericColumn(name=name, raw=raw, null=null)
        vocabulary = tuple(
            sorted({v for v in values if v is not None}, key=repr)
        )
        code_of = {v: i for i, v in enumerate(vocabulary)}
        codes = np.array(
            [code_of[v] if v is not None else -1 for v in values],
            dtype=np.int64,
        )
        return _CategoricalColumn(
            name=name, codes=codes, null=null, vocabulary=vocabulary
        )

    @property
    def nbytes(self) -> int:
        total = int(self._numeric.nbytes + self._numeric_null.nbytes)
        for col in self._columns.values():
            if isinstance(col, _CategoricalColumn):
                total += int(col.codes.nbytes + col.null.nbytes)
        if self._binned_codes is not None:
            total += sum(int(c.nbytes) for c in self._binned_codes.values())
        return total

    # -- universal binning -------------------------------------------------------
    def _ensure_binned(self) -> dict[str, np.ndarray]:
        """Quantize every column once over the universal table.

        Numeric columns: ``max_bins``-quantile edges over finite values
        (:func:`quantile_bin_edges` is NaN-safe), nulls to the dedicated
        null bin — exactly :func:`apply_bins` on the raw column, so a row
        slice of these codes equals re-binning the materialized sub-table
        with the same edges. Categorical columns reuse the universal
        vocabulary codes with null mapped to ``len(vocabulary)``. Codes are
        uint8 whenever they fit (always, for numeric, with ≤ 254 bins).
        """
        if self._binned_codes is not None:
            return self._binned_codes
        codes_by: dict[str, np.ndarray] = {}
        edges_by: dict[str, np.ndarray | None] = {}
        for name, col in self._columns.items():
            if isinstance(col, _NumericColumn):
                col_edges = quantile_bin_edges(
                    col.raw[:, None], self.max_bins
                )[0]
                codes = apply_bins(col.raw[:, None], [col_edges])[:, 0]
                edges_by[name] = col_edges
            else:
                codes = np.where(col.null, len(col.vocabulary), col.codes)
                edges_by[name] = None
            if codes.max(initial=0) < 256:
                codes = codes.astype(np.uint8)
            else:  # huge categorical vocabulary; keep exact codes
                codes = codes.astype(np.int32)
            codes_by[name] = codes
        self._binned_edges = edges_by
        self._binned_codes = codes_by
        return codes_by

    def bin_edges(self, name: str) -> np.ndarray | None:
        """Universal quantile edges for a numeric column (None for
        categorical columns, whose codes are vocabulary ranks)."""
        self._ensure_binned()
        return self._binned_edges[name]

    def _binned_rows(
        self, rows: np.ndarray, attributes: Sequence[str]
    ) -> PreBinned:
        codes_by = self._ensure_binned()
        cols = [codes_by[name][rows] for name in attributes]
        if cols:
            codes = np.column_stack(cols)
        else:
            codes = np.zeros((rows.size, 0), dtype=np.uint8)
        return PreBinned(codes=codes)

    def binned_matrix(
        self, row_mask: np.ndarray, attributes: Sequence[str]
    ) -> PreBinned:
        """One state's pre-binned training matrix by pure slicing.

        Same rows as :meth:`encode_subset`'s ``X`` (null-target rows
        dropped), same column order, but uint8 universal bin codes —
        no per-state quantile pass.
        """
        row_mask = np.asarray(row_mask, dtype=bool)
        rows = np.flatnonzero(row_mask & ~self._columns[self.target].null)
        return self._binned_rows(rows, attributes)

    # -- subset encoding -------------------------------------------------------
    def _encode_numeric_block(
        self, block_rows: np.ndarray, fit_rows: np.ndarray, keep: np.ndarray
    ) -> np.ndarray:
        """Mirror of the numeric ``_ColumnCodec`` for the numeric block's
        rows ``block_rows`` at once: subset mean imputation, optional
        standardization with the subset's population std. Returns the
        encoded ``(len(block_rows), keep.sum())`` block, one row per column.

        The fit rows are gathered once. Each column's mean and std repeat
        numpy's own ``_mean``/``_var`` steps (sum / n, then subtract,
        square, sum / n, sqrt) over exactly the values ``np.mean`` /
        ``np.std`` see in the legacy path, so they are bit-identical:

        * the columns with no null among the fit rows take their sums with
          one ``np.add.reduce(..., axis=1)``: each block row is contiguous,
          so it gets the same pairwise summation as a 1-D array;
        * the columns with nulls are compressed into one concatenation of
          their non-null values, and each sums its own contiguous slice.
        """
        block = self._numeric.take(block_rows, axis=0).take(fit_rows, axis=1)
        null = self._numeric_null.take(block_rows, axis=0).take(fit_rows, axis=1)
        n_fit = fit_rows.size
        counts = n_fit - null.sum(axis=1)
        mean = np.zeros(block_rows.size)
        std = np.ones(block_rows.size)
        full = counts == n_fit
        if n_fit and full.any():
            values = block[full]
            mean[full] = means = np.add.reduce(values, axis=1) / n_fit
            values -= means[:, None]
            np.multiply(values, values, out=values)
            std[full] = np.sqrt(np.add.reduce(values, axis=1) / n_fit)
        partial = ~full & (counts > 0)
        if partial.any():
            counts = counts[partial]
            values = block[partial][~null[partial]]
            segments = [
                slice(stop - count, stop)
                for stop, count in zip(np.cumsum(counts).tolist(), counts.tolist())
            ]
            sums = np.array([np.add.reduce(values[seg]) for seg in segments])
            mean[partial] = means = sums / counts
            values -= np.repeat(means, counts)
            np.multiply(values, values, out=values)
            sums = np.array([np.add.reduce(values[seg]) for seg in segments])
            std[partial] = np.sqrt(sums / counts)
        if not keep.all():
            block = block[:, keep]
            null = null[:, keep]
        out = np.where(null, mean[:, None], block)
        if self.standardize:
            out -= mean[:, None]
            out /= np.where(std > 1e-12, std, 1.0)[:, None]
        return out

    def _encode_categorical(
        self, col: _CategoricalColumn, fit_mask: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """Mirror of the categorical ``_ColumnCodec``: subset-ranked codes,
        mode imputation with count ties broken toward the greater repr."""
        fit_codes = col.codes[fit_mask & ~col.null]
        present = np.unique(fit_codes)  # ascending == repr order
        if present.size:
            counts = np.bincount(fit_codes, minlength=int(present[-1]) + 1)
            # max by (count, code): the largest code among max-count codes,
            # i.e. the greater repr — TableEncoder's mode tiebreak.
            best = counts[present].max()
            mode_code = int(present[counts[present] == best][-1])
            fill = float(np.searchsorted(present, mode_code))
        else:
            fill = -1.0
        sub = col.codes[rows]
        null = col.null[rows]
        ranked = np.searchsorted(present, sub).astype(np.float64)
        return np.where(null, fill, ranked)

    def encode_subset(
        self,
        row_mask: np.ndarray,
        attributes: Sequence[str],
        include_binned: bool = False,
    ) -> MatrixView:
        """The ``(X, y)`` a fresh ``TableEncoder.fit_transform`` would
        produce for the sub-table (``row_mask`` rows × ``attributes`` +
        target), without building it.

        A subset with no non-null target rows yields an empty ``X``/``y``
        (the legacy path raised mid-encode; the oracle maps both to the
        degenerate worst-case score).
        """
        row_mask = np.asarray(row_mask, dtype=bool)
        fit_rows = np.flatnonzero(row_mask)
        shape = (fit_rows.size, len(attributes) + 1)
        target_col = self._columns[self.target]
        # Statistics are fit on every materialized row; (X, y) keep only
        # the rows with a non-null target.
        keep = ~target_col.null[fit_rows]
        rows = fit_rows[keep]
        if self._target_numeric:
            y = target_col.raw[rows]
            target_classes = None
        else:
            # Subset-ranked target codes; the materialized table's fit sees
            # exactly the non-null target values, so present == vocabulary.
            fit_codes = target_col.codes[rows]
            present = np.unique(fit_codes)
            y = np.searchsorted(present, fit_codes).astype(np.float64)
            target_classes = tuple(
                target_col.vocabulary[int(c)] for c in present
            )
        X = np.empty((rows.size, len(attributes)))
        numeric = [
            (j, self._numeric_row[name])
            for j, name in enumerate(attributes)
            if name in self._numeric_row
        ]
        if numeric:
            positions, block_rows = (np.array(v) for v in zip(*numeric))
            X[:, positions] = self._encode_numeric_block(
                block_rows, fit_rows, keep
            ).T
        for j, name in enumerate(attributes):
            col = self._columns[name]
            if isinstance(col, _CategoricalColumn):
                X[:, j] = self._encode_categorical(col, row_mask, rows)
        binned = self._binned_rows(rows, attributes) if include_binned else None
        return MatrixView(
            X=X,
            y=y,
            shape=shape,
            columns=tuple(attributes),
            target=self.target,
            target_classes=target_classes,
            binned=binned,
        )
