"""Property-based parity: ``ColumnStore.encode_subset`` vs the legacy encoder.

``encode_subset`` takes a state's numeric means and stds over one gathered
block (``np.add.reduce(..., axis=1)`` for columns with no null among the
fit rows, one concatenation for the rest). numpy sums fewer than 8 values
in a plain loop, 8–128 with eight accumulators, and more than 128 by
recursive halving, so the subsets here are drawn from each of the three
regimes. Every encoding must be bit-identical to fitting a fresh
``TableEncoder`` on the materialized sub-table — with null-free, partly
null and (within the subset) entirely null numeric columns, with a
categorical column alongside, and with ``standardize`` on and off.
"""

from __future__ import annotations

import numpy as np
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.ml.preprocessing import TableEncoder
from repro.relational.columns import ColumnStore
from repro.relational.schema import Attribute, CATEGORICAL, NUMERIC, Schema
from repro.relational.table import Table
from repro.rng import make_rng

N_ROWS = 400
ATTRIBUTES = ("dense", "steady", "gappy", "sparse", "cat", "all_null")
REGIMES = {"pairwise-loop": (1, 7), "unrolled": (8, 128), "recursive": (129, N_ROWS)}


def _table() -> Table:
    """Values spread over nine decades, so any change in summation order
    shows in the last bits. ``dense`` and ``steady`` have no nulls, so the
    block reduction sums two or more rows at once; ``sparse`` is null on
    most rows, so small subsets often see it entirely null."""
    rng = make_rng(7)

    def value() -> float:
        return float(rng.normal() * 10.0 ** rng.uniform(-3, 6))

    def maybe(p: float):
        return None if rng.random() < p else value()

    schema = Schema(
        [
            Attribute("dense", NUMERIC),
            Attribute("steady", NUMERIC),
            Attribute("gappy", NUMERIC),
            Attribute("sparse", NUMERIC),
            Attribute("cat", CATEGORICAL),
            Attribute("all_null", NUMERIC),
            Attribute("target", NUMERIC),
        ]
    )
    columns = {
        "dense": [value() for _ in range(N_ROWS)],
        "steady": [value() for _ in range(N_ROWS)],
        "gappy": [maybe(0.3) for _ in range(N_ROWS)],
        "sparse": [maybe(0.9) for _ in range(N_ROWS)],
        "cat": [
            None if rng.random() < 0.2 else "uvw"[int(rng.integers(3))]
            for _ in range(N_ROWS)
        ],
        "all_null": [None] * N_ROWS,
        "target": [maybe(0.05) for _ in range(N_ROWS)],
    }
    return Table(schema, columns, name="regimes")


_TABLE = _table()
_STORES = {
    standardize: ColumnStore(_TABLE, target="target", standardize=standardize)
    for standardize in (True, False)
}


@given(
    regime=st.sampled_from(sorted(REGIMES)),
    data=st.data(),
    standardize=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_encode_subset_matches_encoder_in_every_summation_regime(
    regime, data, standardize
):
    low, high = REGIMES[regime]
    size = data.draw(st.integers(min_value=low, max_value=high), label="size")
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1), label="seed")
    rows = np.sort(make_rng(seed).choice(N_ROWS, size=size, replace=False))
    mask = np.zeros(N_ROWS, dtype=bool)
    mask[rows] = True
    attributes = data.draw(
        st.lists(st.sampled_from(ATTRIBUTES), min_size=1, unique=True),
        label="attributes",
    )
    attributes = [name for name in ATTRIBUTES if name in attributes]

    view = _STORES[standardize].encode_subset(mask, attributes)
    table = _TABLE.project(attributes + ["target"]).take(rows.tolist())
    assert view.shape == table.shape
    if all(v is None for v in table.column("target")):
        assert view.X.shape == (0, len(attributes))  # the encoder raises
        return
    X, y = TableEncoder(target="target", standardize=standardize).fit_transform(
        table
    )
    assert np.array_equal(view.X, X)
    assert np.array_equal(view.y, y)
    assert view.X.flags.c_contiguous
