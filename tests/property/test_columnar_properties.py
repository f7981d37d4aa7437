"""Property-based parity: the columnar fast paths vs the legacy scalar
implementations.

Two invariants gate this PR's vectorizations:

* ``TabularSearchSpace.row_mask`` (one gather through the row→slot
  matrix) must equal the original bit-by-bit Python walk on every bitmap;
* :func:`pareto_front` must equal the Kung divide-and-conquer
  :func:`pareto_front_reference` (``tests/reference/dominance.py``) on
  arbitrary inputs, including duplicated and tied rows.
"""

from __future__ import annotations

import numpy as np
import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.dominance import _sfs_front, dominated_mask, pareto_front
from repro.core.transducer import TabularSearchSpace
from repro.relational.schema import Attribute, CATEGORICAL, NUMERIC, Schema
from repro.relational.table import Table
from repro.rng import make_rng
from tests.reference.dominance import pareto_front_reference


def _space_from_seed(seed: int) -> TabularSearchSpace:
    """A small mixed-type universal table with nulls, deterministic per seed."""
    rng = make_rng(seed)
    n = 60

    def maybe(value, p=0.2):
        return None if rng.random() < p else value

    schema = Schema(
        [
            Attribute("a", NUMERIC),
            Attribute("b", CATEGORICAL),
            Attribute("c", NUMERIC),
            Attribute("target", NUMERIC),
        ]
    )
    columns = {
        "a": [maybe(float(rng.normal())) for _ in range(n)],
        "b": [maybe("xyz"[int(rng.integers(3))]) for _ in range(n)],
        "c": [maybe(float(rng.integers(8))) for _ in range(n)],
        "target": [maybe(float(rng.normal()), 0.1) for _ in range(n)],
    }
    table = Table(schema, columns)
    return TabularSearchSpace(table, target="target", max_clusters=3, seed=0)


_SPACES = {seed: _space_from_seed(seed) for seed in range(3)}


def _row_mask_scalar(space: TabularSearchSpace, bits: int) -> np.ndarray:
    """The pre-columnar row_mask, reimplemented as the test reference."""
    keep = np.ones(space.universal.num_rows, dtype=bool)
    for name, attr_idx in space._attr_entry.items():
        if not (bits >> attr_idx) & 1:
            continue
        entry_ids = space._cluster_entries[name]
        if not entry_ids:
            continue
        allowed = space._null_mask[name].copy()
        for entry_id in entry_ids:
            if (bits >> entry_id) & 1:
                allowed |= space._row_members[entry_id]
        keep &= allowed
    return keep


@given(st.integers(min_value=0, max_value=2), st.data())
@settings(max_examples=150, deadline=None)
def test_vectorized_row_mask_matches_scalar_walk(space_seed, data):
    space = _SPACES[space_seed]
    bits = data.draw(
        st.integers(min_value=0, max_value=2 ** space.width - 1), label="bits"
    )
    assert np.array_equal(space.row_mask(bits), _row_mask_scalar(space, bits))


@given(st.integers(min_value=0, max_value=2), st.data())
@settings(max_examples=60, deadline=None)
def test_output_size_consistent_with_materialized_table(space_seed, data):
    space = _SPACES[space_seed]
    bits = data.draw(
        st.integers(min_value=0, max_value=2 ** space.width - 1), label="bits"
    )
    assert space.output_size(bits) == space.materialize(bits).shape


def _front_inputs(min_count=0, max_count=30):
    """Matrices with deliberate duplicates/ties: values come from a coarse
    pool, so equal coordinates (the hard case for skyline semantics) are
    common while sub-tolerance (<1e-12) distinct gaps are not."""
    value = st.one_of(
        st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.5, 0.75, 1.0]),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda d: st.lists(
            st.lists(value, min_size=d, max_size=d),
            min_size=min_count,
            max_size=max_count,
        )
    )


@given(_front_inputs())
@settings(max_examples=150, deadline=None)
def test_vectorized_pareto_front_matches_kung_reference(vectors):
    matrix = [np.array(v) for v in vectors]
    assert pareto_front(matrix) == sorted(pareto_front_reference(matrix))


@given(_front_inputs(min_count=1), st.integers(min_value=1, max_value=8))
@settings(max_examples=150, deadline=None)
def test_sfs_front_matches_plain_scan_and_reference(vectors, block_rows):
    """The sort-first skyline behind :func:`pareto_front` must be
    bit-identical to the plain blocked scan and the Kung reference at any
    chunk size — tiny ``block_rows`` values force survivors to straddle
    chunk boundaries."""
    matrix = np.asarray([np.array(v) for v in vectors])
    sfs = _sfs_front(matrix, block_rows=block_rows)
    assert sfs == np.flatnonzero(~dominated_mask(matrix)).tolist()
    assert sfs == sorted(pareto_front_reference(list(matrix)))


@given(_front_inputs(min_count=1))
@settings(max_examples=60, deadline=None)
def test_pareto_front_duplicates_of_front_members_all_kept(vectors):
    matrix = [np.array(v) for v in vectors]
    front = set(pareto_front(matrix))
    keys = [tuple(v) for v in matrix]
    front_keys = {keys[i] for i in front}
    for i, key in enumerate(keys):
        if key in front_keys:
            assert i in front
