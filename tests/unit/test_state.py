"""Unit tests for bitmap states and the ε-grid position (Equation 1)."""

import numpy as np
import pytest

from repro.core.state import (
    State,
    bit_count,
    bits_from_labels,
    bits_to_array,
    flip_bit,
    grid_position,
    iter_clear_bits,
    iter_set_bits,
    unpack_bitmaps,
)
from repro.exceptions import SearchError


class TestBitOps:
    def test_bit_count(self):
        assert bit_count(0b1011) == 3

    def test_iter_set_bits(self):
        assert list(iter_set_bits(0b1010)) == [1, 3]
        assert list(iter_set_bits(0)) == []

    def test_iter_clear_bits(self):
        assert list(iter_clear_bits(0b1010, 4)) == [0, 2]

    def test_flip_bit_involution(self):
        bits = 0b0110
        assert flip_bit(flip_bit(bits, 2), 2) == bits

    def test_bits_to_array(self):
        assert bits_to_array(0b101, 4).tolist() == [1.0, 0.0, 1.0, 0.0]

    def test_bits_at_or_above_width_are_ignored(self):
        assert bits_to_array(0b110101, 4).tolist() == [1.0, 0.0, 1.0, 0.0]
        assert bits_to_array(1 << 70, 9).tolist() == [0.0] * 9
        assert bits_to_array(0b11, 0).shape == (0,)

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 16, 54, 65])
    def test_unpack_bitmaps_matches_per_bit_walk(self, width):
        rng = np.random.default_rng(width)
        bitmaps = [0, (1 << width) - 1] + [
            int(rng.integers(0, 2**62)) << int(rng.integers(0, 8))
            for _ in range(20)
        ]
        expected = [[(b >> i) & 1 for i in range(width)] for b in bitmaps]
        unpacked = unpack_bitmaps(bitmaps, width)
        assert unpacked.shape == (len(bitmaps), width)
        assert unpacked.tolist() == expected
        assert unpack_bitmaps([], width).shape == (0, width)

    def test_bits_from_labels(self):
        labels = ("a", "b", "c")
        assert bits_from_labels({"a", "c"}, labels) == 0b101
        with pytest.raises(SearchError):
            bits_from_labels({"zzz"}, labels)


class TestState:
    def test_valuated_flag(self):
        s = State(bits=3)
        assert not s.valuated
        s.perf = np.array([0.1])
        assert s.valuated

    def test_hash_eq_by_bits(self):
        assert State(bits=5) == State(bits=5, level=3)
        assert hash(State(bits=5)) == hash(State(bits=5, level=9))
        assert State(bits=5) != State(bits=6)

    def test_repr(self):
        assert "unvaluated" in repr(State(bits=1))


class TestGridPosition:
    def test_equation_one(self):
        lowers = np.array([0.01, 0.01])
        perf = np.array([0.01, 0.04, 0.5])  # third = decisive, ignored
        pos = grid_position(perf, lowers, epsilon=1.0)  # log base 2
        assert pos == (0, 2)

    def test_values_below_lower_clamp_to_zero(self):
        pos = grid_position(np.array([0.001, 1.0]), np.array([0.01]), 0.5)
        assert pos == (0,)

    def test_finer_epsilon_more_cells(self):
        lowers = np.array([0.01])
        coarse = grid_position(np.array([0.9, 0.5]), lowers, epsilon=1.0)
        fine = grid_position(np.array([0.9, 0.5]), lowers, epsilon=0.01)
        assert fine[0] > coarse[0]

    def test_positive_epsilon_required(self):
        with pytest.raises(SearchError):
            grid_position(np.array([0.5]), np.array([0.01]), 0.0)

    def test_monotone_in_value(self):
        lowers = np.array([0.01])
        a = grid_position(np.array([0.1, 0.0]), lowers, 0.3)
        b = grid_position(np.array([0.9, 0.0]), lowers, 0.3)
        assert b[0] >= a[0]
