"""Unit tests for dominance, the exact skyline, and the UPareto grid."""

import numpy as np
import pytest

from repro.core.dominance import (
    SkylineGrid,
    _sfs_front,
    dominated_mask,
    dominates,
    epsilon_dominates,
    is_skyline,
    pareto_front,
)
from repro.core.measures import Measure, MeasureSet
from repro.core.state import State
from repro.exceptions import SearchError
from tests.reference.dominance import pareto_front_reference


def V(*xs):
    return np.array(xs, dtype=float)


class TestDominates:
    def test_strict_dominance(self):
        assert dominates(V(0.1, 0.2), V(0.2, 0.2))
        assert dominates(V(0.1, 0.1), V(0.2, 0.2))

    def test_equal_vectors_no_dominance(self):
        assert not dominates(V(0.1, 0.2), V(0.1, 0.2))

    def test_incomparable(self):
        assert not dominates(V(0.1, 0.9), V(0.9, 0.1))
        assert not dominates(V(0.9, 0.1), V(0.1, 0.9))

    def test_antisymmetry(self):
        assert dominates(V(0.1), V(0.2)) and not dominates(V(0.2), V(0.1))

    def test_shape_mismatch(self):
        with pytest.raises(SearchError):
            dominates(V(0.1), V(0.1, 0.2))


class TestEpsilonDominates:
    def test_paper_example4_relations(self):
        # Example 4's vectors (RMSE, 1-R2, T_train)
        d1 = V(0.48, 0.33, 0.37)
        d3 = V(0.26, 0.15, 0.37)
        d5 = V(0.25, 0.18, 0.35)
        assert dominates(d3, d1)
        assert not dominates(d3, d5) and not dominates(d5, d3)
        # with a large epsilon they epsilon-dominate each other
        assert epsilon_dominates(d3, d5, 0.5)
        assert epsilon_dominates(d5, d3, 0.5)

    def test_requires_decisive_measure(self):
        # u within (1+eps) factor everywhere but better nowhere -> not eps-dom
        assert not epsilon_dominates(V(0.11, 0.11), V(0.1, 0.1), 0.2)
        assert epsilon_dominates(V(0.11, 0.09), V(0.1, 0.1), 0.2)

    def test_dominance_implies_epsilon_dominance(self):
        assert epsilon_dominates(V(0.1, 0.1), V(0.2, 0.2), 0.0)

    def test_negative_epsilon(self):
        with pytest.raises(SearchError):
            epsilon_dominates(V(0.1), V(0.1), -0.1)


class TestParetoFront:
    def brute_force(self, vectors):
        out = []
        for i, u in enumerate(vectors):
            if not any(dominates(v, u) for v in vectors):
                out.append(i)
        return out

    def test_matches_brute_force_2d(self):
        rng = np.random.default_rng(0)
        vectors = [rng.random(2) for _ in range(60)]
        assert sorted(pareto_front(vectors)) == self.brute_force(vectors)

    def test_matches_brute_force_4d(self):
        rng = np.random.default_rng(1)
        vectors = [rng.random(4) for _ in range(80)]
        assert sorted(pareto_front(vectors)) == self.brute_force(vectors)

    def test_single_dim(self):
        assert pareto_front([V(0.3), V(0.1), V(0.1), V(0.5)]) == [1, 2]

    def test_duplicates_all_kept(self):
        vectors = [V(0.1, 0.1), V(0.1, 0.1), V(0.5, 0.5)]
        assert sorted(pareto_front(vectors)) == [0, 1]

    def test_empty(self):
        assert pareto_front([]) == []

    def test_is_skyline_validator(self):
        vectors = [V(0.1, 0.9), V(0.9, 0.1), V(0.5, 0.5), V(0.9, 0.9)]
        front = pareto_front(vectors)
        assert is_skyline(vectors, front)
        assert not is_skyline(vectors, [3])  # dominated point

    def test_ragged_vectors_rejected(self):
        with pytest.raises(SearchError, match="same-length vectors"):
            pareto_front([V(1.0, 2.0), V(1.0)])
        with pytest.raises(SearchError, match="same-length vectors"):
            pareto_front([np.float64(0.5), np.float64(0.2)])


class TestSFSFront:
    """:func:`pareto_front` runs the sort-first skyline on every input and
    must be index-identical to both the plain blocked scan and the Kung
    reference, including the adversarial cases the sum-presort does not
    align with: duplicates, ties inside the ``_TIE`` band, and
    anti-correlated fronts."""

    def check(self, matrix):
        front = pareto_front(list(matrix))
        assert front == np.flatnonzero(~dominated_mask(matrix)).tolist()
        assert front == sorted(pareto_front_reference(list(matrix)))
        return front

    def test_random_matches_plain_scan(self):
        rng = np.random.default_rng(3)
        for d in (2, 3, 5):
            self.check(rng.random((700, d)))

    def test_heavy_duplicates(self):
        rng = np.random.default_rng(4)
        self.check(rng.integers(0, 3, (800, 3)).astype(float))

    def test_ties_inside_tolerance_band(self):
        # Coordinates jittered by less than _TIE: near-equal points are
        # mutually non-dominated and must all survive, exactly as the
        # plain scan keeps them.
        rng = np.random.default_rng(5)
        matrix = rng.random((600, 3))
        matrix += rng.choice([0.0, 5e-13, -5e-13], size=matrix.shape)
        self.check(matrix)

    def test_anti_correlated_large_front(self):
        # Worst case for the prefilter (everything is on the front): the
        # exact repair pass must still reproduce the plain scan.
        rng = np.random.default_rng(6)
        base = rng.random(600)
        self.check(np.column_stack([base, 1.0 - base]))

    def test_small_block_rows_chunk_boundaries(self):
        rng = np.random.default_rng(7)
        matrix = rng.integers(0, 5, (530, 4)).astype(float)
        assert _sfs_front(matrix, block_rows=7) == self.check(matrix)

    def test_matches_kung_reference(self):
        rng = np.random.default_rng(8)
        self.check(rng.integers(0, 6, (520, 3)).astype(float))

    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("n", [1, 2, 38])
    def test_small_inputs(self, n, d):
        # The sizes real searches reach (at most 38 points per call)
        # take the same kernel as the large cases above.
        rng = np.random.default_rng(10 * n + d)
        self.check(rng.random((n, d)))
        self.check(rng.integers(0, 3, (n, d)).astype(float))


class TestSkylineGrid:
    def make_grid(self, epsilon=0.5, upper=1.0):
        measures = MeasureSet(
            [
                Measure("a", kind="error", lower=0.01, upper=upper),
                Measure("d", kind="error", lower=0.01, upper=upper),
            ]
        )
        return SkylineGrid(measures, epsilon)

    def state(self, *perf, bits=0):
        return State(bits=bits, perf=np.array(perf, dtype=float))

    def test_accepts_first_in_cell(self):
        grid = self.make_grid()
        assert grid.update(self.state(0.5, 0.5, bits=1))
        assert len(grid) == 1

    def test_decisive_replacement(self):
        grid = self.make_grid()
        grid.update(self.state(0.5, 0.5, bits=1))
        # same cell (same a), better decisive -> replaces
        assert grid.update(self.state(0.5, 0.3, bits=2))
        assert len(grid) == 1
        assert grid.states[0].bits == 2
        assert grid.replacements == 1

    def test_worse_decisive_rejected(self):
        grid = self.make_grid()
        grid.update(self.state(0.5, 0.3, bits=1))
        assert not grid.update(self.state(0.5, 0.6, bits=2))

    def test_out_of_bounds_skipped(self):
        grid = self.make_grid(upper=0.4)
        assert not grid.update(self.state(0.5, 0.1, bits=1))
        assert grid.skipped_out_of_bounds == 1

    def test_different_cells_coexist(self):
        grid = self.make_grid(epsilon=0.1)
        grid.update(self.state(0.05, 0.9, bits=1))
        grid.update(self.state(0.9, 0.05, bits=2))
        assert len(grid) == 2

    def test_covers_epsilon_dominance(self):
        grid = self.make_grid(epsilon=0.5)
        grid.update(self.state(0.2, 0.2, bits=1))
        assert grid.covers(np.array([0.25, 0.25]))
        assert not grid.covers(np.array([0.05, 0.05]))

    def test_remove(self):
        grid = self.make_grid()
        s = self.state(0.5, 0.5, bits=1)
        grid.update(s)
        grid.remove(s)
        assert len(grid) == 0

    def test_unvaluated_rejected(self):
        grid = self.make_grid()
        with pytest.raises(SearchError):
            grid.update(State(bits=1))

    def test_positive_epsilon_required(self):
        with pytest.raises(SearchError):
            self.make_grid(epsilon=0.0)
