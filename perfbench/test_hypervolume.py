"""Exact hypervolume against inclusion–exclusion brute force.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from hypervolume import hypervolume


def brute_force(points: np.ndarray, ref: np.ndarray) -> float:
    """Volume of the union of boxes ``[p, ref]`` by inclusion–exclusion."""
    total = 0.0
    for size in range(1, len(points) + 1):
        sign = 1.0 if size % 2 else -1.0
        for subset in itertools.combinations(range(len(points)), size):
            corner = points[list(subset)].max(axis=0)
            total += sign * float(np.prod(np.clip(ref - corner, 0.0, None)))
    return total


@pytest.mark.parametrize("dims", [1, 2, 3, 4, 5, 6])
def test_matches_inclusion_exclusion_on_random_fronts(dims):
    rng = np.random.default_rng(dims)
    ref = np.ones(dims)
    for _ in range(25):
        n = int(rng.integers(1, 9))
        points = rng.uniform(0.001, 1.0, size=(n, dims))
        if n > 2:
            points[1] = points[0]  # a duplicate
            points[2] = np.minimum(points[2], 0.999)
        assert hypervolume(points) == pytest.approx(
            brute_force(points, ref), rel=1e-9, abs=1e-12
        )


def test_mutually_non_dominated_fronts_in_six_measures():
    rng = np.random.default_rng(7)
    for _ in range(10):
        base = rng.uniform(0.05, 0.95, size=(8, 6))
        # Points on a hyperplane are mutually non-dominated.
        base /= base.sum(axis=1, keepdims=True) / 2.0
        base = np.clip(base, 0.001, 0.999)
        assert hypervolume(base) == pytest.approx(
            brute_force(base, np.ones(6)), rel=1e-9
        )


def test_edge_cases():
    assert hypervolume([]) == 0.0
    assert hypervolume([[1.0, 0.5]]) == 0.0  # on the reference: no volume
    assert hypervolume([[0.5, 0.5]]) == pytest.approx(0.25)
    assert hypervolume([[0.5, 0.5], [0.6, 0.6]]) == pytest.approx(0.25)
    assert hypervolume([[0.2]], reference=[0.5]) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        hypervolume([[0.5, 0.5]], reference=[1.0])
