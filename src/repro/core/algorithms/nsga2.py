"""NSGA-II over bitmap states — the evolutionary alternative of Section 5.4.

The paper's Remarks position MODis against multi-objective evolutionary
search: "Alternatives ... such as NSGA-II [5] ... rely on costly stochastic
processes (e.g., mutation and crossover) and may require extensive
parameter tuning. In contrast, MODis is training and tuning free."

This module implements that comparator faithfully (Deb et al., 2002) on the
same search space and estimator so the ablation benchmark can measure the
claim: fast non-dominated sorting, crowding distance, binary tournament
selection, uniform crossover and per-bit mutation (respecting the space's
``valid_flip`` constraints), elitist (μ+λ) survival.
"""

from __future__ import annotations

import numpy as np

from ...exceptions import SearchError
from ...rng import make_rng
from ..state import State
from .base import SkylineAlgorithm


def non_dominated_sort(perfs: np.ndarray) -> list[list[int]]:
    """Deb's fast non-dominated sort: list of fronts (index lists).

    The ``O(n²·d)`` pairwise dominance comparisons are one broadcasted
    numpy expression (strict dominance, no tie tolerance — NSGA-II's
    definition); the front peeling then walks the precomputed matrix in
    the same order as the original per-pair loop, so front membership
    *and ordering* — which feed tournament selection and therefore the
    whole evolution — are bit-identical to the scalar implementation.
    """
    n = perfs.shape[0]
    if n == 0:
        return []
    # dom[i, j] ⇔ individual i dominates individual j.
    le = np.all(perfs[:, None, :] <= perfs[None, :, :], axis=-1)
    lt = np.any(perfs[:, None, :] < perfs[None, :, :], axis=-1)
    dom = le & lt
    dominates_sets = [np.flatnonzero(dom[i]) for i in range(n)]
    dominated_count = dom.sum(axis=0).astype(int)
    fronts: list[list[int]] = [[i for i in range(n) if dominated_count[i] == 0]]
    while fronts[-1]:
        next_front: list[int] = []
        for i in fronts[-1]:
            for j in dominates_sets[i]:
                dominated_count[j] -= 1
                if dominated_count[j] == 0:
                    next_front.append(int(j))
        fronts.append(next_front)
    return fronts[:-1]


def crowding_distance(perfs: np.ndarray, front: list[int]) -> dict[int, float]:
    """Crowding distance within one front (boundary points get +inf)."""
    distance = {i: 0.0 for i in front}
    if len(front) <= 2:
        return {i: float("inf") for i in front}
    k = perfs.shape[1]
    for m in range(k):
        ordered = sorted(front, key=lambda i: perfs[i, m])
        span = perfs[ordered[-1], m] - perfs[ordered[0], m]
        distance[ordered[0]] = distance[ordered[-1]] = float("inf")
        if span <= 0:
            continue
        for rank in range(1, len(ordered) - 1):
            gap = perfs[ordered[rank + 1], m] - perfs[ordered[rank - 1], m]
            distance[ordered[rank]] += gap / span
    return distance


class NSGAIIMODis(SkylineAlgorithm):
    """NSGA-II on the MODis search space (comparator, not a MODis variant).

    ``budget`` caps the number of *distinct* states valuated, like the
    MODis algorithms; generations stop early once it is exhausted.
    """

    name = "NSGA-II"

    def __init__(
        self,
        config,
        epsilon: float = 0.1,
        budget: int = 200,
        max_level: int = 6,  # unused; kept for interface parity
        population: int = 20,
        generations: int = 10,
        crossover_rate: float = 0.9,
        mutation_rate: float | None = None,
        seed: int | None = None,
    ):
        super().__init__(config, epsilon=epsilon, budget=budget,
                         max_level=max_level)
        if population < 4:
            raise SearchError("population must be >= 4")
        self.population_size = int(population)
        self.generations = int(generations)
        self.crossover_rate = float(crossover_rate)
        self.mutation_rate = (
            mutation_rate if mutation_rate is not None
            else 1.0 / max(config.space.width, 1)
        )
        self.seed = config.seed if seed is None else seed

    # -- GA plumbing -------------------------------------------------------------
    def _random_bits(self, rng) -> int:
        space = self.config.space
        bits = space.universal_bits
        flips = int(rng.integers(0, max(1, space.width // 2)))
        for _ in range(flips):
            index = int(rng.integers(space.width))
            if space.valid_flip(bits, index):
                bits ^= 1 << index
        return bits

    def _crossover(self, a: int, b: int, rng) -> int:
        width = self.config.space.width
        mask = 0
        for i in range(width):
            if rng.random() < 0.5:
                mask |= 1 << i
        return (a & mask) | (b & ~mask)

    def _mutate(self, bits: int, rng) -> int:
        space = self.config.space
        for index in range(space.width):
            if rng.random() < self.mutation_rate and space.valid_flip(bits, index):
                bits ^= 1 << index
        return bits

    def _evaluate(self, population: list[int]) -> np.ndarray:
        """Valuate a whole generation in one batched estimator call."""
        states = [State(bits=bits, via="nsga2") for bits in population]
        for state in states:
            self.graph.add_state(state)
        return self._valuate_batch(states)

    # -- main loop ---------------------------------------------------------------
    def _search(self) -> None:
        rng = make_rng(self.seed)
        space = self.config.space
        population = [space.universal_bits, space.backward_bits()]
        seen = set(population)
        while len(population) < self.population_size:
            bits = self._random_bits(rng)
            if bits not in seen:
                population.append(bits)
                seen.add(bits)
        perfs = self._evaluate(population)
        fronts = non_dominated_sort(perfs)
        for generation in range(self.generations):
            if self.budget_exhausted:
                self.report.terminated_by = "budget"
                break
            self.report.n_levels = generation + 1
            rank = {}
            for r, front in enumerate(fronts):
                for i in front:
                    rank[i] = r
            crowd: dict[int, float] = {}
            for front in fronts:
                crowd.update(crowding_distance(perfs, front))

            def tournament() -> int:
                i, j = rng.integers(len(population)), rng.integers(len(population))
                i, j = int(i), int(j)
                if rank[i] != rank[j]:
                    return i if rank[i] < rank[j] else j
                return i if crowd[i] >= crowd[j] else j

            offspring: list[int] = []
            while len(offspring) < self.population_size:
                pa, pb = population[tournament()], population[tournament()]
                child = (
                    self._crossover(pa, pb, rng)
                    if rng.random() < self.crossover_rate
                    else pa
                )
                child = self._mutate(child, rng)
                offspring.append(child)
            offspring_perfs = self._evaluate(offspring)
            merged = population + offspring
            merged_perfs = np.vstack([perfs, offspring_perfs])
            # elitist survival: fill from the best fronts, crowding-sorted
            survivors: list[int] = []
            for front in non_dominated_sort(merged_perfs):
                if len(survivors) + len(front) <= self.population_size:
                    survivors.extend(front)
                else:
                    crowd = crowding_distance(merged_perfs, front)
                    ordered = sorted(front, key=lambda i: -crowd[i])
                    survivors.extend(
                        ordered[: self.population_size - len(survivors)]
                    )
                    break
            population = [merged[i] for i in survivors]
            perfs = merged_perfs[survivors]
            fronts = non_dominated_sort(perfs)
            # The grid is only fed after the loop, so the partial skyline
            # is the population's first non-dominated front.
            self._emit_level_progress(
                [
                    State(bits=population[i], via="nsga2", perf=perfs[i])
                    for i in fronts[0]
                ],
                generation=generation + 1,
                front_size=len(fronts[0]),
            )
        # feed the final population's non-dominated front into the grid
        for i in fronts[0]:
            state = State(bits=population[i], via="nsga2", perf=perfs[i])
            self.grid.update(state)
        if self.report.terminated_by != "budget":
            self.report.terminated_by = "generations"
