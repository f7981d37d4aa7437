"""DivMODis — diversified skyline generation (Section 5.4, Algorithm 3).

Runs the bi-directional search and, at the end of every level, replaces the
current ε-skyline set with a greedily diversified k-subset (the stream
submodular-maximization policy with the ¼-approximation of Lemma 5).
States evicted by diversification leave the grid, so later levels can
re-populate their cells with more diverse alternatives.
"""

from __future__ import annotations

from ..config import Configuration
from ..diversity import greedy_diversify, max_euclidean
from .bimodis import BiMODis


class DivMODis(BiMODis):
    """Algorithm 3 layered on the bi-directional search."""

    name = "DivMODis"
    thin_front = False  # keep diverse-but-dominated members (Section 5.4)

    def __init__(
        self,
        config: Configuration,
        epsilon: float = 0.1,
        budget: int = 200,
        max_level: int = 6,
        k: int = 5,
        alpha: float = 0.5,
        pruning: bool = True,
        theta: float = 0.8,
    ):
        super().__init__(
            config,
            epsilon=epsilon,
            budget=budget,
            max_level=max_level,
            pruning=pruning,
            theta=theta,
        )
        self.k = int(k)
        self.alpha = float(alpha)

    def _end_of_level(self, level: int) -> None:
        """The diversification step of Algorithm 3 at level i."""
        states = self.grid.states
        if len(states) <= self.k:
            return
        euc_max = max_euclidean(self.config.estimator.store.perf_matrix())
        kept = greedy_diversify(
            states,
            k=self.k,
            width=self.config.space.width,
            alpha=self.alpha,
            euc_max=euc_max,
            seed=self.config.seed + level,
        )
        kept_bits = {s.bits for s in kept}
        for state in states:
            if state.bits not in kept_bits:
                self.grid.remove(state)
        self.report.extras.setdefault("diversified_at_levels", []).append(level)
