"""BiMODis — bi-directional search with correlation-based pruning (Alg. 2).

BiMODis is ApxMODis's level-wise loop with two additions. A *backward*
frontier from the BackSt seed ``s_b`` applies Augments while the forward
frontier from ``s_U`` applies Reducts; both feed the same UPareto ε-grid,
and the search also stops when the two frontiers meet (a path is formed).

Pruning (Section 5.3 / Lemma 4): before valuating a spawned state, BiMODis
partially valuates it with the configuration's *cheap oracle* (measures
computable from the output size alone, e.g. a training-cost proxy), infers
parameterized ranges ``[p̂_l, p̂_u]`` for the remaining measures from the
correlation graph G_C over the test set T, and discards the state if an
already-kept skyline state parameterized-ε-dominates even its optimistic
bound. ``NOBiMODis`` is the published ablation: identical search, pruning
off.
"""

from __future__ import annotations

import numpy as np

from ..config import Configuration
from ..correlation import CorrelationGraph, infer_ranges
from .apx import ApxMODis

#: Pruning checks between refreshes of the correlation graph G_C.
CORR_REFRESH = 8


class BiMODis(ApxMODis):
    """Algorithm 2 (full version: Algorithm 4 in the appendix)."""

    name = "BiMODis"

    def __init__(
        self,
        config: Configuration,
        epsilon: float = 0.1,
        budget: int = 200,
        max_level: int = 6,
        pruning: bool = True,
        theta: float = 0.8,
    ):
        super().__init__(config, epsilon=epsilon, budget=budget, max_level=max_level)
        self.pruning = pruning
        self.theta = theta
        self.corr = CorrelationGraph(config.measures, theta=theta)
        self._since_corr_update = 0

    # -- pruning ------------------------------------------------------------------
    def _cheap_known(self, bits: int) -> dict[int, float]:
        """Partially valuate a state with the cheap oracle (if any)."""
        if self.config.cheap_oracle is None:
            return {}
        raw = self.config.cheap_oracle(bits)
        known: dict[int, float] = {}
        for name, value in raw.items():
            if name in self.config.measures:
                measure = self.config.measures[name]
                known[self.config.measures.index_of(name)] = measure.normalize(value)
        return known

    def _maybe_refresh_corr(self) -> None:
        if self._since_corr_update >= CORR_REFRESH or self._since_corr_update == 0:
            self.corr.update(self.config.estimator.store)
            self._since_corr_update = 1
        else:
            self._since_corr_update += 1

    def _can_prune(self, bits: int) -> bool:
        """canPrune of Algorithm 2: Lemma 4 against the kept skyline states.

        Hot path: the per-anchor case analysis of
        :func:`monotone_bound_excludes` reduces, for fully-valuated anchors,
        to one vectorized comparison against the candidate's optimistic
        bound ``p̂_l`` — prune iff some anchor a has
        ``a ≤ (1+ε)·p̂_l`` componentwise.
        """
        if not self.pruning:
            return False
        if len(self.config.estimator.store) < 8:
            return False  # ranges would be too loose to ever exclude
        anchors = self.grid.states
        if not anchors:
            return False
        known = self._cheap_known(bits)
        if not known:
            return False
        self._maybe_refresh_corr()
        low, _high = infer_ranges(
            known, self.config.measures, self.corr, self.config.estimator.store
        )
        anchor_matrix = np.stack([s.perf for s in anchors])
        ceiling = (1.0 + self.epsilon) * low + 1e-12
        return bool(np.any(np.all(anchor_matrix <= ceiling, axis=1)))

    # -- search -------------------------------------------------------------------
    def _seeds(self) -> dict[str, list[tuple[int, str]]]:
        """Add the BackSt seed ``s_b`` as the backward frontier."""
        seeds = super()._seeds()
        bits = self.config.space.backward_bits()
        universal = self.config.space.universal_bits
        seeds["backward"] = [(bits, "s_b")] if bits != universal else []
        return seeds

    def _search(self) -> None:
        super()._search()
        self.report.extras["pruned"] = self.report.n_pruned
        self.report.extras["correlation_edges"] = self.corr.edges()


class NOBiMODis(BiMODis):
    """BiMODis with correlation-based pruning disabled (paper's ablation)."""

    name = "NOBiMODis"

    def __init__(
        self,
        config: Configuration,
        epsilon: float = 0.1,
        budget: int = 200,
        max_level: int = 6,
    ):
        super().__init__(
            config,
            epsilon=epsilon,
            budget=budget,
            max_level=max_level,
            pruning=False,
        )
