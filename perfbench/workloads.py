"""The benchmark's workloads: seeded job mixes of real paper scenarios.

Each workload turns a workload seed into two lists of inline job specs
(the fields ``POST /v1/jobs`` accepts): the *pre-warm* jobs that set-up
runs once, and an endless *timed* sequence that the closed-loop clients
take jobs from in order. The server only ever sees the generated specs.
The same seed always gives the same specs in the same order.

Sequences are drawn in blocks that each hold every kind of job once. The
data a job runs on depends on its block, not on the workload seed; the
seed draws the order within each block. A round runs a whole number of
blocks, so every seed runs the same kinds of work in the same
proportions, and a round's figures do not hinge on which tasks the seed
happened to favour or on how far a slow machine got.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator

Spec = dict[str, Any]


@dataclass(frozen=True)
class Workload:
    """One traffic mix: who submits what, and what set-up runs first."""

    name: str
    clients: int
    #: specs run once during set-up, before the first timed submission
    prewarm: Callable[[int], list[Spec]]
    #: the timed sequence; clients draw from one shared iterator
    jobs: Callable[[int], Iterator[Spec]]
    #: jobs per block of the sequence
    block: int
    #: seconds one block takes on a 2-vCPU Xeon VM; it sizes the rounds
    block_s: float
    #: every timed submission must be a result-cache hit
    all_hits: bool = False

    def round_jobs(self, seconds: float) -> int:
        """The jobs one round runs: the whole blocks nearest ``seconds``.

        The count depends on ``seconds`` alone, so every run given the
        same ``seconds`` times the same work, however fast the machine.
        """
        return self.block * max(1, round(seconds / self.block_s))


# -- oracle-cold ---------------------------------------------------------------

#: per (task, algorithm): budget N, max level and NSGA-II's settings,
#: sized so every job takes about the same time on the exact oracle (the
#: linear T3 is cheap per state, so it gets far more states)
_COLD_JOBS = {
    ("T1", "apx"): (2, 2, {}),
    ("T1", "bimodis"): (3, 2, {}),
    ("T1", "nsga2"): (4, 2, {"population": 4, "generations": 1, "seed": 7}),
    ("T2", "apx"): (2, 2, {}),
    ("T2", "bimodis"): (3, 2, {}),
    ("T2", "nsga2"): (6, 2, {"population": 6, "generations": 1, "seed": 7}),
    ("T3", "apx"): (500, 8, {}),
    ("T3", "bimodis"): (350, 8, {}),
    ("T3", "nsga2"): (700, 8, {"population": 16, "generations": 45, "seed": 7}),
    ("T5", "apx"): (12, 3, {}),
    ("T5", "bimodis"): (16, 3, {}),
    ("T5", "nsga2"): (20, 3, {"population": 5, "generations": 4, "seed": 7}),
}
_COLD_PAIRS = list(_COLD_JOBS)


def _oracle_cold_jobs(seed: int) -> Iterator[Spec]:
    """Exact-oracle jobs, each on a (task, scale, seed) never seen before.

    Block ``b`` runs every (task, algorithm) pair once, pair ``i`` on data
    seed ``1000 + 12 b + i``; the workload seed orders the pairs in each
    block.
    """
    rng = random.Random(f"oracle-cold/{seed}")
    for block in itertools.count():
        for i in rng.sample(range(len(_COLD_PAIRS)), len(_COLD_PAIRS)):
            task, algorithm = _COLD_PAIRS[i]
            budget, max_level, kwargs = _COLD_JOBS[task, algorithm]
            yield {
                "task": task,
                "algorithm": algorithm,
                "algorithm_kwargs": kwargs,
                "estimator": "oracle",
                "epsilon": 0.2,
                "budget": budget,
                "max_level": max_level,
                "scale": 0.5,
                "seed": 1000 + len(_COLD_PAIRS) * block + i,
            }


# -- surrogate-warm ------------------------------------------------------------

#: the pool of task keys: (task, scale 0.5, data seed)
_WARM_KEYS = {"T1": 7001, "T2": 7002, "T4": 7004}
_WARM_ALGORITHMS = {"apx": {}, "bimodis": {}, "divmodis": {"k": 5}}
#: (ε, budget) grid; a key's algorithm pair moves one cell per block
_WARM_KNOBS = list(itertools.product((0.15, 0.2, 0.25), (14, 16, 18)))
_WARM_COMMON = {
    "estimator": "mogb",
    "n_bootstrap": 4,
    "max_level": 4,
    "scale": 0.5,
}


def _surrogate_warm_prewarm(seed: int) -> list[Spec]:
    """One cold MO-GBM job per task key: bootstraps its oracle history."""
    return [
        {"task": task, "algorithm": "bimodis", "epsilon": 0.2, "budget": 4,
         "seed": data_seed, **_WARM_COMMON}
        for task, data_seed in _WARM_KEYS.items()
    ]


def _warm_key_jobs(task: str) -> Iterator[Spec]:
    """One task key's fixed job sequence: each block, every algorithm once.

    Pair ``i`` (of the nine key, algorithm pairs) gets cell
    ``(b + i) mod 9`` of the grid in block ``b``, and every nine blocks
    the budgets grow by one, so no fingerprint ever repeats.
    """
    offset = list(_WARM_KEYS).index(task) * len(_WARM_ALGORITHMS)
    for block in itertools.count():
        for i, (algorithm, kwargs) in enumerate(_WARM_ALGORITHMS.items()):
            cell = block + offset + i
            epsilon, budget = _WARM_KNOBS[cell % len(_WARM_KNOBS)]
            yield {
                "task": task,
                "algorithm": algorithm,
                "algorithm_kwargs": kwargs,
                "epsilon": epsilon,
                "budget": budget + block // len(_WARM_KNOBS),
                "seed": _WARM_KEYS[task],
                **_WARM_COMMON,
            }


def _surrogate_warm_jobs(seed: int) -> Iterator[Spec]:
    """MO-GBM jobs over the pool's keys; every fingerprint is new.

    Each block takes the next job of every key, in an order the workload
    seed draws. A key's oracle-store history grows from that key's own
    earlier jobs alone, so each job computes the same skyline under every
    seed, and every block holds the same jobs under every seed.
    """
    rng = random.Random(f"surrogate-warm/{seed}")
    queues = {task: _warm_key_jobs(task) for task in _WARM_KEYS}
    while True:
        for task in rng.sample(list(queues), len(queues)):
            yield next(queues[task])


# -- cache-replay --------------------------------------------------------------

_NSGA2 = {"population": 6, "generations": 3, "seed": 7}


def _replay_specs(seed: int) -> list[Spec]:
    """The distinct real scenarios whose cached results are replayed."""
    return [
        {
            "task": task,
            "algorithm": algorithm,
            "algorithm_kwargs": _NSGA2 if algorithm == "nsga2" else {},
            "estimator": "oracle",
            "epsilon": 0.2,
            "budget": 10,
            "max_level": 3,
            "scale": 0.5,
            "seed": 500,
        }
        for task, algorithm in itertools.product(
            ("T3", "T5"), ("apx", "bimodis", "nsga2")
        )
    ]


def _cache_replay_jobs(seed: int) -> Iterator[Spec]:
    """Resubmissions of the pre-warmed specs, each block in a seeded order."""
    specs = _replay_specs(seed)
    rng = random.Random(f"cache-replay/{seed}")
    while True:
        yield from rng.sample(specs, len(specs))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("oracle-cold", clients=1, prewarm=lambda seed: [],
                 jobs=_oracle_cold_jobs, block=len(_COLD_PAIRS), block_s=4.5),
        Workload("surrogate-warm", clients=1, prewarm=_surrogate_warm_prewarm,
                 jobs=_surrogate_warm_jobs, block=len(_WARM_KEYS), block_s=1.6),
        Workload("cache-replay", clients=2, prewarm=_replay_specs,
                 jobs=_cache_replay_jobs, block=len(_replay_specs(0)), block_s=0.019,
                 all_hits=True),
    )
}
