"""Partitioning the search space across workers.

The running graph of a reduce-from-universal search is a DAG rooted at
``s_U`` whose level-1 children are the single-flip reductions. Assigning
each child (and the subtree of states whose *first* reduction it is) to
one worker yields disjoint exploration frontiers without any coordination
during search: every state is reachable from s_U by some reduction order,
so the union of subtrees still covers the space, while each worker prunes
and valuates independently within an equal slice of the global budget.
"""

from __future__ import annotations

from ..core.transducer import SearchSpace, Transducer
from ..exceptions import SearchError


def partition_frontier(
    space: SearchSpace, n_workers: int
) -> list[list[tuple[int, str]]]:
    """Split the level-1 frontier of ``s_U`` into ``n_workers`` seed lists.

    Returns one list of ``(child_bits, operator description)`` seeds per
    worker. Seeds are dealt round-robin in entry order, which balances
    both count and (for tabular spaces, where adjacent entries belong to
    the same attribute) the kind of reduction each worker receives.
    Workers beyond the frontier size receive empty lists.
    """
    if n_workers < 1:
        raise SearchError("n_workers must be >= 1")
    transducer = Transducer(space)
    frontier = list(transducer.spawn(space.universal_bits, "forward"))
    if not frontier:
        raise SearchError("universal state has no applicable reductions")
    partitions: list[list[tuple[int, str]]] = [[] for _ in range(n_workers)]
    for i, seed in enumerate(frontier):
        partitions[i % n_workers].append(seed)
    return partitions


def shard_budget(budget: int, n_shards: int) -> int:
    """Each partition's slice of the global valuation budget (at least 1)."""
    return max(1, budget // n_shards)
