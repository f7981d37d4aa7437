"""The skyline data generator as a finite-state transducer.

Section 3 formalizes generation as ``T = (s_M, S, O, S_F, δ)``: states carry
tables, operators are ⊕/⊖, transitions apply one operator, and a *running*
of ``T`` unfolds a DAG — the running graph ``G_T``. This module provides:

* :class:`Entry` / :class:`SearchSpace` — the bitmap vocabulary. A search
  space fixes the ordered entries (attribute bits, domain-cluster bits, or
  edge-cluster bits) and materializes any bitmap into a concrete artifact
  (a :class:`~repro.relational.Table` or
  :class:`~repro.graph.BipartiteGraph`).
* :class:`TabularSearchSpace` — reduce/augment over a universal table with
  k-means-compressed domain literals (Section 6's construction of D_U).
* :class:`GraphSearchSpace` — the T5 counterpart over edge clusters.
* :class:`Transducer` — OpGen: spawn children by flipping one bit (1→0 is a
  Reduct for the forward search; 0→1 an Augment for the backward search).
* :class:`RunningGraph` — the recorded DAG of valuated states.

Materialization fast path
-------------------------

``TabularSearchSpace`` keeps two materializers. :meth:`~TabularSearchSpace.
materialize` is the compatibility path: a real :class:`Table` built by
row selection, needed wherever downstream code expects relational form
(SQL compilation, UDF pipelines, reports, T5 graphs use their own path).
:meth:`~TabularSearchSpace.materialize_matrix` is the valuation fast path:
the universal table is encoded into a numpy
:class:`~repro.relational.columns.ColumnStore` once, and every state is
served as a :class:`~repro.relational.columns.MatrixView` — ``(X, y)`` by
boolean-mask slicing, no intermediate Table, no per-call encoder fit. Row
survival itself is vectorized: per-cluster membership rows are stacked into
one 2-D bool matrix and reduced with ``np.add.reduceat`` /
``logical_and.reduce`` instead of the old bit-by-bit Python walk, and one
mask per bitmap is shared between ``materialize``, ``materialize_matrix``,
``output_size`` and ``feature_vector`` through a small LRU. Both
materializers memoize into byte-budgeted LRU caches (see ``cache_stats``).
"""

from __future__ import annotations

import abc
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterator, Literal as TypingLiteral, Sequence

import numpy as np

from ..exceptions import SearchError
from ..graph.bipartite import BipartiteGraph
from ..obs import Counter
from ..graph.operators import EdgeCluster, augment_edges, cluster_edges
from ..relational.columns import ColumnStore, MatrixView
from ..relational.domain import DomainCluster, cluster_all_domains
from ..relational.table import Table
from .state import State, bits_to_array, flip_bit, iter_clear_bits, iter_set_bits

Direction = TypingLiteral["forward", "backward"]

ENTRY_ATTRIBUTE = "attribute"
ENTRY_CLUSTER = "cluster"
ENTRY_EDGE_CLUSTER = "edge_cluster"


@dataclass(frozen=True, slots=True)
class Entry:
    """One bitmap position: an attribute bit or a value/edge-cluster bit."""

    label: str
    kind: str
    attribute: str = ""  # owning attribute for cluster entries
    payload: Any = None  # DomainCluster / EdgeCluster


class SearchSpace(abc.ABC):
    """The bitmap vocabulary plus a materializer for any bitmap."""

    entries: tuple[Entry, ...]

    # -- geometry ---------------------------------------------------------------
    @property
    def width(self) -> int:
        return len(self.entries)

    @property
    def universal_bits(self) -> int:
        """All entries active: the universal dataset D_U (forward start)."""
        return (1 << self.width) - 1

    @abc.abstractmethod
    def backward_bits(self) -> int:
        """The backward start state s_b produced by BackSt (Section 5.3)."""

    # -- semantics ---------------------------------------------------------------
    @abc.abstractmethod
    def materialize(self, bits: int) -> Any:
        """The artifact (table/graph) the bitmap denotes."""

    @abc.abstractmethod
    def output_size(self, bits: int) -> tuple[int, int]:
        """Paper-style output size: (rows, columns) or (edges, features)."""

    @abc.abstractmethod
    def feature_vector(self, bits: int) -> np.ndarray:
        """Estimator features for the state (bitmap + dataset statistics)."""

    def feature_matrix(self, bits_list: Sequence[int]) -> np.ndarray:
        """Feature vectors for many states, stacked (row i ↔ bits_list[i]).

        The batch API of the valuation hot loop: surrogate estimators hand
        a whole refit window here instead of stacking per-state calls.
        Subclasses with per-state caches (``TabularSearchSpace``) answer
        repeated bitmaps from the shared mask LRU, so a batch costs one
        mask computation per *distinct* state.
        """
        vectors = [self.feature_vector(bits) for bits in bits_list]
        if not vectors:
            return np.zeros((0, 0))
        return np.stack(vectors)

    def valid_flip(self, bits: int, index: int) -> bool:
        """May this entry be flipped from the given bitmap? Default: yes."""
        return True

    def describe_entry(self, index: int) -> str:
        """Human-readable label of one bitmap entry."""
        return self.entries[index].label

    def describe(self, bits: int) -> str:
        """Human-readable set of active entry labels."""
        active = [self.entries[i].label for i in iter_set_bits(bits)]
        return "{" + ", ".join(active) + "}"


def _estimate_nbytes(value: Any) -> int:
    """Approximate in-memory size of a cached materialization artifact."""
    nbytes = getattr(value, "nbytes", None)  # MatrixView / np.ndarray
    if nbytes is not None:
        return int(nbytes)
    if isinstance(value, Table):
        # Python-list cells: ~8 bytes of pointer + a shared-ish boxed value;
        # 32/cell is a deliberate overestimate so Tables evict first.
        return value.num_rows * max(value.num_columns, 1) * 32 + 256
    edges = getattr(value, "num_edges", None)  # BipartiteGraph
    if edges is not None:
        return int(edges) * 24 + 256
    return 1024


class _ByteBudgetLRU:
    """Byte-budgeted LRU cache keyed by bitmap (materialization is pure).

    Replaces the old count-bounded cache (512 whole Tables regardless of
    size): entries are charged their estimated footprint and evicted
    least-recently-used until both the byte budget and the entry cap hold.
    A value larger than the whole budget is never admitted (caching it
    would just wipe the cache for one state).

    Thread-safe: scenario suites run concurrent searches over one shared
    search space (see :class:`repro.scenarios.TaskCache`), so lookups and
    evictions from different threads must not interleave mid-update.
    """

    def __init__(self, max_bytes: int = 64 << 20, max_entries: int = 4096):
        self.max_bytes = int(max_bytes)
        self.max_entries = int(max_entries)
        self._store: OrderedDict[Any, tuple[Any, int]] = OrderedDict()
        self._lock = threading.Lock()
        self.bytes = 0
        # Typed counters (repro.obs) instead of bare ints: same semantics,
        # but uniform with the service metrics registry. Unregistered —
        # each cache owns its counters; the scheduler aggregates via
        # ``stats()`` / ``materialization_stats``.
        self.hits = Counter(
            "repro_materialization_cache_hits", "Materialization cache hits."
        )
        self.misses = Counter(
            "repro_materialization_cache_misses",
            "Materialization cache misses.",
        )
        self.evictions = Counter(
            "repro_materialization_cache_evictions",
            "Materialization cache LRU evictions.",
        )
        self.rejected = Counter(
            "repro_materialization_cache_rejected",
            "Values larger than the whole byte budget, never admitted.",
        )

    def get(self, key: Any):
        with self._lock:
            entry = self._store.get(key)
            if entry is not None:
                self._store.move_to_end(key)
                self.hits.inc()
                return entry[0]
            self.misses.inc()
            return None

    def put(self, key: Any, value: Any) -> None:
        size = _estimate_nbytes(value)
        with self._lock:
            if size > self.max_bytes:
                self.rejected.inc()
                return
            old = self._store.pop(key, None)
            if old is not None:
                self.bytes -= old[1]
            self._store[key] = (value, size)
            self.bytes += size
            while self._store and (
                self.bytes > self.max_bytes
                or len(self._store) > self.max_entries
            ):
                _, (_, evicted_size) = self._store.popitem(last=False)
                self.bytes -= evicted_size
                self.evictions.inc()

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": int(self.hits.value),
                "misses": int(self.misses.value),
                "bytes": self.bytes,
                "entries": len(self._store),
                "evictions": int(self.evictions.value),
                "rejected": int(self.rejected.value),
                "max_bytes": self.max_bytes,
            }


class TabularSearchSpace(SearchSpace):
    """Bitmap semantics over a universal table.

    Entry layout (fixed order): for each non-target attribute ``A`` of the
    universal table — one ``attribute`` entry, then one ``cluster`` entry
    per k-means domain cluster of ``A``. A bitmap materializes as:

    * columns: the target plus every attribute whose attribute-bit is 1;
    * rows: a row survives iff, for every *active* attribute, its value is
      null or belongs to one of the attribute's *active* clusters.

    Flipping an attribute bit 1→0 is the paper's column Reduct; flipping a
    cluster bit 1→0 is ``⊖_{A ∈ cluster}``; the reverse flips are Augments.
    """

    def __init__(
        self,
        universal: Table,
        target: str,
        max_clusters: int = 6,
        seed: int = 0,
        cache_size: int = 4096,
        cache_bytes: int = 64 << 20,
    ):
        if target not in universal.schema:
            raise SearchError(f"target {target!r} not in universal schema")
        if universal.num_rows == 0:
            raise SearchError("universal table has no rows")
        self.universal = universal
        self.target = target
        self.seed = seed
        clusters = cluster_all_domains(
            universal, max_clusters=max_clusters, seed=seed, exclude=[target]
        )
        entries: list[Entry] = []
        self._attr_entry: dict[str, int] = {}
        self._cluster_entries: dict[str, list[int]] = {}
        for name in universal.schema.names:
            if name == target:
                continue
            self._attr_entry[name] = len(entries)
            entries.append(Entry(label=f"attr:{name}", kind=ENTRY_ATTRIBUTE,
                                 attribute=name))
            self._cluster_entries[name] = []
            for cluster in clusters.get(name, []):
                self._cluster_entries[name].append(len(entries))
                entries.append(
                    Entry(
                        label=f"cl:{cluster.label}",
                        kind=ENTRY_CLUSTER,
                        attribute=name,
                        payload=cluster,
                    )
                )
        if not entries:
            raise SearchError("universal table has no non-target attributes")
        self.entries = tuple(entries)
        self._cache = _ByteBudgetLRU(cache_bytes, cache_size)
        self._matrix_cache = _ByteBudgetLRU(cache_bytes, cache_size)
        # Row-survival masks are tiny (n bools) but recomputed constantly
        # (materialize, output_size, feature_vector, the cheap-cost proxy
        # all need one); share a single computation per bitmap here.
        self._mask_cache = _ByteBudgetLRU(8 << 20, 65536)
        # Precompute row membership per cluster entry for fast materialization.
        self._row_members: dict[int, np.ndarray] = {}
        n = universal.num_rows
        for name, entry_ids in self._cluster_entries.items():
            col = universal._column_ref(name)
            for entry_id in entry_ids:
                cluster: DomainCluster = self.entries[entry_id].payload
                mask = np.fromiter(
                    ((v is not None and v in cluster.values) for v in col),
                    dtype=bool,
                    count=n,
                )
                self._row_members[entry_id] = mask
        self._null_mask: dict[str, np.ndarray] = {
            name: np.fromiter(
                (v is None for v in universal._column_ref(name)), dtype=bool, count=n
            )
            for name in self._attr_entry
        }
        # Stack the per-cluster membership rows into one 2-D bool matrix so
        # row_mask reduces with numpy ops instead of a per-entry Python
        # walk. Cluster entries of one attribute are contiguous in entry
        # order (the layout interleaves each attribute bit with its own
        # clusters), so attribute groups are reduceat segments.
        grouped = [
            (name, entry_ids)
            for name, entry_ids in self._cluster_entries.items()
            if entry_ids
        ]
        self._group_attr_ids = np.array(
            [self._attr_entry[name] for name, _ in grouped], dtype=np.int64
        )
        self._cluster_entry_ids = np.array(
            [e for _, entry_ids in grouped for e in entry_ids], dtype=np.int64
        )
        starts, offset = [], 0
        for _, entry_ids in grouped:
            starts.append(offset)
            offset += len(entry_ids)
        self._group_starts = np.array(starts, dtype=np.int64)
        if grouped:
            self._members_matrix = np.stack(
                [self._row_members[e] for e in self._cluster_entry_ids]
            )
            self._group_null_matrix = np.stack(
                [self._null_mask[name] for name, _ in grouped]
            )
        else:
            self._members_matrix = np.zeros((0, n), dtype=bool)
            self._group_null_matrix = np.zeros((0, n), dtype=bool)
        # Columnar fast path: built lazily on first materialize_matrix call
        # (pure-Table workloads never pay the one-time encode).
        self._column_store: ColumnStore | None = None
        self._column_store_lock = threading.Lock()

    # -- SearchSpace API ----------------------------------------------------------
    def backward_bits(self) -> int:
        """BackSt: all attribute bits on, the densest cluster per attribute.

        Gives a small-but-connected seed table that covers every attribute —
        the tabular analogue of sampling a minimal tuple set that keeps all
        target classes reachable.
        """
        bits = 0
        for name, attr_idx in self._attr_entry.items():
            bits |= 1 << attr_idx
            entry_ids = self._cluster_entries[name]
            if entry_ids:
                densest = max(
                    entry_ids, key=lambda e: int(self._row_members[e].sum())
                )
                bits |= 1 << densest
        return bits

    def row_mask(self, bits: int) -> np.ndarray:
        """Boolean survival mask over universal-table rows for a bitmap.

        Vectorized: active-cluster membership rows are selected from the
        precomputed stacked matrix, OR-reduced per attribute group with
        ``np.add.reduceat``, widened by the attribute's null mask (a null
        never violates a domain constraint), and AND-reduced over the
        active attributes. One mask per bitmap is memoized and shared by
        ``materialize`` / ``materialize_matrix`` / ``output_size`` /
        ``feature_vector``; callers must not mutate the returned array.
        """
        cached = self._mask_cache.get(bits)
        if cached is not None:
            return cached
        n = self.universal.num_rows
        if self._group_starts.size == 0:
            keep = np.ones(n, dtype=bool)
        else:
            active_cluster = (
                np.array(
                    [(bits >> int(e)) & 1 for e in self._cluster_entry_ids],
                    dtype=bool,
                )
            )
            active_attr = np.array(
                [(bits >> int(a)) & 1 for a in self._group_attr_ids],
                dtype=bool,
            )
            if not active_attr.any():
                keep = np.ones(n, dtype=bool)
            else:
                masked = self._members_matrix & active_cluster[:, None]
                covered = np.add.reduceat(masked, self._group_starts, axis=0)
                allowed = covered | self._group_null_matrix
                keep = np.logical_and.reduce(allowed[active_attr], axis=0)
        keep.flags.writeable = False
        self._mask_cache.put(bits, keep)
        return keep

    def active_attributes(self, bits: int) -> list[str]:
        """Names of attributes whose attribute bit is on."""
        return [
            name for name, idx in self._attr_entry.items() if (bits >> idx) & 1
        ]

    def materialize(self, bits: int) -> Table:
        """The compatibility path: a concrete :class:`Table` for a bitmap."""
        cached = self._cache.get(bits)
        if cached is not None:
            return cached
        keep = self.row_mask(bits)
        columns = self.active_attributes(bits) + [self.target]
        # .tolist() hands Table.take native ints directly — the old
        # per-element ``int(i)`` comprehension round-tripped every index
        # through a numpy scalar.
        table = self.universal.project(columns).take(
            np.flatnonzero(keep).tolist()
        )
        self._cache.put(bits, table)
        return table

    @property
    def column_store(self) -> ColumnStore:
        """The lazily built one-time numpy encoding of the universal table."""
        if self._column_store is None:
            with self._column_store_lock:
                if self._column_store is None:
                    self._column_store = ColumnStore(
                        self.universal, target=self.target
                    )
        return self._column_store

    def materialize_matrix(
        self, bits: int, include_binned: bool = False
    ) -> MatrixView:
        """The valuation fast path: the state's ``(X, y)`` as a
        :class:`~repro.relational.columns.MatrixView`.

        Bit-identical to ``TableEncoder(target).fit_transform(
        materialize(bits))`` (the legacy oracle prologue) but served by
        boolean-mask slicing of the precomputed columnar encoding — no
        intermediate Table, no per-call encoder fit.

        ``include_binned=True`` additionally attaches the state's
        pre-binned uint8 training matrix (``view.binned``) sliced from the
        universal bin codes; a cached view without codes is upgraded once
        and re-cached.
        """
        cached = self._matrix_cache.get(bits)
        if cached is not None and (
            not include_binned or cached.binned is not None
        ):
            return cached
        view = self.column_store.encode_subset(
            self.row_mask(bits),
            self.active_attributes(bits),
            include_binned=include_binned,
        )
        self._matrix_cache.put(bits, view)
        return view

    def output_size(self, bits: int) -> tuple[int, int]:
        keep = int(self.row_mask(bits).sum())
        cols = len(self.active_attributes(bits)) + 1
        return (keep, cols)

    def feature_vector(self, bits: int) -> np.ndarray:
        rows, cols = self.output_size(bits)
        stats = np.array(
            [
                rows / max(1, self.universal.num_rows),
                cols / max(1, self.universal.num_columns),
            ]
        )
        return np.concatenate([bits_to_array(bits, self.width), stats])

    def feature_matrix(self, bits_list: Sequence[int]) -> np.ndarray:
        """Batched feature vectors (bit-identical rows to feature_vector).

        The bitmap block is assembled as one array and the size statistics
        come from the shared mask cache, so a surrogate refit window costs
        one vectorized mask per distinct state instead of repeated
        per-state bookkeeping.
        """
        bits_list = list(bits_list)
        if not bits_list:
            return np.zeros((0, self.width + 2))
        bitmap = np.array(
            [[(bits >> i) & 1 for i in range(self.width)] for bits in bits_list],
            dtype=float,
        )
        n_rows = max(1, self.universal.num_rows)
        n_cols = max(1, self.universal.num_columns)
        stats = np.array(
            [
                [rows / n_rows, cols / n_cols]
                for rows, cols in (self.output_size(b) for b in bits_list)
            ]
        )
        return np.concatenate([bitmap, stats], axis=1)

    def valid_flip(self, bits: int, index: int) -> bool:
        """Disallow flips that strand the search in degenerate states.

        * a cluster bit only matters while its attribute is active;
        * the last active attribute must stay (a model needs ≥1 feature);
        * the last active cluster of an active attribute must stay (else
          every non-null row of that attribute dies — drop the attribute
          bit instead, which is a distinct operator).
        """
        entry = self.entries[index]
        active = (bits >> index) & 1
        if entry.kind == ENTRY_ATTRIBUTE:
            if active and len(self.active_attributes(bits)) <= 1:
                return False
            return True
        attr_idx = self._attr_entry[entry.attribute]
        if not (bits >> attr_idx) & 1:
            return False
        if active:
            siblings = self._cluster_entries[entry.attribute]
            active_siblings = sum(1 for e in siblings if (bits >> e) & 1)
            if active_siblings <= 1:
                return False
        return True

    @property
    def cache_stats(self) -> dict[str, Any]:
        """Hit/miss/byte accounting for every materialization cache.

        Top-level ``hits``/``misses``/``bytes``/``entries``/``evictions``
        aggregate the Table, matrix and mask caches; per-cache breakdowns
        ride along under their own keys (also surfaced by the service's
        ``GET /v1/metrics`` as the ``materialization`` section).
        """
        tables = self._cache.stats()
        matrices = self._matrix_cache.stats()
        masks = self._mask_cache.stats()
        combined: dict[str, Any] = {
            key: tables[key] + matrices[key] + masks[key]
            for key in ("hits", "misses", "bytes", "entries", "evictions")
        }
        combined["tables"] = tables
        combined["matrices"] = matrices
        combined["masks"] = masks
        return combined


class GraphSearchSpace(SearchSpace):
    """Bitmap semantics over a pool bipartite graph (Task T5).

    Entries are edge clusters of the pool graph; a bitmap materializes as
    the subgraph containing exactly the active clusters' edges. Flipping
    1→0 deletes a cluster of edges (graph ⊖); 0→1 inserts it (graph ⊕).
    """

    def __init__(
        self,
        pool: BipartiteGraph,
        n_clusters: int = 12,
        seed: int = 0,
        cache_size: int = 256,
        cache_bytes: int = 32 << 20,
    ):
        if pool.num_edges == 0:
            raise SearchError("pool graph has no edges")
        self.pool = pool
        self.seed = seed
        clusters = cluster_edges(pool, n_clusters=n_clusters, seed=seed)
        if not clusters:
            raise SearchError("edge clustering produced no clusters")
        self.entries = tuple(
            Entry(label=f"ec:{c.label}", kind=ENTRY_EDGE_CLUSTER, payload=c)
            for c in clusters
        )
        self._cache = _ByteBudgetLRU(cache_bytes, cache_size)

    @property
    def cache_stats(self) -> dict[str, Any]:
        """Hit/miss/byte accounting for the subgraph materialization cache."""
        return self._cache.stats()

    def backward_bits(self) -> int:
        """The densest single edge cluster — a minimal connected seed."""
        sizes = [len(e.payload) for e in self.entries]
        return 1 << int(np.argmax(sizes))

    def materialize(self, bits: int) -> BipartiteGraph:
        cached = self._cache.get(bits)
        if cached is not None:
            return cached
        empty = BipartiteGraph(self.pool.n_users, self.pool.n_items, (),
                               name=self.pool.name)
        graph = empty
        for index in iter_set_bits(bits):
            cluster: EdgeCluster = self.entries[index].payload
            graph = augment_edges(graph, self.pool, cluster)
        self._cache.put(bits, graph)
        return graph

    def output_size(self, bits: int) -> tuple[int, int]:
        edges = sum(len(self.entries[i].payload) for i in iter_set_bits(bits))
        _, dims = self.pool.shape
        return (edges, dims)

    def feature_vector(self, bits: int) -> np.ndarray:
        edges, _ = self.output_size(bits)
        stats = np.array([edges / max(1, self.pool.num_edges)])
        return np.concatenate([bits_to_array(bits, self.width), stats])

    def valid_flip(self, bits: int, index: int) -> bool:
        """Keep at least one active edge cluster (LightGCN needs edges)."""
        active = (bits >> index) & 1
        if active and bits.bit_count() <= 1:
            return False
        return True


@dataclass(frozen=True, slots=True)
class Transition:
    """One running-graph edge: (s, op, s')."""

    parent_bits: int
    child_bits: int
    op: str


class RunningGraph:
    """The DAG ``G_T = (V, δ)`` of spawned-and-valuated states."""

    def __init__(self) -> None:
        self.states: dict[int, State] = {}
        self.transitions: list[Transition] = []

    def add_state(self, state: State) -> None:
        """Record a state node (first writer wins for a given bitmap)."""
        self.states.setdefault(state.bits, state)

    def add_transition(self, parent: int, child: int, op: str) -> None:
        """Record one (s, op, s') edge."""
        self.transitions.append(Transition(parent, child, op))

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_valuated(self) -> int:
        return sum(1 for s in self.states.values() if s.valuated)

    def to_networkx(self):
        """Export as a networkx DiGraph for analysis/visualization."""
        import networkx as nx

        graph = nx.DiGraph()
        for bits, state in self.states.items():
            graph.add_node(bits, level=state.level, valuated=state.valuated)
        for tr in self.transitions:
            graph.add_edge(tr.parent_bits, tr.child_bits, op=tr.op)
        return graph

    def path_to(self, bits: int) -> list[tuple[int, str]]:
        """The operator path from a start state to ``bits``.

        Walks ``parent_bits`` links back to a root and returns
        ``[(state_bits, via), ...]`` in application order — the narrative
        provenance that pairs with :func:`repro.sql.state_to_sql`'s
        declarative form. Unknown states raise :class:`SearchError`.
        """
        if bits not in self.states:
            raise SearchError(f"state {bits:#x} is not in the running graph")
        path: list[tuple[int, str]] = []
        current: int | None = bits
        seen: set[int] = set()
        while current is not None:
            if current in seen:
                raise SearchError("parent links form a cycle")
            seen.add(current)
            state = self.states[current]
            path.append((current, state.via or "start"))
            current = state.parent_bits
            if current is not None and current not in self.states:
                break
        path.reverse()
        return path

    def to_dot(self, highlight: set[int] | None = None) -> str:
        """Graphviz text for the running graph.

        Skyline members passed in ``highlight`` render as doubled circles;
        un-valuated states are dashed. Paste the output into any dot
        renderer to inspect which reductions/augmentations a run explored.
        """
        highlight = highlight or set()
        lines = ["digraph G_T {", "  rankdir=TB;"]
        for bits, state in sorted(self.states.items()):
            attrs = [f'label="{bits:#x}\\nlevel {state.level}"']
            if bits in highlight:
                attrs.append("shape=doublecircle")
            if not state.valuated:
                attrs.append("style=dashed")
            lines.append(f'  n{bits} [{", ".join(attrs)}];')
        for tr in self.transitions:
            op = tr.op.replace('"', "'")
            lines.append(
                f'  n{tr.parent_bits} -> n{tr.child_bits} [label="{op}"];'
            )
        lines.append("}")
        return "\n".join(lines)


class Transducer:
    """OpGen over a search space: children differ from the parent in 1 bit."""

    def __init__(self, space: SearchSpace):
        self.space = space

    def spawn(
        self, bits: int, direction: Direction = "forward"
    ) -> Iterator[tuple[int, str]]:
        """Yield (child_bits, operator description).

        Forward = reductions (flip 1→0, from the universal end); backward =
        augmentations (flip 0→1, from the minimal end), exactly the revised
        OpGen of Algorithm 2.
        """
        if direction == "forward":
            candidates: Sequence[int] = list(iter_set_bits(bits))
            symbol = "⊖"
        elif direction == "backward":
            candidates = list(iter_clear_bits(bits, self.space.width))
            symbol = "⊕"
        else:
            raise SearchError(f"unknown direction {direction!r}")
        for index in candidates:
            if not self.space.valid_flip(bits, index):
                continue
            child = flip_bit(bits, index)
            yield child, f"{symbol}[{self.space.describe_entry(index)}]"
