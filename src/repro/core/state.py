"""Search states and their bitmap encoding.

Algorithm 1 associates each state with "a bitmap L to encode if its schema
contains an attribute A in D_U, and if D_s contains a value from its active
domain adom(A)". We encode the bitmap as a Python int (bit ``i`` set ⇔ entry
``i`` active), which makes states hashable, cheap to copy, and lets OpGen be
literally "flip one bit".

A :class:`State` also carries the valuation artifacts the algorithms attach:
the (estimated) normalized performance vector ``perf``, the ε-grid position
``pos`` (Equation 1), parameterized ranges for un-valuated measures used by
BiMODis' correlation pruning, and the level at which it was spawned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..exceptions import SearchError


def bit_count(bits: int) -> int:
    """Number of active entries."""
    return bits.bit_count()


def iter_set_bits(bits: int) -> Iterator[int]:
    """Indices of 1-bits, ascending."""
    index = 0
    while bits:
        if bits & 1:
            yield index
        bits >>= 1
        index += 1


def iter_clear_bits(bits: int, width: int) -> Iterator[int]:
    """Indices of 0-bits below ``width``, ascending."""
    for index in range(width):
        if not (bits >> index) & 1:
            yield index


def flip_bit(bits: int, index: int) -> int:
    """Bits with entry ``index`` toggled."""
    return bits ^ (1 << index)


def unpack_bitmaps(bits_list: Sequence[int], width: int) -> np.ndarray:
    """Bitmaps as a ``(len(bits_list), width)`` uint8 0/1 matrix.

    Row ``r`` column ``i`` is bit ``i`` of ``bits_list[r]``; bits at or
    above ``width`` are ignored. One ``np.unpackbits`` over the
    little-endian bytes of every bitmap, instead of a per-bit Python walk.
    """
    n_bytes = (width + 7) // 8
    low = (1 << width) - 1
    packed = np.frombuffer(
        b"".join((bits & low).to_bytes(n_bytes, "little") for bits in bits_list),
        dtype=np.uint8,
    ).reshape(len(bits_list), n_bytes)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little")


def bits_to_array(bits: int, width: int) -> np.ndarray:
    """Bitmap as a float 0/1 vector (estimator features, cosine distance)."""
    return unpack_bitmaps((bits,), width)[0].astype(float)


def bits_from_labels(labels: set[str], all_labels: tuple[str, ...]) -> int:
    """Bitmap with exactly the entries whose label is in ``labels`` set."""
    unknown = labels - set(all_labels)
    if unknown:
        raise SearchError(f"unknown bitmap labels: {sorted(unknown)}")
    bits = 0
    for i, label in enumerate(all_labels):
        if label in labels:
            bits |= 1 << i
    return bits


@dataclass(slots=True)
class State:
    """One node of the running graph.

    ``perf`` is the normalized |P|-vector once valuated (estimated or
    oracle-measured — the algorithms do not care which, matching the paper's
    estimator abstraction). ``est_low``/``est_high`` are the parameterized
    ranges ``[p̂_l, p̂_u]`` BiMODis infers for not-yet-valuated measures.
    """

    bits: int
    level: int = 0
    perf: np.ndarray | None = None
    pos: tuple[int, ...] | None = None
    est_low: np.ndarray | None = None
    est_high: np.ndarray | None = None
    via: str = ""  # operator description that spawned this state
    parent_bits: int | None = None

    @property
    def valuated(self) -> bool:
        """The paper's "state node s is valuated" predicate."""
        return self.perf is not None

    def key(self) -> int:
        """The state's identity: its bitmap."""
        return self.bits

    def __hash__(self) -> int:
        return hash(self.bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, State):
            return NotImplemented
        return self.bits == other.bits

    def __repr__(self) -> str:
        perf = (
            "[" + ", ".join(f"{v:.3f}" for v in self.perf) + "]"
            if self.perf is not None
            else "unvaluated"
        )
        return f"State(bits={self.bits:#x}, level={self.level}, perf={perf})"


def grid_position(
    perf: np.ndarray,
    lowers: np.ndarray,
    epsilon: float,
) -> tuple[int, ...]:
    """Equation 1: ``pos(s) = [⌊log_{1+ε}(P(p_i) / p_l_i)⌋]`` over the first
    |P|−1 measures.

    ``perf`` is the full |P|-vector; ``lowers`` the matching ``p_l`` values
    for the grid measures only (callers slice off the decisive measure).
    """
    if epsilon <= 0:
        raise SearchError("epsilon must be positive for the ε-grid")
    values = np.asarray(perf, dtype=float)[: len(lowers)]
    ratios = np.maximum(values / lowers, 1.0)
    cells = np.floor(np.log(ratios) / np.log1p(epsilon))
    return tuple(int(c) for c in cells)
