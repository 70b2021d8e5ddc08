"""Process-to-processor mappings on the BG/P torus.

Section I.A of the paper: "By default, processes are mapped to compute
nodes in XYZT ordering, i.e., assigning one process to each node in the
X direction of the torus, then the Y, then the Z, then returning to the
first node and assigning a second process, etc.  In contrast, when
using VN mode the TXYZ ordering assigns processes 0-3 to the first
node, 4-7 to the second node (in the X direction), etc. ...  Other
predefined mappings are XZYT, YXZT, YZXT, ZXYT, and ZYXT, as well as
analogous orderings beginning with 'T'."

A mapping is a permutation of the letters ``X``, ``Y``, ``Z``, ``T``:
the first letter varies fastest as the rank increases.  ``T`` indexes
the task slot within a node (0..tasks_per_node-1).

The HALO experiments (paper Fig. 2c,d) sweep these mappings; the
machinery here converts ranks to torus coordinates for any of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Any, Dict, Iterator, Sequence, Tuple

import numpy as np

__all__ = [
    "Mapping",
    "PREDEFINED_MAPPINGS",
    "PAPER_FIG2_MAPPINGS",
    "coords_of_rank",
    "rank_of_coords",
]

#: All 24 permutations of XYZT are valid mapping names.
_VALID = {"".join(p) for p in permutations("XYZT")}

#: The predefined mappings the paper lists in Section I.A.
PREDEFINED_MAPPINGS: Tuple[str, ...] = (
    "XYZT",
    "XZYT",
    "YXZT",
    "YZXT",
    "ZXYT",
    "ZYXT",
    "TXYZ",
    "TXZY",
    "TYXZ",
    "TYZX",
    "TZXY",
    "TZYX",
)

#: The eight mappings compared in the paper's Figure 2(c,d).
PAPER_FIG2_MAPPINGS: Tuple[str, ...] = (
    "TXYZ",
    "TYXZ",
    "TZXY",
    "TZYX",
    "XYZT",
    "YXZT",
    "ZXYT",
    "ZYXT",
)


@dataclass(frozen=True)
class Mapping:
    """A rank -> (x, y, z, t) assignment for a given partition shape.

    ``shape`` is the torus (X, Y, Z) in nodes; ``tasks_per_node`` is the
    T extent (1 for SMP, 2 for DUAL, 4 for VN on BG/P).
    """

    order: str
    shape: Tuple[int, int, int]
    tasks_per_node: int = 1

    def __post_init__(self) -> None:
        if self.order.upper() not in _VALID:
            raise ValueError(
                f"invalid mapping {self.order!r}: must be a permutation of XYZT"
            )
        object.__setattr__(self, "order", self.order.upper())
        if any(d < 1 for d in self.shape):
            raise ValueError(f"invalid torus shape {self.shape}")
        if self.tasks_per_node < 1:
            raise ValueError("tasks_per_node must be >= 1")

    @property
    def extents(self) -> Dict[str, int]:
        x, y, z = self.shape
        return {"X": x, "Y": y, "Z": z, "T": self.tasks_per_node}

    @property
    def size(self) -> int:
        """Total ranks the mapping can place."""
        x, y, z = self.shape
        return x * y * z * self.tasks_per_node

    def _digits(self, rank: Any) -> Dict[str, Any]:
        """Mixed-radix digits of ``rank`` (an int or an integer array).

        The first letter of :attr:`order` varies fastest.  An array
        ``rank`` is left as it was.
        """
        ext = self.extents
        vals: Dict[str, Any] = {}
        rem = rank
        for letter in self.order:
            vals[letter] = rem % ext[letter]
            rem = rem // ext[letter]
        return vals

    def coords(self, rank: int) -> Tuple[int, int, int, int]:
        """Torus coordinates ``(x, y, z, t)`` of ``rank``."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} outside [0, {self.size})")
        vals = self._digits(rank)
        return (vals["X"], vals["Y"], vals["Z"], vals["T"])

    def node_coords(self, ranks: Any) -> np.ndarray:
        """The ``(x, y, z)`` nodes of many ranks at once: shape ``(n, 3)``.

        Row ``k`` equals ``node_of(ranks[k])``.
        """
        ranks = np.asarray(ranks, dtype=np.int64)
        if ranks.size and not (0 <= ranks.min() and ranks.max() < self.size):
            raise ValueError(f"ranks outside [0, {self.size})")
        vals = self._digits(ranks)
        return np.stack([vals["X"], vals["Y"], vals["Z"]], axis=-1)

    def rank(self, x: int, y: int, z: int, t: int = 0) -> int:
        """Inverse of :meth:`coords`."""
        ext = self.extents
        vals = {"X": x, "Y": y, "Z": z, "T": t}
        for letter, v in vals.items():
            if not 0 <= v < ext[letter]:
                raise ValueError(f"{letter}={v} outside [0, {ext[letter]})")
        r = 0
        for letter in reversed(self.order):
            r = r * ext[letter] + vals[letter]
        return r

    def node_of(self, rank: int) -> Tuple[int, int, int]:
        """The (x, y, z) node holding ``rank``."""
        x, y, z, _ = self.coords(rank)
        return (x, y, z)

    def all_coords(self) -> Iterator[Tuple[int, Tuple[int, int, int, int]]]:
        """Yield ``(rank, (x, y, z, t))`` for every rank."""
        for r in range(self.size):
            yield r, self.coords(r)

    def node_index(self, rank: int) -> int:
        """Flat node id (x-major) of the node hosting ``rank``."""
        x, y, z = self.node_of(rank)
        X, Y, Z = self.shape
        return (z * Y + y) * X + x


def coords_of_rank(
    rank: int,
    order: str,
    shape: Sequence[int],
    tasks_per_node: int = 1,
) -> Tuple[int, int, int, int]:
    """Convenience wrapper over :class:`Mapping`."""
    return Mapping(order, tuple(shape), tasks_per_node).coords(rank)


def rank_of_coords(
    coords: Sequence[int],
    order: str,
    shape: Sequence[int],
    tasks_per_node: int = 1,
) -> int:
    """Convenience wrapper over :class:`Mapping.rank`."""
    x, y, z, t = coords
    return Mapping(order, tuple(shape), tasks_per_node).rank(x, y, z, t)
