"""All-pairs hop distances with shortest-path sign classification.

distance_table runs one breadth-first search for every source at once,
level by level, as whole-array boolean operations in the style of
linear-algebra graph algorithms (Kepner & Gilbert, SIAM 2011). Bit s of
row v of the frontier P (or Q) says that source s reaches v at the
current level by a positive (or negative) shortest path. One level is

    P'[v] = OR over neighbours u of (P[u] if uv is positive else Q[u])
    Q'[v] = OR over neighbours u of (Q[u] if uv is positive else P[u])
    new   = (P' | Q') & unseen;  P' &= new;  Q' &= new

which is exact: no path is enumerated and no count can overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import SignedGraph
from .matrices import SquareMatrix

DISTANCE_KINDS = ("max", "min", "pm")

# Frontier words hold 64 sources each. They are little-endian so that
# their bytes unpack in source order on any host.
_WORD = np.dtype("<u8")
_ONE = np.uint64(1)
_BIT = np.left_shift(np.ones(64, _WORD), np.arange(64, dtype=_WORD))
_SIDES = np.array([[[0]], [[1]]])  # feeds of P' (0) and of Q' (1)


class DisconnectedGraphError(ValueError):
    """Distance operations require a connected graph."""

    def __init__(self, vertex: int, source: int):
        self.vertex = vertex
        self.source = source
        super().__init__(
            f"graph is disconnected: vertex index {vertex} is unreachable "
            f"from vertex index {source}"
        )


class IncompatibleGraphError(ValueError):
    """A vertex pair admits shortest paths of both signs."""

    def __init__(self, pair: tuple[int, int]):
        self.pair = pair
        u, v = pair
        super().__init__(
            f"graph is not distance-compatible: vertex indices {u} and {v} "
            f"have shortest paths of both signs"
        )


@dataclass(frozen=True, eq=False)
class DistanceTable:
    """Symmetric hop distances plus the two sign-existence flags per pair.

    The diagonal is d=0 with exists_pos True and exists_neg False by
    convention, matching the zero diagonal of the distance matrices.
    """

    dist: np.ndarray
    pos: np.ndarray
    neg: np.ndarray

    def __post_init__(self):
        # An array that owns its data and is read-only cannot change under
        # the table; anything else, a view included, is copied first.
        for name in ("dist", "pos", "neg"):
            arr = getattr(self, name)
            if arr.flags.writeable or not arr.flags.owndata:
                arr = arr.copy()
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.dist.shape[0]


def _level_plan(g: SignedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Gather rows and segment starts for one level of the signed BFS.

    Returns (gather, starts). Frontier rows are P[0..n) followed by
    Q[0..n). gather[0] lists, arc by arc, the row that feeds P'[head]:
    P[tail] for a positive edge and Q[tail] for a negative one; gather[1]
    lists the row that feeds Q'[head]. Arcs are grouped by head, and
    starts[v] is where the group of v begins. A vertex without neighbours
    gets a self arc, which only carries sources that already reached it.
    """
    n, m = g.n, g.m
    e = np.fromiter(chain.from_iterable(g.edges), np.intp, 3 * m).reshape(m, 3).T
    heads = e[1::-1].ravel()
    rows = (e[:2] + n * ((e[2] < 0) ^ _SIDES)).reshape(2, 2 * m)
    degree = np.bincount(heads, minlength=n)
    if np.count_nonzero(degree) < n:
        lonely = np.flatnonzero(degree == 0)
        heads = np.concatenate((heads, lonely))
        rows = np.concatenate((rows, np.stack((lonely, lonely + n))), axis=1)
        degree[lonely] = 1
    starts = degree.cumsum()
    starts -= degree
    return rows.take(heads.argsort(kind="stable"), axis=1), starts


def distance_table(g: SignedGraph) -> DistanceTable:
    """Hop distance and sign flags for every pair, by one BFS from all
    sources at once (see the module docstring). Distances count hops, so
    the weights of g are ignored.

    Raises DisconnectedGraphError on disconnected input, naming source 0
    and the least vertex it cannot reach.
    """
    n = g.n
    words = (n + 63) >> 6
    gather, starts = _level_plan(g)
    # frontier[0] is P and frontier[1] is Q; bit s of row v is source s.
    # Level 0: every source reaches itself by the empty, positive path.
    frontier = np.zeros((2, n, words), _WORD)
    v = np.arange(n)
    frontier[0, v, v >> 6] = _BIT[v & 63]
    # found[0] and found[1] collect the pos and neg flags; planes[b]
    # collects bit b of the hop distance. Distances are below n.
    found = np.zeros((2 + max(1, (n - 1).bit_length()), n, words), _WORD)
    flags, planes = found[:2], found[2:]
    flags[0] = frontier[0]
    unseen = np.invert(frontier[0])
    # the last word has no sources past n - 1
    unseen[:, -1] &= np.uint64(2**64 - 1) >> np.uint64(64 * words - n)
    frontier_rows = frontier.reshape(2 * n, words)
    gathered = np.empty(gather.shape + (words,), _WORD)
    new = np.empty((n, words), _WORD)
    level = 0
    while np.count_nonzero(unseen):
        level += 1
        frontier_rows.take(gather, axis=0, out=gathered)
        np.bitwise_or.reduceat(gathered, starts, axis=1, out=frontier)
        frontier &= unseen
        np.bitwise_or(frontier[0], frontier[1], out=new)
        if not np.count_nonzero(new):
            raise DisconnectedGraphError(int(np.flatnonzero(unseen[:, 0] & _ONE)[0]), 0)
        unseen ^= new
        flags |= frontier
        for b in range(level.bit_length()):
            if level >> b & 1:
                planes[b] |= new
    used = 2 + max(1, level.bit_length())
    bits = np.unpackbits(found[:used].view(np.uint8), axis=2, count=n, bitorder="little")
    dist = bits[2].astype(np.int64)
    for b in range(1, used - 2):
        dist |= np.left_shift(bits[2 + b], b, dtype=np.int64)
    pos, neg = bits[0].view(bool).copy(), bits[1].view(bool).copy()
    for arr in (dist, pos, neg):
        arr.setflags(write=False)
    return DistanceTable(dist, pos, neg)


def is_compatible(table: DistanceTable) -> tuple[bool, tuple[int, int] | None]:
    """True when no pair has shortest paths of both signs.

    On failure returns the lexicographically least incompatible pair.
    """
    bad = table.pos & table.neg
    np.fill_diagonal(bad, False)
    if not bad.any():
        return True, None
    u, v = np.argwhere(bad)[0]
    return False, (int(u), int(v))


def distance_matrix(table: DistanceTable, kind: str) -> SquareMatrix:
    """Signed distance matrix: entry is sigma(u,v) * d(u,v).

    sigma_max(u,v) is +1 unless every shortest path between u and v is
    negative, and sigma_min(u,v) is -1 unless every one is positive. kind
    "max" uses sigma_max and "min" uses sigma_min. "pm" requires the table
    to be compatible, where the two coincide, and then uses sigma_max.
    """
    if kind not in DISTANCE_KINDS:
        raise ValueError(f"kind must be one of {DISTANCE_KINDS}, got {kind!r}")
    if kind == "pm":
        ok, witness = is_compatible(table)
        if not ok:
            raise IncompatibleGraphError(witness)
    if kind == "min":
        sig = np.where(table.neg, -1, 1)
    else:
        sig = np.where(table.pos, 1, -1)
    return SquareMatrix(sig * table.dist, f"d{kind}")


def transmission(table: DistanceTable) -> np.ndarray:
    """Per-vertex sum of unsigned hop distances to every other vertex."""
    return table.dist.sum(axis=1)


def associated_complete(g: SignedGraph, table: DistanceTable, kind: str) -> SignedGraph:
    """Complete the graph: each vertex pair gets an edge whose sign and
    weight are those of its entry in distance_matrix(table, kind), the
    pair's sigma_max (or sigma_min) and hop distance.

    An edge of g keeps its own sign with weight 1, because it is the
    unique shortest path between its ends. Edges come out in
    lexicographic endpoint order.
    """
    if kind not in ("max", "min"):
        raise ValueError(f"kind must be 'max' or 'min', got {kind!r}")
    u, v = np.triu_indices(g.n, 1)
    d = distance_matrix(table, kind).entries[u, v]
    edges = zip(u.tolist(), v.tolist(), np.sign(d).tolist())
    return SignedGraph(g.n, tuple(edges), tuple(np.abs(d).tolist()))
